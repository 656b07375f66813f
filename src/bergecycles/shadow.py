"""Shadow t-graph of a colored hypergraph: per-t-set color counts and the
t-good multi-coloring.

For a t-set e, color i is *t-good* when at least r-t+1 edges of color i
contain e.  The multi-coloring assigns every t-set its set of t-good colors;
S_i collects the t-sets where color i fails to be good.  Everything is stored
densely, indexed by t-set colex rank.

All counting goes through one kernel, `subset_color_counts`, which peels the
top column: one `np.bincount` per column subset through the edge's top
column, over the key `colex_rank(t-subset) * c + (color - 1)`, and
contiguous per-block weights for the edges' lower sets, carried down level
by level.  The rows are split into contiguous spans, one per usable CPU;
each span counts into its own bins and weights on a thread started and
joined within the call, and they are summed at the end.  A table of fewer
than two chunks runs inline on the calling thread.

Per-vertex color incidence comes from a built shadow: `vertex_color_counts`
sums the counts over the t-sets through each vertex and divides by
C(r-1, t-1), so a solve that builds a shadow makes no second pass over the
edge table for it.  (`subset_color_counts(h, 1)` gives the same counts.)
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    ColoredHypergraph,
    InvalidParams,
    Params,
    _BINOM,
    binom,
    edge_table,
)

_CHUNK_ROWS = 1 << 15  # edge-table rows per chunk; raised to the key range when larger


def _usable_cpus() -> int:
    """The CPUs this process may run on: the most row spans a count uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:               # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class ShadowMulticoloring:
    params: Params
    t: int
    counts: np.ndarray    # (C(n,t), c) int32: containing-edge count per color
    goodmask: np.ndarray  # (C(n,t),) uint32: bit i-1 set iff color i is t-good

    @property
    def threshold(self) -> int:
        return self.params.r - self.t + 1

    def good_colors(self, rank: int) -> tuple[int, ...]:
        mask = int(self.goodmask[rank])
        return tuple(i for i in range(1, self.params.c + 1) if mask >> (i - 1) & 1)

    def is_good(self, rank: int, color: int) -> bool:
        return bool(self.goodmask[rank] >> (color - 1) & 1)


def _goodmask_from_counts(counts: np.ndarray, threshold: int) -> np.ndarray:
    bits = (counts >= threshold).astype(np.uint32)
    return (bits << np.arange(counts.shape[1], dtype=np.uint32)).sum(
        axis=1, dtype=np.uint32)


def _top_column_keys(rows: np.ndarray, top: int, t: int, luts: list,
                     base: np.ndarray):
    """`base` plus the rank keys of each t-subset of `rows`' columns 0..top
    that holds column `top`, one key array per subset."""
    key_top = base + luts[t - 1][rows[:, top]]
    for cols in itertools.combinations(range(top), t - 1):
        key = key_top
        for j, col in enumerate(cols):
            key = key + luts[j][rows[:, col]]
        yield key


def subset_color_counts(h: ColoredHypergraph, t: int) -> np.ndarray:
    """(C(n,t), c) int64: per t-set and color, the containing r-edges of that color.

    At t = r each edge holds one r-set, itself, so the counts are its color
    one-hot.  Below r, one top-column peel:

    - The C(r-1, t-1) t-subsets of an edge that hold its top column r-1 are
      counted with one bincount each over `colex_rank * c + (color - 1)`.
    - Every other t-subset lies in the edge's lower (r-1)-set.  In colex
      order the edges with top vertex d are the rows [C(d,r), C(d+1,r)),
      and row C(d,r)+q has lower-set rank q, so the per-color weights of
      the lower sets are one contiguous `colors == i+1` add per block piece
      and color.
    - The weights are carried down one level at a time: at level k the
      t-subsets through column k-1 get a weighted bincount over the k-sets,
      and block sums over equal top vertex give the (k-1)-set weights.  At
      k = t the weights are the counts of the first C(n-1, t) t-sets.

    A chunk holds at least as many rows as there are keys (C(n,t)*c), so the
    `minlength` of each bincount never outweighs the rows it counts.  The
    rank of a t-subset is summed from per-position tables C(v, j+1)*c, so no
    rank array over the whole edge table is built.  The chunks are dealt out
    in order to at most one span per usable CPU and per whole chunk; integer
    sums do not depend on order, so the span count never changes a result.
    """
    p = h.params
    if not 1 <= t <= p.r:
        raise InvalidParams(f"need 1 <= t <= r={p.r}, got t={t}")
    if t == p.r:
        out = np.zeros((p.num_edges, p.c), dtype=np.int64)
        out[np.arange(p.num_edges), h.colors.astype(np.intp) - 1] = 1
        return out
    m_t = binom(p.n, t)
    size = m_t * p.c
    luts = [_BINOM[:p.n, j + 1] * p.c for j in range(t)]
    first = [binom(d, p.r) for d in range(p.n + 1)]   # first row with top d
    tab = edge_table(p.n, p.r)
    step = max(_CHUNK_ROWS, size)
    chunks = -(-len(tab) // step)
    workers = max(1, min(_usable_cpus(), len(tab) // step))
    # span k holds whole chunks, so every chunk but the table's last is full
    cuts = [min(len(tab), chunks * k // workers * step)
            for k in range(workers + 1)]
    outs = [np.zeros(size, dtype=np.int64) for _ in range(workers)]
    # per lower (r-1)-set and color, its edges of that color: one per top
    # vertex above the set, so at most n - r + 1 < 256
    lows = [np.zeros((p.c, binom(p.n - 1, p.r - 1)), dtype=np.uint8)
            for _ in range(workers)]
    errors: list[BaseException] = []

    def count_span(k: int) -> None:
        try:
            for lo in range(cuts[k], cuts[k + 1], step):
                hi = min(lo + step, len(tab))
                colors = h.colors[lo:hi]
                rows = tab[lo:hi].astype(np.intp)
                for key in _top_column_keys(rows, p.r - 1, t, luts,
                                            colors.astype(np.int64) - 1):
                    outs[k] += np.bincount(key, minlength=size)
                d = bisect.bisect_right(first, lo) - 1
                a = lo
                while a < hi:
                    b = min(hi, first[d + 1])
                    q = a - first[d]
                    for i in range(p.c):
                        lows[k][i, q:q + b - a] += colors[a - lo:b - lo] == i + 1
                    a, d = b, d + 1
        except BaseException as exc:     # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=count_span, args=(k,))
               for k in range(1, workers)]
    for th in threads:
        th.start()
    count_span(0)
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    out = sum(outs[1:], outs[0])
    weights = lows[0]
    for low in lows[1:]:
        weights += low
    color_keys = np.arange(p.c)[:, None]     # one key row per weight row
    for k in range(p.r - 1, t, -1):
        # the k-sets of {0..n-2}: a prefix of the k-table by colex nesting
        tab_k = edge_table(p.n, k)[:weights.shape[1]]
        for lo in range(0, len(tab_k), step):
            rows = tab_k[lo:lo + step].astype(np.intp)
            flat = weights[:, lo:lo + step].ravel().astype(np.float64)
            for key in _top_column_keys(rows, k - 1, t, luts, color_keys):
                out += np.bincount(key.ravel(), weights=flat,
                                   minlength=size).astype(np.int64)
        below = np.zeros((p.c, binom(p.n - 1, k - 1)), dtype=np.int64)
        for d in range(k - 1, p.n - 1):
            m = binom(d, k - 1)
            below[:, :m] += weights[:, binom(d, k):binom(d, k) + m]
        weights = below
    out = out.reshape(m_t, p.c)
    out[:weights.shape[1]] += weights.T
    return out


def build_shadow(h: ColoredHypergraph, t: int) -> ShadowMulticoloring:
    """Count, for every t-set and color, the containing r-edges of that color."""
    p = h.params
    if not 2 <= t <= p.r:
        raise InvalidParams(f"need 2 <= t <= r={p.r}, got t={t}")
    counts = subset_color_counts(h, t).astype(np.int32)
    goodmask = _goodmask_from_counts(counts, p.r - t + 1)
    counts.setflags(write=False)
    goodmask.setflags(write=False)
    return ShadowMulticoloring(params=p, t=t, counts=counts, goodmask=goodmask)


def vertex_color_counts(s: ShadowMulticoloring) -> np.ndarray:
    """(n, c) int64: per vertex and color, the r-edges of that color through it.

    Each such edge holds C(r-1, t-1) of the t-sets through the vertex, so
    summing the shadow counts over those t-sets counts it that many times.
    """
    p = s.params
    tab = edge_table(p.n, s.t)
    out = np.zeros((p.n, p.c), dtype=np.int64)
    for j in range(s.t):
        np.add.at(out, tab[:, j], s.counts)
    return out // binom(p.r - 1, s.t - 1)


def dump_shadow(s: ShadowMulticoloring, fh) -> None:
    """Write one line per t-set: `v1 .. vt : counts.. : good colors..`."""
    tab = edge_table(s.params.n, s.t)
    for rank in range(len(tab)):
        verts = " ".join(str(int(v)) for v in tab[rank])
        cnts = " ".join(str(int(x)) for x in s.counts[rank])
        goods = " ".join(str(i) for i in s.good_colors(rank))
        fh.write(f"{verts} : {cnts} : {goods}".rstrip() + "\n")
