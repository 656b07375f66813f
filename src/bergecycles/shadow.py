"""Shadow t-graph of a colored hypergraph: per-t-set color counts and the
t-good multi-coloring.

For a t-set e, color i is *t-good* when at least r-t+1 edges of color i
contain e.  The multi-coloring assigns every t-set its set of t-good colors;
S_i collects the t-sets where color i fails to be good.  Everything is stored
densely, indexed by t-set colex rank.

All counting goes through one kernel, `subset_color_counts`, a block peel.
The edges with top vertex d are one colex block and the t-sets through d
one contiguous rank range, so each block adds one `np.bincount` per
(t-1)-subset of its lower columns, over cached keys `colex_rank * c - 1`
plus the block's colors, straight into that range.  The edges' lower sets
get per-block weights, carried down level by level with weighted bincounts
in the same way.  The count reads no r-edge table and starts no thread.

Per-vertex color incidence comes from a built shadow: `vertex_color_counts`
sums the counts over the t-sets through each vertex and divides by
C(r-1, t-1), so a solve that builds a shadow makes no second pass over the
edge table for it.  (`subset_color_counts(h, 1)` gives the same counts.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ColoredHypergraph,
    InvalidParams,
    Params,
    _BINOM,
    binom,
    edge_table,
)


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


@lru_cache(maxsize=64)
def _subset_keys(n: int, k: int, cols: tuple[int, ...], c: int) -> np.ndarray:
    """Read-only `colex_rank(row[cols]) * c - 1` for each k-subset row of
    {0..n-2}, in the smallest signed type that also holds a key plus a
    color 1..c (every such sum is below C(n-1, len(cols)) * c).

    The rows are a prefix of the cached edge_table(n, k).
    """
    top = binom(n - 1, len(cols)) * c - 1
    dtype = next(d for d in (np.int16, np.int32, np.int64)
                 if top <= np.iinfo(d).max)
    rows = edge_table(n, k)[:binom(n - 1, k)]
    keys = np.full(len(rows), -1, dtype=np.int64)
    for j, col in enumerate(cols):
        keys += _BINOM[rows[:, col], j + 1] * c
    keys = keys.astype(dtype)
    keys.setflags(write=False)
    return keys


def subset_color_counts(h: ColoredHypergraph, t: int) -> np.ndarray:
    """(C(n,t), c) int64: per t-set and color, the containing r-edges of that color.

    At t = r each edge holds one r-set, itself, so the counts are its color
    one-hot.  Below r, a block peel:

    - In colex order the edges with top vertex d are the rows
      [C(d,r), C(d+1,r)), and row C(d,r)+q has lower (r-1)-set rank q, so
      the lower sets of the block are the first C(d,r-1) rows of the
      (r-1)-table.  The t-sets through d are the ranks [C(d,t), C(d+1,t)).
    - So the t-subsets of the block's edges that hold d are counted with one
      bincount per (t-1)-subset J of the lower columns, over the cached key
      `rank(J) * c - 1` plus the edge's color, added into that rank range.
    - Every other t-subset lies in the edge's lower set.  The per-color
      weights of the lower sets are one contiguous `colors == i+1` add per
      block and color.
    - The weights are carried down one level at a time in the same way: at
      level k the k-sets with top d get one weighted bincount per J, and
      their block sums are the (k-1)-set weights.  At k = t the weights are
      the counts of the first C(n-1, t) t-sets.
    """
    p = h.params
    if not 1 <= t <= p.r:
        raise InvalidParams(f"need 1 <= t <= r={p.r}, got t={t}")
    if t == p.r:
        out = np.zeros((p.num_edges, p.c), dtype=np.int64)
        out[np.arange(p.num_edges), h.colors.astype(np.intp) - 1] = 1
        return out
    n, r, c = p.n, p.r, p.c
    out = np.zeros(binom(n, t) * c, dtype=np.int64)

    def through(d: int) -> np.ndarray:
        """The bins of the t-sets whose top vertex is d."""
        return out[binom(d, t) * c:binom(d + 1, t) * c]

    def subset_keys(k: int) -> list[np.ndarray]:
        return [_subset_keys(n, k, cols, c)
                for cols in itertools.combinations(range(k), t - 1)]

    # per lower (r-1)-set and color, its edges of that color: one per top
    # vertex above the set, so at most n - r + 1 < 256
    weights = np.zeros((c, binom(n - 1, r - 1)), dtype=np.uint8)
    keys = subset_keys(r - 1)
    for d in range(r - 1, n):
        m = binom(d, r - 1)
        colors = h.colors[binom(d, r):binom(d + 1, r)]
        bins = through(d)
        for key in keys:
            bins += np.bincount(key[:m] + colors, minlength=len(bins))
        for i in range(c):
            weights[i, :m] += colors == i + 1
    offsets = np.arange(1, c + 1, dtype=np.uint8)[:, None]   # the colors, one per weight row
    for k in range(r - 1, t, -1):
        keys = subset_keys(k - 1)
        below = np.zeros((c, binom(n - 1, k - 1)), dtype=np.int64)
        for d in range(k - 1, n - 1):
            m = binom(d, k - 1)
            block = weights[:, binom(d, k):binom(d, k) + m]
            flat = block.ravel().astype(np.float64)
            bins = through(d)
            for key in keys:
                bins += np.bincount((key[:m] + offsets).ravel(), weights=flat,
                                    minlength=len(bins)).astype(np.int64)
            below[:, :m] += block
        weights = below
    out = out.reshape(-1, c)
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
    flat = s.counts.ravel().astype(np.float64)
    lanes = np.arange(p.c)
    out = np.zeros(p.n * p.c, dtype=np.int64)
    for j in range(s.t):
        key = tab[:, j].astype(np.intp)[:, None] * p.c + lanes   # vertex * c + color - 1
        out += np.bincount(key.ravel(), weights=flat,
                           minlength=out.size).astype(np.int64)
    return out.reshape(p.n, p.c) // binom(p.r - 1, s.t - 1)


def dump_shadow(s: ShadowMulticoloring, fh) -> None:
    """Write one line per t-set: `v1 .. vt : counts.. : good colors..`."""
    tab = edge_table(s.params.n, s.t)
    for rank in range(len(tab)):
        verts = " ".join(str(int(v)) for v in tab[rank])
        cnts = " ".join(str(int(x)) for x in s.counts[rank])
        goods = " ".join(str(i) for i in s.good_colors(rank))
        fh.write(f"{verts} : {cnts} : {goods}".rstrip() + "\n")
