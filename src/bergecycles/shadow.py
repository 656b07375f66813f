"""Shadow t-graph of a colored hypergraph: per-t-set color counts and the
t-good multi-coloring.

For a t-set e, color i is *t-good* when at least r-t+1 edges of color i
contain e.  The multi-coloring assigns every t-set its set of t-good colors;
S_i collects the t-sets where color i fails to be good.  Everything is stored
densely, indexed by t-set colex rank.

All counting goes through one kernel, `subset_color_counts`.  It walks the
r-edge table in row chunks and, for each of the C(r,t) column subsets, runs
one `np.bincount` over the key `colex_rank(t-subset) * c + (color - 1)`, so
every (t-set, color) pair is one bin.  At t=1 the same kernel gives the
per-vertex color incidence counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    ColoredHypergraph,
    InvalidParams,
    Params,
    _BINOM,
    binom,
    edge_table,
    rank_subset,
    unrank_subset,
)

_CHUNK_ROWS = 1 << 16  # edge-table rows per chunk; raised to the key range when larger


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


def subset_color_counts(h: ColoredHypergraph, t: int) -> np.ndarray:
    """(C(n,t), c) int64: per t-set and color, the containing r-edges of that color.

    A chunk holds at least as many rows as there are keys (C(n,t)*c), so the
    `minlength` of each bincount never outweighs the rows it counts.  The
    rank of a t-subset is summed from per-position tables C(v, j+1)*c, so no
    rank array over the whole edge table is built.
    """
    p = h.params
    if not 1 <= t <= p.r:
        raise InvalidParams(f"need 1 <= t <= r={p.r}, got t={t}")
    m_t = binom(p.n, t)
    size = m_t * p.c
    luts = [_BINOM[:p.n, j + 1] * p.c for j in range(t)]
    subsets = list(itertools.combinations(range(p.r), t))
    tab = edge_table(p.n, p.r)
    step = max(_CHUNK_ROWS, size)
    out = np.zeros(size, dtype=np.int64)
    for lo in range(0, len(tab), step):
        rows = tab[lo:lo + step].astype(np.intp)
        key0 = h.colors[lo:lo + step].astype(np.int64) - 1
        for cols in subsets:
            key = key0 + luts[0][rows[:, cols[0]]]
            for j in range(1, t):
                key += luts[j][rows[:, cols[j]]]
            out += np.bincount(key, minlength=size)
    return out.reshape(m_t, p.c)


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


def bad_edge_set(s: ShadowMulticoloring, i: int) -> np.ndarray:
    """Ranks of the t-sets for which color i is not t-good (the set S_i)."""
    if not 1 <= i <= s.params.c:
        raise InvalidParams(f"color {i} out of range 1..{s.params.c}")
    return np.flatnonzero((s.goodmask >> np.uint32(i - 1)) & 1 == 0)


def recolor_edge(h: ColoredHypergraph, s: ShadowMulticoloring,
                 edge_rank: int, new_color: int) -> tuple[ColoredHypergraph,
                                                          ShadowMulticoloring]:
    """Recolor one r-edge and update the shadow incrementally.

    Inputs are immutable; returns the updated (hypergraph, shadow) pair.
    Only the C(r,t) t-sets inside the edge change, each by -1/+1.
    """
    p = h.params
    old_color = h.color_of_rank(edge_rank)
    h2 = h.with_color(edge_rank, new_color)
    if new_color == old_color:
        return h2, s
    verts = unrank_subset(edge_rank, p.n, p.r)
    sub_ranks = [rank_subset(c) for c in itertools.combinations(verts, s.t)]
    counts = s.counts.copy()
    counts[sub_ranks, old_color - 1] -= 1
    counts[sub_ranks, new_color - 1] += 1
    goodmask = s.goodmask.copy()
    rows = counts[sub_ranks]
    bits = (rows >= s.threshold).astype(np.uint32)
    goodmask[sub_ranks] = (bits << np.arange(p.c, dtype=np.uint32)).sum(
        axis=1, dtype=np.uint32)
    counts.setflags(write=False)
    goodmask.setflags(write=False)
    return h2, ShadowMulticoloring(params=p, t=s.t, counts=counts, goodmask=goodmask)


def dump_shadow(s: ShadowMulticoloring, fh) -> None:
    """Write one line per t-set: `v1 .. vt : counts.. : good colors..`."""
    tab = edge_table(s.params.n, s.t)
    for rank in range(len(tab)):
        verts = " ".join(str(int(v)) for v in tab[rank])
        cnts = " ".join(str(int(x)) for x in s.counts[rank])
        goods = " ".join(str(i) for i in s.good_colors(rank))
        fh.write(f"{verts} : {cnts} : {goods}".rstrip() + "\n")
