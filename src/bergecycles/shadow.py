"""Shadow t-graph of a colored hypergraph: the t-good multi-coloring and
per-t-set color counts.

For a t-set e, color i is *t-good* when at least r-t+1 edges of color i
contain e.  The multi-coloring assigns every t-set its set of t-good colors,
stored densely as a bitmask per t-set colex rank.  `ShadowMulticoloring`
carries no counts: goodness is certified, not counted.

m edges of color i through a k-set prove "at least m"; only an exact
count proves "fewer than m".  So `_at_least` reads every k-set's edges in
ascending rank, in the blocks of `core.row_blocks`: first the C(8, r-k)
through its 8 lowest free vertices, then, on the k-sets still in doubt,
the next ones up to 16, 32, ... free vertices, under one budget of
C(n,r)/8 ranks read, past which every k-set is counted at once.  On a
random 3-coloring of K_85^4, 6-19 of the 3,570 pairs stay in doubt after
their first block (seeds 0-9), each settled by its first 120 of 3,403 edges.

A block is counted by `_tally` column-major: its colors gathered as an
(L, M) byte array, one row per witness slot, so each color's count is a
sum of L contiguous byte rows in the smallest unsigned type that holds L.
The cached first blocks are stored column-major for that reason, and
the lift (`extract.build_position_bipartite`) reads its rows from the same
cache whenever `_reads_first_blocks` says the shadow reads them.  The
goodmask has one uint32 bit per color, so `build_shadow` serves
c <= MAX_COLORS = 32.

Every full count comes from `subset_color_counts`, exact on two routes: a
block peel over every edge or, when few edges lie outside the most
frequent color, a count of those edges alone.  On a near-monochromatic
coloring every k-set stays in doubt, and the second route reads only the
off-color edges.  Neither reads an r-edge table or starts a thread.
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
    edges_through,
    rank_rows,
    row_blocks,
    unrank_rows,
)

MAX_COLORS = 32     # the goodmask's uint32 bits, one per color


@dataclass(frozen=True, eq=False)
class ShadowMulticoloring:
    params: Params
    t: int
    goodmask: np.ndarray  # (C(n,t),) uint32: bit i-1 set iff color i is t-good

    def good_colors(self, rank: int) -> tuple[int, ...]:
        mask = int(self.goodmask[rank])
        return tuple(i for i in range(1, self.params.c + 1) if mask >> (i - 1) & 1)


def _pack_goodmask(good: np.ndarray) -> np.ndarray:
    """(N,) uint32 from an (N, c) bool array: bit i-1 set iff column i-1 is."""
    return (good @ (1 << np.arange(good.shape[1], dtype=np.uint32))).astype(
        np.uint32, copy=False)


@lru_cache(maxsize=64)
def _subset_keys(n: int, k: int, cols: tuple[int, ...], c: int) -> np.ndarray:
    """Read-only `colex_rank(row[cols]) * c - 1` for each k-subset row of
    {0..n-2}, in the smallest signed type that also holds a key plus a
    color 1..c (every such sum is below C(n-1, len(cols)) * c).

    The k-subsets are the first C(n-1, k) rows of the cached
    edge_table(n, k), read one contiguous column at a time.
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
    one-hot.  Below r the count is exact on either of two routes.  When the
    edges outside the most frequent color, times the C(r,t) t-subsets of
    each, are at most C(n,r)/8 (the rank budget of `_at_least`),
    `_minority_counts` reads those edges alone.  Else the block peel
    `_peel_counts` reads every edge.
    """
    p = h.params
    if not 1 <= t <= p.r:
        raise InvalidParams(f"need 1 <= t <= r={p.r}, got t={t}")
    if t == p.r:
        out = np.zeros((p.num_edges, p.c), dtype=np.int64)
        out[np.arange(p.num_edges), h.colors.astype(np.intp) - 1] = 1
        return out
    # one pass per color: a bincount of the uint8 colors casts them to intp
    sizes = [np.count_nonzero(h.colors == i) for i in range(1, p.c + 1)]
    major = 1 + int(np.argmax(sizes))
    if (p.num_edges - sizes[major - 1]) * binom(p.r, t) <= p.num_edges // 8:
        return _minority_counts(h, t, major)
    return _peel_counts(h, t)


def _minority_counts(h: ColoredHypergraph, t: int, major: int) -> np.ndarray:
    """subset_color_counts from the edges not of color `major`: one bincount
    of `rank * c + color - 1` per t-subset of their columns.  Every t-set
    lies in C(n-t, r-t) edges, so its `major` count is that total minus its
    other colors, and the count is exact without reading a `major` edge."""
    n, r, c = h.params.n, h.params.r, h.params.c
    rest = np.flatnonzero(h.colors != major)
    rows = unrank_rows(rest, n, r)
    colors = h.colors[rest].astype(np.int64) - 1
    out = np.zeros(binom(n, t) * c, dtype=np.int64)
    for cols in itertools.combinations(range(r), t):
        out += np.bincount(rank_rows(rows[:, cols]) * c + colors,
                           minlength=out.size)
    out = out.reshape(-1, c)
    out[:, major - 1] = binom(n - t, r - t) - out.sum(axis=1)
    return out


def _peel_counts(h: ColoredHypergraph, t: int) -> np.ndarray:
    """subset_color_counts for 1 <= t < r by a block peel over every edge.

    The edges with top vertex d are the colex rows [C(d,r), C(d+1,r)); their
    lower (r-1)-sets are the first C(d,r-1) rows of the (r-1)-table, and
    the t-sets through d are the ranks [C(d,t), C(d+1,t)).  So a block adds
    one bincount per (t-1)-subset J of its lower columns, over the cached
    key `rank(J) * c - 1` plus the edge's color, into that range.  Every
    other t-subset lies in the lower set, which gets per-color weights by
    contiguous `colors == i+1` adds.  The weights are carried down a level
    at a time the same way (weighted bincounts, block sums for the level
    below); at k = t they are the counts of the first C(n-1, t) t-sets.
    """
    p = h.params
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


def _tally(h: ColoredHypergraph, ranks: np.ndarray) -> np.ndarray:
    """(M, c) int64: per row of an (M, L) edge-rank array, its edges of each color.

    The colors are gathered column-major, (L, M), so a color's count is a
    sum of L contiguous byte rows, not M reductions along rows of L.  The
    sum runs in the smallest unsigned type that holds L, so no count
    wraps: uint8 for a K_n^4 pair's 28 first-block witnesses, uint16 for a
    locked pair's 376-wide widening block.  A cached first block is stored
    column-major, so its `ranks.T` is contiguous; widening blocks come
    row-major from `edges_through` and take the same path.
    """
    cols = h.colors[ranks.T]
    sum_type = np.min_scalar_type(cols.shape[0])
    out = np.empty((cols.shape[1], h.params.c), dtype=np.int64)
    for i in range(1, h.params.c + 1):
        out[:, i - 1] = np.add.reduce(cols == i, axis=0, dtype=sum_type)
    return out


@lru_cache(maxsize=16)
def _pair_rank_matrix(n: int) -> np.ndarray:
    """Read-only n x n matrix of the pairs' colex ranks (0 on the diagonal)."""
    tab = edge_table(n, 2)
    ranks = np.arange(len(tab), dtype=np.int64)
    m = np.zeros((n, n), dtype=np.int64)
    m[tab[:, 0], tab[:, 1]] = ranks
    m[tab[:, 1], tab[:, 0]] = ranks
    m.setflags(write=False)
    return m


def _reads_first_blocks(n: int, r: int, k: int) -> bool:
    """Whether the first `row_blocks` blocks of all k-sets hold fewer ranks
    than K_n^r has edges: then `_at_least` reads them from the
    `_first_block` cache, and the lift reads its windows' rows there too."""
    return binom(n, k) * row_blocks(n, r, k)[0][1] < binom(n, r)


@lru_cache(maxsize=16)
def _first_block(n: int, r: int, k: int) -> np.ndarray:
    """Read-only (C(n,k), C(f, r-k)): the first `row_blocks` block of every
    k-set's `edges_through` row, the edges whose free part lies in its f
    lowest free vertices, f = min(8, n - k).

    The block is cached column-major and returned as its `.T` view, so
    `_tally` gathers its colors into contiguous byte rows.  Building it
    holds the row-major block and its transposed copy at once: a
    transient peak of twice the cached array, once per (n, r, k).
    """
    ranks = edges_through(n, r, edge_table(n, k), *row_blocks(n, r, k)[0])
    ranks = np.ascontiguousarray(ranks.T)
    ranks.setflags(write=False)
    return ranks.T


def _in_doubt(counts: np.ndarray, m: int) -> np.ndarray:
    """(M,) bool: does some color of each row of an (M, c) count array have
    fewer than m?  One compare per count column: c is small, M is not."""
    need = counts[:, 0] < m
    for i in range(1, counts.shape[1]):
        need |= counts[:, i] < m
    return need


def _at_least(h: ColoredHypergraph, k: int, m: int) -> np.ndarray:
    """(C(n,k), c) bool: does each k-set lie in at least m edges of each color?

    m edges of one color through a k-set prove "at least m"; only an
    exact count proves "fewer than m".  So every k-set's row of ascending
    edge ranks (`edges_through`) is read in its `row_blocks`: first the
    edges whose free part lies in its 8 lowest free vertices
    (`_first_block`), then the next ones up to its 16, 32, ... lowest.  A row
    drops out once every color has m; counts only grow, so ">= m" then
    holds for the whole row too.  Every other row is read to its end, where
    its count is exact.  The first blocks are read when they hold fewer
    ranks than the coloring has edges, and the later blocks while the ranks
    they read total at most C(n,r)/8; past either limit the full kernel
    counts every k-set.
    """
    p = h.params
    n, r = p.n, p.r
    if not 1 <= k <= r:
        raise InvalidParams(f"need 1 <= k <= r={r}, got k={k}")
    if not _reads_first_blocks(n, r, k):
        return subset_color_counts(h, k) >= m

    counts = _tally(h, _first_block(n, r, k))
    live = np.flatnonzero(_in_doubt(counts, m))
    budget = p.num_edges // 8
    for start, stop in row_blocks(n, r, k)[1:]:
        if not live.size:
            break
        budget -= live.size * (stop - start)
        if budget < 0:
            return subset_color_counts(h, k) >= m
        counts[live] += _tally(h, edges_through(n, r, edge_table(n, k)[live],
                                                start, stop))
        live = live[_in_doubt(counts[live], m)]
    return counts >= m


def build_shadow(h: ColoredHypergraph, t: int) -> ShadowMulticoloring:
    """The t-good multi-coloring: color i is good for a t-set in at least
    r-t+1 edges of color i.  The goodmask has one uint32 bit per color,
    so c <= MAX_COLORS: past that a good color would drop out of its mask."""
    p = h.params
    if not 2 <= t <= p.r:
        raise InvalidParams(f"need 2 <= t <= r={p.r}, got t={t}")
    if p.c > MAX_COLORS:
        raise InvalidParams(
            f"the shadow holds c <= {MAX_COLORS} colors, got c={p.c}")
    goodmask = _pack_goodmask(_at_least(h, t, p.r - t + 1))
    goodmask.setflags(write=False)
    return ShadowMulticoloring(params=p, t=t, goodmask=goodmask)


def dump_shadow(h: ColoredHypergraph, s: ShadowMulticoloring, fh) -> None:
    """Write one line per t-set: `v1 .. vt : counts.. : good colors..`,
    the counts exact from `subset_color_counts`."""
    rows = edge_table(s.params.n, s.t).tolist()
    counts = subset_color_counts(h, s.t).tolist()
    for rank, (verts, cnts) in enumerate(zip(rows, counts)):
        verts, cnts = " ".join(map(str, verts)), " ".join(map(str, cnts))
        goods = " ".join(map(str, s.good_colors(rank)))
        fh.write(f"{verts} : {cnts} : {goods}".rstrip() + "\n")
