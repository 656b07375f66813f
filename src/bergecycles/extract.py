"""Turn a tight-cycle witness on the shadow graph into a Berge certificate.

Each cycle position i needs a backing hyperedge of the target color containing
the window {v_i..v_{i+t-1}}; the backing edges must be pairwise distinct.
A window that is t-good offers at least r-t+1 candidate edges, while a single
r-edge holds at most r-t+1 windows of a cycle on n > r vertices (the proof
is in `lift_to_berge`), so a perfect matching of positions to edges exists
whenever the witness is valid; we find one with augmenting paths and
verify the assembled certificate from scratch with the checker.

The matcher reads a position's candidates in ascending rank, and the next
one only after the earlier ones fail; it rarely needs more than a few.  So
each position's candidates are a lazy `CandidateRow`.  Every row starts
with the edges whose free part lies in the window's 8 lowest free vertices
(`core._FIRST_FREE`): the window's row of the shadow's first block.  When
the shadow reads first blocks (`shadow._reads_first_blocks`), the rows are
looked up in its `_first_block` cache, which the solve's shadow has
filled; past that gate one `edges_through` call fills them.  A row doubles
its prefix only when the matcher reads past its end.
The k-th candidate read is the k-th of the full row, so the matching is
the one the full rows give.  The covering bound is checked after the
matching, over the candidates read so far.

`extend_tight_cycle` checks the witness and then calls `lift_to_berge`, the
matching step alone.  Cycles whose windows need not be t-good (r4's Gamma
cycle, the vertex link's weak route) go to `lift_to_berge` directly; for
them MatchingIncomplete means no distinct backing edges exist at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    _FIRST_FREE,
    BergeCertificate,
    ColoredHypergraph,
    InternalError,
    TightCycleWitness,
    binom,
    edges_through,
    rank_rows,
    unrank_rows,
    verify_berge_certificate,
)
from .shadow import ShadowMulticoloring, _first_block, _reads_first_blocks


class WitnessInvalid(ValueError):
    """Witness fails its precondition (some window not t-good in its color)."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class MatchingIncomplete(RuntimeError):
    """No perfect position->edge matching; impossible for a valid witness."""

    def __init__(self, message: str, unmatched: list[int]):
        super().__init__(message)
        self.unmatched = unmatched


@dataclass(eq=False, slots=True)
class CandidateRow:
    """One window's candidates: the ascending ranks of the `color` edges of
    h through `window`, read lazily.

    `ranks` holds the ones whose free part lies in the window's `free`
    lowest free vertices.  In colex order those are the first C(free, r-t)
    rows of the free-part table, so `ranks` is a prefix of the full row.
    Iterating yields the full row and doubles `free` whenever it runs past
    the end of `ranks`.
    """

    ranks: list[int]
    free: int
    window: np.ndarray
    h: ColoredHypergraph
    color: int

    def __iter__(self):
        i = 0
        while True:
            while i < len(self.ranks):
                yield self.ranks[i]
                i += 1
            if not self._widen():
                return

    def _widen(self) -> bool:
        """Append the next block of the row; False once the row is whole."""
        p, t = self.h.params, len(self.window)
        if self.free == p.n - t:
            return False
        wider = min(2 * self.free, p.n - t)
        ranks = edges_through(p.n, p.r, [self.window], binom(self.free, p.r - t),
                              binom(wider, p.r - t))[0]
        self.ranks += ranks[self.h.colors[ranks] == self.color].tolist()
        self.free = wider
        return True


@dataclass(frozen=True, eq=False)
class PositionEdgeBipartite:
    """Cycle positions vs. candidate hyperedge ranks of the target color."""

    n_positions: int
    adj: list[CandidateRow]  # adj[i]: ascending ranks of the edges for position i

    def right_degrees(self, above: int = 0) -> dict[int, int]:
        """Edge rank -> number of positions it is a candidate for, over the
        edges that are candidates for more than `above` positions.  Each
        row contributes the candidates it has materialized."""
        rows = (row.ranks for row in self.adj)
        ranks, degs = np.unique(np.fromiter(itertools.chain.from_iterable(rows),
                                            dtype=np.int64), return_counts=True)
        keep = degs > above
        return dict(zip(ranks[keep].tolist(), degs[keep].tolist()))


def cycle_windows(core: tuple[int, ...], t: int) -> np.ndarray:
    """(n, t) array: row i is the sorted window core[i..i+t-1] (cyclically)."""
    n = len(core)
    return np.sort(np.asarray(core)[(np.arange(n)[:, None] + np.arange(t)) % n], axis=1)


def build_position_bipartite(w: TightCycleWitness,
                             h: ColoredHypergraph) -> PositionEdgeBipartite:
    """A lazy candidate row per position, starting with its window's first
    block: the windows' rows of the shadow's `_first_block` cache when the
    shadow reads first blocks, else one `edges_through` call for all."""
    p = h.params
    windows = cycle_windows(w.core, w.t)
    free = min(_FIRST_FREE, p.n - w.t)
    if _reads_first_blocks(p.n, p.r, w.t):
        ranks = _first_block(p.n, p.r, w.t)[rank_rows(windows)]
    else:
        ranks = edges_through(p.n, p.r, windows, stop=binom(free, p.r - w.t))
    hit = h.colors[ranks] == w.color
    cands = ranks[hit].tolist()                 # row by row, ascending
    ends = np.cumsum(hit.sum(axis=1)).tolist()
    return PositionEdgeBipartite(n_positions=p.n, adj=[
        CandidateRow(cands[a:b], free, win, h, w.color)
        for a, b, win in zip([0, *ends], ends, windows)])


def max_bipartite_matching(g: PositionEdgeBipartite) -> np.ndarray:
    """Maximum matching, position -> edge rank (-1 if unmatched).

    Augmenting paths, positions processed in index order and candidates in
    ascending rank, so results are reproducible across runs.  A failed
    augment leaves the matching unchanged, so the first unmatched position
    is the first one a stop-at-first-failure run would report.  This is the
    package's only matcher, and in the package only `lift_to_berge` calls it.
    """
    owner: dict[int, int] = {}
    match_left = np.full(g.n_positions, -1, dtype=np.int64)

    def augment(pos: int, seen: set[int]) -> bool:
        for e in g.adj[pos]:
            e = int(e)
            if e in seen:
                continue
            seen.add(e)
            prev = owner.get(e)
            if prev is None or augment(prev, seen):
                owner[e] = pos
                match_left[pos] = e
                return True
        return False

    for pos in range(g.n_positions):
        augment(pos, set())
    del augment      # it refers to itself: keeping it would keep g past return
    return match_left


def extend_tight_cycle(w: TightCycleWitness, h: ColoredHypergraph,
                       s: ShadowMulticoloring) -> BergeCertificate:
    """Lift a validated tight-cycle witness to a full Berge certificate."""
    p = h.params
    if s.t != w.t:
        raise WitnessInvalid(f"shadow built for t={s.t}, witness has t={w.t}")
    if len(w.core) != p.n or sorted(w.core) != list(range(p.n)):
        raise WitnessInvalid("witness core is not a permutation of the vertex set")
    if not 1 <= w.color <= p.c:
        raise WitnessInvalid(f"witness color {w.color} out of range 1..{p.c}")
    windows = cycle_windows(w.core, w.t)
    bad = np.flatnonzero((s.goodmask[rank_rows(windows)] >> (w.color - 1) & 1) == 0)
    if bad.size:
        i = int(bad[0])
        raise WitnessInvalid(
            f"window {tuple(windows[i].tolist())} at position {i} is not "
            f"{w.t}-good in color {w.color}", position=i)
    return lift_to_berge(w, h)


def lift_to_berge(w: TightCycleWitness, h: ColoredHypergraph) -> BergeCertificate:
    """Back every window of the cyclic core w.core with its own w.color edge.

    The one lift from a cycle to a certificate: a maximum matching of
    positions to the w.color edges through their windows.  Raises
    MatchingIncomplete when no system of distinct representatives exists,
    and InternalError if the core does not order the vertex set, if an edge
    is a candidate for more windows than the covering bound allows, or if
    the assembled certificate fails verify_berge_certificate, which is
    checker.certificate_error, the check `berge verify` runs.

    The covering bound: when the core is a permutation of range(n) and
    n > r, an r-set S holds at most r - t + 1 windows.  The vertices of S
    fall into maximal arcs of the cycle, none of them the whole cycle as
    n > r.  An arc of a >= t vertices holds a - t + 1 windows and a shorter
    one holds none, so S holds at most |S| - (t - 1) = r - t + 1 of them.
    The bound is checked after the matching, over every candidate the
    lift materialized, a superset of the ones the matcher read.  At n = r
    the one r-edge holds every window, so the matching is incomplete.
    """
    p = h.params
    if sorted(w.core) != list(range(p.n)):
        raise InternalError(f"lift core is not a permutation of range({p.n})")
    g = build_position_bipartite(w, h)
    matching = max_bipartite_matching(g)
    if p.n > p.r:
        over = g.right_degrees(above=p.r - w.t + 1)
        if over:
            raise InternalError(f"covering bound violated: {over}")
    unmatched = [i for i in range(p.n) if matching[i] < 0]
    if unmatched:
        raise MatchingIncomplete(
            f"{len(unmatched)} positions lack distinct backing edges "
            f"(first: {unmatched[0]})", unmatched)
    edges = tuple(map(tuple, unrank_rows(matching, p.n, p.r).tolist()))
    cert = BergeCertificate(color=w.color, core=tuple(w.core), edges=edges, t=w.t)
    problem = verify_berge_certificate(cert, h)
    if problem is not None:
        raise InternalError(f"assembled certificate invalid: {problem}")
    return cert
