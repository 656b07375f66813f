"""Turn a tight-cycle witness on the shadow graph into a Berge certificate.

Each cycle position i needs a backing hyperedge of the target color containing
the window {v_i..v_{i+t-1}}; the backing edges must be pairwise distinct.
A window that is t-good offers at least r-t+1 candidate edges, while a single
r-edge can cover at most r-t+1 consecutive windows, so a perfect matching of
positions to edges exists whenever the witness is valid; we find one with
augmenting paths and re-verify the assembled certificate from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BergeCertificate,
    ColoredHypergraph,
    InternalError,
    TightCycleWitness,
    edges_containing,
    rank_subset,
    unrank_subset,
    verify_berge_certificate,
)
from .shadow import ShadowMulticoloring


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


@dataclass(frozen=True, eq=False)
class PositionEdgeBipartite:
    """Cycle positions vs. candidate hyperedge ranks of the target color."""

    n_positions: int
    adj: list[Sequence[int]]  # adj[i]: ascending ranks of the edges for position i

    def right_degrees(self) -> dict[int, int]:
        """Edge rank -> number of positions it is a candidate for."""
        ranks, degs = np.unique(np.concatenate(self.adj), return_counts=True)
        return dict(zip(ranks.tolist(), degs.tolist()))


def cycle_windows(core: tuple[int, ...], t: int) -> list[tuple[int, ...]]:
    """Sorted consecutive t-windows of the cyclic core sequence."""
    n = len(core)
    return [tuple(sorted(core[(i + j) % n] for j in range(t))) for i in range(n)]


def build_position_bipartite(w: TightCycleWitness,
                             h: ColoredHypergraph) -> PositionEdgeBipartite:
    """Candidate backing edges per position, ascending rank, color-filtered."""
    p = h.params
    adj = []
    for win in cycle_windows(w.core, w.t):
        _, ranks = edges_containing(p.n, p.r, win)
        adj.append(ranks[h.colors[ranks] == w.color])
    return PositionEdgeBipartite(n_positions=p.n, adj=adj)


def max_bipartite_matching(g: PositionEdgeBipartite) -> np.ndarray:
    """Maximum matching, position -> edge rank (-1 if unmatched).

    Augmenting paths, positions processed in index order and candidates in
    ascending rank, so results are reproducible across runs.  A failed
    augment leaves the matching unchanged, so the first unmatched position
    is the first one a stop-at-first-failure run would report.  This is the
    package's only matcher (r4 and the harness oracle use it too).
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
    return match_left


def extend_tight_cycle(w: TightCycleWitness, h: ColoredHypergraph,
                       s: ShadowMulticoloring) -> BergeCertificate:
    """Lift a validated tight-cycle witness to a full Berge certificate."""
    p = h.params
    n = p.n
    if s.t != w.t:
        raise WitnessInvalid(f"shadow built for t={s.t}, witness has t={w.t}")
    if len(w.core) != n or sorted(w.core) != list(range(n)):
        raise WitnessInvalid("witness core is not a permutation of the vertex set")
    if not 1 <= w.color <= p.c:
        raise WitnessInvalid(f"witness color {w.color} out of range 1..{p.c}")
    for i, win in enumerate(cycle_windows(w.core, w.t)):
        if not s.is_good(rank_subset(win), w.color):
            raise WitnessInvalid(
                f"window {win} at position {i} is not {w.t}-good in color {w.color}",
                position=i)
    g = build_position_bipartite(w, h)
    limit = p.r - w.t + 1
    degs = g.right_degrees()
    if degs and max(degs.values()) > limit:  # cannot happen for a cycle core
        over = {e: d for e, d in degs.items() if d > limit}
        raise InternalError(f"covering bound violated: {over}")
    matching = max_bipartite_matching(g)
    unmatched = [i for i in range(n) if matching[i] < 0]
    if unmatched:
        raise MatchingIncomplete(
            f"{len(unmatched)} positions lack distinct backing edges "
            f"(first: {unmatched[0]})", unmatched)
    edges = tuple(unrank_subset(int(k), n, p.r) for k in matching)
    cert = BergeCertificate(color=w.color, core=tuple(w.core), edges=edges, t=w.t)
    problem = verify_berge_certificate(cert, h)
    if problem is not None:
        raise InternalError(f"assembled certificate invalid: {problem}")
    return cert
