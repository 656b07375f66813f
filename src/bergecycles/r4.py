"""Monochromatic Hamiltonian Berge-cycles in 3-colored complete 4-graphs.

Input: a 3-coloring of K_n^4 with n >= 85.  Output: a verified Berge
certificate plus a trace of the construction route taken.  The dispatcher
`r4_find` tries, in order:

  1. a vertex that touches at most one edge of some color -- the cycle is
     built inside that vertex's link and the vertex is re-inserted
     (`lemma_a_construct`);
  2. a pair with at most one good color in the pair shadow -- signalled as
     `SingleGoodEdge` and handled by a guided shadow search;
  3. every vertex lands in a dominance class (B-cover) -- one of the three
     good-pair graphs is Hamiltonian and lifts through the shadow;
  4. otherwise a pivot vertex x with small mixed classes exists.  Colors are
     renamed so |U23| <= |U12| <= |U13|, an auxiliary graph Gamma is built
     (`construct_gamma_case1` / `construct_gamma_case2`), its Hamiltonian
     cycle is found, and `extend_to_berge` assigns a distinct color-1 edge
     over every consecutive pair.

Everything is deterministic: vertex sets iterate in sorted order, candidate
edges scan in colex order, and ties break toward smaller ids.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BergeCertificate,
    ColoredHypergraph,
    ContractBreach,
    InternalError,
    InvalidParams,
    Params,
    _BINOM,
    edge_table,
    edges_containing,
    rank_subset,
    unrank_subset,
    verify_berge_certificate,
    write_coloring,
)
from .extract import (
    MatchingIncomplete,
    PositionEdgeBipartite,
    extend_tight_cycle,
    max_bipartite_matching,
)
from .hamilton import (
    DEFAULT_BUDGET,
    SimpleGraph,
    chvatal_holds,
    find_hamiltonian_cycle,
    find_mono_ham_tight_cycle,
)
from .shadow import (
    ShadowMulticoloring,
    _goodmask_from_counts,
    build_shadow,
    subset_color_counts,
)

MIN_N = 85

_POPCOUNT3 = np.array([0, 1, 1, 2, 1, 2, 2, 3], dtype=np.uint8)


class PivotInvariantViolation(ContractBreach):
    """Pivot mixed-class sizes outside the guaranteed range."""


class ReservationUnsatisfiable(ContractBreach):
    """Not enough color-1 edges available to reserve repair backings."""


class ExtensionFailed(ContractBreach):
    """A cycle position could not be assigned a fresh color-1 edge."""


class SingleGoodEdge(Exception):
    """Some pair has at most one good color; the pivot analysis is skipped."""

    def __init__(self, pair: tuple[int, int], goodset: tuple[int, ...]):
        super().__init__(f"pair {pair} has good set {goodset}")
        self.pair = pair
        self.goodset = goodset


class FallbackExhausted(RuntimeError):
    """All applicable construction attempts for a stage failed."""


class Unresolved(RuntimeError):
    """No certificate found within budget; not a counterexample claim."""

    def __init__(self, message: str, trace: "ConstructionTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class UProfile:
    """Mixed-class decomposition of one vertex's pair neighborhood."""

    vertex: int
    U12: tuple[int, ...]
    U13: tuple[int, ...]
    U23: tuple[int, ...]
    U123: tuple[int, ...]

    def mixed_sizes(self) -> tuple[int, int, int]:
        return (len(self.U23), len(self.U12), len(self.U13))


@dataclass(frozen=True)
class BClassification:
    B1: tuple[int, ...]
    B2: tuple[int, ...]
    B3: tuple[int, ...]
    B4: tuple[int, ...]
    remainder: tuple[int, ...]

    @property
    def covers(self) -> bool:
        return not self.remainder


@dataclass(frozen=True)
class PivotSelection:
    """Pivot vertex with classes already renamed so |U23| <= |U12| <= |U13|."""

    x: int
    pi: int
    sigma: tuple[int, int, int]     # sigma[i-1] = new name of old color i
    U12: tuple[int, ...]
    U13: tuple[int, ...]
    U23: tuple[int, ...]
    U123: tuple[int, ...]
    y: int
    z: int
    u23: int | None
    u12: int | None
    A: tuple[int, ...]
    B: tuple[int, ...]
    A2: tuple[int, ...]             # near-half split of U12, y lands in A2
    B2: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class GammaConstruction:
    """Auxiliary graph whose Hamiltonian cycles lift to color-1 Berge-cycles."""

    case: int
    graph: SimpleGraph
    provenance: dict                # (u, v) u < v -> (tag, backing 4-tuple | None)
    x: int
    y: int
    z: int
    u12: int | None
    u23: int | None
    w: int | None                   # extra star vertex (case 2, large U123 only)
    w1: int | None
    w2: int | None
    U12: tuple[int, ...]
    U13: tuple[int, ...]
    U123: tuple[int, ...]
    D: frozenset[int]
    subcase: dict
    degree_report: dict


@dataclass
class ConstructionTrace:
    branch: str = ""
    subcase: dict = field(default_factory=dict)
    fallbacks: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    pivot: dict | None = None
    degree_report: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "branch": self.branch,
            "subcase": self.subcase,
            "fallbacks": self.fallbacks,
            "steps": self.steps,
            "pivot": self.pivot,
            "degree_report": self.degree_report,
        }


@dataclass(frozen=True)
class R4Result:
    certificate: BergeCertificate
    trace: ConstructionTrace


# ---------------------------------------------------------------------------
# small shared helpers


def _color4(colors: np.ndarray, a: int, b: int, c: int, d: int) -> int:
    """Color of the 4-set {a,b,c,d} (need not be given sorted)."""
    a, b, c, d = sorted((a, b, c, d))
    return int(colors[_BINOM[a, 1] + _BINOM[b, 2] + _BINOM[c, 3] + _BINOM[d, 4]])


def _pair_rank_matrix(n: int) -> np.ndarray:
    tab = edge_table(n, 2)
    ranks = np.arange(len(tab), dtype=np.int64)
    m = np.zeros((n, n), dtype=np.int64)
    m[tab[:, 0], tab[:, 1]] = ranks
    m[tab[:, 1], tab[:, 0]] = ranks
    return m


def _incidence_counts(h: ColoredHypergraph) -> np.ndarray:
    """(n, c) matrix: per vertex, how many incident edges of each color."""
    return subset_color_counts(h, 1)


def relabel_colors(h: ColoredHypergraph, s: ShadowMulticoloring,
                   sigma: tuple[int, int, int]) -> tuple[ColoredHypergraph, ShadowMulticoloring]:
    """Rename colors by sigma (old i -> sigma[i-1]) in both views."""
    lut = np.zeros(4, dtype=np.uint8)
    for old in (1, 2, 3):
        lut[old] = sigma[old - 1]
    h2 = ColoredHypergraph(h.params, lut[h.colors])
    counts2 = np.empty_like(s.counts)
    for old in (1, 2, 3):
        counts2[:, sigma[old - 1] - 1] = s.counts[:, old - 1]
    s2 = ShadowMulticoloring(s.params, s.t, counts2,
                             _goodmask_from_counts(counts2, s.threshold))
    return h2, s2


# ---------------------------------------------------------------------------
# profiles, dominance classes, pivot


def compute_u_profiles(s: ShadowMulticoloring) -> list[UProfile]:
    """Mixed-class profile of every vertex under the pair shadow.

    Raises SingleGoodEdge on the lowest-ranked pair whose good set has at
    most one color -- that situation bypasses the pivot analysis entirely.
    """
    p = s.params
    if s.t != 2 or p.c != 3:
        raise InvalidParams(f"profiles need t=2, c=3; got t={s.t}, c={p.c}")
    gm = s.goodmask.astype(np.int64)
    thin = np.flatnonzero(_POPCOUNT3[gm] <= 1)
    if thin.size:
        rank = int(thin[0])
        pair = unrank_subset(rank, p.n, 2)
        raise SingleGoodEdge(pair, s.good_colors(rank))
    ranks = _pair_rank_matrix(p.n)
    profiles = []
    for v in range(p.n):
        others = np.concatenate([np.arange(v), np.arange(v + 1, p.n)])
        masks = gm[ranks[v, others]]
        profiles.append(UProfile(
            vertex=v,
            U12=tuple(int(u) for u in others[masks == 0b011]),
            U13=tuple(int(u) for u in others[masks == 0b101]),
            U23=tuple(int(u) for u in others[masks == 0b110]),
            U123=tuple(int(u) for u in others[masks == 0b111]),
        ))
    return profiles


def _alternating_split(vals: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Near-half partition: sorted, even indices to the first part."""
    s = sorted(vals)
    return tuple(s[0::2]), tuple(s[1::2])


def _relabel_profile(p: UProfile, sigma: tuple[int, int, int]) -> UProfile:
    classes = {tuple(sorted((sigma[0], sigma[1]))): p.U12,
               tuple(sorted((sigma[0], sigma[2]))): p.U13,
               tuple(sorted((sigma[1], sigma[2]))): p.U23}
    return UProfile(vertex=p.vertex, U12=classes[(1, 2)], U13=classes[(1, 3)],
                    U23=classes[(2, 3)], U123=p.U123)


def classify_and_pivot(profiles: list[UProfile]) -> tuple[BClassification, PivotSelection | None]:
    """Dominance classes plus, if they do not cover, the pivot selection.

    B_i (i = 1,2,3) holds the vertices whose mixed pairs all avoid color i;
    B_4 holds those whose U123 covers at least half the vertex count.  The
    pivot minimizes (smallest mixed-class size, |U123|, id) over uncovered
    vertices.  Colors are then renamed so the pivot's classes satisfy
    |U23| <= |U12| <= |U13|, preferring the identity renaming on ties.
    Sizes outside the guaranteed range (|U23| >= 2, or |U23| = 1 with
    |U12| >= 3, or U12 empty) raise PivotInvariantViolation.
    """
    n = len(profiles)
    b: dict[int, list[int]] = {1: [], 2: [], 3: [], 4: []}
    rem = []
    for p in profiles:
        v = p.vertex
        in_any = False
        if 2 * len(p.U123) >= n:
            b[4].append(v)
            in_any = True
        if not p.U12 and not p.U13 and p.U23:
            b[1].append(v)
            in_any = True
        elif not p.U12 and not p.U23 and p.U13:
            b[2].append(v)
            in_any = True
        elif not p.U13 and not p.U23 and p.U12:
            b[3].append(v)
            in_any = True
        if not in_any:
            rem.append(v)
    bc = BClassification(tuple(b[1]), tuple(b[2]), tuple(b[3]), tuple(b[4]),
                         tuple(rem))
    if bc.covers:
        return bc, None

    def pivot_key(v: int):
        p = profiles[v]
        return (min(p.mixed_sizes()), len(p.U123), v)

    x = min(rem, key=pivot_key)
    px = profiles[x]
    # miss(i) = size of the class whose good set omits color i
    miss = {1: len(px.U23), 2: len(px.U13), 3: len(px.U12)}
    slot_rank = {1: 0, 3: 1, 2: 2}   # identity assignment wins ties
    order = sorted((1, 2, 3), key=lambda i: (miss[i], slot_rank[i]))
    sigma_map = {order[0]: 1, order[1]: 3, order[2]: 2}
    sigma = (sigma_map[1], sigma_map[2], sigma_map[3])
    rp = _relabel_profile(px, sigma)
    sizes = (len(rp.U23), len(rp.U12), len(rp.U13))
    if sizes[0] >= 2 or (sizes[0] == 1 and sizes[1] >= 3) or sizes[1] == 0:
        raise PivotInvariantViolation(
            f"pivot {x} has |U23|={sizes[0]}, |U12|={sizes[1]}, |U13|={sizes[2]}",
            detail={"x": x, "sizes": {"U23": sizes[0], "U12": sizes[1],
                                      "U13": sizes[2], "U123": len(rp.U123)},
                    "sigma": list(sigma)})
    a, bpart = _alternating_split(rp.U123)
    a2, b2 = _alternating_split(rp.U12)
    y = min(rp.U12)
    z = min(rp.U13)
    u23 = rp.U23[0] if rp.U23 else None
    u12_rest = [u for u in rp.U12 if u != y]
    sel = PivotSelection(
        x=x, pi=min(px.mixed_sizes()), sigma=sigma,
        U12=tuple(sorted(rp.U12)), U13=tuple(sorted(rp.U13)),
        U23=tuple(sorted(rp.U23)), U123=tuple(sorted(rp.U123)),
        y=y, z=z, u23=u23, u12=(u12_rest[0] if u12_rest else None),
        A=a, B=bpart, A2=a2, B2=b2)
    return bc, sel


# ---------------------------------------------------------------------------
# Gamma assembly


class _GammaBuilder:
    def __init__(self, h: ColoredHypergraph):
        self.colors = h.colors
        self.n = h.params.n
        self.prov: dict[tuple[int, int], tuple[str, tuple[int, ...] | None]] = {}

    def color(self, quad) -> int:
        return _color4(self.colors, *quad)

    def add(self, u: int, v: int, tag: str, backing: tuple[int, ...] | None) -> bool:
        key = (u, v) if u < v else (v, u)
        if key in self.prov:
            return False
        self.prov[key] = (tag, backing)
        return True

    def degree(self, v: int) -> int:
        return sum(1 for k in self.prov if v in k)

    def neighbors_via(self, v: int, tags: set[str]) -> list[tuple[int, tuple[int, ...] | None]]:
        out = []
        for (a, b), (tag, backing) in self.prov.items():
            if tag in tags and v in (a, b):
                out.append((b if a == v else a, backing))
        return sorted(out)

    def graph(self) -> SimpleGraph:
        return SimpleGraph.from_edges(self.n, self.prov.keys())


def _reserve(h: ColoredHypergraph, contain: tuple[int, ...], count: int,
             excluded: set[tuple[int, ...]], who: str) -> list[tuple[int, ...]]:
    """First `count` color-1 edges containing `contain`, colex order, minus
    the already-consumed backings."""
    if count <= 0:
        return []
    quads, ranks = edges_containing(h.params.n, 4, contain)
    hits = np.flatnonzero(h.colors[ranks] == 1)
    out: list[tuple[int, ...]] = []
    for i in hits:
        quad = tuple(int(v) for v in quads[i])
        if quad in excluded:
            continue
        out.append(quad)
        if len(out) == count:
            return out
    raise ReservationUnsatisfiable(
        f"needed {count} color-1 edges around {who}, found {len(out)}",
        detail={"contain": list(contain), "needed": count, "found": len(out)})


def _max_repetition_pick(candidates: list[int], pools: list[tuple[int, ...]]) -> int:
    """Candidate occurring most often across the pools; max() keeps the
    first maximum, so sorting first breaks ties toward smaller ids."""
    return max(sorted(candidates), key=lambda v: sum(v in g for g in pools))


def _backings_at(gb: _GammaBuilder, v: int, tags: set[str]) -> set[tuple[int, ...]]:
    return {backing for _, backing in gb.neighbors_via(v, tags) if backing is not None}


def _repair(gb: _GammaBuilder, D: set[int], x: int, w: int, t: int,
            g: tuple[int, ...], *keep: int) -> None:
    """Add the repair pair (w, t) backed by g; g's other vertices join D."""
    gb.add(w, t, "E6", g)
    D.update(u for u in g if u not in (x, w, t, *keep))


def construct_gamma_case1(h: ColoredHypergraph, s: ShadowMulticoloring,
                          sel: PivotSelection) -> GammaConstruction:
    """Auxiliary graph for an empty U23 (colors already renamed)."""
    n = h.params.n
    x, y, z = sel.x, sel.y, sel.z
    gb = _GammaBuilder(h)
    aa = set(sel.A) | set(sel.A2)
    for u in sorted(set(sel.U12) - {y}):
        for v in range(n):
            if v in (x, z, y, u):
                continue
            if gb.color((x, z, u, v)) == 1:
                gb.add(u, v, "E1", tuple(sorted((x, z, u, v))))
    for u in sorted(set(sel.U13) - {z}):
        for v in range(n):
            if v in (x, y, u):
                continue
            if gb.color((x, y, u, v)) == 1:
                gb.add(u, v, "E2", tuple(sorted((x, y, u, v))))
    for v in range(n):
        if v in (x, y, z) or v in aa:
            continue
        if gb.color((x, y, z, v)) == 1:
            gb.add(z, v, "E3", tuple(sorted((x, y, z, v))))
    for v in sorted(aa - {y}):
        if gb.color((x, y, z, v)) == 1:
            gb.add(y, v, "E4", tuple(sorted((x, y, z, v))))
    for v in sorted(set(sel.U13) - {z}):
        gb.add(y, v, "E5", None)

    # repair the two least-covered U123 vertices up to degree 3
    wsorted = sorted(sel.U123, key=lambda v: (gb.degree(v), v))
    w1 = wsorted[0] if wsorted else None
    w2 = wsorted[1] if len(wsorted) > 1 else None
    r1 = max(3 - gb.degree(w1), 0) if w1 is not None else 0
    r2 = max(3 - gb.degree(w2), 0) if w2 is not None else 0
    tag14 = {"E1", "E2", "E3", "E4"}
    W1 = _reserve(h, (x, w1), r1, _backings_at(gb, w1, tag14),
                  f"x,w1={w1}") if w1 is not None else []
    W2 = _reserve(h, (x, w2), r2, _backings_at(gb, w2, tag14),
                  f"x,w2={w2}") if w2 is not None else []
    D: set[int] = set()
    subcase = {"case": 1, "r1": r1, "r2": r2, "w1": w1, "w2": w2,
               "variant": None, "intersecting": None}

    def lone_neighbor(w):
        return gb.neighbors_via(w, tag14)[0][0]

    if r1 <= 2:
        subcase["variant"] = "i"
        if r2 == 2:
            v_nbr = lone_neighbor(w2)
            g21 = W2[0]
            t1 = min(u for u in g21 if u not in (x, w2, v_nbr))
            _repair(gb, D, x, w2, t1, g21)
        elif r2 == 3:
            # unreachable when degrees are sorted, but harmless to honor
            g21, g22 = W2[0], W2[1]
            t1 = _max_repetition_pick([u for u in g21 if u not in (x, w2)],
                                      [g21, g22])
            t2 = _max_repetition_pick([u for u in g22 if u not in (x, w2, t1)],
                                      [g21, g22])
            _repair(gb, D, x, w2, t1, g21)
            _repair(gb, D, x, w2, t2, g22)
    else:
        subcase["variant"] = "ii"
        g11 = W1[0]
        if r2 <= 1:
            u1 = min(u for u in g11 if u not in (x, w1))
            _repair(gb, D, x, w1, u1, g11)
        elif r2 == 2:
            v_nbr = lone_neighbor(w2)
            w2prime = set(W2) | _backings_at(gb, w2, tag14)
            free = [g for g in W1 if g not in w2prime]
            if not free:
                raise ReservationUnsatisfiable(
                    "every repair edge for w1 collides with w2's",
                    detail={"w1": w1, "w2": w2})
            g13 = free[0]
            u1 = min(u for u in g13 if u not in (x, w1))
            g21 = W2[0]
            t1 = min(u for u in g21 if u not in (x, w2, v_nbr))
            _repair(gb, D, x, w1, u1, g13)
            _repair(gb, D, x, w2, t1, g21)
        else:
            common = [g for g in W1 if g in set(W2)]
            if not common:
                subcase["intersecting"] = False
                g21, g22 = W2[0], W2[1]
                u1 = min(u for u in g11 if u not in (x, w1))
                t1 = _max_repetition_pick([u for u in g21 if u not in (x, w2)],
                                          [g21, g22])
                t2 = _max_repetition_pick([u for u in g22 if u not in (x, w2, t1)],
                                          [g21, g22])
                _repair(gb, D, x, w1, u1, g11)
                _repair(gb, D, x, w2, t1, g21)
                _repair(gb, D, x, w2, t2, g22)
            else:
                subcase["intersecting"] = True
                g11 = common[0]
                g22 = next(g for g in W2 if g != g11)
                t1 = min(u for u in g22 if u not in (x, w1, w2))
                _repair(gb, D, x, w1, w2, g11)
                _repair(gb, D, x, w2, t1, g22, w1)

    for v in range(n):
        if v == x:
            continue
        if (v in (y, z) or v in D) and v not in (w1, w2):
            continue
        gb.add(x, v, "E7", None)

    graph = gb.graph()
    degs = graph.degrees()
    hard = [("x", x, n - 6)]
    hard += [(f"U12-rest:{u}", u, n - 8) for u in sel.U12 if u != y]
    hard += [(f"U13-rest:{u}", u, n - 7) for u in sel.U13 if u != z]
    info = [("z", z, n - len(sel.A) - len(sel.A2) - 7),
            ("y", y, n - len(sel.B) - len(sel.B2) - 7)]
    if w1 is not None:
        info.append(("w1", w1, 2))
    if w2 is not None:
        info.append(("w2", w2, 3))
    report = _degree_report(degs, hard, info)
    return GammaConstruction(case=1, graph=graph, provenance=gb.prov,
                             x=x, y=y, z=z, u12=None, u23=None, w=None,
                             w1=w1, w2=w2, U12=sel.U12, U13=sel.U13,
                             U123=sel.U123, D=frozenset(D), subcase=subcase,
                             degree_report=report)


def construct_gamma_case2(h: ColoredHypergraph, s: ShadowMulticoloring,
                          sel: PivotSelection, w: int | None) -> GammaConstruction:
    """Auxiliary graph for |U23| = 1 (colors already renamed).

    `w` is the extra star vertex, present only when |U123| lies in the
    near-half window; its star covers pairs that stay good in color 1.
    """
    n = h.params.n
    x, y, z, u23, u12 = sel.x, sel.y, sel.z, sel.u23, sel.u12
    gb = _GammaBuilder(h)
    a_set = set(sel.A)
    if u12 is not None:
        for v in range(n):
            if v in (x, z, u12, y):
                continue
            if gb.color((x, z, u12, v)) == 1:
                gb.add(u12, v, "E1", tuple(sorted((x, z, u12, v))))
    for u in sorted(set(sel.U13) - {z}):
        for v in range(n):
            if v in (x, y, u):
                continue
            if gb.color((x, y, u, v)) == 1:
                gb.add(u, v, "E2", tuple(sorted((x, y, u, v))))
    for v in range(n):
        if v in (x, y, z) or v in a_set:
            continue
        if gb.color((x, y, z, v)) == 1:
            gb.add(z, v, "E3", tuple(sorted((x, y, z, v))))
    for v in sorted(a_set):
        if gb.color((x, y, z, v)) == 1:
            gb.add(y, v, "E4", tuple(sorted((x, y, z, v))))
    for v in sorted(set(sel.U13) - {z}):
        gb.add(y, v, "E5", None)

    wsorted = sorted(sel.U123, key=lambda v: (gb.degree(v), v))
    w1 = wsorted[0] if wsorted else None
    tag14 = {"E1", "E2", "E3", "E4"}
    tag13 = {"E1", "E2", "E3"}
    r = max(3 - gb.degree(w1), 0) if w1 is not None else 0
    l = max(2 - gb.degree(u23), 0)
    W = _reserve(h, (x, w1), r, _backings_at(gb, w1, tag14),
                 f"x,w1={w1}") if w1 is not None else []
    U = _reserve(h, (u23,), l, _backings_at(gb, u23, tag13), f"u23={u23}")
    D: set[int] = set()
    subcase = {"case": 2, "early_exit": False, "r": r, "l": l, "w1": w1,
               "u23": u23, "w": w, "intersecting": None}

    def lone_neighbor(v, tags):
        return gb.neighbors_via(v, tags)[0][0]

    if r <= 1:
        if l == 1:
            v_nbr = lone_neighbor(u23, tag13)
            g1 = U[0]
            t1 = min(u for u in g1 if u not in (x, u23, v_nbr))
            _repair(gb, D, x, u23, t1, g1)
        elif l == 2:
            g1, g2 = U
            t1 = _max_repetition_pick([u for u in g1 if u not in (x, u23)], [g1, g2])
            t2 = _max_repetition_pick([u for u in g2 if u not in (x, u23, t1)], [g1, g2])
            _repair(gb, D, x, u23, t1, g1)
            _repair(gb, D, x, u23, t2, g2)
    elif r == 2:
        v_nbr = lone_neighbor(w1, tag14)
        if l == 0:
            h1 = W[0]
            u1 = min(u for u in h1 if u not in (x, w1, v_nbr))
            _repair(gb, D, x, w1, u1, h1)
        elif l == 1:
            u_nbr = lone_neighbor(u23, tag13)
            # keep an edge through u23 in front, repair w1 from the other
            wo = sorted(W, key=lambda g: (u23 not in g, W.index(g)))
            h2 = wo[1]
            u1 = min(u for u in h2 if u not in (x, w1, v_nbr))
            g1 = U[0]
            t1 = min(u for u in g1 if u not in (x, u23, u_nbr))
            _repair(gb, D, x, w1, u1, h2)
            _repair(gb, D, x, u23, t1, g1)
        else:
            wprime = set(W) | _backings_at(gb, w1, tag14)
            common = [g for g in U if g in wprime]
            if not common:
                subcase["intersecting"] = False
                h1 = W[0]
                g1, g2 = U
                u1 = min(u for u in h1 if u not in (x, w1, v_nbr))
                t1 = _max_repetition_pick([u for u in g1 if u not in (x, u23)], [g1, g2])
                t2 = _max_repetition_pick([u for u in g2 if u not in (x, u23, t1)], [g1, g2])
                _repair(gb, D, x, w1, u1, h1)
                _repair(gb, D, x, u23, t1, g1)
                _repair(gb, D, x, u23, t2, g2)
            else:
                subcase["intersecting"] = True
                h1 = common[0]
                g2 = next(g for g in U if g != h1)
                t1 = _max_repetition_pick(
                    [u for u in g2 if u not in (x, u23, w1)], [U[0], g2])
                _repair(gb, D, x, w1, u23, h1)
                _repair(gb, D, x, u23, t1, g2)
    else:
        if l == 0:
            h1, h2 = W[0], W[1]
            u1 = _max_repetition_pick([u for u in h1 if u not in (x, w1)], [h1, h2])
            u2 = _max_repetition_pick([u for u in h2 if u not in (x, w1, u1)], [h1, h2])
            _repair(gb, D, x, w1, u1, h1)
            _repair(gb, D, x, w1, u2, h2)
        elif l == 1:
            u_nbr = lone_neighbor(u23, tag13)
            g1 = U[0]
            # repairs for w1 must dodge the edge reserved for u23
            wo = sorted(W, key=lambda g: (g != g1, W.index(g)))
            h2, h3 = wo[1], wo[2]
            u1 = _max_repetition_pick([u for u in h2 if u not in (x, w1)], [h2, h3])
            u2 = _max_repetition_pick([u for u in h3 if u not in (x, w1, u1)], [h2, h3])
            t1 = min(u for u in g1 if u not in (x, u23, u_nbr))
            _repair(gb, D, x, w1, u1, h2)
            _repair(gb, D, x, w1, u2, h3)
            _repair(gb, D, x, u23, t1, g1)
        else:
            common = [g for g in W if g in set(U)]
            if not common:
                subcase["intersecting"] = False
                h1, h2 = W[0], W[1]
                g1, g2 = U
                u1 = _max_repetition_pick([u for u in h1 if u not in (x, w1)], [h1, h2])
                u2 = _max_repetition_pick([u for u in h2 if u not in (x, w1, u1)], [h1, h2])
                t1 = _max_repetition_pick([u for u in g1 if u not in (x, u23)], [g1, g2])
                t2 = _max_repetition_pick([u for u in g2 if u not in (x, u23, t1)], [g1, g2])
                _repair(gb, D, x, w1, u1, h1)
                _repair(gb, D, x, w1, u2, h2)
                _repair(gb, D, x, u23, t1, g1)
                _repair(gb, D, x, u23, t2, g2)
            else:
                subcase["intersecting"] = True
                h1 = common[0]
                g2 = next(g for g in U if g != h1)
                outside = [g for g in W if g != h1 and g not in set(U)]
                h3 = outside[0]
                u1 = min(u for u in h3 if u not in (x, w1))
                t1 = _max_repetition_pick(
                    [u for u in g2 if u not in (x, u23, w1)], [h1, g2])
                _repair(gb, D, x, w1, u23, h1)
                _repair(gb, D, x, w1, u1, h3)
                _repair(gb, D, x, u23, t1, g2, w1)

    if w is not None:
        gm = s.goodmask
        pr = _pair_rank_matrix(n)
        for v in range(n):
            if v in (x, w):
                continue
            if gm[pr[w, v]] & 1:
                gb.add(w, v, "E7", None)
    for v in range(n):
        if v == x:
            continue
        if (v in (y, z, u23, w) or v in D) and v != w1:
            continue
        gb.add(x, v, "E8", None)

    graph = gb.graph()
    degs = graph.degrees()
    hard = [("x", x, n - 11)]
    hard += [(f"U13-rest:{u}", u, n - 7) for u in sel.U13 if u != z]
    if u12 is not None:
        hard.append((f"u12:{u12}", u12, n - 8))
    info = [("u23", u23, 2), ("z", z, n - len(sel.A) - 7),
            ("y", y, n - len(sel.B) - 9)]
    if w1 is not None:
        info.append(("w1", w1, 3))
    report = _degree_report(degs, hard, info)
    return GammaConstruction(case=2, graph=graph, provenance=gb.prov,
                             x=x, y=y, z=z, u12=u12, u23=u23, w=w,
                             w1=w1, w2=None, U12=sel.U12, U13=sel.U13,
                             U123=sel.U123, D=frozenset(D), subcase=subcase,
                             degree_report=report)


def _degree_report(degs: list[int], hard, info) -> dict:
    return {
        "hard": [{"who": who, "vertex": v, "degree": degs[v], "floor": floor}
                 for who, v, floor in hard],
        "violations": [{"who": who, "vertex": v, "degree": degs[v],
                        "floor": floor}
                       for who, v, floor in hard if degs[v] < floor],
        "info": [{"who": who, "vertex": v, "degree": degs[v], "floor": floor,
                  "ok": degs[v] >= floor} for who, v, floor in info],
    }


# ---------------------------------------------------------------------------
# lifting a Hamiltonian cycle of Gamma to a Berge-cycle


def extend_to_berge(h: ColoredHypergraph, s: ShadowMulticoloring,
                    g: GammaConstruction, cycle) -> BergeCertificate:
    """Assign a distinct color-1 edge over every consecutive pair of `cycle`.

    Pairs inherited from the constrained classes get their predetermined
    backing ({x,z,.,.} or {x,y,.,.} or a reserved repair edge); the star
    pairs at x (and at the extra vertex w in case 2) are matched against
    their remaining pools at the end.
    """
    n = h.params.n
    cyc = list(cycle)
    if sorted(cyc) != list(range(n)):
        raise ExtensionFailed("cycle is not a permutation of the vertices")
    pos = cyc.index(g.x)
    core = cyc[pos + 1:] + cyc[:pos + 1]          # x sits last
    if g.case == 1 and g.w1 is not None and core[0] == g.w1:
        core = core[:-1][::-1] + [g.x]            # flip so v1 != w1
    pairs = [(core[i], core[(i + 1) % n]) for i in range(n)]

    def tag_of(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in g.provenance:
            raise ExtensionFailed(f"cycle edge {key} is not in Gamma")
        return g.provenance[key]

    used: set[int] = set()
    assigned: dict[int, int] = {}

    def commit(i, quad):
        quad = tuple(sorted(quad))
        if len(set(quad)) != 4:
            raise ExtensionFailed(f"degenerate edge {quad} at position {i}")
        rank = rank_subset(quad)
        if int(h.colors[rank]) != 1:
            raise ExtensionFailed(f"edge {quad} at position {i} is not color 1")
        if rank in used:
            raise ExtensionFailed(f"edge {quad} reused at position {i}")
        used.add(rank)
        assigned[i] = rank

    deferred: list[tuple[int, str]] = []
    for i, (a, b) in enumerate(pairs):
        tag, backing = tag_of(a, b)
        if tag in ("E1", "E4"):
            commit(i, (g.x, g.z, a, b))
        elif tag in ("E2", "E3"):
            commit(i, (g.x, g.y, a, b))
        elif tag == "E6":
            commit(i, backing)
        else:
            deferred.append((i, tag))

    u13 = set(g.U13) - {g.z}
    for i, tag in [d for d in deferred if d[1] == "E5"]:
        a, b = pairs[i]
        nearby = {core[(i - 1) % n], a, b, core[(i + 2) % n],
                  core[0], core[n - 2]}
        placed = False
        for u in sorted(u13 - nearby):
            quad = tuple(sorted((g.x, a, b, u)))
            rank = rank_subset(quad)
            if int(h.colors[rank]) == 1 and rank not in used:
                commit(i, quad)
                placed = True
                break
        if not placed:
            raise ExtensionFailed(
                f"no fresh color-1 edge over pair {(a, b)} at position {i}",
                detail={"position": i, "pair": [a, b],
                        "candidates": sorted(u13 - nearby)})

    # star pairs: a small bipartite matching against the remaining pools
    # of unused color-1 edges over each pair
    star = sorted(i for i, tag in deferred if tag != "E5")
    taken = np.fromiter(used, dtype=np.int64, count=len(used))
    pools = []
    for i in star:
        _, ranks = edges_containing(n, 4, pairs[i])
        pools.append(ranks[(h.colors[ranks] == 1) & ~np.isin(ranks, taken)])
    match = max_bipartite_matching(PositionEdgeBipartite(len(star), pools))
    for j, i in enumerate(star):
        if match[j] < 0:
            raise ExtensionFailed(
                f"no assignment for star pair {pairs[i]} at position {i}",
                detail={"position": i, "pair": list(pairs[i]),
                        "pool_sizes": dict(zip(star, map(len, pools)))})
        assigned[i] = int(match[j])

    edges = tuple(unrank_subset(assigned[i], n, 4) for i in range(n))
    cert = BergeCertificate(color=1, core=tuple(core), edges=edges, t=2)
    err = verify_berge_certificate(cert, h)
    if err is not None:
        raise InternalError(f"internal extension error: {err}")
    return cert


# ---------------------------------------------------------------------------
# the low-color-degree vertex route


def _order_avoiding(pool, prev, nxt, blocked, cap: int = 200000):
    """Arrange `pool` so no consecutive pair (including prev->first and
    last->nxt when given) lands in `blocked`.  Smallest-first backtracking;
    None when the cap runs out or no arrangement exists."""
    items = sorted(pool)
    k = len(items)

    def ok(a, b):
        return a is None or b is None or frozenset((a, b)) not in blocked

    seq: list[int] = []
    in_use = [False] * k
    stack: list[int] = []
    start = 0
    iters = 0
    while True:
        iters += 1
        if iters > cap:
            return None
        before = prev if not seq else seq[-1]
        j = start
        while j < k:
            if not in_use[j] and ok(before, items[j]) and not (
                    len(seq) == k - 1 and not ok(items[j], nxt)):
                break
            j += 1
        if j < k:
            seq.append(items[j])
            in_use[j] = True
            stack.append(j)
            start = 0
            if len(seq) == k:
                return seq
        else:
            if not stack:
                return None
            j = stack.pop()
            in_use[j] = False
            seq.pop()
            start = j + 1


def _mono_ham_berge_in_link(k: ColoredHypergraph, budget: int,
                            fallbacks: list) -> BergeCertificate:
    sk = build_shadow(k, 2)
    for color in (1, 2):
        res = find_mono_ham_tight_cycle(sk, 2, color, budget)
        fallbacks.append({"stage": "link-good-graph", "color": color,
                          "status": res.status})
        if res.status != "found":
            continue
        try:
            return extend_tight_cycle(res.witness, k, sk)
        except MatchingIncomplete:
            fallbacks.append({"stage": "link-extract", "color": color,
                              "status": "matching-incomplete"})
    # weaker route: a Hamiltonian cycle over the pairs covered at least
    # once, then a direct position -> edge matching
    n1 = k.params.n
    tab2 = edge_table(n1, 2)
    for color in (1, 2):
        covered = np.flatnonzero(sk.counts[:, color - 1] >= 1)
        graph = SimpleGraph.from_edges(
            n1, ((int(tab2[r, 0]), int(tab2[r, 1])) for r in covered))
        res = find_hamiltonian_cycle(graph, budget)
        fallbacks.append({"stage": "link-weak-graph", "color": color,
                          "status": res.status})
        if res.status != "found":
            continue
        cyc = res.cycle
        pools = []
        for i in range(n1):
            _, ranks = edges_containing(n1, 3, (cyc[i], cyc[(i + 1) % n1]))
            pools.append(ranks[k.colors[ranks] == color])
        match = max_bipartite_matching(PositionEdgeBipartite(n1, pools))
        if (match >= 0).all():
            edges = tuple(unrank_subset(int(rk), n1, 3) for rk in match)
            return BergeCertificate(color=color, core=tuple(cyc),
                                    edges=edges, t=2)
        fallbacks.append({"stage": "link-weak-matching", "color": color,
                          "status": "incomplete"})
    raise FallbackExhausted("no monochromatic Hamiltonian cycle in the link")


def _cycle_adjacency(core: list[int]) -> set[frozenset]:
    k = len(core)
    return {frozenset((core[i], core[(i + 1) % k])) for i in range(k)}


def _lemma_insert(work: np.ndarray, v: int, xs: list[int],
                  es: list[tuple[int, ...]], chi: int,
                  detail: dict) -> BergeCertificate | None:
    """Insert v into the link cycle using a chi-colored chord at x1.

    xs is already rotated so x1 avoids the companion edge of v.  Tries an
    inner chord {x1, xk, xk'} first, then a wrap chord next to x1 on either
    side.  Returns None when no usable chord exists.
    """
    n1 = len(xs)
    n = n1 + 1
    x1 = xs[0]

    def col(a, b, c):
        return _color4(work, v, a, b, c)

    # inner chord: 0-based slots 2..n1-2, slot gap >= 2
    for ki in range(2, n1 - 2):
        for kj in range(ki + 2, n1 - 1):
            if col(x1, xs[ki], xs[kj]) == chi:
                detail["insertion"] = "chord"
                new_core = [x1, v] + xs[1:]
                edges = ([tuple(sorted((v, x1, xs[ki], xs[kj])))]
                         + [tuple(sorted(e + (v,))) for e in es])
                return BergeCertificate(color=chi, core=tuple(new_core),
                                        edges=tuple(edges), t=2)
    e_last, e_first = es[-1], es[0]
    for li in range(2, n1 - 2):
        tri = tuple(sorted((xs[-1], x1, xs[li])))
        if col(*tri) == chi and tri != e_last:
            detail["insertion"] = "wrap-left"
            new_core = [v] + xs
            per = {(v, x1): tuple(sorted(e_last + (v,))),
                   (xs[-1], v): tuple(sorted(tri + (v,)))}
            for i in range(n1 - 1):
                per[(xs[i], xs[i + 1])] = tuple(sorted(es[i] + (v,)))
            edges = tuple(per[(new_core[i], new_core[(i + 1) % n])]
                          for i in range(n))
            return BergeCertificate(color=chi, core=tuple(new_core),
                                    edges=edges, t=2)
    for li in range(3, n1 - 1):
        tri = tuple(sorted((x1, xs[1], xs[li])))
        if col(*tri) == chi and tri != e_first:
            detail["insertion"] = "wrap-right"
            new_core = [x1, v] + xs[1:]
            per = {(x1, v): tuple(sorted(tri + (v,))),
                   (v, xs[1]): tuple(sorted(e_first + (v,)))}
            for i in range(1, n1):
                per[(xs[i], xs[(i + 1) % n1])] = tuple(sorted(es[i] + (v,)))
            edges = tuple(per[(new_core[i], new_core[(i + 1) % n])]
                          for i in range(n))
            return BergeCertificate(color=chi, core=tuple(new_core),
                                    edges=edges, t=2)
    return None


def _lemma_opposite_cycle(work: np.ndarray, v: int, xs: list[int],
                          chi: int, detail: dict) -> BergeCertificate:
    """Opposite-color cycle through x1 when no chi-chord at x1 exists.

    Core order v, y2, x_last, y4, y5, x2, y7, ..., x1 with consecutive
    pairs non-adjacent on the old cycle; every edge is {v, ., ., x1}.
    """
    other = 5 - chi
    n1 = len(xs)
    n = n1 + 1
    x1 = xs[0]
    cadj = _cycle_adjacency(xs)
    xlast, x2 = xs[-1], xs[1]

    def col(a, b, c):
        return _color4(work, v, a, b, c)

    banned = {xs[-2], xlast, x1, x2, xs[2]}
    pool_l = [u for u in sorted(xs) if u not in banned
              and col(xlast, u, x1) == other]
    pool_r = [u for u in sorted(xs) if u not in banned
              and col(x2, u, x1) == other]

    def adj(a, b):
        return frozenset((a, b)) in cadj

    try:
        y2 = pool_l[0]
        y4 = next(u for u in pool_l if u != y2 and not adj(u, y2))
        y5 = next(u for u in pool_r if u not in (y2, y4) and not adj(u, y4))
        y7 = next(u for u in pool_r
                  if u not in (y2, y4, y5) and not adj(u, y5))
    except (IndexError, StopIteration):
        raise FallbackExhausted("insertion pools at x1 are too thin")
    tail_pool = [u for u in xs if u not in (x1, x2, xlast, y2, y4, y5, y7)]
    tail = _order_avoiding(tail_pool, y7, x1, cadj)
    if tail is None:
        raise FallbackExhausted("could not arrange the opposite-color cycle")
    ys = [v, y2, xlast, y4, y5, x2, y7] + tail + [x1]   # ys[j-1] is y_j
    for j in range(2, n - 1):
        if col(ys[j - 1], ys[j], x1) != other:
            raise FallbackExhausted(
                f"pair ({ys[j - 1]},{ys[j]}) breaks the opposite pattern")

    allowed = [q for q in range(4, n - 2) if q != 6]   # slot 6 is pinned x2
    y_last = ys[n - 2]

    def picks(exclude, extra=None, needs=None):
        for q in allowed:
            if any(abs(q - e) < 2 for e in exclude):
                continue
            u = ys[q - 1]
            if any(adj(u, ys[e - 1]) for e in exclude):
                continue
            if extra is not None and (u == extra or adj(u, extra)):
                continue
            if needs is not None and col(u, needs, x1) != other:
                continue
            yield q

    try:
        p = next(picks([], extra=y_last, needs=y_last))
        hh = next(picks([p]))
        kk = next(q for q in picks([p, hh])
                  if col(ys[q - 1], ys[hh - 1], x1) == other)
        ll = next(picks([p, hh, kk], extra=y2, needs=y2))
    except StopIteration:
        raise FallbackExhausted("no wrap picks for the opposite-color cycle")
    per = {}
    for j in range(2, n - 1):
        per[j] = tuple(sorted((v, ys[j - 1], ys[j], x1)))
    per[n - 1] = tuple(sorted((v, ys[p - 1], y_last, x1)))
    per[n] = tuple(sorted((v, ys[hh - 1], ys[kk - 1], x1)))
    per[1] = tuple(sorted((v, y2, ys[ll - 1], x1)))
    edges = tuple(per[j] for j in range(1, n + 1))
    if len(set(edges)) != n:
        raise FallbackExhausted("edge collision in the opposite-color cycle")
    detail["insertion"] = "opposite-cycle"
    return BergeCertificate(color=other, core=tuple(ys), edges=edges, t=2)


def _color2_spares(work: np.ndarray, v: int, u: int, verts: list[int],
                   cset: set[frozenset]) -> list[tuple[int, ...]]:
    """Color-2 link triples through u that are not cycle edges."""
    out = []
    rest = sorted(w for w in verts if w != u)
    for a, b in itertools.combinations(rest, 2):
        tri = tuple(sorted((u, a, b)))
        if frozenset(tri) in cset:
            continue
        if _color4(work, v, *tri) == 2:
            out.append(tri)
    return out


def _lemma_in_cycle(work: np.ndarray, v: int, core: list[int],
                    cedges: list[tuple[int, ...]], e_core: tuple[int, ...],
                    detail: dict) -> BergeCertificate:
    """The companion edge of v lies on C, covering a consecutive pair."""
    j = cedges.index(e_core)
    xs = core[j:] + core[:j]
    es = cedges[j:] + cedges[:j]
    v2, v3 = xs[0], xs[1]
    cset = set(map(frozenset, es))

    p2 = _color2_spares(work, v, v2, xs, cset)
    p3 = _color2_spares(work, v, v3, xs, cset)
    pick = None
    for g2 in p2[:2]:
        for g3 in p3[:2]:
            if g2 != g3:
                pick = (g2, g3)
                break
        if pick:
            break
    if pick:
        detail["insertion"] = "two-chords"
        g2, g3 = pick
        new_core = [v2, v, v3] + xs[2:]
        edges = ([tuple(sorted(g2 + (v,))), tuple(sorted(g3 + (v,)))]
                 + [tuple(sorted(e + (v,))) for e in es[1:]])
        return BergeCertificate(color=2, core=tuple(new_core),
                                edges=tuple(edges), t=2)

    # nearly every spare pair at v2 (or v3) is the other color: build the
    # cycle ending at that vertex with all edges {v, ., ., u} of color 3
    for u, e_other, spares in ((v2, es[-1], p2), (v3, es[1], p3)):
        try:
            cert = _lemma_terminal_cycle(work, v, xs, u, e_core, e_other,
                                         spares)
            detail["insertion"] = ("terminal-cycle-at-v2" if u == v2
                                   else "terminal-cycle-at-v3")
            return cert
        except FallbackExhausted:
            continue
    raise FallbackExhausted("in-cycle companion: both terminal cycles failed")


def _lemma_terminal_cycle(work: np.ndarray, v: int, xs: list[int], u: int,
                          e_core: tuple[int, ...], e_other: tuple[int, ...],
                          spares: list[tuple[int, ...]]) -> BergeCertificate:
    """Color-3 cycle v, y2, ..., y_{n-1}, u with edges {v, y_i, y_{i+1}, u}."""
    n1 = len(xs)
    n = n1 + 1
    cadj = _cycle_adjacency(xs)
    blocked = set(cadj)
    for e in (e_core, e_other):
        pair = [w for w in e if w != u]
        if len(pair) == 2:
            blocked.add(frozenset(pair))
    for tri in spares:               # the rare color-2 leftovers through u
        blocked.add(frozenset(w for w in tri if w != u))

    def col(a, b, c):
        return _color4(work, v, a, b, c)

    pool = [w for w in xs if w != u]
    seq = _order_avoiding(pool, None, u, blocked)
    if seq is None:
        raise FallbackExhausted("could not arrange the terminal cycle")
    ys = [v] + seq + [u]
    for j in range(2, n - 1):
        if col(ys[j - 1], ys[j], u) != 3:
            raise FallbackExhausted(
                f"pair ({ys[j - 1]},{ys[j]}) breaks the terminal pattern")

    def adj(a, b):
        return frozenset((a, b)) in cadj

    excl_verts = set(e_core) | set(e_other)
    allowed = [q for q in range(4, n - 2) if ys[q - 1] not in excl_verts]
    y2, y_last = ys[1], ys[n - 2]

    def picks(exclude, extra=None):
        for q in allowed:
            if any(abs(q - e) < 2 for e in exclude):
                continue
            w = ys[q - 1]
            if any(adj(w, ys[e - 1]) for e in exclude):
                continue
            if extra is not None and (w == extra or adj(w, extra)):
                continue
            yield q

    try:
        p = next(q for q in picks([], extra=y_last)
                 if col(ys[q - 1], y_last, u) == 3)
        hh = next(picks([p]))
        kk = next(q for q in picks([p, hh])
                  if col(ys[q - 1], ys[hh - 1], u) == 3)
        ll = next(q for q in picks([p, hh, kk], extra=y2)
                  if col(ys[q - 1], y2, u) == 3)
    except StopIteration:
        raise FallbackExhausted("no wrap picks for the terminal cycle")
    per = {}
    for j in range(2, n - 1):
        per[j] = tuple(sorted((v, ys[j - 1], ys[j], u)))
    per[n - 1] = tuple(sorted((v, ys[p - 1], y_last, u)))
    per[n] = tuple(sorted((v, ys[hh - 1], ys[kk - 1], u)))
    per[1] = tuple(sorted((v, y2, ys[ll - 1], u)))
    edges = tuple(per[j] for j in range(1, n + 1))
    if len(set(edges)) != n:
        raise FallbackExhausted("edge collision in the terminal cycle")
    return BergeCertificate(color=3, core=tuple(ys), edges=edges, t=2)


def lemma_a_construct(h: ColoredHypergraph, vertex: int, color: int,
                      budget: int = DEFAULT_BUDGET) -> tuple[BergeCertificate, dict]:
    """Certificate for a vertex touching at most one edge of `color`.

    The coloring is renamed so the sparse color is 1 and the exceptional
    edge, if any, counts as color 2; a monochromatic Hamiltonian cycle of
    the vertex's link then absorbs the vertex back in.  Returns the
    certificate (in the original colors) plus a detail dict for the trace.
    """
    p = h.params
    if p.r != 4 or p.c != 3:
        raise InvalidParams(f"vertex route needs r=4, c=3; got r={p.r} c={p.c}")
    n = p.n
    detail: dict = {"vertex": vertex, "color": color, "fallbacks": []}

    lut = np.arange(4, dtype=np.uint8)
    lut[1], lut[color] = color, 1
    work = lut[h.colors]

    quads, ranks = edges_containing(n, 4, (vertex,))
    ones = np.flatnonzero(work[ranks] == 1)
    if ones.size > 1:
        raise InvalidParams(
            f"vertex {vertex} touches {ones.size} edges of color {color}")
    if ones.size == 1:
        e_v = tuple(int(a) for a in quads[ones[0]])
    else:
        low = [a for a in range(n) if a != vertex][:3]
        e_v = tuple(sorted([vertex] + low))
    detail["companion_edge"] = list(e_v)
    swapped_23 = _color4(work, *e_v) == 3
    if swapped_23:
        work = np.array([0, 1, 3, 2], dtype=np.uint8)[work]
    else:
        work = work.copy()
    work[rank_subset(e_v)] = 2

    # the link of v: the edges through v, minus v, in the colex order of
    # the other vertices; work colors {2,3} become link colors {1,2}
    others = [u for u in range(n) if u != vertex]
    k = ColoredHypergraph(Params(n=n - 1, r=3, t=2, c=2), work[ranks] - 1)
    link_cert = _mono_ham_berge_in_link(k, budget, detail["fallbacks"])
    core = [others[i] for i in link_cert.core]
    cedges = [tuple(sorted(others[i] for i in e)) for e in link_cert.edges]
    chi = link_cert.color + 1        # link colors {1,2} are work colors {2,3}
    e_core = tuple(a for a in e_v if a != vertex)
    detail["cycle_color"] = chi

    if chi == 2 and frozenset(e_core) in set(map(frozenset, cedges)):
        detail["case"] = "in-cycle"
        cert = _lemma_in_cycle(work, vertex, core, cedges, e_core, detail)
    else:
        detail["case"] = "off-cycle" if chi == 2 else "companion-free"
        rot = next(i for i in range(len(core)) if core[i] not in e_core)
        xs = core[rot:] + core[:rot]
        es = cedges[rot:] + cedges[:rot]
        cert = _lemma_insert(work, vertex, xs, es, chi, detail)
        if cert is None:
            cert = _lemma_opposite_cycle(work, vertex, xs, chi, detail)

    out_color = cert.color
    if swapped_23:
        out_color = {1: 1, 2: 3, 3: 2}[out_color]
    if color != 1:
        out_color = {1: color, color: 1}.get(out_color, out_color)
    final = BergeCertificate(color=out_color, core=cert.core,
                             edges=cert.edges, t=2)
    err = verify_berge_certificate(final, h)
    if err is not None:
        raise FallbackExhausted(f"vertex-route certificate failed: {err}")
    return final, detail


# ---------------------------------------------------------------------------
# dispatcher


def _shadow_guided_cert(h: ColoredHypergraph, s: ShadowMulticoloring,
                        color_order, budget: int,
                        fallbacks: list) -> BergeCertificate | None:
    for color in color_order:
        res = find_mono_ham_tight_cycle(s, 2, color, budget)
        fallbacks.append({"stage": "good-graph", "color": color,
                          "status": res.status, "expansions": res.expansions})
        if res.status != "found":
            continue
        try:
            return extend_tight_cycle(res.witness, h, s)
        except MatchingIncomplete as exc:
            fallbacks.append({"stage": "extract", "color": color,
                              "status": "matching-incomplete",
                              "unmatched": list(exc.unmatched)})
    return None


def _dump_reproducer(h: ColoredHypergraph, trace: ConstructionTrace,
                     tag: str) -> str:
    fd, path = tempfile.mkstemp(prefix=f"berge-breach-{tag}-",
                                suffix=".coloring")
    os.close(fd)
    write_coloring(h, path)
    with open(path + ".trace.json", "w") as fh:
        json.dump(trace.to_json_dict(), fh, indent=2)
    return path


def r4_find(h: ColoredHypergraph, budget: int = DEFAULT_BUDGET) -> R4Result:
    """Monochromatic Hamiltonian Berge-cycle in a 3-colored K_n^4, n >= 85.

    Returns the verified certificate and the construction trace.  Raises
    Unresolved when every applicable route exhausts its budget, and a
    ContractBreach subclass (with a reproducer dumped to disk) if the input
    falsifies a structural guarantee.
    """
    p = h.params
    if p.r != 4 or p.c != 3:
        raise InvalidParams(f"need r=4 and c=3, got r={p.r}, c={p.c}")
    if p.n < MIN_N:
        raise InvalidParams(f"need n >= {MIN_N}, got n={p.n}")
    trace = ConstructionTrace()

    def finish(cert: BergeCertificate, sigma=None) -> R4Result:
        out = cert
        if sigma is not None and sigma != (1, 2, 3):
            inv = {sigma[i]: i + 1 for i in range(3)}
            out = BergeCertificate(color=inv[cert.color], core=cert.core,
                                   edges=cert.edges, t=2)
        err = verify_berge_certificate(out, h)
        if err is not None:
            raise InternalError(f"certificate failed final verification: {err}")
        return R4Result(out, trace)

    counts = _incidence_counts(h)
    sparse = [(v, c) for v in range(p.n) for c in (1, 2, 3)
              if counts[v, c - 1] <= 1]
    for v, c in sparse:
        trace.steps.append({"step": "sparse-vertex", "vertex": v, "color": c})
        try:
            cert, detail = lemma_a_construct(h, v, c, budget)
            trace.branch = "lemma-3.1"
            trace.subcase = detail
            return finish(cert)
        except FallbackExhausted as exc:
            trace.fallbacks.append({"stage": "sparse-vertex", "vertex": v,
                                    "color": c, "status": str(exc)})

    s = build_shadow(h, 2)
    try:
        profiles = compute_u_profiles(s)
    except SingleGoodEdge as exc:
        trace.branch = "single-good-fallback"
        trace.subcase = {"pair": list(exc.pair), "goodset": list(exc.goodset)}
        cert = _shadow_guided_cert(h, s, (1, 2, 3), budget, trace.fallbacks)
        if cert is None:
            raise Unresolved("single-good fallback found no cycle in budget",
                             trace) from exc
        return finish(cert)

    bc, sel = classify_and_pivot(profiles)
    if sel is None:
        trace.branch = "B-cover"
        trace.subcase = {"B_sizes": [len(bc.B1), len(bc.B2), len(bc.B3),
                                     len(bc.B4)]}
        cert = _shadow_guided_cert(h, s, (1, 2, 3), budget, trace.fallbacks)
        if cert is None:
            raise Unresolved("B-cover search found no cycle in budget", trace)
        return finish(cert)

    trace.pivot = {"x": sel.x, "pi": sel.pi, "sigma": list(sel.sigma),
                   "sizes": {"U23": len(sel.U23), "U12": len(sel.U12),
                             "U13": len(sel.U13), "U123": len(sel.U123)}}
    if sel.sigma != (1, 2, 3):
        trace.steps.append({"step": "color-relabel-reduction",
                            "sigma": list(sel.sigma)})
        h2, s2 = relabel_colors(h, s, sel.sigma)
    else:
        h2, s2 = h, s

    try:
        if not sel.U23:
            trace.branch = "case-1"
            gamma = construct_gamma_case1(h2, s2, sel)
        else:
            trace.branch = "case-2"
            m123 = len(sel.U123)
            w = None
            if p.n - 2 <= 2 * m123 <= p.n - 1:
                relabeled = (_relabel_profile(q, sel.sigma) for q in profiles)
                b1 = {q.vertex for q in relabeled
                      if not q.U12 and not q.U13 and q.U23}
                outside = [u for u in sel.U123 if u not in b1]
                if not outside:
                    trace.subcase = {"case": 2, "early_exit": True}
                    cert = _shadow_guided_cert(h2, s2, (2,), budget,
                                               trace.fallbacks)
                    if cert is None:
                        raise Unresolved("early-exit good graph was not "
                                         "Hamiltonian in budget", trace)
                    return finish(cert, sel.sigma)
                w = outside[0]
            gamma = construct_gamma_case2(h2, s2, sel, w)
        trace.subcase = gamma.subcase
        trace.degree_report = gamma.degree_report
        if gamma.degree_report["violations"]:
            raise ContractBreach(
                "degree floor violated in Gamma",
                detail={"violations": gamma.degree_report["violations"]})
        res = find_hamiltonian_cycle(gamma.graph, budget)
        trace.steps.append({"step": "gamma-hamilton", "status": res.status,
                            "expansions": res.expansions})
        if res.status != "found":
            if chvatal_holds(gamma.graph.degrees()):
                raise Unresolved("Gamma search exhausted its budget", trace)
            raise ContractBreach(
                "Gamma fails the degree condition and no cycle was found",
                detail={"degrees": sorted(gamma.graph.degrees())})
        cert = extend_to_berge(h2, s2, gamma, res.cycle)
        return finish(cert, sel.sigma)
    except ContractBreach as exc:
        exc.reproducer = _dump_reproducer(h, trace, type(exc).__name__.lower())
        raise
