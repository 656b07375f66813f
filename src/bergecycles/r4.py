"""Monochromatic Hamiltonian Berge-cycles in 3-colored complete 4-graphs.

Input: a 3-coloring of K_n^4 with n >= 85.  Output: a `SearchResult`
holding a verified Berge certificate and the trace of the construction
route taken; a ContractBreach carries the trace so far.  The dispatcher
`r4_find` tries, in order:

  1. a vertex that touches at most one edge of some color -- the cycle is
     built inside that vertex's link and the vertex is re-inserted
     (`lemma_a_construct`);
  2. a pair with at most one good color in the pair shadow -- signalled as
     `SingleGoodEdge` and handled by `shadow_guided_cert`;
  3. every vertex lands in a dominance class (B-cover) -- one of the three
     good-pair graphs is Hamiltonian and lifts through the shadow
     (`shadow_guided_cert`, also the generic search of `find_certificate`);
  4. otherwise a pivot vertex x with small mixed classes exists.  Colors are
     renamed so |U23| <= |U12| <= |U13|, an auxiliary graph Gamma is built
     (`construct_gamma_case1` / `construct_gamma_case2`), its Hamiltonian
     cycle is found, and `extend_to_berge` lifts it through the shared
     `extract.lift_to_berge`: a matching gives every consecutive pair its
     own color-1 edge.

Both Gamma cases share one scaffold for the pair families E1-E5
(`_gamma_base`) and one repair rule: each computes how many E6 repair pairs
its two low-degree vertices need, before any repair, and `_top_up` adds
them; only the leaves that share or narrow reserved edges, and the star at
x, differ.  Every vertex-route construction only decides a core: `_lift_core`
backs its pairs through `extract.lift_to_berge` on the renamed coloring, and
the opposite-color and terminal cycles through a hub vertex share one
pattern check (`_close_hub_cycle`).

Everything is deterministic: vertex sets iterate in sorted order, candidate
edges scan in colex order, and ties break toward smaller ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    BergeCertificate,
    ColoredHypergraph,
    ContractBreach,
    InternalError,
    InvalidParams,
    Params,
    TightCycleWitness,
    edge_table,
    edges_through,
    rank_rows,
    rank_subset,
    unrank_subset,
    verify_berge_certificate,
)
from .extract import MatchingIncomplete, extend_tight_cycle, lift_to_berge
from .hamilton import (
    DEFAULT_BUDGET,
    SimpleGraph,
    find_hamiltonian_cycle,
    find_mono_ham_tight_cycle,
)
from .shadow import ShadowMulticoloring, _at_least, build_shadow

MIN_N = 85

_POPCOUNT3 = np.array([0, 1, 1, 2, 1, 2, 2, 3], dtype=np.uint8)


class PivotInvariantViolation(ContractBreach):
    """Pivot mixed-class sizes outside the guaranteed range."""


class ReservationUnsatisfiable(ContractBreach):
    """Not enough color-1 edges available to reserve repair backings."""


class ExtensionFailed(ContractBreach):
    """Gamma's Hamiltonian cycle has no distinct color-1 backing edges."""


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

    graph: SimpleGraph
    provenance: dict                # (u, v) u < v -> (tag, backing 4-tuple | None)
    w1: int | None
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
class SearchResult:
    """found/unresolved/nonexistent; unpacks as (status, certificate)."""

    status: str
    certificate: BergeCertificate | None
    trace: ConstructionTrace

    def __iter__(self):
        return iter((self.status, self.certificate))


# ---------------------------------------------------------------------------
# small shared helpers


def _quads(*cols) -> np.ndarray:
    """Sorted (m, 4) rows of the 4-sets {a, b, c, d}, each column one vertex
    or an (m,) array: `rank_rows` of them makes a color scan one gather."""
    out = np.empty((max((len(c) for c in cols if np.ndim(c)), default=1), 4),
                   dtype=np.intp)
    for j, col in enumerate(cols):
        out[:, j] = col
    out.sort(axis=1)
    return out


def _pair_rank_matrix(n: int) -> np.ndarray:
    tab = edge_table(n, 2)
    ranks = np.arange(len(tab), dtype=np.int64)
    m = np.zeros((n, n), dtype=np.int64)
    m[tab[:, 0], tab[:, 1]] = ranks
    m[tab[:, 1], tab[:, 0]] = ranks
    return m


def relabel_colors(h: ColoredHypergraph, s: ShadowMulticoloring,
                   sigma: tuple[int, int, int]) -> tuple[ColoredHypergraph, ShadowMulticoloring]:
    """Rename colors by sigma (old i -> sigma[i-1]) in both views; the
    shadow's goodmask bits move with their colors."""
    lut = np.zeros(4, dtype=np.uint8)
    goodmask = np.zeros_like(s.goodmask)
    for old in (1, 2, 3):
        lut[old] = sigma[old - 1]
        bit = (s.goodmask >> np.uint32(old - 1)) & np.uint32(1)
        goodmask |= bit << np.uint32(sigma[old - 1] - 1)
    goodmask.setflags(write=False)
    return (ColoredHypergraph(h.params, lut.take(h.colors)),
            ShadowMulticoloring(s.params, s.t, goodmask))


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
    masks = gm[_pair_rank_matrix(p.n)]      # masks[v, u]: good colors of {v, u}
    np.fill_diagonal(masks, 0)              # {v, v} is no pair
    classes = []                            # per class, each vertex's members
    for bits in (0b011, 0b101, 0b110, 0b111):
        hit = masks == bits
        members = np.nonzero(hit)[1].tolist()           # row by row, ascending
        ends = np.cumsum(hit.sum(axis=1)).tolist()
        classes.append([tuple(members[a:b]) for a, b in zip([0, *ends], ends)])
    return [UProfile(v, *c) for v, c in enumerate(zip(*classes))]


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
        self.rows = [0] * self.n      # rows[v]: neighbour bitmask of v

    def add(self, u: int, v: int, tag: str, backing: tuple[int, ...] | None) -> None:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in self.prov:
            return
        self.prov[key] = (tag, backing)
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u

    def graph(self) -> SimpleGraph:
        return SimpleGraph(self.n, self.rows)


def _fan(gb: _GammaBuilder, hub: tuple[int, int], a: int, tag: str, vs) -> None:
    """Add the pair (a, v) for each v in vs, in order, whose 4-set
    hub + {a, v} has color 1, backed by that 4-set.  The colors of the
    whole fan are one gather; only the hits reach `gb.add`."""
    vs = np.asarray(vs, dtype=np.intp)
    quads = _quads(*hub, a, vs)
    hit = gb.colors[rank_rows(quads)] == 1
    for v, g in zip(vs[hit].tolist(), quads[hit].tolist()):
        gb.add(a, v, tag, tuple(g))


def _gamma_base(h: ColoredHypergraph, sel: PivotSelection,
                a_set: set[int]) -> _GammaBuilder:
    """Pair families E1-E5 around the pivot x, shared by both cases; a_set
    holds the vertices that pair with y (E4) instead of with z (E3)."""
    x, y, z = sel.x, sel.y, sel.z
    gb = _GammaBuilder(h)
    every = np.arange(h.params.n)   # ids are indices: np.delete drops vertices
    # |U23| = 1 forces |U12| <= 2 (classify_and_pivot), so case 2 fans one u12
    for u in sorted(set(sel.U12) - {y}):
        _fan(gb, (x, z), u, "E1", np.delete(every, [x, z, y, u]))
    for u in sorted(set(sel.U13) - {z}):
        _fan(gb, (x, y), u, "E2", np.delete(every, [x, y, u]))
    _fan(gb, (x, y), z, "E3", np.delete(every, [x, y, z, *a_set]))
    _fan(gb, (x, z), y, "E4", sorted(a_set - {y}))
    for v in sorted(set(sel.U13) - {z}):
        gb.add(y, v, "E5", None)
    return gb


def _reserve(h: ColoredHypergraph, contain: tuple[int, ...], count: int,
             excluded: set[tuple[int, ...]], who: str) -> list[tuple[int, ...]]:
    """First `count` color-1 edges containing `contain`, colex order, minus
    the already-consumed backings."""
    if count <= 0:
        return []
    ranks = edges_through(h.params.n, 4, [contain])[0]
    out: list[tuple[int, ...]] = []
    for rank in ranks[h.colors[ranks] == 1].tolist():
        quad = unrank_subset(rank, h.params.n, 4)
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


class _Deficient:
    """A low-degree vertex v of Gamma (None: no vertex) before any E6
    repair: its deficit to degree `target`, sorted neighbours and backings,
    and `deficit` color-1 edges through `contain` reserved past them.

    No pair needs a tag filter: only E1-E5 exist before the first repair,
    E5 pairs (y to U13 - {z}, unbacked) touch no U123 vertex and no u23,
    and E4 pairs (y to A) do not touch u23."""

    def __init__(self, h: ColoredHypergraph, gb: _GammaBuilder, v: int | None,
                 target: int, contain: tuple[int, ...], who: str):
        row = gb.rows[v] if v is not None else 0
        self.v = v
        self.deficit = max(target - row.bit_count(), 0)
        self.nbrs = [u for u in range(gb.n) if row >> u & 1]
        self.backings = {gb.prov[min(v, u), max(v, u)][1] for u in self.nbrs} - {None}
        self.reserved = _reserve(h, contain, self.deficit, self.backings, who)


def _repair(gb: _GammaBuilder, D: set[int], x: int, w: int, t: int,
            g: tuple[int, ...]) -> None:
    """Add the repair pair (w, t) backed by g; g's other vertices join D."""
    gb.add(w, t, "E6", g)
    D.update(u for u in g if u not in (x, w, t))


def _repair_min(gb: _GammaBuilder, D: set[int], x: int, w: int,
                g: tuple[int, ...], *avoid: int) -> None:
    """Repair w toward the smallest vertex of g outside x, w and `avoid`."""
    _repair(gb, D, x, w, min(u for u in g if u not in (x, w, *avoid)), g)


def _repair_two(gb: _GammaBuilder, D: set[int], x: int, w: int,
                g1: tuple[int, ...], g2: tuple[int, ...]) -> None:
    """Repair w from both edges, each toward the vertex repeated most
    across the two; the second pick avoids the first."""
    t1 = _max_repetition_pick([u for u in g1 if u not in (x, w)], [g1, g2])
    t2 = _max_repetition_pick([u for u in g2 if u not in (x, w, t1)], [g1, g2])
    _repair(gb, D, x, w, t1, g1)
    _repair(gb, D, x, w, t2, g2)


def _top_up(gb: _GammaBuilder, D: set[int], x: int, d: _Deficient, need: int,
            edges: list[tuple[int, ...]]) -> None:
    """Give d.v `need` repair pairs from `edges`.  One repair avoids d.v's
    neighbours (a vertex one short has at most one); two use the first two
    edges (a vertex two short has no neighbour)."""
    if need == 1:
        _repair_min(gb, D, x, d.v, edges[0], *d.nbrs)
    elif need == 2:
        _repair_two(gb, D, x, d.v, edges[0], edges[1])


def construct_gamma_case1(h: ColoredHypergraph,
                          sel: PivotSelection) -> GammaConstruction:
    """Auxiliary graph for an empty U23 (colors already renamed)."""
    n = h.params.n
    x, y, z = sel.x, sel.y, sel.z
    gb = _gamma_base(h, sel, set(sel.A) | set(sel.A2))

    # repair the two least-covered U123 vertices up to degree 3
    wsorted = sorted(sel.U123, key=lambda v: (gb.rows[v].bit_count(), v))
    w1, w2 = (wsorted + [None, None])[:2]
    d1 = _Deficient(h, gb, w1, 3, (x, w1), f"x,w1={w1}")
    d2 = _Deficient(h, gb, w2, 3, (x, w2), f"x,w2={w2}")
    r1, r2, W1, W2 = d1.deficit, d2.deficit, d1.reserved, d2.reserved
    D: set[int] = set()
    subcase = {"case": 1, "r1": r1, "r2": r2, "w1": w1, "w2": w2,
               "variant": "i" if r1 <= 2 else "ii", "intersecting": None}
    # the star at x gives each one pair, and w1's floor is 2; w1 has the
    # lower degree, so need2 = 2 only when need1 = 1
    need1, need2 = max(r1 - 2, 0), max(r2 - 1, 0)

    e1, common = W1, []
    if need2 == 2:
        common = [g for g in W1 if g in set(W2)]
        subcase["intersecting"] = bool(common)
    elif (need1, need2) == (1, 1):
        e1 = [g for g in W1 if g not in set(W2) | d2.backings]
        if not e1:
            raise ReservationUnsatisfiable(
                "every repair edge for w1 collides with w2's",
                detail={"w1": w1, "w2": w2})
    if common:
        g22 = next(g for g in W2 if g != common[0])
        _repair(gb, D, x, w1, w2, common[0])
        _repair(gb, D, x, w2, min(u for u in g22 if u not in (x, w1, w2)), g22)
    else:
        _top_up(gb, D, x, d1, need1, e1)
        _top_up(gb, D, x, d2, need2, W2)

    skip = ({y, z} | D) - {w1, w2}
    for v in range(n):
        if v != x and v not in skip:
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
    return GammaConstruction(graph=graph, provenance=gb.prov, w1=w1,
                             subcase=subcase,
                             degree_report=_degree_report(degs, hard, info))


def construct_gamma_case2(h: ColoredHypergraph, s: ShadowMulticoloring,
                          sel: PivotSelection, w: int | None) -> GammaConstruction:
    """Auxiliary graph for |U23| = 1 (colors already renamed).

    `w` is the extra star vertex, present only when |U123| lies in the
    near-half window; its star covers pairs that stay good in color 1.
    """
    n = h.params.n
    x, y, z, u23 = sel.x, sel.y, sel.z, sel.u23
    gb = _gamma_base(h, sel, set(sel.A))

    w1 = min(sel.U123, key=lambda v: (gb.rows[v].bit_count(), v), default=None)
    dw = _Deficient(h, gb, w1, 3, (x, w1), f"x,w1={w1}")
    du = _Deficient(h, gb, u23, 2, (u23,), f"u23={u23}")
    r, l, W, U = dw.deficit, du.deficit, dw.reserved, du.reserved
    D: set[int] = set()
    subcase = {"case": 2, "early_exit": False, "r": r, "l": l, "w1": w1,
               "u23": u23, "w": w, "intersecting": None}
    # the star at x gives w1 one pair; u23 is not on it
    need = max(r - 1, 0)

    ew, common = W, []
    if need and l == 2:
        common = ([g for g in U if g in set(W) | dw.backings] if need == 1
                  else [g for g in W if g in set(U)])
        subcase["intersecting"] = bool(common)
    elif need == 1 and l == 1:
        # keep an edge through u23 in front, repair w1 from the other
        ew = sorted(W, key=lambda g: u23 not in g)[1:]
    elif need == 2 and l == 1:
        # repairs for w1 must dodge the edge reserved for u23
        ew = sorted(W, key=lambda g: g != U[0])[1:]
    if common:
        h1 = common[0]
        g2 = next(g for g in U if g != h1)
        t1 = _max_repetition_pick([u for u in g2 if u not in (x, u23, w1)],
                                  [U[0] if need == 1 else h1, g2])
        _repair(gb, D, x, w1, u23, h1)
        if need == 2:
            _repair_min(gb, D, x, w1,
                        next(g for g in W if g != h1 and g not in set(U)))
        _repair(gb, D, x, u23, t1, g2)
    else:
        _top_up(gb, D, x, dw, need, ew)
        _top_up(gb, D, x, du, l, U)

    if w is not None:
        pr = _pair_rank_matrix(n)
        for v in range(n):
            if v not in (x, w) and s.goodmask[pr[w, v]] & 1:
                gb.add(w, v, "E7", None)
    skip = ({y, z, u23, w} | D) - {w1}
    for v in range(n):
        if v != x and v not in skip:
            gb.add(x, v, "E8", None)

    graph = gb.graph()
    degs = graph.degrees()
    hard = [("x", x, n - 11)]
    hard += [(f"U13-rest:{u}", u, n - 7) for u in sel.U13 if u != z]
    if sel.u12 is not None:
        hard.append((f"u12:{sel.u12}", sel.u12, n - 8))
    info = [("u23", u23, 2), ("z", z, n - len(sel.A) - 7),
            ("y", y, n - len(sel.B) - 9)]
    if w1 is not None:
        info.append(("w1", w1, 3))
    return GammaConstruction(graph=graph, provenance=gb.prov, w1=w1,
                             subcase=subcase,
                             degree_report=_degree_report(degs, hard, info))


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


def extend_to_berge(h: ColoredHypergraph, cycle) -> BergeCertificate:
    """Lift a Hamiltonian cycle of Gamma to a color-1 Berge-cycle on h.

    Sound: the construction's backings ({x,z,.,.}, {x,y,.,.}, a reserved
    repair edge, or an E5 or star edge) are distinct color-1 edges, one
    through each pair of the cycle.  So they are a perfect matching in the
    bipartite graph of positions x all color-1 edges through each
    position's pair, and `lift_to_berge`'s maximum matching is perfect on
    every input where that assignment exists.  ExtensionFailed (detail: the
    unmatched positions) means no system of distinct representatives exists.
    """
    try:
        return lift_to_berge(TightCycleWitness(1, tuple(cycle), 2), h)
    except MatchingIncomplete as exc:
        raise ExtensionFailed(str(exc), detail={"unmatched": exc.unmatched}) from exc


# ---------------------------------------------------------------------------
# the low-color-degree vertex route


def _order_avoiding(pool, prev, nxt, blocked):
    """Arrange `pool` so no consecutive pair (including prev->first and
    last->nxt when given) lands in `blocked`.  Smallest-first backtracking;
    None after 200000 steps or when no arrangement exists."""
    items = sorted(pool)
    k = len(items)

    def ok(a, b):
        return a is None or b is None or frozenset((a, b)) not in blocked

    seq: list[int] = []
    in_use = [False] * k
    stack: list[int] = []
    start = 0
    for _ in range(200000):
        before, last = (seq[-1] if seq else prev), len(seq) == k - 1
        j = start
        while j < k and (in_use[j] or not ok(before, items[j])
                         or last and not ok(items[j], nxt)):
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
    return None


def _mono_ham_berge_in_link(k: ColoredHypergraph, budget: int,
                            fallbacks: list) -> BergeCertificate:
    sk = build_shadow(k, 2)
    cert = shadow_guided_cert(k, sk, (1, 2), budget, fallbacks)
    if cert is not None:
        return cert
    # weaker route: a Hamiltonian cycle over the pairs covered at least
    # once, lifted by the position -> edge matching
    n1 = k.params.n
    tab2 = edge_table(n1, 2)
    covered = _at_least(k, 2, 1)
    for color in (1, 2):
        graph = SimpleGraph.from_edges(
            n1, map(tuple, tab2[covered[:, color - 1]].tolist()))
        res = find_hamiltonian_cycle(graph, budget)
        fallbacks.append({"stage": "link-weak-graph", "color": color,
                          "status": res.status})
        if res.status != "found":
            continue
        try:
            return lift_to_berge(TightCycleWitness(color, tuple(res.cycle), 2), k)
        except MatchingIncomplete:
            fallbacks.append({"stage": "link-weak-matching", "color": color,
                              "status": "incomplete"})
    raise FallbackExhausted("no monochromatic Hamiltonian cycle in the link")


def _cycle_adjacency(core: list[int]) -> set[frozenset]:
    k = len(core)
    return {frozenset((core[i], core[(i + 1) % k])) for i in range(k)}


def _lift_core(hw: ColoredHypergraph, color: int, core) -> BergeCertificate:
    """Back each consecutive pair of the cyclic `core` with its own `color`
    edge of hw; FallbackExhausted when no distinct backing edges exist."""
    try:
        return lift_to_berge(TightCycleWitness(color, tuple(core), 2), hw)
    except MatchingIncomplete as exc:
        raise FallbackExhausted(f"no distinct backing edges: {exc}") from exc


def _lemma_insert(work: np.ndarray, hw: ColoredHypergraph, v: int,
                  xs: list[int], es: list[tuple[int, ...]], chi: int,
                  detail: dict) -> BergeCertificate | None:
    """Insert v into the link cycle using a chi-colored chord at x1.

    xs is already rotated so x1 avoids the companion edge of v.  Tries an
    inner chord {x1, xk, xk'} first, then a wrap chord next to x1 on either
    side, and lifts the new core.  Returns None when no usable chord exists.
    Each family is one gather over its triples plus v, less the cycle edge
    it skips; the new core depends on the family, not on the chord.
    """
    n1 = len(xs)
    x1, ring = xs[0], np.array(xs)
    ki, kj = np.triu_indices(n1 - 3, 2)     # inner: slots 2..n1-2, gap >= 2
    for insertion, cols, e, core in (
            ("chord", (x1, ring[ki + 2], ring[kj + 2]), None, [x1, v] + xs[1:]),
            ("wrap-left", (xs[-1], x1, ring[2:n1 - 2]), es[-1], [v] + xs),
            ("wrap-right", (x1, xs[1], ring[3:n1 - 1]), es[0], [x1, v] + xs[1:])):
        ranks = rank_rows(_quads(v, *cols))
        skip = -1 if e is None else rank_subset(sorted((v, *e)))
        if ((work[ranks] == chi) & (ranks != skip)).any():
            detail["insertion"] = insertion
            return _lift_core(hw, chi, core)
    return None


def _lemma_opposite_cycle(work: np.ndarray, hw: ColoredHypergraph, v: int,
                          xs: list[int], chi: int, detail: dict) -> BergeCertificate:
    """Opposite-color cycle through x1 when no chi-chord at x1 exists.

    Core order v, y2, x_last, y4, y5, x2, y7, ..., x1 with consecutive
    pairs non-adjacent on the old cycle, closed at the hub x1.  The pools of
    y2, y4 (next to x_last) and y5, y7 (next to x2) are one gather each.
    """
    x1, x2, xlast, other = xs[0], xs[1], xs[-1], 5 - chi
    cadj = _cycle_adjacency(xs)
    banned = {xs[-2], xlast, x1, x2, xs[2]}
    cand = np.array([u for u in sorted(xs) if u not in banned], dtype=np.intp)
    pool_l, pool_r = (cand[work[rank_rows(_quads(v, a, cand, x1))] == other].tolist()
                      for a in (xlast, x2))
    try:
        y2 = pool_l[0]
        y4 = next(u for u in pool_l if u != y2 and {u, y2} not in cadj)
        y5 = next(u for u in pool_r if u not in (y2, y4) and {u, y4} not in cadj)
        y7 = next(u for u in pool_r
                  if u not in (y2, y4, y5) and {u, y5} not in cadj)
    except (IndexError, StopIteration):
        raise FallbackExhausted("insertion pools at x1 are too thin")
    tail_pool = [u for u in xs if u not in (x1, x2, xlast, y2, y4, y5, y7)]
    tail = _order_avoiding(tail_pool, y7, x1, cadj)
    if tail is None:
        raise FallbackExhausted("could not arrange the opposite-color cycle")
    ys = [v, y2, xlast, y4, y5, x2, y7] + tail + [x1]   # ys[j-1] is y_j
    cert = _close_hub_cycle(work, hw, ys, other, "opposite")
    detail["insertion"] = "opposite-cycle"
    return cert


def _close_hub_cycle(work: np.ndarray, hw: ColoredHypergraph, ys: list[int],
                     color: int, pattern: str) -> BergeCertificate:
    """Close the `color` cycle ys = v, y2, ..., y_{n-1}, hub.

    Every inner pair y_j y_{j+1} (2 <= j <= n-2) must span the `color` edge
    {v, y_j, y_{j+1}, hub}; one gather reads them all, and the first pair
    that does not is reported.  Then the lift backs every pair of ys.
    """
    v, hub = ys[0], ys[-1]
    bad = np.flatnonzero(work[rank_rows(_quads(v, ys[1:-2], ys[2:-1], hub))] != color)
    if bad.size:
        j = int(bad[0]) + 2
        raise FallbackExhausted(
            f"pair ({ys[j - 1]},{ys[j]}) breaks the {pattern} pattern")
    return _lift_core(hw, color, ys)


def _color2_spares(work: np.ndarray, v: int, u: int, verts: list[int],
                   cycle: np.ndarray) -> np.ndarray:
    """Color-2 link triples through u that are not cycle edges (`cycle`:
    their ranks plus v), as sorted rows in `itertools.combinations` order
    over the other vertices, by one gather; callers convert the rows they read."""
    rest = np.array(sorted(w for w in verts if w != u), dtype=np.intp)
    a, b = np.triu_indices(len(rest), 1)
    quads = _quads(v, u, rest[a], rest[b])
    ranks = rank_rows(quads)
    spare = quads[(work[ranks] == 2) & ~np.isin(ranks, cycle)]
    return spare[spare != v].reshape(-1, 3)


def _lemma_in_cycle(work: np.ndarray, hw: ColoredHypergraph, v: int,
                    core: list[int], cedges: list[tuple[int, ...]],
                    e_core: tuple[int, ...], detail: dict) -> BergeCertificate:
    """The companion edge of v lies on C, covering a consecutive pair."""
    j = cedges.index(e_core)
    xs = core[j:] + core[:j]
    es = cedges[j:] + cedges[:j]
    v2, v3 = xs[0], xs[1]
    cycle = rank_rows(_quads(v, *np.array(es).T))

    p2 = _color2_spares(work, v, v2, xs, cycle)
    p3 = _color2_spares(work, v, v3, xs, cycle)
    if any(g2 != g3 for g2 in p2[:2].tolist() for g3 in p3[:2].tolist()):
        detail["insertion"] = "two-chords"
        return _lift_core(hw, 2, [v2, v, v3] + xs[2:])

    # nearly every spare pair at v2 (or v3) is the other color: build the
    # cycle ending at that vertex with all edges {v, ., ., u} of color 3
    for u, e_other, spares, at in ((v2, es[-1], p2, "v2"), (v3, es[1], p3, "v3")):
        try:
            cert = _lemma_terminal_cycle(work, hw, v, xs, u, e_core, e_other,
                                         spares.tolist())
            detail["insertion"] = f"terminal-cycle-at-{at}"
            return cert
        except FallbackExhausted:
            continue
    raise FallbackExhausted("in-cycle companion: both terminal cycles failed")


def _lemma_terminal_cycle(work: np.ndarray, hw: ColoredHypergraph, v: int,
                          xs: list[int], u: int, e_core: tuple[int, ...],
                          e_other: tuple[int, ...],
                          spares: list[tuple[int, ...]]) -> BergeCertificate:
    """Color-3 cycle v, y2, ..., y_{n-1}, u closed at the hub u."""
    blocked = _cycle_adjacency(xs)
    for e in (e_core, e_other):
        pair = [w for w in e if w != u]
        if len(pair) == 2:
            blocked.add(frozenset(pair))
    for tri in spares:               # the rare color-2 leftovers through u
        blocked.add(frozenset(w for w in tri if w != u))
    pool = [w for w in xs if w != u]
    seq = _order_avoiding(pool, None, u, blocked)
    if seq is None:
        raise FallbackExhausted("could not arrange the terminal cycle")
    return _close_hub_cycle(work, hw, [v] + seq + [u], 3, "terminal")


def lemma_a_construct(h: ColoredHypergraph, vertex: int, color: int,
                      budget: int = DEFAULT_BUDGET) -> tuple[BergeCertificate, dict]:
    """Certificate for a vertex touching at most one edge of `color`.

    The coloring is renamed so the sparse color is 1 (hw, one `take`, none
    when no color moves); the route conditions read a copy (work) where the
    companion edge e_v, if any, counts as color 2.  A monochromatic
    Hamiltonian cycle of the vertex's link then absorbs the vertex back in,
    and the new core lifts on hw, so e_v never backs a pair.  Returns the
    certificate (in the original colors) plus a detail dict for the trace.
    """
    p = h.params
    if p.r != 4 or p.c != 3:
        raise InvalidParams(f"vertex route needs r=4, c=3; got r={p.r} c={p.c}")
    n = p.n
    detail: dict = {"vertex": vertex, "color": color, "fallbacks": []}

    lut = np.arange(4, dtype=np.uint8)      # color in h -> color in hw
    lut[1], lut[color] = color, 1
    ranks = edges_through(n, 4, [(vertex,)])[0]
    ones = np.flatnonzero(lut[h.colors[ranks]] == 1)
    if ones.size > 1:
        raise InvalidParams(
            f"vertex {vertex} touches {ones.size} edges of color {color}")
    if ones.size == 1:
        e_v = unrank_subset(int(ranks[ones[0]]), n, 4)
    else:
        e_v = tuple(sorted([vertex] + [a for a in range(n) if a != vertex][:3]))
    detail["companion_edge"] = list(e_v)
    if lut[h.color_of(e_v)] == 3:
        lut = np.array([0, 1, 3, 2], dtype=np.uint8)[lut]
    hw = h if lut.tolist() == [0, 1, 2, 3] else ColoredHypergraph(p, lut.take(h.colors))
    work = hw.colors.copy()
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
        cert = _lemma_in_cycle(work, hw, vertex, core, cedges, e_core, detail)
    else:
        detail["case"] = "off-cycle" if chi == 2 else "companion-free"
        rot = next(i for i in range(len(core)) if core[i] not in e_core)
        xs = core[rot:] + core[:rot]
        es = cedges[rot:] + cedges[:rot]
        cert = _lemma_insert(work, hw, vertex, xs, es, chi, detail)
        if cert is None:
            cert = _lemma_opposite_cycle(work, hw, vertex, xs, chi, detail)
    return BergeCertificate(color=lut.tolist().index(cert.color), core=cert.core,
                            edges=cert.edges, t=2), detail


# ---------------------------------------------------------------------------
# dispatcher


def shadow_guided_cert(h: ColoredHypergraph, s: ShadowMulticoloring,
                       color_order, budget: int,
                       fallbacks: list) -> BergeCertificate | None:
    """First color in `color_order` whose Hamiltonian s.t-tight shadow cycle
    lifts to a certificate, or None; each attempt is logged in `fallbacks`."""
    for color in color_order:
        res = find_mono_ham_tight_cycle(s, color, budget)
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


def r4_find(h: ColoredHypergraph, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Monochromatic Hamiltonian Berge-cycle in a 3-colored K_n^4, n >= 85.

    Returns the verified certificate and the construction trace.  Raises
    Unresolved when every applicable route exhausts its budget, and a
    ContractBreach carrying the trace so far (`exc.trace`) if the input
    falsifies a structural guarantee or a result fails its final check.
    """
    p = h.params
    if p.r != 4 or p.c != 3:
        raise InvalidParams(f"need r=4 and c=3, got r={p.r}, c={p.c}")
    if p.n < MIN_N:
        raise InvalidParams(f"need n >= {MIN_N}, got n={p.n}")
    trace = ConstructionTrace()

    def finish(cert: BergeCertificate, sigma=(1, 2, 3)) -> SearchResult:
        if sigma != (1, 2, 3):
            inv = {sigma[i]: i + 1 for i in range(3)}
            cert = BergeCertificate(color=inv[cert.color], core=cert.core,
                                    edges=cert.edges, t=2)
        err = verify_berge_certificate(cert, h)
        if err is not None:
            raise InternalError(f"certificate failed final verification: {err}")
        return SearchResult("found", cert, trace)

    try:
        # (v, c) with v on at most one edge of color c, in (v, c) order
        sparse = [(int(v), int(c) + 1) for v, c in np.argwhere(~_at_least(h, 1, 2))]
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
            cert = shadow_guided_cert(h, s, (1, 2, 3), budget, trace.fallbacks)
            if cert is None:
                raise Unresolved("single-good fallback found no cycle in budget",
                                 trace) from exc
            return finish(cert)

        bc, sel = classify_and_pivot(profiles)
        if sel is None:
            trace.branch = "B-cover"
            trace.subcase = {"B_sizes": [len(bc.B1), len(bc.B2), len(bc.B3),
                                         len(bc.B4)]}
            cert = shadow_guided_cert(h, s, (1, 2, 3), budget, trace.fallbacks)
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

        if not sel.U23:
            trace.branch = "case-1"
            gamma = construct_gamma_case1(h2, sel)
        else:
            trace.branch = "case-2"
            m123 = len(sel.U123)
            w = None
            if p.n - 2 <= 2 * m123 <= p.n - 1:
                # B1 under the new names is B_k under the old, for sigma(k) = 1
                b1 = (bc.B1, bc.B2, bc.B3)[sel.sigma.index(1)]
                outside = [u for u in sel.U123 if u not in b1]
                if not outside:
                    trace.subcase = {"case": 2, "early_exit": True}
                    cert = shadow_guided_cert(h2, s2, (2,), budget,
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
            # Chvátal's condition would make the closure complete
            # (Bondy-Chvátal), and the search then finds the cycle through
            # the closure peel whatever the budget, so a miss means it fails
            raise ContractBreach(
                "Gamma fails the degree condition and no cycle was found",
                detail={"degrees": sorted(gamma.graph.degrees())})
        cert = extend_to_berge(h2, res.cycle)
        return finish(cert, sel.sigma)
    except ContractBreach as exc:
        exc.trace = trace
        raise


from . import _export  # noqa: E402  (last: the package binds this module's public names)

_export("r4", globals())
