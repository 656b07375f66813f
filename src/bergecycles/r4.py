"""Monochromatic Hamiltonian Berge-cycles in 3-colored complete 4-graphs.

Input: a 3-coloring of K_n^4 with n >= 85, searched at t = 2.  Output: a
`SearchResult` holding a verified Berge certificate and the trace of the
construction route taken; a ContractBreach carries the trace so far.  The
dispatcher `r4_find` tries, in order:

  1. a vertex that touches at most one edge of some color -- the cycle is
     built inside that vertex's link, the only part of the coloring the
     route reads, and the vertex is re-inserted (`lemma_a_construct`);
  2. a pair with at most one good color in the pair shadow -- signalled as
     `SingleGoodEdge` and handled by `shadow_guided_cert`;
  3. every vertex lands in a dominance class (B-cover) -- one of the three
     good-pair graphs is Hamiltonian and lifts through the shadow
     (`shadow_guided_cert`, also the generic search of `find_certificate`);
  4. otherwise a pivot vertex x with small mixed classes exists.  Color
     names are permuted so |U23| <= |U12| <= |U13|; an auxiliary graph Gamma
     is built on the input in `PivotSelection.color`, the input's name for
     the color renamed 1 (`construct_gamma_case1` / `construct_gamma_case2`),
     its Hamiltonian cycle is found, and `extend_to_berge` lifts it through
     `extract.lift_to_berge`: a matching gives each pair its own edge.

Both Gamma cases share one bool adjacency scaffold for the pair families
E1-E5 (`_gamma_base`) and one repair rule: each computes how many E6 pairs
its two low-degree vertices need, before any repair, and `_top_up` adds
them; only the leaves that share or narrow reserved edges, and the star at
x, differ.  A reservation reads its edges as an `extract.CandidateRow`, in
the blocks of `core.row_blocks` the lift reads.  The vertex route reads
its link alone (`_link_ranks`), and each of its constructions only decides
a core: `_lift_core` backs its pairs, and the hub cycles share one pattern
check (`_close_hub_cycle`).  Renaming moves only names: every route reads
the input coloring, in the input's color names, and `extract.lift_to_berge`
builds and verifies each certificate once.

Everything is deterministic: vertex sets iterate in sorted order, candidate
edges scan in colex order, and ties break toward smaller ids.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    BergeCertificate,
    ColoredHypergraph,
    ContractBreach,
    InvalidParams,
    Params,
    TightCycleWitness,
    edges_through,
    rank_rows,
    unrank_rows,
    unrank_subset,
)
from .extract import CandidateRow, MatchingIncomplete, extend_tight_cycle, lift_to_berge
from .hamilton import (
    DEFAULT_BUDGET,
    SimpleGraph,
    find_hamiltonian_cycle,
    find_mono_ham_tight_cycle,
    good_pair_graph,
)
from .shadow import (
    ShadowMulticoloring,
    _at_least,
    _pack_goodmask,
    _pair_rank_matrix,
    build_shadow,
)

MIN_N = 85

_POPCOUNT3 = np.array([0, 1, 1, 2, 1, 2, 2, 3], dtype=np.uint8)


class PivotInvariantViolation(ContractBreach):
    """Pivot mixed-class sizes outside the guaranteed range."""


class ReservationUnsatisfiable(ContractBreach):
    """Not enough edges of Gamma's color sel.color to reserve repair backings."""


class ExtensionFailed(ContractBreach):
    """Gamma's Hamiltonian cycle has no distinct sel.color backing edges."""


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
    """Pivot vertex with classes already renamed so |U23| <= |U12| <= |U13|;
    Gamma reads the input coloring in `color`, the input's name for 1."""

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

    @property
    def color(self) -> int:
        return self.sigma.index(1) + 1


@dataclass(frozen=True, eq=False)
class GammaConstruction:
    """Auxiliary graph whose Hamiltonian cycles lift to sel.color Berge-cycles."""

    graph: SimpleGraph
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
        return asdict(self)


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


def _rows(*cols) -> np.ndarray:
    """Sorted rows of the sets {a, b, ...}, each column one vertex or an (m,)
    array: `rank_rows` of them makes a color scan one gather."""
    return np.sort(np.column_stack(np.broadcast_arrays(*cols)), axis=1)


def _link_ranks(v: int, rows: np.ndarray) -> np.ndarray:
    """Link ranks of sorted 3-set rows avoiding v: `edges_through` order."""
    return rank_rows(rows - (rows > v))


def relabel_colors(h: ColoredHypergraph, s: ShadowMulticoloring,
                   sigma: tuple[int, int, int]) -> tuple[ColoredHypergraph, ShadowMulticoloring]:
    """Rename colors by sigma (old i -> sigma[i-1]) in both views; the
    shadow's goodmask bits move with their colors.  No solver route calls
    it: the tests keep it as the reference renaming, and
    `perfbench/tracer.py` traces it by name."""
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


def compute_u_profiles(s: ShadowMulticoloring) -> np.ndarray:
    """Mixed-class profile of every vertex under the pair shadow, as the
    n x n uint8 matrix of pair good sets: masks[v, u] has bit i-1 set when
    color i is good on {v, u}, so row v is v's profile (U12 = 0b011,
    U13 = 0b101, U23 = 0b110, U123 = 0b111) and the diagonal is 0.

    Raises SingleGoodEdge on the lowest-ranked pair whose good set has at
    most one color -- that situation bypasses the pivot analysis entirely.
    """
    p = s.params
    if s.t != 2 or p.c != 3:
        raise InvalidParams(f"profiles need t=2, c=3; got t={s.t}, c={p.c}")
    gm = s.goodmask.astype(np.uint8)        # c = 3: every mask fits a byte
    thin = np.flatnonzero(_POPCOUNT3[gm] <= 1)
    if thin.size:
        rank = int(thin[0])
        pair = unrank_subset(rank, p.n, 2)
        raise SingleGoodEdge(pair, s.good_colors(rank))
    masks = gm[_pair_rank_matrix(p.n)]
    np.fill_diagonal(masks, 0)              # {v, v} is no pair
    return masks


def _alternating_split(vals: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Near-half partition: sorted, even indices to the first part."""
    s = sorted(vals)
    return tuple(s[0::2]), tuple(s[1::2])


def classify_and_pivot(masks: np.ndarray) -> tuple[BClassification, PivotSelection | None]:
    """Dominance classes plus, if they do not cover, the pivot selection.

    `masks` is `compute_u_profiles`' matrix, row v holding v's profile; only
    class sizes are counted per row, and members are listed for the pivot
    alone.  B_i (i = 1,2,3) holds the vertices whose mixed pairs all avoid
    color i; B_4 holds those whose U123 covers at least half the row
    count.  The pivot minimizes (smallest mixed-class size, |U123|, id) over
    uncovered vertices.  Colors are then renamed so the pivot's classes
    satisfy |U23| <= |U12| <= |U13|, preferring the identity renaming on
    ties.  Sizes outside the guaranteed range (|U23| >= 2, or |U23| = 1
    with |U12| >= 3, or U12 empty) raise PivotInvariantViolation.
    """
    k23, k12, k13, k123 = (np.count_nonzero(masks == bits, axis=1)
                           for bits in (0b110, 0b011, 0b101, 0b111))
    b = ((k12 == 0) & (k13 == 0) & (k23 > 0),          # B1
         (k12 == 0) & (k23 == 0) & (k13 > 0),          # B2
         (k13 == 0) & (k23 == 0) & (k12 > 0),          # B3
         2 * k123 >= len(masks))                       # B4
    rem = ~np.logical_or.reduce(b)
    bc = BClassification(*(tuple(np.flatnonzero(c).tolist()) for c in (*b, rem)))
    if bc.covers:
        return bc, None

    mixed = np.minimum(np.minimum(k23, k12), k13)
    cand = np.flatnonzero(rem)
    x = int(cand[np.lexsort((cand, k123[cand], mixed[cand]))[0]])
    members = lambda bits: tuple(np.flatnonzero(masks[x] == bits).tolist())  # noqa: E731
    # omits[i]: the class whose good set omits color i; old color order[k]
    # is renamed (1, 3, 2)[k], and the stable sort keeps the identity on ties
    omits = {i: members(0b111 ^ (1 << i - 1)) for i in (1, 2, 3)}
    order = sorted((1, 3, 2), key=lambda i: len(omits[i]))
    sigma = tuple((1, 3, 2)[order.index(i)] for i in (1, 2, 3))
    U23, U12, U13 = (omits[i] for i in order)
    U123 = members(0b111)
    sizes = (len(U23), len(U12), len(U13))
    if sizes[0] >= 2 or (sizes[0] == 1 and sizes[1] >= 3) or sizes[1] == 0:
        raise PivotInvariantViolation(
            f"pivot {x} has |U23|={sizes[0]}, |U12|={sizes[1]}, |U13|={sizes[2]}",
            detail={"x": x, "sizes": {"U23": sizes[0], "U12": sizes[1],
                                      "U13": sizes[2], "U123": len(U123)},
                    "sigma": list(sigma)})
    a, bpart = _alternating_split(U123)
    a2, b2 = _alternating_split(U12)
    sel = PivotSelection(
        x=x, pi=sizes[0], sigma=sigma, U12=U12, U13=U13, U23=U23, U123=U123,
        y=U12[0], z=U13[0], u23=(U23[0] if U23 else None),
        u12=(U12[1] if len(U12) > 1 else None), A=a, B=bpart, A2=a2, B2=b2)
    return bc, sel


# ---------------------------------------------------------------------------
# Gamma assembly


def _gamma_base(h: ColoredHypergraph, sel: PivotSelection,
                a_set: set[int]) -> np.ndarray:
    """Pair families E1-E5 around the pivot x, shared by both cases, as an
    n x n bool adjacency; a_set holds the vertices that pair with y (E4)
    instead of with z (E3).  A fan joins each center u to the candidates v
    whose 4-set hub + {u, v} has Gamma's color sel.color: one gather per
    family, over every (center, candidate) pair."""
    x, y, z, n = sel.x, sel.y, sel.z, h.params.n
    adj = np.zeros((n, n), dtype=bool)
    every = np.arange(n)
    u13 = [u for u in sel.U13 if u != z]
    # |U23| = 1 forces |U12| <= 2 (classify_and_pivot), so case 2 fans one u12
    for hub, centers, cands, drop in (
            ((x, z), [u for u in sel.U12 if u != y], every, [x, z, y]),    # E1
            ((x, y), u13, every, [x, y]),                                  # E2
            ((x, y), [z], every, [x, y, z, *a_set]),                       # E3
            ((x, z), [y], np.array(sorted(a_set - {y}), dtype=np.intp), [])):  # E4
        uu = np.repeat(np.array(centers, dtype=np.intp), len(cands))
        vv = np.tile(cands, len(centers))
        keep = (uu != vv) & ~np.isin(vv, drop)
        uu, vv = uu[keep], vv[keep]
        hit = h.colors[rank_rows(_rows(*hub, uu, vv))] == sel.color
        adj[uu[hit], vv[hit]] = True
    adj[y, u13] = True                                                     # E5
    adj |= adj.T
    return adj


def _reserve(h: ColoredHypergraph, color: int, contain: tuple[int, ...], count: int,
             excluded: set[tuple[int, ...]], who: str) -> list[tuple[int, ...]]:
    """First `count` `color` edges containing `contain`, colex order, minus
    the already-consumed backings.  They are read from a `CandidateRow` of
    `contain` started empty, so its `core.row_blocks` blocks are read, and
    each unranked at once, in order up to the one holding the last pick."""
    row = CandidateRow([], 0, np.asarray(contain), h, color)
    out, done = [], 0
    while len(out) < count and row._widen():
        block, done = unrank_rows(row.ranks[done:], h.params.n, 4), len(row.ranks)
        out += [g for g in map(tuple, block.tolist()) if g not in excluded][:count - len(out)]
    if len(out) >= count:
        return out
    raise ReservationUnsatisfiable(
        f"needed {count} color-1 edges around {who}, found {len(out)}",
        detail={"contain": list(contain), "needed": count, "found": len(out)})


def _max_repetition_pick(candidates: list[int], pools: list[tuple[int, ...]]) -> int:
    """Candidate occurring most often across the pools; max() keeps the
    first maximum, so sorting first breaks ties toward smaller ids."""
    return max(sorted(candidates), key=lambda v: sum(v in g for g in pools))


def _backing(sel: PivotSelection, u: int, v: int) -> tuple[int, ...]:
    """The sel.color edge behind the pair (u, v) of a U123 vertex or u23 v,
    before any E6 repair.  No fan is centred at v, and E5 (y to U13 - {z})
    does not touch it, so u is the center of the one fan that added the
    pair: its hub is (x, z) for u in U12 and (x, y) for u in U13 (y = min
    U12 and z = min U13 included)."""
    return tuple(sorted((sel.x, u, v, sel.z if u in sel.U12 else sel.y)))


class _Deficient:
    """A low-degree vertex v of Gamma (None: no vertex) before any E6
    repair: its deficit to degree `target`, sorted neighbours and backings,
    and `deficit` sel.color edges through `contain` reserved past them."""

    def __init__(self, h: ColoredHypergraph, adj: np.ndarray, sel: PivotSelection,
                 v: int | None, target: int, contain: tuple[int, ...], who: str):
        self.v = v
        self.nbrs = [] if v is None else np.flatnonzero(adj[v]).tolist()
        self.deficit = max(target - len(self.nbrs), 0)
        self.backings = {_backing(sel, u, v) for u in self.nbrs}
        self.reserved = _reserve(h, sel.color, contain, self.deficit, self.backings, who)


def _repair(adj: np.ndarray, D: set[int], x: int, w: int, t: int,
            g: tuple[int, ...]) -> None:
    """Add the repair pair (w, t) backed by g; g's other vertices join D."""
    adj[w, t] = adj[t, w] = True
    D.update(u for u in g if u not in (x, w, t))


def _repair_min(adj: np.ndarray, D: set[int], x: int, w: int,
                g: tuple[int, ...], *avoid: int) -> None:
    """Repair w toward the smallest vertex of g outside x, w and `avoid`."""
    _repair(adj, D, x, w, min(u for u in g if u not in (x, w, *avoid)), g)


def _repair_two(adj: np.ndarray, D: set[int], x: int, w: int,
                g1: tuple[int, ...], g2: tuple[int, ...]) -> None:
    """Repair w from both edges, each toward the vertex repeated most
    across the two; the second pick avoids the first."""
    t1 = _max_repetition_pick([u for u in g1 if u not in (x, w)], [g1, g2])
    t2 = _max_repetition_pick([u for u in g2 if u not in (x, w, t1)], [g1, g2])
    _repair(adj, D, x, w, t1, g1)
    _repair(adj, D, x, w, t2, g2)


def _top_up(adj: np.ndarray, D: set[int], x: int, d: _Deficient, need: int,
            edges: list[tuple[int, ...]]) -> None:
    """Give d.v `need` repair pairs from `edges`.  One repair avoids d.v's
    neighbours (a vertex one short has at most one); two use the first two
    edges (a vertex two short has no neighbour)."""
    if need == 1:
        _repair_min(adj, D, x, d.v, edges[0], *d.nbrs)
    elif need == 2:
        _repair_two(adj, D, x, d.v, edges[0], edges[1])


def _star(adj: np.ndarray, c: int, skip: set) -> None:
    """Join c to every vertex outside `skip` (None in it stands for none)."""
    on = ~np.isin(np.arange(len(adj)), [*skip - {None}])
    on[c] = False
    adj[c, on] = adj[on, c] = True


def construct_gamma_case1(h: ColoredHypergraph,
                          sel: PivotSelection) -> GammaConstruction:
    """Auxiliary graph for an empty U23, on the input h in sel.color."""
    n = h.params.n
    x, y, z = sel.x, sel.y, sel.z
    adj = _gamma_base(h, sel, set(sel.A) | set(sel.A2))

    # repair the two least-covered U123 vertices up to degree 3
    wsorted = sorted(sel.U123, key=lambda v: (adj[v].sum(), v))
    w1, w2 = (wsorted + [None, None])[:2]
    d1 = _Deficient(h, adj, sel, w1, 3, (x, w1), f"x,w1={w1}")
    d2 = _Deficient(h, adj, sel, w2, 3, (x, w2), f"x,w2={w2}")
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
        _repair(adj, D, x, w1, w2, common[0])
        _repair(adj, D, x, w2, min(u for u in g22 if u not in (x, w1, w2)), g22)
    else:
        _top_up(adj, D, x, d1, need1, e1)
        _top_up(adj, D, x, d2, need2, W2)

    _star(adj, x, ({y, z} | D) - {w1, w2})                              # E7

    graph = SimpleGraph.from_adjacency(adj)
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
    return GammaConstruction(graph=graph, subcase=subcase,
                             degree_report=_degree_report(degs, hard, info))


def construct_gamma_case2(h: ColoredHypergraph, s: ShadowMulticoloring,
                          sel: PivotSelection, w: int | None) -> GammaConstruction:
    """Auxiliary graph for |U23| = 1, on the input h and s in sel.color.

    `w` is the extra star vertex, present only when |U123| lies in the
    near-half window; its star covers pairs that stay good in sel.color.
    """
    n = h.params.n
    x, y, z, u23 = sel.x, sel.y, sel.z, sel.u23
    adj = _gamma_base(h, sel, set(sel.A))

    w1 = min(sel.U123, key=lambda v: (adj[v].sum(), v), default=None)
    dw = _Deficient(h, adj, sel, w1, 3, (x, w1), f"x,w1={w1}")
    du = _Deficient(h, adj, sel, u23, 2, (u23,), f"u23={u23}")
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
        _repair(adj, D, x, w1, u23, h1)
        if need == 2:
            _repair_min(adj, D, x, w1,
                        next(g for g in W if g != h1 and g not in set(U)))
        _repair(adj, D, x, u23, t1, g2)
    else:
        _top_up(adj, D, x, dw, need, ew)
        _top_up(adj, D, x, du, l, U)

    if w is not None:                             # E7: sel.color good at w
        on = ((s.goodmask[_pair_rank_matrix(n)[w]] >> (sel.color - 1)) & 1).astype(bool)
        on[[x, w]] = False
        adj[w, on] = adj[on, w] = True
    _star(adj, x, ({y, z, u23, w} | D) - {w1})                         # E8

    graph = SimpleGraph.from_adjacency(adj)
    degs = graph.degrees()
    hard = [("x", x, n - 11)]
    hard += [(f"U13-rest:{u}", u, n - 7) for u in sel.U13 if u != z]
    if sel.u12 is not None:
        hard.append((f"u12:{sel.u12}", sel.u12, n - 8))
    info = [("u23", u23, 2), ("z", z, n - len(sel.A) - 7),
            ("y", y, n - len(sel.B) - 9)]
    if w1 is not None:
        info.append(("w1", w1, 3))
    return GammaConstruction(graph=graph, subcase=subcase,
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


def extend_to_berge(h: ColoredHypergraph, cycle, color: int) -> BergeCertificate:
    """Lift a Hamiltonian cycle of Gamma to a Berge-cycle of the input h in
    `color`, the input's name for the color Gamma calls 1.

    Sound: the construction's backings ({x,z,.,.}, {x,y,.,.}, a reserved
    repair edge, or an E5 or star edge) are distinct `color` edges, one
    through each pair of the cycle.  So they are a perfect matching in the
    bipartite graph of positions x all `color` edges through each
    position's pair, and `lift_to_berge`'s maximum matching is perfect on
    every input where that assignment exists.  ExtensionFailed (detail: the
    unmatched positions) means no system of distinct representatives exists.
    """
    try:
        return lift_to_berge(TightCycleWitness(color, tuple(cycle), 2), h)
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
    covered = ShadowMulticoloring(k.params, 2, _pack_goodmask(_at_least(k, 2, 1)))
    for color in (1, 2):
        res = find_hamiltonian_cycle(good_pair_graph(covered, color), budget)
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


def _lift_core(h: ColoredHypergraph, color: int, core) -> BergeCertificate:
    """Back each consecutive pair of the cyclic `core` with its own `color`
    edge of h; FallbackExhausted when no distinct backing edges exist."""
    try:
        return lift_to_berge(TightCycleWitness(color, tuple(core), 2), h)
    except MatchingIncomplete as exc:
        raise FallbackExhausted(f"no distinct backing edges: {exc}") from exc


def _lemma_insert(link: np.ndarray, lift, v: int,
                  xs: list[int], es: list[tuple[int, ...]], chi: int,
                  detail: dict) -> BergeCertificate | None:
    """Insert v into the link cycle using a chi-colored chord at x1.

    xs is already rotated so x1 avoids the companion edge of v.  Tries an
    inner chord {x1, xk, xk'} first, then a wrap chord next to x1 on either
    side, and lifts the new core.  Returns None when no usable chord exists.
    Each family is one gather over its triples in v's link, less the cycle
    edge it skips; the new core depends on the family, not on the chord.
    """
    n1 = len(xs)
    x1, ring = xs[0], np.array(xs)
    ki, kj = np.triu_indices(n1 - 3, 2)     # inner: slots 2..n1-2, gap >= 2
    for insertion, cols, e, core in (
            ("chord", (x1, ring[ki + 2], ring[kj + 2]), None, [x1, v] + xs[1:]),
            ("wrap-left", (xs[-1], x1, ring[2:n1 - 2]), es[-1], [v] + xs),
            ("wrap-right", (x1, xs[1], ring[3:n1 - 1]), es[0], [x1, v] + xs[1:])):
        ranks = _link_ranks(v, _rows(*cols))
        skip = -1 if e is None else _link_ranks(v, np.array([e]))[0]
        if ((link[ranks] == chi) & (ranks != skip)).any():
            detail["insertion"] = insertion
            return lift(chi, core)
    return None


def _lemma_opposite_cycle(link: np.ndarray, lift, v: int, xs: list[int],
                          chi: int, detail: dict) -> BergeCertificate:
    """Opposite-color cycle through x1 when no chi-chord at x1 exists.

    Core order v, y2, x_last, y4, y5, x2, y7, ..., x1 with consecutive
    pairs non-adjacent on the old cycle, closed at the hub x1.  The pools of
    y2, y4 (next to x_last) and y5, y7 (next to x2) are one gather each.
    """
    x1, x2, xlast, other = xs[0], xs[1], xs[-1], 5 - chi
    cadj = _cycle_adjacency(xs)
    banned = {xs[-2], xlast, x1, x2, xs[2]}
    cand = np.array([u for u in sorted(xs) if u not in banned], dtype=np.intp)
    pool_l, pool_r = (cand[link[_link_ranks(v, _rows(a, cand, x1))] == other].tolist()
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
    cert = _close_hub_cycle(link, lift, ys, other, "opposite")
    detail["insertion"] = "opposite-cycle"
    return cert


def _close_hub_cycle(link: np.ndarray, lift, ys: list[int], color: int,
                     pattern: str) -> BergeCertificate:
    """Close the `color` cycle ys = v, y2, ..., y_{n-1}, hub.

    Every inner pair y_j y_{j+1} (2 <= j <= n-2) must span the `color` edge
    {v, y_j, y_{j+1}, hub}; one gather reads them all, and the first pair
    that does not is reported.  Then `lift` backs every pair of ys.
    """
    v, hub = ys[0], ys[-1]
    bad = np.flatnonzero(link[_link_ranks(v, _rows(ys[1:-2], ys[2:-1], hub))] != color)
    if bad.size:
        j = int(bad[0]) + 2
        raise FallbackExhausted(
            f"pair ({ys[j - 1]},{ys[j]}) breaks the {pattern} pattern")
    return lift(color, ys)


def _color2_spares(link: np.ndarray, v: int, u: int, verts: list[int],
                   cycle: np.ndarray) -> np.ndarray:
    """Color-2 link triples through u that are not cycle edges (`cycle`:
    their link ranks), as sorted rows in `itertools.combinations` order
    over the other vertices, by one gather; callers convert the rows they read."""
    rest = np.array(sorted(w for w in verts if w != u), dtype=np.intp)
    a, b = np.triu_indices(len(rest), 1)
    tris = _rows(u, rest[a], rest[b])
    ranks = _link_ranks(v, tris)
    return tris[(link[ranks] == 2) & ~np.isin(ranks, cycle)]


def _lemma_in_cycle(link: np.ndarray, lift, v: int,
                    core: list[int], cedges: list[tuple[int, ...]],
                    e_core: tuple[int, ...], detail: dict) -> BergeCertificate:
    """The companion edge of v lies on C, covering a consecutive pair."""
    j = cedges.index(e_core)
    xs = core[j:] + core[:j]
    es = cedges[j:] + cedges[:j]
    v2, v3 = xs[0], xs[1]
    cycle = _link_ranks(v, np.array(es))

    p2 = _color2_spares(link, v, v2, xs, cycle)
    p3 = _color2_spares(link, v, v3, xs, cycle)
    if any(g2 != g3 for g2 in p2[:2].tolist() for g3 in p3[:2].tolist()):
        detail["insertion"] = "two-chords"
        return lift(2, [v2, v, v3] + xs[2:])

    # nearly every spare pair at v2 (or v3) is the other color: build the
    # cycle ending at that vertex with all edges {v, ., ., u} of color 3
    for u, e_other, spares, at in ((v2, es[-1], p2, "v2"), (v3, es[1], p3, "v3")):
        try:
            cert = _lemma_terminal_cycle(link, lift, v, xs, u, e_core, e_other,
                                         spares.tolist())
            detail["insertion"] = f"terminal-cycle-at-{at}"
            return cert
        except FallbackExhausted:
            continue
    raise FallbackExhausted("in-cycle companion: both terminal cycles failed")


def _lemma_terminal_cycle(link: np.ndarray, lift, v: int,
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
    return _close_hub_cycle(link, lift, [v] + seq + [u], 3, "terminal")


def lemma_a_construct(h: ColoredHypergraph, vertex: int, color: int,
                      budget: int = DEFAULT_BUDGET) -> tuple[BergeCertificate, dict]:
    """Certificate for a vertex touching at most one edge of `color`.

    Every route condition reads an edge through the vertex, so the route
    reads only its link: the `edges_through` colors renamed so the sparse
    color is 1, with the companion edge e_v (its one edge, else the first)
    counted as 2.  A monochromatic Hamiltonian cycle of the link, a
    2-colored K_{n-1}^3, absorbs the vertex back in, and the new core lifts
    on h in the input's name for the work color, so e_v never backs a pair.
    Returns the certificate, in the input's colors, and a trace detail dict.
    """
    p = h.params
    if (p.r, p.t, p.c) != (4, 2, 3):
        raise InvalidParams(
            f"vertex route needs r=4, t=2, c=3; got r={p.r} t={p.t} c={p.c}")
    n = p.n
    detail: dict = {"vertex": vertex, "color": color, "fallbacks": []}

    lut = np.arange(4, dtype=np.uint8)      # color in h -> work color
    lut[1], lut[color] = color, 1
    ranks = edges_through(n, 4, [(vertex,)])[0]
    ones = np.flatnonzero(h.colors[ranks] == color)
    if ones.size > 1:
        raise InvalidParams(
            f"vertex {vertex} touches {ones.size} edges of color {color}")
    at_e = int(ones[0]) if ones.size else 0     # e_v's index in the link
    e_v = unrank_subset(int(ranks[at_e]), n, 4)
    detail["companion_edge"] = list(e_v)
    if lut[h.colors[ranks[at_e]]] == 3:     # e_v counts as 2: swap 2 and 3
        lut = np.array([0, 1, 3, 2], dtype=np.uint8)[lut]
    link = lut[h.colors[ranks]]
    link[at_e] = 2
    back = lut.tolist()
    lift = lambda c, core: _lift_core(h, back.index(c), core)  # noqa: E731

    # the link of v: the edges through v, minus v, in the colex order of
    # the other vertices; work colors {2,3} become link colors {1,2}
    others = [u for u in range(n) if u != vertex]
    k = ColoredHypergraph(Params(n=n - 1, r=3, t=2, c=2), link - 1)
    link_cert = _mono_ham_berge_in_link(k, budget, detail["fallbacks"])
    core = [others[i] for i in link_cert.core]
    cedges = [tuple(sorted(others[i] for i in e)) for e in link_cert.edges]
    chi = link_cert.color + 1        # link colors {1,2} are work colors {2,3}
    e_core = tuple(a for a in e_v if a != vertex)
    detail["cycle_color"] = chi

    if chi == 2 and frozenset(e_core) in set(map(frozenset, cedges)):
        detail["case"] = "in-cycle"
        cert = _lemma_in_cycle(link, lift, vertex, core, cedges, e_core, detail)
    else:
        detail["case"] = "off-cycle" if chi == 2 else "companion-free"
        rot = next(i for i in range(len(core)) if core[i] not in e_core)
        xs = core[rot:] + core[:rot]
        es = cedges[rot:] + cedges[:rot]
        cert = _lemma_insert(link, lift, vertex, xs, es, chi, detail)
        if cert is None:
            cert = _lemma_opposite_cycle(link, lift, vertex, xs, chi, detail)
    return cert, detail


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


def _shadow_exit(h: ColoredHypergraph, s: ShadowMulticoloring, color_order,
                 budget: int, trace: ConstructionTrace, reason: str) -> SearchResult:
    """A branch that ends on the shadow route: its certificate, or Unresolved
    with `reason` also logged as the trace's last step."""
    cert = shadow_guided_cert(h, s, color_order, budget, trace.fallbacks)
    if cert is None:
        trace.steps.append({"step": "unresolved", "reason": reason})
        raise Unresolved(reason, trace)
    return SearchResult("found", cert, trace)


def r4_find(h: ColoredHypergraph, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Monochromatic Hamiltonian Berge-cycle in a 3-colored K_n^4, n >= 85.

    Returns the certificate and the construction trace.  Every route lifts
    its cycle on h itself, in the input's color names, so the certificate
    is the one `extract.lift_to_berge` built and verified against h.
    Raises Unresolved when every applicable route exhausts its budget, and
    a ContractBreach carrying the trace so far (`exc.trace`) if the input
    falsifies a structural guarantee or the lift fails its check.  Every
    route builds a 2-tight certificate, so a coloring searched at t != 2
    raises InvalidParams, as does a negative budget; budget 0 allows no
    expansion.
    """
    p = h.params
    if p.r != 4 or p.c != 3:
        raise InvalidParams(f"need r=4 and c=3, got r={p.r}, c={p.c}")
    if p.t != 2:
        raise InvalidParams(f"need t=2, got t={p.t}")
    if p.n < MIN_N:
        raise InvalidParams(f"need n >= {MIN_N}, got n={p.n}")
    if budget < 0:
        raise InvalidParams(f"need budget >= 0, got budget={budget}")
    trace = ConstructionTrace()

    try:
        # (v, c) with v on at most one edge of color c, in (v, c) order
        sparse = [(int(v), int(c) + 1) for v, c in np.argwhere(~_at_least(h, 1, 2))]
        for v, c in sparse:
            trace.steps.append({"step": "sparse-vertex", "vertex": v, "color": c})
            try:
                cert, detail = lemma_a_construct(h, v, c, budget)
                trace.branch = "lemma-3.1"
                trace.subcase = detail
                return SearchResult("found", cert, trace)
            except FallbackExhausted as exc:
                trace.fallbacks.append({"stage": "sparse-vertex", "vertex": v,
                                        "color": c, "status": str(exc)})

        s = build_shadow(h, 2)
        try:
            masks = compute_u_profiles(s)
        except SingleGoodEdge as exc:
            trace.branch = "single-good-fallback"
            trace.subcase = {"pair": list(exc.pair), "goodset": list(exc.goodset)}
            return _shadow_exit(h, s, (1, 2, 3), budget, trace,
                                "single-good fallback found no cycle in budget")

        bc, sel = classify_and_pivot(masks)
        if sel is None:
            trace.branch = "B-cover"
            trace.subcase = {"B_sizes": [len(bc.B1), len(bc.B2), len(bc.B3),
                                         len(bc.B4)]}
            return _shadow_exit(h, s, (1, 2, 3), budget, trace,
                                "B-cover search found no cycle in budget")

        trace.pivot = {"x": sel.x, "pi": sel.pi, "sigma": list(sel.sigma),
                       "sizes": {"U23": len(sel.U23), "U12": len(sel.U12),
                                 "U13": len(sel.U13), "U123": len(sel.U123)}}
        if sel.sigma != (1, 2, 3):
            trace.steps.append({"step": "color-relabel-reduction",
                                "sigma": list(sel.sigma)})

        if not sel.U23:
            trace.branch = "case-1"
            gamma = construct_gamma_case1(h, sel)
        else:
            trace.branch = "case-2"
            m123 = len(sel.U123)
            w = None
            if p.n - 2 <= 2 * m123 <= p.n - 1:
                # B1 under the new names is B_k under the old, k = sel.color
                b1 = (bc.B1, bc.B2, bc.B3)[sel.color - 1]
                outside = [u for u in sel.U123 if u not in b1]
                if not outside:
                    trace.subcase = {"case": 2, "early_exit": True}
                    return _shadow_exit(
                        h, s, (sel.sigma.index(2) + 1,), budget, trace,
                        "early-exit good graph was not Hamiltonian in budget")
                w = outside[0]
            gamma = construct_gamma_case2(h, s, sel, w)
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
        cert = extend_to_berge(h, res.cycle, sel.color)
        return SearchResult("found", cert, trace)
    except ContractBreach as exc:
        exc.trace = trace
        raise


from . import _export  # noqa: E402  (last: the package binds this module's public names)

_export("r4", globals())
