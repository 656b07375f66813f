import dataclasses
import functools
import hashlib
import itertools
import json
import sys

import numpy as np
import pytest

from bergecycles import extract, r4
from bergecycles.core import (
    ColoredHypergraph,
    InvalidParams,
    Params,
    binom,
    edge_table,
    edges_through,
    random_coloring,
    rank_subset,
    unrank_subset,
    verify_berge_certificate,
)
from bergecycles.extract import MatchingIncomplete
from bergecycles.hamilton import SimpleGraph
from bergecycles.harness import find_certificate, structured_colorings
from bergecycles.r4 import (
    BClassification,
    ExtensionFailed,
    FallbackExhausted,
    PivotInvariantViolation,
    PivotSelection,
    ReservationUnsatisfiable,
    SingleGoodEdge,
    Unresolved,
    UProfile,
    _alternating_split,
    _lemma_terminal_cycle,
    _repair,
    classify_and_pivot,
    compute_u_profiles,
    construct_gamma_case1,
    construct_gamma_case2,
    r4_find,
    relabel_colors,
)
from bergecycles.shadow import build_shadow
from test_shadow import _census_fixtures


def u_profile(**kw):
    return next(structured_colorings("u-profile", kw))


def found(h, budget=None):
    res = r4_find(h) if budget is None else r4_find(h, budget)
    assert verify_berge_certificate(res.certificate, h) is None
    return res


# ---------------------------------------------------------------------------
# profile computation


def test_profiles_partition_the_other_vertices():
    h = random_coloring(Params(n=10, r=4, t=2, c=3), seed=2)
    s = build_shadow(h, 2)
    for prof in compute_u_profiles(s):
        parts = (set(prof.U12) | set(prof.U13) | set(prof.U23)
                 | set(prof.U123))
        assert parts == set(range(10)) - {prof.vertex}
        # classes agree with a per-pair recount straight off the shadow
        for u in prof.U12:
            pr = rank_subset(tuple(sorted((prof.vertex, u))), n=10)
            assert s.good_colors(pr) == (1, 2)
        for u in prof.U123:
            pr = rank_subset(tuple(sorted((prof.vertex, u))), n=10)
            assert s.good_colors(pr) == (1, 2, 3)


def loop_profiles(s):
    """compute_u_profiles's per-vertex loop, kept as the reference."""
    n = s.params.n
    gm = s.goodmask.astype(np.int64)
    ranks = r4._pair_rank_matrix(n)
    profiles = []
    for v in range(n):
        others = np.concatenate([np.arange(v), np.arange(v + 1, n)])
        masks = gm[ranks[v, others]]
        profiles.append(UProfile(
            vertex=v,
            U12=tuple(others[masks == 0b011].tolist()),
            U13=tuple(others[masks == 0b101].tolist()),
            U23=tuple(others[masks == 0b110].tolist()),
            U123=tuple(others[masks == 0b111].tolist()),
        ))
    return profiles


@pytest.mark.parametrize("label,make", [
    *_census_fixtures(),
    *[(f"random seed={seed}",
       lambda seed=seed: random_coloring(Params(n=85, r=4, t=2, c=3), seed=seed))
      for seed in range(5)],
])
def test_profiles_equal_the_per_vertex_loop(label, make):
    s = build_shadow(make(), 2)
    if (r4._POPCOUNT3[s.goodmask] <= 1).any():
        # a pair good in at most one color: no profile is built (pair-lock,
        # near-mono)
        with pytest.raises(SingleGoodEdge):
            compute_u_profiles(s)
        return
    assert compute_u_profiles(s) == loop_profiles(s)


@pytest.mark.parametrize("pair_colors,full", [((1, 2), "U12"), ((1, 3), "U13"),
                                               ((2, 3), "U23")])
def test_a_full_mixed_class_lists_every_other_vertex(pair_colors, full):
    # two colors on K_12^4: each pair lies in 45 edges and is good in both,
    # so one mixed class holds every pair and the others none
    p = Params(n=12, r=4, t=2, c=3)
    rng = np.random.default_rng(3)
    h = ColoredHypergraph(p, rng.choice(np.array(pair_colors, dtype=np.uint8),
                                        size=p.num_edges))
    s = build_shadow(h, 2)
    profiles = compute_u_profiles(s)
    assert profiles == loop_profiles(s)
    for prof in profiles:
        assert getattr(prof, full) == tuple(u for u in range(12) if u != prof.vertex)


def test_thin_pair_interrupts_profiles():
    p = Params(n=10, r=4, t=2, c=3)
    colors = random_coloring(p, seed=0).colors.copy()
    from bergecycles.core import edge_table
    tab = edge_table(10, 4)
    hit = (tab == 0).any(axis=1) & (tab == 1).any(axis=1)
    colors[hit] = 2
    s = build_shadow(ColoredHypergraph(p, colors), 2)
    with pytest.raises(SingleGoodEdge) as exc:
        compute_u_profiles(s)
    assert exc.value.pair == (0, 1)
    assert exc.value.goodset == (2,)


# ---------------------------------------------------------------------------
# classification and pivoting (synthetic profiles)


def prof(v, u12=(), u13=(), u23=(), u123=()):
    return UProfile(vertex=v, U12=tuple(u12), U13=tuple(u13),
                    U23=tuple(u23), U123=tuple(u123))


def test_b_classes_and_cover():
    n = 6
    profiles = [prof(v, u123=tuple(range(3))) for v in range(n)]
    cls, sel = classify_and_pivot(profiles)
    assert cls.covers and sel is None
    assert cls.B4 == tuple(range(n))


def test_b1_requires_both_mixed_classes_empty():
    profiles = [prof(0, u23=(1,)),                    # B1
                prof(1, u13=(2,)),                    # B2
                prof(2, u12=(3,)),                    # B3
                prof(3, u12=(1,), u23=(2,))]          # none
    cls, sel = classify_and_pivot(profiles)
    assert cls.B1 == (0,) and cls.B2 == (1,) and cls.B3 == (2,)
    assert cls.remainder == (3,)
    assert sel is not None and sel.x == 3


def test_pivot_minimizes_smallest_mixed_class_then_u123():
    profiles = [
        prof(0, u12=(1, 2), u13=(3, 4), u23=(), u123=(5, 6)),
        prof(1, u12=(0,), u13=(2, 3, 4, 5), u23=(), u123=(6,)),
        prof(2, u12=(0, 1, 3), u13=(4, 5), u23=(), u123=()),
    ]
    # all uncovered; vertices 0 and 2 have min mixed size 0 via U23, tie on
    # |U123| broken toward vertex 2
    cls, sel = classify_and_pivot(profiles)
    assert sel.x == 2


def test_pivot_renames_colors_to_canonical_order():
    # |U23|=1, |U12|=4, |U13|=1 forces swapping colors 2 and 3
    profiles = [prof(0, u12=(1, 2, 3, 4), u13=(5,), u23=(6,),
                     u123=tuple())]
    cls, sel = classify_and_pivot(profiles)
    assert sel.sigma == (1, 3, 2)
    assert sel.U12 == (5,) and sel.U13 == (1, 2, 3, 4)


def test_pivot_identity_on_ties():
    profiles = [prof(0, u12=(1,), u13=(2,), u23=(), u123=())]
    _, sel = classify_and_pivot(profiles)
    assert sel.sigma == (1, 2, 3)


def test_pivot_invariant_violations():
    # renaming sorts the class sizes, so only size multisets that stay bad
    # after sorting can raise: min >= 2, or min = 1 with the middle >= 3
    with pytest.raises(PivotInvariantViolation):
        classify_and_pivot([prof(0, u12=(1, 2), u13=(3, 4), u23=(5, 6))])
    with pytest.raises(PivotInvariantViolation):
        classify_and_pivot(
            [prof(0, u12=(1, 2, 3), u13=(4, 5, 6, 7), u23=(8,))])


def test_pivot_relabel_repairs_a_transposed_profile():
    # sizes (2,1,1) are out of order but fixable by renaming colors
    _, sel = classify_and_pivot([prof(0, u12=(1,), u13=(2,), u23=(3, 4))])
    assert sel.sigma != (1, 2, 3)
    assert (len(sel.U23), len(sel.U12), len(sel.U13)) == (1, 1, 2)


def _random_profiles(rng):
    """Profiles on 4..8 vertices; each vertex spreads the others over a
    random nonempty set of its four classes, so B1-B3 are often nonempty."""
    n = int(rng.integers(4, 9))
    profiles = []
    for v in range(n):
        allowed = [k for k in range(4) if rng.random() < 0.4] or [3]
        classes: list[list[int]] = [[], [], [], []]
        for u in range(n):
            if u != v:
                classes[int(rng.choice(allowed))].append(u)
        profiles.append(prof(v, *classes))
    return profiles


def ref_relabel_profile(p, sigma):
    """The profile with colors renamed by sigma (old i -> sigma[i-1]): the
    reference for the classes the pivot names."""
    classes = {tuple(sorted((sigma[0], sigma[1]))): p.U12,
               tuple(sorted((sigma[0], sigma[2]))): p.U13,
               tuple(sorted((sigma[1], sigma[2]))): p.U23}
    return UProfile(vertex=p.vertex, U12=classes[(1, 2)], U13=classes[(1, 3)],
                    U23=classes[(2, 3)], U123=p.U123)


@pytest.mark.parametrize("sigma", list(itertools.permutations((1, 2, 3))))
def test_b1_after_renaming_is_the_b_class_of_the_color_renamed_to_1(sigma):
    # r4_find's half-cover window reads B1 under the pivot's renaming as
    # B_k with sigma(k) = 1; the reference relabels every profile first.
    # The pivot's classes are its profile renamed by its own sigma, and
    # its color is the one renamed 1
    rng = np.random.default_rng(17)
    checked = nonempty = pivots = 0
    for _ in range(300):
        profiles = _random_profiles(rng)
        try:
            bc, sel = classify_and_pivot(profiles)
        except PivotInvariantViolation:
            continue
        relabeled = (ref_relabel_profile(q, sigma) for q in profiles)
        want = {q.vertex for q in relabeled if not q.U12 and not q.U13 and q.U23}
        assert set((bc.B1, bc.B2, bc.B3)[sigma.index(1)]) == want
        checked += 1
        nonempty += bool(want)
        if sel is not None:
            rp = ref_relabel_profile(profiles[sel.x], sel.sigma)
            assert (sel.U12, sel.U13, sel.U23, sel.U123) == tuple(
                tuple(sorted(c)) for c in (rp.U12, rp.U13, rp.U23, rp.U123))
            assert sel.sigma[sel.color - 1] == 1
            pivots += 1
    assert checked >= 250 and nonempty >= 100 and pivots >= 100


def test_relabel_permutes_colors_and_shadow():
    # at n = 7 the pairs carry five different good sets
    h = random_coloring(Params(n=7, r=4, t=2, c=3), seed=4)
    s = build_shadow(h, 2)
    assert len(set(s.goodmask.tolist())) == 5
    h2, s2 = relabel_colors(h, s, (2, 3, 1))
    assert h2.color_of((0, 1, 2, 3)) == (2, 3, 1)[h.color_of((0, 1, 2, 3)) - 1]
    assert np.array_equal(s2.goodmask, build_shadow(h2, 2).goodmask)


# ---------------------------------------------------------------------------
# full pipeline, one fixture per branch (subcases frozen at first run)


def test_random_coloring_takes_the_cover_branch():
    h = random_coloring(Params(n=85, r=4, t=2, c=3), seed=1)
    res = found(h)
    assert res.trace.branch == "B-cover"


def test_cover_branch_reads_no_r_edge_table(monkeypatch):
    # the shadow count and the lift work from smaller tables and ranks
    calls = []

    def spy(n, k):
        calls.append((n, k))
        return edge_table(n, k)

    for name, mod in list(sys.modules.items()):
        if name.startswith("bergecycles") and getattr(mod, "edge_table", None) is edge_table:
            monkeypatch.setattr(mod, "edge_table", spy)
    h = random_coloring(Params(n=85, r=4, t=2, c=3), seed=[85, 4])
    assert found(h).trace.branch == "B-cover"
    assert (85, 2) in calls and (85, 4) not in calls


def test_locked_pair_takes_the_single_good_fallback():
    h = next(structured_colorings(
        "pair-lock", {"n": 85, "r": 4, "c": 3, "pair": (0, 1), "lock": 2}))
    res = found(h)
    assert res.trace.branch == "single-good-fallback"
    assert res.trace.subcase == {"pair": [0, 1], "goodset": [2]}
    # a color-1 cycle is still possible: it just cannot cross pair (0,1)
    core = res.certificate.core
    if res.certificate.color == 1:
        idx0 = core.index(0)
        assert 1 not in (core[idx0 - 1], core[(idx0 + 1) % len(core)])


def test_near_mono_base2_runs_the_companion_on_cycle_case():
    h = next(structured_colorings(
        "near-mono", {"n": 85, "r": 4, "c": 3, "base": 2, "off": 1}))
    res = found(h)
    assert res.trace.branch == "lemma-3.1"
    sub = res.trace.subcase
    assert (sub["vertex"], sub["color"]) == (0, 1)
    assert sub["companion_edge"] == [0, 1, 2, 3]
    assert sub["case"] == "in-cycle"
    assert sub["insertion"] == "two-chords"
    assert res.trace.steps == [{"step": "sparse-vertex", "vertex": 0,
                                "color": 1}]


def test_near_mono_base3_inserts_via_chord():
    h = next(structured_colorings(
        "near-mono", {"n": 85, "r": 4, "c": 3, "base": 3, "off": 1}))
    res = found(h)
    assert res.trace.branch == "lemma-3.1"
    sub = res.trace.subcase
    assert sub["case"] == "companion-free"
    assert sub["insertion"] == "chord"
    assert sub["cycle_color"] == 3


@pytest.mark.parametrize("base", [2, 3])
def test_near_mono_builds_no_pair_shadow_of_the_input(monkeypatch, base):
    # the sparse test reads no shadow, so the vertex route returns before
    # r4_find builds the input's t=2 shadow; only the link's is built
    h = next(structured_colorings(
        "near-mono", {"n": 85, "r": 4, "c": 3, "base": base, "off": 1}))
    shapes = []

    def counting(g, t):
        shapes.append((g.params.n, g.params.r, t))
        return build_shadow(g, t)
    monkeypatch.setattr(r4, "build_shadow", counting)
    assert found(h).trace.branch == "lemma-3.1"
    assert shapes == [(84, 3, 2)]


def test_color3_companion_swaps_colors_2_and_3():
    # vertex 0 touches no color-1 edge, so its companion is the color-3 edge
    # {0, 1, 2, 3}: the route runs with colors 2 and 3 swapped and the
    # certificate comes back in color 3
    p = Params(n=85, r=4, t=2, c=3)
    colors = np.full(p.num_edges, 3, dtype=np.uint8)
    colors[-1] = 1
    res = found(ColoredHypergraph(p, colors))
    sub = res.trace.subcase
    assert res.trace.branch == "lemma-3.1"
    assert (sub["vertex"], sub["color"], sub["companion_edge"]) == (0, 1, [0, 1, 2, 3])
    assert (sub["cycle_color"], res.certificate.color) == (2, 3)


def test_construction_case1_variant_two():
    h = u_profile(n=85, k23=0, k12=1, k13=42, deg_w=0, deg_w2=0)
    res = found(h)
    assert res.trace.branch == "case-1"
    sub = res.trace.subcase
    assert (sub["variant"], sub["r1"], sub["r2"]) == ("ii", 3, 3)
    assert res.trace.degree_report["violations"] == []


def test_construction_case1_variant_one():
    h = u_profile(n=85, k23=0, k12=1, k13=42, deg_w=1, deg_w2=1)
    res = found(h)
    sub = res.trace.subcase
    assert res.trace.branch == "case-1"
    assert (sub["variant"], sub["r1"], sub["r2"]) == ("i", 2, 2)


@pytest.mark.parametrize("deg_w,deg_u23", [(dw, du) for dw in (0, 1, 2)
                                           for du in (0, 1, 2)])
def test_construction_case2_repair_grid(deg_w, deg_u23):
    h = u_profile(n=85, k23=1, k12=1, k13=41, deg_w=deg_w, deg_u23=deg_u23)
    res = found(h)
    assert res.trace.branch == "case-2"
    sub = res.trace.subcase
    assert sub["r"] == 3 - deg_w
    assert sub["l"] == 2 - deg_u23
    assert sub["w"] is None                # half-cover window not reached
    assert res.trace.degree_report["violations"] == []


def test_construction_case2_with_second_u12_vertex():
    # k12 = 2 exercises the extra-class edges of the auxiliary graph
    h = u_profile(n=85, k23=1, k12=2, k13=41)
    res = found(h)
    assert res.trace.branch == "case-2"


def test_construction_case2_half_cover_window():
    h = u_profile(n=85, k23=1, k12=1, k13=40)
    res = found(h)
    assert res.trace.branch == "case-2"
    assert res.trace.subcase["w"] is not None


@pytest.mark.parametrize("perm", [(2, 1, 3), (3, 1, 2)])
def test_case2_early_exit_reads_the_b_class_of_the_pivot_color(monkeypatch, perm):
    # the half-cover window exits early when every U123 vertex lies in B1
    # under the pivot's renaming, B_k of the input with k = sel.color.  The
    # window fixture recolored so sel.color = 3, with classify_and_pivot
    # patched to put U123 in B_3 alone: only the lookup by sel.color sees it
    base = u_profile(n=85, k23=1, k12=1, k13=40)
    h = ColoredHypergraph(base.params, np.array((0, *perm), dtype=np.uint8)[base.colors])
    colors = []

    def pivot(profiles, _real=classify_and_pivot):
        bc, sel = _real(profiles)
        colors.append(sel.color)
        classes = [sel.U123 if k == sel.color else () for k in (1, 2, 3)]
        return BClassification(*classes, B4=(), remainder=bc.remainder), sel

    monkeypatch.setattr(r4, "classify_and_pivot", pivot)
    res = found(h)
    monkeypatch.undo()
    assert colors == [3]
    assert res.trace.branch == "case-2"
    assert res.trace.subcase == {"case": 2, "early_exit": True}


def test_repair_adds_the_pair_and_sends_the_rest_of_its_edge_to_d():
    adj = np.zeros((6, 6), dtype=bool)
    D: set[int] = set()
    _repair(adj, D, 0, 1, 2, (0, 1, 2, 3))
    _repair(adj, D, 0, 4, 5, (0, 2, 4, 5))
    assert np.argwhere(adj).tolist() == [[1, 2], [2, 1], [4, 5], [5, 4]]
    assert D == {2, 3}
    graph = SimpleGraph.from_adjacency(adj)
    assert graph.rows == [0, 0b100, 0b10, 0, 0b100000, 0b10000]
    _repair(adj, D, 0, 3, 3, (0, 1, 3, 4))
    with pytest.raises(ValueError, match="loop at vertex 3"):
        SimpleGraph.from_adjacency(adj)


@pytest.mark.parametrize("n", [2, 9, 85])
def test_pair_rank_matrix_is_cached_and_read_only(n):
    m = r4._pair_rank_matrix(n)
    assert r4._pair_rank_matrix(n) is m
    assert not m.flags.writeable
    # every off-diagonal entry is its pair's rank; {v, v} is no pair
    assert [[int(m[a, b]) for b in range(n)] for a in range(n)] == [
        [rank_subset(sorted((a, b))) if a != b else 0 for b in range(n)]
        for a in range(n)]


def test_color_relabel_round_trip():
    base = u_profile(n=85, k23=1, k12=1, k13=41, deg_w=0, deg_u23=0)
    lut = np.array([0, 2, 3, 1], dtype=np.uint8)
    h = ColoredHypergraph(base.params, lut[base.colors])
    res = found(h)                          # verifies against the input
    assert {"step": "color-relabel-reduction", "sigma": [1, 3, 2]} \
        in res.trace.steps
    assert res.trace.branch == "case-2"


@pytest.fixture(scope="module", params=[0, 1], ids=["deg=0", "deg=1"])
def split_case(request):
    # a case-1 split fixture, whose pivot needs no color renaming
    h = u_profile(n=85, k23=0, k12=1, k13=42, deg_w=request.param,
                  deg_w2=request.param)
    return h, found(h)


@pytest.mark.parametrize("perm", [(1, 3, 2), (2, 1, 3), (2, 3, 1),
                                  (3, 1, 2), (3, 2, 1)])
def test_renamed_colors_give_the_renamed_certificate(split_case, perm):
    # color c of the input becomes perm[c - 1]; the pivot must rename the
    # colors back, and the Gamma cycle must lift in the input's own names
    base, base_res = split_case
    assert base_res.trace.pivot["sigma"] == [1, 2, 3]
    lut = np.array((0,) + perm, dtype=np.uint8)
    res = found(ColoredHypergraph(base.params, lut[base.colors]))
    sigma = res.trace.pivot["sigma"]
    assert [sigma[c - 1] for c in perm] == [1, 2, 3]
    assert res.trace.branch == "case-1"
    assert res.certificate.color == perm[base_res.certificate.color - 1]
    assert res.certificate.core == base_res.certificate.core
    assert res.certificate.edges == base_res.certificate.edges


def test_gamma_matching_failure_is_a_traced_extension_breach(monkeypatch):
    def incomplete(w, h):
        raise MatchingIncomplete("1 positions lack distinct backing edges "
                                 "(first: 7)", [7])

    monkeypatch.setattr(r4, "lift_to_berge", incomplete)
    h = u_profile(n=85, k23=0, k12=1, k13=42, deg_w=0, deg_w2=0)
    with pytest.raises(ExtensionFailed) as exc:
        r4_find(h)
    assert exc.value.detail == {"unmatched": [7]}
    assert exc.value.trace.branch == "case-1"


@pytest.mark.parametrize("make, branch", [
    (lambda: random_coloring(Params(n=85, r=4, t=2, c=3), seed=3), "B-cover"),
    (lambda: next(structured_colorings(
        "pair-lock", {"n": 85, "r": 4, "c": 3, "pair": (0, 1), "lock": 2})),
     "single-good-fallback"),
])
def test_search_miss_is_unresolved(monkeypatch, make, branch):
    monkeypatch.setattr(r4, "shadow_guided_cert", lambda *args: None)
    h = make()
    with pytest.raises(Unresolved) as exc:
        r4_find(h)
    assert exc.value.trace.branch == branch
    res = find_certificate(h)
    assert (res.status, res.certificate) == ("unresolved", None)
    assert res.trace.branch == branch


def test_trace_serializes_to_json():
    import json
    h = u_profile(n=85, k23=1, k12=1, k13=41, deg_w=2, deg_u23=2)
    res = found(h)
    blob = json.dumps(res.trace.to_json_dict())
    back = json.loads(blob)
    assert back["branch"] == "case-2"
    assert set(back) >= {"branch", "subcase", "fallbacks", "steps", "pivot"}


# ---------------------------------------------------------------------------
# sweeps pinning the Gamma repair leaves and the vertex route's hub cycles;
# no census fixture reaches most of these leaves.  The Gamma digest was
# recorded on the per-case code that _gamma_base replaced.  The hub digest
# pins each core and the edges extract.lift_to_berge backs it with.


def _digest(blob):
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sweep_pivot(u23):
    """Pivot 0 of K_9^4 with U12 = {4, 5}, U13 = {6, 7, 8} and U23 = u23."""
    u12, u13 = (4, 5), (6, 7, 8)
    u123 = tuple(v for v in range(1, 9) if v not in u12 + u13 + u23)
    a, b = _alternating_split(u123)
    a2, b2 = _alternating_split(u12)
    return PivotSelection(x=0, pi=len(u23), sigma=(1, 2, 3), U12=u12, U13=u13,
                          U23=u23, U123=u123, y=4, z=6,
                          u23=u23[0] if u23 else None, u12=5,
                          A=a, B=b, A2=a2, B2=b2)


def _gamma_outcome(build):
    """(hashable outcome, leaf) of one Gamma construction: the subcase,
    Gamma's rows, the degree report and w1, or the exception."""
    try:
        g = build()
    except Exception as exc:
        name = type(exc).__name__
        return [name, str(exc), getattr(exc, "detail", None)], name
    sub = g.subcase
    leaf = ((sub["variant"], sub["r2"], sub["intersecting"]) if sub["case"] == 1
            else (sub["r"], sub["l"], sub["intersecting"]))
    return [sub, g.graph.rows, g.degree_report, g.w1], (sub["case"], *leaf)


def test_gamma_sweep_reaches_every_repair_leaf():
    # the digest covers every pair of Gamma, the subcase and degree report,
    # or the exception and its detail; the scaffold and its backings are
    # checked against the per-quad builder on every coloring
    case1, case2 = _sweep_pivot(()), _sweep_pivot((1,))
    outcomes, leaves = [], set()
    for seed in range(600):
        h = random_coloring(Params(9, 4, 2, 3), seed=seed)
        s = build_shadow(h, 2)
        _assert_base_matches_reference(h, case1, set(case1.A) | set(case1.A2))
        _assert_base_matches_reference(h, case2, set(case2.A))
        for build in (lambda: construct_gamma_case1(h, case1),
                      lambda: construct_gamma_case2(h, s, case2, None),
                      lambda: construct_gamma_case2(h, s, case2, 2)):
            out, leaf = _gamma_outcome(build)
            outcomes.append(out)
            leaves.add(leaf)
    want = {(1, "i", r2, None) for r2 in range(3)}
    want |= {(1, "ii", r2, None) for r2 in range(3)}
    want |= {(1, "ii", 3, both) for both in (False, True)}
    want |= {(2, r, l, None) for r in range(4) for l in range(3)
             if (r, l) not in ((2, 2), (3, 2))}
    want |= {(2, r, 2, both) for r in (2, 3) for both in (False, True)}
    want.add(ReservationUnsatisfiable.__name__)
    assert want <= leaves
    assert _digest(outcomes) == GAMMA_SWEEP_DIGEST


GAMMA_SWEEP_DIGEST = "531d0aaee5a5bd444983d3a94ff497c5524aeb9e9259d3651cf46312e467d785"


@pytest.mark.parametrize("u23", [(), (1,)], ids=["case-1", "case-2"])
def test_gamma_on_the_input_equals_gamma_on_the_renamed_copy(u23):
    # Gamma reads the input in sel.color; the reference reads the copy
    # renamed by sigma in color 1.  Every outcome (rows, subcase, degree
    # report, w1, or the exception) agrees for every sigma
    base = _sweep_pivot(u23)
    for seed in range(100):
        h = random_coloring(Params(9, 4, 2, 3), seed=seed)
        s = build_shadow(h, 2)
        for sigma in itertools.permutations((1, 2, 3)):
            sel = dataclasses.replace(base, sigma=sigma)
            h2, s2 = relabel_colors(h, s, sigma)
            if u23:
                for w in (None, 2):
                    assert (_gamma_outcome(lambda: construct_gamma_case2(h, s, sel, w))
                            == _gamma_outcome(
                                lambda: construct_gamma_case2(h2, s2, base, w)))
            else:
                assert (_gamma_outcome(lambda: construct_gamma_case1(h, sel))
                        == _gamma_outcome(lambda: construct_gamma_case1(h2, base)))


def _hub_coloring(n, seed, color):
    """A seeded order xs of 1..n-1 and a random 3-coloring of K_n^4 whose
    edges through {0, xs[0]} get `color`, except a seeded 3% of them."""
    rng = np.random.default_rng(seed)
    xs = [int(u) for u in rng.permutation(np.arange(1, n))]
    tab = edge_table(n, 4)
    work = rng.integers(1, 4, size=len(tab), dtype=np.uint8)
    through = (tab == 0).any(axis=1) & (tab == xs[0]).any(axis=1)
    work[through & (rng.random(len(tab)) >= 0.03)] = color
    return work, xs


def _hub_outcome(hw, build):
    try:
        cert = build()
    except FallbackExhausted as exc:
        return ["fail", str(exc)], False
    assert verify_berge_certificate(cert, hw) is None
    return ["ok", cert.to_json_dict()], True


def _opposite_outcome(n, seed, chi):
    work, xs = _hub_coloring(n, seed, 5 - chi)
    hw = ColoredHypergraph(Params(n, 4, 2, 3), work)
    detail: dict = {}
    out, ok = _hub_outcome(hw, lambda: r4._lemma_opposite_cycle(
        work, functools.partial(r4._lift_core, hw), 0, xs, chi, detail))
    return out + [detail], ok


def _terminal_outcome(n, seed):
    work, xs = _hub_coloring(n, seed, 3)
    hw = ColoredHypergraph(Params(n, 4, 2, 3), work)
    u = xs[0]
    e_core = tuple(sorted((u, xs[1], xs[5])))
    e_other = tuple(sorted((xs[-1], u, xs[7])))
    spares = [tuple(sorted((u, xs[3], xs[9])))]
    return _hub_outcome(hw, lambda: _lemma_terminal_cycle(
        work, functools.partial(r4._lift_core, hw), 0, xs, u, e_core, e_other,
        spares))


def test_hub_cycle_sweep():
    outcomes, tally = [], {}
    for n in (20, 40):
        for seed in range(30):
            for chi in (2, 3):
                out, ok = _opposite_outcome(n, seed, chi)
                outcomes.append(out)
                tally[("opposite", ok)] = tally.get(("opposite", ok), 0) + 1
            out, ok = _terminal_outcome(n, seed)
            outcomes.append(out)
            tally[("terminal", ok)] = tally.get(("terminal", ok), 0) + 1
    assert set(tally) == {(route, ok) for route in ("opposite", "terminal")
                          for ok in (False, True)}
    assert _digest(outcomes) == HUB_SWEEP_DIGEST, tally


HUB_SWEEP_DIGEST = "b5a1718f1e977ef3c1a72a7bbdf72b3ad05a8e9dd1e1d2a5ec706cd8d13384e3"


@pytest.mark.parametrize("route, seed, chi", [("terminal", 3, None),
                                              ("opposite", 27, 3)])
def test_hub_cycle_lifts_without_wrap_picks(route, seed, chi):
    # one K_20^4 hub cycle per route that closes only through the lift
    out, ok = (_terminal_outcome(20, seed) if route == "terminal"
               else _opposite_outcome(20, seed, chi))
    assert ok, out
    _, xs = _hub_coloring(20, seed, 3 if chi is None else 5 - chi)
    core = out[1]["core"]
    assert (core[0], core[-1]) == (0, xs[0])


# ---------------------------------------------------------------------------
# the wrap insertions of the vertex route, which no census fixture reaches


def _insert_fixture(block_left):
    """K_10^4 in color 2 around v = 0 with link cycle 1..9, every inner
    chord {0, 1, xk, xk'} in color 3, and with block_left also every
    wrap-left triple {0, 9, 1, xk}; returns the lifted core and the
    insertion tag."""
    n, xs = 10, list(range(1, 10))
    es = [tuple(sorted(xs[(i + j) % 9] for j in range(3))) for i in range(9)]
    work = np.full(len(edge_table(n, 4)), 2, dtype=np.uint8)
    for ki in range(2, 7):
        for kj in range(ki + 2, 8):
            work[rank_subset((0, 1, xs[ki], xs[kj]))] = 3
    if block_left:
        for li in range(2, 7):
            work[rank_subset((0, 1, xs[li], 9))] = 3
    hw = ColoredHypergraph(Params(n, 4, 2, 3), work)
    detail: dict = {}
    cert = r4._lemma_insert(work, functools.partial(r4._lift_core, hw), 0, xs,
                            es, 2, detail)
    assert cert is not None and cert.color == 2
    assert verify_berge_certificate(cert, hw) is None
    return cert.core, detail["insertion"]


def test_lemma_insert_wrap_left():
    assert _insert_fixture(False) == ((0, *range(1, 10)), "wrap-left")


def test_lemma_insert_wrap_right():
    assert _insert_fixture(True) == ((1, 0, *range(2, 10)), "wrap-right")


# ---------------------------------------------------------------------------
# lemma_a_construct's opposite-cycle and terminal-cycle routes.  The route
# checks no MIN_N, so seeded K_10..16^4 colorings reach them: vertex 0 is on
# no color-1 edge except at most one, and its other edges are colors 2/3
# in a seeded proportion.


def _sparse_vertex_coloring(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([10, 12, 14, 16]))
    p = Params(n, 4, 2, 3)
    cols = rng.integers(1, 4, size=p.num_edges).astype(np.uint8)
    through = edges_through(n, 4, [(0,)])[0]
    q = rng.uniform()
    sub = np.where(rng.uniform(size=through.size) < q, 3, 2).astype(np.uint8)
    if rng.uniform() < 0.7:
        sub[rng.integers(through.size)] = 1
    cols[through] = sub
    return ColoredHypergraph(p, cols)


@pytest.mark.parametrize("seed, n, case, insertion, digest", [
    (1793, 14, "off-cycle", "opposite-cycle",
     "239a4f8053e70d0727985ff509907c166c4904115baf5d5c768c1c775ec7bc2b"),
    (1960, 12, "off-cycle", "opposite-cycle",
     "40ebca6983aa01286a037a127a2759e99a285365099b8ee0e0fb1f18389ae223"),
    (4815, 10, "in-cycle", "terminal-cycle-at-v2",
     "9268fdb618adbccc76b5e5c1450568d4bcb8608c00cf82f86fc7696371adc314"),
])
def test_vertex_route_hub_cycles(seed, n, case, insertion, digest):
    h = _sparse_vertex_coloring(seed)
    assert h.params.n == n
    cert, detail = r4.lemma_a_construct(h, 0, 1, 10**5)
    assert (detail["case"], detail["insertion"]) == (case, insertion)
    assert verify_berge_certificate(cert, h) is None
    assert _digest(cert.to_json_dict()) == digest


def test_vertex_route_thin_pools_at_x1():
    h = _sparse_vertex_coloring(108)
    assert h.params.n == 10
    with pytest.raises(FallbackExhausted, match="insertion pools at x1 are too thin"):
        r4.lemma_a_construct(h, 0, 1, 10**5)


# ---------------------------------------------------------------------------
# the per-4-set color loops that one gather per scan replaced, kept as the
# reference: Gamma's fans, the vertex route's spare triples, chord scans,
# opposite-cycle pools and hub check must give the same pairs in the same
# order, the same rows, the same insertion and the same failure message


def ref_color4(colors, a, b, c, d):
    return int(colors[rank_subset(sorted((a, b, c, d)))])


class _GammaBuilder:
    """The per-pair builder the adjacency replaced: rows as bitmask ints,
    and the (tag, backing edge) of every pair as its first adder set it."""

    def __init__(self, h):
        self.colors = h.colors
        self.n = h.params.n
        self.prov = {}
        self.rows = [0] * self.n

    def add(self, u, v, tag, backing):
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in self.prov:
            return
        self.prov[key] = (tag, backing)
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u


def ref_fan(gb, hub, a, tag, vs):
    for v in vs:
        if ref_color4(gb.colors, *hub, a, v) == 1:
            gb.add(a, v, tag, tuple(sorted((*hub, a, v))))


def ref_gamma_base(h, sel, a_set):
    n = h.params.n
    x, y, z = sel.x, sel.y, sel.z
    gb = _GammaBuilder(h)
    for u in sorted(set(sel.U12) - {y}):
        ref_fan(gb, (x, z), u, "E1", (v for v in range(n) if v not in (x, z, y, u)))
    for u in sorted(set(sel.U13) - {z}):
        ref_fan(gb, (x, y), u, "E2", (v for v in range(n) if v not in (x, y, u)))
    ref_fan(gb, (x, y), z, "E3",
            (v for v in range(n) if v not in (x, y, z) and v not in a_set))
    ref_fan(gb, (x, z), y, "E4", sorted(a_set - {y}))
    for v in sorted(set(sel.U13) - {z}):
        gb.add(y, v, "E5", None)
    return gb


def ref_color2_spares(work, v, u, verts, cset):
    out = []
    rest = sorted(w for w in verts if w != u)
    for a, b in itertools.combinations(rest, 2):
        tri = tuple(sorted((u, a, b)))
        if frozenset(tri) in cset:
            continue
        if ref_color4(work, v, *tri) == 2:
            out.append(tri)
    return out


def ref_lemma_insert(work, lift, v, xs, es, chi, detail):
    n1 = len(xs)
    x1 = xs[0]

    def col(a, b, c):
        return ref_color4(work, v, a, b, c)

    for ki in range(2, n1 - 2):
        for kj in range(ki + 2, n1 - 1):
            if col(x1, xs[ki], xs[kj]) == chi:
                detail["insertion"] = "chord"
                return lift(chi, [x1, v] + xs[1:])
    e_last, e_first = es[-1], es[0]
    for li in range(2, n1 - 2):
        tri = tuple(sorted((xs[-1], x1, xs[li])))
        if col(*tri) == chi and tri != e_last:
            detail["insertion"] = "wrap-left"
            return lift(chi, [v] + xs)
    for li in range(3, n1 - 1):
        tri = tuple(sorted((x1, xs[1], xs[li])))
        if col(*tri) == chi and tri != e_first:
            detail["insertion"] = "wrap-right"
            return lift(chi, [x1, v] + xs[1:])
    return None


def ref_lemma_opposite_cycle(work, lift, v, xs, chi, detail):
    other = 5 - chi
    x1 = xs[0]
    cadj = r4._cycle_adjacency(xs)
    xlast, x2 = xs[-1], xs[1]
    banned = {xs[-2], xlast, x1, x2, xs[2]}
    pool_l = [u for u in sorted(xs) if u not in banned
              and ref_color4(work, v, xlast, u, x1) == other]
    pool_r = [u for u in sorted(xs) if u not in banned
              and ref_color4(work, v, x2, u, x1) == other]

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
    tail = r4._order_avoiding(tail_pool, y7, x1, cadj)
    if tail is None:
        raise FallbackExhausted("could not arrange the opposite-color cycle")
    ys = [v, y2, xlast, y4, y5, x2, y7] + tail + [x1]
    cert = ref_close_hub_cycle(work, lift, ys, other, "opposite")
    detail["insertion"] = "opposite-cycle"
    return cert


def ref_close_hub_cycle(work, lift, ys, color, pattern):
    v, hub = ys[0], ys[-1]
    for j in range(2, len(ys) - 1):
        if ref_color4(work, v, ys[j - 1], ys[j], hub) != color:
            raise FallbackExhausted(
                f"pair ({ys[j - 1]},{ys[j]}) breaks the {pattern} pattern")
    return lift(color, ys)


def _case_fixtures():
    return [(label, make) for label, make in _census_fixtures()
            if label.startswith("u-profile")]


def _assert_base_matches_reference(h, sel, a_set, renamed=None):
    """The scaffold's rows on h equal the per-quad builder's on `renamed`,
    h with its colors renamed by sel.sigma (h itself by default), and the
    closed-form backing of every pair at a U123 vertex or u23 is the fan
    edge the builder recorded for it."""
    adj = r4._gamma_base(h, sel, a_set)
    want = ref_gamma_base(h if renamed is None else renamed, sel, a_set)
    assert SimpleGraph.from_adjacency(adj).rows == want.rows
    for v in (*sel.U123, *sel.U23):
        for u in np.flatnonzero(adj[v]).tolist():
            tag, backing = want.prov[min(u, v), max(u, v)]
            assert tag in ("E1", "E2", "E3", "E4")
            assert r4._backing(sel, u, v) == backing


# the u-profile stream of each case fixture of scripts/branch_census.py
_CASE_STREAMS = {
    **{f"u-profile split deg={deg}": dict(k23=0, k12=1, k13=42, deg_w=deg,
                                          deg_w2=deg) for deg in (0, 1)},
    **{f"u-profile repair deg_w={dw} deg_u23={du}": dict(
        k23=1, k12=1, k13=41, deg_w=dw, deg_u23=du)
       for dw in (0, 1, 2) for du in (0, 1, 2)},
    "u-profile window": dict(k23=1, k12=1, k13=40),
}


@pytest.mark.parametrize("label,make", _case_fixtures())
def test_gamma_fans_equal_the_per_quad_loop(label, make):
    # the scaffold's rows and the backings at its deficient vertices, on the
    # pivot r4_find picks, for the fixture and the next two colorings of its
    # stream, each with its input colors permuted every way: the scaffold
    # reads the input in sel.color, the reference a copy renamed by sigma
    stream = structured_colorings("u-profile", {"n": 85, **_CASE_STREAMS[label]})
    hs = list(itertools.islice(stream, 3))
    assert np.array_equal(hs[0].colors, make().colors)
    sigmas = set()
    for base in hs:
        for perm in itertools.permutations((1, 2, 3)):
            h = ColoredHypergraph(base.params,
                                  np.array((0, *perm), dtype=np.uint8)[base.colors])
            s = build_shadow(h, 2)
            _, sel = classify_and_pivot(compute_u_profiles(s))
            a_set = set(sel.A) if sel.U23 else set(sel.A) | set(sel.A2)
            _assert_base_matches_reference(
                h, sel, a_set, relabel_colors(h, s, sel.sigma)[0])
            sigmas.add(sel.sigma)
    assert len(sigmas) > 1


def ref_reserve(h, color, contain, count, excluded, who):
    """_reserve before it read its row in prefix blocks: the whole row."""
    if count <= 0:
        return []
    ranks = edges_through(h.params.n, 4, [contain])[0]
    out = []
    for rank in ranks[h.colors[ranks] == color].tolist():
        quad = unrank_subset(rank, h.params.n, 4)
        if quad in excluded:
            continue
        out.append(quad)
        if len(out) == count:
            return out
    raise ReservationUnsatisfiable(
        f"needed {count} color-1 edges around {who}, found {len(out)}",
        detail={"contain": list(contain), "needed": count, "found": len(out)})


def _spy_reads(monkeypatch):
    """Record (fixed set, start, stop) of every edges_through call the
    candidate rows make, where `_reserve` reads its row."""
    reads = []

    def through(n, r, fixed, start=0, stop=None, _real=extract.edges_through):
        reads.append((tuple(fixed[0]), start, stop))
        return _real(n, r, fixed, start, stop)

    monkeypatch.setattr(extract, "edges_through", through)
    return reads


def _assert_prefix_blocks(reads, n):
    """Each set's reads are its blocks inside the 8, 16, 32, ... lowest free
    vertices, in order from rank 0."""
    for contain in {fixed for fixed, _, _ in reads}:
        blocks = [(lo, hi) for fixed, lo, hi in reads if fixed == contain]
        k = len(contain)
        stops = [binom(min(m, n - k), 4 - k) for m in (8, 16, 32, 64, 128)]
        assert blocks == list(zip([0, *stops], stops))[:len(blocks)]


@pytest.mark.parametrize("contain", [(3,), (0, 37), (5, 9)])
def test_reserve_crosses_blocks_as_the_whole_row_does(monkeypatch, contain):
    # counts past the first block, up to the whole row and one more: the
    # picks, or the message and the found count, are the reference's
    h = random_coloring(Params(n=40, r=4, t=2, c=3), seed=5)
    ranks = edges_through(40, 4, [contain])[0]
    ones = [unrank_subset(q, 40, 4) for q in ranks[h.colors[ranks] == 1].tolist()]
    excluded = set(ones[1:4])

    def outcome(fn, count):
        try:
            return fn(h, 1, contain, count, excluded, "v")
        except ReservationUnsatisfiable as exc:
            return [str(exc), exc.detail]

    for count in (1, 40, 300, len(ones) - 3, len(ones) - 2):
        reads = _spy_reads(monkeypatch)
        got = outcome(r4._reserve, count)
        monkeypatch.undo()
        assert got == outcome(ref_reserve, count)
        assert reads and {fixed for fixed, _, _ in reads} == {contain}
        _assert_prefix_blocks(reads, 40)
    assert outcome(r4._reserve, len(ones) - 3)[-1] == ones[-1]


@pytest.mark.parametrize("label,make", _case_fixtures())
def test_reservations_read_only_prefix_blocks(monkeypatch, label, make):
    # each reservation equals the whole-row reference's, and its reads are
    # prefix blocks of its own set; u23's reads stop short of its
    # 95,284-edge row.  The lift's widening reads reach the same spy, so
    # only the reads made inside a reservation are kept
    calls, reads = [], []

    def reserve(*args, _real=r4._reserve):
        first = len(seen)
        calls.append((args, _real(*args)))
        reads.extend(seen[first:])
        assert {fixed for fixed, _, _ in seen[first:]} <= {args[2]}
        return calls[-1][1]

    seen = _spy_reads(monkeypatch)
    monkeypatch.setattr(r4, "_reserve", reserve)
    res = found(make())
    monkeypatch.undo()
    assert calls
    for args, got in calls:
        assert got == ref_reserve(*args)
    assert {fixed for fixed, _, _ in reads} == {
        args[2] for args, _ in calls if args[3] > 0}
    _assert_prefix_blocks(reads, 85)
    u23 = res.trace.subcase.get("u23")
    if u23 is not None and res.trace.subcase["l"]:
        assert max(hi for fixed, _, hi in reads if fixed == (u23,)) < binom(84, 3)


def _outcome(build):
    try:
        cert = build()
    except FallbackExhausted as exc:
        return ["fail", str(exc)]
    return ["ok", None if cert is None else cert.to_json_dict()]


def _assert_scans_match(calls):
    """Rerun every recorded vertex-route scan beside its reference."""
    for name, args in calls:
        if name == "_color2_spares":
            work, v, u, verts, cycle = args
            n = max(*verts, v) + 1
            cset = {frozenset(unrank_subset(int(q), n, 4)) - {v} for q in cycle}
            got = r4._color2_spares(*args)
            assert repr([tuple(t) for t in got.tolist()]) == repr(
                ref_color2_spares(work, v, u, verts, cset))
        elif name == "_close_hub_cycle":
            assert (_outcome(lambda: r4._close_hub_cycle(*args))
                    == _outcome(lambda: ref_close_hub_cycle(*args)))
        else:
            ref = {"_lemma_insert": ref_lemma_insert,
                   "_lemma_opposite_cycle": ref_lemma_opposite_cycle}[name]
            got, want = {}, {}
            assert (_outcome(lambda: getattr(r4, name)(*args[:-1], got))
                    == _outcome(lambda: ref(*args[:-1], want)))
            assert got == want


def _record_scans(monkeypatch):
    calls = []
    for name in ("_color2_spares", "_lemma_insert", "_lemma_opposite_cycle",
                 "_close_hub_cycle"):
        def spy(*args, _name=name, _fn=getattr(r4, name)):
            calls.append((_name, args))
            return _fn(*args)
        monkeypatch.setattr(r4, name, spy)
    return calls


def _near_mono(base):
    return next(structured_colorings(
        "near-mono", {"n": 85, "r": 4, "c": 3, "base": base, "off": 1}))


@pytest.mark.parametrize("run, scans", [
    # the census's two near-mono fixtures: two chords, a chord insertion
    (lambda: r4_find(_near_mono(2)), {"_color2_spares"}),
    (lambda: r4_find(_near_mono(3)), {"_lemma_insert"}),
    # the wrap insertions and the vertex route's hub cycles
    (lambda: _insert_fixture(False), {"_lemma_insert"}),
    (lambda: _insert_fixture(True), {"_lemma_insert"}),
    *[(lambda seed=seed: r4.lemma_a_construct(
        _sparse_vertex_coloring(seed), 0, 1, 10**5),
       {"_lemma_insert", "_lemma_opposite_cycle", "_close_hub_cycle"})
      for seed in (1793, 1960)],
    (lambda: r4.lemma_a_construct(_sparse_vertex_coloring(4815), 0, 1, 10**5),
     {"_color2_spares", "_close_hub_cycle"}),
    (lambda: pytest.raises(FallbackExhausted, r4.lemma_a_construct,
                           _sparse_vertex_coloring(108), 0, 1, 10**5),
     {"_lemma_insert", "_lemma_opposite_cycle"}),
    # the hub-cycle sweep's inputs, passing and failing
    (lambda: [_opposite_outcome(n, seed, chi) for n in (20, 40)
              for seed in range(12) for chi in (2, 3)],
     {"_lemma_opposite_cycle", "_close_hub_cycle"}),
    (lambda: [_terminal_outcome(n, seed) for n in (20, 40) for seed in range(12)],
     {"_close_hub_cycle"}),
])
def test_vertex_route_scans_equal_the_per_quad_loops(monkeypatch, run, scans):
    calls = _record_scans(monkeypatch)
    run()
    monkeypatch.undo()
    assert {name for name, _ in calls} == scans
    _assert_scans_match(calls)


@pytest.mark.parametrize("params,match", [
    (Params(n=84, r=4, t=2, c=3), "need n >= 85, got n=84"),
    (Params(n=85, r=4, t=2, c=2), "need r=4 and c=3, got r=4, c=2"),
    (Params(n=20, r=5, t=2, c=3), "need r=4 and c=3, got r=5, c=3"),
])
def test_r4_find_rejects_shapes_outside_its_domain(params, match):
    with pytest.raises(InvalidParams, match=match):
        r4_find(random_coloring(params, seed=0))


def test_vertex_route_rejects_a_vertex_on_two_edges_of_its_color():
    colors = np.full(binom(12, 4), 2, dtype=np.uint8)
    colors[[rank_subset((0, 1, 2, 3)), rank_subset((0, 1, 2, 4))]] = 1
    h = ColoredHypergraph(Params(n=12, r=4, t=2, c=3), colors)
    with pytest.raises(InvalidParams, match="vertex 0 touches 2 edges of color 1"):
        r4.lemma_a_construct(h, 0, 1)


@pytest.mark.parametrize("params", [Params(n=12, r=4, t=2, c=2),
                                    Params(n=12, r=4, t=3, c=3)])
def test_u_profiles_need_a_pair_shadow_of_three_colors(params):
    s = build_shadow(random_coloring(params, seed=0), params.t)
    with pytest.raises(InvalidParams, match=f"got t={params.t}, c={params.c}"):
        compute_u_profiles(s)


def test_r4_find_rejects_a_negative_budget():
    # it once ran as budget 0 and found the cycle
    h = random_coloring(Params(n=85, r=4, t=2, c=3), seed=1)
    with pytest.raises(InvalidParams, match="need budget >= 0, got budget=-5"):
        r4_find(h, budget=-5)
    assert r4_find(h, budget=0).status == "found"
