import numpy as np
import pytest

from bergecycles.core import (
    ColoredHypergraph,
    Params,
    random_coloring,
    rank_subset,
    verify_berge_certificate,
)
from bergecycles.harness import structured_colorings
from bergecycles.r4 import (
    PivotInvariantViolation,
    SingleGoodEdge,
    UProfile,
    _GammaBuilder,
    _repair,
    classify_and_pivot,
    compute_u_profiles,
    r4_find,
    relabel_colors,
)
from bergecycles.shadow import build_shadow


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


def test_relabel_permutes_colors_and_shadow():
    h = random_coloring(Params(n=9, r=4, t=2, c=3), seed=4)
    s = build_shadow(h, 2)
    h2, s2 = relabel_colors(h, s, (2, 3, 1))
    assert h2.color_of((0, 1, 2, 3)) == (2, 3, 1)[h.color_of((0, 1, 2, 3)) - 1]
    assert np.array_equal(s2.counts[:, 1], s.counts[:, 0])
    assert np.array_equal(s2.counts[:, 0], s.counts[:, 2])


# ---------------------------------------------------------------------------
# full pipeline, one fixture per branch (subcases frozen at first run)


def test_random_coloring_takes_the_cover_branch():
    h = random_coloring(Params(n=85, r=4, t=2, c=3), seed=1)
    res = found(h)
    assert res.trace.branch == "B-cover"


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


def test_repair_adds_the_pair_and_sends_the_rest_of_its_edge_to_d():
    # the intersecting repair variants pass extra vertices to keep out of D;
    # no census fixture reaches them
    gb = _GammaBuilder(random_coloring(Params(n=6, r=4, t=2, c=3), seed=0))
    D: set[int] = set()
    _repair(gb, D, 0, 1, 2, (0, 1, 2, 3))
    _repair(gb, D, 0, 4, 5, (0, 2, 4, 5), 2)
    assert gb.prov == {(1, 2): ("E6", (0, 1, 2, 3)), (4, 5): ("E6", (0, 2, 4, 5))}
    assert D == {3}


def test_color_relabel_round_trip():
    base = u_profile(n=85, k23=1, k12=1, k13=41, deg_w=0, deg_u23=0)
    lut = np.array([0, 2, 3, 1], dtype=np.uint8)
    h = ColoredHypergraph(base.params, lut[base.colors])
    res = found(h)                          # verifies against the input
    assert {"step": "color-relabel-reduction", "sigma": [1, 3, 2]} \
        in res.trace.steps
    assert res.trace.branch == "case-2"


def test_trace_serializes_to_json():
    import json
    h = u_profile(n=85, k23=1, k12=1, k13=41, deg_w=2, deg_u23=2)
    res = found(h)
    blob = json.dumps(res.trace.to_json_dict())
    back = json.loads(blob)
    assert back["branch"] == "case-2"
    assert set(back) >= {"branch", "subcase", "fallbacks", "steps", "pivot"}
