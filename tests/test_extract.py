import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecycles import checker, extract, shadow
from bergecycles.core import (
    ColoredHypergraph,
    InternalError,
    Params,
    TightCycleWitness,
    binom,
    edges_through,
    random_coloring,
    rank_rows,
    rank_subset,
    verify_berge_certificate,
)
from bergecycles.extract import (
    MatchingIncomplete,
    PositionEdgeBipartite,
    WitnessInvalid,
    build_position_bipartite,
    cycle_windows,
    extend_tight_cycle,
    lift_to_berge,
    max_bipartite_matching,
)
from bergecycles.harness import find_certificate
from bergecycles.shadow import build_shadow
from test_shadow import _census_fixtures


def mono(n, r, c=1):
    p = Params(n=n, r=r, t=2, c=c)
    return ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))


def test_matching_identity_on_private_edges():
    g = PositionEdgeBipartite(4, [np.array([i]) for i in range(4)])
    assert max_bipartite_matching(g).tolist() == [0, 1, 2, 3]


def test_matching_reports_unmatchable_position():
    g = PositionEdgeBipartite(3, [np.array([7]), np.array([], dtype=np.int64),
                                  np.array([7, 8])])
    m = max_bipartite_matching(g)
    assert m[1] == -1 and sorted(x for x in m if x >= 0) == [7, 8]


def test_matching_augments_through_conflicts():
    # positions 0,1 both prefer edge 5; augmenting must shift one to 6
    g = PositionEdgeBipartite(2, [np.array([5]), np.array([5, 6])])
    assert max_bipartite_matching(g).tolist() == [5, 6]


def test_k4_tight_example_uses_all_triples():
    h = mono(4, 3)
    w = TightCycleWitness(color=1, core=(0, 1, 2, 3), t=2)
    s = build_shadow(h, 2)
    cert = extend_tight_cycle(w, h, s)
    assert verify_berge_certificate(cert, h) is None
    assert sorted(cert.edges) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_k5_mono_extraction():
    h = mono(5, 3)
    s = build_shadow(h, 2)
    cert = extend_tight_cycle(TightCycleWitness(1, (0, 1, 2, 3, 4), 2), h, s)
    assert verify_berge_certificate(cert, h) is None
    assert len(set(cert.edges)) == 5


def test_witness_invalid_when_window_below_threshold():
    # demote pair {0,1}: leave only 1 color-1 triple containing it (threshold 2)
    h = mono(5, 3, c=2)
    colors = h.colors.copy()
    colors[[rank_subset(e) for e in [(0, 1, 2), (0, 1, 3)]]] = 2
    h = ColoredHypergraph(h.params, colors)
    s = build_shadow(h, 2)
    w = TightCycleWitness(color=1, core=(0, 1, 2, 3, 4), t=2)
    with pytest.raises(WitnessInvalid) as exc:
        extend_tight_cycle(w, h, s)
    assert exc.value.position == 0


def test_witness_invalid_on_bad_core():
    h = mono(5, 3)
    s = build_shadow(h, 2)
    with pytest.raises(WitnessInvalid):
        extend_tight_cycle(TightCycleWitness(1, (0, 1, 2, 3, 3), 2), h, s)
    with pytest.raises(WitnessInvalid):
        extend_tight_cycle(TightCycleWitness(1, (0, 1, 2, 3, 4), 3), h, s)


def test_lift_rejects_a_core_that_is_no_permutation():
    # the covering bound, and the lift, assume a cycle through every vertex
    with pytest.raises(InternalError, match="not a permutation"):
        lift_to_berge(TightCycleWitness(1, (0, 1, 2, 3, 3), 2), mono(5, 3))


def test_the_solvers_guard_is_the_checker(monkeypatch):
    # the verdict on every solver certificate is checker.certificate_error's
    h, w = mono(7, 4), TightCycleWitness(1, tuple(range(7)), 2)
    cert = lift_to_berge(w, h)
    monkeypatch.setattr(checker, "certificate_error", lambda *args, **kwargs: "sentinel")
    assert verify_berge_certificate(cert, h) == "sentinel"
    with pytest.raises(InternalError, match="^assembled certificate invalid: sentinel$"):
        lift_to_berge(w, h)


def test_right_degree_bound_holds():
    # an edge can back at most r-t+1 consecutive windows
    for seed in range(5):
        h = random_coloring(Params(n=8, r=4, t=2, c=2), seed=seed)
        w = TightCycleWitness(color=1, core=tuple(range(8)), t=2)
        g = build_position_bipartite(w, h)
        degs = g.right_degrees()
        assert degs and max(degs.values()) <= 3
        assert g.right_degrees(above=1) == {e: d for e, d in degs.items() if d > 1}
        assert g.right_degrees(above=3) == {}


def test_tight_t_equals_r_extraction():
    # r = t = 3: each window has exactly one candidate (itself)
    h = mono(6, 3)
    s = build_shadow(h, 3)
    w = TightCycleWitness(color=1, core=(0, 2, 4, 1, 5, 3), t=3)
    cert = extend_tight_cycle(w, h, s)
    assert verify_berge_certificate(cert, h) is None
    assert sorted(cert.edges) == sorted(map(tuple, cycle_windows(w.core, 3).tolist()))


@given(st.permutations(list(range(7))))
@settings(max_examples=60, deadline=None)
def test_any_core_extracts_on_monochromatic(core):
    h = mono(7, 3)
    s = build_shadow(h, 2)
    cert = extend_tight_cycle(TightCycleWitness(1, tuple(core), 2), h, s)
    assert verify_berge_certificate(cert, h) is None


@st.composite
def cycle_instances(draw):
    r = draw(st.integers(3, 6))
    t = draw(st.integers(2, r - 1))
    n = draw(st.integers(r, 12))
    c = draw(st.integers(1, 3))
    h = random_coloring(Params(n=n, r=r, t=t, c=c), seed=draw(st.integers(0, 10**6)))
    core = tuple(draw(st.permutations(list(range(n)))))
    return h, TightCycleWitness(color=draw(st.integers(1, c)), core=core, t=t)


@given(cycle_instances())
@settings(max_examples=80, deadline=None)
def test_position_pools_match_per_window_enumeration(case):
    # each pool is the color-filtered ascending ranks of the r-sets through
    # its window, enumerated here one window at a time
    h, w = case
    p = h.params
    g = build_position_bipartite(w, h)
    assert g.n_positions == p.n and len(g.adj) == p.n
    for win, got in zip(map(tuple, cycle_windows(w.core, w.t).tolist()), g.adj):
        rest = [v for v in range(p.n) if v not in win]
        ranks = sorted(rank_subset(tuple(sorted(win + extra)))
                       for extra in itertools.combinations(rest, p.r - w.t))
        assert list(got) == [k for k in ranks if h.colors[k] == w.color]


def test_matching_deterministic():
    h = random_coloring(Params(n=9, r=4, t=2, c=2), seed=42)
    w = TightCycleWitness(color=1, core=tuple(range(9)), t=2)
    g1 = build_position_bipartite(w, h)
    g2 = build_position_bipartite(w, h)
    assert np.array_equal(max_bipartite_matching(g1), max_bipartite_matching(g2))


def candidate_degrees(h, w):
    """Edge rank -> windows of w it is a w.color candidate for, every
    candidate enumerated one window at a time."""
    p = h.params
    degree = Counter()
    for win in cycle_windows(w.core, w.t).tolist():
        rest = [v for v in range(p.n) if v not in win]
        extra = np.array(list(itertools.combinations(rest, p.r - w.t)),
                         dtype=np.intp).reshape(-1, p.r - w.t)
        rows = np.sort(np.hstack([np.tile(win, (len(extra), 1)), extra]), axis=1)
        ranks = rank_rows(rows)
        degree.update(ranks[h.colors[ranks] == w.color].tolist())
    return degree


@given(cycle_instances())
@settings(max_examples=80, deadline=None)
def test_covering_bound_holds_over_every_candidate(case):
    # an r-set holds at most r-t+1 windows of a cycle on n > r vertices; at
    # n = r the one edge holds all n of them and the lift cannot match
    h, w = case
    p = h.params
    degree = candidate_degrees(h, w)
    if p.n > p.r:
        assert max(degree.values(), default=0) <= p.r - w.t + 1
    else:
        assert set(degree.values()) <= {p.n}
        if degree:
            with pytest.raises(MatchingIncomplete):
                lift_to_berge(w, h)


@pytest.mark.parametrize("label,make", _census_fixtures())
def test_covering_bound_holds_on_the_census_cores(label, make):
    h = make()
    cert = find_certificate(h).certificate
    w = TightCycleWitness(cert.color, cert.core, cert.t)
    assert max(candidate_degrees(h, w).values()) <= h.params.r - w.t + 1


def test_lazy_rows_read_only_a_first_block():
    # every row starts with the edges through the 8 lowest free vertices
    # and widens, doubling that prefix, only when read past its end
    h = random_coloring(Params(n=40, r=4, t=2, c=3), seed=3)
    w = TightCycleWitness(color=1, core=tuple(range(40)), t=2)
    g = build_position_bipartite(w, h)
    assert {row.free for row in g.adj} == {8}
    full = [list(row) for row in g.adj]          # reading to the end widens
    assert {row.free for row in g.adj} == {38}
    assert all(row.ranks == got for row, got in zip(g.adj, full))


@pytest.mark.parametrize("params,reads_cache", [
    # C(85, 2) * C(8, 2) = 99,960 first-block ranks < C(85, 4) edges: the
    # rows are looked up in the shadow's cache
    (Params(n=85, r=4, t=2, c=3), True),
    # C(24, 4) * C(8, 4) = 743,820 ranks >= C(24, 8) = 735,471 edges: the
    # shadow reads no first block, and the lift calls edges_through
    (Params(n=24, r=8, t=4, c=2), False),
])
def test_first_block_rows_on_both_sides_of_the_gate(monkeypatch, params, reads_cache):
    h = random_coloring(params, seed=5)
    core = tuple(np.random.default_rng(5).permutation(params.n).tolist())
    w = TightCycleWitness(color=2, core=core, t=params.t)
    assert shadow._reads_first_blocks(params.n, params.r, params.t) is reads_cache

    def unused(*args, **kwargs):
        raise AssertionError("the other route was taken")
    monkeypatch.setattr(extract, "edges_through" if reads_cache else "_first_block",
                        unused)
    g = build_position_bipartite(w, h)
    monkeypatch.undo()
    stop = binom(min(8, params.n - params.t), params.r - params.t)
    for win, row in zip(cycle_windows(w.core, w.t), g.adj):
        ranks = edges_through(params.n, params.r, [win], stop=stop)[0]
        assert row.free == min(8, params.n - params.t)
        assert row.ranks == ranks[h.colors[ranks] == w.color].tolist()
