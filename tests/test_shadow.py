import importlib.util
import io
import itertools
import math
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergecycles import shadow, structured_colorings
from bergecycles.core import (
    ColoredHypergraph,
    InvalidParams,
    Params,
    binom,
    edge_table,
    edges_through,
    random_coloring,
    rank_rows,
    rank_subset,
    unrank_rows,
)
from bergecycles.shadow import (
    _at_least,
    _pack_goodmask,
    build_shadow,
    dump_shadow,
    subset_color_counts,
)


def shadow_oracle(h, t):
    """Count containing edges per (t-set, color) the slow, obvious way."""
    p = h.params
    counts = np.zeros((math.comb(p.n, t), p.c), dtype=np.int64)
    for edge in itertools.combinations(range(p.n), p.r):
        col = int(h.colors[rank_subset(edge)])
        for sub in itertools.combinations(edge, t):
            counts[rank_subset(sub), col - 1] += 1
    return counts


def table_oracle(h, t):
    """The counts from the whole r-edge table: one bincount per t-subset of
    its columns, over `rank * c + color - 1`."""
    p = h.params
    tab = edge_table(p.n, p.r)
    colors = h.colors.astype(np.int64) - 1
    out = np.zeros(binom(p.n, t) * p.c, dtype=np.int64)
    for cols in itertools.combinations(range(p.r), t):
        out += np.bincount(rank_rows(tab[:, cols]) * p.c + colors,
                           minlength=out.size)
    return out.reshape(-1, p.c)


@st.composite
def small_instances(draw, t_min=1):
    # r up to the Params ceiling of 9, so the peel carries down r-t <= 8 levels
    n = draw(st.integers(2, 11))
    r = draw(st.integers(2, min(9, n)))
    t = draw(st.integers(t_min, r))
    c = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10**6))
    return random_coloring(Params(n=n, r=r, t=2, c=c), seed=seed), t


@given(small_instances())
@settings(max_examples=80, deadline=None)
def test_subset_color_counts_match_oracle(case):
    h, t = case
    expected = shadow_oracle(h, t)
    got = subset_color_counts(h, t)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, table_oracle(h, t))


@pytest.mark.parametrize("t", range(1, 10))
def test_every_peel_depth_matches_oracle(t):
    # r - t carry levels, from none (t = r, one-hot) up to eight
    h = random_coloring(Params(n=11, r=9, t=2, c=3), seed=t)
    assert np.array_equal(subset_color_counts(h, t), shadow_oracle(h, t))


@st.composite
def witness_instances(draw):
    # n on both sides of the first-block limit: at r = 4, k = 2 the first
    # blocks are read from n = 21 on, below it the full kernel counts
    n = draw(st.integers(2, 15) | st.integers(16, 40))
    r = draw(st.integers(2, min(6, n)))
    assume(binom(n, r) <= 200_000)
    k = draw(st.integers(1, r))
    c = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10**6))
    return random_coloring(Params(n=n, r=r, t=2, c=c), seed=seed), k


def assert_certified_equals_counted(h, k):
    counts = subset_color_counts(h, k)
    for m in range(1, h.params.r - k + 3):
        assert np.array_equal(_at_least(h, k, m), counts >= m), m
    if k >= 2:
        want = _pack_goodmask(counts >= h.params.r - k + 1)
        assert np.array_equal(build_shadow(h, k).goodmask, want)


@given(witness_instances())
@settings(max_examples=60, deadline=None)
def test_certified_goodness_equals_exact_counts(case):
    assert_certified_equals_counted(*case)


@given(witness_instances())
@settings(max_examples=40, deadline=None)
def test_at_least_vertex_counts_match_exact_counts(case):
    h, _ = case
    counts = subset_color_counts(h, 1)
    for m in (1, 2, 3):
        assert np.array_equal(_at_least(h, 1, m), counts >= m)


@pytest.mark.parametrize("kind,params", [
    ("random", None),
    ("partition", {"parts": 3}),
    ("majority", {"parts": 3}),
    ("near-mono", {"base": 2, "off": 1}),
    ("pair-lock", {"pair": (3, 17), "lock": 2}),
    ("u-profile", {"k23": 1, "k12": 1, "k13": 20}),
])
def test_certified_goodness_on_every_generator(kind, params):
    p = Params(n=30, r=4, t=2, c=3)
    if kind == "random":
        h = random_coloring(p, seed=5)
    else:
        h = next(structured_colorings(kind, {"n": 30, "r": 4, "c": 3, **params}))
    for k in (1, 2, 3):
        assert_certified_equals_counted(h, k)


def _census_fixtures():
    path = Path(__file__).resolve().parents[1] / "scripts" / "branch_census.py"
    spec = importlib.util.spec_from_file_location("branch_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.fixtures())


@pytest.mark.parametrize("label,make", _census_fixtures())
def test_certified_goodness_on_the_census_fixtures(label, make):
    h = make()
    counts = subset_color_counts(h, 2)
    assert np.array_equal(build_shadow(h, 2).goodmask, _pack_goodmask(counts >= 3))
    assert np.array_equal(_at_least(h, 1, 2), subset_color_counts(h, 1) >= 2)


@pytest.mark.parametrize("make,path", [
    # every pair certified by its first 28 edges
    (lambda: random_coloring(Params(n=40, r=4, t=2, c=2), seed=0),
     ["first block"]),
    # a few pairs in doubt, read on block by block
    (lambda: random_coloring(Params(n=85, r=4, t=2, c=3), seed=1),
     ["first block", "edges_through"]),
    # every pair in doubt in two colors: the next blocks pass the budget,
    # and the full kernel counts
    (lambda: next(structured_colorings(
        "near-mono", {"n": 40, "r": 4, "c": 3, "base": 2, "off": 1})),
     ["first block", "subset_color_counts"]),
    # C(15, 2) * C(8, 2) first-block ranks are not fewer than the C(15, 4)
    # edges: no block is read (so up to n = 20 at r = 4)
    (lambda: random_coloring(Params(n=15, r=4, t=2, c=2), seed=0),
     ["subset_color_counts"]),
])
def test_each_resolution_path(monkeypatch, make, path):
    h = make()
    calls = []

    def through(n, r, sets, start=0, stop=None):
        calls.append("edges_through" if start else "first block")
        return edges_through(n, r, sets, start, stop)

    def counts(*args, **kwargs):
        calls.append("subset_color_counts")
        return subset_color_counts(*args, **kwargs)

    monkeypatch.setattr(shadow, "edges_through", through)
    monkeypatch.setattr(shadow, "subset_color_counts", counts)
    shadow._first_block.cache_clear()       # so the first-block read shows
    got = build_shadow(h, 2).goodmask
    monkeypatch.undo()
    assert list(dict.fromkeys(calls)) == path
    assert np.array_equal(got, _pack_goodmask(subset_color_counts(h, 2) >= 3))


def spy_routes(monkeypatch):
    """The names of the full-count routes `subset_color_counts` takes."""
    routes = []
    for name in ("_minority_counts", "_peel_counts"):
        def spy(*args, _name=name, _fn=getattr(shadow, name)):
            routes.append(_name)
            return _fn(*args)
        monkeypatch.setattr(shadow, name, spy)
    return routes


def off_color_coloring(n, r, c, count, seed=0):
    """Color 1 on every edge of K_n^r but `count` seeded ones in 2..c."""
    p = Params(n=n, r=r, t=2, c=c)
    rng = np.random.default_rng(seed)
    colors = np.ones(p.num_edges, dtype=np.uint8)
    colors[rng.choice(p.num_edges, size=count, replace=False)] = rng.integers(
        2, c + 1, size=count)
    return ColoredHypergraph(p, colors)


@pytest.mark.parametrize("n,r", [(40, 4), (85, 4), (30, 5)])
def test_minority_route_equals_the_peel_on_near_mono(monkeypatch, n, r):
    # one off-color edge: every k takes the minority route
    h = next(structured_colorings(
        "near-mono", {"n": n, "r": r, "c": 3, "base": 2, "off": 1}))
    for k in range(1, r):
        routes = spy_routes(monkeypatch)
        got = subset_color_counts(h, k)
        monkeypatch.undo()
        assert routes == ["_minority_counts"], k
        assert got.dtype == np.int64
        assert np.array_equal(got, shadow._peel_counts(h, k)), k


@pytest.mark.parametrize("n,r,c", [(19, 4, 3), (14, 5, 2)])
def test_minority_gate_on_both_sides(monkeypatch, n, r, c):
    # (edges outside color 1) * C(r, k) <= C(n, r) / 8 takes the minority
    # route; one edge more takes the peel, and both count exactly.  C(r, k)
    # divides C(n, r) // 8 here (but at r = 4, k = 2), so the bound is met
    # with equality
    for k in range(1, r):
        edge = binom(n, r) // 8 // binom(r, k)
        for count, route in ((edge, "_minority_counts"), (edge + 1, "_peel_counts")):
            h = off_color_coloring(n, r, c, count, seed=k)
            routes = spy_routes(monkeypatch)
            got = subset_color_counts(h, k)
            monkeypatch.undo()
            assert routes == [route], (k, count)
            assert np.array_equal(got, shadow._peel_counts(h, k)), (k, count)
            assert np.array_equal(got, table_oracle(h, k)), (k, count)


@pytest.mark.parametrize("n,r", [(12, 4), (14, 6)])
def test_minority_route_with_one_color(monkeypatch, n, r):
    h = next(structured_colorings("near-mono", {"n": n, "r": r, "c": 1}))
    for k in range(1, r):
        routes = spy_routes(monkeypatch)
        got = subset_color_counts(h, k)
        monkeypatch.undo()
        assert routes == ["_minority_counts"]
        assert np.array_equal(got, shadow._peel_counts(h, k))
        assert (got[:, 0] == binom(n - k, r - k)).all()


@pytest.mark.parametrize("make,uses", [
    (lambda: next(structured_colorings(
        "near-mono", {"n": 85, "r": 4, "c": 3, "base": 2, "off": 1})), True),
    (lambda: random_coloring(Params(n=85, r=4, t=2, c=3), seed=0), False),
    (lambda: next(structured_colorings(
        "partition", {"n": 40, "r": 5, "c": 3, "parts": 3})), False),
])
def test_sparse_vertex_check_takes_the_minority_route_only_near_mono(
        monkeypatch, make, uses):
    # r4_find's first step on K_85^4; no k-set test on the others reads it
    h = make()
    routes = spy_routes(monkeypatch)
    got = _at_least(h, 1, 2)
    assert ("_minority_counts" in routes) == uses
    if not uses:
        for k in range(1, h.params.r):
            _at_least(h, k, h.params.r - k + 1)
            subset_color_counts(h, k)
        assert "_minority_counts" not in routes
    monkeypatch.undo()
    assert np.array_equal(got, shadow._peel_counts(h, 1) >= 2)


def record_blocks(monkeypatch):
    """The (rows, start, stop) of every `edges_through` call shadow makes."""
    blocks = []

    def spy(n, r, sets, start=0, stop=None):
        blocks.append((len(sets), start, stop))
        return edges_through(n, r, sets, start, stop)

    monkeypatch.setattr(shadow, "edges_through", spy)
    return blocks


def test_doubt_rows_read_only_prefix_blocks(monkeypatch):
    # K_128^4: every pair reads its first C(8, 2) = 28 edges, and the 34
    # left in doubt read on to their first C(16, 2) = 120 in ascending
    # rank, not their whole rows of C(126, 2) = 7,875
    h = random_coloring(Params(n=128, r=4, t=2, c=3), seed=[1, 2, 3])
    blocks = record_blocks(monkeypatch)
    shadow._first_block.cache_clear()
    got = build_shadow(h, 2).goodmask
    monkeypatch.undo()
    assert blocks == [(8128, 0, 28), (34, 28, 120)]
    assert np.array_equal(got, _pack_goodmask(subset_color_counts(h, 2) >= 3))


def pair_lock_40():
    """K_40^4 with every edge through {3, 17} of color 2."""
    return next(structured_colorings(
        "pair-lock", {"n": 40, "r": 4, "c": 3, "pair": (3, 17), "lock": 2}))


def test_doubt_rows_widen_to_an_exact_count(monkeypatch):
    # the blocks continue each row where its first C(8, 2) = 28 edges end
    # and double the free prefix; a row certified in every color drops
    # out, and the locked pair, with no edge of color 1 or 3, is read to
    # its end at C(38, 2) = 703, where its count is exact.  The first
    # blocks are read once, then served from the cache
    h = pair_lock_40()
    exact = subset_color_counts(h, 2)
    blocks = record_blocks(monkeypatch)
    shadow._first_block.cache_clear()
    for m, want in ((1, [(780, 0, 28), (1, 28, 120), (1, 120, 496), (1, 496, 703)]),
                    (5, [(34, 28, 120), (1, 120, 496), (1, 496, 703)])):
        blocks.clear()
        got = _at_least(h, 2, m)
        assert blocks == want, m
        assert np.array_equal(got, exact >= m), m


def counted_by_kernel(monkeypatch, h, k, m):
    """Whether `_at_least(h, k, m)` calls the full kernel; checks its answer."""
    calls = []

    def counts(*args):
        calls.append(args)
        return subset_color_counts(*args)

    monkeypatch.setattr(shadow, "subset_color_counts", counts)
    got = _at_least(h, k, m)
    monkeypatch.undo()
    assert np.array_equal(got, subset_color_counts(h, k) >= m)
    return bool(calls)


@pytest.mark.parametrize("label,make", [
    (label, make) for label, make in _census_fixtures()
    if label.startswith("u-profile")])
def test_rank_budget_keeps_the_u_profiles_off_the_kernel(monkeypatch, label, make):
    # ~108 pairs stay in doubt after their first blocks, ~43 of them short
    # in a color and read whole: ~225k ranks, inside C(85, 4) / 8 = 253k
    assert not counted_by_kernel(monkeypatch, make(), 2, 3)


def test_rank_budget_sends_near_mono_to_the_kernel(monkeypatch):
    # every pair of near-mono K_40^5 is short in colors 2 and 3; their
    # second blocks alone would read 780 * 504 ranks, past C(40, 5) / 8
    h = next(structured_colorings(
        "near-mono", {"n": 40, "r": 5, "c": 3, "base": 2, "off": 1}))
    assert counted_by_kernel(monkeypatch, h, 2, 3)
    # the locked pair of K_40^4 reads its whole row at m = 5, but at m = 8
    # the second blocks of the 768 pairs in doubt would read 768 * 92
    # ranks, past C(40, 4) / 8 = 11,423
    assert not counted_by_kernel(monkeypatch, pair_lock_40(), 2, 5)
    assert counted_by_kernel(monkeypatch, pair_lock_40(), 2, 8)


@pytest.mark.parametrize("n,r,k", [(16, 4, 1), (16, 4, 2), (24, 4, 2), (30, 5, 3),
                                   (20, 6, 4), (20, 9, 2), (85, 4, 2), (84, 3, 2)])
def test_witnesses_are_distinct_edges_through_their_k_set(n, r, k):
    # each k-set's witnesses are the first block of its row: the first
    # C(8, r-k) ranks of its full `edges_through` row, the edges whose
    # other vertices lie in its 8 lowest free vertices
    ranks = shadow._first_block(n, r, k)
    assert ranks.shape == (binom(n, k), binom(8, r - k))
    assert not ranks.flags.writeable
    assert np.all(np.diff(ranks, axis=1) > 0)
    sample = np.arange(0, binom(n, k), max(1, binom(n, k) // 60))
    tsets = edge_table(n, k)[sample].astype(np.intp)
    full = edges_through(n, r, tsets)
    assert np.array_equal(ranks[sample], full[:, :ranks.shape[1]])
    edges = unrank_rows(ranks[sample].ravel(), n, r).reshape(len(sample), -1, r)
    in_t = (edges[..., None] == tsets[:, None, None, :]).any(axis=3)
    assert (in_t.sum(axis=2) == k).all()
    # the other vertices: the 8 lowest vertices outside the k-set
    for row, tset in zip(edges, tsets):
        lowest = [v for v in range(n) if v not in tset][:8]
        assert set(row.ravel()) - set(tset) == set(lowest)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_subset_color_counts_across_chunks(t):
    # the table is counted in top-vertex blocks d = 4..13, each block adding
    # into the bins of the t-sets through d and into its lower-set weights
    h = random_coloring(Params(n=14, r=5, t=2, c=2), seed=11)
    expected = shadow_oracle(h, t)
    got = subset_color_counts(h, t)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, table_oracle(h, t))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_chunks_inside_one_block_and_across_whole_blocks(t):
    # rows with top vertex d are the colex block [C(d,r), C(d+1,r)); their
    # lower sets are the first C(d,r-1) rows of the (r-1)-table, and the
    # t-sets through d are the ranks [C(d,t), C(d+1,t))
    p = Params(n=14, r=6, t=2, c=2)
    tab, lower, tsets = (edge_table(p.n, k) for k in (p.r, p.r - 1, t))
    for d in range(p.r - 1, p.n):
        block = tab[binom(d, p.r):binom(d + 1, p.r)]
        assert (block[:, -1] == d).all()
        assert np.array_equal(block[:, :-1], lower[:binom(d, p.r - 1)])
        assert (tsets[binom(d, t):binom(d + 1, t), -1] == d).all()
    # recoloring one whole block moves only the bins of t-sets with top <= d
    h = random_coloring(p, seed=7)
    before = subset_color_counts(h, t)
    assert np.array_equal(before, shadow_oracle(h, t))
    d = 9
    colors = h.colors.copy()
    colors[binom(d, p.r):binom(d + 1, p.r)] = 3 - colors[binom(d, p.r):binom(d + 1, p.r)]
    h2 = ColoredHypergraph(p, colors)
    after = subset_color_counts(h2, t)
    assert np.array_equal(after, shadow_oracle(h2, t))
    moved = np.flatnonzero((after != before).any(axis=1))
    assert moved.size and moved.max() < binom(d + 1, t)


@pytest.mark.parametrize("n,r,c", [(9, 4, 3), (10, 6, 2), (11, 9, 4)])
def test_counts_at_t_equal_r_are_the_colors_one_hot(n, r, c):
    h = random_coloring(Params(n=n, r=r, t=2, c=c), seed=n)
    one_hot = np.eye(c, dtype=np.int64)[h.colors.astype(np.intp) - 1]
    got = subset_color_counts(h, h.params.r)
    assert got.dtype == np.int64 and np.array_equal(got, one_hot)


@pytest.mark.parametrize("c,dtype", [(44, np.int16), (45, np.int32)])
def test_counts_on_both_sides_of_the_int16_key_switch(c, dtype):
    # a key plus a color reaches C(39, 2) * c - 1: 32603 at c = 44, 33344 at
    # c = 45; r = 5 puts the switch in the top level and in one carry level
    h = random_coloring(Params(n=40, r=5, t=3, c=c), seed=c)
    for k in (4, 3):
        assert shadow._subset_keys(40, k, (0, 1), c).dtype == dtype
    assert np.array_equal(subset_color_counts(h, 3), table_oracle(h, 3))


def test_subset_color_counts_starts_no_thread():
    h = random_coloring(Params(n=40, r=4, t=2, c=3), seed=0)
    with mock.patch.object(threading.Thread, "start",
                           side_effect=AssertionError("thread started")):
        got = subset_color_counts(h, 2)
    assert np.array_equal(got, table_oracle(h, 2))


def test_many_spans_under_fast_thread_switching():
    # eight callers at once from a cold key cache, a switch every
    # microsecond: the cached keys are shared, so a torn or writeable entry
    # would change some caller's counts
    h = random_coloring(Params(n=14, r=5, t=2, c=2), seed=11)
    expected = shadow_oracle(h, 2)
    shadow._subset_keys.cache_clear()
    results = []
    callers = [threading.Thread(
        target=lambda: results.extend(subset_color_counts(h, 2) for _ in range(5)))
        for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in callers:
            th.start()
        for th in callers:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in callers)
    assert len(results) == 8 * 5
    assert all(np.array_equal(got, expected) for got in results)


def test_error_in_a_span_thread_reaches_the_caller():
    # the count runs on the calling thread, so a bad color raises there
    h = random_coloring(Params(n=14, r=5, t=2, c=2), seed=11)
    bad = h.colors.copy()
    bad[-1] = 3        # color c+1 on the last edge: a bin past the last key
    object.__setattr__(h, "colors", bad)
    with mock.patch.object(threading.Thread, "start",
                           side_effect=AssertionError("thread started")):
        with pytest.raises(ValueError):
            subset_color_counts(h, 2)


def test_subset_color_counts_rejects_bad_t():
    h = random_coloring(Params(n=6, r=3, t=2, c=2), seed=0)
    for t in (0, 4):
        with pytest.raises(InvalidParams):
            subset_color_counts(h, t)


@pytest.mark.parametrize("n,r,t,c,seed", [
    (5, 3, 2, 1, 0),
    (7, 4, 2, 3, 1),
    (7, 4, 3, 3, 2),
    (6, 5, 4, 2, 3),
    (8, 3, 3, 2, 4),  # t = r: threshold 1
])
def test_counts_match_oracle(n, r, t, c, seed):
    h = random_coloring(Params(n=n, r=r, t=2, c=c), seed=seed)
    s = build_shadow(h, t)
    expected = shadow_oracle(h, t)
    assert np.array_equal(subset_color_counts(h, t), expected)
    thr = r - t + 1
    for rank in range(len(expected)):
        goods = tuple(i + 1 for i in range(c) if expected[rank, i] >= thr)
        assert s.good_colors(rank) == goods


def test_monochromatic_k5_triples():
    h = ColoredHypergraph(Params(n=5, r=3, t=2, c=2), np.ones(10, dtype=np.uint8))
    s = build_shadow(h, 2)
    counts = subset_color_counts(h, 2)
    # every pair lies in C(3,1)=3 triples, all color 1; threshold r-t+1 = 2
    assert (counts[:, 0] == 3).all()
    assert (counts[:, 1] == 0).all()
    assert all(s.good_colors(k) == (1,) for k in range(10))


def test_single_edge_instance_has_empty_goodsets():
    # n = r: each t-set lies in exactly one edge; threshold 2 unreachable for t < r
    h = ColoredHypergraph(Params(n=4, r=4, t=2, c=2), np.ones(1, dtype=np.uint8))
    s = build_shadow(h, 2)
    assert (subset_color_counts(h, 2).sum(axis=1) == 1).all()
    assert (s.goodmask == 0).all()
    # ... but at t = r the threshold drops to 1
    s_tight = build_shadow(h, 4)
    assert s_tight.good_colors(0) == (1,)


def test_goodness_boundary_single_case():
    # engineer pair {0,1} to have exactly r-t+1 = 3 edges of color 2, rest color 1
    p = Params(n=7, r=4, t=2, c=2)
    colors = np.ones(p.num_edges, dtype=np.uint8)
    target = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)]
    colors[[rank_subset(e) for e in target]] = 2
    h = ColoredHypergraph(p, colors)
    s = build_shadow(h, 2)
    pair = rank_subset((0, 1))
    assert subset_color_counts(h, 2)[pair, 1] == 3
    assert s.goodmask[pair] >> 1 & 1
    # drop one: exactly r-t = 2 edges -> no longer good
    colors = colors.copy()
    colors[rank_subset(target[-1])] = 1
    h2 = ColoredHypergraph(p, colors)
    s2 = build_shadow(h2, 2)
    assert subset_color_counts(h2, 2)[pair, 1] == 2
    assert not s2.goodmask[pair] >> 1 & 1


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_conservation(seed):
    h = random_coloring(Params(n=7, r=4, t=2, c=3), seed=seed)
    assert (subset_color_counts(h, 2).sum(axis=1) == math.comb(5, 2)).all()


def test_dump_shadow_format():
    h = ColoredHypergraph(Params(n=4, r=3, t=2, c=2), np.ones(4, dtype=np.uint8))
    s = build_shadow(h, 2)
    buf = io.StringIO()
    dump_shadow(h, s, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 6
    # pair {0,1} sits in edges {0,1,2},{0,1,3}: 2 of color 1 -> good (threshold 2)
    assert lines[0] == "0 1 : 2 0 : 1"
    # every line parses as verts : counts : goods
    for line in lines:
        assert line.count(":") == 2


def tally_reference(h, ranks):
    """Per row of ranks and color, its edges of that color, counted directly."""
    return np.stack([np.count_nonzero(h.colors[ranks] == i, axis=1)
                     for i in range(1, h.params.c + 1)], axis=1)


def test_tally_counts_a_cached_first_block():
    h = random_coloring(Params(n=85, r=4, t=2, c=3), seed=5)
    ranks = shadow._first_block(85, 4, 2)
    assert np.array_equal(shadow._tally(h, ranks), tally_reference(h, ranks))


def test_tally_counts_a_monochrome_block_past_255():
    # the locked pair's third block, C(32, 2) - C(16, 2) = 376 edges, all of
    # color 2: its count passes 255, so it wraps in a uint8 sum
    h = pair_lock_40()
    ranks = edges_through(40, 4, [[3, 17]], binom(16, 2), binom(32, 2))
    assert ranks.shape == (1, 376)
    got = shadow._tally(h, ranks)
    assert got.tolist() == [[0, 376, 0]]
    assert np.array_equal(got, tally_reference(h, ranks))


def test_tally_counts_a_monochrome_row_past_65535():
    # vertex 0 of a monochrome K_85^4 lies in C(84, 3) = 95,284 edges: its
    # count passes 65,535, so it wraps in a uint16 sum
    p = Params(n=85, r=4, t=2, c=2)
    h = ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))
    ranks = edges_through(85, 4, [[0]])
    assert ranks.shape == (1, 95_284)
    got = shadow._tally(h, ranks)
    assert got.tolist() == [[95_284, 0]]
    assert np.array_equal(got, tally_reference(h, ranks))


@pytest.mark.parametrize("good,want", [
    ([[True], [False]], [1, 0]),
    ([[True, False, True], [False, True, False], [True, True, True],
      [False, False, False]], [0b101, 0b010, 0b111, 0]),
    ([[i == 31 for i in range(32)], [True] * 32, [i == 0 for i in range(32)]],
     [2**31, 2**32 - 1, 1]),
], ids=["c=1", "c=3", "c=32"])
def test_pack_goodmask_sets_bit_i_minus_1_for_color_i(good, want):
    got = _pack_goodmask(np.array(good, dtype=bool))
    assert got.dtype == np.uint32
    assert got.tolist() == want


def test_build_shadow_rejects_more_than_32_colors():
    # the goodmask has one uint32 bit per color; color 33 would drop out
    p = Params(n=6, r=3, t=3, c=33)
    h = ColoredHypergraph(p, np.full(p.num_edges, 33, dtype=np.uint8))
    with pytest.raises(InvalidParams, match="c <= 32"):
        build_shadow(h, 3)


@pytest.mark.parametrize("t", [2, 3])
def test_color_32_is_good_in_bit_31(t):
    from bergecycles.harness import find_certificate
    p = Params(n=6, r=3, t=t, c=32)
    h = ColoredHypergraph(p, np.full(p.num_edges, 32, dtype=np.uint8))
    s = build_shadow(h, t)
    assert (s.goodmask == 2**31).all()
    assert s.good_colors(0) == (32,)
    res = find_certificate(h)
    assert res.status == "found" and res.certificate.color == 32


@pytest.mark.parametrize("c", [1, 32])
def test_at_least_reads_first_blocks_at_1_and_32_colors(c):
    # C(40, 2) * C(8, 2) = 21,840 first-block ranks < C(40, 4) = 91,390
    # edges, so every pair's doubt test runs over all c count columns
    h = random_coloring(Params(n=40, r=4, t=2, c=c), seed=7)
    assert shadow._reads_first_blocks(40, 4, 2)
    assert np.array_equal(_at_least(h, 2, 3), subset_color_counts(h, 2) >= 3)
