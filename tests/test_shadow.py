import io
import itertools
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecycles import shadow
from bergecycles.core import (
    ColoredHypergraph,
    InvalidParams,
    Params,
    binom,
    edge_table,
    random_coloring,
    rank_rows,
    rank_subset,
)
from bergecycles.shadow import (
    ShadowMulticoloring,
    build_shadow,
    dump_shadow,
    subset_color_counts,
    vertex_color_counts,
)


def shadow_oracle(h, t):
    """Count containing edges per (t-set, color) the slow, obvious way."""
    p = h.params
    counts = np.zeros((math.comb(p.n, t), p.c), dtype=np.int64)
    for edge in itertools.combinations(range(p.n), p.r):
        col = h.color_of(edge)
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


@given(small_instances(t_min=2))
@settings(max_examples=80, deadline=None)
def test_vertex_color_counts_match_incidence_pass(case):
    h, t = case
    s = build_shadow(h, t)
    assert np.array_equal(vertex_color_counts(s), subset_color_counts(h, 1))


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
    assert np.array_equal(s.counts, expected)
    thr = r - t + 1
    for rank in range(len(s.counts)):
        goods = tuple(i + 1 for i in range(c) if expected[rank, i] >= thr)
        assert s.good_colors(rank) == goods


def test_monochromatic_k5_triples():
    h = ColoredHypergraph(Params(n=5, r=3, t=2, c=2), np.ones(10, dtype=np.uint8))
    s = build_shadow(h, 2)
    # every pair lies in C(3,1)=3 triples, all color 1; threshold r-t+1 = 2
    assert (s.counts[:, 0] == 3).all()
    assert (s.counts[:, 1] == 0).all()
    assert all(s.good_colors(k) == (1,) for k in range(10))


def test_single_edge_instance_has_empty_goodsets():
    # n = r: each t-set lies in exactly one edge; threshold 2 unreachable for t < r
    h = ColoredHypergraph(Params(n=4, r=4, t=2, c=2), np.ones(1, dtype=np.uint8))
    s = build_shadow(h, 2)
    assert (s.counts.sum(axis=1) == 1).all()
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
    assert s.counts[pair, 1] == 3
    assert s.is_good(pair, 2)
    # drop one: exactly r-t = 2 edges -> no longer good
    colors = colors.copy()
    colors[rank_subset(target[-1])] = 1
    h2 = ColoredHypergraph(p, colors)
    s2 = build_shadow(h2, 2)
    assert s2.counts[pair, 1] == 2
    assert not s2.is_good(pair, 2)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_conservation(seed):
    h = random_coloring(Params(n=7, r=4, t=2, c=3), seed=seed)
    s = build_shadow(h, 2)
    assert (s.counts.sum(axis=1) == math.comb(5, 2)).all()


def test_dump_shadow_format():
    h = ColoredHypergraph(Params(n=4, r=3, t=2, c=2), np.ones(4, dtype=np.uint8))
    s = build_shadow(h, 2)
    buf = io.StringIO()
    dump_shadow(s, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 6
    # pair {0,1} sits in edges {0,1,2},{0,1,3}: 2 of color 1 -> good (threshold 2)
    assert lines[0] == "0 1 : 2 0 : 1"
    # every line parses as verts : counts : goods
    for line in lines:
        assert line.count(":") == 2
