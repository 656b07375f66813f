import contextlib
import io
import itertools
import math
import os
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


def incidence_oracle(h):
    """Per-vertex color incidence, one whole-table bincount per edge column."""
    p = h.params
    tab = edge_table(p.n, p.r)
    cols = h.colors.astype(np.int64)
    out = np.zeros(p.n * (p.c + 1), dtype=np.int64)
    for j in range(p.r):
        idx = tab[:, j].astype(np.int64) * (p.c + 1) + cols
        out += np.bincount(idx, minlength=out.size)
    return out.reshape(p.n, p.c + 1)[:, 1:]


@st.composite
def small_instances(draw, t_min=1):
    # r up to the Params ceiling of 9, so the peel carries down r-t <= 8 levels
    n = draw(st.integers(2, 11))
    r = draw(st.integers(2, min(9, n)))
    t = draw(st.integers(t_min, r))
    c = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10**6))
    return random_coloring(Params(n=n, r=r, t=2, c=c), seed=seed), t


@contextlib.contextmanager
def spans(cpus=None, chunk_rows=None):
    """Count as if `cpus` CPUs were usable (default: the host's); yields the
    threads the kernel starts."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    with contextlib.ExitStack() as stack:
        if cpus is not None:
            stack.enter_context(mock.patch.object(shadow, "_usable_cpus",
                                                  lambda: cpus))
        stack.enter_context(mock.patch.object(threading, "Thread", Recorded))
        if chunk_rows is not None:
            stack.enter_context(mock.patch.object(shadow, "_CHUNK_ROWS",
                                                  chunk_rows))
        yield started


def expected_spans(h, t, cpus):
    """One span per CPU and per whole chunk of the edge table."""
    p = h.params
    step = max(shadow._CHUNK_ROWS, binom(p.n, t) * p.c)
    return max(1, min(cpus, p.num_edges // step))


@given(small_instances())
@settings(max_examples=80, deadline=None)
def test_subset_color_counts_match_oracle(case):
    h, t = case
    expected = shadow_oracle(h, t)
    got = subset_color_counts(h, t)
    assert np.array_equal(got, expected)
    if t == 1:
        assert np.array_equal(got, incidence_oracle(h))
    # chunks floored at the key range alone, so small tables split too
    for cpus in (1, 3):
        with spans(cpus, chunk_rows=1) as started:
            assert np.array_equal(subset_color_counts(h, t), expected)
            assert len(started) == expected_spans(h, t, cpus) - 1


@pytest.mark.parametrize("t", range(1, 10))
def test_every_peel_depth_matches_oracle(t):
    # r - t carry levels, from none (t = r, one-hot) up to eight
    h = random_coloring(Params(n=11, r=9, t=2, c=3), seed=t)
    expected = shadow_oracle(h, t)
    for cpus in (1, 3):
        with spans(cpus, chunk_rows=1):
            assert np.array_equal(subset_color_counts(h, t), expected)


@given(small_instances(t_min=2))
@settings(max_examples=80, deadline=None)
def test_vertex_color_counts_match_incidence_pass(case):
    h, t = case
    s = build_shadow(h, t)
    assert np.array_equal(vertex_color_counts(s), subset_color_counts(h, 1))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_subset_color_counts_across_chunks(monkeypatch, t):
    monkeypatch.setattr(shadow, "_CHUNK_ROWS", 5)
    h = random_coloring(Params(n=14, r=5, t=2, c=2), seed=11)
    # chunks are floored at the key range C(n,t)*c; make sure there are several
    assert binom(14, 5) > 2 * max(5, binom(14, t) * 2)
    expected = shadow_oracle(h, t)
    for cpus in (1, 3):
        with spans(cpus) as started:
            assert np.array_equal(subset_color_counts(h, t), expected)
        # t = 3 has 728 keys, so its 2002 rows make only two whole chunks
        assert len(started) == (0 if cpus == 1 else 2 if t < 3 else 1)


def chunk_geometry(h, t):
    """For each chunk of the edge table, one flag per top-vertex block it
    meets: whether it holds that block whole."""
    p = h.params
    step = max(shadow._CHUNK_ROWS, binom(p.n, t) * p.c)
    first = [binom(d, p.r) for d in range(p.n + 1)]
    out = []
    for lo in range(0, p.num_edges, step):
        hi = min(lo + step, p.num_edges)
        out.append([lo <= first[d] and first[d + 1] <= hi
                    for d in range(p.r - 1, p.n)
                    if first[d] < hi and first[d + 1] > lo])
    return out


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_chunks_inside_one_block_and_across_whole_blocks(monkeypatch, t):
    # rows with top vertex d are the colex block [C(d,r), C(d+1,r)); the
    # lower-set weights add each chunk's piece of a block at its offset
    monkeypatch.setattr(shadow, "_CHUNK_ROWS", 200)
    h = random_coloring(Params(n=14, r=6, t=2, c=2), seed=7)
    geometry = chunk_geometry(h, t)
    assert any(whole == [False] for whole in geometry)
    assert any(sum(whole) >= 2 for whole in geometry)
    expected = shadow_oracle(h, t)
    for cpus in (1, 3):
        with spans(cpus) as started:
            assert np.array_equal(subset_color_counts(h, t), expected)
        assert len(started) == expected_spans(h, t, cpus) - 1


@pytest.mark.parametrize("n,r,c", [(9, 4, 3), (10, 6, 2), (11, 9, 4)])
def test_counts_at_t_equal_r_are_the_colors_one_hot(n, r, c):
    h = random_coloring(Params(n=n, r=r, t=2, c=c), seed=n)
    one_hot = np.eye(c, dtype=np.int64)[h.colors.astype(np.intp) - 1]
    with spans(3, chunk_rows=1) as started:
        got = subset_color_counts(h, h.params.r)
    assert started == []
    assert got.dtype == np.int64 and np.array_equal(got, one_hot)


def test_build_shadow_is_byte_identical_across_span_counts():
    h = random_coloring(Params(n=20, r=4, t=2, c=3), seed=3)
    ref = build_shadow(h, 2)
    for cpus in (1, 3):
        with spans(cpus, chunk_rows=1) as started:
            s = build_shadow(h, 2)
        assert len(started) == cpus - 1
        assert s.counts.tobytes() == ref.counts.tobytes()
        assert s.goodmask.tobytes() == ref.goodmask.tobytes()


@pytest.mark.parametrize("n,cpus,threads", [
    (40, 1, 0),    # two chunks, one CPU: inline
    (40, 8, 1),    # two chunks: two spans, however many CPUs
    (20, 8, 0),    # under one chunk: inline
])
def test_span_count_follows_cpus_and_whole_chunks(n, cpus, threads):
    h = random_coloring(Params(n=n, r=4, t=2, c=3), seed=0)
    with spans(cpus) as started:
        got = subset_color_counts(h, 2)
    assert len(started) == threads
    with spans(1):
        assert np.array_equal(got, subset_color_counts(h, 2))


def test_host_cpu_count_sets_the_spans():
    # under `taskset -c 0` this is the inline path: one CPU, no thread
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    assert shadow._usable_cpus() == cpus
    h = random_coloring(Params(n=40, r=4, t=2, c=3), seed=0)
    with spans() as started:
        got = subset_color_counts(h, 2)
    assert len(started) == min(cpus, 2) - 1
    with spans(1):
        assert np.array_equal(got, subset_color_counts(h, 2))


def test_many_spans_under_fast_thread_switching():
    # more spans than cores and a switch every microsecond: a lost update to
    # any span's bins would change the counts
    h = random_coloring(Params(n=14, r=5, t=2, c=2), seed=11)
    expected = shadow_oracle(h, 2)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with spans(8, chunk_rows=1) as started:
            for _ in range(5):
                assert np.array_equal(subset_color_counts(h, 2), expected)
    finally:
        sys.setswitchinterval(old)
    assert len(started) == 5 * 7
    assert not any(th.is_alive() for th in started)


def test_error_in_a_span_thread_reaches_the_caller():
    h = random_coloring(Params(n=14, r=5, t=2, c=2), seed=11)
    bad = h.colors.copy()
    bad[-1] = 3        # color c+1 on the last edge: a bin past the last key
    object.__setattr__(h, "colors", bad)
    with spans(3, chunk_rows=1) as started:
        with pytest.raises(ValueError):
            subset_color_counts(h, 2)
    assert len(started) == 2 and not any(th.is_alive() for th in started)


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
