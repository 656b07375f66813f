import io
import itertools
import math

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
    bad_edge_set,
    build_shadow,
    dump_shadow,
    recolor_edge,
    subset_color_counts,
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
def small_instances(draw):
    n = draw(st.integers(2, 9))
    r = draw(st.integers(2, min(6, n)))
    t = draw(st.integers(1, r))
    c = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10**6))
    return random_coloring(Params(n=n, r=r, t=2, c=c), seed=seed), t


@given(small_instances())
@settings(max_examples=80, deadline=None)
def test_subset_color_counts_match_oracle(case):
    h, t = case
    got = subset_color_counts(h, t)
    assert np.array_equal(got, shadow_oracle(h, t))
    if t == 1:
        assert np.array_equal(got, incidence_oracle(h))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_subset_color_counts_across_chunks(monkeypatch, t):
    monkeypatch.setattr(shadow, "_CHUNK_ROWS", 5)
    h = random_coloring(Params(n=14, r=5, t=2, c=2), seed=11)
    # chunks are floored at the key range C(n,t)*c; make sure there are several
    assert binom(14, 5) > 2 * max(5, binom(14, t) * 2)
    assert np.array_equal(subset_color_counts(h, t), shadow_oracle(h, t))


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
    assert len(bad_edge_set(s, 1)) == 0
    assert len(bad_edge_set(s, 2)) == 10


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
    h = ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))
    target = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)]
    for e in target:
        h = h.with_color(rank_subset(e), 2)
    s = build_shadow(h, 2)
    pair = rank_subset((0, 1))
    assert s.counts[pair, 1] == 3
    assert s.is_good(pair, 2)
    # drop one: exactly r-t = 2 edges -> no longer good
    h2 = h.with_color(rank_subset(target[-1]), 1)
    s2 = build_shadow(h2, 2)
    assert s2.counts[pair, 1] == 2
    assert not s2.is_good(pair, 2)


def test_bad_edge_set_consistency_and_validation():
    h = random_coloring(Params(n=7, r=4, t=2, c=3), seed=9)
    s = build_shadow(h, 2)
    for i in (1, 2, 3):
        bad = set(bad_edge_set(s, i).tolist())
        good = {k for k in range(len(s.goodmask)) if s.is_good(k, i)}
        assert bad.isdisjoint(good)
        assert len(bad) + len(good) == math.comb(7, 2)
    with pytest.raises(InvalidParams):
        bad_edge_set(s, 0)
    with pytest.raises(InvalidParams):
        bad_edge_set(s, 4)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_conservation(seed):
    h = random_coloring(Params(n=7, r=4, t=2, c=3), seed=seed)
    s = build_shadow(h, 2)
    assert (s.counts.sum(axis=1) == math.comb(5, 2)).all()


@given(st.integers(0, 10**6), st.data())
@settings(max_examples=40, deadline=None)
def test_recolor_matches_rebuild(seed, data):
    p = Params(n=6, r=4, t=2, c=3)
    h = random_coloring(p, seed=seed)
    s = build_shadow(h, 2)
    rank = data.draw(st.integers(0, p.num_edges - 1))
    color = data.draw(st.integers(1, 3))
    h2, s2 = recolor_edge(h, s, rank, color)
    fresh = build_shadow(h2, 2)
    assert np.array_equal(s2.counts, fresh.counts)
    assert np.array_equal(s2.goodmask, fresh.goodmask)
    # original shadow untouched
    assert np.array_equal(s.counts, build_shadow(h, 2).counts)


def test_recolor_touches_only_inside_tsets():
    p = Params(n=7, r=4, t=2, c=2)
    h = random_coloring(p, seed=5)
    s = build_shadow(h, 2)
    rank = rank_subset((1, 3, 4, 6))
    old = h.color_of_rank(rank)
    new = 1 if old == 2 else 2
    _, s2 = recolor_edge(h, s, rank, new)
    diff = np.flatnonzero((s.counts != s2.counts).any(axis=1))
    inside = sorted(rank_subset(q) for q in itertools.combinations((1, 3, 4, 6), 2))
    assert sorted(diff.tolist()) == inside
    delta = s2.counts[inside].astype(int) - s.counts[inside].astype(int)
    assert (delta[:, old - 1] == -1).all() and (delta[:, new - 1] == 1).all()


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
