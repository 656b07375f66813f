import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecycles.core import (
    ColoredHypergraph,
    Params,
    binom,
    random_coloring,
    rank_subset,
    unrank_subset,
)
from bergecycles.hamilton import (
    HamiltonSearch,
    SimpleGraph,
    _peel_closure_cycle,
    bondy_chvatal_closure,
    find_hamiltonian_cycle,
    find_mono_ham_tight_cycle,
    good_pair_graph,
)
from bergecycles.harness import _coloring_for_trial
from bergecycles.shadow import build_shadow


def graph(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return SimpleGraph(n, rows)


def complete(n):
    return graph(n, itertools.combinations(range(n), 2))


def chvatal_holds(d):
    """Chvátal's Hamiltonicity condition: for 1 <= i < n/2, d_i > i or d_{n-i} >= n-i."""
    d, n = sorted(d), len(d)
    return all(d[i - 1] > i or d[n - i - 1] >= n - i for i in range(1, (n + 1) // 2))


def cycle_graph(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return graph(10, edges)


def is_cycle_of(g, cycle):
    n = g.n
    return (sorted(cycle) == list(range(n))
            and all(g.has_edge(cycle[i], cycle[(i + 1) % n]) for i in range(n)))


def hamiltonian_oracle(g):
    """Permutation brute force (first vertex pinned, reflection halved)."""
    n = g.n
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        cyc = (0,) + perm
        if all(g.has_edge(cyc[i], cyc[(i + 1) % n]) for i in range(n)):
            return True
    return False


def test_find_on_complete_graph():
    res = find_hamiltonian_cycle(complete(5))
    assert res.status == "found" and is_cycle_of(complete(5), res.cycle)


def test_find_on_cycle_graph():
    g = cycle_graph(6)
    res = find_hamiltonian_cycle(g)
    assert res.status == "found" and is_cycle_of(g, res.cycle)


def test_petersen_is_not_hamiltonian():
    res = find_hamiltonian_cycle(petersen())
    assert res.status == "none"


def test_low_degree_and_disconnection_shortcut():
    g = graph(4, [(0, 1), (1, 2), (2, 3)])  # path: degree-1 ends
    assert find_hamiltonian_cycle(g).status == "none"
    g2 = graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert find_hamiltonian_cycle(g2).status == "none"


def test_budget_exhaustion_reported():
    # sparse non-Hamiltonian graph, absurdly small budget: must say budget, not none
    g = petersen()
    res = find_hamiltonian_cycle(g, budget=3)
    assert res.status == "budget"


def test_budget_monotonicity_on_petersen():
    # statuses along growing budgets: budget* then none forever
    statuses = [find_hamiltonian_cycle(petersen(), budget=b).status
                for b in (1, 10, 100, 10**6)]
    assert "found" not in statuses
    tail = statuses[statuses.index("none"):] if "none" in statuses else []
    assert all(s == "none" for s in tail)


def loop_closure(g):
    """The closure as a loop over every pair u < v: the reference."""
    n = g.n
    rows = list(g.rows)
    degs = [r.bit_count() for r in rows]
    added = []
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(u + 1, n):
                if not rows[u] >> v & 1 and degs[u] + degs[v] >= n:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    degs[u] += 1
                    degs[v] += 1
                    added.append((u, v))
                    changed = True
    return rows, added


def random_graph(n, density, rng):
    adj = np.triu(rng.random((n, n)) < density, 1)
    adj |= adj.T
    packed = np.packbits(adj, axis=1, bitorder="little")
    return SimpleGraph(n, [int.from_bytes(row.tobytes(), "little") for row in packed])


@pytest.mark.parametrize("n", [3, 4, 7, 12, 25, 40, 64, 85, 128])
def test_closure_matches_its_pair_loop_reference(n):
    rng = np.random.default_rng(n)
    grew = 0
    for density in np.linspace(0, 1, 21):
        g = random_graph(n, density, rng)
        before = list(g.rows)
        got = bondy_chvatal_closure(g)
        assert got == loop_closure(g), density
        assert g.rows == before
        grew += bool(got[1])
    assert grew or n == 3       # at n = 3 a non-edge's degree sum is at most 2


def test_route_names_the_engine_that_decided():
    # random K_85^4: every color's good-pair graph closes to K_85
    for seed in range(3):
        s = build_shadow(random_coloring(Params(n=85, r=4, t=2, c=3), seed=seed), 2)
        for color in (1, 2, 3):
            res = find_hamiltonian_cycle(good_pair_graph(s, color))
            assert (res.status, res.route) == ("found", "closure-peel")
    # the CI stress sweep at r = 3, c = 3: trial 5 at n = 7, color 1, misses
    # the closure and is found by the backtracker; trial 6, color 3, is not
    # Hamiltonian and only the backtracker can say so
    for trial, color, status in ((5, 1, "found"), (6, 3, "none")):
        h = _coloring_for_trial(Params(n=7, r=3, t=2, c=3), "random", 0, trial)
        res = find_hamiltonian_cycle(good_pair_graph(build_shadow(h, 2), color))
        assert (res.status, res.route) == (status, "backtracking")
        assert res.expansions > 0
    assert find_hamiltonian_cycle(complete(5)).route == "closure-peel"
    assert find_hamiltonian_cycle(cycle_graph(5)).route == "backtracking"
    assert find_hamiltonian_cycle(petersen(), budget=3).route == "backtracking"
    # the degree/connectivity shortcut names no engine
    two = graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert find_hamiltonian_cycle(two) == HamiltonSearch("none", None, 0, None)


def test_closure_adds_nothing_below_threshold():
    g = cycle_graph(8)
    rows, added = bondy_chvatal_closure(g)
    assert added == [] and rows == g.rows


def test_closure_route_on_dense_graph():
    # complete graph minus a perfect matching: degrees n-2, closure completes
    n = 10
    g = complete(n)
    for v in range(0, n, 2):
        g.rows[v] &= ~(1 << (v + 1))
        g.rows[v + 1] &= ~(1 << v)
    assert chvatal_holds(g.degrees())
    res = find_hamiltonian_cycle(g)
    assert res.status == "found" and is_cycle_of(g, res.cycle)
    assert res.expansions == 0  # never reached the backtracker


@pytest.mark.parametrize("removed", [(4, 0), (0, 4)])
def test_peel_removes_the_wrap_edge_in_either_orientation(removed):
    # the removed edge closes the cycle (cyc[-1], cyc[0]): the path to repair
    # runs 0..4, and the first crossing chord pair reverses its tail
    n = 5
    rows = complete(n).rows
    cyc = _peel_closure_cycle(rows, [removed], list(range(n)))
    assert cyc == [0, 1, 4, 3, 2]
    g = complete(n)
    g.rows[0] &= ~(1 << 4)
    g.rows[4] &= ~(1 << 0)
    assert is_cycle_of(g, cyc)


def index_peel(rows_closed, added, cycle):
    """The closure peel that finds each removed edge by `cyc.index`: the
    reference."""
    rows = list(rows_closed)
    cyc = cycle
    n = len(cyc)
    for u, v in reversed(added):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        pos = cyc.index(u)
        if cyc[(pos + 1) % n] != v:
            pos -= 1
            if cyc[pos] != v:
                continue
        path = cyc[pos + 1:] + cyc[:pos + 1]
        a, b = path[0], path[-1]
        for j in range(1, n - 1):
            if rows[b] >> path[j] & 1 and rows[a] >> path[j + 1] & 1:
                cyc = path[:j + 1] + path[j + 1:][::-1]
                break
        else:
            raise AssertionError(f"no crossing chord for ({u}, {v})")
    return cyc


@pytest.mark.parametrize("n", [8, 12, 40, 85, 128])
def test_peel_matches_its_index_reference_on_random_graphs(n):
    rng = np.random.default_rng(n)
    peeled = 0
    for density in (0.45, 0.5, 0.55, 0.6, 0.75, 0.9):
        g = random_graph(n, density, rng)
        rows, added = bondy_chvatal_closure(g)
        if any(r != (1 << n) - 1 ^ 1 << v for v, r in enumerate(rows)):
            continue
        for start in (list(range(n)), rng.permutation(n).tolist()):
            cyc = _peel_closure_cycle(rows, added, list(start))
            assert cyc == index_peel(rows, added, list(start)), density
            assert is_cycle_of(g, cyc)
        peeled += 1
    assert peeled >= 3


def test_peel_matches_its_index_reference_on_the_census_peels(monkeypatch):
    # every peel the 16 branch-census solves run: good-pair graphs on the
    # B-cover and vertex routes, Gamma on the case fixtures
    from bergecycles import hamilton
    from bergecycles.r4 import r4_find
    from test_shadow import _census_fixtures
    peel, seen = hamilton._peel_closure_cycle, []

    def spy(rows, added, cycle):
        got = peel(rows, added, list(cycle))
        assert got == index_peel(rows, added, list(cycle))
        seen.append(len(added))
        return got
    monkeypatch.setattr(hamilton, "_peel_closure_cycle", spy)
    for label, make in _census_fixtures():
        assert r4_find(make()).status == "found", label
    assert len(seen) >= 16 and sum(seen) > 10_000


def _graph_from_mask(n, mask):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=150, deadline=None)
def test_search_agrees_with_permutation_oracle_n6(mask):
    g = _graph_from_mask(6, mask)
    res = find_hamiltonian_cycle(g)
    assert res.status in ("found", "none")
    assert (res.status == "found") == hamiltonian_oracle(g)
    if res.cycle is not None:
        assert is_cycle_of(g, res.cycle)


@given(st.integers(0, 2**21 - 1))
@settings(max_examples=60, deadline=None)
def test_chvatal_implies_found_n7(mask):
    g = _graph_from_mask(7, mask)
    degs = g.degrees()
    if chvatal_holds(degs):
        res = find_hamiltonian_cycle(g)
        assert res.status == "found" and is_cycle_of(g, res.cycle)


def test_determinism():
    g = _graph_from_mask(8, 0b1011011101101011001101011011)
    r1 = find_hamiltonian_cycle(g)
    r2 = find_hamiltonian_cycle(g)
    assert r1 == r2


def test_good_pair_graph_mono():
    p = Params(n=5, r=3, t=2, c=2)
    h = ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))
    s = build_shadow(h, 2)
    assert good_pair_graph(s, 1).degrees() == [4] * 5
    assert good_pair_graph(s, 2).degrees() == [0] * 5

    found = find_mono_ham_tight_cycle(s, 1)
    assert found.status == "found"
    assert sorted(found.witness.core) == list(range(5))

    assert find_mono_ham_tight_cycle(s, 2).status == "none"


@pytest.mark.parametrize("n,r,c", [(3, 2, 2), (8, 3, 2), (9, 2, 3), (85, 4, 3),
                                   (128, 4, 3)])
def test_good_pair_graph_matches_edge_by_edge(n, r, c):
    # n = 3 and 9 leave padding bits in the packed rows; at n = 3 every edge
    # has color 1, so color 1 takes every pair and color 2 none
    p = Params(n=n, r=r, t=2, c=c)
    h = (ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8)) if n == 3
         else random_coloring(p, seed=n))
    s = build_shadow(h, 2)
    rows = {}
    for color in range(1, c + 1):
        ref = graph(n, [unrank_subset(k, n, 2) for k in range(binom(n, 2))
                        if s.goodmask[k] >> (color - 1) & 1])
        rows[color] = good_pair_graph(s, color).rows
        assert rows[color] == ref.rows
    if n == 3:
        assert rows == {1: complete(3).rows, 2: [0, 0, 0]}


def test_tight_cycle_t3_single_color():
    # threshold r-t+1 = 1: every triple is good; any cyclic order works
    p = Params(n=6, r=3, t=2, c=1)
    h = ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))
    s = build_shadow(h, 3)
    res = find_mono_ham_tight_cycle(s, 1)
    assert res.status == "found"
    w = res.witness
    assert w.core[0] == 0 and w.core[1] < w.core[-1]
    # every consecutive window is good per the shadow itself
    for i in range(6):
        win = tuple(sorted(w.core[(i + j) % 6] for j in range(3)))
        assert s.goodmask[rank_subset(win)] & 1


def test_tight_cycle_t3_respects_bad_windows():
    # color away triples through {0,1,2}-ish windows and confirm soundness
    p = Params(n=7, r=4, t=2, c=2)
    h = random_coloring(p, seed=13)
    s = build_shadow(h, 3)
    for color in (1, 2):
        res = find_mono_ham_tight_cycle(s, color, budget=10**6)
        if res.status == "found":
            w = res.witness
            for i in range(7):
                win = tuple(sorted(w.core[(i + j) % 7] for j in range(3)))
                assert s.goodmask[rank_subset(win)] >> (color - 1) & 1


def test_tight_cycle_budget_report():
    p = Params(n=8, r=4, t=2, c=2)
    h = random_coloring(p, seed=3)
    s = build_shadow(h, 3)
    res = find_mono_ham_tight_cycle(s, 1, budget=2)
    assert res.status in ("budget", "found", "none")
    if res.status == "budget":
        assert res.witness is None


def reference_tight_search(s, color, budget):
    """The recursive t >= 3 search that `TightCoreWalk` replaced, kept as
    the reference: (status, core, expansions)."""
    n, t = s.params.n, s.t
    good = set(int(k) for k in np.flatnonzero((s.goodmask >> np.uint32(color - 1)) & 1))
    if not good:
        return "none", None, 0
    core, used = [0] * n, [False] * n
    used[0] = True
    expansions = 0

    def window_ok(i):
        return rank_subset(tuple(sorted(core[(i + j) % n] for j in range(t)))) in good

    def dfs(depth):
        nonlocal expansions
        for v in range(1, n):
            if used[v]:
                continue
            if expansions >= budget:
                return "budget"
            expansions += 1
            core[depth] = v
            if depth >= t - 1 and not window_ok(depth - t + 1):
                continue
            if depth == n - 1:
                if core[1] > core[n - 1]:
                    continue
                if all(window_ok(i) for i in range(n - t + 1, n)):
                    return "found"
                continue
            used[v] = True
            out = dfs(depth + 1)
            used[v] = False
            if out != "none":
                return out
        return "none"

    status = dfs(1)
    return status, tuple(core) if status == "found" else None, expansions


def _tight_search_cases():
    for n, r, t, c in [(7, 4, 3, 2), (8, 5, 3, 2), (9, 5, 4, 2), (10, 6, 3, 2),
                       (11, 6, 4, 2), (12, 7, 3, 2)]:
        p = Params(n=n, r=r, t=t, c=c)
        for generator in ("random", "partition", "majority", "near-mono",
                          "pair-lock"):
            for index in range(2):
                yield _coloring_for_trial(p, generator, 0, index)
    for r, t, c in [(6, 3, 2), (8, 4, 2), (8, 3, 3)]:   # budget burners
        yield _coloring_for_trial(Params(n=18, r=r, t=t, c=c), "partition", 0, 0)


@pytest.mark.parametrize("budget", [1, 40, 3000, 20_000])
def test_tight_cycle_search_matches_its_reference(budget):
    checked, statuses = 0, set()
    for h in _tight_search_cases():
        s = build_shadow(h, h.params.t)
        for color in range(1, h.params.c + 1):
            res = find_mono_ham_tight_cycle(s, color, budget)
            got = (res.status, res.witness and res.witness.core, res.expansions)
            assert got == reference_tight_search(s, color, budget)
            statuses.add(res.status)
            checked += 1
    assert checked > 100
    if budget >= 40:
        assert statuses == {"found", "none", "budget"}
