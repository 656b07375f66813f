"""Acceptance checks, one test per numbered criterion.

Every test asserts its own wall-clock bound and ends by printing a single
``criterion-N PASS`` line (visible with ``pytest -s``); a pytest failure on
one of these tests is the corresponding FAIL line.
"""

import itertools
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from bergecycles.core import (
    BergeCertificate,
    ColoredHypergraph,
    Params,
    edge_table,
    random_coloring,
    rank_subset,
    verify_berge_certificate,
)
from bergecycles.extract import MatchingIncomplete, extend_tight_cycle
from bergecycles.hamilton import (
    SimpleGraph,
    find_hamiltonian_cycle,
    find_mono_ham_tight_cycle,
)
from bergecycles.harness import (
    brute_force_exists,
    find_certificate,
    stress_theorem,
    structured_colorings,
)
from bergecycles.r4 import r4_find
from bergecycles.shadow import build_shadow
from test_core import loop_verify
from test_hamilton import chvatal_holds


# ---------------------------------------------------------------------------
# criterion 1: no single mutation of a valid certificate slips past the
# verifier


def _mono_certificate(r, t, n):
    """A valid certificate on the all-color-1 coloring, or None if none fits."""
    p = Params(n=n, r=r, t=t, c=2)
    h = ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))
    s = build_shadow(h, t)
    res = find_mono_ham_tight_cycle(s, 1)
    if res.status != "found":
        return None, None
    try:
        cert = extend_tight_cycle(res.witness, h, s)
    except MatchingIncomplete:
        return None, None
    return cert, h


def _mut_dup_edge(rng, cert, p):
    i, j = (int(v) for v in rng.choice(p.n, size=2, replace=False))
    edges = list(cert.edges)
    edges[i] = edges[j]
    return replace(cert, edges=tuple(edges))


def _mut_drop_edge_vertex(rng, cert, p):
    i = int(rng.integers(p.n))
    e = cert.edges[i]
    k = int(rng.integers(len(e)))
    edges = list(cert.edges)
    edges[i] = e[:k] + e[k + 1:]
    return replace(cert, edges=tuple(edges))


def _mut_evict_window_vertex(rng, cert, p):
    # removing a window vertex from its own backing edge always invalidates
    i = int(rng.integers(p.n))
    win = sorted({cert.core[(i + j) % p.n] for j in range(cert.t)})
    v = win[int(rng.integers(len(win)))]
    outside = [u for u in range(p.n) if u not in cert.edges[i]]
    if not outside:
        return None
    u = outside[int(rng.integers(len(outside)))]
    edges = list(cert.edges)
    edges[i] = tuple(sorted(set(cert.edges[i]) - {v} | {u}))
    return replace(cert, edges=tuple(edges))


def _mut_swap_core(rng, cert, p):
    i, j = (int(v) for v in rng.choice(p.n, size=2, replace=False))
    core = list(cert.core)
    core[i], core[j] = core[j], core[i]
    return replace(cert, core=tuple(core))


def _mut_dup_core(rng, cert, p):
    i = int(rng.integers(p.n))
    core = list(cert.core)
    core[i] = core[(i + 1) % p.n]
    return replace(cert, core=tuple(core))


def _mut_oob_core(rng, cert, p):
    i = int(rng.integers(p.n))
    core = list(cert.core)
    core[i] = p.n
    return replace(cert, core=tuple(core))


def _mut_wrong_color(rng, cert, p):
    return replace(cert, color=cert.color % p.c + 1)


def _mut_bump_t(rng, cert, p):
    return replace(cert, t=cert.t + 1)


def _mut_oob_edge_vertex(rng, cert, p):
    i = int(rng.integers(p.n))
    e = list(cert.edges[i])
    e[-1] = p.n
    edges = list(cert.edges)
    edges[i] = tuple(e)
    return replace(cert, edges=tuple(edges))


_MUTATORS = [
    _mut_dup_edge, _mut_drop_edge_vertex, _mut_evict_window_vertex,
    _mut_swap_core, _mut_dup_core, _mut_oob_core, _mut_wrong_color,
    _mut_bump_t, _mut_oob_edge_vertex,
]


def test_criterion_1_verifier_rejects_single_mutations():
    t0 = time.monotonic()
    rng = np.random.default_rng(0xB17E)
    rejected = 0
    false_accepts = 0
    for r, t, n in itertools.product((3, 4, 5), (2, 3), range(5, 10)):
        cert, h = _mono_certificate(r, t, n)
        if cert is None:
            continue        # too few backing edges at this size
        assert verify_berge_certificate(cert, h) is None
        per_combo = 0
        attempts = 0
        while per_combo < 40 and attempts < 400:
            attempts += 1
            mut = _MUTATORS[int(rng.integers(len(_MUTATORS)))](rng, cert, h.params)
            if mut is None or loop_verify(mut, h) is None:
                continue    # the mutation landed on another valid certificate
            per_combo += 1
            if verify_berge_certificate(mut, h) is None:
                false_accepts += 1
        assert per_combo == 40
        rejected += per_combo
    elapsed = time.monotonic() - t0
    assert false_accepts == 0
    assert rejected >= 1000
    assert elapsed < 10.0
    print(f"criterion-1 PASS: {rejected} invalid mutants rejected, "
          f"0 false accepts, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: every validated tight-cycle witness lifts to distinct backing
# edges


def _window_good_by_recount(h, win, color, t):
    """Count color edges over the window straight from the coloring."""
    n, r = h.params.n, h.params.r
    rest = [v for v in range(n) if v not in win]
    hits = 0
    for extra in itertools.combinations(rest, r - t):
        if h.colors[rank_subset(sorted(win + extra))] == color:
            hits += 1
    return hits >= r - t + 1


def test_criterion_2_witness_extension_never_drops_a_position():
    t0 = time.monotonic()
    configs = [(3, 2, 2, 8), (4, 2, 2, 8), (4, 3, 1, 7), (5, 2, 2, 10),
               (5, 3, 1, 9), (3, 3, 1, 6), (3, 2, 2, 10), (4, 2, 2, 10)]
    witnesses = 0
    matching_failures = 0
    for seed in range(40):
        if witnesses >= 220:
            break
        for r, t, c, n in configs:
            h = random_coloring(Params(n=n, r=r, t=t, c=c), seed=seed)
            s = build_shadow(h, t)
            for color in range(1, c + 1):
                res = find_mono_ham_tight_cycle(s, color)
                if res.status != "found":
                    continue
                w = res.witness
                assert sorted(w.core) == list(range(n))
                for i in range(n):
                    win = tuple(w.core[(i + j) % n] for j in range(t))
                    assert _window_good_by_recount(h, win, color, t)
                try:
                    cert = extend_tight_cycle(w, h, s)
                except MatchingIncomplete:
                    matching_failures += 1
                    continue
                assert verify_berge_certificate(cert, h) is None
                witnesses += 1
                break           # one witness per coloring is plenty
    elapsed = time.monotonic() - t0
    assert matching_failures == 0
    assert witnesses >= 200
    assert elapsed < 30.0
    print(f"criterion-2 PASS: {witnesses} witnesses extended, "
          f"0 matching failures, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: the degree condition is never claimed on a non-Hamiltonian
# graph, exhaustively over every labeled graph on up to 7 vertices


def _degree_condition_scan(n):
    """Vectorized re-derivation of the degree test over all 2^C(n,2) graphs."""
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    inc = np.zeros(n, dtype=np.uint32)
    for slot, (u, v) in enumerate(pairs):
        inc[u] |= np.uint32(1 << slot)
        inc[v] |= np.uint32(1 << slot)
    masks = np.arange(1 << m, dtype=np.uint32)
    degs = np.empty((1 << m, n), dtype=np.uint8)
    for v in range(n):
        degs[:, v] = np.bitwise_count(masks & inc[v])
    degs.sort(axis=1)
    violated = np.zeros(1 << m, dtype=bool)
    for i in range(1, (n + 1) // 2):
        if 2 * i >= n:
            break
        violated |= (degs[:, i - 1] <= i) & (degs[:, n - i - 1] < n - i)
    return pairs, violated


def _graph_rows(n, pairs, mask):
    rows = [0] * n
    for slot, (u, v) in enumerate(pairs):
        if mask >> slot & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def test_criterion_3_degree_condition_soundness():
    t0 = time.monotonic()
    scanned = 0
    hamiltonians = 0
    for n in range(3, 8):
        pairs, violated = _degree_condition_scan(n)
        scanned += len(violated)
        holders = np.flatnonzero(~violated)
        # the library's own answer must match the scan: everywhere for
        # n <= 6, on all holders plus a stride of non-holders at n = 7
        if n <= 6:
            audit = range(len(violated))
        else:
            audit = itertools.chain(holders.tolist(),
                                    range(0, len(violated), 64))
        for mask in audit:
            rows = _graph_rows(n, pairs, int(mask))
            lib = chvatal_holds([r.bit_count() for r in rows])
            assert lib == (not violated[mask]), f"n={n} mask={mask}"
        for mask in holders.tolist():
            rows = _graph_rows(n, pairs, mask)
            res = find_hamiltonian_cycle(SimpleGraph(n, rows))
            assert res.status == "found", f"n={n} mask={mask}"
            cyc = res.cycle
            assert sorted(cyc) == list(range(n))
            assert all(rows[cyc[k]] >> cyc[(k + 1) % n] & 1 for k in range(n))
            hamiltonians += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion-3 PASS: {scanned} graphs scanned, {hamiltonians} "
          f"degree-condition holders all Hamiltonian, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: goodness flips exactly at r-t+1 edges of a color over a t-set


def test_criterion_4_goodness_threshold_is_exact():
    t0 = time.monotonic()
    checked = 0
    for r in (3, 4, 5):
        for t in range(2, r):
            n = r + 3
            p = Params(n=n, r=r, t=t, c=2)
            tab = edge_table(n, r)
            containing = np.flatnonzero((tab < t).sum(axis=1) == t)
            assert len(containing) >= r - t + 1
            for k in (r - t + 1, r - t):
                colors = np.full(p.num_edges, 2, dtype=np.uint8)
                colors[containing[:k]] = 1
                s = build_shadow(ColoredHypergraph(p, colors), t)
                goods = s.good_colors(rank_subset(tuple(range(t)), n))
                assert (1 in goods) == (k == r - t + 1), (r, t, k)
                assert (2 in goods) == (len(containing) - k >= r - t + 1)
                checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 12
    assert elapsed < 5.0
    print(f"criterion-4 PASS: {checked} boundary instances, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criteria 5 and 6: desk-scale stress of the existence statements


def test_criterion_5_stress_r4_two_colors(tmp_path):
    t0 = time.monotonic()
    rep = stress_theorem(Params(n=8, r=4, t=2, c=2), generator="random",
                         trials=10_000, seed=819, jobs=2,
                         reproducer_dir=str(tmp_path))
    elapsed = time.monotonic() - t0
    assert rep.counterexamples == 0
    assert rep.unresolved == 0
    assert rep.successes == 10_000
    assert elapsed < 600.0
    print(f"criterion-5 PASS: 10000 trials, 0 counterexamples, "
          f"0 unresolved, {elapsed:.1f}s")


def test_criterion_6_stress_r5_both_tightnesses(tmp_path):
    t0 = time.monotonic()
    reports = []
    for t in (2, 3):
        c = 3 if t == 2 else 1
        rep = stress_theorem(Params(n=14, r=5, t=t, c=c), generator="random",
                             trials=100, seed=2026, jobs=2,
                             reproducer_dir=str(tmp_path))
        assert rep.counterexamples == 0
        assert rep.unresolved <= 5          # heuristic regime, no oracle here
        assert rep.successes + rep.unresolved == 100
        reports.append(rep)
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    print(f"criterion-6 PASS: 100+100 trials, 0 counterexamples, "
          f"unresolved {reports[0].unresolved}+{reports[1].unresolved}, "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: the full n >= 85 pipeline, end to end


def test_criterion_7_full_pipeline_on_k85():
    per_instance = []
    for seed in range(100):
        h = random_coloring(Params(n=85, r=4, t=2, c=3), seed=seed)
        t1 = time.monotonic()
        res = r4_find(h)
        dt = time.monotonic() - t1
        assert verify_berge_certificate(res.certificate, h) is None, seed
        assert dt <= 60.0, f"seed {seed} took {dt:.1f}s"
        per_instance.append(dt)
    print(f"criterion-7 PASS: 100/100 verified certificates, "
          f"max {max(per_instance):.2f}s, mean {np.mean(per_instance):.2f}s "
          f"per instance")


# ---------------------------------------------------------------------------
# criterion 8: every construction branch fires at least once on fixtures


def _census_run(h):
    res = r4_find(h)
    assert verify_berge_certificate(res.certificate, h) is None
    return res.trace


def _u_profile(**kw):
    return next(structured_colorings("u-profile", kw))


def test_criterion_8_branch_census():
    t0 = time.monotonic()
    runs = 0

    tr = _census_run(random_coloring(Params(n=85, r=4, t=2, c=3), seed=1))
    assert tr.branch == "B-cover"
    runs += 1

    tr = _census_run(next(structured_colorings(
        "pair-lock", {"n": 85, "r": 4, "c": 3, "pair": (0, 1), "lock": 2})))
    assert tr.branch == "single-good-fallback"
    runs += 1

    tr = _census_run(next(structured_colorings(
        "near-mono", {"n": 85, "r": 4, "c": 3, "base": 2, "off": 1})))
    assert (tr.branch, tr.subcase["case"]) == ("lemma-3.1", "in-cycle")
    runs += 1

    tr = _census_run(next(structured_colorings(
        "near-mono", {"n": 85, "r": 4, "c": 3, "base": 3, "off": 1})))
    assert (tr.branch, tr.subcase["case"]) == ("lemma-3.1", "companion-free")
    runs += 1

    for deg, variant in ((0, "ii"), (1, "i")):
        tr = _census_run(_u_profile(n=85, k23=0, k12=1, k13=42,
                                    deg_w=deg, deg_w2=deg))
        assert (tr.branch, tr.subcase["variant"]) == ("case-1", variant)
        assert tr.degree_report["violations"] == []
        runs += 1

    grid = set()
    for deg_w in (0, 1, 2):
        for deg_u23 in (0, 1, 2):
            tr = _census_run(_u_profile(n=85, k23=1, k12=1, k13=41,
                                        deg_w=deg_w, deg_u23=deg_u23))
            assert tr.branch == "case-2"
            assert tr.degree_report["violations"] == []
            grid.add((tr.subcase["r"], tr.subcase["l"]))
            runs += 1
    assert grid == {(r, l) for r in (1, 2, 3) for l in (0, 1, 2)}

    elapsed = time.monotonic() - t0
    print(f"criterion-8 PASS: {runs} fixture runs covering every branch, "
          f"0 contract breaches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: the search pipeline never claims a cycle the exhaustive
# oracle cannot find


def test_criterion_9_pipeline_agrees_with_oracle():
    t0 = time.monotonic()
    configs = [(3, 2, 2), (3, 2, 3), (4, 2, 2), (4, 2, 3), (4, 3, 2)]
    instances = 0
    found = 0
    disagreements = 0
    for seed in range(25):
        for r, t, c in configs:
            for n in (5, 6, 7, 8):
                h = random_coloring(Params(n=n, r=r, t=t, c=c),
                                    seed=90_000 + instances)
                status, cert = find_certificate(h, use_oracle=False)
                instances += 1
                assert status in ("found", "unresolved")
                if status != "found":
                    continue
                found += 1
                assert verify_berge_certificate(cert, h) is None
                if brute_force_exists(h) is None:
                    disagreements += 1
    elapsed = time.monotonic() - t0
    assert instances == 500
    assert disagreements == 0
    assert found > 0
    assert elapsed < 600.0
    print(f"criterion-9 PASS: 500 instances, {found} pipeline finds, "
          f"0 oracle disagreements, {elapsed:.1f}s")
