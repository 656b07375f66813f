import hashlib
import importlib.util
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecycles import harness
from bergecycles.core import (
    BergeCertificate,
    ColoredHypergraph,
    ContractBreach,
    InvalidParams,
    Params,
    edge_table,
    random_coloring,
    rank_subset,
    read_coloring,
    verify_berge_certificate,
)
from bergecycles.extract import (
    PositionEdgeBipartite,
    extend_tight_cycle,
    max_bipartite_matching,
)
from bergecycles.harness import (
    InstanceTooLarge,
    TrialReport,
    _coloring_for_trial,
    brute_force_exists,
    find_certificate,
    stress_theorem,
    structured_colorings,
)
from bergecycles.r4 import ConstructionTrace
from bergecycles.shadow import _at_least, build_shadow
from test_r4 import _CASE_STREAMS
from test_shadow import _census_fixtures


def mono(n, r, c=1, t=2):
    p = Params(n=n, r=r, t=t, c=c)
    return ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))


# ---------------------------------------------------------------------------
# brute-force oracle


def test_oracle_mono_k5_certificate():
    h = mono(5, 3)
    cert = brute_force_exists(h)
    assert cert is not None
    assert verify_berge_certificate(cert, h) is None
    # cross-check against the matching-based extension on the same core
    from bergecycles.core import TightCycleWitness
    w = TightCycleWitness(color=1, core=cert.core, t=2)
    other = extend_tight_cycle(w, h, build_shadow(h, 2))
    assert verify_berge_certificate(other, h) is None


def test_oracle_k4_4_nonexistent_for_any_coloring():
    # only one 4-subset exists, but a cycle on 4 vertices needs 4 distinct
    # edges; exhaustion is immediate
    for color in (1, 2):
        p = Params(n=4, r=4, t=2, c=2)
        h = ColoredHypergraph(p, np.full(1, color, dtype=np.uint8))
        assert brute_force_exists(h) is None


@pytest.mark.parametrize("n,fallbacks", [
    # K_2^2: the good-graph search has no cycle to find below 3 vertices
    (2, [{"stage": "good-graph", "color": 1, "status": "none", "expansions": 0}]),
    # at n = r the one edge holds every window: position 0 takes it and
    # the lift leaves every other position unmatched
    *((n, [{"stage": "good-graph", "color": 1, "status": "found", "expansions": n - 1},
           {"stage": "extract", "color": 1, "status": "matching-incomplete",
            "unmatched": list(range(1, n))}]) for n in (3, 4)),
])
def test_one_edge_k_n_n_is_nonexistent_through_the_oracle(n, fallbacks):
    h = ColoredHypergraph(Params(n=n, r=n, t=n, c=1), np.ones(1, dtype=np.uint8))
    res = find_certificate(h)
    assert (res.status, res.certificate) == ("nonexistent", None)
    assert res.trace.branch == "oracle"
    assert res.trace.fallbacks == fallbacks


def test_oracle_five_five_split_golden():
    # rank-alternating 2-coloring of K_5^3; verdict frozen at first run
    p = Params(n=5, r=3, t=2, c=2)
    colors = np.array([1 + (k % 2) for k in range(10)], dtype=np.uint8)
    cert = brute_force_exists(ColoredHypergraph(p, colors))
    assert cert is not None
    assert cert.color == 1
    assert cert.core == (0, 1, 2, 3, 4)


def test_oracle_rejects_large_instances():
    h = random_coloring(Params(n=11, r=3, t=2, c=2), seed=0)
    with pytest.raises(InstanceTooLarge):
        brute_force_exists(h)


def test_oracle_needs_n_edges_of_one_color():
    # 10 triples split 5/5: either color has exactly 5 = n edges, so the
    # cycle must use all five of one color
    p = Params(n=5, r=3, t=2, c=2)
    colors = np.array([1] * 5 + [2] * 5, dtype=np.uint8)
    cert = brute_force_exists(ColoredHypergraph(p, colors))
    if cert is not None:
        assert len(set(cert.edges)) == 5


def test_oracle_t3_mono():
    h = mono(6, 4, t=3)
    cert = brute_force_exists(h)
    assert cert is not None and cert.t == 3
    assert verify_berge_certificate(cert, h) is None


def test_oracle_deterministic():
    h = random_coloring(Params(n=8, r=3, t=2, c=3), seed=42)
    a = brute_force_exists(h)
    b = brute_force_exists(h)
    assert a == b


def reference_oracle(h):
    """The oracle before it walked `TightCoreWalk` and lifted through
    `lift_to_berge`: its own recursion over core sequences, frozenset pools
    of the t-sets each color edge holds, and a matcher over plain lists.
    Kept as the reference for the one proof of absence the package has."""
    p = h.params
    n, r, t = p.n, p.r, p.t
    if n < 3:
        return None
    tab = edge_table(n, r)
    for color in range(1, p.c + 1):
        idx = np.flatnonzero(h.colors == color)
        if idx.size < n:
            continue
        pools = {}
        for e in idx:
            verts = tuple(int(v) for v in tab[e])
            for sub in itertools.combinations(verts, t):
                pools.setdefault(frozenset(sub), []).append(int(e))
        seq, used = [0], [False] * n
        used[0] = True

        def dfs():
            if len(seq) == n:
                if seq[1] > seq[-1]:
                    return None
                ws = [frozenset(seq[(i + j) % n] for j in range(t))
                      for i in range(n)]
                if any(w not in pools for w in ws):
                    return None
                match = max_bipartite_matching(
                    PositionEdgeBipartite(n, [pools[w] for w in ws]))
                if (match < 0).any():
                    return None
                edges = tuple(tuple(int(v) for v in tab[e]) for e in match)
                return BergeCertificate(color=color, core=tuple(seq),
                                        edges=edges, t=t)
            for v in range(1, n):
                if used[v]:
                    continue
                seq.append(v)
                used[v] = True
                ok = len(seq) < t or frozenset(seq[-t:]) in pools
                got = dfs() if ok else None
                seq.pop()
                used[v] = False
                if got is not None:
                    return got
            return None

        cert = dfs()
        if cert is not None:
            return cert
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(2, n).flatmap(lambda r: st.tuples(
               st.just(r), st.integers(2, r))))),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_oracle_matches_its_reference(shape, c, seed):
    n, (r, t) = shape
    h = random_coloring(Params(n=n, r=r, t=t, c=c), seed=seed)
    assert brute_force_exists(h) == reference_oracle(h)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_matches_its_reference_on_one_edge(n):
    # K_n^n has one edge: no cycle at any t, and the reference agrees
    for t in range(2, n + 1):
        h = ColoredHypergraph(Params(n=n, r=n, t=t, c=1),
                              np.ones(1, dtype=np.uint8))
        assert brute_force_exists(h) is None
        assert reference_oracle(h) is None


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_oracle_matches_its_reference_on_the_r3_c3_sweep(n):
    # the colorings of the CI stress sweep at r = 3, t = 2, c = 3
    p = Params(n=n, r=3, t=2, c=3)
    verdicts = []
    for i in range(50):
        h = _coloring_for_trial(p, "random", 0, i)
        got = brute_force_exists(h)
        assert got == reference_oracle(h)
        verdicts.append(got is not None)
    assert any(verdicts)


@pytest.mark.parametrize("shape", [(7, 3, 2, 3), (8, 4, 3, 2), (9, 5, 4, 2),
                                   (10, 3, 3, 3)])
@pytest.mark.parametrize("generator",
                         ["partition", "majority", "near-mono", "pair-lock"])
def test_oracle_matches_its_reference_on_structured_colorings(shape, generator):
    n, r, t, c = shape
    stream = structured_colorings(generator, {"n": n, "r": r, "t": t, "c": c})
    for h in itertools.islice(stream, 3):
        assert brute_force_exists(h) == reference_oracle(h)


def test_oracle_proves_the_three_part_partition_has_no_cycle():
    # K_10^3 at t = r = 3, colored by the part ({0..3}, {4..6}, {7..9}) of
    # each edge's top vertex: the walk ends in "none" in every color with
    # at least n edges, as the reference does
    h = next(structured_colorings("partition", {"n": 10, "r": 3, "t": 3, "c": 3}))
    assert brute_force_exists(h) is None
    assert reference_oracle(h) is None


@pytest.mark.parametrize("budget", [1, 40, None])
def test_oracle_skips_the_colors_the_search_proved_empty_at_t_equal_r(
        monkeypatch, budget):
    # at t = r the good-graph search tests the oracle's own windows, so no
    # walk is built for a color whose search ended "none"; a small budget
    # leaves colors in "budget", which the oracle still walks.  The verdict
    # is the reference oracle's either way.
    walks = []

    def spy(n, t, allowed, *rest, _real=harness.TightCoreWalk):
        walks.append(np.asarray(allowed, dtype=bool))
        return _real(n, t, allowed, *rest)

    monkeypatch.setattr(harness, "TightCoreWalk", spy)
    kw = {} if budget is None else {"budget": budget}
    skipped = walked = 0
    for n, r, c in [(6, 3, 2), (7, 3, 3), (7, 2, 3), (8, 4, 2), (9, 4, 3)]:
        p = Params(n=n, r=r, t=r, c=c)
        inputs = [random_coloring(p, seed=seed) for seed in range(8)]
        inputs += [next(structured_colorings(kind, {"n": n, "r": r, "t": r, "c": c}))
                   for kind in ("partition", "majority", "pair-lock")]
        for h in inputs:
            walks.clear()
            res = find_certificate(h, **kw)
            if res.trace.branch != "oracle":
                continue
            want = reference_oracle(h)
            assert (res.status, res.certificate) == (
                "found" if want else "nonexistent", want)
            in_edge = _at_least(h, r, 1)
            empty = {f["color"] for f in res.trace.fallbacks
                     if f["stage"] == "good-graph" and f["status"] == "none"}
            assert not any(np.array_equal(w, in_edge[:, color - 1])
                           for w in walks for color in empty)
            skipped += len(empty)
            walked += len(walks)
    assert skipped and (walked or budget is None)


# ---------------------------------------------------------------------------
# pipeline wrapper


def test_find_certificate_tiny_unresolvable_goes_to_oracle():
    # adversarial: lock pair (0,1) so the shadow search has thin support
    h = next(structured_colorings(
        "pair-lock", {"n": 7, "r": 3, "c": 2, "pair": (0, 1), "lock": 2}))
    status, cert = find_certificate(h)
    assert status in ("found", "nonexistent")
    if cert is not None:
        assert verify_berge_certificate(cert, h) is None


def test_find_certificate_without_oracle_never_claims_nonexistent():
    for seed in range(10):
        h = random_coloring(Params(n=7, r=3, t=2, c=3), seed=seed)
        status, _ = find_certificate(h, use_oracle=False)
        assert status in ("found", "unresolved")


# (r, t, c) shapes of the small grid; each is run at n = 5-8, seeds 0-14,
# with and without the oracle
GRID_SHAPES = [(3, 2, 2), (3, 2, 3), (4, 2, 2), (4, 2, 3), (4, 3, 2),
               (4, 4, 2), (5, 3, 1)]


def test_find_certificate_small_grid_digest():
    # one sha256 over every (status, certificate JSON) of 840 calls; a
    # change means the generic search or the oracle changed an answer
    rows = []
    for r, t, c in GRID_SHAPES:
        for n in range(5, 9):
            for seed in range(15):
                h = random_coloring(Params(n=n, r=r, t=t, c=c), seed=seed)
                for oracle in (True, False):
                    status, cert = find_certificate(h, use_oracle=oracle)
                    rows.append([status, None if cert is None
                                 else cert.to_json_dict()])
    assert len(rows) == 840
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6741ba2c17822837494e65fbcf9268b3765bbe81ccb8f2a990c7a00fec48b7f5"


# ---------------------------------------------------------------------------
# stress trials


def test_stress_single_color_always_succeeds():
    rep = stress_theorem(Params(n=6, r=3, t=2, c=1), trials=5, seed=7)
    assert rep.successes == rep.trials == 5
    assert rep.counterexamples == 0 and rep.unresolved == 0


def test_stress_deterministic_modulo_wall_time():
    kw = dict(trials=20, seed=3)
    a = stress_theorem(Params(n=8, r=4, t=2, c=2), **kw)
    b = stress_theorem(Params(n=8, r=4, t=2, c=2), **kw)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("wall_time"), db.pop("wall_time")
    assert da == db


def test_stress_jobs_do_not_change_counts():
    a = stress_theorem(Params(n=8, r=4, t=2, c=2), trials=16, seed=5, jobs=1)
    b = stress_theorem(Params(n=8, r=4, t=2, c=2), trials=16, seed=5, jobs=2)
    assert (a.successes, a.unresolved, a.counterexamples) == \
        (b.successes, b.unresolved, b.counterexamples)


@pytest.mark.parametrize("generator",
                         ["partition", "majority", "near-mono", "pair-lock"])
def test_structured_trials_keep_the_requested_t(generator):
    p = Params(n=8, r=5, t=3, c=2)
    assert _coloring_for_trial(p, generator, 0, 0).params == p


@pytest.mark.parametrize("r", range(2, 10))
def test_first_trial_coloring_at_every_rank(r):
    # Params serves r <= 9, so every generator must too
    p = Params(n=r + 3, r=r, t=2, c=2)
    for generator in ("random", "partition", "majority", "near-mono",
                      "pair-lock"):
        assert _coloring_for_trial(p, generator, 0, 0).params == p


def _replayed_trial(params, generator, index):
    """A trial's coloring by replaying its stream from the start, cycling a
    finite one: the definition every trial coloring must keep."""
    if generator == "random":
        return random_coloring(params, seed=harness._trial_seed(0, index))
    gp = {"n": params.n, "r": params.r, "t": params.t, "c": params.c}
    got = next(itertools.islice(structured_colorings(generator, gp), index,
                                None), None)
    if got is None:
        items = list(structured_colorings(generator, gp))
        got = items[index % len(items)]
    return got


# sha256 over the colors of trials 0-11 (master seed 0), recorded from the
# stream replay; near-mono at (6, 5) has 6 colorings, so it cycles twice
TRIAL_DIGESTS = {
    ((8, 4, 2, 2), "random"):
        "5abed35b4dc6bf56894aadcf37ad125998b41741d20c2cb48fbd527d4b7e12cc",
    ((8, 4, 2, 2), "partition"):
        "407bbc4c0e6c5dd324e3ca18c6770261cd359525936adc42e7e0a95c3991fb4c",
    ((8, 4, 2, 2), "majority"):
        "9e113330f5076c3a7cf0fa918b4941a5de0cdb8507094d5696f4ffc45e086fce",
    ((8, 4, 2, 2), "near-mono"):
        "63316b27ea6adb6703836b38a9c26ab98d4b362436dafc74e88ca07a9ad15e0a",
    ((8, 4, 2, 2), "pair-lock"):
        "b1cb438b8097040bce565962d601e111f2f5ae1e3de8f50a1305b0a28742044d",
    ((6, 5, 3, 2), "random"):
        "472e3c6c10a4e1b6a33fef5b5a28914cf8b868eb4304c1ab8acbabdaa97f410c",
    ((6, 5, 3, 2), "partition"):
        "c6f392711fffabbea5986f8e2cef7f6bad3bc4bda1664259406e4675fc66ed8e",
    ((6, 5, 3, 2), "majority"):
        "7e9afe00fc2d9bfa92f6b5023277d0cc2bdeadfb69e584f472676085d2636f63",
    ((6, 5, 3, 2), "near-mono"):
        "2cd634f29fb6a63f9450d56639ce8f8a17523c3c872b0fa61133ecedec6e9f80",
    ((6, 5, 3, 2), "pair-lock"):
        "b2f4679523b207fd56b19b52bb6c7326c1bea6a121b6781f8b71d669d788ed65",
}


@pytest.mark.parametrize("key", sorted(TRIAL_DIGESTS))
def test_trial_colorings_match_the_stream_replay(key):
    (n, r, t, c), generator = key
    p = Params(n=n, r=r, t=t, c=c)
    digest = hashlib.sha256()
    for i in range(12):
        h = _coloring_for_trial(p, generator, 0, i)
        assert h.params == p
        assert np.array_equal(h.colors, _replayed_trial(p, generator, i).colors)
        digest.update(h.colors.tobytes())
    assert digest.hexdigest() == TRIAL_DIGESTS[key]


# sha256 of each generator's first K_85^4 coloring (master seed 0).  The
# generators do arithmetic on uint8 edge-table entries (11 * 84 > 255), so a
# lost cast before it moves one of these digests.
FIRST_K85_DIGESTS = {
    "random": "46955497254b9e8a2dc54aaccb597976972ac72ea48cc62143f4304c35cbe1d8",
    "partition": "e32e744b6fe836074a5f4c4b010a011a35ee9b74a099b9122b04ec4a1e520802",
    "majority": "31765b8de3827122733feb1c022c59b9bf67aaf54442bcabcb802135bf3936cb",
    "pair-lock": "2ac94df7e8b92ae04a7de45e9cf58dbb3c849897e7ac46b46881a2ec75201098",
    "u-profile": "a392c62d110996d3ee3d3ac4760d6699c462c9d8aface2fa7f47bd4da59db83b",
}


@pytest.mark.parametrize("generator", sorted(FIRST_K85_DIGESTS))
def test_first_k85_coloring_is_pinned(generator):
    if generator == "u-profile":
        h = next(structured_colorings(
            "u-profile", {"n": 85, "k23": 1, "k12": 1, "k13": 40}))
    else:
        h = _coloring_for_trial(Params(n=85, r=4, t=2, c=3), generator, 0, 0)
    digest = hashlib.sha256(h.colors.tobytes()).hexdigest()
    assert digest == FIRST_K85_DIGESTS[generator]


# sha256 of the first three colorings of the hashed K_85^4 streams: offsets
# 1 and 2 scramble the mix of all 32 table chunks
K85_STREAM_DIGESTS = {
    "pair-lock": (
        "2ac94df7e8b92ae04a7de45e9cf58dbb3c849897e7ac46b46881a2ec75201098",
        "78e47b7054c2000f0bfd9774b718ee433ca8a64b0fd5ee3dec34a85bd3124b45",
        "64d8a090d428cff53a2823de63d4f4312a71c9421e1660a2fc21de398452be86"),
    "u-profile": (
        "a392c62d110996d3ee3d3ac4760d6699c462c9d8aface2fa7f47bd4da59db83b",
        "52177e04c62ece70f66ae6425518217f136f16e55c8d839529aae898c0a6417e",
        "83e3eb425dde90c09f214375c40c6a0a4ff65ae4673cab9ab19fd647edbea4ba"),
}


@pytest.mark.parametrize("generator", sorted(K85_STREAM_DIGESTS))
def test_first_three_k85_stream_colorings_are_pinned(generator):
    if generator == "u-profile":
        stream = structured_colorings(
            "u-profile", {"n": 85, "k23": 1, "k12": 1, "k13": 40})
        got = [h.colors for h in itertools.islice(stream, 3)]
    else:
        p = Params(n=85, r=4, t=2, c=3)
        got = [_coloring_for_trial(p, generator, 0, i).colors for i in range(3)]
    assert tuple(hashlib.sha256(colors.tobytes()).hexdigest()
                 for colors in got) == K85_STREAM_DIGESTS[generator]


# sha256 of each generator's first K_128^4 coloring.  C(128, 4) = 10,668,000
# rows leave 51,168 in the last 2^16-row chunk, so a lost or doubled partial
# chunk moves these digests
FIRST_K128_DIGESTS = {
    "partition": "e2aa0cb8d59049aad1a97a790f0195d2faa5a57bc5f1bbe39e0d17deba357415",
    "majority": "8120e4896a4b248c37c725cb6e0c414fe7f442cd10b187c41e611be82253facd",
    "pair-lock": "a307632760acc34543e8e843d3e84fc8d4ff6ace21ca206e21a89c511d51d14a",
}


@pytest.mark.parametrize("generator", sorted(FIRST_K128_DIGESTS))
def test_first_k128_coloring_is_pinned(generator):
    h = next(structured_colorings(generator, {"n": 128, "r": 4, "c": 3}))
    digest = hashlib.sha256(h.colors.tobytes()).hexdigest()
    assert digest == FIRST_K128_DIGESTS[generator]


def test_u_profile_stream_is_pinned():
    stream = structured_colorings(
        "u-profile", {"n": 30, "k23": 1, "k12": 1, "k13": 18})
    digest = hashlib.sha256()
    for h in itertools.islice(stream, 3):
        digest.update(h.colors.tobytes())
    assert digest.hexdigest() == \
        "acde13377c76a667dc427d169b0f129ab2f8b833645095d834a95284f4eb3f11"


# sha256 of the first two colorings of each census u-profile stream, recorded
# from the seven-way class rule and member masks the pick table replaced;
# the engineered deg_w, deg_w2 and deg_u23 edges land in these colors
U_PROFILE_CENSUS_DIGESTS = {
    "u-profile split deg=0": (
        "5f6daa5d84ce8c528df47c7c8be45ca094cc0df47c194957ab7edb6b27cd48e0",
        "6915984cfdc4bc75fc05e54232acfbd1f4f1f5aa9f9321c2cb700e016c03c6e5"),
    "u-profile split deg=1": (
        "229a07bc07258d216691a0105218ca2e499d2bf3f03a0c153e67f5f81be13123",
        "c07107ed87ebbe465bb5253f440249a93bc714f18508757e81c496fcb8ae16bf"),
    "u-profile repair deg_w=0 deg_u23=0": (
        "6fc5557550763ea528145c5d8c58d23c75fb4f7a437ed84c94e586f254383e35",
        "871181fa61793ca3f987b8171bdc217250463f4b8e233dfd795eadaffcab0ac7"),
    "u-profile repair deg_w=0 deg_u23=1": (
        "b0fc1512c96b989c0f6dd39aaf3719c27ee8e3bd6ff3d345364af65ae3b8c189",
        "d8680b280340fbbc9ee692fa3ce3a953c56f8041eb8d42774eb445be6a03442f"),
    "u-profile repair deg_w=0 deg_u23=2": (
        "9f88893c55f95e0a5f376adaba0b7a56d8e5408469964f42fd3fb55fb54b6885",
        "c633427a2270b12f8690704d511aa418fa331298ad9a9f6eda9be5554d0cf02a"),
    "u-profile repair deg_w=1 deg_u23=0": (
        "fa439bd89b23058a283ee5d1d88c73daf03f31f7da69d6ef9d0687d4c2e180dc",
        "1afa4d61ede98313128d44b267dd59404f9671ba9aa5e3352372ae540d2786b2"),
    "u-profile repair deg_w=1 deg_u23=1": (
        "ec6cd33bde5fbbd7247f3ecd9611f64f7ef423830c9b3a058659784a3d464dae",
        "99056f8e445eeb6474db36bc2e281d42a4be76f8d242be1c4957612da697084e"),
    "u-profile repair deg_w=1 deg_u23=2": (
        "5a307526957cd4ee6dd73a198ff669f05c7418831da7dae83259226ac6ea62c4",
        "e3e8a3ebc9798f66d872bb78a83a06799c07fe544027671a593d1c6f437b6761"),
    "u-profile repair deg_w=2 deg_u23=0": (
        "0853a6b12867440d0a57230b34c1f2c9cc6a982b5b77c45d10580a0f69e6eba1",
        "2ae98d277675fc2acb754c26cbb634b13c26ede655a7762fbc0bf5b01a28fd74"),
    "u-profile repair deg_w=2 deg_u23=1": (
        "a0c0668bbd538bd5fc16fb1a9ce8c6eddf28823a61297f3c478ead6e9cae2d19",
        "c41d80813d2f34294d97b35ea84b0ae88331e29e7151436839014364f69f3d5e"),
    "u-profile repair deg_w=2 deg_u23=2": (
        "b00c113174aa2ee8c4a4cccbebe7a332072e00adeb9086d38f7151f523d44489",
        "ab3a749f8b813985b95612f023a8ecb3c4e6be4e61e00f10b2e23ac6d03b4582"),
    "u-profile window": (
        "a392c62d110996d3ee3d3ac4760d6699c462c9d8aface2fa7f47bd4da59db83b",
        "52177e04c62ece70f66ae6425518217f136f16e55c8d839529aae898c0a6417e"),
}


@pytest.mark.parametrize("label", sorted(U_PROFILE_CENSUS_DIGESTS))
def test_census_u_profile_streams_are_pinned(label):
    stream = structured_colorings("u-profile", {"n": 85, **_CASE_STREAMS[label]})
    assert tuple(hashlib.sha256(h.colors.tobytes()).hexdigest()
                 for h in itertools.islice(stream, 2)) == U_PROFILE_CENSUS_DIGESTS[label]


def test_hashed_streams_do_not_repeat():
    # the hash offset is scrambled before the colors are taken mod c (and
    # u-profile's mod 2 and 3), so neither stream repeats with period c or 6
    for c in (2, 3):
        rep = stress_theorem(Params(n=8, r=4, t=2, c=c), generator="pair-lock",
                             trials=2 * c, seed=0)
        assert rep.distinct_colorings == rep.trials
    stream = structured_colorings(
        "u-profile", {"n": 30, "k23": 1, "k12": 1, "k13": 18})
    digests = {hashlib.sha256(h.colors.tobytes()).hexdigest()
               for h in itertools.islice(stream, 7)}
    assert len(digests) == 7


def test_stress_breach_reproducer_goes_to_reproducer_dir(tmp_path,
                                                         monkeypatch):
    def breach(h, budget=0):
        exc = ContractBreach("forced breach")
        exc.trace = ConstructionTrace(branch="case-1")
        raise exc

    monkeypatch.setattr(harness, "r4_find", breach)
    tmp, out = tmp_path / "tmp", tmp_path / "out"
    tmp.mkdir()
    out.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    p = Params(n=85, r=4, t=2, c=3)
    with pytest.raises(ContractBreach, match="forced breach"):
        stress_theorem(p, trials=1, seed=0, reproducer_dir=str(out))
    name = "breach-random-n85-r4-t2-c3-0-0.coloring"
    assert sorted(f.name for f in out.iterdir()) == [name,
                                                     name + ".trace.json"]
    assert np.array_equal(read_coloring(out / name).colors,
                          _coloring_for_trial(p, "random", 0, 0).colors)
    assert json.loads((out / (name + ".trace.json")).read_text())["branch"] \
        == "case-1"
    assert list(tmp.iterdir()) == []


def test_t3_counterexample_reproducer_reads_back_at_t3(tmp_path):
    # K_4^4 has one edge, so no coloring has a Hamiltonian Berge-cycle
    p = Params(n=4, r=4, t=3, c=2)
    rep = stress_theorem(p, trials=1, seed=0, reproducer_dir=str(tmp_path))
    assert rep.counterexamples == 1
    h = read_coloring(rep.counterexample_files[0])
    assert h.params == p and h.params.t == 3
    assert np.array_equal(h.colors, _coloring_for_trial(p, "random", 0, 0).colors)


def test_reproducer_names_differ_across_a_sweep(tmp_path):
    # K_n^n has one edge, so every trial is a counterexample; the sweep's
    # n = 4 file must survive the n = 5 trial with the same seed and index
    files = []
    for n in (4, 5):
        rep = stress_theorem(Params(n, n, 3, 2), trials=1, seed=0,
                             reproducer_dir=str(tmp_path))
        files += rep.counterexample_files
    assert len(set(files)) == 2
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        Path(f).name for f in files)
    assert [read_coloring(f).params.n for f in files] == [4, 5]


def test_trial_report_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        TrialReport(params=Params(n=6, r=3, t=2, c=1), generator="random",
                    seed=0, trials=3, successes=1, unresolved=1,
                    counterexamples=0, counterexample_files=(),
                    distinct_colorings=1, wall_time=0.0)
    with pytest.raises(ValueError):
        TrialReport(params=Params(n=6, r=3, t=2, c=1), generator="random",
                    seed=0, trials=1, successes=0, unresolved=0,
                    counterexamples=1, counterexample_files=(),
                    distinct_colorings=1, wall_time=0.0)
    for distinct in (0, 3):
        with pytest.raises(ValueError):
            TrialReport(params=Params(n=6, r=3, t=2, c=1), generator="random",
                        seed=0, trials=2, successes=2, unresolved=0,
                        counterexamples=0, counterexample_files=(),
                        distinct_colorings=distinct, wall_time=0.0)


@pytest.mark.parametrize("generator,distinct", [
    ("partition", 1), ("majority", 1), ("near-mono", 5), ("pair-lock", 5),
    ("random", 5)])
def test_stress_reports_distinct_colorings(generator, distinct):
    # partition and majority yield one coloring: five trials, one instance
    rep = stress_theorem(Params(n=8, r=4, t=2, c=2), generator=generator,
                         trials=5, seed=0)
    assert rep.distinct_colorings == distinct
    assert rep.to_json_dict()["distinct_colorings"] == distinct
    assert f"{generator} n=8 r=4 t=2 c=2: 5/5 found ({distinct} distinct)," \
        in rep.summary()


def load_run_stress():
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_stress.py"
    spec = importlib.util.spec_from_file_location("run_stress", script)
    run_stress = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_stress)
    return run_stress


def test_run_stress_script_reports_distinct_colorings(capsys):
    run_stress = load_run_stress()
    argv = ["--r", "4", "--t", "2", "--c", "2", "--n-from", "7", "--n-to",
            "7", "--trials", "3", "--generator", "partition"]
    assert run_stress.main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["distinct_colorings"] == 1
    assert run_stress.main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-2:] == ["distinct", "wall"]
    assert row.split()[-2] == "1"


def test_near_mono_at_one_color_is_the_monochromatic_coloring(capsys):
    # c = 1 is floor((r-2)/(t-1)) for r=5, t=3: no off color to place
    p = Params(n=7, r=5, t=3, c=1)
    colorings = list(structured_colorings("near-mono",
                                          {"n": 7, "r": 5, "t": 3, "c": 1}))
    assert len(colorings) == 1
    assert colorings[0].params == p and (colorings[0].colors == 1).all()
    rep = stress_theorem(p, generator="near-mono", trials=3, seed=0)
    assert (rep.successes, rep.distinct_colorings) == (3, 1)
    argv = ["--r", "5", "--t", "3", "--c", "1", "--generator", "near-mono",
            "--n-from", "7", "--n-to", "7", "--trials", "3", "--json"]
    assert load_run_stress().main(argv) == 0
    assert json.loads(capsys.readouterr().out)["distinct_colorings"] == 1
    with pytest.raises(InvalidParams):
        structured_colorings("near-mono", {"n": 7, "r": 5, "c": 1, "off": 2})


@pytest.mark.parametrize("argv", [
    ["--r", "10", "--n-to", "12"],                       # r past the ceiling
    ["--c", "0", "--n-from", "6", "--n-to", "6"],        # no color
    ["--generator", "bogus", "--n-from", "6", "--n-to", "6"],
    ["--c", "1", "--generator", "pair-lock", "--n-from", "6", "--n-to", "6"],
    ["--jobs", "0", "--n-from", "6", "--n-to", "6"],     # no worker
])
def test_run_stress_script_reports_bad_params_in_one_line(capsys, argv):
    assert load_run_stress().main(argv + ["--trials", "2", "--json"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_stress_summary_mentions_counts():
    rep = stress_theorem(Params(n=6, r=3, t=2, c=1), trials=2, seed=0)
    line = rep.summary()
    assert "2/2" in line and "0 counterexamples" in line


# ---------------------------------------------------------------------------
# structured generators


def test_partition_colors_by_part_of_max_vertex():
    h = next(structured_colorings("partition", {"n": 8, "r": 3, "c": 2}))
    assert h.colors[rank_subset((0, 1, 2))] == 1      # max vertex 2 in the low part
    assert h.colors[rank_subset((0, 1, 7))] == 2
    assert h.colors[rank_subset((5, 6, 7))] == 2


def test_majority_breaks_ties_toward_low_part():
    h = next(structured_colorings("majority", {"n": 8, "r": 4, "c": 2}))
    assert h.colors[rank_subset((0, 1, 2, 3))] == 1
    assert h.colors[rank_subset((4, 5, 6, 7))] == 2
    assert h.colors[rank_subset((0, 1, 6, 7))] == 1   # 2-2 tie goes to part 0


def test_near_mono_streams_over_the_off_edge():
    stream = structured_colorings("near-mono", {"n": 6, "r": 3, "c": 2})
    first, second = next(stream), next(stream)
    assert int(np.sum(first.colors == 2)) == 1
    assert first.colors[0] == 2 and second.colors[1] == 2


def test_pair_lock_hits_exactly_the_pair_rows():
    h = next(structured_colorings(
        "pair-lock", {"n": 7, "r": 3, "c": 3, "pair": (1, 3), "lock": 3}))
    for tri in itertools.combinations(range(7), 3):
        if {1, 3} <= set(tri):
            assert h.colors[rank_subset(tri)] == 3


def test_unknown_kind_is_an_error():
    with pytest.raises(InvalidParams):
        structured_colorings("no-such-kind", {"n": 6, "r": 3, "c": 2})


@pytest.mark.parametrize("kind,params,missing", [
    ("partition", {"n": 10, "r": 4}, "c"),
    ("majority", {"r": 4, "c": 3}, "n"),
    ("near-mono", {"n": 10, "c": 2}, "r"),
    ("pair-lock", {"r": 4, "c": 3}, "n"),
    ("u-profile", {"k23": 1, "k12": 1, "k13": 40}, "n"),
    ("u-profile", {"n": 85, "k12": 1, "k13": 40}, "k23"),
])
def test_a_missing_param_is_invalid_params_naming_it(kind, params, missing):
    # n, r and c once reached the family as a bare dict lookup: KeyError
    with pytest.raises(InvalidParams, match=f"missing '{missing}'"):
        next(structured_colorings(kind, params))


def test_u_profile_matches_requested_sizes():
    # the documented target: (|U23|, |U12|, |U13|) = (1, 2, rest)
    h = next(structured_colorings(
        "u-profile", {"n": 85, "k23": 1, "k12": 2, "k13": 41}))
    s = build_shadow(h, 2)
    # recount through the real shadow, not the generator's own bookkeeping
    from bergecycles.r4 import compute_u_profiles
    row = compute_u_profiles(s)[0]            # the pivot's good sets, U23 first
    sizes = [np.count_nonzero(row == bits) for bits in (0b110, 0b011, 0b101, 0b111)]
    assert sizes == [1, 2, 41, 85 - 1 - 1 - 2 - 41]


def test_u_profile_check_fires_on_a_coloring_that_missed(monkeypatch):
    # the plain hash coloring leaves every pair good in all three colors, so
    # the first pivot pair, wanted in U23 (k23 = 1), is named
    monkeypatch.setattr(harness, "_u_profile_colors",
                        lambda n, *args: harness._hash_colors(n, 4, 3, args[-1]))
    with pytest.raises(RuntimeError, match=r"pair \(0,1\) has goodmask 111, wanted 110"):
        next(structured_colorings("u-profile", {"n": 85, "k23": 1, "k12": 1, "k13": 41}))


def test_u_profile_rejects_infeasible_requests():
    for bad in (
        {"n": 85, "k23": 2, "k12": 2, "k13": 10},      # budget overflow
        {"n": 85, "k23": 0, "k12": 0, "k13": 10},      # empty U12
        {"n": 85, "k23": 1, "k12": 1, "k13": 1},       # pivot half-covered
        {"n": 20, "k23": 1, "k12": 1, "k13": 8},       # too small
        {"n": 85, "k23": 0, "k12": 1, "k13": 42, "deg_u23": 1},
        {"n": 85, "k23": 1, "k12": 1, "k13": 41, "deg_w": 5},
        {"n": 85, "k23": 1, "k12": 1, "k13": 41, "deg_w2": 1},
        {"n": 85, "k23": 0, "k12": 1, "k13": 42, "deg_w2": 1},
        *({"n": 40, "k23": 0, "k12": 1, "k13": 20, **shape}   # once K_40^4, c = 3
          for shape in ({"r": 5, "c": 2}, {"r": 5}, {"t": 3}, {"c": 2})),
    ):
        with pytest.raises(InvalidParams):
            next(structured_colorings("u-profile", bad))


def test_u_profile_engineered_degrees_re_derivable():
    h = next(structured_colorings(
        "u-profile", {"n": 85, "k23": 1, "k12": 1, "k13": 41,
                      "deg_w": 1, "deg_u23": 1}))
    # t=1, y=2, z-class = 3..43, first all-good vertex = 44
    got_l = sum(h.colors[rank_subset(sorted((0, 1, 2, z)))] == 1
                for z in range(3, 44))
    got_w = sum(h.colors[rank_subset(sorted((0, 2, z, 44)))] == 1
                for z in range(3, 44))
    assert got_l == 1 and got_w == 1


def test_u_profile_stream_varies_but_keeps_profile():
    stream = structured_colorings(
        "u-profile", {"n": 85, "k23": 0, "k12": 1, "k13": 42})
    a, b = next(stream), next(stream)
    assert not np.array_equal(a.colors, b.colors)


# ---------------------------------------------------------------------------
# one guard: extract.lift_to_berge builds and verifies every certificate


def _spy_lifts(monkeypatch):
    """Every `verify_berge_certificate` call made through any binding in the
    package, and every certificate a `lift_to_berge` call returned."""
    import sys
    from bergecycles import core, extract
    verified, lifted = [], []
    real_verify, real_lift = core.verify_berge_certificate, extract.lift_to_berge

    def verify(cert, h):
        verified.append(cert)
        return real_verify(cert, h)

    def lift(w, h):
        lifted.append(real_lift(w, h))
        return lifted[-1]

    for key, module in list(sys.modules.items()):
        if key == "bergecycles" or key.startswith("bergecycles."):
            for name, spy, real in (("verify_berge_certificate", verify, real_verify),
                                    ("lift_to_berge", lift, real_lift)):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy)
    return verified, lifted


# lemma-3.1 lifts twice: the link's cycle, then the vertex re-inserted
VERIFIES_PER_BRANCH = {"B-cover": 1, "single-good-fallback": 1, "case-1": 1,
                       "case-2": 1, "lemma-3.1": 2}


@pytest.mark.parametrize("label,make", _census_fixtures())
def test_r4_find_returns_the_certificate_its_lift_verified(monkeypatch, label,
                                                           make):
    from bergecycles.r4 import r4_find
    h = make()
    verified, lifted = _spy_lifts(monkeypatch)
    res = r4_find(h)
    assert len(verified) == VERIFIES_PER_BRANCH[res.trace.branch]
    assert res.certificate is lifted[-1] and res.certificate is verified[-1]


def test_oracle_verifies_only_the_certificate_it_returns(monkeypatch):
    verified, lifted = _spy_lifts(monkeypatch)
    found = 0
    for seed in range(8):               # K_5^3 in 3 colors: 5 found, 3 proofs
        h = random_coloring(Params(n=5, r=3, t=2, c=3), seed=seed)
        cert = brute_force_exists(h)
        if cert is not None:
            found += 1
            assert cert is lifted[-1] and cert is verified[-1]
        assert len(verified) == found
    assert found == 5


def test_stress_verifies_each_found_trial_once(monkeypatch):
    verified, _ = _spy_lifts(monkeypatch)
    rep = stress_theorem(Params(n=8, r=4, t=2, c=2), trials=6, seed=3)
    assert rep.successes and len(verified) == rep.successes


def test_negative_budget_raises_and_zero_stays_legal():
    # a negative budget once ran as budget 0: both found a cycle, 2/2 trials
    h = random_coloring(Params(n=8, r=3, t=2, c=1), seed=11)
    with pytest.raises(InvalidParams, match="need budget >= 0, got budget=-5"):
        find_certificate(h, budget=-5)
    with pytest.raises(InvalidParams, match="need budget >= 0, got budget=-5"):
        stress_theorem(Params(6, 3, 2, 2), trials=2, budget=-5)
    assert find_certificate(h, budget=0).status == "found"
    assert stress_theorem(Params(6, 3, 2, 2), trials=2, budget=0).trials == 2


def test_stress_rejects_more_than_32_colors_before_any_trial(monkeypatch):
    # with jobs > 1 the pool once ran every trial before the first trial's
    # InvalidParams reached the caller
    import multiprocessing

    def unused(*args, **kwargs):
        raise AssertionError("a pool or trial started")
    monkeypatch.setattr(multiprocessing, "Pool", unused)
    monkeypatch.setattr(harness, "_run_trial", unused)
    with pytest.raises(InvalidParams, match="c <= 32 colors, got c=40"):
        stress_theorem(Params(n=6, r=3, t=3, c=40), trials=5, jobs=2)


@pytest.mark.parametrize("trials,jobs,workers", [(0, 4, []), (1, 4, []), (3, 8, [3])])
def test_stress_starts_no_more_workers_than_trials(monkeypatch, tmp_path, trials, jobs,
                                                   workers):
    # --trials 1 --jobs 64 once started 64 workers for one trial
    import multiprocessing
    started = []

    class Pool:                         # runs the trials here, recording its size
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return [fn(w) for w in work]

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    p = Params(6, 3, 2, 2)
    rep = stress_theorem(p, trials=trials, budget=0, jobs=jobs, reproducer_dir=str(tmp_path))
    assert started == workers
    serial = stress_theorem(p, trials=trials, budget=0, reproducer_dir=str(tmp_path))
    assert {**rep.to_json_dict(), "wall_time": 0} == {**serial.to_json_dict(), "wall_time": 0}


@pytest.mark.parametrize("generator,params,message", [
    ("bogus", Params(n=6, r=3, t=2, c=2), "unknown generator kind: 'bogus'"),
    ("u-profile", Params(n=85, r=4, t=2, c=3), "u-profile needs class sizes"),
    ("u-profile", Params(n=40, r=5, t=2, c=2), "3 colors at t = 2 only"),
])
@pytest.mark.parametrize("trials", [0, 3])
def test_stress_rejects_an_unusable_generator_before_any_trial(monkeypatch, generator,
                                                               params, message, trials):
    # at trials = 0 a bogus generator once gave a report that named it
    def unused(*args, **kwargs):
        raise AssertionError("a trial started")
    monkeypatch.setattr(harness, "_run_trial", unused)
    with pytest.raises(InvalidParams, match=message):
        stress_theorem(params, generator=generator, trials=trials)
