import hashlib
import itertools
import json
import tempfile

import numpy as np
import pytest

from bergecycles import harness
from bergecycles.core import (
    ColoredHypergraph,
    ContractBreach,
    InvalidParams,
    Params,
    random_coloring,
    rank_subset,
    read_coloring,
    verify_berge_certificate,
)
from bergecycles.extract import extend_tight_cycle
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
from bergecycles.shadow import build_shadow


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
    cert = brute_force_exists(h, t=3)
    assert cert is not None and cert.t == 3
    assert verify_berge_certificate(cert, h, t=3) is None


def test_oracle_deterministic():
    h = random_coloring(Params(n=8, r=3, t=2, c=3), seed=42)
    a = brute_force_exists(h)
    b = brute_force_exists(h)
    assert a == b


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
    name = "breach-random-0-0.coloring"
    assert sorted(f.name for f in out.iterdir()) == [name,
                                                     name + ".trace.json"]
    assert np.array_equal(read_coloring(out / name).colors,
                          _coloring_for_trial(p, "random", 0, 0).colors)
    assert json.loads((out / (name + ".trace.json")).read_text())["branch"] \
        == "case-1"
    assert list(tmp.iterdir()) == []


def test_trial_report_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        TrialReport(params=Params(n=6, r=3, t=2, c=1), generator="random",
                    seed=0, trials=3, successes=1, unresolved=1,
                    counterexamples=0, counterexample_files=(),
                    wall_time=0.0)
    with pytest.raises(ValueError):
        TrialReport(params=Params(n=6, r=3, t=2, c=1), generator="random",
                    seed=0, trials=1, successes=0, unresolved=0,
                    counterexamples=1, counterexample_files=(),
                    wall_time=0.0)


def test_stress_summary_mentions_counts():
    rep = stress_theorem(Params(n=6, r=3, t=2, c=1), trials=2, seed=0)
    line = rep.summary()
    assert "2/2" in line and "0 counterexamples" in line


# ---------------------------------------------------------------------------
# structured generators


def test_partition_colors_by_part_of_max_vertex():
    h = next(structured_colorings("partition", {"n": 8, "r": 3, "c": 2}))
    assert h.color_of((0, 1, 2)) == 1      # max vertex 2 in the low part
    assert h.color_of((0, 1, 7)) == 2
    assert h.color_of((5, 6, 7)) == 2


def test_majority_breaks_ties_toward_low_part():
    h = next(structured_colorings("majority", {"n": 8, "r": 4, "c": 2}))
    assert h.color_of((0, 1, 2, 3)) == 1
    assert h.color_of((4, 5, 6, 7)) == 2
    assert h.color_of((0, 1, 6, 7)) == 1   # 2-2 tie goes to part 0


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
            assert h.color_of(tri) == 3


def test_unknown_kind_is_an_error():
    with pytest.raises(InvalidParams):
        structured_colorings("no-such-kind", {"n": 6, "r": 3, "c": 2})


def test_u_profile_matches_requested_sizes():
    # the documented target: (|U23|, |U12|, |U13|) = (1, 2, rest)
    h = next(structured_colorings(
        "u-profile", {"n": 85, "k23": 1, "k12": 2, "k13": 41}))
    s = build_shadow(h, 2)
    # recount through the real shadow, not the generator's own bookkeeping
    from bergecycles.r4 import compute_u_profiles
    prof = compute_u_profiles(s)[0]
    assert (len(prof.U23), len(prof.U12), len(prof.U13)) == (1, 2, 41)
    assert len(prof.U123) == 85 - 1 - 1 - 2 - 41


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
    ):
        with pytest.raises(InvalidParams):
            next(structured_colorings("u-profile", bad))


def test_u_profile_engineered_degrees_re_derivable():
    h = next(structured_colorings(
        "u-profile", {"n": 85, "k23": 1, "k12": 1, "k13": 41,
                      "deg_w": 1, "deg_u23": 1}))
    # t=1, y=2, z-class = 3..43, first all-good vertex = 44
    got_l = sum(h.color_of(tuple(sorted((0, 1, 2, z)))) == 1
                for z in range(3, 44))
    got_w = sum(h.color_of(tuple(sorted((0, 2, z, 44)))) == 1
                for z in range(3, 44))
    assert got_l == 1 and got_w == 1


def test_u_profile_stream_varies_but_keeps_profile():
    stream = structured_colorings(
        "u-profile", {"n": 85, "k23": 0, "k12": 1, "k13": 42})
    a, b = next(stream), next(stream)
    assert not np.array_equal(a.colors, b.colors)
