import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bergecycles.cli import main
from bergecycles.core import (
    ColoredHypergraph,
    Params,
    edge_table,
    random_coloring,
    write_coloring,
)


@pytest.fixture
def tiny_coloring(tmp_path):
    h = random_coloring(Params(n=8, r=3, t=2, c=2), seed=11)
    path = tmp_path / "tiny.txt"
    write_coloring(h, path)
    return str(path)


@pytest.fixture
def mono_coloring(tmp_path):
    p = Params(n=6, r=3, t=2, c=1)
    h = ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))
    path = tmp_path / "mono.txt"
    write_coloring(h, path)
    return str(path)


def test_search_then_verify_round_trip(tiny_coloring, tmp_path, capsys):
    cert = str(tmp_path / "out.cert.json")
    assert main(["search", tiny_coloring, "-o", cert]) == 0
    capsys.readouterr()
    assert main(["verify", cert, tiny_coloring]) == 0
    out = capsys.readouterr().out
    assert out.startswith("valid:")


def test_verify_rejects_tampered_certificate(mono_coloring, tmp_path, capsys):
    cert = str(tmp_path / "c.json")
    assert main(["search", mono_coloring, "-o", cert]) == 0
    blob = json.load(open(cert))
    blob["edges"][1] = blob["edges"][0]          # duplicate an edge
    json.dump(blob, open(cert, "w"))
    capsys.readouterr()
    assert main(["verify", cert, mono_coloring]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "duplicates" in out


def test_extract_writes_certificate_and_trace(tiny_coloring, tmp_path, capsys):
    cert = str(tmp_path / "a.cert.json")
    trace = str(tmp_path / "a.trace.json")
    assert main(["extract", tiny_coloring, "-o", cert, "--trace", trace]) == 0
    blob = json.load(open(cert))
    assert {"color", "core", "edges", "t"} <= set(blob)
    tr = json.load(open(trace))
    assert {"branch", "subcase", "fallbacks"} <= set(tr)
    assert tr["branch"] == "generic-search"
    assert any(f["stage"] == "good-graph" for f in tr["fallbacks"])


def test_extract_default_paths_sit_next_to_the_input(tiny_coloring, capsys):
    assert main(["extract", tiny_coloring]) == 0
    base = tiny_coloring[:-4]
    assert json.load(open(base + ".cert.json"))["core"]
    assert "branch" in json.load(open(base + ".trace.json"))


def test_extract_breach_on_generic_path_writes_its_trace(tiny_coloring, tmp_path,
                                                         monkeypatch, capsys):
    from bergecycles import extract
    monkeypatch.setattr(extract, "verify_berge_certificate",
                        lambda cert, h, t=None: "forced failure")
    cert = tmp_path / "b.cert.json"
    trace = tmp_path / "b.trace.json"
    assert main(["extract", tiny_coloring, "-o", str(cert),
                 "--trace", str(trace)]) == 4
    assert "assembled certificate invalid: forced failure" in capsys.readouterr().out
    assert json.load(open(trace))["branch"] == "generic-search"
    assert not cert.exists()


def _two_star_coloring(n):
    # Every color's good-pair graph is non-Hamiltonian by design: edges
    # through 0 (not 1) are color 1, through 1 (not 0) color 2, the rest
    # color 3.  Color 1's good graph is a star at 0, color 2's a star at
    # 1, and color 3's leaves vertex 0 with the single neighbour 1.
    p = Params(n=n, r=3, t=2, c=3)
    tab = edge_table(n, 3)
    has0 = (tab == 0).any(axis=1)
    has1 = (tab == 1).any(axis=1)
    colors = np.full(len(tab), 3, dtype=np.int64)
    colors[has0 & ~has1] = 1
    colors[has1 & ~has0] = 2
    return ColoredHypergraph(p, colors)


def test_search_unresolved_exit_code(tmp_path, capsys):
    # n=12 is above the exhaustive range, so a search miss stays open
    path = str(tmp_path / "c.txt")
    write_coloring(_two_star_coloring(12), path)
    assert main(["search", path]) == 2


def test_search_no_oracle_flag(tmp_path, capsys):
    path = str(tmp_path / "c.txt")
    write_coloring(_two_star_coloring(8), path)
    assert main(["search", path, "--no-oracle"]) == 2
    capsys.readouterr()
    # with the exhaustive fallback allowed the same instance resolves
    assert main(["search", path]) == 0
    assert json.loads(capsys.readouterr().out)["color"] == 3


@pytest.fixture
def cycle_free_coloring(tmp_path):
    # the exhaustive oracle proves this K_5^3 coloring has no Berge cycle
    path = tmp_path / "free.txt"
    write_coloring(random_coloring(Params(n=5, r=3, t=2, c=3), seed=1), path)
    return path


def test_search_reports_a_proved_nonexistence(cycle_free_coloring, capsys):
    assert main(["search", str(cycle_free_coloring)]) == 1
    assert capsys.readouterr().out.startswith("nonexistent: ")


def test_extract_without_a_cycle_writes_only_the_trace(cycle_free_coloring,
                                                       tmp_path, capsys):
    cert, trace = tmp_path / "f.cert.json", tmp_path / "f.trace.json"
    assert main(["extract", str(cycle_free_coloring), "-o", str(cert),
                 "--trace", str(trace)]) == 1
    assert "nonexistent: " in capsys.readouterr().out
    assert json.load(open(trace))["branch"] == "oracle"
    assert not cert.exists()


def test_search_unresolved_on_the_r4_route_exits_2(tmp_path, monkeypatch, capsys):
    from bergecycles import r4
    monkeypatch.setattr(r4, "shadow_guided_cert", lambda *args: None)
    path = tmp_path / "k85.coloring"
    write_coloring(random_coloring(Params(n=85, r=4, t=2, c=3), seed=0), path)
    assert main(["search", str(path)]) == 2
    assert capsys.readouterr().out.startswith("unresolved: ")


def test_shadow_dump_layout(tiny_coloring, tmp_path, capsys):
    assert main(["shadow-dump", tiny_coloring]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.strip().splitlines()
    assert len(lines) == 28                       # C(8,2) pairs
    first = lines[0].split(" : ")
    assert first[0] == "0 1" and len(first[1].split()) == 2
    dump = tmp_path / "shadow.txt"
    assert main(["shadow-dump", tiny_coloring, "-o", str(dump)]) == 0
    assert capsys.readouterr().out == f"shadow: {dump}\n"
    assert dump.read_text() == stdout


def test_t3_file_runs_search_extract_and_verify(tmp_path, capsys):
    # search, extract and shadow-dump take t from the file; no flag sets it
    path = tmp_path / "t3.coloring"
    write_coloring(random_coloring(Params(n=9, r=6, t=3, c=2), seed=1), path)
    assert main(["search", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == 3
    cert = tmp_path / "t3.cert.json"
    assert main(["extract", str(path), "-o", str(cert),
                 "--trace", str(tmp_path / "t3.trace.json")]) == 0
    assert json.load(open(cert))["t"] == 3
    capsys.readouterr()
    assert main(["verify", str(cert), str(path)]) == 0
    assert capsys.readouterr().out.startswith("valid:")
    assert main(["shadow-dump", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 84   # C(9,3) triples


@pytest.mark.parametrize("n", [12, 20])
def test_shadow_dump_text_is_unchanged(n, tmp_path, capsys):
    # the dumps of seeded random 3-colorings of K_n^4 as the fully counted
    # shadow wrote them; at n = 20 the good sets come from witnesses
    path = tmp_path / f"k{n}.coloring"
    write_coloring(random_coloring(Params(n=n, r=4, t=2, c=3), seed=n), path)
    assert main(["shadow-dump", str(path)]) == 0
    want = Path(__file__).parent / "data" / f"shadow_dump_k{n}.txt"
    assert capsys.readouterr().out == want.read_text()


def test_shadow_dump_t_sets_the_dump_tightness(tiny_coloring, capsys):
    assert main(["shadow-dump", tiny_coloring, "--t", "3"]) == 0
    out, err = capsys.readouterr()
    assert len(out.strip().splitlines()) == 56    # C(8,3) triples
    assert err == ""
    assert main(["shadow-dump", tiny_coloring, "--t", "9"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_coloring_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a coloring\n")
    assert main(["verify", str(bad), str(bad)]) == 3
    assert main(["search", str(bad)]) == 3
    assert main(["extract", str(bad)]) == 3


def test_missing_file_is_a_usage_error(capsys):
    assert main(["search", "/nonexistent/x.txt"]) == 3


def test_malformed_certificate_json(tiny_coloring, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad), tiny_coloring]) == 3
    assert capsys.readouterr().err.startswith("error: bad certificate JSON: ")
    for blob in ('{"color": 1}', "[1, 2]",
                 '{"color": 1, "core": [0, 1], "edges": [[0, "x"]], "t": 2}'):
        bad.write_text(blob)
        capsys.readouterr()
        assert main(["verify", str(bad), tiny_coloring]) == 3
        assert capsys.readouterr().err.startswith("error: malformed certificate JSON: ")


@pytest.mark.parametrize("field,value", [
    ("color", 1.9), ("core", "01234"), ("t", 2.7), ("color", 1.0), ("color", True),
    ("t", "2"), ("core", [0, 1, 2, 3, 4.0]), ("core", {}), ("edges", None),
    ("edges", [[0, 1, 2]] * 4 + [[0, 1, False]]), ("edges", [[0, 1, 2]] * 4 + ["012"]),
    ("edges", [[0, 1, 2]] * 4 + [7]), ("edges", [[0, 1, 2]] * 4 + [""]),
])
def test_verify_rejects_non_integer_certificate_fields(tmp_path, capsys, field,
                                                       value):
    # the first three used to be coerced by int() and verify as valid
    p = Params(n=5, r=3, t=2, c=1)
    coloring = str(tmp_path / "k5.coloring")
    write_coloring(ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8)), coloring)
    cert = tmp_path / "c.json"
    assert main(["search", coloring, "-o", str(cert)]) == 0
    blob = json.loads(cert.read_text())
    assert main(["verify", str(cert), coloring]) == 0
    blob[field] = value
    cert.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["verify", str(cert), coloring]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: malformed certificate JSON: ")
    assert err.count("\n") == 1


def test_verify_imports_no_numpy(mono_coloring, tmp_path):
    # verify, valid, invalid or malformed, runs on the standard library alone
    # (the checker), and so does a bare import of the package
    good, dup, bad = (tmp_path / f"{name}.json" for name in ("good", "dup", "bad"))
    assert main(["search", mono_coloring, "-o", str(good)]) == 0
    blob = json.loads(good.read_text())
    blob["edges"][1] = blob["edges"][0]
    dup.write_text(json.dumps(blob))
    bad.write_text("[1, 2]")
    code = f"""if True:
        import sys
        import bergecycles
        assert "numpy" not in sys.modules
        from bergecycles.cli import main
        certs = {[str(good), str(dup), str(bad)]!r}
        codes = [main(["verify", c, {mono_coloring!r}]) for c in certs]
        print(codes, "numpy" in sys.modules)
    """
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 1, 3] False"


def test_package_names_are_bound_as_their_modules_load():
    # a bare import loads no module; core, harness and r4 bind their public
    # names on the package as they load, each its module's own object, so the
    # benchmark tracer patches and restores them; __getattr__ finds a name
    # whose module is not loaded yet by importing that module
    code = """if True:
        import sys
        import bergecycles as bc
        public = set(bc.__all__)
        assert not public & set(vars(bc)) and "numpy" not in sys.modules
        import bergecycles.core as core
        assert public & set(vars(bc)) == set(bc._HOMES["core"])
        assert all(vars(bc)[name] is getattr(core, name) for name in bc._HOMES["core"])
        r4_find = bc.r4_find
        import bergecycles.r4 as r4
        assert r4_find is r4.r4_find is vars(bc)["r4_find"]
        namespace = {}
        exec("from bergecycles import *", namespace)
        assert public <= set(namespace) and public <= set(vars(bc))
        print("ok")
    """
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
    import bergecycles
    for name in bergecycles.__all__:
        module = importlib.import_module(f"bergecycles.{bergecycles._MODULE[name]}")
        assert vars(bergecycles)[name] is getattr(module, name)
    with pytest.raises(AttributeError):
        bergecycles.no_such_name


def test_non_text_input_is_a_usage_error(tiny_coloring, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00" + bytes(range(256)))
    assert main(["verify", str(bad), tiny_coloring]) == 3
    assert capsys.readouterr().err.startswith("error: bad certificate JSON: ")
    assert main(["search", str(bad)]) == 3
    assert ("not a berge-coloring v2 file: it starts with b'\\xff\\xfe\\x00"
            in capsys.readouterr().err)


def test_v1_file_is_rejected_in_one_line(tmp_path, capsys):
    # the retired text layout: magic, an r= n= c= header, `verts : color` lines
    path = tmp_path / "old.txt"
    path.write_text("berge-coloring v1\nr=3 n=4 c=2\n0 1 2 : 1\n0 1 3 : 2\n"
                    "0 2 3 : 1\n1 2 3 : 2\n")
    for argv in (["search", str(path)], ["extract", str(path)],
                 ["shadow-dump", str(path)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "berge-coloring v2" in err and "berge-coloring v1" in err
        assert "Traceback" not in err


def test_rank_beyond_the_binomial_table_is_a_usage_error(tmp_path, capsys):
    # r=10 passes the header syntax but has no column in the rank table
    path = tmp_path / "r10.coloring"
    path.write_bytes(b"berge-coloring v2\nr=10 n=12 t=2 c=2\n"
                     + bytes([1]) * math.comb(12, 10))
    assert main(["verify", str(path), str(path)]) == 3
    assert capsys.readouterr().err == "error: r=10 exceeds supported maximum 9\n"


def test_bad_subcommand_usage(capsys):
    assert main([]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["stress", "--n", "6"]) == 3      # missing required flags


def test_stress_rejects_unusable_generators(capsys):
    assert main(["stress", "--n", "6", "--r", "3", "--c", "2",
                 "--trials", "1", "--generator", "no-such-kind"]) == 3
    # u-profile needs class sizes the CLI cannot supply
    assert main(["stress", "--n", "85", "--r", "4", "--c", "3",
                 "--trials", "1", "--generator", "u-profile"]) == 3


def test_stress_counterexample_exits_1_with_its_reproducer(tmp_path, capsys):
    rc = main(["stress", "--n", "5", "--r", "3", "--c", "3", "--trials", "3",
               "--seed", "0", "--reproducer-dir", str(tmp_path)])
    assert rc == 1
    assert "1 counterexamples" in capsys.readouterr().out.splitlines()[-1]
    assert [f.name for f in tmp_path.iterdir()] == [
        "counterexample-random-n5-r3-t2-c3-0-1.coloring"]


def test_stress_bad_params_is_one_usage_line(capsys):
    assert main(["stress", "--n", "6", "--r", "4", "--t", "5", "--c", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 2 <= t <= r <= n, got t=5 r=4 n=6\n"


@pytest.mark.parametrize("flags,message", [
    (["--t", "0", "--trials", "1"], "need 2 <= t <= r <= n, got t=0 r=3 n=6"),
    (["--trials", "-1"], "need trials >= 0, got trials=-1"),
], ids=["t=0", "trials=-1"])
def test_stress_zero_t_and_negative_trials_are_one_usage_line(capsys, flags,
                                                              message):
    # --t 0 once ran at t = 2, and --trials -1 ended in a traceback, exit 1
    assert main(["stress", "--n", "6", "--r", "3", "--c", "2", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_stress_jobs_below_one_is_one_usage_line(capsys, jobs):
    # --jobs 0 and --jobs -3 once ran the trials serially and exited 0
    assert main(["stress", "--n", "6", "--r", "3", "--c", "2", "--trials", "1",
                 "--jobs", jobs]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need jobs >= 1, got jobs={jobs}\n"


@pytest.mark.parametrize("command", ["search", "extract", "stress"])
def test_negative_budget_is_one_usage_line(tiny_coloring, tmp_path, capsys,
                                           command):
    # a negative budget once ran as budget 0 and exited 0; nothing is written
    out = tmp_path / "out"
    out.mkdir()
    argv = {"search": ["search", tiny_coloring, "-o", str(out / "cert.json")],
            "extract": ["extract", tiny_coloring, "-o", str(out / "cert.json"),
                        "--trace", str(out / "trace.json")],
            "stress": ["stress", "--n", "6", "--r", "3", "--c", "2",
                       "--trials", "1", "--reproducer-dir", str(out)]}[command]
    assert main([*argv, "--budget", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need --budget >= 0, got --budget -1\n"
    assert list(out.iterdir()) == []


def test_zero_budget_is_a_legal_search(tiny_coloring, capsys):
    assert main(["search", tiny_coloring, "--budget", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["core"]


def test_stress_missing_reproducer_dir_fails_before_any_trial(tmp_path,
                                                              monkeypatch, capsys):
    from bergecycles import harness
    monkeypatch.setattr(harness, "stress_theorem", lambda *a, **kw: pytest.fail("ran"))
    missing = tmp_path / "missing"
    assert main(["stress", "--n", "5", "--r", "3", "--c", "3", "--trials", "3",
                 "--reproducer-dir", str(missing)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --reproducer-dir {missing} is not a directory\n"


def test_stress_json_report_and_summary(capsys):
    rc = main(["stress", "--n", "6", "--r", "3", "--c", "1",
               "--trials", "3", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    blob = json.loads(out[:out.rindex("}") + 1])
    assert blob["trials"] == 3 and blob["successes"] == 3
    assert "3/3 found" in out.splitlines()[-1]


def test_stress_output_file(tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    rc = main(["stress", "--n", "7", "--r", "3", "--c", "2",
               "--trials", "4", "--seed", "2", "--jobs", "2", "-o", rep])
    assert rc == 0
    assert json.load(open(rep))["trials"] == 4


def test_console_entry_point_subprocess(tiny_coloring):
    # one end-to-end smoke through a real process boundary
    proc = subprocess.run(
        [sys.executable, "-m", "bergecycles.cli", "search", tiny_coloring],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["core"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_on_one_edge_k_n_n_is_nonexistent(n, tmp_path):
    # no Hamiltonian Berge-cycle: K_2^2 has too few vertices, and at n = r
    # the one edge cannot back n positions
    p = Params(n=n, r=n, t=n, c=1)
    path = tmp_path / f"k{n}.txt"
    write_coloring(ColoredHypergraph(p, np.ones(1, dtype=np.uint8)), path)
    proc = subprocess.run(
        [sys.executable, "-m", "bergecycles.cli", "search", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.startswith("nonexistent:")
    assert "Traceback" not in proc.stderr
