import itertools
import json
import subprocess
import sys

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


def test_extract_default_paths_sit_next_to_the_input(tiny_coloring, capsys):
    assert main(["extract", tiny_coloring]) == 0
    base = tiny_coloring[:-4]
    assert json.load(open(base + ".cert.json"))["core"]
    assert "branch" in json.load(open(base + ".trace.json"))


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


def test_shadow_dump_layout(tiny_coloring, capsys):
    assert main(["shadow-dump", tiny_coloring]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 28                       # C(8,2) pairs
    first = lines[0].split(" : ")
    assert first[0] == "0 1" and len(first[1].split()) == 2


def test_file_params_win_without_force(tiny_coloring, capsys):
    assert main(["shadow-dump", tiny_coloring, "--t", "3"]) == 0
    err = capsys.readouterr().err
    assert "ignoring --t" in err
    capsys.readouterr()
    assert main(["shadow-dump", tiny_coloring, "--t", "3", "--force"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 56                       # C(8,3) triples now


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
    for blob in ('{"color": 1}', "[1, 2]",
                 '{"color": 1, "core": [0, 1], "edges": [[0, "x"]], "t": 2}'):
        bad.write_text(blob)
        capsys.readouterr()
        assert main(["verify", str(bad), tiny_coloring]) == 3
        assert "certificate JSON" in capsys.readouterr().err


def test_non_text_input_is_a_usage_error(tiny_coloring, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00" + bytes(range(256)))
    assert main(["verify", str(bad), tiny_coloring]) == 3
    assert "bad certificate JSON" in capsys.readouterr().err
    assert main(["search", str(bad)]) == 3
    assert "coloring file is not text" in capsys.readouterr().err


def test_rank_beyond_the_binomial_table_is_a_usage_error(tmp_path, capsys):
    # r=10 passes the header checks but has no column in the rank table
    lines = [" ".join(map(str, e)) + " : 1"
             for e in itertools.combinations(range(12), 10)]
    path = tmp_path / "r10.txt"
    path.write_text("berge-coloring v1\nr=10 n=12 c=2\n" + "\n".join(lines) + "\n")
    assert main(["verify", str(path), str(path)]) == 3
    err = capsys.readouterr().err
    assert "r=10" in err and "Traceback" not in err


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
