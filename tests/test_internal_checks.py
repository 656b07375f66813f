"""Checks that guard returned results must still run under `python -O`.

Each test starts a fresh interpreter with -O (which strips `assert`), forces
one guard to fail by patching the module it lives in, and expects an
`InternalError` (a `ContractBreach`) instead of an unverified result.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_optimized(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    prelude = "import sys\nif not sys.flags.optimize:\n    sys.exit(99)\n"
    return subprocess.run(
        [sys.executable, "-O", "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})


def test_r4_final_verify_reaches_cli_breach_handler(tmp_path):
    cert_path = tmp_path / "out.cert.json"
    proc = run_optimized(f"""
        from bergecycles import Params, cli, r4, random_coloring
        h = random_coloring(Params(n=85, r=4, t=2, c=3), seed=1)  # B-cover
        r4.verify_berge_certificate = lambda cert, h, t=None: "forced failure"
        cli._load_coloring = lambda path: h
        sys.exit(cli.main(["extract", "in.txt", "-o", {str(cert_path)!r},
                           "--trace", {str(tmp_path / "out.trace.json")!r}]))
    """)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert ("contract breach: certificate failed final verification: "
            "forced failure") in proc.stdout
    assert "Traceback" not in proc.stderr
    assert not cert_path.exists()


@pytest.mark.parametrize("patch,message", [
    ("extract.verify_berge_certificate = lambda cert, h, t=None: 'forced failure'",
     "assembled certificate invalid: forced failure"),
    ("extract.PositionEdgeBipartite.right_degrees = lambda self: {0: 99}",
     "covering bound violated: {0: 99}"),
], ids=["verify", "covering-bound"])
def test_extend_tight_cycle_guards(patch, message):
    proc = run_optimized(f"""
        import numpy as np
        from bergecycles import extract
        from bergecycles.core import (
            ColoredHypergraph, InternalError, Params, TightCycleWitness)
        from bergecycles.shadow import build_shadow
        h = ColoredHypergraph(Params(n=7, r=4, t=2, c=1), np.ones(35, np.uint8))
        w = TightCycleWitness(color=1, core=tuple(range(7)), t=2)
        s = build_shadow(h, 2)
        {patch}
        try:
            extract.extend_tight_cycle(w, h, s)
        except InternalError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == message


@pytest.mark.parametrize("code,message", [
    ("""
        from bergecycles import r4, structured_colorings
        h = next(structured_colorings("u-profile", {"n": 85, "k23": 0, "k12": 1,
                                                    "k13": 42, "deg_w": 0,
                                                    "deg_w2": 0}))  # case-1
        r4.verify_berge_certificate = lambda cert, h, t=None: "forced failure"
        r4._dump_reproducer = lambda h, trace, tag: None
        r4.r4_find(h)
    """, "internal extension error: forced failure"),
    ("""
        import numpy as np
        from bergecycles import harness
        from bergecycles.core import ColoredHypergraph, Params
        h = ColoredHypergraph(Params(n=6, r=3, t=2, c=1), np.ones(20, np.uint8))
        harness.verify_berge_certificate = lambda cert, h, t=None: "forced failure"
        harness.brute_force_exists(h)
    """, "oracle produced a bad certificate: forced failure"),
    ("""
        from bergecycles import hamilton
        hamilton._peel_closure_cycle = lambda rows, added, cycle: [0, 1, 2, 3, 3]
        hamilton.find_hamiltonian_cycle(hamilton.SimpleGraph.complete(5))
    """, "closure peel returned a non-Hamiltonian cycle: [0, 1, 2, 3, 3]"),
    ("""
        from bergecycles import hamilton
        c6 = hamilton.SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        hamilton._rotation_extension = lambda g, max_ops: [0, 1, 2, 3, 5, 4]
        hamilton.find_hamiltonian_cycle(c6)
    """, "rotation-extension returned a non-Hamiltonian cycle: [0, 1, 2, 3, 5, 4]"),
], ids=["r4-extension", "oracle", "closure-peel", "rotation-extension"])
def test_returned_result_guards(code, message):
    proc = run_optimized(f"""
        from bergecycles.core import InternalError
        try:
{textwrap.indent(textwrap.dedent(code), " " * 12)}
        except InternalError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == message
