"""Checks that guard returned results must still run under `python -O`.

Each test starts a fresh interpreter with -O (which strips `assert`), forces
one guard to fail by patching the module it lives in, and expects an
`InternalError` (a `ContractBreach`) instead of an unverified result.
The last test checks that every definition in src/ has a reader outside
the tests.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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
        from bergecycles import Params, cli, extract, random_coloring
        h = random_coloring(Params(n=85, r=4, t=2, c=3), seed=1)  # B-cover
        # the lift is the only verify on the way to a returned certificate
        extract.verify_berge_certificate = lambda cert, h, t=None: "forced failure"
        cli._load_coloring = lambda path: h
        sys.exit(cli.main(["extract", "in.txt", "-o", {str(cert_path)!r},
                           "--trace", {str(tmp_path / "out.trace.json")!r}]))
    """)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert ("contract breach: assembled certificate invalid: "
            "forced failure") in proc.stdout
    assert "Traceback" not in proc.stderr
    assert not cert_path.exists()


@pytest.mark.parametrize("patch,message", [
    ("extract.verify_berge_certificate = lambda cert, h, t=None: 'forced failure'",
     "assembled certificate invalid: forced failure"),
    ("extract.PositionEdgeBipartite.right_degrees = lambda self, above=0: {0: 99}",
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
        from bergecycles import extract, r4, structured_colorings
        h = next(structured_colorings("u-profile", {"n": 85, "k23": 0, "k12": 1,
                                                    "k13": 42, "deg_w": 0,
                                                    "deg_w2": 0}))  # case-1
        extract.verify_berge_certificate = lambda cert, h, t=None: "forced failure"
        r4.r4_find(h)
    """, "assembled certificate invalid: forced failure"),
    ("""
        import numpy as np
        from bergecycles import extract, harness
        from bergecycles.core import ColoredHypergraph, Params
        h = ColoredHypergraph(Params(n=6, r=3, t=2, c=1), np.ones(20, np.uint8))
        extract.verify_berge_certificate = lambda cert, h, t=None: "forced failure"
        harness.brute_force_exists(h)
    """, "assembled certificate invalid: forced failure"),
    ("""
        from bergecycles import hamilton
        hamilton._peel_closure_cycle = lambda rows, added, cycle: [0, 1, 2, 3, 3]
        k5 = [0b11111 ^ 1 << v for v in range(5)]
        hamilton.find_hamiltonian_cycle(hamilton.SimpleGraph(5, k5))
    """, "closure peel returned a non-Hamiltonian cycle: [0, 1, 2, 3, 3]"),
    ("""
        from bergecycles import hamilton
        # two triangles sharing vertex 2, with a closure that claims K_5
        bowtie = hamilton.SimpleGraph(5, [0b110, 0b101, 0b11011, 0b10100, 0b1100])
        hamilton.bondy_chvatal_closure = lambda g: (
            [0b11111 ^ 1 << v for v in range(5)], [(0, 3), (0, 4), (1, 3), (1, 4)])
        hamilton.find_hamiltonian_cycle(bowtie)
    """, "closure peel found no crossing chord for added edge (0, 3)"),
    ("""
        from bergecycles import hamilton
        c6 = hamilton.SimpleGraph(6, [1 << (v - 1) % 6 | 1 << (v + 1) % 6 for v in range(6)])
        hamilton._backtrack_hamilton = lambda g, budget: hamilton.HamiltonSearch(
            "found", (0, 1, 2, 3, 5, 4), 7)
        hamilton.find_hamiltonian_cycle(c6)
    """, "backtracking returned a non-Hamiltonian cycle: (0, 1, 2, 3, 5, 4)"),
], ids=["r4-extension", "oracle", "closure-peel", "closure-peel-no-chord",
        "backtracking"])
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


def test_every_src_definition_has_a_reader():
    # each function, class and method in src/ serves src/, scripts/ or the
    # benchmark; one that only tests read belongs in the tests.  A module
    # reads the names, attributes, imports and strings (the tracer's keys)
    # it holds; the package's public names and dunders need no reader
    from bergecycles import _MODULE
    package = sorted((SRC / "bergecycles").glob("*.py"))
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    read = set(_MODULE)
    for path in [*package, *(ROOT / "scripts").glob("*.py"), *bench]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    defs = [(path.stem, node) for path in package for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defs += [(f"{where}.{cls.name}", m) for where, cls in defs if isinstance(cls, ast.ClassDef)
             for m in cls.body if isinstance(m, ast.FunctionDef)]
    unread = [f"{where}.{node.name}" for where, node in defs if node.name not in read
              and not node.name[:2] == node.name[-2:] == "__"]
    assert unread == []
