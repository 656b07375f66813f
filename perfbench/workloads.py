"""The three benchmark workloads.

A workload runs in rounds.  Round r is a fixed set of operations whose
inputs depend only on (seed, r), and each operation becomes one `Op`:
the seconds it was timed for, how many verified certificates it produced,
its latency samples, a digest of its output and the branches it took.
Inputs are generated, and certificates verified, outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from tracer import BRANCHES

CLI_TIMEOUT_S = 60


@dataclass
class Op:
    id: str
    seconds: float                   # timed, counted toward certs_per_s
    attempted: int = 1
    certs: int = 0                   # verified certificates produced
    latency: dict = field(default_factory=dict)   # sample key -> seconds
    digest: str | None = None
    branches: Counter = field(default_factory=Counter)
    error: str | None = None


def sha256_json(blob) -> str:
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def solve_r4(bc, iid: str, h, key: str) -> Op:
    """One r4_find call, timed; the certificate is verified afterwards."""
    t0 = time.perf_counter()
    try:
        res = bc.r4_find(h)
    except Exception:                 # any failure is a counted, failed op
        return Op(iid, time.perf_counter() - t0, error=traceback.format_exc())
    dt = time.perf_counter() - t0
    problem = bc.verify_berge_certificate(res.certificate, h)
    if problem is not None:
        return Op(iid, dt, error=f"certificate rejected: {problem}")
    return Op(iid, dt, certs=1, latency={key: dt},
              digest=sha256_json(res.certificate.to_json_dict()),
              branches=Counter({res.trace.branch: 1}))


class Workload:
    name = ""
    tables: tuple = ()                # edge_table sizes the first call fills

    def __init__(self, bc, seed: int, run_dir, env):
        self.bc, self.seed, self.run_dir, self.env = bc, seed, run_dir, env
        self.info: dict = {}          # one-off measurements for the record

    def prepare(self) -> None:
        """Generate inputs shared by every round."""

    def warmup(self) -> None:
        """Untimed work that lets lazy set-up finish before the rounds."""

    def run_round(self, r: int, in_process: bool) -> list[Op]:
        raise NotImplementedError

    def check(self, branches: Counter) -> list[str]:
        """Whole-run correctness problems beyond the per-op checks."""
        return []


class R4Random(Workload):
    """Six random 3-colorings of K_85^4 and one of K_128^4 per round."""

    name = "r4-random"
    tables = ((85, 4), (85, 2), (128, 4), (128, 2))
    SMALL_PER_ROUND = 6

    def _params(self, n):
        return self.bc.Params(n=n, r=4, t=2, c=3)

    def warmup(self) -> None:
        self.bc.r4_find(self.bc.random_coloring(self._params(85), seed=[self.seed, 2**31]))

    def run_round(self, r, in_process):
        ops = []
        for j in range(self.SMALL_PER_ROUND + 1):
            n, key = (85, "solve_s") if j < self.SMALL_PER_ROUND else (128, "solve_s.n128")
            h = self.bc.random_coloring(self._params(n), seed=[self.seed, r, j])
            ops.append(solve_r4(self.bc, f"n{n}/r{r}/{j}", h, key))
        return ops


class K85Branches(Workload):
    """The construction-branch fixtures of scripts/branch_census.py."""

    name = "k85-branches"
    tables = ((85, 4), (85, 2))
    N = 85

    def prepare(self) -> None:
        bc, n = self.bc, self.N
        sc = bc.structured_colorings
        fx = [("random", bc.random_coloring(bc.Params(n=n, r=4, t=2, c=3), seed=self.seed)),
              ("pair-lock", next(sc("pair-lock", {"n": n, "r": 4, "c": 3,
                                                  "pair": (0, 1), "lock": 2}))),
              ("near-mono-2", next(sc("near-mono", {"n": n, "r": 4, "c": 3,
                                                    "base": 2, "off": 1}))),
              ("near-mono-3", next(sc("near-mono", {"n": n, "r": 4, "c": 3,
                                                    "base": 3, "off": 1})))]
        for deg in (0, 1):
            fx.append((f"split-{deg}", next(sc("u-profile", {
                "n": n, "k23": 0, "k12": 1, "k13": 42, "deg_w": deg, "deg_w2": deg}))))
        for deg_w in (0, 1, 2):
            for deg_u23 in (0, 1, 2):
                fx.append((f"repair-{deg_w}-{deg_u23}", next(sc("u-profile", {
                    "n": n, "k23": 1, "k12": 1, "k13": 41,
                    "deg_w": deg_w, "deg_u23": deg_u23}))))
        fx.append(("window", next(sc("u-profile", {"n": n, "k23": 1, "k12": 1, "k13": 40}))))
        self.fixtures = fx

    def run_round(self, r, in_process):
        return [solve_r4(self.bc, f"k85/{label}", h, "solve_s")
                for label, h in self.fixtures]

    def check(self, branches):
        missing = [b for b in BRANCHES if not branches[b]]
        return [f"branches never taken: {missing}"] if missing else []


class CliFile(Workload):
    """`berge search`, `berge extract` and `berge verify` on one seeded
    K_85^4 coloring file.

    The file (31 MB) is written once, before the rounds, and its
    write_coloring time is reported as info["write_s"] but not gated: the
    8 s pure-Python loop swings by +-10% with the machine's load, and
    repeating it would leave room for only two rounds a run.
    """

    name = "cli-file"
    tables = ((85, 4), (85, 2))

    def prepare(self) -> None:
        d = self.run_dir / "cli"
        d.mkdir()
        self.coloring, self.cert, self.trace = (
            d / "coloring.txt", d / "coloring.cert.json", d / "coloring.trace.json")
        bc = self.bc
        self.h = bc.random_coloring(bc.Params(n=85, r=4, t=2, c=3), seed=self.seed)
        t0 = time.perf_counter()
        bc.write_coloring(self.h, self.coloring)
        self.info["write_s"] = time.perf_counter() - t0

    def _berge(self, *args, in_process):
        """Run one CLI command; returns (exit code, seconds, stdout, stderr)."""
        args = [str(a) for a in args]
        t0 = time.perf_counter()
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.bc.cli.main(args)
            return code, time.perf_counter() - t0, out.getvalue(), err.getvalue()
        try:
            proc = subprocess.run([sys.executable, "-m", "bergecycles.cli", *args],
                                  env=self.env, cwd=self.run_dir, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0, "", f"timed out after {CLI_TIMEOUT_S} s"
        return proc.returncode, time.perf_counter() - t0, proc.stdout, proc.stderr

    def _checked(self, iid, seconds, cert_json, branch, latency) -> Op:
        bc = self.bc
        cert = bc.BergeCertificate.from_json_dict(json.loads(cert_json))
        problem = bc.verify_berge_certificate(cert, self.h)
        if problem is not None:
            return Op(iid, seconds, error=f"certificate rejected: {problem}")
        return Op(iid, seconds, certs=1, digest=sha256_json(cert.to_json_dict()),
                  branches=Counter({branch: 1}), latency=latency)

    def run_round(self, r, in_process):
        ops = []
        for iid, step in (("cli/search", self._search), ("cli/extract", self._extract)):
            try:
                ops.append(step(iid, in_process))
            except Exception:
                ops.append(Op(iid, 0.0, error=traceback.format_exc()))
        return ops

    def _search(self, iid, in_process) -> Op:
        code, search_s, out, err = self._berge("search", self.coloring, in_process=in_process)
        if code != 0:
            return Op(iid, search_s, error=f"berge search exited {code}: {out}{err}")
        return self._checked(iid, search_s, out, "find_certificate",
                             {"search_cli_s": search_s})

    def _extract(self, iid, in_process) -> Op:
        for path in (self.cert, self.trace):
            path.unlink(missing_ok=True)
        code, extract_s, out, err = self._berge(
            "extract", self.coloring, "-o", self.cert, "--trace", self.trace,
            in_process=in_process)
        if code != 0:
            return Op(iid, extract_s, error=f"berge extract exited {code}: {out}{err}")
        code, verify_s, out, err = self._berge("verify", self.cert, self.coloring,
                                               in_process=in_process)
        seconds = extract_s + verify_s
        if code != 0:
            return Op(iid, seconds, error=f"berge verify exited {code}: {out}{err}")
        return self._checked(iid, seconds, self.cert.read_text(),
                             json.loads(self.trace.read_text())["branch"],
                             {"solve_s": extract_s, "verify_cli_s": verify_s})


WORKLOADS = {w.name: w for w in (R4Random, K85Branches, CliFile)}
