"""Benchmark of the bergecycles pipeline.

    python3 perfbench/run.py --workload r4-random --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each is there): r4-random,
k85-branches, cli-file.  The package is imported from src/ beside this
directory, so a plain checkout is enough.

With --trace 0 the run reports the end-to-end metrics below; with --trace 1
it alternates untraced and traced rounds on the same inputs and reports the
per-layer metrics of tracer.LAYER_METRICS, spans timed from outside the
package.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Everything the run writes stays under .perfbench_work/ at the
repository root, including a record of the run with machine facts, source
line counts, every instance's certificate digest, branch histograms, latency
percentiles and each per-layer metric's predicted end-to-end effect.

End-to-end metrics, reported by every workload:
  certs_per_s   verified certificates per timed second (cli-file: the
                certificates of `berge search` and of `berge extract`, over
                the time of search, extract and `berge verify`)
  setup_s       fresh-interpreter `import bergecycles` plus the edge_table
                caches the workload's first call fills; median of 5
  peak_rss_mb   peak resident memory of the run and of its largest child

Latencies are printed, not gated, as "latency <key> n=.. p50=.." with the
highest of p90/p95/p99 that has ten samples above it: solve_s is r4_find
at n=85 (r4-random), one fixture (k85-branches) or the `berge extract`
subprocess (cli-file).  On a shared machine whose speed drifts by 20-30%
over minutes, a median time can worsen by more than any allowed bound
between two sets of runs of the same code; the matching throughput moves
by less (1/1.28 is 22% down), so certs_per_s carries the gate.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS, sha256_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MODULES = ("core", "shadow", "hamilton", "extract", "r4", "harness", "cli")
SETUP_REPEATS = 5

END_TO_END = {"certs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import bergecycles
t1 = time.perf_counter()
from bergecycles.core import edge_table
for n, k in json.loads(sys.argv[1]):
    edge_table(n, k)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
"""


def load_package():
    """Import bergecycles and its seven modules from SRC, and nowhere else."""
    pkg_dir = SRC / "bergecycles"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no bergecycles package at {pkg_dir}")
    sys.path.insert(0, str(SRC))
    bc = importlib.import_module("bergecycles")
    if Path(bc.__file__).resolve().parent != pkg_dir:
        raise SystemExit(f"error: imported bergecycles from {bc.__file__}, not {pkg_dir}")
    for mod in MODULES:
        importlib.import_module(f"bergecycles.{mod}")
    return bc


def child_env(tmp: Path) -> dict:
    env = dict(os.environ, TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(tables, env, cwd) -> dict:
    """Median import and set-up time over fresh interpreters (one warm-up)."""
    runs = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(tables)],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=60, check=True)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    runs = runs[1:]
    return {k: statistics.median(r[k] for r in runs) for k in ("import_s", "setup_s")}


def percentiles(samples) -> dict:
    """Sample count, median, and the highest of p99/p95/p90 with >= 10 samples above it."""
    xs = sorted(samples)
    out = {"n": len(xs), "p50": statistics.median(xs)}
    for q in (99, 95, 90):
        if len(xs) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = xs[math.ceil(q / 100 * len(xs)) - 1]
            break
    return out


class Ledger:
    """Every op of the run, by round.  An op whose digest differs from an
    earlier op with the same id (a repeated input) is turned into a failure."""

    def __init__(self):
        self.ops = []
        self.instances: dict[str, dict] = {}     # id -> first digest and branches
        self.round_digests: list[str] = []

    def add(self, ops) -> None:
        for op in ops:
            first = self.instances.setdefault(
                op.id, {"digest": op.digest, "branches": dict(op.branches)})["digest"]
            if first != op.digest:
                op.error, op.certs = f"digest {op.digest} differs from {first}", 0
            self.ops.append(op)
        self.round_digests.append(sha256_json([[op.id, op.digest] for op in ops]))

    def seconds(self, ops=None) -> float:
        return sum(op.seconds for op in (self.ops if ops is None else ops))

    def branches(self) -> Counter:
        out = Counter()
        for op in self.ops:
            out.update(op.branches)
        return out

    def samples(self) -> dict:
        out: dict[str, list] = {}
        for op in self.ops:
            for key, val in op.latency.items():
                out.setdefault(key, []).append(val)
        return out


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def line_counts() -> dict:
    return {p.stem: len(p.read_text().splitlines())
            for p in sorted((SRC / "bergecycles").glob("*.py"))}


def machine() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "system": f"{platform.system()} {platform.release()} {platform.machine()}"}


def run_plain(wl, ledger, seconds) -> None:
    t0, r = time.perf_counter(), 0
    while True:
        ledger.add(wl.run_round(r, in_process=False))
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return


def run_traced(wl, ledger, tracer, bc, seconds) -> tuple[int, float]:
    """Alternate each round untraced and traced; returns (rounds, overhead)."""
    t0, r, plain_s, traced_s = time.perf_counter(), 0, 0.0, 0.0
    while True:
        plain = wl.run_round(r, in_process=True)
        with tracer.installed(bc):
            traced = wl.run_round(r, in_process=True)
        ledger.add(plain)
        ledger.add(traced)
        plain_s += ledger.seconds(plain)
        traced_s += ledger.seconds(traced)
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return r, traced_s / plain_s - 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    bc = load_package()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    tempfile.tempdir = str(tmp)       # r4_find drops breach reproducers here
    env = child_env(tmp)

    wl = WORKLOADS[args.workload](bc, args.seed, run_dir, env)
    setup = measure_setup(wl.tables, env, run_dir)
    for n, k in wl.tables:
        bc.core.edge_table(n, k)
    wl.prepare()
    wl.warmup()

    ledger = Ledger()
    if args.trace:
        tracer = Tracer()
        rounds, overhead = run_traced(wl, ledger, tracer, bc, args.seconds)
        metrics = tracer.layer_metrics(rounds, setup["import_s"], overhead)
        with gzip.open(run_dir / "spans.jsonl.gz", "wt") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        run_plain(wl, ledger, args.seconds)
        values = {
            "certs_per_s": sum(op.certs for op in ledger.ops) / ledger.seconds(),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    branches = ledger.branches()
    problems = [f"{op.id}: {op.error}" for op in ledger.ops if op.error]
    breaches = sorted(p.name for p in tmp.glob("berge-breach-*.coloring"))
    problems += [f"breach reproducer left behind: {name}" for name in breaches]
    checks = wl.check(branches)
    attempted = sum(op.attempted for op in ledger.ops)
    failed = sum(op.attempted - op.certs for op in ledger.ops) + len(breaches)
    correct = failed == 0 and not checks

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "latency": {k: percentiles(v) for k, v in ledger.samples().items()},
        "setup": setup, "info": wl.info, "branches": dict(sorted(branches.items())),
        "round_digests": ledger.round_digests, "instances": ledger.instances,
        "checks": checks, "problems": problems,
        "machine": machine(), "source_lines": line_counts(),
        "layer_predictions": {m: pred for m, *_, pred in LAYER_METRICS},
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run_dir / "cli", ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    for key, stats in record["latency"].items():
        print(f"latency {key:<40} " + " ".join(f"{k}={v:.6g}" for k, v in stats.items()))
    print(f"branches {json.dumps(record['branches'])}")
    for key, value in wl.info.items():
        print(f"info {key:<43} {value:.6g}")
    print(f"round 0 digest {ledger.round_digests[0]}")
    print(f"failed_frac {record['failed_frac']:.6g} ({failed}/{attempted})")
    for line in checks + problems:
        print(f"problem: {line.strip().splitlines()[-1]}", file=sys.stderr)
    print(f"record {run_dir.relative_to(ROOT) / 'result.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
