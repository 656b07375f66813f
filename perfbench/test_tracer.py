"""Tests of the benchmark's tracer and of BENCHMARK.json against the code.

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import sys

import run
from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS, sha256_json, solve_r4

bc = run.load_package()


def _bindings() -> dict:
    """Every attribute of every bergecycles module, plus the patched method."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "bergecycles" or key.startswith("bergecycles.")):
            out.update({(key, attr): val for attr, val in vars(mod).items()})
    cls = bc.extract.PositionEdgeBipartite
    out[("PositionEdgeBipartite", "right_degrees")] = cls.__dict__["right_degrees"]
    return out


def test_uninstall_restores_every_attribute_by_identity():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed(bc):
        during = _bindings()
    after = _bindings()
    patched = {k for k in before if during[k] is not before[k]}
    for key in [("bergecycles.shadow", "build_shadow"), ("bergecycles.r4", "build_shadow"),
                ("bergecycles.harness", "build_shadow"), ("bergecycles.cli", "build_shadow"),
                ("bergecycles", "r4_find"), ("bergecycles.core", "edge_table"),
                ("PositionEdgeBipartite", "right_degrees")]:
        assert key in patched
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_run_gives_the_same_digests():
    p85 = bc.Params(n=85, r=4, t=2, c=3)
    inputs = [("random", bc.random_coloring(p85, seed=7)),
              ("near-mono", next(bc.structured_colorings(
                  "near-mono", {"n": 85, "r": 4, "c": 3, "base": 3, "off": 1})))]
    small = [bc.random_coloring(bc.Params(n=8, r=4, t=2, c=2), seed=s) for s in range(20)]

    def digests():
        ops = [solve_r4(bc, iid, h, "solve_s") for iid, h in inputs]
        assert [op.error for op in ops] == [None] * len(ops)
        found = [bc.find_certificate(h) for h in small]
        assert {status for status, _ in found} == {"found"}
        return [op.digest for op in ops] + [sha256_json(c.to_json_dict()) for _, c in found]

    plain = digests()
    tracer = Tracer()
    with tracer.installed(bc):
        traced = digests()
    assert traced == plain
    assert tracer.counts["r4.branch.B-cover.count"] == 1
    assert tracer.counts["r4.branch.lemma-3.1.count"] == 1
    names = {span[0] for span in tracer.spans}
    assert {"r4.r4_find", "shadow.build_shadow", "harness.find_certificate",
            "extract.right_degrees"} <= names
    child = {i for i, span in enumerate(tracer.spans) if span[3] >= 0}
    assert all(tracer.spans[i][3] < i for i in child)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in LAYER_METRICS]
