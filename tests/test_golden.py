"""Golden certificates: r4_find, and find_certificate on the same inputs,
must keep producing byte-identical output.

Each case pins the construction branch and the sha256 of the certificate's
and the trace's canonical JSON for one fixed K_85^4 coloring: every
scripts/branch_census.py fixture and random seeds 0-9.  A digest change
means a performance or refactoring change altered results; a change that
does so on purpose updates the digest and says why.
"""

import hashlib
import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from bergecycles import (
    ColoredHypergraph,
    Params,
    find_certificate,
    r4,
    r4_find,
    random_coloring,
    verify_berge_certificate,
)
from bergecycles.hamilton import TightCycleSearch, find_hamiltonian_cycle


def _census_module():
    path = Path(__file__).resolve().parents[1] / "scripts" / "branch_census.py"
    spec = importlib.util.spec_from_file_location("branch_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _random(seed):
    return lambda: random_coloring(Params(n=85, r=4, t=2, c=3), seed=seed)


# label -> make
CASES = dict(_census_module().fixtures())
for _seed in range(10):
    CASES.setdefault(f"random seed={_seed}", _random(_seed))

# label -> (branch, certificate sha256, trace sha256)
PINNED = {
    "random seed=1": ("B-cover",
        "20a71967d8307b7ecdfa6abe5699e4e66914f9d5dff662188d9b1d4e378c45f2",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
    "pair-lock (0,1)->2": ("single-good-fallback",
        "4a490d79004299b7c710467f7c0c934dcdd123774afa859fe1dfc7883180e90c",
        "b3d4abe04cb69b4f90a5b889d45dbe09f92770ae781fb1913df1358f4acd6c8a"),
    # lemma-3.1: the link's cycle with the vertex re-inserted, each pair
    # backed by the position matching of extract.lift_to_berge
    "near-mono base=2": ("lemma-3.1",
        "a351f7a0c268b51fced7f2463c94a6ab00fd8924e4e4e1b7b3a402e681923173",
        "406cd7a1b8a01e3244ddbeb640193b73f48f8ebf01f676e8df48642badec36fb"),
    "near-mono base=3": ("lemma-3.1",
        "78724c741bbfd3e2dfd90f485bce67930364c10e5ff9a09c300096c9d07eee0c",
        "e41746d806be8ec1380720e7d0b49b8ef8c7b039b75aa71d2272e1d6841a0648"),
    # case-1/case-2: Gamma's cycle as found, each pair backed by the
    # position matching of extract.lift_to_berge
    "u-profile split deg=0": ("case-1",
        "f735f80c1c698ae0abe196276f9351165e52a58465c022d21538ac8efc6168d9",
        "b812be347e304ee7aa30fcdc54b850dd378fbcf2739c48de33574d3f5c8da02d"),
    "u-profile split deg=1": ("case-1",
        "79d3ee6ef13b0eeb6fb33b23322784dfba56989f8e96eda718db3bb090883721",
        "ddcca35d6d86b7780fc75e3d13f5c5e661fff33b29e1f7f045c6f79b50ce1cc9"),
    "u-profile repair deg_w=0 deg_u23=0": ("case-2",
        "bc65e6cc443a763fda820164d8f4487c8e4f07a056f5f5cd5ed27990e12fd200",
        "b4e67e9e21dddec40ba06afb639fad360eeefa5fb2e952a8516fdb0dbdba4f58"),
    "u-profile repair deg_w=0 deg_u23=1": ("case-2",
        "bdf70adcfb349e55e78e390a407fde1c5e24053c258906885c3aab9f9bd86db0",
        "0e486d0d4e7c14e1d41f86a2f67ef6f1e65b52b11d2e37cf6e9d9fa3b731690a"),
    "u-profile repair deg_w=0 deg_u23=2": ("case-2",
        "5ddbe604016f590e8ab120addd8815bfd9a75316d2fe100e055c9b9a06fbcb1b",
        "d02c40c31f2681159bd227655f8ee22c7a85758e2b1663485eee8456d77884e1"),
    "u-profile repair deg_w=1 deg_u23=0": ("case-2",
        "fe82763e0c770cf87fe41458bb1047ec95d1874fcca9e427f285bb5bf7432d63",
        "fc18ff441c57982558c1a369151d6ac4545b6f72ffec718ae12f5069e4700fd0"),
    "u-profile repair deg_w=1 deg_u23=1": ("case-2",
        "8d503d61abb36cc35c59da26c7acc86f53b1d9dc916c737daf6e50dbe3b4a371",
        "db68e1d95fe8a7d83769ca8554c2dbc9dd7f09f269f6be0e829c8f1ccc0eb17a"),
    "u-profile repair deg_w=1 deg_u23=2": ("case-2",
        "1b02e0226bd89fac40e106aaece968f3d2b633757add99c639fe49f3e695adec",
        "a0fc87ffed335d50869e5cd9fd4556b51265f1bd328991b94128f3063745cec8"),
    "u-profile repair deg_w=2 deg_u23=0": ("case-2",
        "8571af8c9b63a8777bd51d0c7c2ce5c72087fd0818311dfc161c6abd64be6901",
        "719c8c157d790e0e81337cfb06ed63e46dd4d5b814869194a59f32b7823cfa9a"),
    "u-profile repair deg_w=2 deg_u23=1": ("case-2",
        "bce916a08cc9858a6b7e8615a12fd6a2235f21eb06a34ea8c5724f1569fcca61",
        "2b3e5f7428fe43807833da95c04192a83b80a2264a4ffc94beff41756afeabd0"),
    "u-profile repair deg_w=2 deg_u23=2": ("case-2",
        "7144b0b3ef8abffadfec41a3595bfa078a77e30a8d77ef3ea52eed2405d12ab4",
        "862085401cd5ba29cf64184bb88152fc42ab0c1215d74b66fd7f3b0c86ccc608"),
    "u-profile window": ("case-2",
        "296f4434a0b90d4cc788682e5c1e83d6167fb3b0e53c0af9bf0a55f20494348a",
        "2eb5454e1e5a9ffe6f34c653da295cd254bdf170326456820c59b934b8e7c2db"),
    "random seed=0": ("B-cover",
        "97d194fc576e9161b7f0d68225b5a4fd3e69e3ed3509b8e64e7e2706021d3ab8",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
    "random seed=2": ("B-cover",
        "ea70b94edd0f17edc166f11f586891477ea21ba06bdc2ed98199497a00b41a1c",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
    "random seed=3": ("B-cover",
        "3addeb28e7b4adbfc42809d3fcff2db194558d9640c751220e45ae6ef4a24609",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
    "random seed=4": ("B-cover",
        "c1dfff1e50ef7352170f9702ac6805f502b08947487ae1edc462ce9a9d831a3d",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
    "random seed=5": ("B-cover",
        "0fa35336599ac4f41c553429ec0a9f4b575614698c53eca3fc574a294ddea89e",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
    "random seed=6": ("B-cover",
        "acc6bd542e0951de266e572b3d27b557f03e410d66e7f57106449495b15ecc04",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
    "random seed=7": ("B-cover",
        "345e1c020c66aba586c4fc47ae1700403df040318ce1155053628fd4bbbdd2d6",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
    "random seed=8": ("B-cover",
        "ce829916bbfaa7eced44e8866aaecffd618b4d4328e5bc36704a12ef4624133f",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
    "random seed=9": ("B-cover",
        "0ed9a88fdfa58b95823a24a66257a2eaceacb2cd5a6916b7b7083b408b5a9c6c",
        "263a7121896e8d67b6a0526c564a69e9bf36b46b53f07ba0f21119cf3b66e1a5"),
}

# the near-mono fixtures with every tight-cycle search in r4 reporting "none",
# so the link of the sparse vertex is solved by the weak route
WEAK_ROUTE = {
    "near-mono base=2": ("lemma-3.1",
        "a351f7a0c268b51fced7f2463c94a6ab00fd8924e4e4e1b7b3a402e681923173",
        "40d64fdfac3c555e7e01ee9cbd35c426391ba6c6191666cf2e7f1cd640a334be"),
    "near-mono base=3": ("lemma-3.1",
        "78724c741bbfd3e2dfd90f485bce67930364c10e5ff9a09c300096c9d07eee0c",
        "b334d5d007390036087e86d3f8b581f2334ef0fad758467ad2ffe9bffd144aa3"),
}


# "near-mono base=2" with input color c renamed perm[c - 1]: the sparse
# color and the companion edge's color move, and under (2, 1, 3), (3, 1, 2)
# and (3, 2, 1) the vertex route renames its work colors
RENAMED = {
    (1, 2, 3): ("lemma-3.1",
        "a351f7a0c268b51fced7f2463c94a6ab00fd8924e4e4e1b7b3a402e681923173",
        "406cd7a1b8a01e3244ddbeb640193b73f48f8ebf01f676e8df48642badec36fb"),
    (1, 3, 2): ("lemma-3.1",
        "78724c741bbfd3e2dfd90f485bce67930364c10e5ff9a09c300096c9d07eee0c",
        "e41746d806be8ec1380720e7d0b49b8ef8c7b039b75aa71d2272e1d6841a0648"),
    (2, 1, 3): ("lemma-3.1",
        "1075b06cdfe32c2d094b850118f792c5d4cee4410044cf367bd0cbc8ecf90f85",
        "9f8506926397783face2022d8ccf42be4bdb8edae6942871c32079cae267cb7f"),
    (2, 3, 1): ("lemma-3.1",
        "78724c741bbfd3e2dfd90f485bce67930364c10e5ff9a09c300096c9d07eee0c",
        "e41746d806be8ec1380720e7d0b49b8ef8c7b039b75aa71d2272e1d6841a0648"),
    (3, 1, 2): ("lemma-3.1",
        "a8d1aea8ee3a3fff6be39fa5a5d9f4ae5792cb128d60fa12611c14e356b7494c",
        "599c0bd957b15b5410c30c036caba442bc540807a19bee98d2d9aab81a1ae62f"),
    (3, 2, 1): ("lemma-3.1",
        "e97987528e3d5b01ce7950b754b65abdaf57cf7eb23d4fda80771a1786914754",
        "e41746d806be8ec1380720e7d0b49b8ef8c7b039b75aa71d2272e1d6841a0648"),
}


def json_digest(blob):
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_pinned(res, pinned):
    branch, cert_digest, trace_digest = pinned
    assert res.trace.branch == branch
    assert json_digest(res.certificate.to_json_dict()) == cert_digest
    assert json_digest(res.trace.to_json_dict()) == trace_digest


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("label", list(PINNED), ids=list(PINNED))
def test_golden_certificate(label):
    # the package's one entry point must return the construction's answer
    h = CASES[label]()
    check_pinned(r4_find(h), PINNED[label])
    check_pinned(find_certificate(h), PINNED[label])


@pytest.mark.parametrize("label", list(WEAK_ROUTE), ids=list(WEAK_ROUTE))
def test_golden_link_weak_route(label, monkeypatch):
    monkeypatch.setattr(r4, "find_mono_ham_tight_cycle",
                        lambda s, color, budget=0: TightCycleSearch("none", None, 0))
    res = r4_find(CASES[label]())
    steps = [(f["stage"], f["status"]) for f in res.trace.subcase["fallbacks"]]
    assert ("link-weak-graph", "found") in steps
    check_pinned(res, WEAK_ROUTE[label])


@pytest.mark.parametrize("perm", list(itertools.permutations((1, 2, 3))), ids=str)
def test_golden_renamed_vertex_route(perm):
    base = CASES["near-mono base=2"]()
    lut = np.array((0, *perm), dtype=np.uint8)
    check_pinned(r4_find(ColoredHypergraph(base.params, lut[base.colors])),
                 RENAMED[perm])


GAMMA_CASES = [label for label, (branch, _, _) in PINNED.items()
               if branch in ("case-1", "case-2")]


@pytest.mark.parametrize("label", GAMMA_CASES, ids=GAMMA_CASES)
def test_gamma_cycle_is_the_certificate_core(label, monkeypatch):
    # the lift keeps Gamma's Hamiltonian cycle as found and only picks edges
    calls = []

    def record(graph, budget):
        res = find_hamiltonian_cycle(graph, budget)
        calls.append((graph, res.cycle))
        return res

    monkeypatch.setattr(r4, "find_hamiltonian_cycle", record)
    h = CASES[label]()
    cert = r4_find(h).certificate
    [(graph, cycle)] = calls
    assert cert.core == tuple(cycle)
    n = len(cycle)
    assert all(graph.has_edge(cycle[i], cycle[(i + 1) % n]) for i in range(n))
    assert verify_berge_certificate(cert, h) is None


def test_census_exits_1_on_an_invalid_certificate(monkeypatch, capsys):
    census = _census_module()
    monkeypatch.setattr(census, "verify_berge_certificate",
                        lambda cert, h, t=None: "forced failure")
    assert census.main([]) == 1
    assert "random seed=1: certificate invalid: forced failure" in \
        capsys.readouterr().err
