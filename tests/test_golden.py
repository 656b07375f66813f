"""Golden certificates: r4_find must keep producing byte-identical output.

Each case pins the construction branch and the sha256 of the certificate's
and the trace's canonical JSON for one fixed K_85^4 coloring: every
scripts/branch_census.py fixture and random seeds 0-9.  A digest change
means a performance or refactoring change altered results; a change that
does so on purpose updates the digest and says why.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from bergecycles import Params, r4, r4_find, random_coloring
from bergecycles.hamilton import TightCycleSearch


def _census_fixtures():
    path = Path(__file__).resolve().parents[1] / "scripts" / "branch_census.py"
    spec = importlib.util.spec_from_file_location("branch_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fixtures()


def _random(seed):
    return lambda: random_coloring(Params(n=85, r=4, t=2, c=3), seed=seed)


# label -> make
CASES = dict(_census_fixtures())
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
    "near-mono base=2": ("lemma-3.1",
        "a77d96d65b6c03f1892c49213d74565e2ba9c9003eb688ccf14d050e5b3ceb76",
        "eb3e33c0e5468ce9bf6a466253626a5924988dd3f2e30ee03b34d8d903b850cb"),
    "near-mono base=3": ("lemma-3.1",
        "197acb6384fe1a5e22b11bc5623494bc2472af3df94b7d6f1798504c02ce019a",
        "2ba54b70fd4abb243edc14887b9cc3c887ec957a8f151581e0fbb049182d7169"),
    "u-profile split deg=0": ("case-1",
        "f785551d79d02b528a7db228f2fc8e99829c0f95d4fd4a5ad1eea91dcd0c747e",
        "b812be347e304ee7aa30fcdc54b850dd378fbcf2739c48de33574d3f5c8da02d"),
    "u-profile split deg=1": ("case-1",
        "94fca8684e52238f59cd1313e3a0fd767fede3c5590d4c60830f6050fd851b28",
        "ddcca35d6d86b7780fc75e3d13f5c5e661fff33b29e1f7f045c6f79b50ce1cc9"),
    "u-profile repair deg_w=0 deg_u23=0": ("case-2",
        "4aecba2f4158b7a76bc115a34d0f18ac375f09d920b98175bfbd7db604392282",
        "b4e67e9e21dddec40ba06afb639fad360eeefa5fb2e952a8516fdb0dbdba4f58"),
    "u-profile repair deg_w=0 deg_u23=1": ("case-2",
        "75778a0ca78b918d220c3dcdd7b161fe1bd800e321cd5ed17b74e9948a307943",
        "0e486d0d4e7c14e1d41f86a2f67ef6f1e65b52b11d2e37cf6e9d9fa3b731690a"),
    "u-profile repair deg_w=0 deg_u23=2": ("case-2",
        "407905f4f34b9fb067f15823e0bbb2bddd2035c923cde5f96b1a84fedc20bb57",
        "d02c40c31f2681159bd227655f8ee22c7a85758e2b1663485eee8456d77884e1"),
    "u-profile repair deg_w=1 deg_u23=0": ("case-2",
        "b8b2941f0ff45ff2db209b3e176871a98f95f6dea41ad51cbf50613736db0fec",
        "fc18ff441c57982558c1a369151d6ac4545b6f72ffec718ae12f5069e4700fd0"),
    "u-profile repair deg_w=1 deg_u23=1": ("case-2",
        "c5eadfd25204b5c43044e9230729b153199d3168aab9598fe2ccde62fa9c31a8",
        "db68e1d95fe8a7d83769ca8554c2dbc9dd7f09f269f6be0e829c8f1ccc0eb17a"),
    "u-profile repair deg_w=1 deg_u23=2": ("case-2",
        "65c41c9ff9cc0865281af0cf32df1aa45a30eaa3220f14d50c130d7ccb60d96f",
        "a0fc87ffed335d50869e5cd9fd4556b51265f1bd328991b94128f3063745cec8"),
    "u-profile repair deg_w=2 deg_u23=0": ("case-2",
        "6ad0dcf5280603b97dc662be817c74ac1b43b5b28c6f9e82eeb9f2fb2c2ffef0",
        "719c8c157d790e0e81337cfb06ed63e46dd4d5b814869194a59f32b7823cfa9a"),
    "u-profile repair deg_w=2 deg_u23=1": ("case-2",
        "30c54187bfe06f31bf6936e1563f8141048257af7053ae637a0789c743db093f",
        "2b3e5f7428fe43807833da95c04192a83b80a2264a4ffc94beff41756afeabd0"),
    "u-profile repair deg_w=2 deg_u23=2": ("case-2",
        "799d3bd5cdd77e30d672e1c6a59386435f7360bc91624b81885f2c671c473109",
        "862085401cd5ba29cf64184bb88152fc42ab0c1215d74b66fd7f3b0c86ccc608"),
    "u-profile window": ("case-2",
        "c605c191f7fc6e8dceb3ce3d7aa05e5b5698af3f2264a7ce38f4194ad2f5bced",
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
        "a77d96d65b6c03f1892c49213d74565e2ba9c9003eb688ccf14d050e5b3ceb76",
        "a8216eebf36202f6544325b3d3f9f61b6fbf764517535e3cb820bba0e2ad1bc6"),
    "near-mono base=3": ("lemma-3.1",
        "197acb6384fe1a5e22b11bc5623494bc2472af3df94b7d6f1798504c02ce019a",
        "936c54bd42271aa93b684be8978868748e9d495b22e20247bc44b6dc6cf8ddbe"),
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
    check_pinned(r4_find(CASES[label]()), PINNED[label])


@pytest.mark.parametrize("label", list(WEAK_ROUTE), ids=list(WEAK_ROUTE))
def test_golden_link_weak_route(label, monkeypatch):
    monkeypatch.setattr(r4, "find_mono_ham_tight_cycle",
                        lambda s, t, color, budget=0: TightCycleSearch("none", None, 0))
    res = r4_find(CASES[label]())
    steps = [(f["stage"], f["status"]) for f in res.trace.subcase["fallbacks"]]
    assert ("link-weak-graph", "found") in steps
    check_pinned(res, WEAK_ROUTE[label])
