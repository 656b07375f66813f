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

PERMS = list(itertools.permutations((1, 2, 3)))

# each Gamma case with input color c renamed perm[c - 1]: label -> (branch,
# (certificate sha256, trace sha256) per perm in PERMS order); most renamings
# move the pivot's sigma, so Gamma's color is not the input's color 1
RENAMED_GAMMA = {
    "u-profile split deg=0": ("case-1", (
        ("f735f80c1c698ae0abe196276f9351165e52a58465c022d21538ac8efc6168d9",
         "b812be347e304ee7aa30fcdc54b850dd378fbcf2739c48de33574d3f5c8da02d"),
        ("f735f80c1c698ae0abe196276f9351165e52a58465c022d21538ac8efc6168d9",
         "c7a587c23697e5d91cf99b60e0e69fedc3429046fb4d5a725dc73fbff95d9ea8"),
        ("78e1429d3b692805c65c029b412a1fae300f2a140abf66257e4eab3f91383c35",
         "c7e11fe3bc4e2214e00dc51ae4d1d7a542ac35d0f664c8251bf34ceb3dacb694"),
        ("78e1429d3b692805c65c029b412a1fae300f2a140abf66257e4eab3f91383c35",
         "1061d902b907c46f13a3e6d98e3d16302f3a149bda0430432471b849a4809b57"),
        ("619f41ff0f6dd941f05e6e5300936e841db563ce3e35d9d21003d12ea3edb939",
         "37bf7c60ef97e44c5aacf764e112f4ad315b4bc098f4c31510598666c7e9deb5"),
        ("619f41ff0f6dd941f05e6e5300936e841db563ce3e35d9d21003d12ea3edb939",
         "1cf09d18fd82754c2494e05ed62ca453cd50ffbd76701aad569c6d407453b483"),
    )),
    "u-profile split deg=1": ("case-1", (
        ("79d3ee6ef13b0eeb6fb33b23322784dfba56989f8e96eda718db3bb090883721",
         "ddcca35d6d86b7780fc75e3d13f5c5e661fff33b29e1f7f045c6f79b50ce1cc9"),
        ("79d3ee6ef13b0eeb6fb33b23322784dfba56989f8e96eda718db3bb090883721",
         "2c77d8fcc9ac49f3bc7fca9acae8f081808dea6b939bfb31a1ca954bf64587b0"),
        ("ee2ca07a880e548be9017ff5ced6aabb460251283221d1048718a91c2ae852d7",
         "cf81d2cb35701fb29ce62c359278dcb862dc5f1a68e4b2cc172c9504c0f79c41"),
        ("ee2ca07a880e548be9017ff5ced6aabb460251283221d1048718a91c2ae852d7",
         "aada6311c79330bbac744c1d90617ef282af0696c948648c9aa4cecd25366fb1"),
        ("3ebd1e5b7ba26c92e72a57fa440a858457c0ac6a3ff659a8b46eba4d8bd79098",
         "2adb91493b6846ea5b96d08675a6bd946757ff66daa16943d1a3135e2524e312"),
        ("3ebd1e5b7ba26c92e72a57fa440a858457c0ac6a3ff659a8b46eba4d8bd79098",
         "2488f618b5c28eca046fad7d53a7c6b2048f8e4b8059e6c547597ec33684ac04"),
    )),
    "u-profile repair deg_w=0 deg_u23=0": ("case-2", (
        ("bc65e6cc443a763fda820164d8f4487c8e4f07a056f5f5cd5ed27990e12fd200",
         "b4e67e9e21dddec40ba06afb639fad360eeefa5fb2e952a8516fdb0dbdba4f58"),
        ("bc65e6cc443a763fda820164d8f4487c8e4f07a056f5f5cd5ed27990e12fd200",
         "01e9c80a95972e34b0f5c390acbafb38bad784756608b33bbb8d79c03ca2d425"),
        ("3874b16656840e19355a46c570e1e3f040c20cc20a59679b1b64d9d03f7f5fb2",
         "1638a5fdc44cbb7791e4b702e31cba1ba886b963d6cff43af1cf907441f92a46"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "b67862d957b2898a70ae72d5e010cf8e1e80326b8ccd370aef7110718b5dc091"),
        ("14ae3e677b15a3dd2076ff3916e5e2343f40cb19508f90015db181490cf8d869",
         "0bcc0594b6ca6ec47899be5c44a05f5a58b5daf4fe898a9fd6b5387f01d7c372"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "bc77f83c1e997b9707ff42cec2a37b4ae7dae8c893de505cf73ae4a63f9ac62d"),
    )),
    "u-profile repair deg_w=0 deg_u23=1": ("case-2", (
        ("bdf70adcfb349e55e78e390a407fde1c5e24053c258906885c3aab9f9bd86db0",
         "0e486d0d4e7c14e1d41f86a2f67ef6f1e65b52b11d2e37cf6e9d9fa3b731690a"),
        ("bdf70adcfb349e55e78e390a407fde1c5e24053c258906885c3aab9f9bd86db0",
         "40893e6ffcb4ef69e96cbe76f742d50c9303e248d5af4b07579fe3a5482d013b"),
        ("3874b16656840e19355a46c570e1e3f040c20cc20a59679b1b64d9d03f7f5fb2",
         "1638a5fdc44cbb7791e4b702e31cba1ba886b963d6cff43af1cf907441f92a46"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "b67862d957b2898a70ae72d5e010cf8e1e80326b8ccd370aef7110718b5dc091"),
        ("cc589afee86a5c219aa9d5ae7d2d4d7091c382fb9245229a34ab6c942257a680",
         "8e3aa41858ad669cc5a228994f48db58d082d360a3304a49483948a8a4d26bd2"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "bc77f83c1e997b9707ff42cec2a37b4ae7dae8c893de505cf73ae4a63f9ac62d"),
    )),
    "u-profile repair deg_w=0 deg_u23=2": ("case-2", (
        ("5ddbe604016f590e8ab120addd8815bfd9a75316d2fe100e055c9b9a06fbcb1b",
         "d02c40c31f2681159bd227655f8ee22c7a85758e2b1663485eee8456d77884e1"),
        ("5ddbe604016f590e8ab120addd8815bfd9a75316d2fe100e055c9b9a06fbcb1b",
         "faa603e1bb2eca2d51b5e697d1ffb8aa1787e6bb0b76850cf57234dcc765e447"),
        ("3874b16656840e19355a46c570e1e3f040c20cc20a59679b1b64d9d03f7f5fb2",
         "1638a5fdc44cbb7791e4b702e31cba1ba886b963d6cff43af1cf907441f92a46"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "b67862d957b2898a70ae72d5e010cf8e1e80326b8ccd370aef7110718b5dc091"),
        ("92f1e53a30a62ea67d1652b61830e7917bbecc4c24632d57074c6449038d36c6",
         "e5c2fb9478383d00d9047636434e92425447605ca317b8dcfc2bc0c3a85e8b45"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "bc77f83c1e997b9707ff42cec2a37b4ae7dae8c893de505cf73ae4a63f9ac62d"),
    )),
    "u-profile repair deg_w=1 deg_u23=0": ("case-2", (
        ("fe82763e0c770cf87fe41458bb1047ec95d1874fcca9e427f285bb5bf7432d63",
         "fc18ff441c57982558c1a369151d6ac4545b6f72ffec718ae12f5069e4700fd0"),
        ("fe82763e0c770cf87fe41458bb1047ec95d1874fcca9e427f285bb5bf7432d63",
         "3407270862f99733f422d591fddfd14485493f7163ddc6cd1f242173ea73b31b"),
        ("3874b16656840e19355a46c570e1e3f040c20cc20a59679b1b64d9d03f7f5fb2",
         "1638a5fdc44cbb7791e4b702e31cba1ba886b963d6cff43af1cf907441f92a46"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "b67862d957b2898a70ae72d5e010cf8e1e80326b8ccd370aef7110718b5dc091"),
        ("769f1e8402d9c78c4258406ca3dbe1a326c08997c8813db0aeb7fa6cf24485a1",
         "1b268ab5bd18752f8eaa93014b0629078fc7a0ee2ffd42bdcf2e7a77aedff6cf"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "bc77f83c1e997b9707ff42cec2a37b4ae7dae8c893de505cf73ae4a63f9ac62d"),
    )),
    "u-profile repair deg_w=1 deg_u23=1": ("case-2", (
        ("8d503d61abb36cc35c59da26c7acc86f53b1d9dc916c737daf6e50dbe3b4a371",
         "db68e1d95fe8a7d83769ca8554c2dbc9dd7f09f269f6be0e829c8f1ccc0eb17a"),
        ("8d503d61abb36cc35c59da26c7acc86f53b1d9dc916c737daf6e50dbe3b4a371",
         "e10b91bd2cd4f66c3c3118651a2aedf56aa1a8ff5e704971ed2d885f0fabc15c"),
        ("3874b16656840e19355a46c570e1e3f040c20cc20a59679b1b64d9d03f7f5fb2",
         "1638a5fdc44cbb7791e4b702e31cba1ba886b963d6cff43af1cf907441f92a46"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "b67862d957b2898a70ae72d5e010cf8e1e80326b8ccd370aef7110718b5dc091"),
        ("edd2a1163b07f5f40b33accbc8ff6a39cc2236ce93fe6d2f1c360704c9e8126c",
         "c9035e94b283c2c1a62db802556e80b4b6e549bbaf4479f0842c4c355f541552"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "bc77f83c1e997b9707ff42cec2a37b4ae7dae8c893de505cf73ae4a63f9ac62d"),
    )),
    "u-profile repair deg_w=1 deg_u23=2": ("case-2", (
        ("1b02e0226bd89fac40e106aaece968f3d2b633757add99c639fe49f3e695adec",
         "a0fc87ffed335d50869e5cd9fd4556b51265f1bd328991b94128f3063745cec8"),
        ("1b02e0226bd89fac40e106aaece968f3d2b633757add99c639fe49f3e695adec",
         "233e2239f2538f7b61497475bbd8d58e34ff082c9258ceea801879d9ca415f93"),
        ("3874b16656840e19355a46c570e1e3f040c20cc20a59679b1b64d9d03f7f5fb2",
         "1638a5fdc44cbb7791e4b702e31cba1ba886b963d6cff43af1cf907441f92a46"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "b67862d957b2898a70ae72d5e010cf8e1e80326b8ccd370aef7110718b5dc091"),
        ("1a52b5c8d797340bdb9841b2e89ce8c41297f2e002e393269a3cd470b745626c",
         "2c15bd79c9e5f98218d1cb466b17e47854880be174ac318170c1b93fe28f9aed"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "bc77f83c1e997b9707ff42cec2a37b4ae7dae8c893de505cf73ae4a63f9ac62d"),
    )),
    "u-profile repair deg_w=2 deg_u23=0": ("case-2", (
        ("8571af8c9b63a8777bd51d0c7c2ce5c72087fd0818311dfc161c6abd64be6901",
         "719c8c157d790e0e81337cfb06ed63e46dd4d5b814869194a59f32b7823cfa9a"),
        ("8571af8c9b63a8777bd51d0c7c2ce5c72087fd0818311dfc161c6abd64be6901",
         "a5cc2122f5fea5f84c6db097846aaefc4596400b38fb0b0d2b05ae19a6d65e9c"),
        ("3874b16656840e19355a46c570e1e3f040c20cc20a59679b1b64d9d03f7f5fb2",
         "1638a5fdc44cbb7791e4b702e31cba1ba886b963d6cff43af1cf907441f92a46"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "b67862d957b2898a70ae72d5e010cf8e1e80326b8ccd370aef7110718b5dc091"),
        ("f2e47d400a66d9686b844d9f6ea21f1e5afcf260ebd1c878c39b82553f5dba79",
         "f9250fe29384581fb3efdc64140b5e4b4e99819d4c2f6e92bd432ea00849d25c"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "bc77f83c1e997b9707ff42cec2a37b4ae7dae8c893de505cf73ae4a63f9ac62d"),
    )),
    "u-profile repair deg_w=2 deg_u23=1": ("case-2", (
        ("bce916a08cc9858a6b7e8615a12fd6a2235f21eb06a34ea8c5724f1569fcca61",
         "2b3e5f7428fe43807833da95c04192a83b80a2264a4ffc94beff41756afeabd0"),
        ("bce916a08cc9858a6b7e8615a12fd6a2235f21eb06a34ea8c5724f1569fcca61",
         "5f9840c6f6d30cd32f835f6ad59a20a05acb8d4583857db5d6cf8a71e50c684d"),
        ("3874b16656840e19355a46c570e1e3f040c20cc20a59679b1b64d9d03f7f5fb2",
         "1638a5fdc44cbb7791e4b702e31cba1ba886b963d6cff43af1cf907441f92a46"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "b67862d957b2898a70ae72d5e010cf8e1e80326b8ccd370aef7110718b5dc091"),
        ("68861bed673fdd87452ece826887c28d320e4b8abfbd1ab23887d1560f5f0b61",
         "c67b71bce97d1a708c67e137a33aa60f21fa65526e8f04608b20c75be4f6d23f"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "bc77f83c1e997b9707ff42cec2a37b4ae7dae8c893de505cf73ae4a63f9ac62d"),
    )),
    "u-profile repair deg_w=2 deg_u23=2": ("case-2", (
        ("7144b0b3ef8abffadfec41a3595bfa078a77e30a8d77ef3ea52eed2405d12ab4",
         "862085401cd5ba29cf64184bb88152fc42ab0c1215d74b66fd7f3b0c86ccc608"),
        ("7144b0b3ef8abffadfec41a3595bfa078a77e30a8d77ef3ea52eed2405d12ab4",
         "d44564cf4a4ff027904c6d5bde2f3b6de2143efdf228a744a0e1d2251173f173"),
        ("3874b16656840e19355a46c570e1e3f040c20cc20a59679b1b64d9d03f7f5fb2",
         "1638a5fdc44cbb7791e4b702e31cba1ba886b963d6cff43af1cf907441f92a46"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "b67862d957b2898a70ae72d5e010cf8e1e80326b8ccd370aef7110718b5dc091"),
        ("4b3ac4e92c53ae85492a9fd82daae6cc1d60789881f463a4c23e2323ecd16d2e",
         "479e10081f9609163e0490b10328b5a1c1af63070a574f86acaa40bc285cdf1e"),
        ("20bda74af1c823a131c538deb47d7304112591b72cd473921e2cb335403475e5",
         "bc77f83c1e997b9707ff42cec2a37b4ae7dae8c893de505cf73ae4a63f9ac62d"),
    )),
    "u-profile window": ("case-2", (
        ("296f4434a0b90d4cc788682e5c1e83d6167fb3b0e53c0af9bf0a55f20494348a",
         "2eb5454e1e5a9ffe6f34c653da295cd254bdf170326456820c59b934b8e7c2db"),
        ("296f4434a0b90d4cc788682e5c1e83d6167fb3b0e53c0af9bf0a55f20494348a",
         "dec49bd56709eb95d21f9d682fe12e69c0c79cfdcd4faad54ea0a737cabc39e1"),
        ("e9db00d489344a74606bdbc0a822bd233e22857212292c51ccb80f8f882557ac",
         "9b7a123566067c3daf2029181ffd3363ee1a94f2927fed93fe0df51dd701a992"),
        ("87239ad8ca0a4965a853cdd2fbfc6120c5973c08bd89536613c68f967e3a4154",
         "1b97d5c679615f789de14f7c91001a563e357a69586641e24171f2d413929a04"),
        ("9e44d0e2c5e1195b0f80956e08ba74a952d7702ef12c90ef8c709ba28fd614a7",
         "20a3b86887f622c825db40d8796ceffa4c615a2eb6eb14ae9008ab17c42f3304"),
        ("87239ad8ca0a4965a853cdd2fbfc6120c5973c08bd89536613c68f967e3a4154",
         "d0361f189cf72da6438cd295008716b284a5cbabead598b1e7a68a4408ef1097"),
    )),
}


def _renamed(h, perm):
    lut = np.array((0, *perm), dtype=np.uint8)
    return ColoredHypergraph(h.params, lut[h.colors])


@pytest.mark.parametrize("label", GAMMA_CASES, ids=GAMMA_CASES)
def test_golden_renamed_gamma_route(label):
    base = CASES[label]()
    branch, digests = RENAMED_GAMMA[label]
    sigmas = []
    for perm, (cert_digest, trace_digest) in zip(PERMS, digests):
        res = r4_find(_renamed(base, perm))
        check_pinned(res, (branch, cert_digest, trace_digest))
        sigmas.append(tuple(res.trace.pivot["sigma"]))
    assert any(sigma != (1, 2, 3) for sigma in sigmas)


@pytest.mark.parametrize("label", GAMMA_CASES, ids=GAMMA_CASES)
def test_gamma_route_never_renames_the_coloring(label, monkeypatch):
    # Gamma reads the input coloring; only the pivot's color names move
    calls = []
    relabel = r4.relabel_colors

    def spy(h, s, sigma):
        calls.append(sigma)
        return relabel(h, s, sigma)

    monkeypatch.setattr(r4, "relabel_colors", spy)
    base = CASES[label]()
    for perm in PERMS:
        r4_find(_renamed(base, perm))
    assert calls == []


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
