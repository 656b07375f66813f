"""Golden certificates: r4_find must keep producing byte-identical output.

Each case pins the sha256 of the certificate's canonical JSON and the
construction branch for one fixed K_85^4 coloring.  A digest change means a
performance or refactoring change altered results; a change that does so on
purpose updates the digest and says why.
"""

import hashlib
import json

import pytest

from bergecycles import Params, r4_find, random_coloring, structured_colorings

N = 85


def _random(seed):
    return lambda: random_coloring(Params(n=N, r=4, t=2, c=3), seed=seed)


def _structured(kind, **params):
    return lambda: next(structured_colorings(kind, {"n": N, **params}))


GOLDEN = [
    ("random seed=0", _random(0), "B-cover",
     "97d194fc576e9161b7f0d68225b5a4fd3e69e3ed3509b8e64e7e2706021d3ab8"),
    ("random seed=1", _random(1), "B-cover",
     "20a71967d8307b7ecdfa6abe5699e4e66914f9d5dff662188d9b1d4e378c45f2"),
    ("pair-lock (0,1)->2",
     _structured("pair-lock", r=4, c=3, pair=(0, 1), lock=2),
     "single-good-fallback",
     "4a490d79004299b7c710467f7c0c934dcdd123774afa859fe1dfc7883180e90c"),
    ("near-mono base=2", _structured("near-mono", r=4, c=3, base=2, off=1),
     "lemma-3.1",
     "a77d96d65b6c03f1892c49213d74565e2ba9c9003eb688ccf14d050e5b3ceb76"),
    ("u-profile split deg=0",
     _structured("u-profile", k23=0, k12=1, k13=42, deg_w=0, deg_w2=0),
     "case-1",
     "f785551d79d02b528a7db228f2fc8e99829c0f95d4fd4a5ad1eea91dcd0c747e"),
    ("u-profile repair deg_w=0 deg_u23=0",
     _structured("u-profile", k23=1, k12=1, k13=41, deg_w=0, deg_u23=0),
     "case-2",
     "4aecba2f4158b7a76bc115a34d0f18ac375f09d920b98175bfbd7db604392282"),
]


def certificate_digest(cert):
    text = json.dumps(cert.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("make,branch,digest",
                         [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_golden_certificate(make, branch, digest):
    res = r4_find(make())
    assert res.trace.branch == branch
    assert certificate_digest(res.certificate) == digest
