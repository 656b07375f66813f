import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecycles import core
from bergecycles.core import (
    BergeCertificate,
    ColoredHypergraph,
    ColoringFormatError,
    InvalidParams,
    Params,
    binom,
    edge_table,
    random_coloring,
    rank_rows,
    rank_subset,
    read_coloring,
    unrank_subset,
    verify_berge_certificate,
    write_coloring,
)


def colex_order(n, k):
    # independent oracle: colex = sort by reversed tuple
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def test_rank_unrank_exhaustive_small():
    for n in range(13):
        for k in range(min(n, 6) + 1):
            subsets = colex_order(n, k)
            assert len(subsets) == math.comb(n, k)
            for i, s in enumerate(subsets):
                assert rank_subset(s, n) == i
                assert unrank_subset(i, n, k) == s


@pytest.mark.parametrize(
    "subset,n,rank",
    [
        ((0, 1, 2), 5, 0),
        ((2, 3, 4), 5, 9),
        ((0, 1, 3), 5, 1),
        ((2, 4, 5), 8, 18),
        ((81, 82, 83, 84), 85, math.comb(85, 4) - 1),
    ],
)
def test_rank_frozen_values(subset, n, rank):
    assert rank_subset(subset, n) == rank
    assert unrank_subset(rank, n, len(subset)) == subset


def test_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        rank_subset((3, 2, 1))
    with pytest.raises(ValueError):
        rank_subset((1, 1, 2))
    with pytest.raises(ValueError):
        rank_subset((0, 1, 7), n=5)
    with pytest.raises(ValueError):
        rank_subset((-1, 0, 1))
    with pytest.raises(ValueError):
        unrank_subset(10, 5, 3)
    with pytest.raises(ValueError):
        unrank_subset(-1, 5, 3)


@given(st.sets(st.integers(0, 60), min_size=1, max_size=6))
def test_rank_unrank_roundtrip(vertices):
    s = tuple(sorted(vertices))
    r = rank_subset(s)
    assert unrank_subset(r, 61, len(s)) == s


def test_binom_agrees_with_math():
    for n in range(0, 130, 7):
        for k in range(0, 10):
            assert binom(n, k) == math.comb(n, k) if k <= n else binom(n, k) == 0
    assert binom(200, 3) == math.comb(200, 3)
    assert binom(5, 9) == 0
    assert binom(-1, 0) == 0


@pytest.mark.parametrize("n,k", [(1, 1), (5, 3), (7, 2), (9, 4), (6, 6)])
def test_edge_table_matches_enumeration(n, k):
    tab = edge_table(n, k)
    expected = colex_order(n, k)
    assert tab.shape == (len(expected), k)
    assert [tuple(int(v) for v in row) for row in tab] == expected
    assert not tab.flags.writeable
    assert np.array_equal(rank_rows(tab), np.arange(len(expected)))


def test_params_validation():
    Params(n=5, r=3, t=2, c=2)  # fine
    with pytest.raises(InvalidParams):
        Params(n=5, r=3, t=1, c=2)
    with pytest.raises(InvalidParams):
        Params(n=5, r=6, t=2, c=2)
    with pytest.raises(InvalidParams):
        Params(n=5, r=3, t=4, c=2)
    with pytest.raises(InvalidParams):
        Params(n=5, r=3, t=2, c=0)
    with pytest.raises(InvalidParams):
        Params(n=300, r=3, t=2, c=2)
    Params(n=12, r=9, t=2, c=2)  # widest rank the binomial table serves
    with pytest.raises(InvalidParams):
        Params(n=12, r=10, t=2, c=2)
    Params(n=5, r=3, t=2, c=255)  # colors are stored as uint8
    with pytest.raises(InvalidParams):
        Params(n=5, r=3, t=2, c=256)
    with pytest.raises(InvalidParams):  # 300 would wrap to 44 as uint8
        ColoredHypergraph(Params(n=3, r=2, t=2, c=300), np.array([300, 1, 1]))


def test_hypergraph_validation_and_recolor():
    p = Params(n=5, r=3, t=2, c=2)
    with pytest.raises(InvalidParams):
        ColoredHypergraph(p, np.ones(9, dtype=np.uint8))
    with pytest.raises(InvalidParams):
        ColoredHypergraph(p, np.full(10, 3, dtype=np.uint8))
    with pytest.raises(InvalidParams):
        ColoredHypergraph(p, np.zeros(10, dtype=np.uint8))
    h = ColoredHypergraph(p, np.ones(10, dtype=np.uint8))
    assert h.color_of((0, 1, 2)) == 1
    h2 = h.with_color(0, 2)
    assert h.color_of_rank(0) == 1 and h2.color_of_rank(0) == 2
    assert h2.color_of((2, 1, 0)) == 2  # unsorted input is sorted internally
    with pytest.raises(ValueError):
        h.colors[0] = 2  # immutable storage


def test_random_coloring_deterministic():
    p = Params(n=5, r=3, t=2, c=2)
    a = random_coloring(p, seed=0)
    b = random_coloring(p, seed=0)
    assert np.array_equal(a.colors, b.colors)
    assert not np.array_equal(a.colors, random_coloring(p, seed=1).colors)


def test_random_coloring_single_color_and_histogram():
    p1 = Params(n=6, r=3, t=2, c=1)
    assert (random_coloring(p1, seed=5).colors == 1).all()
    p3 = Params(n=8, r=4, t=2, c=3)
    h = random_coloring(p3, seed=7)
    hist = np.bincount(h.colors, minlength=4)
    assert hist[0] == 0 and hist[1:].sum() == math.comb(8, 4)


def _mono_cert(n, r, t=2):
    """Valid certificate on the all-ones K_n^r: edge i = window i + next vertices."""
    core = tuple(range(n))
    edges = tuple(tuple(sorted((core[(i + j) % n] for j in range(r)))) for i in range(n))
    return BergeCertificate(color=1, core=core, edges=edges, t=t)


def _mono_graph(n, r, c=1):
    p = Params(n=n, r=r, t=2, c=c)
    return ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))


def test_verify_accepts_reference_cycle():
    h = _mono_graph(5, 3)
    cert = _mono_cert(5, 3)
    assert verify_berge_certificate(cert, h) is None


def test_verify_first_violation_messages():
    h = _mono_graph(5, 3)
    good = _mono_cert(5, 3)

    dup = BergeCertificate(1, good.core, (good.edges[1],) + good.edges[1:], t=2)
    assert "duplicate" in verify_berge_certificate(dup, h)

    miss = BergeCertificate(1, good.core, ((0, 2, 3),) + good.edges[1:], t=2)
    assert "window" in verify_berge_certificate(miss, h)

    badcore = BergeCertificate(1, (0, 1, 2, 3, 3), good.edges, t=2)
    assert "permutation" in verify_berge_certificate(badcore, h)

    h2 = _mono_graph(5, 3, c=2).with_color(rank_subset(good.edges[0]), 2)
    assert "color" in verify_berge_certificate(good, h2)

    assert "match" in verify_berge_certificate(good, h, t=3)

    malformed = BergeCertificate(1, good.core, ((0, 0, 1),) + good.edges[1:], t=2)
    assert "sorted" in verify_berge_certificate(malformed, h)


def test_verify_rotation_invariance():
    h = _mono_graph(7, 3)
    cert = _mono_cert(7, 3)
    for s in range(7):
        rot = BergeCertificate(
            color=1,
            core=cert.core[s:] + cert.core[:s],
            edges=cert.edges[s:] + cert.edges[:s],
            t=2,
        )
        assert verify_berge_certificate(rot, h) is None


def test_verify_rejects_tightness_outside_edge():
    # t=3 window {4,0,1} not inside edge {3,4,0} at the wrap position
    h = _mono_graph(5, 3)
    cert = _mono_cert(5, 3)
    t3 = BergeCertificate(1, cert.core, cert.edges, t=3)
    assert verify_berge_certificate(t3, h) is None  # windows of size 3 do fit here
    # but shrinking an edge's overlap breaks it
    bad = BergeCertificate(1, cert.core, cert.edges[:-1] + ((1, 2, 4),), t=3)
    assert "window" in verify_berge_certificate(bad, h)


def test_certificate_json_roundtrip():
    cert = _mono_cert(6, 4)
    d = cert.to_json_dict()
    assert BergeCertificate.from_json_dict(d) == cert
    with pytest.raises(ValueError):
        BergeCertificate.from_json_dict({"color": 1, "core": [0, 1]})


def reference_write(h, path):
    # the per-line writer the numpy encoder replaced; its bytes are the format
    p = h.params
    tab = edge_table(p.n, p.r)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"berge-coloring v1\nr={p.r} n={p.n} c={p.c}\n")
        for row, color in zip(tab, h.colors):
            fh.write(f"{' '.join(str(int(v)) for v in row)} : {color}\n")


def check_codec(h, tmp_path):
    """write_coloring matches the reference bytes and reads back to h."""
    ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
    write_coloring(h, ours)
    reference_write(h, ref)
    data = ours.read_bytes()
    assert data == ref.read_bytes()
    h2 = read_coloring(ours)
    assert h2.params == h.params
    assert np.array_equal(h2.colors, h.colors)
    # single-digit colors take the byte-compare path, wider ones the parser
    assert (core._read_canonical(data) is not None) == (h.colors.max() <= 9)
    return data


@st.composite
def codec_instances(draw):
    n = draw(st.integers(2, 12))
    r = draw(st.integers(2, min(5, n)))
    c = draw(st.sampled_from([1, 2, 3, 9, 12]))
    return random_coloring(Params(n=n, r=r, t=2, c=c), seed=draw(st.integers(0, 2**16)))


@given(codec_instances())
@settings(max_examples=40, deadline=None)
def test_coloring_codec_matches_reference(tmp_path_factory, h):
    check_codec(h, tmp_path_factory.mktemp("codec"))


@pytest.mark.parametrize("n", [101, 128])
@pytest.mark.parametrize("c", [1, 3, 9, 12, 200])
def test_coloring_codec_wide_vertices_and_colors(tmp_path, n, c):
    check_codec(random_coloring(Params(n=n, r=2, t=2, c=c), seed=c), tmp_path)


def test_coloring_file_roundtrip(tmp_path):
    p = Params(n=6, r=3, t=2, c=3)
    h = random_coloring(p, seed=11)
    path = tmp_path / "coloring.txt"
    write_coloring(h, path)
    h2 = read_coloring(path)
    assert h2.params == p
    assert np.array_equal(h.colors, h2.colors)


def test_coloring_file_accepts_other_layouts(tmp_path):
    h = random_coloring(Params(n=11, r=3, t=2, c=3), seed=5)
    path = tmp_path / "coloring.txt"
    write_coloring(h, path)
    text = path.read_text().splitlines()
    head, rows = text[:2], text[2:]
    shuffled = rows[:]
    np.random.default_rng(0).shuffle(shuffled)
    variants = {
        "shuffled rows": "\n".join(head + shuffled) + "\n",
        "doubled spaces": "\n".join(head + [ln.replace(" ", "  ") for ln in rows]) + "\n",
        "no final newline": "\n".join(head + rows),
        "crlf": "\r\n".join(head + rows) + "\r\n",
    }
    for name, text in variants.items():
        path.write_bytes(text.encode())
        assert core._read_canonical(path.read_bytes()) is None, name
        assert np.array_equal(read_coloring(path).colors, h.colors), name


def swap_two_vertices(data: bytes, line: int) -> bytes:
    """Same length, same line ends, different bytes: `0 3 7 : 1` -> `3 0 7 : 1`."""
    lines = data.split(b"\n")
    verts = lines[line].split(b" ")
    verts[0], verts[1] = verts[1], verts[0]
    lines[line] = b" ".join(verts)
    return b"\n".join(lines)


def test_coloring_file_rejects_corruption(tmp_path):
    p = Params(n=5, r=3, t=2, c=2)
    h = random_coloring(p, seed=3)
    path = tmp_path / "coloring.txt"
    write_coloring(h, path)
    text = path.read_text().splitlines()

    bad = tmp_path / "bad.txt"

    bad.write_text("\n".join(["nonsense"] + text[1:]) + "\n")
    with pytest.raises(ColoringFormatError):
        read_coloring(bad)

    bad.write_text("\n".join(text[:2] + text[3:]) + "\n")  # drop one edge line
    with pytest.raises(ColoringFormatError):
        read_coloring(bad)

    bad.write_text("\n".join(text + [text[2]]) + "\n")  # duplicate an edge line
    with pytest.raises(ColoringFormatError):
        read_coloring(bad)

    mangled = text[:]
    mangled[2] = mangled[2].replace(": 1", ": 9").replace(": 2", ": 9")
    bad.write_text("\n".join(mangled) + "\n")
    with pytest.raises(ColoringFormatError):
        read_coloring(bad)

    mangled = text[:]
    mangled[2] = mangled[2] + "\n" + mangled[3]  # duplicated + still right count? no: dup
    bad.write_text("\n".join(mangled) + "\n")
    with pytest.raises(ColoringFormatError):
        read_coloring(bad)

    # same length and line ends as the canonical file, different bytes
    mangled = swap_two_vertices(path.read_bytes(), 2 + 5)
    assert len(mangled) == len(path.read_bytes())
    bad.write_bytes(mangled)
    with pytest.raises(ColoringFormatError, match="strictly increasing"):
        read_coloring(bad)


def test_coloring_codec_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_CHUNK_LINES", 7)
    h = random_coloring(Params(n=10, r=4, t=2, c=3), seed=4)   # 210 lines, 30 chunks
    data = check_codec(h, tmp_path)
    path = tmp_path / "ours.txt"

    def no_general_parse(fh):
        raise AssertionError("a canonical file fell back to the general parser")

    with monkeypatch.context() as m:
        m.setattr(core, "_read_general", no_general_parse)
        assert np.array_equal(read_coloring(path).colors, h.colors)
    # a corrupt line in the last chunk must still be caught
    path.write_bytes(swap_two_vertices(data, 2 + 205))
    with pytest.raises(ColoringFormatError, match="strictly increasing"):
        read_coloring(path)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_coloring_array_is_valid_for_any_seed(seed):
    p = Params(n=7, r=4, t=2, c=3)
    h = random_coloring(p, seed=seed)
    assert h.colors.min() >= 1 and h.colors.max() <= 3
    assert len(h.colors) == math.comb(7, 4)
