import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecycles import core
from bergecycles.checker import check_certificate
from bergecycles.cli import main
from bergecycles.core import (
    BergeCertificate,
    ColoredHypergraph,
    ColoringFormatError,
    InvalidParams,
    Params,
    binom,
    edge_table,
    edges_through,
    random_coloring,
    rank_rows,
    rank_subset,
    read_coloring,
    unrank_rows,
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
    for ranks in ([10], [0, -1]):
        with pytest.raises(ValueError):
            unrank_rows(ranks, 5, 3)


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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_colex_table_up_to_k9(data):
    # the shadow kernel reads lower-level tables as prefixes of the n-table
    k = data.draw(st.integers(0, 9), label="k")
    n = data.draw(st.integers(k, min(k + 5, 14)), label="n")
    m = data.draw(st.integers(0, n), label="m")
    tab = edge_table(n, k)
    expected = colex_order(n, k)
    assert [tuple(int(v) for v in row) for row in tab] == expected
    assert np.array_equal(edge_table(m, k), tab[:binom(m, k)])
    for i in data.draw(st.lists(st.integers(0, len(tab) - 1), max_size=20),
                       label="ranks"):
        s = expected[i]
        assert rank_subset(s, n) == i
        assert unrank_subset(i, n, k) == s
    wide = tuple(sorted(data.draw(st.sets(st.integers(0, core.MAX_N - 1),
                                          min_size=k, max_size=k),
                                  label="wide")))
    rank = rank_subset(wide, core.MAX_N)
    assert 0 <= rank < binom(core.MAX_N, k)
    assert unrank_subset(rank, core.MAX_N, k) == wide


# the widest tables the next test builds: every k-table up to k = 3 at MAX_N
_ROW_CAP = binom(core.MAX_N, 3)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_edge_table_rows_are_unranks_up_to_max_n(data):
    # uint8 vertex ids: rows anywhere up to n = MAX_N hold their exact subset,
    # and unrank_rows gives the same rows without the table
    k = data.draw(st.integers(0, 9), label="k")
    top = max(m for m in range(k, core.MAX_N + 1) if binom(m, k) <= _ROW_CAP)
    n = data.draw(st.integers(k, top), label="n")
    m = data.draw(st.integers(0, n), label="m")
    tab = edge_table(n, k)
    assert tab.shape == (binom(n, k), k)
    assert tab.dtype == np.uint8 and not tab.flags.writeable
    assert np.array_equal(edge_table(m, k), tab[:binom(m, k)])
    ranks = data.draw(st.lists(st.integers(0, len(tab) - 1), max_size=30),
                      label="ranks")
    picked = [0, len(tab) - 1, *ranks]
    for i in picked:
        assert tuple(tab[i].tolist()) == unrank_subset(i, n, k)
    assert np.array_equal(unrank_rows(picked, n, k), tab[picked])


@st.composite
def fixed_set_batches(draw):
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, min(6, n)))
    k = draw(st.integers(0, r))
    sets = draw(st.lists(st.permutations(list(range(n))).map(lambda q: q[:k]),
                         min_size=1, max_size=4))
    return n, r, sets


@given(fixed_set_batches())
@settings(max_examples=120, deadline=None)
def test_edges_through_matches_enumeration(case):
    n, r, sets = case
    ranks = edges_through(n, r, sets)
    for fixed, got in zip(sets, ranks):
        want = [s for s in colex_order(n, r) if set(fixed) <= set(s)]
        assert got.tolist() == [rank_subset(s) for s in want]


@given(fixed_set_batches(), st.data())
@settings(max_examples=120, deadline=None)
def test_edges_through_column_ranges_are_slices_of_the_full_row(case, data):
    # start, stop = C(m', r-k), C(m, r-k): the free parts inside the first m
    # free vertices but not the first m'; the lookups then span only m of them
    n, r, sets = case
    j = r - len(sets[0])
    m = data.draw(st.integers(0, n - len(sets[0])))
    m0 = data.draw(st.integers(0, m))
    start, stop = binom(m0, j), binom(m, j)
    full = edges_through(n, r, sets)
    assert np.array_equal(edges_through(n, r, sets, start, stop), full[:, start:stop])
    assert np.array_equal(edges_through(n, r, sets, stop=stop), full[:, :stop])


def test_edges_through_spans_several_row_blocks(monkeypatch):
    # 55 rows 36 wide, gathered 16 rows at a time, and one row at a time
    # when a single row outgrows the block
    n, r = 11, 4
    sets = list(itertools.combinations(range(n), 2))
    for size in (16 * math.comb(n - 2, r - 2), 1):
        monkeypatch.setattr(core, "_THROUGH_SIZE", size)
        ranks = edges_through(n, r, sets)
        for fixed, got in zip(sets, ranks):
            want = [s for s in colex_order(n, r) if set(fixed) <= set(s)]
            assert got.tolist() == [rank_subset(s) for s in want]


@pytest.mark.parametrize("n,r,fixed,stops", [
    (40, 4, (3, 17), [28, 120, 496, 703]),     # 8, 16, 32, then all 38 free
    (85, 4, (0,), [56, 560, 4960, 41664, 95284]),
    (10, 4, (2, 5), [28]),                     # 8 free vertices: one block
    (18, 9, (), [0, 11440, 48620]),            # no 9-set inside 8 vertices
])
def test_row_blocks_read_the_row_from_its_lowest_free_vertices(n, r, fixed, stops):
    # each block ends at the last edge whose other vertices lie in the
    # set's 8, 16, 32, ... lowest free vertices, the last one at the row's end
    k = len(fixed)
    blocks = core.row_blocks(n, r, k)
    assert blocks == tuple(zip([0, *stops], stops))
    assert core.row_blocks(n, r, k) is blocks
    row = edges_through(n, r, [fixed])[0]
    assert len(row) == stops[-1]
    edges = unrank_rows(row, n, r)
    free = [v for v in range(n) if v not in fixed]
    for i, (_, stop) in enumerate(blocks):
        inside = set(fixed) | set(free[:8 << i])
        assert all(set(e) <= inside for e in edges[:stop].tolist())
        assert not any(set(e) <= inside for e in edges[stop:].tolist())


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
    recolored = h.colors.copy()
    recolored[0] = 2
    h2 = ColoredHypergraph(p, recolored)
    assert h.color_of_rank(0) == 1 and h2.color_of_rank(0) == 2
    assert h2.color_of((2, 1, 0)) == 2  # unsorted input is sorted internally
    with pytest.raises(ValueError):
        h.colors[0] = 2  # immutable storage


def test_hypergraph_copies_a_writeable_input():
    p = Params(n=5, r=3, t=2, c=2)
    colors = np.ones(10, dtype=np.uint8)
    h = ColoredHypergraph(p, colors)
    colors[0] = 2                       # the caller's array stays its own
    assert colors.flags.writeable and not np.shares_memory(colors, h.colors)
    assert h.color_of_rank(0) == 1 and not h.colors.flags.writeable
    frozen = h.colors
    assert ColoredHypergraph(p, frozen).colors is frozen   # read-only: shared


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

    recolored = np.ones(10, dtype=np.uint8)
    recolored[rank_subset(good.edges[0])] = 2
    h2 = ColoredHypergraph(Params(n=5, r=3, t=2, c=2), recolored)
    assert "color" in verify_berge_certificate(good, h2)

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


def loop_verify(cert, h):
    """The verifier as a loop over edges and windows: the reference that
    checker.certificate_error, run by verify_berge_certificate and by
    check_certificate, must match string for string."""
    p = h.params
    n, r, t = p.n, p.r, cert.t
    if not 2 <= t <= r:
        return f"tightness t={t} outside 2..r={r}"
    if not 1 <= cert.color <= p.c:
        return f"color {cert.color} outside 1..{p.c}"
    core = cert.core
    if len(core) != n or sorted(core) != list(range(n)):
        return "core is not a permutation of all vertices"
    if len(cert.edges) != n:
        return f"expected {n} edges, got {len(cert.edges)}"
    seen = set()
    for i, e in enumerate(cert.edges):
        if len(e) != r or any(not 0 <= v < n for v in e) or any(
                e[j] >= e[j + 1] for j in range(r - 1)):
            return f"edge {i} is not a sorted r-subset of the vertex set: {e}"
        if e in seen:
            return f"edge {i} duplicates another certificate edge: {e}"
        seen.add(e)
    for i, e in enumerate(cert.edges):
        if h.color_of_rank(rank_subset(e)) != cert.color:
            return f"edge {i} does not have color {cert.color}: {e}"
    for i in range(n):
        window = {core[(i + j) % n] for j in range(t)}
        if not window <= set(cert.edges[i]):
            return f"edge {i} misses core window {sorted(window)}: {cert.edges[i]}"
    return None


_ODD_INTS = [-1, 10**30, -10**30, 2**63, 2**64 + 1]


def _tamper(draw, cert, p):
    """One tampering of a certificate's fields, of the kinds a hand-edited
    or corrupted certificate shows."""
    n = p.n
    core, edges = list(cert.core), list(cert.edges)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    odd = st.sampled_from(_ODD_INTS + [n, n + 1]) | st.integers(0, n - 1)
    kind = draw(st.sampled_from([
        "vertex", "drop", "grow", "dup", "unsort", "swap", "subset", "color",
        "t", "core", "core-dup", "core-len", "edges-len"]))
    e = list(edges[i]) or [0]
    if kind == "vertex":
        e[draw(st.integers(0, len(e) - 1))] = draw(odd)
        edges[i] = tuple(e)
    elif kind == "drop":
        edges[i] = tuple(e[1:])
    elif kind == "grow":
        edges[i] = tuple(sorted(e + [draw(odd)]))
    elif kind == "dup":
        edges[i] = edges[j]
    elif kind == "unsort":
        edges[i] = tuple(e[::-1])
    elif kind == "swap":
        edges[i], edges[j] = edges[j], edges[i]
    elif kind == "subset":
        edges[i] = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=p.r,
                                             max_size=p.r))))
    elif kind == "color":
        return BergeCertificate(draw(odd | st.integers(0, p.c + 1)), cert.core,
                                cert.edges, cert.t)
    elif kind == "t":
        return BergeCertificate(cert.color, cert.core, cert.edges,
                                draw(odd | st.integers(0, p.r + 1)))
    elif kind == "core":
        core[i] = draw(odd)
    elif kind == "core-dup":
        core[i] = core[j]
    elif kind == "core-len":
        core = core[:draw(st.integers(0, n - 1))]
    else:
        edges = edges[:draw(st.integers(0, n - 1))] + edges[n:]
    return BergeCertificate(cert.color, tuple(core), tuple(edges), cert.t)


@st.composite
def tampered_certificates(draw):
    # a valid certificate on a K_n^r with a few edges recolored, its
    # vertices relabelled, then tampered zero to three times
    n = draw(st.integers(5, 10))
    r = draw(st.integers(2, min(5, n - 1)))
    t = draw(st.integers(2, r))
    p = Params(n=n, r=r, t=2, c=2)
    colors = np.ones(p.num_edges, dtype=np.uint8)
    colors[draw(st.lists(st.integers(0, p.num_edges - 1), max_size=3))] = 2
    perm = draw(st.permutations(range(n)))
    base = _mono_cert(n, r, t)
    cert = BergeCertificate(
        1, tuple(perm[v] for v in base.core),
        tuple(tuple(sorted(perm[v] for v in e)) for e in base.edges), t)
    for _ in range(draw(st.integers(0, 3))):
        if len(cert.core) != n or len(cert.edges) != n:
            break
        cert = _tamper(draw, cert, p)
    return cert, ColoredHypergraph(p, colors)


def write_case(cert, h, tmp_path):
    """The certificate and the coloring as the files check_certificate reads."""
    cert_path, coloring_path = tmp_path / "c.json", tmp_path / "h.coloring"
    cert_path.write_text(json.dumps(cert.to_json_dict()))
    write_coloring(h, coloring_path)
    return cert_path, coloring_path


@given(tampered_certificates())
@settings(max_examples=400, deadline=None)
def test_verifier_matches_its_loop_reference(tmp_path_factory, case):
    # the checker, reading the case back from files, returns the same
    cert, h = case
    verdict, blob = check_certificate(*write_case(cert, h, tmp_path_factory.mktemp("case")))
    assert verdict == verify_berge_certificate(cert, h) == loop_verify(cert, h)
    assert blob == cert.to_json_dict()


def test_an_extra_edge_is_rejected(tmp_path):
    # n valid edges plus one more distinct edge of the color: every window
    # is still held, so only the edge count rejects it
    h, good = _mono_graph(6, 3), _mono_cert(6, 3)
    extra = BergeCertificate(1, good.core, good.edges + ((0, 2, 4),), t=2)
    want = "expected 6 edges, got 7"
    assert loop_verify(extra, h) == verify_berge_certificate(extra, h) == want
    assert check_certificate(*write_case(extra, h, tmp_path))[0] == want


def test_verifier_matches_its_loop_reference_on_every_mutator(tmp_path):
    # the acceptance criterion's single mutations, kept or not by its
    # arbiter, each drawn 30 times on every certificate it builds; the
    # checker reads each one back from a file
    path = Path(__file__).resolve().parent / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("acceptance", path)
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    rng = np.random.default_rng(0xB17E)
    compared = 0
    for r, t, n in itertools.product((3, 4, 5), (2, 3), range(5, 10)):
        cert, h = acceptance._mono_certificate(r, t, n)
        if cert is None:
            continue
        for mutate in acceptance._MUTATORS:
            for _ in range(30):
                mut = mutate(rng, cert, h.params)
                if mut is not None:
                    want = loop_verify(mut, h)
                    assert verify_berge_certificate(mut, h) == want
                    assert check_certificate(*write_case(mut, h, tmp_path))[0] == want
                    compared += 1
    assert compared > 5000


def test_certificate_json_roundtrip():
    cert = _mono_cert(6, 4)
    d = cert.to_json_dict()
    assert BergeCertificate.from_json_dict(d) == cert
    with pytest.raises(ValueError):
        BergeCertificate.from_json_dict({"color": 1, "core": [0, 1]})


@pytest.mark.parametrize("field,value", [
    ("color", 1.9), ("color", True), ("color", "1"), ("t", 2.7), ("t", 2.0),
    ("core", "01234"), ("core", [0, 1, 2, 3, 4.0]), ("core", (0, 1, 2, 3, 4)),
    ("edges", "abc"), ("edges", [[0, 1, 2]] * 4 + ["012"]),
    ("edges", [[0, 1, 2]] * 4 + [[0, 1, False]]),
])
def test_certificate_json_accepts_only_integers_and_lists(field, value):
    # int() used to read 1.9 as color 1, True as 1 and "01234" as the core
    # (0, 1, 2, 3, 4), so a certificate claiming them verified
    d = _mono_cert(5, 3).to_json_dict()
    d[field] = value
    with pytest.raises(ValueError, match="^malformed certificate JSON: "):
        BergeCertificate.from_json_dict(d)


def v2_header(p):
    return f"berge-coloring v2\nr={p.r} n={p.n} t={p.t} c={p.c}\n".encode()


def check_codec(h, tmp_path):
    """write_coloring writes the v2 header and one byte per edge, in colex
    order of an independent enumeration, and reads back to h, t included."""
    p = h.params
    path = tmp_path / "ours.coloring"
    write_coloring(h, path)
    data = path.read_bytes()
    assert len(data) == len(v2_header(p)) + math.comb(p.n, p.r)
    assert data == v2_header(p) + bytes(h.color_of(e) for e in colex_order(p.n, p.r))
    h2 = read_coloring(path)
    assert h2.params == p
    assert np.array_equal(h2.colors, h.colors)


@st.composite
def codec_instances(draw):
    n = draw(st.integers(2, 12))
    r = draw(st.integers(2, min(5, n)))
    t = draw(st.integers(2, r))
    c = draw(st.integers(1, 255))
    return random_coloring(Params(n=n, r=r, t=t, c=c), seed=draw(st.integers(0, 2**16)))


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


def test_coloring_v2_rejects_corruption(tmp_path, capsys):
    p = Params(n=6, r=4, t=3, c=2)
    h = random_coloring(p, seed=2)
    head, body = v2_header(p), h.colors.tobytes()
    path = tmp_path / "c.coloring"
    path.write_bytes(head + body)
    assert read_coloring(path).params == p
    bad = {
        "short body": head + body[:-1],
        "long body": head + body + b"\x01",
        "trailing newline": head + body + b"\n",
        "color 0": head + b"\x00" + body[1:],
        "color c+1": head + body[:-1] + b"\x03",
        "missing t=": b"berge-coloring v2\nr=4 n=6 c=2\n" + body,
        "key out of order": b"berge-coloring v2\nn=6 r=4 t=3 c=2\n" + body,
        "non-integer r": b"berge-coloring v2\nr=four n=6 t=3 c=2\n" + body,
        "t=1": b"berge-coloring v2\nr=4 n=6 t=1 c=2\n" + body,
        "t > r": b"berge-coloring v2\nr=4 n=6 t=5 c=2\n" + body,
        "no header end": b"berge-coloring v2\nr=4 n=6 t=3 c=2",
    }
    for name, data in bad.items():
        path.write_bytes(data)
        with pytest.raises(ColoringFormatError):
            read_coloring(path)
        capsys.readouterr()
        assert main(["search", str(path)]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, name


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_coloring_array_is_valid_for_any_seed(seed):
    p = Params(n=7, r=4, t=2, c=3)
    h = random_coloring(p, seed=seed)
    assert h.colors.min() >= 1 and h.colors.max() <= 3
    assert len(h.colors) == math.comb(7, 4)


_K64_BODY = bytes([1]) * math.comb(6, 4)
_MAGIC = b"berge-coloring v2\n"


@pytest.mark.parametrize("data,params", [
    (_MAGIC + b"r=4 n=6 t=2 c=1\n" + _K64_BODY, Params(n=6, r=4, t=2, c=1)),
    (_MAGIC + b"r=4 n=6 t=4 c=255\n" + _K64_BODY, Params(n=6, r=4, t=4, c=255)),
    (_MAGIC + b"r=2 n=128 t=2 c=1\n" + bytes([1]) * math.comb(128, 2),
     Params(n=128, r=2, t=2, c=1)),
    (_MAGIC + b"r=+4 n=6 t=2 c=1\n" + _K64_BODY, None),
    (_MAGIC + b"r=4 n=0_6 t=2 c=1\n" + _K64_BODY, None),
    (_MAGIC + b"r=4\tn=6 t=2 c=1\n" + _K64_BODY, None),
    (_MAGIC + b"r=4  n=6 t=2 c=1\n" + _K64_BODY, None),
    (_MAGIC + b" r=4 n=6 t=2 c=1\n" + _K64_BODY, None),
    (_MAGIC + b"r=4 n=6 t=2 c=1 \n" + _K64_BODY, None),
    (_MAGIC + b"r=4 n=6 t=2 c=1\r\n" + _K64_BODY, None),
    (_MAGIC + b"r=04 n=6 t=2 c=1\n" + _K64_BODY, None),
    (_MAGIC + b"r=4 n=6 t=2 c=0\n" + _K64_BODY, None),
    (_MAGIC + b"r=4 n=6 t=2 c=256\n" + _K64_BODY, None),
    (_MAGIC + b"r=2 n=129 t=2 c=1\n" + bytes([1]) * math.comb(129, 2), None),
    (_MAGIC + b"r=4 n=6 t=1 c=1\n" + _K64_BODY, None),
    (_MAGIC + b"r=4 n=6 t=5 c=1\n" + _K64_BODY, None),
    (_MAGIC + b"r=7 n=6 t=2 c=1\n", None),
    (_MAGIC + b"r=10 n=12 t=2 c=2\n" + bytes([1]) * math.comb(12, 10), None),
    (b"berge-coloring v1\nr=4 n=6 t=2 c=1\n" + _K64_BODY, None),
    (_MAGIC + b"r=4 n=6 t=2 c=1", None),
    (_MAGIC + b"r=4 n=6 t=2 c=1\n" + _K64_BODY[:-1], None),
    (_MAGIC + b"r=4 n=6 t=2 c=1\n" + _K64_BODY + b"\x01", None),
    (_MAGIC + b"r=4 n=6 t=2 c=1\n" + b"\x00" + _K64_BODY[1:], None),
    (_MAGIC + b"r=4 n=6 t=2 c=1\n" + _K64_BODY[1:] + b"\x02", None),
], ids=["canonical", "t=r c=255", "n=128", "sign", "underscore", "tab", "two spaces",
        "leading blank", "trailing blank", "trailing CR", "leading zero", "c=0", "c=256",
        "n=129", "t=1", "t>r", "r>n", "r=10", "v1 magic", "no newline", "short body",
        "long body", "color 0", "color c+1"])
def test_both_readers_accept_the_same_headers(tmp_path, capsys, data, params):
    # read_coloring and check_certificate share one header grammar and one
    # parameter domain, and reject each file with the same message
    path = tmp_path / "h.coloring"
    path.write_bytes(data)
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(_mono_cert(6, 4).to_json_dict()))
    if params is not None:
        assert read_coloring(path).params == params
        want = None if params.n == 6 else "core is not a permutation of all vertices"
        assert check_certificate(cert, path)[0] == want
        return
    with pytest.raises(ColoringFormatError) as read_err:
        read_coloring(path)
    with pytest.raises(ColoringFormatError) as check_err:
        check_certificate(cert, path)
    assert str(check_err.value) == str(read_err.value)
    for argv in (["verify", str(cert), str(path)], ["search", str(path)]):
        capsys.readouterr()
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
