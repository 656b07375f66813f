"""Memory: what the paper's regime allocates, and what each call leaves behind.

A nested helper that calls itself holds itself through its closure cell, so
every call would leave a reference cycle that keeps the helper's whole scope
(the lift's candidate graph) alive until a full collection.  The cycle tests run one call with the
collector off and then expect a collection to find nothing unreachable.
"""

import gc
import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bergecycles.core import (
    ColoredHypergraph,
    Params,
    TightCycleWitness,
    edge_table,
    edges_through,
    random_coloring,
)
from bergecycles.extract import cycle_windows, lift_to_berge
from bergecycles.hamilton import find_mono_ham_tight_cycle
from bergecycles.harness import (
    _u_profile_colors,
    brute_force_exists,
    structured_colorings,
)
from bergecycles.r4 import lemma_a_construct
from bergecycles.shadow import build_shadow

SRC = Path(__file__).resolve().parents[1] / "src"


def mono(n, r, t=2):
    p = Params(n=n, r=r, t=t, c=1)
    return ColoredHypergraph(p, np.ones(p.num_edges, dtype=np.uint8))


def unreachable_after(call):
    """Objects one call leaves in reference cycles, as a collection counts them."""
    call()                      # fill every cache the call uses first
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_lift_leaves_no_cycle():
    h = mono(10, 4)
    w = TightCycleWitness(1, tuple(range(10)), 2)
    assert unreachable_after(lambda: lift_to_berge(w, h)) == 0


def test_lift_peaks_at_its_first_blocks():
    # the full candidate rows of this lift (128 x 7,875 int64 ranks and
    # their color masks) peaked at 16.3 MB; lazy rows read 28 per window
    h = random_coloring(Params(n=128, r=4, t=2, c=3), seed=1)
    w = find_mono_ham_tight_cycle(build_shadow(h, 2), 1).witness
    lift_to_berge(w, h)                   # every table the lift reads is cached now
    tracemalloc.start()
    try:
        lift_to_berge(w, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_vertex_route_peaks_at_its_vertex_link():
    # vertex 0 lies on the one color-2 edge, so the route renames 1 and 2;
    # a recolored copy of all C(85, 4) edges, through an intp index array,
    # peaked at ~19 MB here, and the link the route reads is C(84, 3) bytes
    h = next(structured_colorings("near-mono", {"n": 85, "r": 4, "c": 3}))
    lemma_a_construct(h, 0, 2)            # every table the route reads is cached now
    tracemalloc.start()
    try:
        cert, detail = lemma_a_construct(h, 0, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert detail["companion_edge"] == [0, 1, 2, 3] and cert.color == 1
    assert peak < 6_000_000, peak


def test_t3_tight_cycle_search_leaves_no_cycle():
    s = build_shadow(mono(8, 4, t=3), 3)
    assert unreachable_after(lambda: find_mono_ham_tight_cycle(s, 1)) == 0


def test_oracle_leaves_no_cycle():
    h = mono(6, 3)
    assert brute_force_exists(h) is not None
    assert unreachable_after(lambda: brute_force_exists(h)) == 0


def test_edge_table_build_peaks_near_its_size():
    # a fresh interpreter, so no earlier table or cache hides the build
    code = textwrap.dedent("""
        import resource, sys
        import numpy as np
        from bergecycles.core import binom, edge_table, unrank_subset
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tab = edge_table(128, 4)
        grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        scale = 1 if sys.platform == "darwin" else 1024   # bytes vs KiB
        rng = np.random.default_rng(0)
        ranks = [0, len(tab) - 1, *rng.integers(0, len(tab), 200).tolist()]
        print(grew * scale, tab.nbytes, flush=True)
        assert all(tuple(tab[i].tolist()) == unrank_subset(i, 128, 4) for i in ranks)
        assert tab.dtype == np.uint8 and not tab.flags.writeable
        assert np.array_equal(edge_table(85, 4), tab[:binom(85, 4)])
    """)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout, proc.stderr
    grew, nbytes = map(int, proc.stdout.split())
    assert grew <= 1.25 * 4 * 10_668_000, (grew, nbytes)
    assert proc.returncode == 0, proc.stderr


def test_edges_through_peaks_near_its_result():
    n = 128
    core = tuple(np.random.default_rng(1).permutation(n).tolist())
    windows = cycle_windows(core, 2)
    edges_through(n, 4, windows)          # the (126, 2) table is cached now
    tracemalloc.start()
    try:
        ranks = edges_through(n, 4, windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranks.shape == (n, 7875)
    assert peak <= 1.5 * ranks.nbytes, (peak, ranks.nbytes)


def test_edges_through_lookups_stay_small_beside_many_sets():
    # the shadow's first block of every triple of K_85^4: 98,770 rows of 8
    # ranks, whose lookups are built 1,024 sets at a time; built for every
    # set at once they held several result-sized arrays
    sets = edge_table(85, 3)
    edges_through(85, 4, sets[:1], stop=8)    # the (82, 1) table is cached now
    tracemalloc.start()
    try:
        ranks = edges_through(85, 4, sets, stop=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranks.shape == (len(sets), 8)
    assert peak <= 1.75 * ranks.nbytes, (peak, ranks.nbytes)


def test_u_profile_coloring_peaks_at_two_int64_columns():
    # the hash mixes one table column at a time, and only the pivot's rows
    # are mixed again; a whole-table int64 copy peaked at ~99 MB here
    n = 85
    args = (n, [1], [2], list(range(3, 43)), set(), {}, 0)
    edge_table(n, 4)                      # the table is cached now
    tracemalloc.start()
    try:
        colors = _u_profile_colors(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column = 8 * colors.size
    assert peak <= 2.25 * column, (peak, column)


# sha256 of the majority coloring per (n, r, c, parts), recorded from the
# whole-table int64 count it replaced
MAJORITY_DIGESTS = {
    (60, 5, 3, 3): "5b9b5a187569011abc5bac7958b874ec7cd0945b1ec149f0d1630ee889d98a63",
    (85, 4, 3, 3): "31765b8de3827122733feb1c022c59b9bf67aaf54442bcabcb802135bf3936cb",
    (85, 4, 3, 2): "19b78c27a3a01ebc1acab1924d93086a4b227ce2676340b5b6395890d7de6b8c",
    (24, 8, 2, 2): "cb62aa9114f9e861476b5be557b71351eb01a10e5eae6134a886159f4d318b00",
    (12, 9, 2, 2): "bf65c75380d127d6261bfb28ee116878bf502cfe4ef156d797bf96e21a49c8b2",
}


@pytest.mark.parametrize("shape", sorted(MAJORITY_DIGESTS))
def test_majority_coloring_counts_in_bytes(shape):
    # the parts are counted one table column at a time into a (parts, edges)
    # uint8 array; the whole-table int64 labels peaked at 80-96 bytes an edge
    n, r, c, parts = shape
    edge_table(n, r)                      # the table is cached now
    tracemalloc.start()
    try:
        h = next(structured_colorings(
            "majority", {"n": n, "r": r, "c": c, "parts": parts}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(h.colors.tobytes()).hexdigest() == MAJORITY_DIGESTS[shape]
    if h.colors.size > 100_000:
        assert peak <= (parts + 5) * h.colors.size, (peak, h.colors.size)


@pytest.mark.parametrize("kind,params,per_edge", [
    ("partition", {"n": 85, "r": 4, "c": 3}, 2),
    ("majority", {"n": 85, "r": 4, "c": 3}, 2),
    ("near-mono", {"n": 85, "r": 4, "c": 3}, 2),
    ("pair-lock", {"n": 85, "r": 4, "c": 3}, 2),
    # the C(84, 3) pivot rows are gathered in uint8 and mixed again in
    # int64; class masks over those rows peaked at 4.6 bytes an edge
    ("u-profile", {"n": 85, "k23": 1, "k12": 1, "k13": 40}, 3.5),
    ("pair-lock", {"n": 128, "r": 4, "c": 3}, 2),
    # the engineered deg_w/deg_u23 edges are point writes; member masks over
    # the pivot rows to find them peaked at 5.25 bytes an edge
    ("u-profile", {"n": 85, "k23": 1, "k12": 1, "k13": 41, "deg_w": 1,
                   "deg_u23": 1}, 3.5),
])
def test_structured_coloring_peaks_near_its_colors(kind, params, per_edge):
    # the rules read the edge table in row chunks and hand the finished
    # array over read-only; whole-table int64 arrays peaked at 7-16 bytes
    # an edge (171 MB for one K_128^4 pair-lock coloring)
    next(structured_colorings(kind, params))  # edge tables and shadow caches filled
    tracemalloc.start()
    try:
        h = next(structured_colorings(kind, params))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= per_edge * h.colors.size, (peak, h.colors.size)
