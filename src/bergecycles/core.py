"""Colorings of complete r-uniform hypergraphs, and Berge-cycle certificates.

Vertices are 0-based integers 0..n-1.  An edge is an r-subset of vertices,
addressed by its colex rank: the edge {s_0 < s_1 < ... < s_{r-1}} has rank
sum_j C(s_j, j+1), which enumerates all r-subsets in colexicographic order.
Colors are 1-based (1..c) in every public interface.

A Berge certificate is the proof object used throughout: a cyclic core
sequence v_1..v_n covering every vertex plus n pairwise-distinct hyperedges,
where the i-th edge contains the t consecutive core vertices starting at v_i
(indices mod n).  `verify_berge_certificate` checks one from scratch against
a coloring and trusts nothing; checker.check_certificate checks one against
a coloring file with the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .checker import HEADER, MAX_N, MAX_R, ColoringFormatError, domain_error
from .checker import MAGIC as COLORING_MAGIC   # the one format read and written

_MAX_K = MAX_R - 1   # widest subset size served by the vectorized table
_THROUGH_SIZE = 1 << 17  # entries of edges_through's int64 gather block: 1 MB
_LOOKUP_ROWS = 1024  # fixed sets per edges_through lookup build
_FIRST_FREE = 8      # free vertices the first block of an edges_through row spans


class InvalidParams(ValueError):
    """Parameter combination outside the supported domain."""


class ContractBreach(RuntimeError):
    """A structural guarantee of the construction failed on this input."""

    def __init__(self, message: str, *, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}
        self.trace = None           # set by r4_find and find_certificate


class InternalError(ContractBreach):
    """A result failed a check that holds for every input when the code is correct."""


def _build_binom_table() -> np.ndarray:
    tab = np.zeros((MAX_N + 1, _MAX_K + 2), dtype=np.int64)
    tab[:, 0] = 1
    for n in range(1, MAX_N + 1):
        for k in range(1, _MAX_K + 2):
            tab[n, k] = tab[n - 1, k - 1] + tab[n - 1, k]
    return tab


_BINOM = _build_binom_table()
_BINOM.setflags(write=False)


def binom(n: int, k: int) -> int:
    """C(n, k), 0 for out-of-range arguments (n < k or negatives)."""
    if k < 0 or n < 0 or k > n:
        return 0
    if n <= MAX_N and k <= _MAX_K + 1:
        return int(_BINOM[n, k])
    return math.comb(n, k)


def rank_subset(s: Sequence[int], n: int | None = None) -> int:
    """Colex rank of the sorted k-subset `s` among all k-subsets.

    The rank does not depend on the ground-set size; `n` is accepted for
    range validation only.
    """
    prev = -1
    for v in s:
        if v <= prev:
            raise ValueError(f"subset must be strictly increasing, got {tuple(s)}")
        prev = v
    if prev < 0 and len(s) == 0:
        return 0
    if s[0] < 0:
        raise ValueError(f"negative vertex id in {tuple(s)}")
    if n is not None and prev >= n:
        raise ValueError(f"vertex {prev} out of range for n={n}")
    return sum(binom(v, j + 1) for j, v in enumerate(s))


def unrank_subset(rank: int, n: int, size: int) -> tuple[int, ...]:
    """Inverse of rank_subset: the k-subset of {0..n-1} with the given colex rank."""
    if not 0 <= rank < binom(n, size):
        raise ValueError(f"rank {rank} out of range for C({n},{size})")
    out = [0] * size
    m = n
    rest = rank
    for j in range(size, 0, -1):
        m -= 1
        while binom(m, j) > rest:
            m -= 1
        rest -= binom(m, j)
        out[j - 1] = m
    return tuple(out)


@lru_cache(maxsize=64)
def edge_table(n: int, k: int) -> np.ndarray:
    """All k-subsets of {0..n-1} as a read-only (C(n,k), k) uint8 array in colex order.

    One array, filled in place block by block through colex nesting: the
    k-subsets of {0..m-1} are the first C(m,k) rows of the table for any
    larger ground set, so the rows with top vertex m, [C(m,k), C(m+1,k)),
    are the first C(m,k-1) rows of the (cached) (k-1)-table with m appended.
    Entries wrap past 255: cast before doing arithmetic on them.
    """
    if n > MAX_N:
        raise InvalidParams(f"n={n} exceeds table bound {MAX_N}")
    tab = np.empty((binom(n, k), k), dtype=np.uint8)
    if k:                                # the one 0-subset has no columns
        low = edge_table(n, k - 1)
        for m in range(k - 1, n):
            rows = slice(binom(m, k), binom(m + 1, k))
            tab[rows, :-1] = low[:binom(m, k - 1)]
            tab[rows, -1] = m
    tab.setflags(write=False)
    return tab


def edges_through(n: int, r: int, fixed_sets, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
    """Colex ranks of the r-subsets of {0..n-1} through each of P fixed
    k-sets (any order), as a (P, C(n-k, r-k)) array ascending in each row.

    `start` and `stop` keep only that column range of every row: the rows
    start..stop of the free-part table.  Its first C(m, r-k) rows are the
    free parts inside the first m free vertices, so stop = C(m, r-k) gives
    the lowest ranks of each row, and a later range the next ones.

    The free vertices relabel edge_table(n - k, r - k) through the ascending
    complement `rest`, and the colex order of the free parts is that of the
    whole subsets.  Nothing is sorted.  The i-th fixed vertex x has x - i
    free vertices below it, so `below` (rest index a below x - i) holds
    when the a-th free vertex lies below x, and rest[a] is a plus the count
    of fixed vertices for which it does not.  So rest[a] - a fixed vertices
    lie below rest[a], and a free vertex in column j sits at index
    j + rest[a] - a of its r-set.  The i-th fixed vertex x sits at index
    i + d, where d counts the free columns whose rest index is below x - i;
    as the columns ascend, C(x, i+d+1) is C(x, i+1) plus one step
    C(x, i+j+2) - C(x, i+j+1) for each such column j, so every rank is a
    sum of one lookup per free column.  The lookups span only the free
    vertices the column range reaches, and are built for _LOOKUP_ROWS fixed
    sets at a time, so that with many sets they stay small beside the
    result.  They are added in place, as many rows at a time as keep the
    gathered block within _THROUGH_SIZE entries: all 1024 rows of a first
    block 8 ranks wide, 16 rows of 7,875-wide K_128^4 pair rows.
    """
    fixed = np.sort(np.asarray(fixed_sets, dtype=np.intp), axis=1)
    p, k = fixed.shape
    free = edge_table(n - k, r - k)[start:stop]
    # colex rows ascend in their last column, so the last row holds the top
    idx, at = np.arange(int(free[-1, -1]) + 1 if free.size else 0), np.arange(k)
    cols = free.T.astype(np.intp)
    ranks = np.empty((p, len(free)), dtype=np.int64)
    block = max(1, _THROUGH_SIZE // max(1, len(free)))
    for lo in range(0, p, _LOOKUP_ROWS):
        x, out = fixed[lo:lo + _LOOKUP_ROWS], ranks[lo:lo + _LOOKUP_ROWS]
        below = idx < (x - at)[:, :, None]       # (rows, k, reach): rest index below x - i
        rest = idx + k - below.sum(axis=1)
        out[:] = _BINOM[x, at + 1].sum(axis=1, keepdims=True)
        for j, col in enumerate(cols):
            step = _BINOM[x, at + j + 2] - _BINOM[x, at + j + 1]
            lut = _BINOM[rest, rest - idx + j + 1] + (below * step[:, :, None]).sum(axis=1)
            for a in range(0, len(x), block):
                out[a:a + block] += np.take(lut[a:a + block], col, axis=1)
    return ranks


def rank_rows(rows: np.ndarray) -> np.ndarray:
    """Vectorized colex rank of each row of an (m, k) array of sorted subsets."""
    rows = np.asarray(rows)
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.int64)
    out = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        out += _BINOM[rows[:, j], j + 1]
    return out


def unrank_rows(ranks, n: int, k: int) -> np.ndarray:
    """Inverse of rank_rows: the k-subsets of {0..n-1} with the given colex
    ranks, as an (m, k) array of sorted rows.

    Column j-1 holds the largest v with C(v, j) <= the rank left after the
    columns above it, found by one searchsorted per column over C(., j).
    """
    rest = np.array(ranks, dtype=np.int64)
    if rest.size and not (0 <= rest.min() and rest.max() < binom(n, k)):
        raise ValueError(f"ranks out of range for C({n},{k})")
    out = np.empty((len(rest), k), dtype=np.intp)
    for j in range(k, 0, -1):
        col = _BINOM[:n, j]
        out[:, j - 1] = np.searchsorted(col, rest, side="right") - 1
        rest -= col[out[:, j - 1]]
    return out


@dataclass(frozen=True)
class Params:
    """Instance shape: K_n^r with a c-coloring, searched at tightness t."""

    n: int
    r: int
    t: int
    c: int

    def __post_init__(self) -> None:
        if why := domain_error(self.n, self.r, self.t, self.c):
            raise InvalidParams(why)

    @property
    def num_edges(self) -> int:
        return binom(self.n, self.r)


@dataclass(frozen=True, eq=False)
class ColoredHypergraph:
    """A c-edge-coloring of K_n^r: dense color array indexed by edge colex rank."""

    params: Params
    colors: np.ndarray

    def __post_init__(self) -> None:
        m = self.params.num_edges
        colors = self.colors
        # share only an array no one can write through; copy anything else
        if not (isinstance(colors, np.ndarray) and colors.dtype == np.uint8
                and not colors.flags.writeable):
            colors = np.array(colors, dtype=np.uint8)
        if colors.shape != (m,):
            raise InvalidParams(f"colors must have shape ({m},), got {colors.shape}")
        if m and (colors.min() < 1 or colors.max() > self.params.c):
            raise InvalidParams("colors must lie in 1..c")
        colors.setflags(write=False)
        object.__setattr__(self, "colors", colors)

    def color_of_rank(self, rank: int) -> int:
        return int(self.colors[rank])

    def color_of(self, edge: Iterable[int]) -> int:
        return int(self.colors[rank_subset(tuple(sorted(edge)))])


def random_coloring(params: Params, seed) -> ColoredHypergraph:
    """Uniform random coloring, deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    colors = rng.integers(1, params.c + 1, size=params.num_edges, dtype=np.uint8)
    colors.setflags(write=False)        # so the hypergraph shares it uncopied
    return ColoredHypergraph(params, colors)


@dataclass(frozen=True)
class BergeCertificate:
    """Monochromatic Hamiltonian t-tight Berge-cycle: core sequence + backing edges.

    edges[i] must contain core[i..i+t-1] (cyclically) and all n edges must be
    pairwise distinct and of the claimed color.
    """

    color: int
    core: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]
    t: int

    def to_json_dict(self) -> dict:
        return {
            "color": self.color,
            "core": list(self.core),
            "edges": [list(e) for e in self.edges],
            "t": self.t,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BergeCertificate":
        """The certificate a parsed JSON object holds.  Only JSON integers
        and lists are read as such: a float, bool or string is not coerced,
        it raises ValueError("malformed certificate JSON: ...")."""
        def integer(v):
            if type(v) is not int:
                raise ValueError(f"expected an integer, got {v!r}")
            return v

        def listed(vs):
            if type(vs) is not list:
                raise ValueError(f"expected a list, got {vs!r}")
            return vs

        def integers(vs):
            return tuple(map(integer, listed(vs)))

        try:
            color = integer(d["color"])
            core = integers(d["core"])
            edges = tuple(map(integers, listed(d["edges"])))
            t = integer(d["t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc
        return cls(color=color, core=core, edges=edges, t=t)


@dataclass(frozen=True)
class TightCycleWitness:
    """Core sequence whose every consecutive t-window is t-good in one color."""

    color: int
    core: tuple[int, ...]
    t: int


def verify_berge_certificate(cert: BergeCertificate, h: ColoredHypergraph) -> str | None:
    """Check a certificate from scratch at its own t; None on pass, else the
    first violation.

    This is the solver's in-process guard, run on every result on the
    arrays the solver already holds.  checker.check_certificate, which
    `berge verify` runs, is the independent guard: it shares no code with
    this one and returns the same violations word for word, those of the
    loop reference the tests keep.

    Check order: tightness in 2..r, color in 1..c, core is a permutation,
    edge count, then edge by edge: well-formedness and distinctness from
    the edges before it; then claimed color, then window containment.

    Vertex ranges are checked in Python, so that no integer too large for
    numpy reaches it; everything after that runs on one (n, r) array.  The
    first edge that is malformed or repeats an earlier edge is reported:
    the first repeat (np.unique keeps first occurrences) among the edges
    before the first malformed one, else the malformed one.
    """
    p = h.params
    n, r, t = p.n, p.r, cert.t
    if not 2 <= t <= r:
        return f"tightness t={t} outside 2..r={r}"
    if not 1 <= cert.color <= p.c:
        return f"color {cert.color} outside 1..{p.c}"
    core, edges = cert.core, cert.edges
    if len(core) != n or sorted(core) != list(range(n)):
        return "core is not a permutation of all vertices"
    if len(edges) != n:
        return f"expected {n} edges, got {len(edges)}"
    bad = next((i for i, e in enumerate(edges)
                if len(e) != r or min(e) < 0 or max(e) >= n), n)
    rows = np.array(edges[:bad], dtype=np.intp).reshape(bad, r)
    unsorted = np.flatnonzero((rows[:, 1:] <= rows[:, :-1]).any(axis=1))
    bad = int(unsorted[0]) if unsorted.size else bad
    ranks = rank_rows(rows[:bad])
    repeat = np.ones(bad, dtype=bool)
    repeat[np.unique(ranks, return_index=True)[1]] = False
    if repeat.any():
        i = int(repeat.argmax())
        return f"edge {i} duplicates another certificate edge: {edges[i]}"
    if bad < n:
        return f"edge {bad} is not a sorted r-subset of the vertex set: {edges[bad]}"
    wrong = np.flatnonzero(h.colors[ranks] != cert.color)
    if wrong.size:
        i = int(wrong[0])
        return f"edge {i} does not have color {cert.color}: {edges[i]}"
    windows = np.asarray(core)[(np.arange(n)[:, None] + np.arange(t)) % n]
    held = (windows[:, :, None] == rows[:, None, :]).any(axis=2).all(axis=1)
    if not held.all():
        i = int(held.argmin())
        window = sorted(core[(i + j) % n] for j in range(t))
        return f"edge {i} misses core window {window}: {edges[i]}"
    return None


def write_coloring(h: ColoredHypergraph, path) -> None:
    """Write the v2 format: the magic line, an `r= n= t= c=` line, then
    C(n, r) bytes, the color of each edge in colex order."""
    p = h.params
    with open(path, "wb") as fh:
        fh.write(f"{COLORING_MAGIC}\nr={p.r} n={p.n} t={p.t} c={p.c}\n".encode())
        fh.write(h.colors.tobytes())


def read_coloring(path) -> ColoredHypergraph:
    """Read a v2 coloring file, the format write_coloring writes.

    The file must start with checker.HEADER, the magic line and an
    `r= n= t= c=` line exactly as write_coloring writes them, name Params
    in checker.domain_error's domain, then hold exactly C(n, r) color
    bytes, each in 1..c.  Anything else, such as the retired v1 text
    layout, raises ColoringFormatError with the message the checker gives.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = HEADER.match(data)
    if head is None:
        raise ColoringFormatError(f"not a {COLORING_MAGIC} file: it starts with {data[:40]!r}")
    r, n, t, c = map(int, head.groups())
    try:
        params = Params(n=n, r=r, t=t, c=c)
    except InvalidParams as exc:
        raise ColoringFormatError(str(exc)) from exc
    colors = np.frombuffer(data, dtype=np.uint8, offset=head.end())
    if len(colors) != params.num_edges:
        raise ColoringFormatError(
            f"expected {params.num_edges} color bytes, found {len(colors)}")
    if colors.min() < 1 or colors.max() > c:
        raise ColoringFormatError("color out of range")
    return ColoredHypergraph(params, colors)


from . import _export  # noqa: E402  (last: the package binds this module's public names)

_export("core", globals())
