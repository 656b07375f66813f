"""Colorings of complete r-uniform hypergraphs, and Berge-cycle certificates.

Vertices are 0-based integers 0..n-1.  An edge is an r-subset of vertices,
addressed by its colex rank: the edge {s_0 < s_1 < ... < s_{r-1}} has rank
sum_j C(s_j, j+1), which enumerates all r-subsets in colexicographic order.
Colors are 1-based (1..c) in every public interface.

A Berge certificate is the proof object used throughout: a cyclic core
sequence v_1..v_n covering every vertex plus n pairwise-distinct hyperedges,
where the i-th edge contains the t consecutive core vertices starting at v_i
(indices mod n).  The checker module is the only code that decides whether
a certificate, its JSON or a coloring file is valid: verify_berge_certificate,
BergeCertificate.from_json_dict and read_coloring call into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import checker
from .checker import MAX_N, MAX_R, ColoringFormatError, domain_error

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
    return tuple(unrank_rows([rank], n, size)[0].tolist())


@lru_cache(maxsize=64)
def edge_table(n: int, k: int) -> np.ndarray:
    """All k-subsets of {0..n-1} as a read-only (C(n,k), k) uint8 array in colex order.

    Stored column by column: the table is the transposed view of one
    (k, C(n,k)) buffer, so each column is contiguous and the rows are not.
    It is filled in place block by block through colex nesting: the
    k-subsets of {0..m-1} are the first C(m,k) rows of the table for any
    larger ground set, so the rows with top vertex m, [C(m,k), C(m+1,k)),
    are the first C(m,k-1) rows of the (cached) (k-1)-table with m appended.
    Each block is k - 1 contiguous copies from the (k-1)-table's columns
    and one contiguous fill of m.  Entries wrap past 255: cast before doing
    arithmetic on them.
    """
    if n > MAX_N:
        raise InvalidParams(f"n={n} exceeds table bound {MAX_N}")
    cols = np.empty((k, binom(n, k)), dtype=np.uint8)
    if k:                                # the one 0-subset has no columns
        low = edge_table(n, k - 1).T
        for m in range(k - 1, n):
            rows = slice(binom(m, k), binom(m + 1, k))
            cols[:-1, rows] = low[:, :binom(m, k - 1)]
            cols[-1, rows] = m
    cols.setflags(write=False)
    return cols.T


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


@lru_cache(maxsize=64)
def row_blocks(n: int, r: int, k: int) -> tuple[tuple[int, int], ...]:
    """The (start, stop) column ranges in which every reader of a k-set's
    `edges_through` row reads it, in order: the free parts inside its
    _FIRST_FREE, then 16, 32, ... lowest free vertices, the last block
    reaching all n - k.  Each block starts where the one before stops."""
    free = [_FIRST_FREE]
    while free[-1] < n - k:
        free.append(2 * free[-1])
    stops = [binom(min(f, n - k), r - k) for f in free]
    return tuple(zip([0, *stops], stops))


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
    The columns are those of the binomial table, so n is at most MAX_N.
    """
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds table bound {MAX_N}")
    rest = np.array(ranks)          # checked before int64 can overflow
    if rest.size and not (0 <= rest.min() and rest.max() < binom(n, k)):
        raise ValueError(f"ranks out of range for C({n},{k})")
    rest = rest.astype(np.int64, copy=False)
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
        """The certificate a parsed JSON object holds.  Its shape is
        checker.certificate_fields's to check: a float, bool or string is
        not coerced, it raises ColoringFormatError, a ValueError."""
        color, core, edges, t = checker.certificate_fields(d)
        return cls(color=color, core=tuple(core), edges=tuple(map(tuple, edges)), t=t)


@dataclass(frozen=True)
class TightCycleWitness:
    """Core sequence whose every consecutive t-window is t-good in one color."""

    color: int
    core: tuple[int, ...]
    t: int


def verify_berge_certificate(cert: BergeCertificate, h: ColoredHypergraph) -> str | None:
    """Check a certificate from scratch at its own t; None on pass, else the
    first violation.  The solver's guard on every result is the check
    `berge verify` runs, checker.certificate_error, on h's colors uncopied."""
    p = h.params
    return checker.certificate_error(memoryview(h.colors), p.n, p.r, p.c,
                                     **cert.to_json_dict())


def write_coloring(h: ColoredHypergraph, path) -> None:
    """Write the v2 format: the magic line, an `r= n= t= c=` line, then
    C(n, r) bytes, the color of each edge in colex order."""
    p = h.params
    with open(path, "wb") as fh:
        fh.write(f"{checker.MAGIC}\nr={p.r} n={p.n} t={p.t} c={p.c}\n".encode())
        fh.write(h.colors.tobytes())


def read_coloring(path) -> ColoredHypergraph:
    """Read a v2 coloring file, the format write_coloring writes.  A file
    checker.read_coloring_file rejects raises its ColoringFormatError; the
    colors share the file's read-only bytes."""
    r, n, t, c, body = checker.read_coloring_file(path)
    return ColoredHypergraph(Params(n=n, r=r, t=t, c=c), np.frombuffer(body, np.uint8))


from . import _export  # noqa: E402  (last: the package binds this module's public names)

_export("core", globals())
