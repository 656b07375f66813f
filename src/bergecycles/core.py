"""Colorings of complete r-uniform hypergraphs, and Berge-cycle certificates.

Vertices are 0-based integers 0..n-1.  An edge is an r-subset of vertices,
addressed by its colex rank: the edge {s_0 < s_1 < ... < s_{r-1}} has rank
sum_j C(s_j, j+1), which enumerates all r-subsets in colexicographic order.
Colors are 1-based (1..c) in every public interface.

A Berge certificate is the proof object used throughout: a cyclic core
sequence v_1..v_n covering every vertex plus n pairwise-distinct hyperedges,
where the i-th edge contains the t consecutive core vertices starting at v_i
(indices mod n).  `verify_berge_certificate` checks one from scratch against
a coloring and trusts nothing.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_N = 128          # vertex-count ceiling baked into the binomial table
_MAX_K = 8           # widest subset size served by the vectorized table

COLORING_MAGIC = "berge-coloring v1"


class InvalidParams(ValueError):
    """Parameter combination outside the supported domain."""


class ContractBreach(RuntimeError):
    """A structural guarantee of the construction failed on this input."""

    def __init__(self, message: str, *, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}
        self.reproducer: str | None = None


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
    """All k-subsets of {0..n-1} as a read-only (C(n,k), k) int16 array in colex order.

    Colex nesting makes this buildable level by level: the k-subsets of
    {0..m-1} are exactly the first C(m,k) rows of the table for any larger
    ground set.
    """
    if n > MAX_N:
        raise InvalidParams(f"n={n} exceeds table bound {MAX_N}")
    if k == 0:
        tab = np.zeros((1, 0), dtype=np.int16)
    elif k > n:
        tab = np.zeros((0, k), dtype=np.int16)
    else:
        tab = np.arange(n, dtype=np.int16).reshape(-1, 1)
        for j in range(2, k + 1):
            blocks = []
            for m in range(j - 1, n):
                cnt = binom(m, j - 1)
                blocks.append(np.hstack([tab[:cnt], np.full((cnt, 1), m, np.int16)]))
            tab = np.vstack(blocks)
    tab.setflags(write=False)
    return tab


def edges_containing(n: int, r: int,
                     fixed: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """The r-subsets of {0..n-1} containing `fixed` (any order), as
    (sorted rows, ascending colex ranks).

    The free vertices relabel edge_table(n - |fixed|, r - |fixed|) in order,
    and the colex order of the free parts is that of the whole subsets.
    """
    fixed = np.array(sorted(fixed), dtype=np.int16)
    rest = np.setdiff1d(np.arange(n, dtype=np.int16), fixed)
    free = rest[edge_table(len(rest), r - len(fixed))]
    rows = np.sort(np.hstack([free, np.broadcast_to(fixed, (len(free), len(fixed)))]),
                   axis=1)
    return rows, rank_rows(rows)


def rank_rows(rows: np.ndarray) -> np.ndarray:
    """Vectorized colex rank of each row of an (m, k) array of sorted subsets."""
    rows = np.asarray(rows)
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.int64)
    out = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        out += _BINOM[rows[:, j], j + 1]
    return out


@dataclass(frozen=True)
class Params:
    """Instance shape: K_n^r with a c-coloring, searched at tightness t."""

    n: int
    r: int
    t: int
    c: int

    def __post_init__(self) -> None:
        if not 2 <= self.t <= self.r <= self.n:
            raise InvalidParams(f"need 2 <= t <= r <= n, got t={self.t} r={self.r} n={self.n}")
        if self.n > MAX_N:
            raise InvalidParams(f"n={self.n} exceeds supported maximum {MAX_N}")
        if self.r > _MAX_K + 1:
            raise InvalidParams(f"r={self.r} exceeds supported maximum {_MAX_K + 1}")
        if not 1 <= self.c <= 255:  # colors are stored as uint8
            raise InvalidParams(f"need 1 <= c <= 255 colors, got c={self.c}")

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
        colors = np.asarray(self.colors, dtype=np.uint8)
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

    def with_color(self, rank: int, color: int) -> "ColoredHypergraph":
        """Copy with one edge recolored (colorings are immutable)."""
        if not 1 <= color <= self.params.c:
            raise InvalidParams(f"color {color} out of range 1..{self.params.c}")
        colors = self.colors.copy()
        colors[rank] = color
        return ColoredHypergraph(self.params, colors)


def random_coloring(params: Params, seed) -> ColoredHypergraph:
    """Uniform random coloring, deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    colors = rng.integers(1, params.c + 1, size=params.num_edges, dtype=np.uint8)
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
        try:
            color = int(d["color"])
            core = tuple(int(v) for v in d["core"])
            edges = tuple(tuple(int(v) for v in e) for e in d["edges"])
            t = int(d["t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc
        return cls(color=color, core=core, edges=edges, t=t)


@dataclass(frozen=True)
class TightCycleWitness:
    """Core sequence whose every consecutive t-window is t-good in one color."""

    color: int
    core: tuple[int, ...]
    t: int


def write_certificate(cert: BergeCertificate, path) -> None:
    with open(path, "w") as fh:
        json.dump(cert.to_json_dict(), fh)
        fh.write("\n")


def read_certificate(path) -> BergeCertificate:
    with open(path) as fh:
        return BergeCertificate.from_json_dict(json.load(fh))


def verify_berge_certificate(cert: BergeCertificate, h: ColoredHypergraph,
                             t: int | None = None) -> str | None:
    """Check a certificate from scratch; None on pass, else the first violation.

    Check order: tightness consistency, core is a permutation, edge count,
    edge well-formedness, pairwise distinctness, claimed color, window
    containment.
    """
    p = h.params
    n, r = p.n, p.r
    if t is None:
        t = cert.t
    elif cert.t != t:
        return f"certificate tightness {cert.t} does not match requested t={t}"
    if not 2 <= t <= r:
        return f"tightness t={t} outside 2..r={r}"
    if not 1 <= cert.color <= p.c:
        return f"color {cert.color} outside 1..{p.c}"
    core = cert.core
    if len(core) != n or sorted(core) != list(range(n)):
        return "core is not a permutation of all vertices"
    if len(cert.edges) != n:
        return f"expected {n} edges, got {len(cert.edges)}"
    seen: set[tuple[int, ...]] = set()
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


_CHUNK_LINES = 1 << 16  # edge lines encoded per chunk


@lru_cache(maxsize=1)
def _codec_words() -> tuple[np.ndarray, np.ndarray, np.uint32]:
    """Each text piece of an edge line as one zero-padded little-endian uint32.

    Vertex v is `f"{v} "` (at most "127 "), color k is `f"{k}\\n"` for every
    uint8 k (at most 4 bytes), and the separator is ": ".  No piece contains a
    zero byte, so dropping the padding leaves exactly the text.
    """
    def pack(texts):
        return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts),
                             dtype="<u4")

    return (pack(f"{v} " for v in range(MAX_N)),
            pack(f"{k}\n" for k in range(256)),
            pack([": "])[0])


def _encode_chunks(n: int, r: int, colors: np.ndarray):
    """The body of a coloring file, one `v1 .. vr : color` line per edge in
    colex order, as bytes of at most _CHUNK_LINES lines each."""
    vertex_words, color_words, sep = _codec_words()
    tab = edge_table(n, r)
    for lo in range(0, len(tab), _CHUNK_LINES):
        rows = tab[lo:lo + _CHUNK_LINES]
        words = np.empty((len(rows), r + 2), dtype="<u4")
        words[:, :r] = np.take(vertex_words, rows)
        words[:, r] = sep
        words[:, r + 1] = np.take(color_words, colors[lo:lo + _CHUNK_LINES])
        yield words.tobytes().translate(None, b"\0")


def _header(p: Params) -> bytes:
    return f"{COLORING_MAGIC}\nr={p.r} n={p.n} c={p.c}\n".encode()


def write_coloring(h: ColoredHypergraph, path) -> None:
    """Write the line-oriented text format (header + one line per edge)."""
    p = h.params
    with open(path, "wb") as fh:
        fh.write(_header(p))
        for chunk in _encode_chunks(p.n, p.r, h.colors):
            fh.write(chunk)


class ColoringFormatError(ValueError):
    """Malformed coloring file."""


def _parse_header(line1: str, line2: str) -> tuple[int, int, int]:
    if line1.strip() != COLORING_MAGIC:
        raise ColoringFormatError(f"bad magic line: {line1.strip()!r}")
    fields = line2.split()
    if len(fields) != 3:
        raise ColoringFormatError(f"bad header line: {line2.strip()!r}")
    vals = {}
    for field, key in zip(fields, ("r", "n", "c")):
        if not field.startswith(key + "="):
            raise ColoringFormatError(f"expected {key}=<int>, got {field!r}")
        try:
            vals[key] = int(field[len(key) + 1:])
        except ValueError as exc:
            raise ColoringFormatError(f"non-integer {key} in header: {field!r}") from exc
    return vals["r"], vals["n"], vals["c"]


# compiled on first use, not at import
_CANONICAL_HEADER = re.escape(COLORING_MAGIC.encode()) + rb"\nr=(\d+) n=(\d+) c=(\d+)\n"


def _read_canonical(data: bytes) -> ColoredHypergraph | None:
    """The coloring if `data` is byte for byte what write_coloring writes
    for it, else None.

    Colors are taken from the byte before each newline, which is where a
    single-digit color sits in the canonical layout (a wider color fails
    the comparison); the body is accepted only if it equals the encoding of
    those colors, so this accepts a subset of what _read_general accepts
    and decodes it the same way.
    """
    head = re.match(_CANONICAL_HEADER, data)
    if head is None:
        return None
    r, n, c = (int(g) for g in head.groups())
    try:
        params = Params(n=n, r=r, t=2, c=c)
    except InvalidParams:
        return None
    if head.group() != _header(params):
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=head.end())
    ends = np.flatnonzero(body == ord("\n"))
    if len(ends) != params.num_edges:
        return None
    colors = body[ends - 1] - np.uint8(ord("0"))
    if colors.min() < 1 or colors.max() > c:
        return None
    at = head.end()
    for chunk in _encode_chunks(n, r, colors):
        if not data.startswith(chunk, at):
            return None
        at += len(chunk)
    return ColoredHypergraph(params, colors) if at == len(data) else None


def read_coloring(path) -> ColoredHypergraph:
    """Read the text format back; every edge must be listed exactly once.

    A file in write_coloring's exact layout is checked byte for byte by
    _read_canonical; any other layout goes through the general parser.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    h = _read_canonical(data)
    if h is None:
        # decoded as open(path) in text mode would: locale encoding,
        # universal newlines
        try:
            h = _read_general(io.TextIOWrapper(io.BytesIO(data)))
        except UnicodeDecodeError as exc:
            raise ColoringFormatError(f"coloring file is not text: {exc}") from exc
    return h


def _read_general(fh) -> ColoredHypergraph:
    """Parse any valid layout: whitespace-separated fields, rows in any order."""
    line1 = fh.readline()
    line2 = fh.readline()
    body = fh.read()
    r, n, c = _parse_header(line1, line2)
    try:
        params = Params(n=n, r=r, t=2, c=c)
    except InvalidParams as exc:
        raise ColoringFormatError(str(exc)) from exc
    m = params.num_edges
    if body.count(":") != m:
        raise ColoringFormatError(
            f"expected {m} edge lines with one ':' each, found {body.count(':')}")
    try:
        flat = np.loadtxt(io.StringIO(body.replace(":", " ")), dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ColoringFormatError(f"unparseable edge lines: {exc}") from exc
    if flat.shape != (m, r + 1):
        raise ColoringFormatError(
            f"expected {m} lines of {r} vertices + color, got array {flat.shape}")
    verts = flat[:, :r]
    colors = flat[:, r]
    if verts.min() < 0 or verts.max() >= n:
        raise ColoringFormatError("vertex id out of range")
    if (verts[:, 1:] <= verts[:, :-1]).any():
        raise ColoringFormatError("edge vertices must be strictly increasing")
    if colors.min() < 1 or colors.max() > c:
        raise ColoringFormatError("color out of range")
    ranks = rank_rows(verts)
    dense = np.zeros(m, dtype=np.uint8)
    counts = np.bincount(ranks, minlength=m)
    if (counts != 1).any():
        missing = int(np.argmin(counts))
        raise ColoringFormatError(
            f"edges must each appear exactly once; first problem at rank {missing} "
            f"({unrank_subset(missing, n, r)})")
    dense[ranks] = colors
    return ColoredHypergraph(params, dense)
