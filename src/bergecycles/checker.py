"""The one check of Berge-cycle certificates, certificate JSON and coloring files.

A certificate is trusted on this check alone, so it is small, uses the
standard library only and imports nothing from the solver; `berge verify`
runs check_certificate and loads no numpy.  core's verify_berge_certificate
(the guard on every certificate the solver builds), from_json_dict and
read_coloring call certificate_error, certificate_fields and
read_coloring_file.  The module owns the v2 header grammar, HEADER (the
magic line, then `r= n= t= c=` in decimal with single spaces, no sign, no
leading zero and at most three digits), and the parameter domain,
domain_error.  certificate_error reports the first violation: t, color,
core and edge count, then edge shape and repeats edge by edge, then colors,
then core windows.  A malformed file raises ColoringFormatError, the
coloring's before the certificate's; JSON other than integers and lists
where they belong (a bool, float or string) is malformed.
"""

import json
import math
import re
from functools import lru_cache
from operator import getitem, lt
from pathlib import Path

MAGIC = "berge-coloring v2"
HEADER = re.compile(MAGIC.encode() + rb"\nr=([1-9]\d{0,2}) n=([1-9]\d{0,2}) "
                    rb"t=([1-9]\d{0,2}) c=([1-9]\d{0,2})\n")
MAX_N = 128     # vertex-count ceiling; core.edge_table's uint8 ids need MAX_N <= 255
MAX_R = 9       # widest edge the rank table serves


class ColoringFormatError(ValueError):
    """Malformed coloring file or certificate JSON."""


def domain_error(n, r, t, c) -> str | None:
    """Why K_n^r with c colors at tightness t lies outside the solver's domain, or None."""
    if not 2 <= t <= r <= n:
        return f"need 2 <= t <= r <= n, got t={t} r={r} n={n}"
    if n > MAX_N:
        return f"n={n} exceeds supported maximum {MAX_N}"
    if r > MAX_R:
        return f"r={r} exceeds supported maximum {MAX_R}"
    if not 1 <= c <= 255:           # colors are stored as uint8
        return f"need 1 <= c <= 255 colors, got c={c}"
    return None


def read_coloring_file(path) -> tuple[int, int, int, int, bytes]:
    """(r, n, t, c, body) of a v2 coloring file; body holds the color of
    each of the C(n, r) edges, one byte in 1..c, in colex order."""
    with open(path, "rb") as fh:
        start = fh.read(64)                     # longer than any header HEADER matches
        if not (head := HEADER.match(start)):
            raise ColoringFormatError(f"not a {MAGIC} file: it starts with {start[:40]!r}")
        fh.seek(head.end())
        body = fh.read()                        # read once, not copied out of the file's bytes
    r, n, t, c = map(int, head.groups())
    if why := domain_error(n, r, t, c):
        raise ColoringFormatError(why)
    if len(body) != math.comb(n, r):
        raise ColoringFormatError(f"expected {math.comb(n, r)} color bytes, found {len(body)}")
    if body.translate(None, bytes(range(1, c + 1))):                # in C: any byte not in 1..c
        raise ColoringFormatError("color out of range")
    return r, n, t, c, body


def certificate_fields(cert) -> tuple:
    """(color, core, edges, t) of a parsed certificate JSON object."""
    color, core, edges, t = map(getattr(cert, "get", {}.get), ("color", "core", "edges", "t"))
    if not (type(core) is type(edges) is list and all(type(e) is list for e in edges)
            and all(type(v) is int for v in [color, t, *core, *(v for e in edges for v in e)])):
        raise ColoringFormatError("malformed certificate JSON: color and t must be integers, "
                                  "core and each edge lists of integers")
    return color, core, edges, t


@lru_cache(maxsize=64)
def _rank_terms(n, r) -> tuple:
    """C(v, j + 1) for each column j and vertex v: the colex rank of a
    sorted r-subset is the sum of one term per column."""
    return tuple(tuple(math.comb(v, j + 1) for v in range(n)) for j in range(r))


def certificate_error(colors, n, r, c, color, core, edges, t) -> str | None:
    """The first violation of the certificate (color, core, edges, t), core
    and each edge a list, on a c-coloring of K_n^r; None if it holds.
    colors[rank] is the color of the edge of that colex rank."""
    for bad, why in ((not 2 <= t <= r, f"tightness t={t} outside 2..r={r}"),
                     (not 1 <= color <= c, f"color {color} outside 1..{c}"),
                     (sorted(core) != list(range(n)), "core is not a permutation of all vertices"),
                     (len(edges) != n, f"expected {n} edges, got {len(edges)}")):
        if bad:
            return why
    terms, ranks = _rank_terms(n, r), {}        # ranks: one key per edge, in edge order
    for i, e in enumerate(edges):
        if len(e) != r or not all(map(lt, [-1, *e], [*e, n])):     # -1 < e[0] < ... < n
            return f"edge {i} is not a sorted r-subset of the vertex set: {tuple(e)}"
        if (rank := sum(map(getitem, terms, e))) in ranks:
            return f"edge {i} duplicates another certificate edge: {tuple(e)}"
        ranks[rank] = i
    for rank, i in ranks.items():
        if colors[rank] != color:
            return f"edge {i} does not have color {color}: {tuple(edges[i])}"
    ring = core + core[:t - 1]                  # window i is ring[i:i + t]
    for i, e in enumerate(edges):
        if not set(e).issuperset(ring[i:i + t]):
            return f"edge {i} misses core window {sorted(ring[i:i + t])}: {tuple(e)}"
    return None


def check_certificate(certificate_path, coloring_path) -> tuple[str | None, object]:
    """(None if the certificate holds, else its first violation; its JSON)."""
    r, n, _, c, body = read_coloring_file(coloring_path)
    try:
        cert = json.loads(Path(certificate_path).read_text(encoding="utf-8"))
    except ValueError as exc:                                       # bad JSON or bad UTF-8
        raise ColoringFormatError(f"bad certificate JSON: {exc}") from exc
    return certificate_error(body, n, r, c, *certificate_fields(cert)), cert
