"""Stand-alone check of a Berge-cycle certificate against a coloring file.

A certificate is trusted on this check alone, so it is small, reads both
files with the standard library only, and shares no ranking, color or
verification code with the solver it checks.  It owns what a coloring file
may say: the v2 header grammar, HEADER (the magic line, then `r= n= t= c=`
in decimal with single spaces, no sign, no leading zero and at most three
digits), and the parameter domain, domain_error.  core imports both, with
ColoringFormatError, so the two readers accept the same files and reject
the others with the same message.

check_certificate returns the violation core.verify_berge_certificate
returns, word for word, found in the same order: t, color, core and edge
count, then edge shape and repeats edge by edge, then colors, then core
windows.  A malformed file raises ColoringFormatError, the coloring's
errors before the certificate's; JSON other than integers and lists where
they belong (a bool, float or string) is malformed.
"""

import json
import math
import re
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


def check_certificate(certificate_path, coloring_path) -> tuple[str | None, object]:
    """(None if the certificate holds, else its first violation; its JSON)."""
    data = Path(coloring_path).read_bytes()
    if not (head := HEADER.match(data)):
        raise ColoringFormatError(f"not a {MAGIC} file: it starts with {data[:40]!r}")
    r, n, tc, c = map(int, head.groups())
    body = data[head.end():]
    if why := domain_error(n, r, tc, c):
        raise ColoringFormatError(why)
    if len(body) != math.comb(n, r):
        raise ColoringFormatError(f"expected {math.comb(n, r)} color bytes, found {len(body)}")
    if body.translate(None, bytes(range(1, c + 1))):                # in C: any byte not in 1..c
        raise ColoringFormatError("color out of range")
    try:
        cert = json.loads(Path(certificate_path).read_text(encoding="utf-8"))
    except ValueError as exc:                                       # bad JSON or bad UTF-8
        raise ColoringFormatError(f"bad certificate JSON: {exc}") from exc
    color, core, edges, t = map(getattr(cert, "get", {}.get), ("color", "core", "edges", "t"))
    if not (type(core) is type(edges) is list and all(type(e) is list for e in edges)
            and all(type(v) is int for v in [color, t, *core, *(v for e in edges for v in e)])):
        raise ColoringFormatError("malformed certificate JSON: color and t must be integers, "
                                  "core and each edge lists of integers")
    for bad, why in ((not 2 <= t <= r, f"tightness t={t} outside 2..r={r}"),
                     (not 1 <= color <= c, f"color {color} outside 1..{c}"),
                     (sorted(core) != list(range(n)), "core is not a permutation of all vertices"),
                     (len(edges) != n, f"expected {n} edges, got {len(edges)}")):
        if bad:
            return why, cert
    for i, e in enumerate(edges):
        if len(e) != r or e != sorted(v for v in set(e) if 0 <= v < n):
            return f"edge {i} is not a sorted r-subset of the vertex set: {tuple(e)}", cert
        if e in edges[:i]:
            return f"edge {i} duplicates another certificate edge: {tuple(e)}", cert
    for i, e in enumerate(edges):
        if body[sum(math.comb(v, j + 1) for j, v in enumerate(e))] != color:     # colex rank
            return f"edge {i} does not have color {color}: {tuple(e)}", cert
    for i, e in enumerate(edges):
        if not (window := {core[(i + j) % n] for j in range(t)}) <= set(e):
            return f"edge {i} misses core window {sorted(window)}: {tuple(e)}", cert
    return None, cert
