"""Command-line front end.

Subcommands: verify, extract, search, shadow-dump, stress.  Exit codes:
0 success / verification pass, 1 verification failure or a verified
counterexample, 2 unresolved (search or budget gave up), 3 usage errors
and malformed input.  Values read from input files win over flags unless
--force is given.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    BergeCertificate,
    ColoringFormatError,
    InvalidParams,
    Params,
    read_coloring,
    verify_berge_certificate,
)
from .hamilton import DEFAULT_BUDGET
from .harness import find_certificate, stress_theorem
from .r4 import ContractBreach, Unresolved, r4_find
from .shadow import build_shadow, dump_shadow

USAGE_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _load_coloring(path: str):
    if not os.path.exists(path):
        raise ColoringFormatError(f"no such file: {path}")
    return read_coloring(path)


def _resolve_t(file_t: int, flag_t: int | None, force: bool) -> int:
    """File parameters win over flags unless --force."""
    if flag_t is None or flag_t == file_t:
        return file_t
    if force:
        return flag_t
    print(f"note: ignoring --t {flag_t} (file says t={file_t}; "
          f"use --force to override)", file=sys.stderr)
    return file_t


def _cmd_verify(args) -> int:
    h = _load_coloring(args.coloring)
    with open(args.certificate) as fh:
        try:
            blob = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ColoringFormatError(f"bad certificate JSON: {exc}") from exc
    try:
        cert = BergeCertificate.from_json_dict(blob)
    except ValueError as exc:
        raise ColoringFormatError(str(exc)) from exc
    t = _resolve_t(cert.t, args.t, args.force)
    err = verify_berge_certificate(cert, h, t=t)
    if err is None:
        print(f"valid: color {cert.color}, {len(cert.core)} core vertices, "
              f"t={t}")
        return 0
    print(f"invalid: {err}")
    return 1


def _write_json(path: str | None, blob: dict, label: str) -> None:
    if path is None:
        print(json.dumps(blob, indent=2))
        return
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=2)
        fh.write("\n")
    print(f"{label}: {path}")


def _default_out(coloring_path: str, suffix: str) -> str:
    stem = coloring_path[:-4] if coloring_path.endswith(".txt") \
        else coloring_path
    return stem + suffix


def _cmd_extract(args) -> int:
    h = _load_coloring(args.coloring)
    p = h.params
    cert_path = args.output or _default_out(args.coloring, ".cert.json")
    trace_path = args.trace or _default_out(args.coloring, ".trace.json")
    if p.r == 4 and p.c == 3 and p.n >= 85:
        try:
            res = r4_find(h, args.budget)
        except Unresolved as exc:
            if exc.trace is not None:
                _write_json(trace_path, exc.trace.to_json_dict(), "trace")
            print(f"unresolved: {exc}")
            return 2
        except ContractBreach as exc:
            print(f"contract breach: {exc}")
            if exc.reproducer:
                print(f"reproducer: {exc.reproducer}")
            return 2
        _write_json(cert_path, res.certificate.to_json_dict(), "certificate")
        _write_json(trace_path, res.trace.to_json_dict(), "trace")
        print(f"found: color {res.certificate.color} via {res.trace.branch}")
        return 0
    status, cert = find_certificate(h, budget=args.budget)
    if status == "found":
        _write_json(cert_path, cert.to_json_dict(), "certificate")
        _write_json(trace_path, {"branch": "generic-search", "subcase": {},
                                 "fallbacks": []}, "trace")
        print(f"found: color {cert.color}")
        return 0
    if status == "nonexistent":
        print("nonexistent: exhaustive search found no cycle of any color")
        return 1
    print("unresolved: search gave up within budget")
    return 2


def _cmd_search(args) -> int:
    h = _load_coloring(args.coloring)
    status, cert = find_certificate(h, budget=args.budget,
                                    use_oracle=not args.no_oracle)
    if status == "found":
        _write_json(args.output, cert.to_json_dict(), "certificate")
        return 0
    if status == "nonexistent":
        print("nonexistent: exhaustive search found no cycle of any color")
        return 1
    print("unresolved: search gave up within budget")
    return 2


def _cmd_shadow_dump(args) -> int:
    h = _load_coloring(args.coloring)
    t = _resolve_t(h.params.t, args.t, args.force)
    s = build_shadow(h, t)
    if args.output:
        with open(args.output, "w") as fh:
            dump_shadow(s, fh)
        print(f"shadow: {args.output}")
    else:
        dump_shadow(s, sys.stdout)
    return 0


def _cmd_stress(args) -> int:
    try:
        params = Params(n=args.n, r=args.r, t=args.t or 2, c=args.c)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    rep = stress_theorem(params, generator=args.generator,
                         trials=args.trials, seed=args.seed,
                         budget=args.budget, jobs=args.jobs,
                         reproducer_dir=args.reproducer_dir)
    if args.output:
        _write_json(args.output, rep.to_json_dict(), "report")
    else:
        print(json.dumps(rep.to_json_dict(), indent=2))
    print(rep.summary())
    if rep.counterexamples:
        return 1
    if rep.unresolved:
        return 2
    return 0


def _build_parser() -> _Parser:
    ap = _Parser(prog="berge", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, budget=False):
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="search expansion budget")

    v = sub.add_parser("verify", help="check a certificate against a coloring")
    v.add_argument("certificate")
    v.add_argument("coloring")
    v.add_argument("--t", type=int, default=None)
    v.add_argument("--force", action="store_true",
                   help="let flags override file parameters")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("extract",
                       help="find a cycle and write certificate + trace")
    e.add_argument("coloring")
    e.add_argument("-o", "--output", default=None,
                   help="certificate path (default: <coloring>.cert.json)")
    e.add_argument("--trace", default=None,
                   help="trace path (default: <coloring>.trace.json)")
    common(e, budget=True)
    e.set_defaults(func=_cmd_extract)

    s = sub.add_parser("search", help="find a cycle, print the certificate")
    s.add_argument("coloring")
    s.add_argument("-o", "--output", default=None,
                   help="certificate path (default: stdout)")
    s.add_argument("--no-oracle", action="store_true",
                   help="skip the exhaustive fallback on tiny instances")
    common(s, budget=True)
    s.set_defaults(func=_cmd_search)

    d = sub.add_parser("shadow-dump", help="dump the t-set color counts")
    d.add_argument("coloring")
    d.add_argument("-o", "--output", default=None)
    d.add_argument("--t", type=int, default=None)
    d.add_argument("--force", action="store_true")
    d.set_defaults(func=_cmd_shadow_dump)

    st = sub.add_parser("stress", help="seeded Monte-Carlo trials")
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--r", type=int, required=True)
    st.add_argument("--c", type=int, required=True)
    st.add_argument("--t", type=int, default=None)
    st.add_argument("--trials", type=int, default=100)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--jobs", type=int, default=1)
    st.add_argument("--generator", default="random")
    st.add_argument("--reproducer-dir", default=None)
    st.add_argument("-o", "--output", default=None,
                    help="report path (default: stdout)")
    common(st, budget=True)
    st.set_defaults(func=_cmd_stress)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (ColoringFormatError, InvalidParams, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ContractBreach as exc:
        print(f"contract breach: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
