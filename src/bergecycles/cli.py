"""Command-line front end.

Subcommands: verify, extract, search, shadow-dump, stress.  Exit codes:
0 success / verification pass, 1 verification failure or a verified
counterexample, 2 unresolved (search or budget gave up), 3 usage errors
and malformed input, 4 a contract breach.  search, extract and verify
take t from their input files; shadow-dump does too unless --t sets the
dump's tightness.  All randomness flows from --seed.

verify runs checker.check_certificate, which reads both files with the
standard library alone; each other command imports the modules it runs
when it starts, so verify never imports numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checker import ColoringFormatError, check_certificate

USAGE_ERROR = 3
CONTRACT_BREACH = 4

# The solver functions the other commands run.  Each command imports its
# own when it starts, so verify never imports numpy.  Those whose module is
# already loaded are bound here too, for code that reads cli's bindings:
# the benchmark tracer patches and restores them with every other binding.
for _module, _names in {"core": ("read_coloring",),
                        "harness": ("find_certificate", "stress_theorem"),
                        "shadow": ("build_shadow", "dump_shadow")}.items():
    if (_loaded := sys.modules.get(f"{__package__}.{_module}")) is not None:
        globals().update({name: getattr(_loaded, name) for name in _names})


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _must_exist(path: str) -> None:
    if not os.path.exists(path):
        raise ColoringFormatError(f"no such file: {path}")


def _load_coloring(path: str):
    from .core import read_coloring
    _must_exist(path)
    return read_coloring(path)


def _budget(args) -> int:
    """--budget, or the default; 0 allows no expansion (closure routes only)."""
    from .core import InvalidParams
    from .hamilton import DEFAULT_BUDGET
    if args.budget is not None and args.budget < 0:
        raise InvalidParams(f"need --budget >= 0, got --budget {args.budget}")
    return DEFAULT_BUDGET if args.budget is None else args.budget


def _cmd_verify(args) -> int:
    _must_exist(args.coloring)
    err, cert = check_certificate(args.certificate, args.coloring)
    if err is None:
        print(f"valid: color {cert['color']}, {len(cert['core'])} core vertices, "
              f"t={cert['t']}")
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


def _not_found(status: str) -> int:
    if status == "nonexistent":
        print("nonexistent: exhaustive search found no cycle of any color")
        return 1
    print("unresolved: search gave up within budget")
    return 2


def _cmd_extract(args) -> int:
    from .core import ContractBreach
    from .harness import find_certificate
    h = _load_coloring(args.coloring)
    cert_path = args.output or _default_out(args.coloring, ".cert.json")
    trace_path = args.trace or _default_out(args.coloring, ".trace.json")
    try:
        res = find_certificate(h, budget=_budget(args))
    except ContractBreach as exc:
        _write_json(trace_path, exc.trace.to_json_dict(), "trace")
        raise
    _write_json(trace_path, res.trace.to_json_dict(), "trace")
    if res.status != "found":
        return _not_found(res.status)
    _write_json(cert_path, res.certificate.to_json_dict(), "certificate")
    print(f"found: color {res.certificate.color} via {res.trace.branch}")
    return 0


def _cmd_search(args) -> int:
    from .harness import find_certificate
    h = _load_coloring(args.coloring)
    status, cert = find_certificate(h, budget=_budget(args),
                                    use_oracle=not args.no_oracle)
    if status != "found":
        return _not_found(status)
    _write_json(args.output, cert.to_json_dict(), "certificate")
    return 0


def _cmd_shadow_dump(args) -> int:
    from .shadow import build_shadow, dump_shadow
    h = _load_coloring(args.coloring)
    s = build_shadow(h, h.params.t if args.t is None else args.t)
    if args.output:
        with open(args.output, "w") as fh:
            dump_shadow(h, s, fh)
        print(f"shadow: {args.output}")
    else:
        dump_shadow(h, s, sys.stdout)
    return 0


def _cmd_stress(args) -> int:
    from .core import Params
    from .harness import stress_theorem
    params = Params(n=args.n, r=args.r, c=args.c,
                    t=2 if args.t is None else args.t)
    if args.reproducer_dir is not None and not os.path.isdir(args.reproducer_dir):
        # checked up front: a write into it fails only after every trial ran
        raise NotADirectoryError(
            f"--reproducer-dir {args.reproducer_dir} is not a directory")
    rep = stress_theorem(params, generator=args.generator,
                         trials=args.trials, seed=args.seed,
                         budget=_budget(args), jobs=args.jobs,
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

    def add_budget(sp):
        sp.add_argument("--budget", type=int, default=None,
                        help="search expansion budget")

    v = sub.add_parser("verify", help="check a certificate against a coloring")
    v.add_argument("certificate")
    v.add_argument("coloring")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("extract",
                       help="find a cycle and write certificate + trace")
    e.add_argument("coloring")
    e.add_argument("-o", "--output", default=None,
                   help="certificate path (default: <coloring>.cert.json)")
    e.add_argument("--trace", default=None,
                   help="trace path (default: <coloring>.trace.json)")
    add_budget(e)
    e.set_defaults(func=_cmd_extract)

    s = sub.add_parser("search", help="find a cycle, print the certificate")
    s.add_argument("coloring")
    s.add_argument("-o", "--output", default=None,
                   help="certificate path (default: stdout)")
    s.add_argument("--no-oracle", action="store_true",
                   help="skip the exhaustive fallback on tiny instances")
    add_budget(s)
    s.set_defaults(func=_cmd_search)

    d = sub.add_parser("shadow-dump", help="dump the t-set color counts")
    d.add_argument("coloring")
    d.add_argument("-o", "--output", default=None)
    d.add_argument("--t", type=int, default=None,
                   help="tightness of the dump (default: the file's t)")
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
    add_budget(st)
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
    except (ColoringFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        # only a command that imported core can raise its errors; verify never does
        from .core import ContractBreach, InvalidParams
        if isinstance(exc, InvalidParams):
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        if not isinstance(exc, ContractBreach):
            raise
        print(f"contract breach: {exc}")
        return CONTRACT_BREACH


if __name__ == "__main__":
    sys.exit(main())
