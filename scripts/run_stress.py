"""Sweep the stress harness across n and report resolution rates.

Walks n upward for fixed (r, t, c) so you can watch the search settle as the
instances grow past the small-n regime, e.g.:

    python3 scripts/run_stress.py --r 4 --t 2 --c 2 --n-from 6 --n-to 12
    python3 scripts/run_stress.py --r 5 --t 3 --c 1 --trials 50 --jobs 4

Exits 1 on a verified counterexample and 3, with a one-line error, on
parameters or a generator outside the supported domain.
"""

import argparse
import json
import sys

from bergecycles import InvalidParams, Params, stress_theorem


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r", type=int, default=4)
    ap.add_argument("--t", type=int, default=2)
    ap.add_argument("--c", type=int, default=2)
    ap.add_argument("--n-from", type=int, default=None,
                    help="default: smallest n with enough edges for a cycle")
    ap.add_argument("--n-to", type=int, default=12)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--generator", default="random")
    ap.add_argument("--json", action="store_true",
                    help="emit one TrialReport JSON object per line")
    args = ap.parse_args(argv)

    n_from = args.n_from if args.n_from is not None else args.r + 2
    if not args.json:
        print(f"{'n':>4} {'found':>7} {'unresolved':>11} "
              f"{'counterexamples':>16} {'distinct':>9} {'wall':>8}")
    for n in range(n_from, args.n_to + 1):
        try:
            p = Params(n=n, r=args.r, t=args.t, c=args.c)
            rep = stress_theorem(p, generator=args.generator,
                                 trials=args.trials, seed=args.seed,
                                 jobs=args.jobs)
        except InvalidParams as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        if args.json:
            print(json.dumps(rep.to_json_dict()))
        else:
            print(f"{n:>4} {rep.successes:>7} {rep.unresolved:>11} "
                  f"{rep.counterexamples:>16} {rep.distinct_colorings:>9} "
                  f"{rep.wall_time:>7.1f}s")
        if rep.counterexamples:
            print(f"verified counterexample at n={n}; reproducers written",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
