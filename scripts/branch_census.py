"""Drive every construction branch once and print the trace vocabulary.

Runs the fixture colorings that steer the n >= 85 pipeline down each of its
branches and sub-cases, printing one line per run.  Handy as a smoke test
after touching the construction and as a catalog of what traces look like.
Each line also says whether the shadow route alone (the good-pair graphs
of colors 1, 2, 3 in turn, lifted through the shadow) finds a certificate,
and in which color: `shadow=-` when none of the three does.

    python3 scripts/branch_census.py
    python3 scripts/branch_census.py --json traces.jsonl
"""

import argparse
import json
import os
import sys
import time

from bergecycles import (
    Params,
    r4_find,
    random_coloring,
    structured_colorings,
    verify_berge_certificate,
)
from bergecycles.hamilton import DEFAULT_BUDGET
from bergecycles.r4 import shadow_guided_cert
from bergecycles.shadow import build_shadow

N = 85


def fixtures():
    """(label, make) pairs; make() builds the coloring on demand."""
    def structured(kind, **params):
        return lambda: next(structured_colorings(kind, {"n": N, **params}))

    yield "random seed=1", lambda: random_coloring(Params(n=N, r=4, t=2, c=3),
                                                   seed=1)
    yield "pair-lock (0,1)->2", structured("pair-lock", r=4, c=3,
                                           pair=(0, 1), lock=2)
    for base in (2, 3):
        yield f"near-mono base={base}", structured("near-mono", r=4, c=3,
                                                   base=base, off=1)
    for deg in (0, 1):
        yield f"u-profile split deg={deg}", structured(
            "u-profile", k23=0, k12=1, k13=42, deg_w=deg, deg_w2=deg)
    for deg_w in (0, 1, 2):
        for deg_u23 in (0, 1, 2):
            yield (f"u-profile repair deg_w={deg_w} deg_u23={deg_u23}",
                   structured("u-profile", k23=1, k12=1, k13=41,
                              deg_w=deg_w, deg_u23=deg_u23))
    yield "u-profile window", structured("u-profile", k23=1, k12=1, k13=40)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", metavar="PATH",
                    help="also append one trace JSON object per line")
    args = ap.parse_args(argv)

    seen = set()
    with open(args.json or os.devnull, "w") as sink:
        for label, make in fixtures():
            h = make()
            t0 = time.monotonic()
            res = r4_find(h)
            dt = time.monotonic() - t0
            # not an assert: the census must check certificates under -O too
            problem = verify_berge_certificate(res.certificate, h)
            if problem is not None:
                print(f"{label}: certificate invalid: {problem}", file=sys.stderr)
                return 1
            tr = res.trace
            sub = {k: v for k, v in tr.subcase.items()
                   if k in ("case", "variant", "r", "l", "pair")}
            seen.add(tr.branch)
            alone = shadow_guided_cert(h, build_shadow(h, 2), (1, 2, 3),
                                       DEFAULT_BUDGET, [])
            print(f"{label:<36} {tr.branch:<22} {json.dumps(sub):<34} "
                  f"color={res.certificate.color} {dt:5.2f}s "
                  f"shadow={alone.color if alone else '-'}")
            sink.write(json.dumps(tr.to_json_dict()) + "\n")
    missing = {"B-cover", "single-good-fallback", "lemma-3.1",
               "case-1", "case-2"} - seen
    if missing:
        print(f"branches never taken: {sorted(missing)}", file=sys.stderr)
        return 1
    print(f"\nall {len(seen)} branches taken")
    return 0


if __name__ == "__main__":
    sys.exit(main())
