"""Stress-testing harness: coloring generators, a brute-force existence
oracle for tiny instances, and seeded Monte-Carlo trials.

The oracle walks every core sequence (`hamilton.TightCoreWalk` with no
budget), lifts each through `extract.lift_to_berge`, and is the ground
truth the search pipeline is compared against.  `structured_colorings`
produces adversarial families: vertex-partition and majority rules,
near-mono colorings with a single off-color edge, pair-locked colorings
where one pair sees only one color, and engineered pivot-profile colorings
that steer the K_n^4 construction into a chosen branch.  Trials are
deterministic per (master seed, trial index) and parallelize across
colorings only.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    BergeCertificate,
    ColoredHypergraph,
    ContractBreach,
    InvalidParams,
    Params,
    TightCycleWitness,
    edge_table,
    edges_through,
    random_coloring,
    rank_subset,
    write_coloring,
)
from .extract import MatchingIncomplete, lift_to_berge
from .hamilton import DEFAULT_BUDGET, TightCoreWalk
from .r4 import (
    MIN_N,
    ConstructionTrace,
    SearchResult,
    Unresolved,
    _pair_rank_matrix,
    r4_find,
    shadow_guided_cert,
)
from .shadow import MAX_COLORS, _at_least, build_shadow

ORACLE_MAX_N = 10


class InstanceTooLarge(RuntimeError):
    """Brute-force enumeration is only feasible for n <= 10."""


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_exists(h: ColoredHypergraph,
                       colors=None) -> BergeCertificate | None:
    """Exhaustive existence check; None means proven-nonexistent.

    For each color (of `colors`, ascending; default all), a `TightCoreWalk`
    lists the core sequences (v_1 = 0, orientation fixed by v_2 < v_n)
    whose every window lies in an edge of the color; a core counts only if
    `lift_to_berge` backs every window with a distinct edge of the color,
    and the certificate returned is the one it built and verified.  The
    walk has no budget, so None is a proof over every (color, core
    sequence) walked, not a search failure.
    """
    p = h.params
    if p.n > ORACLE_MAX_N:
        raise InstanceTooLarge(
            f"brute force needs n <= {ORACLE_MAX_N}, got n={p.n}")
    n, t = p.n, p.t
    if n < 3:
        return None
    in_edge = _at_least(h, t, 1)
    for color in sorted(range(1, p.c + 1) if colors is None else colors):
        if np.count_nonzero(h.colors == color) < n:
            continue                      # fewer edges than cycle positions
        for core in TightCoreWalk(n, t, in_edge[:, color - 1]):
            try:
                return lift_to_berge(TightCycleWitness(color, core, t), h)
            except MatchingIncomplete:
                continue
    return None


# ---------------------------------------------------------------------------
# the one search entry point: the K_n^4 construction where it applies,
# otherwise shadow-guided search, then brute force on small instances


def find_certificate(h: ColoredHypergraph, budget: int = DEFAULT_BUDGET,
                     use_oracle: bool = True) -> SearchResult:
    """Status found/unresolved/nonexistent, certificate and trace.

    3-colorings of K_n^4 at t=2 with n >= MIN_N go to `r4_find` alone.  Every
    route returns the certificate `extract.lift_to_berge` built and verified.
    A ContractBreach from either route propagates with the trace so far
    (`exc.trace`).  "nonexistent" only ever comes from the exhaustive
    oracle; heuristic failure is always "unresolved".

    At t = r a window is good in a color when one edge of that color
    contains it, which is the oracle's own window test, so a color whose
    good-graph search ended "none" has no core: the oracle walks only the
    colors whose search found a core that failed to lift, or ran out of
    budget.  It walks each of them in full, so "nonexistent" stays a proof.
    A negative budget raises InvalidParams; budget 0 allows no expansion.
    """
    p = h.params
    if budget < 0:
        raise InvalidParams(f"need budget >= 0, got budget={budget}")
    if (p.r, p.c, p.t) == (4, 3, 2) and p.n >= MIN_N:
        try:
            return r4_find(h, budget)
        except Unresolved as exc:
            return SearchResult("unresolved", None, exc.trace)
    trace = ConstructionTrace(branch="generic-search")
    try:
        cert = shadow_guided_cert(h, build_shadow(h, p.t), range(1, p.c + 1),
                                  budget, trace.fallbacks)
        if cert is not None:
            return SearchResult("found", cert, trace)
        if use_oracle and p.n <= ORACLE_MAX_N:
            trace.branch = "oracle"
            empty = {f["color"] for f in trace.fallbacks
                     if p.t == p.r and f["stage"] == "good-graph"
                     and f["status"] == "none"}
            cert = brute_force_exists(h, set(range(1, p.c + 1)) - empty)
            return SearchResult("found" if cert else "nonexistent", cert, trace)
    except ContractBreach as exc:
        exc.trace = trace
        raise
    return SearchResult("unresolved", None, trace)


# ---------------------------------------------------------------------------
# Monte-Carlo trials


@dataclass(frozen=True)
class TrialReport:
    params: Params
    generator: str
    seed: int
    trials: int
    successes: int
    unresolved: int
    counterexamples: int
    counterexample_files: tuple[str, ...]
    distinct_colorings: int              # a finite generator repeats itself
    wall_time: float

    def __post_init__(self):
        if self.successes + self.unresolved + self.counterexamples != self.trials:
            raise ValueError("trial counts do not add up")
        if len(self.counterexample_files) != self.counterexamples:
            raise ValueError("every counterexample needs a reproducer file")
        if not min(self.trials, 1) <= self.distinct_colorings <= self.trials:
            raise ValueError("distinct colorings must be 1..trials")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "counterexample_files": list(self.counterexample_files)}

    def summary(self) -> str:
        p = self.params
        return (f"{self.generator} n={p.n} r={p.r} t={p.t} c={p.c}: "
                f"{self.successes}/{self.trials} found "
                f"({self.distinct_colorings} distinct), "
                f"{self.unresolved} unresolved, "
                f"{self.counterexamples} counterexamples "
                f"[{self.wall_time:.1f}s]")


def _trial_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence(master,
                                      spawn_key=(index,)).generate_state(1)[0])


def _coloring_for_trial(params: Params, generator: str, master: int,
                        index: int) -> ColoredHypergraph:
    if generator == "random":
        return random_coloring(params, seed=_trial_seed(master, index))
    size, make = _family(generator, asdict(params))
    return make(index if size is None else index % size)


def _run_trial(args) -> tuple[str, str | None, str]:
    """(outcome, counterexample path or None, digest of the trial's colors)."""
    import hashlib                       # loads OpenSSL: kept out of the package import
    params, generator, master, index, budget, outdir = args
    h = _coloring_for_trial(params, generator, master, index)
    digest = hashlib.sha256(h.colors.tobytes()).hexdigest()
    name = (f"{generator}-n{params.n}-r{params.r}-t{params.t}-c{params.c}"
            f"-{master}-{index}.coloring")
    try:
        status, cert = find_certificate(h, budget=budget)
    except ContractBreach as exc:
        path = os.path.join(outdir, f"breach-{name}")
        write_coloring(h, path)
        with open(path + ".trace.json", "w") as fh:
            json.dump(exc.trace.to_json_dict(), fh, indent=2)
        raise
    if status == "found":
        return "success", None, digest
    if status == "nonexistent":
        path = os.path.join(outdir, f"counterexample-{name}")
        write_coloring(h, path)
        return "counterexample", path, digest
    return "unresolved", None, digest


def stress_theorem(params: Params, generator: str = "random",
                   trials: int = 100, seed: int = 0,
                   budget: int = DEFAULT_BUDGET, jobs: int = 1,
                   reproducer_dir: str | None = None) -> TrialReport:
    """Seeded trials of the existence statements; see TrialReport.

    Each trial's coloring depends only on (params, generator, seed, index),
    so reports are reproducible and jobs only changes the wall time.
    Counterexamples go to reproducer_dir (default: the temp dir); a trial
    that raises a ContractBreach leaves breach-*.coloring and its trace there.
    A negative trials or budget, jobs below 1, more colors than the shadow
    holds (c > shadow.MAX_COLORS), or a generator that is unknown or whose
    family rejects params raises InvalidParams before any coloring is made
    or any pool starts, at trials = 0 too.
    File names carry the generator, n, r, t, c, seed and trial index, so the
    files of a sweep over n do not overwrite each other.
    """
    if trials < 0:
        raise InvalidParams(f"need trials >= 0, got trials={trials}")
    if jobs < 1:
        raise InvalidParams(f"need jobs >= 1, got jobs={jobs}")
    if budget < 0:
        raise InvalidParams(f"need budget >= 0, got budget={budget}")
    if params.c > MAX_COLORS:       # every trial's shadow would raise it
        raise InvalidParams(
            f"the shadow holds c <= {MAX_COLORS} colors, got c={params.c}")
    if generator != "random":
        _family(generator, asdict(params))
    t0 = time.monotonic()
    outdir = reproducer_dir or tempfile.gettempdir()
    work = [(params, generator, seed, i, budget, outdir)
            for i in range(trials)]
    if jobs > 1:
        import multiprocessing          # here: only a pool needs it, not each CLI start
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_run_trial, work)
    else:
        results = [_run_trial(w) for w in work]
    files = tuple(path for kind, path, _ in results
                  if kind == "counterexample")
    return TrialReport(
        params=params, generator=generator, seed=seed, trials=trials,
        successes=sum(kind == "success" for kind, _, _ in results),
        unresolved=sum(kind == "unresolved" for kind, _, _ in results),
        counterexamples=len(files), counterexample_files=files,
        distinct_colorings=len({digest for _, _, digest in results}),
        wall_time=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# structured generators


def structured_colorings(kind: str, params: dict):
    """Deterministic streams of adversarial colorings.

    Kinds: "partition" (color = part of the edge's maximum vertex),
    "majority" (most common part among the edge's vertices), "near-mono"
    (one off-color edge, streaming over its position), "pair-lock" (every
    edge through one pair gets a single color), and "u-profile"
    (engineered pivot profiles for the K_n^4 construction; 4-uniform,
    3 colors only).  "partition" and "majority" yield one coloring and
    "near-mono" one per edge (one, the monochromatic coloring, at c = 1);
    the others never end.
    """
    size, make = _family(kind, params)
    return map(make, itertools.count() if size is None else range(size))


def _family(kind: str, params: dict):
    """(number of colorings, or None if endless; index -> coloring).

    Any coloring of a stream is made from its index alone, so a stress trial
    never replays the stream before it.
    """
    families = {"partition": _partition_family,
                "majority": _majority_family,
                "near-mono": _near_mono_family,
                "pair-lock": _pair_lock_family,
                "u-profile": _u_profile_family}
    if kind not in families:
        raise InvalidParams(f"unknown generator kind: {kind!r}")
    return families[kind](params)


def _base_params(params: dict) -> Params:
    return Params(n=params["n"], r=params["r"], t=params.get("t", 2),
                  c=params["c"])


def _hash_mix(tab: np.ndarray, offset: int) -> np.ndarray:
    """Weighted vertex sum of each row, one column at a time (no int64 copy
    of the whole table), plus a scramble of it by the offset.

    The scramble is the high 32 bits of sum * offset * 0x9E3779B97F4A7C15
    mod 2^64.  An offset added as is would make a stream repeat every c
    colorings once the mix is taken mod c; the high bits do not repeat
    with the offset mod c.  Offset 0 adds nothing, so the first coloring
    of every stream is the plain sum's.
    """
    mix = np.zeros(len(tab), dtype=np.int64)
    for col, w in zip(tab.T, (3, 5, 7, 11, 13, 17, 19, 23, 29)):
        mix += col.astype(np.int64) * w
    if not offset:
        return mix
    scramble = mix.view(np.uint64) * np.uint64(offset * 0x9E3779B97F4A7C15 % 2**64)
    scramble >>= np.uint64(32)
    mix += scramble.view(np.int64)
    return mix


def _hash_colors(tab: np.ndarray, c: int, offset: int) -> np.ndarray:
    return (1 + _hash_mix(tab, offset) % c).astype(np.uint8)


def _parts(params: dict, p: Params) -> int:
    parts = params.get("parts", p.c)
    if not 1 <= parts <= p.c:
        raise InvalidParams(f"need 1 <= parts <= c, got parts={parts}")
    return parts


def _partition_family(params: dict):
    p = _base_params(params)
    parts = _parts(params, p)

    def make(_):
        tab = edge_table(p.n, p.r)
        return ColoredHypergraph(
            p, (tab[:, -1].astype(np.int64) * parts // p.n + 1).astype(np.uint8))
    return 1, make


def _majority_family(params: dict):
    p = _base_params(params)
    parts = _parts(params, p)

    def make(_):
        label = edge_table(p.n, p.r).astype(np.int64) * parts // p.n
        counts = np.stack([(label == k).sum(axis=1) for k in range(parts)],
                          axis=1)
        return ColoredHypergraph(
            p, (np.argmax(counts, axis=1) + 1).astype(np.uint8))
    return 1, make


def _near_mono_family(params: dict):
    p = _base_params(params)
    base = params.get("base", 1)
    if p.c == 1 and base == 1 and "off" not in params:
        # no second color for the off edge: the one member is monochromatic
        return 1, lambda _: ColoredHypergraph(
            p, np.ones(p.num_edges, dtype=np.uint8))
    off = params.get("off", 2 if base != 2 else 1)
    if not (1 <= base <= p.c and 1 <= off <= p.c) or base == off:
        raise InvalidParams(f"bad base/off pair ({base}, {off}) for c={p.c}")

    def make(k):
        colors = np.full(p.num_edges, base, dtype=np.uint8)
        colors[k] = off
        return ColoredHypergraph(p, colors)
    return p.num_edges, make


def _pair_lock_family(params: dict):
    p = _base_params(params)
    a, b = params.get("pair", (0, 1))
    lock = params.get("lock", 2)
    if not (0 <= a < b < p.n and 1 <= lock <= p.c):
        raise InvalidParams(f"bad pair-lock parameters ({a}, {b}, {lock})")

    def make(offset):
        colors = _hash_colors(edge_table(p.n, p.r), p.c, offset)
        colors[edges_through(p.n, p.r, [(a, b)])[0]] = lock
        return ColoredHypergraph(p, colors)
    return None, make


# pivot-profile engineering: vertex classes around the designated pivot 0
_W, _T, _Y, _Z = 0, 1, 2, 3


def _u_profile_family(params: dict):
    """Colorings of K_n^4 (3 colors) whose pivot 0 has a chosen profile.

    k23/k12/k13 set the mixed-class sizes at vertex 0; every other vertex
    sees all three colors on all its pairs.  Optional degree engineering:
    deg_u23 fixes how many {0, t, y, z'} edges are color 1, and deg_w /
    deg_w2 cap the color-1 edges of the {0, y, z', w} family at the one or
    two lowest designated-class vertices, which steers the construction's
    repair sub-cases.  Every coloring made is re-verified against the
    recomputed shadow before it leaves the generator.
    """
    n = params["n"]
    try:
        k23, k12, k13 = params["k23"], params["k12"], params["k13"]
    except KeyError as exc:
        raise InvalidParams(f"u-profile needs class sizes k23/k12/k13 "
                            f"(missing {exc})") from exc
    deg_u23 = params.get("deg_u23")
    deg_w = params.get("deg_w")
    deg_w2 = params.get("deg_w2")
    if n < 30:
        raise InvalidParams("profile engineering needs n >= 30")
    if k23 < 0 or k12 < 1 or k13 < 1:
        raise InvalidParams("need k23 >= 0, k12 >= 1, k13 >= 1")
    if k23 * k12 > 2:
        raise InvalidParams(
            "pair color budgets cannot absorb k23*k12 > 2 three-class edges")
    k123 = n - 1 - k23 - k12 - k13
    if k123 < 4:
        raise InvalidParams("need at least 4 all-good vertices at the pivot")
    if 2 * k123 >= n:
        raise InvalidParams("pivot profile collides with the half-cover rule")
    for who, val in (("deg_u23", deg_u23), ("deg_w", deg_w),
                     ("deg_w2", deg_w2)):
        if val is not None and not 0 <= val <= 2:
            raise InvalidParams(f"{who} must be 0..2, got {val}")
    if deg_u23 is not None and (k23 != 1 or k12 != 1):
        raise InvalidParams("deg_u23 engineering needs k23 = k12 = 1")
    if (deg_w is not None or deg_w2 is not None) and k12 != 1:
        raise InvalidParams("deg_w engineering needs k12 = 1")
    if deg_w2 is not None and k23 != 0:
        raise InvalidParams("two engineered vertices need k23 = 0")
    if deg_w2 is not None and deg_w is None:
        raise InvalidParams("deg_w2 without deg_w")

    t_set = list(range(1, 1 + k23))
    y_set = list(range(1 + k23, 1 + k23 + k12))
    z_set = list(range(1 + k23 + k12, 1 + k23 + k12 + k13))
    w_lo = 1 + k23 + k12 + k13
    specials1: set[int] = set()
    if deg_u23 is not None:
        specials1 = set(z_set[:deg_u23])
    blocks: dict[int, set[int]] = {}
    if deg_w is not None:
        blocks[w_lo] = set(z_set[:len(z_set) - deg_w])
    if deg_w2 is not None:
        blocks[w_lo + 1] = set(z_set[:len(z_set) - deg_w2])

    p = Params(n=n, r=4, t=2, c=3)

    def make(offset):
        h = ColoredHypergraph(p, _u_profile_colors(
            n, t_set, y_set, z_set, specials1, blocks, offset))
        _check_u_profile(h, t_set, y_set, z_set, specials1, blocks)
        return h
    return None, make


def _u_profile_colors(n, t_set, y_set, z_set, specials1, blocks, offset):
    tab = edge_table(n, 4)
    colors = _hash_colors(tab, 3, offset)
    m = edges_through(n, 4, [(0,)])[0]          # the edges at the pivot
    piv = tab[m].astype(np.int64)
    b, c_, d = piv[:, 1], piv[:, 2], piv[:, 3]
    cls = np.full(n, _W, dtype=np.int8)
    cls[t_set] = _T
    cls[y_set] = _Y
    cls[z_set] = _Z
    cb, cc, cd = cls[b], cls[c_], cls[d]
    hasT = (cb == _T) | (cc == _T) | (cd == _T)
    hasY = (cb == _Y) | (cc == _Y) | (cd == _Y)
    hasZ = (cb == _Z) | (cc == _Z) | (cd == _Z)
    mixx = _hash_mix(piv, offset)
    h23 = (2 + mixx % 2).astype(np.uint8)
    h12 = (1 + mixx % 2).astype(np.uint8)
    h13 = np.where(mixx % 2 == 0, 1, 3).astype(np.uint8)
    h123 = (1 + mixx % 3).astype(np.uint8)
    # the fixed rules keep every pair at the pivot inside its color budget:
    # edges seen by a T vertex avoid 1, by a Y vertex avoid 3, by a Z
    # vertex avoid 2; three-class edges cannot satisfy all and default to
    # 2, spending one of the two color-2 slots of their Z vertex
    sub = np.select(
        [hasT & hasY & hasZ,
         hasT & hasY,
         hasT & hasZ,
         hasY & hasZ,
         hasT,
         hasY,
         hasZ],
        [np.full(mixx.shape, 2, dtype=np.uint8),
         np.full(mixx.shape, 2, dtype=np.uint8),
         np.full(mixx.shape, 3, dtype=np.uint8),
         np.full(mixx.shape, 1, dtype=np.uint8),
         h23, h12, h13],
        default=h123)
    zmem = (b * (cb == _Z) + c_ * (cc == _Z) + d * (cd == _Z))
    if specials1:
        spec = hasT & hasY & hasZ & np.isin(zmem, sorted(specials1))
        sub = np.where(spec, np.uint8(1), sub)
    if blocks:
        wmem = (b * (cb == _W) + c_ * (cc == _W) + d * (cd == _W))
        onew = ((cb == _W).astype(np.int8) + (cc == _W) + (cd == _W))
        yzw = hasY & hasZ & ~hasT & (onew == 1)
        for w_id, zblock in sorted(blocks.items()):
            bm = yzw & (wmem == w_id) & np.isin(zmem, sorted(zblock))
            sub = np.where(bm, np.uint8(2), sub)
    colors[m] = sub
    return colors


def _check_u_profile(h, t_set, y_set, z_set, specials1, blocks):
    """Recompute the shadow and fail loudly if the engineering missed."""
    n = h.params.n
    s = build_shadow(h, 2)
    gm = s.goodmask
    pr = _pair_rank_matrix(n)
    want = {v: 0b110 for v in t_set}
    want.update({v: 0b011 for v in y_set})
    want.update({v: 0b101 for v in z_set})
    for v in range(1, n):
        got = int(gm[pr[0, v]])
        if got != want.get(v, 0b111):
            raise RuntimeError(
                f"pivot pair (0,{v}) has goodmask {got:03b}, "
                f"wanted {want.get(v, 0b111):03b}")
        others = np.concatenate([np.arange(1, v), np.arange(v + 1, n)])
        if not np.all(gm[pr[v, others]] == 0b111):
            raise RuntimeError(f"vertex {v} is not fully covered")
    if not _at_least(h, 1, 2).all():
        raise RuntimeError("engineering left a sparse vertex behind")
    if t_set and y_set:
        t0, y0 = t_set[0], y_set[0]
        got1 = {z for z in z_set
                if int(h.colors[rank_subset((0, t0, y0, z))]) == 1}
        if got1 != specials1:
            raise RuntimeError(
                f"three-class color-1 set is {sorted(got1)}, "
                f"wanted {sorted(specials1)}")
    for w_id, zblock in blocks.items():
        y0 = y_set[0]
        left = {z for z in z_set
                if int(h.colors[rank_subset(tuple(sorted((0, y0, z, w_id))))]) == 1}
        if left != set(z_set) - zblock:
            raise RuntimeError(
                f"blocking at {w_id} left color-1 set {sorted(left)}")


from . import _export  # noqa: E402  (last: the package binds this module's public names)

_export("harness", globals())
