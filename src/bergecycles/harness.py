"""Stress-testing harness: coloring generators, a brute-force existence
oracle for tiny instances, and seeded Monte-Carlo trials.

The oracle enumerates core sequences outright and is the ground truth the
search pipeline is compared against.  `structured_colorings` produces
adversarial families: vertex-partition and majority rules, near-mono
colorings with a single off-color edge, pair-locked colorings where one
pair sees only one color, and engineered pivot-profile colorings that
steer the K_n^4 construction into a chosen branch.  Trials are
deterministic per (master seed, trial index) and parallelize across
colorings only.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    BergeCertificate,
    ColoredHypergraph,
    InternalError,
    InvalidParams,
    Params,
    edge_table,
    random_coloring,
    rank_subset,
    verify_berge_certificate,
    write_coloring,
)
from .extract import (
    MatchingIncomplete,
    PositionEdgeBipartite,
    extend_tight_cycle,
    max_bipartite_matching,
)
from .hamilton import DEFAULT_BUDGET, find_mono_ham_tight_cycle
from .r4 import Unresolved, _incidence_counts, _pair_rank_matrix, r4_find
from .shadow import build_shadow

ORACLE_MAX_N = 10


class InstanceTooLarge(RuntimeError):
    """Brute-force enumeration is only feasible for n <= 10."""


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_exists(h: ColoredHypergraph, t: int | None = None) -> BergeCertificate | None:
    """Exhaustive existence check; None means proven-nonexistent.

    Core sequences are enumerated with v_1 = 0 and orientation fixed by
    v_2 < v_n; a sequence counts only if a perfect matching assigns every
    window a distinct edge of the color.  The verdict is exhaustive over
    (color, core sequence), so None is a proof, not a search failure.
    """
    p = h.params
    t = p.t if t is None else t
    if p.n > ORACLE_MAX_N:
        raise InstanceTooLarge(
            f"brute force needs n <= {ORACLE_MAX_N}, got n={p.n}")
    n, r = p.n, p.r
    if n < 3 or t < 1 or t > r:
        return None
    tab = edge_table(n, r)
    for color in range(1, p.c + 1):
        idx = np.flatnonzero(h.colors == color)
        if idx.size < n:
            continue                      # fewer edges than cycle positions
        pools: dict[frozenset, list[int]] = {}
        for e in idx:
            verts = tuple(int(v) for v in tab[e])
            for sub in itertools.combinations(verts, t):
                pools.setdefault(frozenset(sub), []).append(int(e))
        cert = _oracle_color_search(n, tab, color, pools, t)
        if cert is not None:
            err = verify_berge_certificate(cert, h, t=t)
            if err is not None:
                raise InternalError(f"oracle produced a bad certificate: {err}")
            return cert
    return None


def _oracle_color_search(n, tab, color, pools, t):
    seq = [0]
    used = [False] * n
    used[0] = True

    def dfs():
        if len(seq) == n:
            if seq[1] > seq[-1]:          # reflection canonicalization
                return None
            ws = [frozenset(seq[(i + j) % n] for j in range(t))
                  for i in range(n)]
            if any(w not in pools for w in ws):
                return None
            match = max_bipartite_matching(
                PositionEdgeBipartite(n, [pools[w] for w in ws]))
            if (match < 0).any():
                return None
            edges = tuple(tuple(int(v) for v in tab[e]) for e in match)
            return BergeCertificate(color=color, core=tuple(seq),
                                    edges=edges, t=t)
        for v in range(1, n):
            if used[v]:
                continue
            seq.append(v)
            used[v] = True
            ok = len(seq) < t or frozenset(seq[-t:]) in pools
            got = dfs() if ok else None
            seq.pop()
            used[v] = False
            if got is not None:
                return got
        return None

    return dfs()


# ---------------------------------------------------------------------------
# the general pipeline (shadow-guided search, then the K_n^4 construction,
# then brute force when the instance is small enough)


def find_certificate(h: ColoredHypergraph, budget: int = DEFAULT_BUDGET,
                     use_oracle: bool = True) -> tuple[str, BergeCertificate | None]:
    """(status, certificate) with status in found/unresolved/nonexistent.

    "nonexistent" only ever comes from the exhaustive oracle; heuristic
    failure is always "unresolved".
    """
    p = h.params
    s = build_shadow(h, p.t)
    for color in range(1, p.c + 1):
        res = find_mono_ham_tight_cycle(s, p.t, color, budget)
        if res.status != "found":
            continue
        try:
            return "found", extend_tight_cycle(res.witness, h, s)
        except MatchingIncomplete:
            continue
    if p.r == 4 and p.c == 3 and p.t == 2 and p.n >= 85:
        try:
            return "found", r4_find(h, budget).certificate
        except Unresolved:
            pass
    if use_oracle and p.n <= ORACLE_MAX_N:
        cert = brute_force_exists(h)
        return ("found", cert) if cert is not None else ("nonexistent", None)
    return "unresolved", None


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
    wall_time: float

    def __post_init__(self):
        if self.successes + self.unresolved + self.counterexamples != self.trials:
            raise ValueError("trial counts do not add up")
        if len(self.counterexample_files) != self.counterexamples:
            raise ValueError("every counterexample needs a reproducer file")

    def to_json_dict(self) -> dict:
        p = self.params
        return {
            "params": {"n": p.n, "r": p.r, "t": p.t, "c": p.c},
            "generator": self.generator,
            "seed": self.seed,
            "trials": self.trials,
            "successes": self.successes,
            "unresolved": self.unresolved,
            "counterexamples": self.counterexamples,
            "counterexample_files": list(self.counterexample_files),
            "wall_time": self.wall_time,
        }

    def summary(self) -> str:
        p = self.params
        return (f"{self.generator} n={p.n} r={p.r} t={p.t} c={p.c}: "
                f"{self.successes}/{self.trials} found, "
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
    gp = {"n": params.n, "r": params.r, "c": params.c}
    stream = structured_colorings(generator, gp)
    got = next(itertools.islice(stream, index, None), None)
    if got is None:                      # finite stream: cycle through it
        items = list(structured_colorings(generator, gp))
        got = items[index % len(items)]
    return got


def _run_trial(args) -> tuple[str, str | None]:
    params, generator, master, index, budget, outdir = args
    h = _coloring_for_trial(params, generator, master, index)
    status, cert = find_certificate(h, budget=budget)
    if status == "found":
        err = verify_berge_certificate(cert, h)
        if err is not None:
            raise RuntimeError(f"trial {index}: bad certificate: {err}")
        return "success", None
    if status == "nonexistent":
        path = os.path.join(
            outdir, f"counterexample-{generator}-{master}-{index}.coloring")
        write_coloring(h, path)
        return "counterexample", path
    return "unresolved", None


def stress_theorem(params: Params, generator: str = "random",
                   trials: int = 100, seed: int = 0,
                   budget: int = DEFAULT_BUDGET, jobs: int = 1,
                   reproducer_dir: str | None = None) -> TrialReport:
    """Seeded trials of the existence statements; see TrialReport.

    Each trial's coloring depends only on (params, generator, seed, index),
    so reports are reproducible and jobs only changes the wall time.
    """
    t0 = time.monotonic()
    outdir = reproducer_dir or tempfile.gettempdir()
    work = [(params, generator, seed, i, budget, outdir)
            for i in range(trials)]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_run_trial, work)
    else:
        results = [_run_trial(w) for w in work]
    files = tuple(path for kind, path in results if kind == "counterexample")
    return TrialReport(
        params=params, generator=generator, seed=seed, trials=trials,
        successes=sum(kind == "success" for kind, _ in results),
        unresolved=sum(kind == "unresolved" for kind, _ in results),
        counterexamples=len(files), counterexample_files=files,
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
    3 colors only).
    """
    if kind == "partition":
        return _partition_stream(params)
    if kind == "majority":
        return _majority_stream(params)
    if kind == "near-mono":
        return _near_mono_stream(params)
    if kind == "pair-lock":
        return _pair_lock_stream(params)
    if kind == "u-profile":
        return _u_profile_stream(params)
    raise InvalidParams(f"unknown generator kind: {kind!r}")


def _base_params(params: dict) -> Params:
    return Params(n=params["n"], r=params["r"], t=params.get("t", 2),
                  c=params["c"])


def _hash_colors(tab: np.ndarray, c: int, offset: int) -> np.ndarray:
    weights = np.array([3, 5, 7, 11, 13, 17, 19][:tab.shape[1]],
                       dtype=np.int64)
    mix = tab.astype(np.int64) @ weights + offset
    return (1 + mix % c).astype(np.uint8)


def _partition_stream(params: dict):
    p = _base_params(params)
    parts = params.get("parts", p.c)
    if not 1 <= parts <= p.c:
        raise InvalidParams(f"need 1 <= parts <= c, got parts={parts}")
    tab = edge_table(p.n, p.r)
    colors = (tab[:, -1].astype(np.int64) * parts // p.n + 1).astype(np.uint8)
    yield ColoredHypergraph(p, colors)


def _majority_stream(params: dict):
    p = _base_params(params)
    parts = params.get("parts", p.c)
    if not 1 <= parts <= p.c:
        raise InvalidParams(f"need 1 <= parts <= c, got parts={parts}")
    tab = edge_table(p.n, p.r).astype(np.int64)
    label = tab * parts // p.n
    counts = np.stack([(label == k).sum(axis=1) for k in range(parts)],
                      axis=1)
    colors = (np.argmax(counts, axis=1) + 1).astype(np.uint8)
    yield ColoredHypergraph(p, colors)


def _near_mono_stream(params: dict):
    p = _base_params(params)
    base = params.get("base", 1)
    off = params.get("off", 2 if base != 2 else 1)
    if not (1 <= base <= p.c and 1 <= off <= p.c) or base == off:
        raise InvalidParams(f"bad base/off pair ({base}, {off}) for c={p.c}")
    m = len(edge_table(p.n, p.r))
    for k in range(m):
        colors = np.full(m, base, dtype=np.uint8)
        colors[k] = off
        yield ColoredHypergraph(p, colors)


def _pair_lock_stream(params: dict):
    p = _base_params(params)
    a, b = params.get("pair", (0, 1))
    lock = params.get("lock", 2)
    if not (0 <= a < b < p.n and 1 <= lock <= p.c):
        raise InvalidParams(f"bad pair-lock parameters ({a}, {b}, {lock})")
    tab = edge_table(p.n, p.r)
    hit = (tab == a).any(axis=1) & (tab == b).any(axis=1)
    for offset in itertools.count():
        colors = _hash_colors(tab, p.c, offset)
        colors[hit] = lock
        yield ColoredHypergraph(p, colors)


# pivot-profile engineering: vertex classes around the designated pivot 0
_W, _T, _Y, _Z = 0, 1, 2, 3


def _u_profile_stream(params: dict):
    """Colorings of K_n^4 (3 colors) whose pivot 0 has a chosen profile.

    k23/k12/k13 set the mixed-class sizes at vertex 0; every other vertex
    sees all three colors on all its pairs.  Optional degree engineering:
    deg_u23 fixes how many {0, t, y, z'} edges are color 1, and deg_w /
    deg_w2 cap the color-1 edges of the {0, y, z', w} family at the one or
    two lowest designated-class vertices, which steers the construction's
    repair sub-cases.  Every yielded coloring is re-verified against the
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
    for offset in itertools.count():
        colors = _u_profile_colors(n, t_set, y_set, z_set, specials1,
                                   blocks, offset)
        h = ColoredHypergraph(p, colors)
        _check_u_profile(h, t_set, y_set, z_set, specials1, blocks)
        yield h


def _u_profile_colors(n, t_set, y_set, z_set, specials1, blocks, offset):
    tab = edge_table(n, 4).astype(np.int64)
    mix = tab @ np.array([3, 5, 7, 11], dtype=np.int64) + offset
    colors = (1 + mix % 3).astype(np.uint8)
    m = tab[:, 0] == 0
    b, c_, d = tab[m, 1], tab[m, 2], tab[m, 3]
    cls = np.full(n, _W, dtype=np.int8)
    cls[t_set] = _T
    cls[y_set] = _Y
    cls[z_set] = _Z
    cb, cc, cd = cls[b], cls[c_], cls[d]
    hasT = (cb == _T) | (cc == _T) | (cd == _T)
    hasY = (cb == _Y) | (cc == _Y) | (cd == _Y)
    hasZ = (cb == _Z) | (cc == _Z) | (cd == _Z)
    mixx = mix[m]
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
    colors = colors.copy()
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
    if np.any(_incidence_counts(h) <= 1):
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
