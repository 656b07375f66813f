"""Hamiltonicity: Hamiltonian-cycle and tight-cycle search.

After a degree/connectivity shortcut for "none", two engines, tried in
order of cost:

1. Bondy-Chvátal closure: repeatedly join non-adjacent pairs with degree sum
   >= n.  If the closure becomes complete, take the trivial Hamiltonian cycle
   there and peel the added edges back out with the classic crossing-chord
   swap (each removal is justified by the degree sum that added the edge).
   This makes the Chvátal degree condition constructive: any graph satisfying
   it has a complete closure, so the search below never runs for the dense
   graphs this package builds.
2. Exhaustive backtracking with a node-expansion budget, reporting
   "budget" distinctly from a completed unsuccessful search ("none").

A third engine serves tight cycles at t >= 3: `TightCoreWalk`, an
iterative walk over core sequences whose windows lie in a given family of
t-sets.  The t >= 3 search takes its first core under the budget; the
harness oracle walks it with no budget and lifts every core it yields.

Adjacency is stored as one Python int bitmask per vertex, which keeps the
inner loops allocation-free for n up to 128.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .core import InternalError, TightCycleWitness, rank_subset
from .shadow import ShadowMulticoloring, _pair_rank_matrix

DEFAULT_BUDGET = 10**7


@dataclass(eq=False)
class SimpleGraph:
    """Undirected simple graph; rows[v] is the neighbor bitmask of v."""

    n: int
    rows: list[int]

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "SimpleGraph":
        """The graph of a symmetric n x n bool adjacency matrix: each row
        packs little-endian into the bitmask int of its vertex."""
        loops = np.flatnonzero(adj.diagonal())
        if loops.size:
            raise ValueError(f"loop at vertex {loops[0]}")
        rows = np.packbits(adj, axis=1, bitorder="little")
        return cls(len(adj), [int.from_bytes(r.tobytes(), "little") for r in rows])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def is_connected(self) -> bool:
        """Whether vertex 0 reaches every vertex; needs n >= 1."""
        seen = 1
        frontier = 1
        while frontier:
            grow = 0
            v = 0
            f = frontier
            while f:
                if f & 1:
                    grow |= self.rows[v]
                f >>= 1
                v += 1
            frontier = grow & ~seen
            seen |= grow
        return seen == (1 << self.n) - 1


@dataclass(frozen=True)
class HamiltonSearch:
    status: str                    # "found" | "none" | "budget"
    cycle: tuple[int, ...] | None
    expansions: int
    route: str | None = None       # "closure-peel" | "backtracking"; None: the
                                   # degree/connectivity shortcut said "none"


def _is_hamiltonian_cycle(g: SimpleGraph, cycle: Sequence[int]) -> bool:
    n = g.n
    return (len(cycle) == n and sorted(cycle) == list(range(n))
            and all(g.has_edge(cycle[i], cycle[(i + 1) % n]) for i in range(n)))


def bondy_chvatal_closure(g: SimpleGraph) -> tuple[list[int], list[tuple[int, int]]]:
    """Closure adjacency rows plus the added edges in insertion order.

    Each pass visits the pairs u < v in lexicographic order, but only the
    non-edges: u's pass walks the bits of its non-neighbour set above u,
    taken when the pass starts, with the degrees read live.  During u's
    pass rows[u] gains bit v only by adding (u, v) itself, so the snapshot
    holds exactly the pairs a scan of every v > u would find missing.
    """
    n = g.n
    rows = list(g.rows)
    degs = [r.bit_count() for r in rows]
    added: list[tuple[int, int]] = []
    full = (1 << n) - 1
    changed = True
    while changed:
        changed = False
        for u in range(n):
            scan = full & ~(rows[u] | ((2 << u) - 1))
            while scan:
                bit = scan & -scan
                scan ^= bit
                v = bit.bit_length() - 1
                if degs[u] + degs[v] >= n:
                    rows[u] |= bit
                    rows[v] |= 1 << u
                    degs[u] += 1
                    degs[v] += 1
                    added.append((u, v))
                    changed = True
    return rows, added


def _peel_closure_cycle(rows_closed: list[int], added: list[tuple[int, int]],
                        cycle: list[int]) -> list[int]:
    """Undo closure additions in reverse, repairing the cycle at each removal.

    `nbrs[v]` holds the bits of v's two neighbours on the current cycle, so
    an added edge off the cycle costs one bit test.
    """
    rows = list(rows_closed)
    cyc = cycle
    n = len(cyc)
    nbrs = [0] * n
    for i, v in enumerate(cyc):
        nbrs[v] = 1 << cyc[i - 1] | 1 << cyc[(i + 1) % n]
    for u, v in reversed(added):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        if not nbrs[u] >> v & 1:
            continue
        # the edge joins cyc[pos] and cyc[pos + 1]; pos = -1 and pos = n - 1
        # slice out the same path below
        pos = cyc.index(u)
        if cyc[(pos + 1) % n] != v:
            pos -= 1
        # path from one endpoint to the other, the removed edge now absent
        path = cyc[pos + 1:] + cyc[:pos + 1]
        a, b = path[0], path[-1]
        # degree sum >= n at insertion time guarantees a crossing chord pair
        for j in range(1, n - 1):
            p, q = path[j], path[j + 1]
            if rows[b] >> p & 1 and rows[a] >> q & 1:
                cyc = path[:j + 1] + path[j + 1:][::-1]
                # the cycle loses a-b and p-q and gains b-p and a-q
                nbrs[a] ^= 1 << b | 1 << q
                nbrs[b] ^= 1 << a | 1 << p
                nbrs[p] ^= 1 << q | 1 << b
                nbrs[q] ^= 1 << p | 1 << a
                break
        else:
            raise InternalError(
                f"closure peel found no crossing chord for added edge ({u}, {v})")
    return cyc


def _backtrack_hamilton(g: SimpleGraph, budget: int) -> HamiltonSearch:
    """Complete DFS over simple paths; prunes vertices that lose all exits."""
    n = g.n
    rows = g.rows
    full = (1 << n) - 1
    degs = g.degrees()
    start = min(range(n), key=lambda v: (degs[v], v))
    start_bit = 1 << start

    expansions = 0
    path = [start]
    visited = start_bit
    # per-depth iterator state: neighbor masks still to try
    pending = [rows[start]]

    while pending:
        if expansions >= budget:
            return HamiltonSearch("budget", None, expansions, "backtracking")
        cand = pending[-1] & ~visited
        if not cand:
            pending.pop()
            v = path.pop()
            visited &= ~(1 << v)
            continue
        v = (cand & -cand).bit_length() - 1
        pending[-1] &= ~(1 << v)
        expansions += 1
        if len(path) == n - 1:
            # v is the one vertex left.  The prune that admitted path[-1]
            # gave v two neighbours in {v, path[-1], start}; with no loops
            # that means v ~ start, so the cycle closes
            return HamiltonSearch("found", tuple(path + [v]), expansions, "backtracking")
        new_visited = visited | (1 << v)
        # every untouched vertex still needs two usable cycle neighbors
        rem = full & ~new_visited
        ok = True
        scan = rem
        allowed = rem | (1 << v) | start_bit
        while scan:
            w_bit = scan & -scan
            scan ^= w_bit
            w = w_bit.bit_length() - 1
            if (rows[w] & allowed).bit_count() < 2:
                ok = False
                break
        if not ok:
            continue
        path.append(v)
        visited = new_visited
        pending.append(rows[v])
    return HamiltonSearch("none", None, expansions, "backtracking")


def find_hamiltonian_cycle(g: SimpleGraph, budget: int = DEFAULT_BUDGET) -> HamiltonSearch:
    """Hamiltonian cycle of g, or a definitive "none", or "budget".

    "none" is only reported after a completed exhaustive search (or a failed
    necessary condition: n < 3 handled by the caller contract, disconnection,
    a vertex of degree < 2).
    """
    n = g.n
    if n < 3:
        raise ValueError(f"Hamiltonian cycle needs n >= 3, got n={n}")
    if min(g.degrees()) < 2 or not g.is_connected():
        return HamiltonSearch("none", None, 0)
    rows_closed, added = bondy_chvatal_closure(g)
    full = (1 << n) - 1
    if all(r == full ^ (1 << v) for v, r in enumerate(rows_closed)):
        cyc = _peel_closure_cycle(rows_closed, added, list(range(n)))
        _check_found(g, cyc, "closure peel")
        return HamiltonSearch("found", tuple(cyc), 0, "closure-peel")
    res = _backtrack_hamilton(g, budget)
    if res.status == "found":
        _check_found(g, res.cycle, "backtracking")
    return res


def _check_found(g: SimpleGraph, cyc: Sequence[int], engine: str) -> None:
    if not _is_hamiltonian_cycle(g, cyc):
        raise InternalError(f"{engine} returned a non-Hamiltonian cycle: {cyc}")


def good_pair_graph(s: ShadowMulticoloring, color: int) -> SimpleGraph:
    """Graph on the vertex set whose edges are pairs with `color` 2-good:
    the pairs' good bits gathered through the shadow's pair-rank matrix
    into an n x n bool adjacency, with the diagonal cleared."""
    if s.t != 2:
        raise ValueError(f"pair graph needs a t=2 shadow, got t={s.t}")
    good = ((s.goodmask >> np.uint32(color - 1)) & 1).astype(bool)
    adj = good[_pair_rank_matrix(s.params.n)]
    np.fill_diagonal(adj, False)            # {v, v} is no pair
    return SimpleGraph.from_adjacency(adj)


@dataclass(frozen=True)
class TightCycleSearch:
    status: str                           # "found" | "none" | "budget"
    witness: TightCycleWitness | None
    expansions: int


def find_mono_ham_tight_cycle(s: ShadowMulticoloring, color: int,
                              budget: int = DEFAULT_BUDGET) -> TightCycleSearch:
    """Hamiltonian s.t-tight cycle in the shadow graph, all windows good in `color`.

    t = 2 reduces to graph Hamiltonicity on the good-pair graph; t >= 3
    takes the first core of a `TightCoreWalk` over the color's good t-sets.
    A cycle needs n >= 3 vertices, so n = 2 (only K_2^2 has it) is "none".
    """
    n, t = s.params.n, s.t
    if n < 3:
        return TightCycleSearch("none", None, 0)
    if t == 2:
        res = find_hamiltonian_cycle(good_pair_graph(s, color), budget)
        wit = None
        if res.status == "found":
            wit = TightCycleWitness(color=color, core=res.cycle, t=2)
        return TightCycleSearch(res.status, wit, res.expansions)
    walk = TightCoreWalk(n, t, (s.goodmask >> np.uint32(color - 1)) & 1, budget)
    core = next(iter(walk), None)
    if core is None:
        return TightCycleSearch(walk.status, None, walk.expansions)
    return TightCycleSearch(
        "found", TightCycleWitness(color=color, core=core, t=t), walk.expansions)


@dataclass(eq=False)
class TightCoreWalk:
    """Every cyclic core on range(n) whose t-windows all lie in `allowed`.

    `allowed[k]` is nonzero when the t-set of colex rank k may be a window.
    Iterating yields the cores as tuples: core[0] = 0, later positions take
    the free vertices in ascending order, and a window is tested as soon as
    its t vertices are placed.  A core and its reversal have the same
    windows, so only the orientation core[1] < core[n-1] is yielded, by a
    test at the leaf.  Each vertex tried counts one expansion, and the walk
    stops with status "budget" before an expansion that would exceed
    `budget`; a walk that runs out of cores ends with status "none".
    """

    n: int
    t: int
    allowed: np.ndarray
    budget: float = math.inf
    expansions: int = field(default=0, init=False)
    status: str = field(default="none", init=False)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        n, t = self.n, self.t
        if not self.allowed.any():
            return
        full = (1 << n) - 1
        # a window by the bitmask of its vertices, ranked on first sight
        ok = functools.cache(lambda key: bool(self.allowed[rank_subset(
            [v for v in range(n) if key >> v & 1])]))
        core = [0] * n
        placed = [1] * n              # placed[d]: bits of core[0..d]
        pending = [0, full ^ 1]       # pending[d]: vertices still to try at depth d
        while len(pending) > 1:
            depth = len(pending) - 1
            cand = pending[depth]
            if not cand:
                pending.pop()
                continue
            bit = cand & -cand
            pending[depth] = cand ^ bit
            if self.expansions >= self.budget:
                self.status = "budget"
                return
            self.expansions += 1
            core[depth] = v = bit.bit_length() - 1
            placed[depth] = here = placed[depth - 1] | bit
            if depth >= t - 1 and not ok(here ^ placed[depth - t] if depth >= t else here):
                continue
            if depth < n - 1:
                pending.append(full ^ here)
            elif core[1] < v and all(ok((full ^ placed[i - 1]) | placed[i + t - 1 - n])
                                     for i in range(n - t + 1, n)):
                yield tuple(core)

