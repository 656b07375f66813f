"""Hamiltonicity: degree-condition checks and cycle search.

Three engines, tried in order of cost:

1. Bondy-Chvátal closure: repeatedly join non-adjacent pairs with degree sum
   >= n.  If the closure becomes complete, take the trivial Hamiltonian cycle
   there and peel the added edges back out with the classic crossing-chord
   swap (each removal is justified by the degree sum that added the edge).
   This makes the Chvátal degree condition constructive: any graph satisfying
   it has a complete closure, so the search below never runs for the dense
   graphs this package builds.
2. A deterministic rotation-extension pass for sparse-but-easy graphs.
3. Exhaustive backtracking with a node-expansion budget, reporting
   "budget" distinctly from a completed unsuccessful search ("none").

Adjacency is stored as one Python int bitmask per vertex, which keeps the
inner loops allocation-free for n up to 128.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import InternalError, TightCycleWitness, edge_table, rank_subset
from .shadow import ShadowMulticoloring

DEFAULT_BUDGET = 10**7


@dataclass(eq=False)
class SimpleGraph:
    """Undirected simple graph; rows[v] is the neighbor bitmask of v."""

    n: int
    rows: list[int]

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        g = cls.empty(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def neighbors(self, v: int) -> list[int]:
        row = self.rows[v]
        return [u for u in range(self.n) if row >> u & 1]

    def edge_list(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if self.rows[u] >> v & 1]

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
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
class DegreeSequence:
    """Ascending degree sequence d_1 <= ... <= d_n."""

    degrees: tuple[int, ...]

    @classmethod
    def from_graph(cls, g: SimpleGraph) -> "DegreeSequence":
        return cls(tuple(sorted(g.degrees())))


def chvatal_holds(d: DegreeSequence | Sequence[int]) -> bool:
    """Chvátal's Hamiltonicity condition: for 1 <= i < n/2, d_i > i or d_{n-i} >= n-i."""
    degs = d.degrees if isinstance(d, DegreeSequence) else tuple(sorted(d))
    n = len(degs)
    if n < 3:
        raise ValueError(f"degree condition needs n >= 3, got n={n}")
    for i in range(1, (n + 1) // 2):
        if 2 * i >= n:
            break
        if degs[i - 1] <= i and degs[n - i - 1] < n - i:
            return False
    return True


@dataclass(frozen=True)
class HamiltonSearch:
    status: str                    # "found" | "none" | "budget"
    cycle: tuple[int, ...] | None
    expansions: int


def _is_hamiltonian_cycle(g: SimpleGraph, cycle: Sequence[int]) -> bool:
    n = g.n
    return (len(cycle) == n and sorted(cycle) == list(range(n))
            and all(g.has_edge(cycle[i], cycle[(i + 1) % n]) for i in range(n)))


def bondy_chvatal_closure(g: SimpleGraph) -> tuple[list[int], list[tuple[int, int]]]:
    """Closure adjacency rows plus the added edges in insertion order."""
    n = g.n
    rows = list(g.rows)
    degs = [r.bit_count() for r in rows]
    added: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(u + 1, n):
                if not rows[u] >> v & 1 and degs[u] + degs[v] >= n:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    degs[u] += 1
                    degs[v] += 1
                    added.append((u, v))
                    changed = True
    return rows, added


def _peel_closure_cycle(rows_closed: list[int], added: list[tuple[int, int]],
                        cycle: list[int]) -> list[int]:
    """Undo closure additions in reverse, repairing the cycle at each removal."""
    rows = list(rows_closed)
    cyc = cycle
    for u, v in reversed(added):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        n = len(cyc)
        pos = next((i for i in range(n)
                    if {cyc[i], cyc[(i + 1) % n]} == {u, v}), None)
        if pos is None:
            continue
        # path from one endpoint to the other, the removed edge now absent
        path = cyc[pos + 1:] + cyc[:pos + 1]
        a, b = path[0], path[-1]
        # degree sum >= n at insertion time guarantees a crossing chord pair
        for j in range(1, n - 1):
            if rows[b] >> path[j] & 1 and rows[a] >> path[j + 1] & 1:
                cyc = path[:j + 1] + path[j + 1:][::-1]
                break
        else:
            raise AssertionError("closure peel found no crossing chord")
    return cyc


def _rotation_extension(g: SimpleGraph, max_ops: int) -> list[int] | None:
    """Deterministic Pósa-style longest-path heuristic; None when it stalls."""
    n = g.n
    rows = g.rows
    start = max(range(n), key=lambda v: (rows[v].bit_count(), -v))
    path = [start]
    in_path = 1 << start
    ops = 0
    while ops < max_ops:
        ops += 1
        tail = path[-1]
        ext = rows[tail] & ~in_path
        if ext:
            v = (ext & -ext).bit_length() - 1  # smallest fresh neighbor
            path.append(v)
            in_path |= 1 << v
            continue
        if len(path) == n:
            head = path[0]
            if rows[tail] >> head & 1:
                return path
        # rotate: pick the smallest neighbor of tail that is not its precursor
        row = rows[tail]
        rotated = False
        for u_pos in range(len(path) - 2):
            if row >> path[u_pos] & 1:
                path[u_pos + 1:] = path[u_pos + 1:][::-1]
                rotated = True
                break
        if not rotated:
            return None
        # after a rotation with a full path, try to close on the new tail
        if len(path) == n and rows[path[-1]] >> path[0] & 1:
            return path
    return None


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
            return HamiltonSearch("budget", None, expansions)
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
            if rows[v] & start_bit:
                return HamiltonSearch("found", tuple(path + [v]), expansions)
            continue
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
    return HamiltonSearch("none", None, expansions)


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
        return _checked_found(g, cyc, "closure peel")
    cyc = _rotation_extension(g, max_ops=4 * n * n)
    if cyc is not None:
        return _checked_found(g, cyc, "rotation-extension")
    return _backtrack_hamilton(g, budget)


def _checked_found(g: SimpleGraph, cyc: list[int], route: str) -> HamiltonSearch:
    if not _is_hamiltonian_cycle(g, cyc):
        raise InternalError(f"{route} returned a non-Hamiltonian cycle: {cyc}")
    return HamiltonSearch("found", tuple(cyc), 0)


def good_pair_graph(s: ShadowMulticoloring, color: int) -> SimpleGraph:
    """Graph on the vertex set whose edges are pairs with `color` 2-good."""
    if s.t != 2:
        raise ValueError(f"pair graph needs a t=2 shadow, got t={s.t}")
    g = SimpleGraph.empty(s.params.n)
    pairs = edge_table(s.params.n, 2)
    for k in np.flatnonzero((s.goodmask >> np.uint32(color - 1)) & 1):
        u, v = pairs[k]
        g.add_edge(int(u), int(v))
    return g


@dataclass(frozen=True)
class TightCycleSearch:
    status: str                           # "found" | "none" | "budget"
    witness: TightCycleWitness | None
    expansions: int


def find_mono_ham_tight_cycle(s: ShadowMulticoloring, t: int, color: int,
                              budget: int = DEFAULT_BUDGET) -> TightCycleSearch:
    """Hamiltonian tight cycle in the shadow graph, all windows good in `color`.

    t = 2 reduces to graph Hamiltonicity on the good-pair graph; t >= 3 runs a
    window-constrained DFS over core sequences with the start fixed at vertex 0
    and orientation canonicalized (core[1] < core[n-1]).
    """
    if t != s.t:
        raise ValueError(f"shadow built for t={s.t}, asked for t={t}")
    n = s.params.n
    if t == 2:
        res = find_hamiltonian_cycle(good_pair_graph(s, color), budget)
        wit = None
        if res.status == "found":
            wit = TightCycleWitness(color=color, core=res.cycle, t=2)
        return TightCycleSearch(res.status, wit, res.expansions)

    good: set[int] = set(
        int(k) for k in np.flatnonzero((s.goodmask >> np.uint32(color - 1)) & 1))
    if not good:
        return TightCycleSearch("none", None, 0)

    core = [0] * n
    used = [False] * n
    used[0] = True
    expansions = 0

    def window_ok(i: int) -> bool:
        win = tuple(sorted(core[(i + j) % n] for j in range(t)))
        return rank_subset(win) in good

    def dfs(depth: int) -> str:
        nonlocal expansions
        for v in range(1, n):
            if used[v]:
                continue
            if expansions >= budget:
                return "budget"
            expansions += 1
            core[depth] = v
            if depth >= t - 1 and not window_ok(depth - t + 1):
                continue
            if depth == n - 1:
                if core[1] > core[n - 1]:
                    continue  # reflection: keep the core[1] < core[n-1] orientation
                if all(window_ok(i) for i in range(n - t + 1, n)):
                    return "found"
                continue
            used[v] = True
            out = dfs(depth + 1)
            used[v] = False
            if out != "none":
                return out
        return "none"

    # orientation canonicalization: explore with core[1] < core[n-1] only;
    # a window is a vertex set, so reversal preserves validity.
    status = dfs(1)
    if status == "found":
        return TightCycleSearch(
            "found", TightCycleWitness(color=color, core=tuple(core), t=t), expansions)
    return TightCycleSearch(status, None, expansions)
