"""Shared test utilities: graph builders, independent oracles, audits."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from arir import StaticGraph, WorkingGraph, build_graph
from arir.search import LiveView, SolutionState

# The benchmark's instance generators (perfbench/gen.py), loaded by path.
_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("bench_gen", _GEN)
bench_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gen)


def gnp(n: int, p: float, rng: random.Random) -> StaticGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(edges, vertex_count_hint=n)


def path(n: int) -> StaticGraph:
    return build_graph([(i, i + 1) for i in range(n - 1)], vertex_count_hint=n)


def cycle(n: int) -> StaticGraph:
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> StaticGraph:
    return build_graph([(0, i) for i in range(1, leaves + 1)])


def complete(n: int) -> StaticGraph:
    return build_graph([(u, v) for u in range(n) for v in range(u + 1, n)])


def petersen() -> StaticGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(outer + spokes + inner)


def random_tree(n: int, rng: random.Random) -> StaticGraph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return build_graph(edges, vertex_count_hint=n)


def random_maximal(g: StaticGraph, rng: random.Random) -> set[int]:
    """A maximal independent set, greedy over a random vertex order."""
    order = list(range(g.vertex_count))
    rng.shuffle(order)
    sol = set()
    for v in order:
        if all(u not in sol for u in g.adjacency[v]):
            sol.add(v)
    return sol


def view_of(g: StaticGraph) -> LiveView:
    """Search snapshot of a whole graph; its compact ids are g's ids."""
    return LiveView.from_working(WorkingGraph(g))


def is_independent(g: StaticGraph, sol: set[int]) -> bool:
    return all(u not in sol for v in sol for u in g.adjacency[v])


def is_maximal(g: StaticGraph, sol: set[int]) -> bool:
    return all(
        v in sol or any(u in sol for u in g.adjacency[v])
        for v in range(g.vertex_count)
    )


def neighbor_masks(g: StaticGraph) -> list[int]:
    masks = [0] * g.vertex_count
    for v, a in enumerate(g.adjacency):
        for u in a:
            masks[v] |= 1 << u
    return masks


def brute_alpha(g: StaticGraph) -> int:
    """Exhaustive sweep over all 2^n vertex subsets (n <= ~20)."""
    n = g.vertex_count
    masks = neighbor_masks(g)
    size = 1 << n
    indep = bytearray(size)
    indep[0] = 1
    best = 0
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if indep[rest] and not masks[v] & rest:
            indep[mask] = 1
            pc = mask.bit_count()
            if pc > best:
                best = pc
    return best


def find_one_two_swap(state: SolutionState) -> tuple[int, int, int] | None:
    """Full-sweep search: the first solution vertex (ascending id) owning two
    non-adjacent 1-tight neighbors, or None when no swap exists. Ids are the
    view's compact ids."""
    in_sol = state.in_sol
    for x in range(state.view.vertex_count):
        if in_sol[x]:
            pair = state._find_pair(x)
            if pair is not None:
                return (x, pair[0], pair[1])
    return None


def enumerate_swaps(g: StaticGraph, sol: set[int]) -> list[tuple[int, int, int]]:
    """All feasible (1,2)-swaps of a maximal solution, by brute force."""
    out = []
    n = g.vertex_count
    for x in sorted(sol):
        candidates = [
            u
            for u in range(n)
            if u not in sol and set(g.adjacency[u]) & sol == {x}
        ]
        for i, u in enumerate(candidates):
            for w in candidates[i + 1 :]:
                if not g.has_edge(u, w):
                    out.append((x, u, w))
    return out


class ScriptedRng:
    """random.Random look-alike whose .random() pops from `uniforms`,
    falling back to 0.99."""

    def __init__(self, uniforms=()):
        self.uniforms = list(uniforms)

    def random(self) -> float:
        return self.uniforms.pop(0) if self.uniforms else 0.99
