"""Correctness checks that use only the generator's own edge list.

Nothing here imports the solver: independence and maximality are recomputed
from the edges, the upper bound comes from a greedy matching and a greedy
clique cover, and α is found by exhaustive branching for small graphs.
"""

from __future__ import annotations


class CheckFailed(AssertionError):
    """A solver answer failed an independent check."""


def check_independent(solution, edges) -> None:
    for u, v in edges:
        if u in solution and v in solution:
            raise CheckFailed(f"solution holds edge {u}-{v}")


def check_maximal(solution, adj) -> None:
    for v, a in enumerate(adj):
        if v not in solution and not any(u in solution for u in a):
            raise CheckFailed(f"vertex {v} could join the solution")


def greedy_matching_size(adj) -> int:
    matched = bytearray(len(adj))
    size = 0
    for v, a in enumerate(adj):
        if matched[v]:
            continue
        for u in a:
            if not matched[u]:
                matched[u] = matched[v] = 1
                size += 1
                break
    return size


def greedy_clique_cover_size(adj) -> int:
    """Number of cliques in a greedy cover: each vertex, in id order, starts
    a clique unless covered, then takes every uncovered neighbour adjacent to
    all members so far."""
    covered = bytearray(len(adj))
    nbr = [set(a) for a in adj]
    cliques = 0
    for v in range(len(adj)):
        if covered[v]:
            continue
        covered[v] = 1
        cliques += 1
        common = {u for u in adj[v] if not covered[u]}
        while common:
            u = min(common)
            covered[u] = 1
            common &= nbr[u]
    return cliques


def upper_bound(adj) -> int:
    """An upper bound on α: a matching edge or a clique holds at most one
    vertex of an independent set."""
    return min(len(adj) - greedy_matching_size(adj), greedy_clique_cover_size(adj))


def brute_alpha(adj) -> int:
    """Exact α by branching on a vertex of highest degree (take it or leave
    it), memoised on the vertex set. For graphs of at most a few dozen
    vertices."""
    n = len(adj)
    masks = [0] * n
    for v, a in enumerate(adj):
        for u in a:
            masks[v] |= 1 << u
    memo: dict[int, int] = {}

    def best(alive: int) -> int:
        if alive in memo:
            return memo[alive]
        pick, pick_deg = -1, 0
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            d = (masks[v] & alive).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick < 0:
            value = alive.bit_count()
        else:
            without = alive & ~(1 << pick)
            value = max(best(without), 1 + best(without & ~masks[pick]))
        memo[alive] = value
        return value

    return best((1 << n) - 1)
