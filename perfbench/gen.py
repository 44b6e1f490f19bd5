"""Deterministic instance generators and a Metis writer.

Every generator takes a `random.Random` and returns (n, edges) with each
undirected edge listed once as (u, v), u < v, 0-based. The same seed gives
the same edge list, and `write_metis` turns it into byte-identical files.
"""

from __future__ import annotations

import random


def mesh(side: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A side x side grid; each cell gets one diagonal with probability 1/2,
    its orientation chosen by a second coin."""
    n = side * side
    edges = []
    for r in range(side):
        row = r * side
        for c in range(side):
            v = row + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
                if c + 1 < side and rng.random() < 0.5:
                    if rng.random() < 0.5:
                        edges.append((v, v + side + 1))
                    else:
                        edges.append((v + 1, v + side))
    return n, edges


def gnm(n: int, m: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """G(n, m): m distinct edges drawn uniformly, without self-loops."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"G({n},{m}) has more edges than a complete graph")
    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e not in seen:
            seen.add(e)
            edges.append(e)
    edges.sort()
    return n, edges


def adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Sorted adjacency lists of an edge list."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    return adj


def write_metis(path: str, n: int, edges: list[tuple[int, int]]) -> int:
    """Write a Metis file (header "n m", then 1-based neighbour lines) and
    return its size in bytes."""
    lines = [f"{n} {len(edges)}"]
    lines.extend(" ".join(str(u + 1) for u in a) for a in adjacency(n, edges))
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
