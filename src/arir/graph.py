"""Graph containers: an immutable instance graph and a mutable working view
that supports vertex deletion and degree-2 folding; the solution check; and
the pause of the cyclic garbage collector that run and kernelize apply."""

from __future__ import annotations

import gc
from bisect import bisect_left
from functools import wraps
from itertools import chain, compress


class ContractError(RuntimeError):
    """A solution failed its check: check_solution raises it for a set that
    names a vertex outside the graph, is not independent, or is not maximal
    when maximality is asked for."""


def paused_cycle_collection(fn):
    """Decorate fn so that each call pauses the cyclic garbage collector: if
    it is enabled, the call collects the youngest generation, disables the
    collector, and enables it again when fn returns, also by an exception.
    If the caller has disabled it, nothing changes, so nested calls and the
    caller's own choice both hold.

    The solver makes no reference cycles, so refcounting frees each of its
    objects when it is dropped; a collection pass would only rescan its
    live adjacency lists. The young pass on entry frees the caller's recent
    cyclic garbage, as the passes the call's allocations started used to:
    the collector counts frees against allocations, so a call that frees
    what it makes would otherwise leave that garbage waiting for a full
    threshold of new allocations. The collector is process-wide: while the
    call runs, cyclic garbage of other threads waits too.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.collect(0)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            # Nothing is allocated once the collector is enabled again, so
            # the pass it may owe starts after the call, not inside it.
            gc.enable()

    return paused


class StaticGraph:
    """Immutable simple undirected graph with sorted adjacency lists.

    Vertices are 0-based contiguous ids. No self-loops, no parallel edges;
    adjacency is symmetric. kernelize and run never write to it, so one
    instance serves any number of runs.
    """

    __slots__ = ("vertex_count", "adjacency")

    def __init__(self, adjacency: list[list[int]]):
        self.adjacency = adjacency
        self.vertex_count = len(adjacency)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adjacency[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def audit(self) -> None:
        """Recompute every structural invariant from scratch; raise on breakage."""
        for v, a in enumerate(self.adjacency):
            if sorted(set(a)) != list(a):
                raise AssertionError(f"adjacency of {v} not sorted/deduplicated")
            if v in a:
                raise AssertionError(f"self-loop at {v}")
            for u in a:
                if not self.has_edge(u, v):
                    raise AssertionError(f"asymmetric edge {v}-{u}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StaticGraph):
            return NotImplemented
        return self.adjacency == other.adjacency

    def __repr__(self) -> str:
        return f"StaticGraph(n={self.vertex_count}, m={self.edge_count})"


def _outside(graph: StaticGraph, vertices: set[int]) -> int | None:
    """The id of vertices to name as outside graph (0..n-1): the smallest if
    it is negative, else the largest; None if every id is a vertex."""
    if vertices:
        low, high = min(vertices), max(vertices)
        if low < 0:
            return low
        if high >= graph.vertex_count:
            return high
    return None


def check_solution(
    graph: StaticGraph, vertices: set[int], maximal: bool = True
) -> None:
    """Raise ContractError unless every id of vertices is a vertex of graph,
    vertices is independent in graph and, if maximal is set, vertices leaves
    no vertex free. A failure is named: an id out of range (see _outside),
    an edge inside vertices, or the smallest free vertex."""
    outside = _outside(graph, vertices)
    if outside is not None:
        raise ContractError(
            f"solution names vertex {outside}, outside 0..{graph.vertex_count - 1}"
        )
    # One pass over the lists of vertices. Maximality needs the size of
    # N(S), so it collects N(S) as a set and meets it with S; independence
    # alone streams the lists into S's own intersection and builds no set
    # but the (empty, when S passes) one it returns.
    adjacency = graph.adjacency
    lists = chain.from_iterable(map(adjacency.__getitem__, vertices))
    if maximal:
        covered = set(lists)
        inside = covered.intersection(vertices)
    else:
        inside = vertices.intersection(lists)
    if inside:
        # Every vertex of inside has a neighbour in S: name its smallest.
        v = min(inside)
        u = next(filter(vertices.__contains__, adjacency[v]))
        raise ContractError(f"solution carries edge {v}-{u}")
    if maximal and len(covered) + len(vertices) < graph.vertex_count:
        # S is independent, so N[S] = N(S) + S, and what it misses is free.
        free = min(set(range(graph.vertex_count)).difference(covered, vertices))
        raise ContractError(f"solution is not maximal: vertex {free} is free")


def build_graph(edges, vertex_count_hint: int | None = None) -> StaticGraph:
    """Build a StaticGraph from raw edge pairs, read in one pass.

    A self-loop raises ValueError, because dropping it would let that vertex
    into a solution; duplicate edges collapse. The vertex count is
    max(hint, largest id + 1); ids beyond the largest endpoint become isolated
    vertices.
    """
    nbr: list[list[int]] = [[] for _ in range(vertex_count_hint or 0)]
    # Every list that holds v holds ids[v], one int object per vertex, so
    # the ints the edge source made are freed as each edge is added.
    ids = list(range(len(nbr)))
    for u, v in edges:
        if u < 0 or v < 0:
            raise ValueError(f"negative vertex id in edge ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        top = u if u > v else v
        if top >= len(nbr):
            nbr.extend([] for _ in range(top + 1 - len(nbr)))
            ids.extend(range(len(ids), len(nbr)))
        nbr[u].append(ids[v])
        nbr[v].append(ids[u])
    if not nbr:
        raise ValueError("empty graph undefined")
    # Replaced in place, so each raw list is freed as its sorted one is made.
    for v, a in enumerate(nbr):
        nbr[v] = sorted(set(a))
    return StaticGraph(nbr)


class WorkingGraph:
    """Mutable view over a StaticGraph supporting deletion and folding.

    Fold-created vertices get fresh contiguous ids starting at
    ``base.vertex_count``. Dead vertices never appear in neighborhood query
    results. Single-owner, single-threaded.
    """

    __slots__ = (
        "adj",
        "owned",
        "alive",
        "live_degree",
        "touched",
        "check_steps",
    )

    def __init__(self, base: StaticGraph):
        # adj[v]: every neighbor v ever had, dead or alive, ascending. The
        # lists start out shared with base, so base is never mutated: the
        # first fold that extends a list copies it and marks it owned, and
        # later folds append to the copy in place.
        self.adj = list(base.adjacency)
        n = base.vertex_count
        self.owned = bytearray(n)
        self.alive = [True] * n
        self.live_degree = [len(a) for a in base.adjacency]
        # Vertices whose live neighborhood changed since last drain; consumed
        # by the reduction fixpoint driver.
        self.touched: list[int] = []
        # Instrumentation: elementary steps spent in rule-applicability checks.
        self.check_steps = 0

    def alive_neighbors(self, v: int) -> list[int]:
        """Alive neighbors of v in ascending id order."""
        alive = self.alive
        return [u for u in self.adj[v] if alive[u]]

    def adjacent(self, u: int, v: int) -> bool:
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def delete(self, removed, fixed=()) -> None:
        """Delete the alive vertices of removed and fixed. Each alive neighbor
        of a removed vertex loses one live degree per removed neighbor and is
        appended to touched. Every live neighbor of a fixed vertex must be in
        removed, so a fixed vertex dies without a list walk."""
        alive = self.alive
        for v in fixed:
            alive[v] = False
        for v in removed:
            alive[v] = False
        live_degree = self.live_degree
        touched = self.touched
        for v in removed:
            for u in self.adj[v]:
                if alive[u]:
                    live_degree[u] -= 1
                    touched.append(u)

    def fold_degree2(self, u: int, nbrs: list[int]) -> int:
        """Contract degree-2 vertex u and its two non-adjacent live
        neighbors nbrs, which the caller has read, into a fresh vertex
        adjacent to the union of their other neighbors; return the fresh
        vertex's id."""
        alive = self.alive
        live_degree = self.live_degree
        adj = self.adj
        # u's only live neighbors are the merged pair, which die with it, so
        # only the pair's lists are walked. merged keeps each live neighbor
        # of the pair once, in first-seen order. Each gains x and loses the
        # pair members it was adjacent to, so only a neighbor of both
        # changes degree, by -1.
        alive[u] = False
        v, w = nbrs
        alive[v] = alive[w] = False
        merged = {}
        for t in adj[v]:
            if alive[t]:
                merged[t] = None
        for t in adj[w]:
            if alive[t]:
                if t in merged:
                    live_degree[t] -= 1
                else:
                    merged[t] = None
        x = len(alive)
        adj_x = sorted(merged)
        adj.append(adj_x)
        owned = self.owned
        owned.append(1)
        alive.append(True)
        live_degree.append(len(adj_x))
        for t in merged:
            # x is the largest id so far, so the list stays ascending.
            if owned[t]:
                adj[t].append(x)
            else:
                adj[t] = adj[t] + [x]
                owned[t] = 1
        touched = self.touched
        touched += merged
        touched.append(x)
        return x

    def alive_vertices(self) -> list[int]:
        return list(compress(range(len(self.alive)), self.alive))

    def freeze(self) -> tuple[StaticGraph, list[int]]:
        """Compact the alive subgraph into a fresh StaticGraph.

        Returns the graph and the map from new ids to working-universe ids.
        The map is ascending and every adj list is sorted, so each remapped
        adjacency list is already sorted.
        """
        alive = self.alive
        adj = self.adj
        if all(alive):
            # Nothing died, so nothing was folded: every list is still the
            # base's own, and the graph shares them. A later fold copies a
            # list before it extends it, so the snapshot stays as it is.
            return StaticGraph(list(adj)), list(range(len(alive)))
        vertices = self.alive_vertices()
        remap = [0] * len(alive)
        for i, v in enumerate(vertices):
            remap[v] = i
        adjacency = [[remap[u] for u in adj[v] if alive[u]] for v in vertices]
        return StaticGraph(adjacency), vertices

    def audit(self) -> None:
        """Recompute live degrees and symmetry from scratch; raise on breakage."""
        for v in range(len(self.alive)):
            if not self.alive[v]:
                continue
            nbrs = self.alive_neighbors(v)
            if len(set(nbrs)) != len(nbrs):
                raise AssertionError(f"duplicate live neighbor at {v}")
            if self.live_degree[v] != len(nbrs):
                raise AssertionError(
                    f"live_degree[{v}]={self.live_degree[v]} != recount {len(nbrs)}"
                )
            for u in nbrs:
                if v not in self.alive_neighbors(u):
                    raise AssertionError(f"asymmetric live edge {v}-{u}")
