"""Perturbation-and-swap local search over a frozen working graph.

The search keeps a maximal independent set and improves it in blocks of
iterations. Each iteration forces one or more free vertices, each a uniform
draw, into the solution, evicts their solution neighbors, and then exhausts
(1,2)-swaps: a solution vertex leaves while two of its non-adjacent,
singly-covered neighbors join. An iteration that ends on a smaller solution
is kept only with the probability of Andrade, Resende & Werneck's iterated
local search (J. Heuristics 2012), and is otherwise undone.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import compress

from .graph import StaticGraph, WorkingGraph


class LiveView(StaticGraph):
    """Compact snapshot of the alive subgraph of a working graph: vertex i of
    the snapshot is working vertex ids[i], and ids is ascending."""

    __slots__ = ("ids",)

    @classmethod
    def from_working(cls, W: WorkingGraph) -> "LiveView":
        graph, ids = W.freeze()
        view = cls(graph.adjacency)
        view.ids = ids
        return view


# Most vertices one perturbation forces.
_FORCE_CAP = 32


class SolutionState:
    """Independent set plus the counters the search needs: per-vertex
    tightness (number of solution neighbors), a list of the free vertices,
    a journal of the current iteration's changes, and a seeded RNG. Vertices
    are the view's compact ids. Single-owner, single-threaded.

    The free list is positional: _free holds every vertex outside the
    solution, in no particular order, and _free_pos holds the index of each
    free vertex only; in_sol alone records membership. _remove appends and
    _insert swap-removes, so both are O(1), and so is a uniform draw.

    Each _insert journals the free-list index it vacated, then the vertex;
    each _remove journals the vertex. Replayed in reverse, a vertex's current
    membership tells which kind of entry it heads, so _undo restores the
    solution, tightness and free list exactly.
    """

    __slots__ = (
        "view",
        "rng",
        "in_sol",
        "tight",
        "touches",
        "max_iter_touches",
        "rejected",
        "_free",
        "_free_pos",
        "_journal",
        "_zero_buf",
        "_one_buf",
        "_queue",
        "_in_queue",
    )

    def __init__(self, view: LiveView, rng: random.Random):
        n = view.vertex_count
        self.view = view
        self.rng = rng
        self.in_sol = bytearray(n)
        self.tight = [0] * n
        self.touches = 0
        self.max_iter_touches = 0
        # Iterations whose worse solution was undone.
        self.rejected = 0
        self._free = list(range(n))
        self._free_pos = list(range(n))
        self._journal: list[int] = []
        self._zero_buf: list[int] = []
        self._one_buf: list[int] = []
        self._queue: deque[int] = deque()
        self._in_queue = bytearray(n)

    @property
    def size(self) -> int:
        """The solution's size: every vertex the free list does not hold."""
        return self.view.vertex_count - len(self._free)

    def solution_set(self) -> set[int]:
        """The solution in working-graph ids."""
        return set(compress(self.view.ids, self.in_sol))

    def _insert(self, v: int) -> None:
        self.in_sol[v] = 1
        free = self._free
        pos = self._free_pos
        i = pos[v]
        last = free.pop()
        if last != v:
            free[i] = last
            pos[last] = i
        journal = self._journal
        journal.append(i)
        journal.append(v)
        adj = self.view.adjacency[v]
        self.touches += len(adj)
        tight = self.tight
        one_buf = self._one_buf
        for w in adj:
            t = tight[w] + 1
            tight[w] = t
            if t == 1:
                one_buf.append(w)

    def _remove(self, v: int) -> None:
        self.in_sol[v] = 0
        free = self._free
        self._free_pos[v] = len(free)
        free.append(v)
        self._journal.append(v)
        adj = self.view.adjacency[v]
        self.touches += len(adj)
        tight = self.tight
        zero_buf = self._zero_buf
        one_buf = self._one_buf
        for w in adj:
            t = tight[w] - 1
            tight[w] = t
            if t == 0:
                zero_buf.append(w)
            elif t == 1:
                one_buf.append(w)

    def _undo(self) -> None:
        """Replay the journal in reverse, back to the state it was cleared
        at, and empty both candidate buffers. Called after a swap
        exhaustion, so the swap queue is already empty."""
        journal = self._journal
        in_sol = self.in_sol
        tight = self.tight
        free = self._free
        pos = self._free_pos
        adjacency = self.view.adjacency
        while journal:
            v = journal.pop()
            adj = adjacency[v]
            self.touches += len(adj)
            if in_sol[v]:
                # v was inserted from index i: put it back there, and move
                # the vertex that took its place back to the end.
                i = journal.pop()
                in_sol[v] = 0
                for w in adj:
                    tight[w] -= 1
                end = len(free)
                if i < end:
                    last = free[i]
                    free.append(last)
                    pos[last] = end
                    free[i] = v
                else:
                    free.append(v)
                pos[v] = i
            else:
                # v was removed, so it is the free list's last entry.
                in_sol[v] = 1
                for w in adj:
                    tight[w] += 1
                free.pop()
        self._zero_buf.clear()
        self._one_buf.clear()

    def maintain_maximality(self) -> None:
        """Insert the free 0-tight vertices of the candidate list, lowest id
        first, until none remain. _remove feeds the list with the neighbors
        that drop to 0-tight; the removed vertex itself is left to the
        caller, which in the search always inserts one of its neighbors.
        _insert never makes a vertex 0-tight, so one sort orders the pass.
        """
        zero_buf = self._zero_buf
        zero_buf.sort()
        in_sol = self.in_sol
        tight = self.tight
        for v in zero_buf:
            if not (in_sol[v] or tight[v]):
                self._insert(v)
        zero_buf.clear()

    def _drain_one_buf(self) -> None:
        # A vertex that just became 1-tight joins the swap bucket of its sole
        # solution neighbor; requeue that neighbor.
        buf = self._one_buf
        in_sol = self.in_sol
        tight = self.tight
        adj = self.view.adjacency
        queue = self._queue
        in_queue = self._in_queue
        while buf:
            t = buf.pop()
            if in_sol[t] or tight[t] != 1:
                continue
            a = adj[t]
            self.touches += len(a)
            for y in a:
                if in_sol[y]:
                    if not in_queue[y]:
                        in_queue[y] = 1
                        queue.append(y)
                    break

    def _find_pair(self, x: int) -> tuple[int, int] | None:
        """Two non-adjacent 1-tight neighbors of solution vertex x, if any.

        Bucket members are exactly the free neighbors with tightness 1 (their
        sole solution neighbor is necessarily x). Each candidate u is tested
        against the set of its own neighbors; the first u with a non-neighbor
        in the bucket is the smallest member of any non-adjacent pair. A
        candidate without a partner is adjacent to every other member, so its
        bucket scan costs no more than its degree, and the whole probe costs
        O(d(x) + sum of bucket degrees), which keeps a full sweep within
        O(edge count).
        """
        adj = self.view.adjacency
        adj_x = adj[x]
        tight = self.tight
        self.touches += len(adj_x)
        # A plain loop: before Python 3.12 a comprehension opens a frame.
        bucket = []
        for u in adj_x:
            if tight[u] == 1:
                bucket.append(u)
        if len(bucket) < 2:
            return None
        for u in bucket:
            adj_u = adj[u]
            self.touches += len(adj_u)
            nbrs_u = set(adj_u)
            for w in bucket:
                if w != u and w not in nbrs_u:
                    return (u, w)
        return None

    def exhaust_swaps(self) -> int:
        """Apply (1,2)-swaps until none applies to any queued solution vertex.

        greedy_init queues every solution vertex, and afterwards tightness
        transitions requeue each vertex whose swap bucket may have grown, so
        no swap remains when this returns.
        """
        self._drain_one_buf()
        queue = self._queue
        in_queue = self._in_queue
        swaps = 0
        while queue:
            x = queue.popleft()
            in_queue[x] = 0
            if not self.in_sol[x]:
                continue
            pair = self._find_pair(x)
            if pair is None:
                continue
            u, w = pair
            self._remove(x)
            self._insert(u)
            self._insert(w)
            swaps += 1
            self.maintain_maximality()
            self._drain_one_buf()
        return swaps

    def _pick(self, batch: list[int]) -> int | None:
        """Draw a free vertex uniformly, redrawing when it is adjacent to an
        already-forced vertex of the batch. Needs a free vertex."""
        free = self._free
        rng = self.rng
        has_edge = self.view.has_edge
        for _attempt in range(16):
            v = free[int(rng.random() * len(free))]
            for b in batch:
                if has_edge(v, b):
                    break
            else:
                return v
        return None

    def perturb(self) -> list[int]:
        """Force one or more free vertices into the solution, evicting their
        solution neighbors, then restore maximality.

        The force count c follows P(c=k) = 2^-k (fair coin until tails),
        capped. Each forced vertex is a uniform draw over the free vertices,
        and those within a batch are pairwise non-adjacent. Returns the
        forced vertices; no-op when no free vertex exists.
        """
        if not self._free:
            return []
        rng = self.rng
        c = 1
        while c < _FORCE_CAP and rng.random() < 0.5:
            c += 1
        in_sol = self.in_sol
        adj = self.view.adjacency
        forced: list[int] = []
        for _ in range(c):
            if not self._free:
                break
            v = self._pick(forced)
            if v is None:
                break
            self.touches += len(adj[v])
            for w in adj[v]:
                if in_sol[w]:
                    self._remove(w)
            self._insert(v)
            forced.append(v)
        self.maintain_maximality()
        return forced

    def audit(self) -> None:
        """Recompute tightness and independence from scratch; raise on breakage."""
        in_sol = self.in_sol
        adj = self.view.adjacency
        for v in range(self.view.vertex_count):
            t = sum(1 for u in adj[v] if in_sol[u])
            if in_sol[v] and t != 0:
                raise AssertionError(f"solution vertex {v} has a solution neighbor")
            if self.tight[v] != t:
                raise AssertionError(f"tight[{v}]={self.tight[v]} != recount {t}")
        free = [v for v in range(self.view.vertex_count) if not in_sol[v]]
        if sorted(self._free) != free:
            raise AssertionError("free list out of sync with the free vertices")
        pos = self._free_pos
        if any(pos[v] != i for i, v in enumerate(self._free)):
            raise AssertionError("free-list position out of sync")


def greedy_init(view: LiveView, rng: random.Random) -> SolutionState:
    """Build a maximal solution with the BDOne start of reducing-peeling
    (Chang, Li & Zhang, SIGMOD 2017). Degrees count undecided (free,
    0-tight, unpeeled) neighbours. While an undecided vertex of degree at
    most 1 exists, the one of least degree is inserted, which deletes its
    neighbour; that step is exact. Otherwise an undecided vertex of maximum
    degree is peeled: it leaves the graph without joining the solution.
    Either way, ties go to the vertex whose degree fell most recently, then
    to the lowest id. Last, each peeled vertex left without a solution
    neighbour is inserted, in ascending id, so the start is maximal.

    A bucket queue keeps one plain list per degree, popped from the end. A
    vertex is appended to its new bucket each time its degree falls, so the
    lists hold at most n + 2m entries and the run is O(n + m); an entry
    whose vertex is decided or whose degree has since fallen is skipped.
    Degrees only fall, so the pointer to the highest bucket only falls."""
    state = SolutionState(view, rng)
    adj = view.adjacency
    in_sol, tight = state.in_sol, state.tight
    # _insert appends the neighbours it turns 1-tight: the ones a pick
    # deletes, and any peeled ones.
    deleted = state._one_buf
    deg = [len(a) for a in adj]
    buckets: list[list[int]] = [[] for _ in range(max(max(deg, default=0), 1) + 1)]
    # Filled in descending id, so the first pops go lowest id first.
    for v in reversed(range(len(deg))):
        buckets[deg[v]].append(v)
    zero, one = buckets[0], buckets[1]
    high = len(buckets) - 1
    while True:
        if zero:
            v, d = zero.pop(), 0
        elif one:
            v, d = one.pop(), 1
        else:
            while high > 1 and not buckets[high]:
                high -= 1
            if high <= 1:
                break
            v, d = buckets[high].pop(), high
        if tight[v] or deg[v] != d:
            continue
        if d > 1:
            # Peel v: it leaves the graph without joining the solution.
            lowered = (v,)
        else:
            # Marked first, so that v's deleted neighbours skip it.
            deg[v] = -1
            state._insert(v)
            lowered = deleted
        for u in lowered:
            # A peeled neighbour lowered its neighbours' degrees when peeled.
            if deg[u] < 0:
                continue
            for t in adj[u]:
                if deg[t] >= 0 and not tight[t]:
                    d = deg[t] - 1
                    deg[t] = d
                    buckets[d].append(t)
        deleted.clear()
        # Inserted and peeled vertices are marked by degree -1.
        deg[v] = -1
    # Every vertex is now inserted, deleted (tight) or peeled. Insert the
    # free peeled ones, then queue every solution vertex for the first swap
    # exhaustion, both in ascending id.
    n = view.vertex_count
    for v in range(n):
        if not (in_sol[v] or tight[v]):
            state._insert(v)
    state._queue.extend(compress(range(n), in_sol))
    state._in_queue[:] = in_sol
    deleted.clear()
    # The start is no iteration's to undo.
    state._journal.clear()
    return state


def arw_block(state: SolutionState, m: int) -> set[int]:
    """Run m iterations of (perturb, exhaust swaps) and return the best
    solution observed, the input included, in working-graph ids.

    An iteration that ends smaller than it began is kept with probability
    1 / (1 + d * d_best), where d is what it lost and d_best how far it
    ends below the block's best, as in ARW's iterated local search; otherwise
    it is undone and counted in state.rejected. Only a worse iteration draws.
    Tracks the largest per-iteration touch count, undo included, in
    state.max_iter_touches."""
    best_mask = bytes(state.in_sol)
    best_size = state.size
    if m > 0 and state._free:
        state.exhaust_swaps()
        if state.size > best_size:
            best_mask = bytes(state.in_sol)
            best_size = state.size
        journal = state._journal
        rng = state.rng
        max_iter = 0
        for _ in range(m):
            t0 = state.touches
            before = state.size
            journal.clear()
            state.perturb()
            state.exhaust_swaps()
            size = state.size
            if size < before:
                if rng.random() * (1 + (before - size) * (best_size - size)) >= 1:
                    state._undo()
                    state.rejected += 1
            elif size > best_size:
                best_mask = bytes(state.in_sol)
                best_size = size
            dt = state.touches - t0
            if dt > max_iter:
                max_iter = dt
        state.max_iter_touches = max_iter
    return set(compress(state.view.ids, best_mask))
