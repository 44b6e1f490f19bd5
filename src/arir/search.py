"""Perturbation-and-swap local search over a frozen working graph.

The search keeps a maximal independent set and improves it in blocks of
iterations. Each iteration forces one or more long-absent vertices into the
solution, evicts their solution neighbors, and then exhausts (1,2)-swaps: a
solution vertex leaves while two of its non-adjacent, singly-covered
neighbors join.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

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


# A perturbation picks uniformly among the oldest free_count // _WINDOW_SHARE
# + 1 entries of the age queue, about the rank a 64-draw tournament's winner
# would have.
_WINDOW_SHARE = 32
# The age queue is compacted once its dead prefix is over half of it and
# longer than this.
_COMPACT_MIN = 4096
# Most vertices one perturbation forces.
_FORCE_CAP = 32


class SolutionState:
    """Independent set plus the counters the search needs: per-vertex
    tightness (number of solution neighbors), last-removal timestamps, an
    age queue of free vertices, and a seeded RNG. Vertices are the view's
    compact ids. Single-owner, single-threaded.

    The age queue is an append-only list with lazy deletion. A vertex is
    appended when it leaves the solution, right after its last_out is
    stamped, so live entries are in nondecreasing last_out order. Entry i is
    live iff _age_pos[age[i]] == i; solution vertices have _age_pos -1. No
    live entry precedes _age_head.

    swap_free records that no (1,2)-swap remains once the pending tightness
    transitions are drained, so an incremental exhaust_swaps() suffices; the
    first seeded exhaustion sets it and incremental exhaustion keeps it.
    """

    __slots__ = (
        "view",
        "rng",
        "in_sol",
        "tight",
        "last_out",
        "size",
        "iteration",
        "free_count",
        "swap_free",
        "touches",
        "max_iter_touches",
        "_age",
        "_age_pos",
        "_age_head",
        "_zero_heap",
        "_one_buf",
        "_queue",
        "_in_queue",
        "_mark",
        "_stamp",
    )

    def __init__(self, view: LiveView, rng: random.Random):
        n = view.vertex_count
        self.view = view
        self.rng = rng
        self.in_sol = bytearray(n)
        self.tight = [0] * n
        self.last_out = [0] * n
        self.size = 0
        self.iteration = 1
        # Every vertex starts free with age 0; the shuffle keeps the first
        # picks from favouring low ids.
        age = list(range(n))
        rng.shuffle(age)
        self._age = age
        self._age_pos = [-1] * n
        for i, v in enumerate(age):
            self._age_pos[v] = i
        self._age_head = 0
        self.free_count = len(age)
        self.swap_free = False
        self.touches = 0
        self.max_iter_touches = 0
        self._zero_heap: list[int] = []
        self._one_buf: list[int] = []
        self._queue: deque[int] = deque()
        self._in_queue = bytearray(n)
        self._mark = [0] * n
        self._stamp = 0

    def solution_set(self) -> set[int]:
        """The solution in working-graph ids."""
        in_sol = self.in_sol
        return {w for v, w in enumerate(self.view.ids) if in_sol[v]}

    def _insert(self, v: int) -> None:
        self.in_sol[v] = 1
        self.size += 1
        self._age_pos[v] = -1
        self.free_count -= 1
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
        self.size -= 1
        self.last_out[v] = self.iteration
        age = self._age
        self._age_pos[v] = len(age)
        age.append(v)
        self.free_count += 1
        adj = self.view.adjacency[v]
        self.touches += len(adj)
        tight = self.tight
        zero_heap = self._zero_heap
        one_buf = self._one_buf
        for w in adj:
            t = tight[w] - 1
            tight[w] = t
            if t == 0:
                heappush(zero_heap, w)
            elif t == 1:
                one_buf.append(w)

    def maintain_maximality(self, full_scan: bool = True) -> int:
        """Insert free 0-tight vertices, lowest id first, until none remain.

        Incremental callers (full_scan=False) rely on the candidate heap fed
        by prior removals; the public form rescans all free vertices.
        """
        if full_scan:
            in_sol = self.in_sol
            tight = self.tight
            self._zero_heap = [
                v
                for v in range(self.view.vertex_count)
                if not in_sol[v] and tight[v] == 0
            ]
            heapify(self._zero_heap)
        zero_heap = self._zero_heap
        inserted = 0
        while zero_heap:
            v = heappop(zero_heap)
            if self.in_sol[v] or self.tight[v] != 0:
                continue
            self._insert(v)
            inserted += 1
        return inserted

    def _enqueue(self, x: int) -> None:
        if not self._in_queue[x]:
            self._in_queue[x] = 1
            self._queue.append(x)

    def _drain_one_buf(self) -> None:
        # A vertex that just became 1-tight joins the swap bucket of its sole
        # solution neighbor; requeue that neighbor.
        buf = self._one_buf
        in_sol = self.in_sol
        tight = self.tight
        adj = self.view.adjacency
        while buf:
            t = buf.pop()
            if in_sol[t] or tight[t] != 1:
                continue
            a = adj[t]
            self.touches += len(a)
            for y in a:
                if in_sol[y]:
                    self._enqueue(y)
                    break

    def _find_pair(self, x: int) -> tuple[int, int] | None:
        """Two non-adjacent 1-tight neighbors of solution vertex x, if any.

        Bucket members are exactly the free neighbors with tightness 1 (their
        sole solution neighbor is necessarily x). Costs O(d(x) + sum of
        bucket degrees), which keeps a full sweep within O(edge count).
        """
        adj = self.view.adjacency
        adj_x = adj[x]
        tight = self.tight
        self.touches += len(adj_x)
        bucket = [u for u in adj_x if tight[u] == 1]
        if len(bucket) < 2:
            return None
        mark = self._mark
        self._stamp += 1
        s = self._stamp
        for u in bucket:
            mark[u] = s
        need = len(bucket) - 1
        for u in bucket:
            adj_u = adj[u]
            self.touches += len(adj_u)
            c = 0
            for y in adj_u:
                if mark[y] == s:
                    c += 1
            if c < need:
                self._stamp += 1
                s2 = self._stamp
                for y in adj_u:
                    mark[y] = s2
                for w in bucket:
                    if w != u and mark[w] != s2:
                        return (u, w)
        return None

    def exhaust_swaps(self, seed_all: bool = False) -> int:
        """Apply (1,2)-swaps until none applies to any queued solution vertex.

        With seed_all, every current solution vertex is examined, which makes
        the exhaustion complete from any starting state and sets swap_free;
        afterwards the queue is fed incrementally by tightness transitions.
        """
        if seed_all:
            for v in range(self.view.vertex_count):
                if self.in_sol[v]:
                    self._enqueue(v)
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
            self.maintain_maximality(full_scan=False)
            self._drain_one_buf()
        if seed_all:
            self.swap_free = True
        return swaps

    def _age_pick(self, batch: list[int]) -> int | None:
        """Pick a free vertex biased toward the oldest removal timestamp: one
        uniform draw over the oldest window of the age queue, falling back to
        the oldest live entry on a dead slot. Redraw when the pick is
        adjacent to an already-forced vertex. Needs free_count >= 1."""
        pos = self._age_pos
        age = self._age
        h = self._age_head
        while pos[age[h]] != h:
            h += 1
        if h > _COMPACT_MIN and 2 * h > len(age):
            self._compact()
            age = self._age
            h = 0
        self._age_head = h
        # The window holds at most free_count entries, so it ends inside the
        # queue: at least free_count live entries lie at or after h.
        window = self.free_count // _WINDOW_SHARE + 1
        rng = self.rng
        has_edge = self.view.has_edge
        for _attempt in range(16):
            i = h + int(rng.random() * window)
            v = age[i]
            if pos[v] != i:
                v = age[h]
            for b in batch:
                if has_edge(v, b):
                    break
            else:
                return v
        return None

    def _compact(self) -> None:
        """Drop the dead entries of the age queue, keeping live ones in order."""
        pos = self._age_pos
        live = [v for i, v in enumerate(self._age) if pos[v] == i]
        for i, v in enumerate(live):
            pos[v] = i
        self._age = live
        self._age_head = 0

    def perturb(self) -> set[int]:
        """Force one or more free vertices into the solution, evicting their
        solution neighbors, then restore maximality.

        The force count c follows P(c=k) = 2^-k (fair coin until tails),
        capped; forced vertices within a batch are pairwise non-adjacent.
        Returns the forced set; no-op when no free vertex exists.
        """
        if not self.free_count:
            return set()
        rng = self.rng
        c = 1
        while c < _FORCE_CAP and rng.random() < 0.5:
            c += 1
        forced: list[int] = []
        for _ in range(c):
            if not self.free_count:
                break
            v = self._age_pick(forced)
            if v is None:
                break
            self._force_insert(v)
            forced.append(v)
        self.maintain_maximality(full_scan=False)
        return set(forced)

    def _force_insert(self, v: int) -> None:
        adj = self.view.adjacency[v]
        self.touches += len(adj)
        in_sol = self.in_sol
        evicted = [w for w in adj if in_sol[w]]
        for w in evicted:
            self._remove(w)
        self._insert(v)

    def audit(self) -> None:
        """Recompute tightness and independence from scratch; raise on breakage."""
        in_sol = self.in_sol
        adj = self.view.adjacency
        size = 0
        for v in range(self.view.vertex_count):
            t = sum(1 for u in adj[v] if in_sol[u])
            if in_sol[v]:
                size += 1
                if t != 0:
                    raise AssertionError(f"solution vertex {v} has a solution neighbor")
            if self.tight[v] != t:
                raise AssertionError(f"tight[{v}]={self.tight[v]} != recount {t}")
        if size != self.size:
            raise AssertionError(f"size {self.size} != recount {size}")
        free = [v for v in range(self.view.vertex_count) if not in_sol[v]]
        if self.free_count != len(free):
            raise AssertionError(f"free_count {self.free_count} != recount {len(free)}")
        # Exactly one live entry per free vertex, none before the head, and
        # live entries in nondecreasing age.
        age, pos = self._age, self._age_pos
        live = [v for i, v in enumerate(age) if pos[v] == i]
        if any(pos[v] == i for i, v in enumerate(age[: self._age_head])):
            raise AssertionError("live age-queue entry before the head")
        if sorted(live) != free:
            raise AssertionError("age queue out of sync with the free vertices")
        last_out = self.last_out
        if any(last_out[u] > last_out[w] for u, w in zip(live, live[1:])):
            raise AssertionError("age queue out of age order")


def greedy_init(view: LiveView, rng: random.Random) -> SolutionState:
    """Build a maximal solution by repeatedly taking a minimum-degree vertex
    and deleting its closed neighborhood (on scratch counters); ties go to
    the lowest id."""
    state = SolutionState(view, rng)
    adj = view.adjacency
    n = view.vertex_count
    deg = [len(a) for a in adj]
    status = bytearray(n)  # 0 undecided, 1 selected, 2 deleted
    heap = [(d, v) for v, d in enumerate(deg)]
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        if status[v] != 0 or d != deg[v]:
            continue
        status[v] = 1
        for u in adj[v]:
            if status[u] == 0:
                status[u] = 2
                for t in adj[u]:
                    if status[t] == 0:
                        deg[t] -= 1
                        heappush(heap, (deg[t], t))
    for v in range(n):
        if status[v] == 1:
            state._insert(v)
    state._zero_heap.clear()
    state._one_buf.clear()
    return state


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


@dataclass(slots=True)
class BestTracker:
    """Best solution observed during a search block, in working-graph ids;
    never below the input."""

    best_set: set[int]
    best_size: int


def arw_block(state: SolutionState, m: int) -> BestTracker:
    """Run m iterations of (perturb, exhaust swaps) and report the best
    solution observed, the input included. Tracks the largest per-iteration
    touch count in state.max_iter_touches. The full swap rescan at the start
    runs only while the state is not yet known to be swap-free."""
    best_mask = bytes(state.in_sol)
    best_size = state.size
    if m > 0 and state.size < state.view.vertex_count:
        state.exhaust_swaps(seed_all=not state.swap_free)
        if state.size > best_size:
            best_mask = bytes(state.in_sol)
            best_size = state.size
        max_iter = 0
        for _ in range(m):
            state.iteration += 1
            t0 = state.touches
            state.perturb()
            state.exhaust_swaps()
            dt = state.touches - t0
            if dt > max_iter:
                max_iter = dt
            if state.size > best_size:
                best_mask = bytes(state.in_sol)
                best_size = state.size
        state.max_iter_touches = max_iter
    best = {w for v, w in enumerate(state.view.ids) if best_mask[v]}
    return BestTracker(best_set=best, best_size=best_size)
