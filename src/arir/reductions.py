"""Exact reduction rules, the worklist fixpoint driver, and solution lifting.

Three tiers are provided, each a name in TIERS: the light tier (degree-0/1
and unrestricted degree-2 folding), the simple tier (degree-0/1, triangle,
chordless quadrilateral, restricted degree-2 folding) used inside search
rounds, and the advanced tier (degree-0/1, triangle and unrestricted
folding, which also reduces a chordless quadrilateral, plus domination and
twins sharing an edge). The light and advanced tiers serve preprocessing.
Every rule removes vertices while preserving the optimum up to a known
offset, recorded in a replayable undo log.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import compress

from .graph import (
    StaticGraph,
    WorkingGraph,
    check_solution,
    paused_cycle_collection,
)

TIERS = ("light", "simple", "advanced")

# Ids after each tag of a kernel-log line.
_RECORD_IDS = {"K": 2, "F": 1, "D": 4}


class ReductionLog:
    """Undo log of one reduction run: the vertices fixed into the solution
    and the folds, each list in the order the rules wrote it. A fold is the
    tuple (x, u, v, w) of its D line: u had exactly the two non-adjacent
    neighbors v and w, and the three were contracted into x. Lifting a
    kernel solution through it gives a solution of the graph the log was
    produced on.

    No vertex is both fixed and consumed by a fold. A fixed vertex is dead
    from the moment it is fixed; a fold consumes three vertices that were
    alive when it ran, and only a fold's new vertex can be fixed later. So
    the fixed vertices need no common order with the folds: a lift adds them
    all at once and then undoes the folds in reverse.
    """

    __slots__ = ("fixed", "folds", "kernel_map")

    def __init__(self):
        self.fixed: list[int] = []
        self.folds: list[tuple[int, int, int, int]] = []
        # kernel id -> pre-compaction universe id, set when the alive
        # subgraph was frozen and renumbered.
        self.kernel_map: list[int] | None = None

    @property
    def fixed_count(self) -> int:
        return len(self.fixed)

    @property
    def fold_count(self) -> int:
        return len(self.folds)

    def to_lines(self) -> list[str]:
        """The K lines (if a kernel map is set), then the F, then the D lines."""
        lines = []
        if self.kernel_map is not None:
            lines.extend(f"K {i} {orig}" for i, orig in enumerate(self.kernel_map))
        lines.extend(f"F {v}" for v in self.fixed)
        lines.extend(f"D {x} {u} {v} {w}" for x, u, v, w in self.folds)
        return lines

    @classmethod
    def from_lines(cls, lines) -> "ReductionLog":
        """Read lines in any order; older logs interleave F and D lines.

        A record is its tag and exactly its count of non-negative ids, and
        the K lines name each kernel index 0..k-1 once; anything else raises
        ValueError naming the line.
        """
        log = cls()
        kernel_lines: list[tuple[int, int, int, str]] = []
        for lineno, line in enumerate(lines, start=1):
            toks = line.split()
            # A line whose first non-blank character is # is a comment; an X
            # line (an exclusion record of older logs) lifts to nothing.
            if not toks or toks[0][0] == "#" or toks[0] == "X":
                continue
            tag, args = toks[0], toks[1:]
            if len(args) != _RECORD_IDS.get(tag) or not all(map(str.isdecimal, args)):
                raise ValueError(
                    f"line {lineno} {line.strip()!r}: not a K i orig, F v or"
                    " D x u v w record"
                )
            ids = [int(t) for t in args]
            if tag == "K":
                kernel_lines.append((ids[0], ids[1], lineno, line))
            elif tag == "F":
                log.fixed.append(ids[0])
            else:
                log.folds.append(tuple(ids))
        if kernel_lines:
            k = len(kernel_lines)
            kmap = [-1] * k
            for i, orig, lineno, line in kernel_lines:
                if i >= k or kmap[i] >= 0:
                    raise ValueError(
                        f"line {lineno} {line.strip()!r}: K indices must be"
                        f" 0..{k - 1}, each once"
                    )
                kmap[i] = orig
            log.kernel_map = kmap
        return log


@dataclass(slots=True)
class KernelResult:
    """Outcome of kernelizing a graph: the irreducible remainder plus the
    bookkeeping needed to lift kernel solutions back."""

    kernel: StaticGraph
    log: ReductionLog

    @property
    def fixed_count(self) -> int:
        return self.log.fixed_count

    @property
    def fold_count(self) -> int:
        return self.log.fold_count

    def extend(self, kernel_solution: set[int]) -> set[int]:
        """Lift a kernel solution to the input graph; raise ContractError if
        it is not independent in the kernel."""
        check_solution(self.kernel, kernel_solution, maximal=False)
        return extend_solution(kernel_solution, self.log)


def rule_zero_vertex(W: WorkingGraph, v: int, log: ReductionLog) -> bool:
    """Fix an isolated vertex into the solution."""
    if not W.alive[v] or W.live_degree[v] != 0:
        return False
    log.fixed.append(v)
    W.delete((), (v,))
    return True


def rule_one_vertex(W: WorkingGraph, v: int, log: ReductionLog) -> bool:
    """Fix a degree-1 vertex and delete its closed neighborhood."""
    alive = W.alive
    if not alive[v] or W.live_degree[v] != 1:
        return False
    for u in W.adj[v]:
        if alive[u]:
            break
    W.delete((u,), (v,))
    log.fixed.append(v)
    return True


# Each rule below also takes its vertex's live neighbors as nbrs from
# _apply_first, which reads them once per examination and, at degree 2, has
# already tested whether the two are adjacent. Called without nbrs, a rule
# checks its own preconditions.


def _degree2_neighbors(W: WorkingGraph, u: int, adjacent: bool) -> list[int] | None:
    """u's two live neighbors if u is an alive 2-vertex whose neighbors are
    adjacent exactly when `adjacent` is set; otherwise None."""
    if not W.alive[u] or W.live_degree[u] != 2:
        return None
    nbrs = W.alive_neighbors(u)
    W.check_steps += 1
    return nbrs if W.adjacent(*nbrs) == adjacent else None


def rule_triangle(
    W: WorkingGraph, u: int, log: ReductionLog, nbrs: list[int] | None = None
) -> bool:
    """Fix a 2-vertex whose neighbors are adjacent; delete the triangle."""
    if nbrs is None:
        nbrs = _degree2_neighbors(W, u, adjacent=True)
        if nbrs is None:
            return False
    log.fixed.append(u)
    W.delete(nbrs, (u,))
    return True


def rule_quadrilateral(
    W: WorkingGraph, u: int, log: ReductionLog, nbrs: list[int] | None = None
) -> bool:
    """Fix both 2-vertices of a chordless 4-cycle; delete all four vertices.

    Only the simple tier calls it. Under unrestricted folding it is
    redundant: folding u leaves its partner at degree 1, and the degree-1
    rule then removes the partner and the fold's new vertex, so the same
    four vertices leave at the same offset of 2.
    """
    if nbrs is None:
        nbrs = _degree2_neighbors(W, u, adjacent=False)
        if nbrs is None:
            return False
    v1, v2 = nbrs
    # Scan N(v1) ∩ N(v2) for another 2-vertex; first found wins.
    if W.live_degree[v2] < W.live_degree[v1]:
        v1, v2 = v2, v1
    partner = -1
    for w in W.alive_neighbors(v1):
        W.check_steps += 1
        if w != u and W.live_degree[w] == 2 and W.adjacent(w, v2):
            partner = w
            break
    if partner < 0:
        return False
    log.fixed += (u, partner)
    # The partner's two live neighbors are u's, so it dies without a walk.
    W.delete(nbrs, (u, partner))
    return True


def rule_fold2(
    W: WorkingGraph,
    u: int,
    log: ReductionLog,
    restricted: bool = False,
    nbrs: list[int] | None = None,
) -> bool:
    """Fold a 2-vertex with non-adjacent neighbors into a fresh vertex.

    With restricted=True both neighbors must themselves be 2-vertices (the
    in-round variant); preprocessing uses the unrestricted form.
    """
    if nbrs is None:
        nbrs = _degree2_neighbors(W, u, adjacent=False)
        if nbrs is None:
            return False
    v, w = nbrs
    if restricted and (W.live_degree[v] != 2 or W.live_degree[w] != 2):
        return False
    x = W.fold_degree2(u, nbrs)
    log.folds.append((x, u, v, w))
    return True


def rule_domination(W: WorkingGraph, v: int, nbrs: list[int] | None = None) -> bool:
    """Exclude v when some neighbor u has its closed neighborhood inside v's:
    an optimum avoiding v then exists."""
    if nbrs is None:
        if not W.alive[v]:
            return False
        nbrs = W.alive_neighbors(v)
    live_degree = W.live_degree
    dv = len(nbrs)
    # N[v], marked once; each candidate u scans its own list against it.
    # Any dominated neighbor removes v, so the candidates need no order.
    closed = set(nbrs)
    closed.add(v)
    alive = W.alive
    adj = W.adj
    steps = 0
    fired = False
    for u in nbrs:
        steps += 1
        if live_degree[u] > dv:
            continue
        for t in adj[u]:
            if alive[t]:
                steps += 1
                if t not in closed:
                    break
        else:
            fired = True
            break
    W.check_steps += steps
    if fired:
        W.delete((v,))
    return fired


def _dominates_neighbor(W: WorkingGraph, u: int, nbrs: list[int] | None = None) -> bool:
    """Exclude the first neighbor v of u with N[u] ⊆ N[v] (reverse direction
    of rule_domination, needed so the fixpoint catches pairs whose
    containment was created by deletions near u)."""
    if nbrs is None:
        if not W.alive[u]:
            return False
        nbrs = W.alive_neighbors(u)
    live_degree = W.live_degree
    adj = W.adj
    du = len(nbrs)
    steps = 0
    for v in nbrs:
        steps += 1
        if live_degree[v] < du:
            continue
        # Every other neighbor t of u must be adjacent to v.
        for t in nbrs:
            steps += 1
            if t != v:
                a = adj[t]
                i = bisect_left(a, v)
                if i == len(a) or a[i] != v:
                    break
        else:
            W.check_steps += steps
            W.delete((v,))
            return True
    W.check_steps += steps
    return False


def rule_twin_edge(
    W: WorkingGraph, u: int, log: ReductionLog, nbrs: list[int] | None = None
) -> bool:
    """Fix two non-adjacent vertices sharing the same 3 neighbors when those
    neighbors span at least one edge; delete all five vertices."""
    if nbrs is None:
        if not W.alive[u] or W.live_degree[u] != 3:
            return False
        nbrs = W.alive_neighbors(u)
    a, b, c = nbrs
    W.check_steps += 1
    if not (W.adjacent(a, b) or W.adjacent(a, c) or W.adjacent(b, c)):
        return False
    twin = -1
    for t in W.alive_neighbors(a):
        W.check_steps += 1
        if (
            t != u
            and W.live_degree[t] == 3
            and not W.adjacent(t, u)
            and W.alive_neighbors(t) == nbrs
        ):
            twin = t
            break
    if twin < 0:
        return False
    log.fixed += (u, twin)
    # The twin's live neighbors are u's, so it dies without a walk.
    W.delete(nbrs, (u, twin))
    return True


def _apply_first(W: WorkingGraph, v: int, tier: str, log: ReductionLog) -> bool:
    # A rule that does not fire changes nothing, so v's degree and live
    # neighbors are read once, and only the rules that can fire at them are
    # called. Every tier has the degree-0 and degree-1 rules and one of the
    # two folds, and in a tier with the unrestricted fold some degree-2 rule
    # always fires, so the domination and twin rules only ever see degree 3
    # and above.
    W.check_steps += 2
    d = W.live_degree[v]
    if d == 0:
        return rule_zero_vertex(W, v, log)
    if d == 1:
        return rule_one_vertex(W, v, log)
    if d == 2:
        nbrs = W.alive_neighbors(v)
        W.check_steps += 1
        if W.adjacent(*nbrs):
            return tier != "light" and rule_triangle(W, v, log, nbrs)
        # The unrestricted fold covers a chordless quadrilateral (see
        # rule_quadrilateral); only the simple tier's restricted fold does
        # not, so only that tier looks for one.
        if tier != "simple":
            return rule_fold2(W, v, log, nbrs=nbrs)
        if rule_quadrilateral(W, v, log, nbrs) or rule_fold2(
            W, v, log, restricted=True, nbrs=nbrs
        ):
            return True
        # A drop of v's degree to 2 can enable a fold centered at a
        # 2-vertex neighbor whose other neighbor already had degree 2.
        for u in nbrs:
            if W.live_degree[u] == 2 and rule_fold2(W, u, log, restricted=True):
                return True
        return False
    if tier != "advanced":
        return False
    nbrs = W.alive_neighbors(v)
    return (
        rule_domination(W, v, nbrs)
        or _dominates_neighbor(W, v, nbrs)
        or (d == 3 and rule_twin_edge(W, v, log, nbrs))
    )


def run_to_fixpoint(
    W: WorkingGraph, tier: str = "simple"
) -> tuple[list[int], ReductionLog]:
    """Apply the tier's rules until none fires anywhere.

    Worklist-driven: after a rule fires, only vertices whose neighborhood
    changed are re-examined. There are two worklists: `low` takes vertices
    whose live degree is at most 2 when they are queued, `high` the rest,
    and `low` is always drained first; a vertex already on a list stays
    there. So the cheap degree-0/1/2 rules settle the degrees around a
    vertex before the domination and twin checks examine it. Both lists are
    seeded in ascending id, so kernels are deterministic for a fixed input.
    Returns the log's list of vertices fixed into the solution (log.fixed
    itself) and the undo log.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
    log = ReductionLog()
    W.touched.clear()
    alive = W.alive
    live_degree = W.live_degree
    low, high = deque(), deque()
    # One pass over the alive ids splits them; it costs less than a
    # compress pass per list.
    for v in compress(range(len(alive)), alive):
        (low if live_degree[v] < 3 else high).append(v)
    in_queue = alive.copy()
    # Below the advanced tier no rule fires at degree 3 or more, so such a
    # vertex is popped and passed over without a call; it stays queued as
    # before, so the examination order does not change.
    advanced = tier == "advanced"
    while queue := low or high:
        v = queue.popleft()
        in_queue[v] = False
        if not alive[v] or (live_degree[v] > 2 and not advanced):
            continue
        if _apply_first(W, v, tier, log):
            touched = W.touched
            if len(in_queue) < len(alive):
                in_queue.extend([False] * (len(alive) - len(in_queue)))
            for t in touched:
                if alive[t] and not in_queue[t]:
                    in_queue[t] = True
                    (low if live_degree[t] < 3 else high).append(t)
            touched.clear()
    return log.fixed, log


@paused_cycle_collection
def kernelize(graph: StaticGraph, ruleset: str = "advanced") -> KernelResult:
    """Reduce a graph to its irreducible kernel under the named tier of rules
    and renumber the survivors into a compact StaticGraph.

    The cyclic garbage collector is paused for the call (see
    paused_cycle_collection). It is process-wide, so cyclic garbage of
    other threads waits until the call returns."""
    W = WorkingGraph(graph)
    _, log = run_to_fixpoint(W, ruleset)
    kernel, orig_ids = W.freeze()
    log.kernel_map = orig_ids
    return KernelResult(kernel=kernel, log=log)


def extend_solution(kernel_solution: set[int], log: ReductionLog) -> set[int]:
    """Lift a kernel solution back through the log.

    Every fixed vertex joins the solution, then the folds are undone in
    reverse: each resolves to its merged pair or its folded center. The
    result gains exactly fixed_count + fold_count vertices.
    """
    if log.kernel_map is not None:
        kmap = log.kernel_map
        solution = {kmap[v] for v in kernel_solution}
    else:
        solution = set(kernel_solution)
    solution.update(log.fixed)
    for x, u, v, w in reversed(log.folds):
        if x in solution:
            solution.remove(x)
            solution.add(v)
            solution.add(w)
        else:
            solution.add(u)
    return solution
