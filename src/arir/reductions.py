"""Exact reduction rules, the worklist fixpoint driver, and solution lifting.

Two tiers are provided: the simple tier (degree-0/1, triangle, chordless
quadrilateral, restricted degree-2 folding) used inside search rounds, and
the advanced tier (unrestricted folding, domination, twins sharing an edge)
used for preprocessing. Every rule removes vertices while preserving the
optimum up to a known offset, recorded in a replayable undo log.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import ContractError, FoldRecord, StaticGraph, WorkingGraph

RULESETS = {
    "simple": frozenset({"zero", "one", "triangle", "quadrilateral", "fold_restricted"}),
    "advanced": frozenset(
        {"zero", "one", "triangle", "quadrilateral", "fold", "domination", "twin_edge"}
    ),
    "light": frozenset({"zero", "one", "fold"}),
}


@dataclass(frozen=True, slots=True)
class FixedInSolution:
    """Vertex forced into the solution."""

    vertex: int


class ReductionLog:
    """Ordered undo records; replaying in reverse lifts a kernel solution
    back to the graph the log was produced on."""

    __slots__ = ("records", "fixed_count", "fold_count", "kernel_map")

    def __init__(self):
        self.records: list[FixedInSolution | FoldRecord] = []
        self.fixed_count = 0
        self.fold_count = 0
        # kernel id -> pre-compaction universe id, set when the alive
        # subgraph was frozen and renumbered.
        self.kernel_map: list[int] | None = None

    def add_fixed(self, vertex: int) -> None:
        self.records.append(FixedInSolution(vertex))
        self.fixed_count += 1

    def add_fold(self, record: FoldRecord) -> None:
        self.records.append(record)
        self.fold_count += 1

    def __len__(self) -> int:
        return len(self.records)

    def to_lines(self) -> list[str]:
        lines = []
        if self.kernel_map is not None:
            lines.extend(f"K {i} {orig}" for i, orig in enumerate(self.kernel_map))
        for rec in self.records:
            if isinstance(rec, FixedInSolution):
                lines.append(f"F {rec.vertex}")
            else:
                v, w = rec.merged
                lines.append(f"D {rec.new_vertex} {rec.folded} {v} {w}")
        return lines

    @classmethod
    def from_lines(cls, lines) -> "ReductionLog":
        log = cls()
        kmap: list[int] = []
        for line in lines:
            toks = line.split()
            # An X line (an exclusion record of older logs) lifts to nothing.
            if not toks or toks[0] in ("#", "X"):
                continue
            tag = toks[0]
            if tag == "K":
                kmap.append(int(toks[2]))
            elif tag == "F":
                log.add_fixed(int(toks[1]))
            elif tag == "D":
                x, u, v, w = (int(t) for t in toks[1:5])
                log.add_fold(FoldRecord(new_vertex=x, folded=u, merged=(v, w)))
            else:
                raise ValueError(f"unknown reduction record {line!r}")
        if kmap:
            log.kernel_map = kmap
        return log


@dataclass(slots=True)
class KernelResult:
    """Outcome of kernelizing a graph: the irreducible remainder plus the
    bookkeeping needed to lift kernel solutions back."""

    kernel: StaticGraph
    log: ReductionLog
    fixed_count: int
    fold_count: int

    def extend(self, kernel_solution: set[int]) -> set[int]:
        return extend_solution(kernel_solution, self.log, kernel=self.kernel)


def rule_zero_vertex(W: WorkingGraph, v: int, log: ReductionLog) -> bool:
    """Fix an isolated vertex into the solution."""
    if not W.alive[v] or W.live_degree[v] != 0:
        return False
    log.add_fixed(v)
    W.kill(v)
    return True


def rule_one_vertex(W: WorkingGraph, v: int, log: ReductionLog) -> bool:
    """Fix a degree-1 vertex and delete its closed neighborhood."""
    if not W.alive[v] or W.live_degree[v] != 1:
        return False
    W.delete_closed_neighborhood(v)
    log.add_fixed(v)
    return True


def rule_triangle(W: WorkingGraph, u: int, log: ReductionLog) -> bool:
    """Fix a 2-vertex whose neighbors are adjacent; delete the triangle."""
    if not W.alive[u] or W.live_degree[u] != 2:
        return False
    v, w = W.alive_neighbors(u)
    W.check_steps += 1
    if not W.adjacent(v, w):
        return False
    log.add_fixed(u)
    W.delete_closed_neighborhood(u)
    return True


def rule_quadrilateral(W: WorkingGraph, u: int, log: ReductionLog) -> bool:
    """Fix both 2-vertices of a chordless 4-cycle; delete all four vertices."""
    if not W.alive[u] or W.live_degree[u] != 2:
        return False
    v1, v2 = W.alive_neighbors(u)
    W.check_steps += 1
    if W.adjacent(v1, v2):
        return False
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
    log.add_fixed(u)
    log.add_fixed(partner)
    W.delete_closed_neighborhood(u)
    W.kill(partner)
    return True


def rule_fold2(
    W: WorkingGraph,
    u: int,
    log: ReductionLog,
    restricted: bool = False,
) -> bool:
    """Fold a 2-vertex with non-adjacent neighbors into a fresh vertex.

    With restricted=True both neighbors must themselves be 2-vertices (the
    in-round variant); preprocessing uses the unrestricted form.
    """
    if not W.alive[u] or W.live_degree[u] != 2:
        return False
    v, w = W.alive_neighbors(u)
    if restricted and (W.live_degree[v] != 2 or W.live_degree[w] != 2):
        return False
    W.check_steps += 1
    if W.adjacent(v, w):
        return False
    log.add_fold(W.fold_degree2(u))
    return True


def _closed_subset(W: WorkingGraph, u: int, v: int) -> bool:
    """True iff every alive neighbor of u other than v is adjacent to v."""
    alive = W.alive
    for t in W.adj[u]:
        if alive[t]:
            W.check_steps += 1
            if t != v and not W.adjacent(t, v):
                return False
    return True


def rule_domination(W: WorkingGraph, v: int) -> bool:
    """Exclude v when some neighbor u has its closed neighborhood inside v's:
    an optimum avoiding v then exists."""
    if not W.alive[v]:
        return False
    dv = W.live_degree[v]
    nbrs = sorted(W.alive_neighbors(v), key=lambda t: W.live_degree[t])
    for u in nbrs:
        W.check_steps += 1
        if W.live_degree[u] > dv:
            break
        if _closed_subset(W, u, v):
            W.kill(v)
            return True
    return False


def _dominates_neighbor(W: WorkingGraph, u: int) -> bool:
    """Exclude some neighbor v of u with N[u] ⊆ N[v] (reverse direction of
    rule_domination, needed so the fixpoint catches pairs whose containment
    was created by deletions near u)."""
    if not W.alive[u]:
        return False
    du = W.live_degree[u]
    for v in W.alive_neighbors(u):
        W.check_steps += 1
        if W.live_degree[v] >= du and _closed_subset(W, u, v):
            W.kill(v)
            return True
    return False


def rule_twin_edge(W: WorkingGraph, u: int, log: ReductionLog) -> bool:
    """Fix two non-adjacent vertices sharing the same 3 neighbors when those
    neighbors span at least one edge; delete all five vertices."""
    if not W.alive[u] or W.live_degree[u] != 3:
        return False
    a, b, c = W.alive_neighbors(u)
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
            and W.alive_neighbors(t) == [a, b, c]
        ):
            twin = t
            break
    if twin < 0:
        return False
    log.add_fixed(u)
    log.add_fixed(twin)
    W.delete_closed_neighborhood(u)
    W.kill(twin)
    return True


def _apply_first(W: WorkingGraph, v: int, rules: frozenset, log: ReductionLog) -> bool:
    W.check_steps += 2
    if "zero" in rules and rule_zero_vertex(W, v, log):
        return True
    if "one" in rules and rule_one_vertex(W, v, log):
        return True
    if "triangle" in rules and rule_triangle(W, v, log):
        return True
    if "quadrilateral" in rules and rule_quadrilateral(W, v, log):
        return True
    if "fold" in rules and rule_fold2(W, v, log):
        return True
    if "fold_restricted" in rules:
        if rule_fold2(W, v, log, restricted=True):
            return True
        # A drop of v's degree to 2 can enable a fold centered at a 2-vertex
        # neighbor whose other neighbor already had degree 2.
        if W.live_degree[v] == 2:
            for u in W.alive_neighbors(v):
                if W.live_degree[u] == 2 and rule_fold2(W, u, log, restricted=True):
                    return True
    if "domination" in rules:
        if rule_domination(W, v):
            return True
        if _dominates_neighbor(W, v):
            return True
    if "twin_edge" in rules and rule_twin_edge(W, v, log):
        return True
    return False


def run_to_fixpoint(
    W: WorkingGraph, tier: str = "simple"
) -> tuple[set[int], ReductionLog]:
    """Apply the tier's rules until none fires anywhere.

    Worklist-driven: after a rule fires, only vertices whose neighborhood
    changed are re-examined. The worklist is FIFO, seeded in ascending id, so
    kernels are deterministic for a fixed input. Returns the set of vertices
    fixed into the solution and the undo log.
    """
    rules = RULESETS[tier]
    log = ReductionLog()
    W.touched.clear()
    alive = W.alive
    queue = deque(v for v in range(len(alive)) if alive[v])
    in_queue = [True if alive[v] else False for v in range(len(alive))]
    while queue:
        v = queue.popleft()
        in_queue[v] = False
        if not alive[v]:
            continue
        if _apply_first(W, v, rules, log):
            touched = W.touched
            if len(in_queue) < len(alive):
                in_queue.extend([False] * (len(alive) - len(in_queue)))
            for t in touched:
                if alive[t] and not in_queue[t]:
                    in_queue[t] = True
                    queue.append(t)
            touched.clear()
    W.touched.clear()
    fixed = {rec.vertex for rec in log.records if isinstance(rec, FixedInSolution)}
    return fixed, log


def kernelize(graph: StaticGraph, ruleset: str = "advanced") -> KernelResult:
    """Reduce a graph to its irreducible kernel under the named tier of rules
    and renumber the survivors into a compact StaticGraph."""
    W = WorkingGraph(graph)
    _, log = run_to_fixpoint(W, ruleset)
    kernel, orig_ids = W.freeze()
    log.kernel_map = orig_ids
    return KernelResult(
        kernel=kernel, log=log, fixed_count=log.fixed_count, fold_count=log.fold_count
    )


def extend_solution(
    kernel_solution: set[int],
    log: ReductionLog,
    kernel: StaticGraph | None = None,
) -> set[int]:
    """Lift a kernel solution back through the log.

    Replayed in reverse: a fixed vertex rejoins the solution, a fold resolves
    to its merged pair or its folded center. The
    result gains exactly fixed_count + fold_count vertices.
    """
    if kernel is not None:
        for v in kernel_solution:
            for u in kernel.adjacency[v]:
                if u in kernel_solution:
                    raise ContractError(
                        f"kernel solution is not independent: edge {v}-{u}"
                    )
    if log.kernel_map is not None:
        kmap = log.kernel_map
        solution = {kmap[v] for v in kernel_solution}
    else:
        solution = set(kernel_solution)
    for rec in reversed(log.records):
        if isinstance(rec, FixedInSolution):
            solution.add(rec.vertex)
        elif isinstance(rec, FoldRecord):
            if rec.new_vertex in solution:
                solution.remove(rec.new_vertex)
                solution.update(rec.merged)
            else:
                solution.add(rec.folded)
    return solution
