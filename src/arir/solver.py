"""Framework orchestration: kernelize, search in blocks, restart rounds on
stagnation, fix the running intersection of recorded solutions, and lift the
final answer back to the input graph.

A run searches in blocks of m iterations, and after every n // m blocks a
stagnation test judges the period: improvement anywhere in it resets the
restart probability p to 0; otherwise p grows by 0.01 and a restart fires
with probability p. Each test records the search's current local optimum.
On restart, the vertices common to every solution recorded this round are
fixed into the solution, their closed neighborhood is deleted from the
frozen kernel, and search starts fresh on the remainder.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass

from .graph import (
    StaticGraph,
    WorkingGraph,
    check_solution,
    paused_cycle_collection,
)
from .reductions import (
    ReductionLog,
    extend_solution,
    kernelize,
    run_to_fixpoint,
)
from .search import LiveView, SolutionState, arw_block, greedy_init

log = logging.getLogger("arir")

VARIANTS = ("arir1", "arir2", "arir3", "arw")


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Tunables for one solver run, checked when the config is made: a bad
    value raises ValueError, so every config that exists is valid.

    n, the stagnation-test period in iterations (default 10 * m), is resolved
    when the config is made: rounded up to whole blocks of m, and each test
    judges every block of its period. `replace(cfg, m=...)` starts from the
    n already resolved, not from 10 * the new m; pass n too to change it.
    m and seed are ints, n, max_blocks and target_size ints or None, and
    cutoff_seconds an int or a float, finite and positive unless max_blocks
    is set; max_blocks switches the cutoff from wall-clock seconds to an
    exact block count (deterministic end-to-end).
    target_size stops early once the incumbent reaches it.
    """

    variant: str = "arir2"
    m: int = 10_000
    n: int | None = None
    cutoff_seconds: float = 10.0
    seed: int = 1
    max_blocks: int | None = None
    target_size: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        for name in ("m", "seed", "n", "max_blocks", "target_size"):
            value = getattr(self, name)
            if type(value) is not int and (value is not None or name in ("m", "seed")):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        n = self.n if self.n is not None else 10 * self.m
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if type(self.cutoff_seconds) not in (int, float):
            raise ValueError(f"cutoff must be a number, got {self.cutoff_seconds!r}")
        if self.max_blocks is None and not (
            math.isfinite(self.cutoff_seconds) and self.cutoff_seconds > 0
        ):
            raise ValueError(
                f"cutoff must be finite and positive, got {self.cutoff_seconds}"
            )
        if self.max_blocks is not None and self.max_blocks < 0:
            raise ValueError(f"max_blocks must be >= 0, got {self.max_blocks}")
        if self.target_size is not None and self.target_size < 0:
            raise ValueError(f"target_size must be >= 0, got {self.target_size}")
        object.__setattr__(self, "n", ((n + self.m - 1) // self.m) * self.m)


def adaptive_test(
    p_centi: int, improved: bool, rng: random.Random
) -> tuple[int, bool]:
    """One stagnation test on the restart probability p, held in integer
    hundredths so the multiple-of-0.01 invariant is exact.

    Improvement resets p to 0; otherwise p grows by 0.01 (capped at 1) and a
    restart fires with probability p. Returns the new p and whether to
    restart.
    """
    if improved:
        return 0, False
    p_centi = min(p_centi + 1, 100)
    return p_centi, rng.random() < p_centi / 100.0


def rir_reduce(
    frozen_kernel: StaticGraph, intersection: set[int] | None
) -> tuple[set[int], WorkingGraph]:
    """Fix the recorded intersection and rebuild the working graph as the
    frozen kernel minus the closed neighborhood of the fixed set. Deletion
    always starts from the frozen kernel, never from a previous reduction."""
    S = set(intersection) if intersection is not None else set()
    working = WorkingGraph(frozen_kernel)
    # S is independent, so N(S) is the union of its lists.
    working.delete(set().union(*map(frozen_kernel.adjacency.__getitem__, S)), S)
    # Nothing reads which vertices the deletion touched: the in-round
    # fixpoint starts from every vertex.
    working.touched.clear()
    return S, working


@dataclass(slots=True)
class RoundState:
    """One search round over the frozen kernel: the intersection-fixed set S,
    the round's reduction log, the search state (a snapshot of the working
    graph left after deleting N[S]) and the round's best solution (in
    working-graph ids), plus the intersection and the union of the solutions
    recorded this round, in working-graph ids (None until the first
    record)."""

    S: set[int]
    round_log: ReductionLog
    state: SolutionState
    current_best: set[int]
    common: set[int] | None = None
    seen: set[int] | None = None

    @classmethod
    def begin(
        cls,
        S: set[int],
        working: WorkingGraph,
        round_log: ReductionLog,
        rng: random.Random,
    ) -> "RoundState":
        """Start a round on a reduced working graph with a greedy solution.
        The round keeps only the snapshot, so the working graph is freed."""
        state = greedy_init(LiveView.from_working(working), rng)
        return cls(S, round_log, state, state.solution_set())

    def record(self, solution: set[int]) -> None:
        """Add a working-graph solution to the round's records."""
        if self.common is None:
            self.common = set(solution)
            self.seen = set(solution)
        else:
            self.common &= solution
            self.seen |= solution

    @property
    def intersection(self) -> set[int] | None:
        """The intersection of the recorded solutions, each lifted onto the
        frozen kernel: round folds are resolved and round-fixed vertices
        included, but not S, so a later intersection can release previously
        fixed vertices. None before the first record.

        A lift puts each vertex in always (a fixed vertex), exactly when one
        working vertex z is in, or exactly when z is out (a fold gives its
        new vertex's membership to the merged pair and its negation to the
        center, and nested folds compose). So a vertex is in every lifted
        record iff it is fixed, its z is in every record, or its z is in
        none: the lifts of the intersection and of the union agree on
        exactly those vertices."""
        if self.common is None:
            return None
        return extend_solution(self.common, self.round_log) & extend_solution(
            self.seen, self.round_log
        )

    def lift(self, solution: set[int]) -> set[int]:
        """Lift a working-graph solution onto the frozen kernel: undo the
        round's reductions, then add the intersection-fixed set."""
        lifted = extend_solution(solution, self.round_log)
        lifted |= self.S
        return lifted


def restart_round(
    frozen_kernel: StaticGraph, rs: RoundState, config: RunConfig, rng: random.Random
) -> RoundState:
    """Begin a fresh round: fix the intersection recorded in rs (lifted
    here, once, through rs's round log), delete its closed neighborhood from
    the frozen kernel, optionally run the simple reduction tier on the
    remainder, and reinitialize the search greedily."""
    S, working = rir_reduce(frozen_kernel, rs.intersection)
    round_log = ReductionLog()
    if config.variant == "arir3":
        _, round_log = run_to_fixpoint(working, tier="simple")
    return RoundState.begin(S, working, round_log, rng)


@dataclass(slots=True)
class RunResult:
    solution: set[int]
    stats: dict


@paused_cycle_collection
def run(graph: StaticGraph, config: RunConfig) -> RunResult:
    """Solve one instance: kernelize by variant, then search under the cutoff.

    Returns the best solution found, lifted to the input graph and verified
    independent and maximal, plus a stats record.

    The cyclic garbage collector is paused for the call (see
    paused_cycle_collection). It is process-wide, so cyclic garbage of
    other threads waits until the call returns.
    """
    t_start = time.perf_counter()
    rng = random.Random(config.seed)
    kern = kernelize(graph, "light" if config.variant == "arir1" else "advanced")
    offset = kern.fixed_count + kern.fold_count
    log.info(
        "kernel: %d of %d vertices remain, %d solution vertices fixed",
        kern.kernel.vertex_count,
        graph.vertex_count,
        offset,
    )

    GK = kern.kernel
    rs = RoundState.begin(set(), WorkingGraph(GK), ReductionLog(), rng)
    # The best solution of all rounds, on the frozen kernel.
    best = rs.lift(rs.current_best)
    t_best = time.perf_counter() - t_start
    # The first round's start lifted to the input graph: every fixed vertex
    # and every fold adds one vertex to a lifted solution.
    start_size = len(best) + offset

    # The stagnation test falls after every period-th block (blocks counts
    # across rounds) and judges the whole period; arw never tests.
    period = 0 if config.variant == "arw" else config.n // config.m
    p_centi = 0
    period_improved = False
    blocks = 0
    restarts = 0
    # Iterations undone by finished rounds' searches.
    rejected = 0
    # Rounds that begin on a snapshot with no vertex left to search.
    empty_rounds = int(rs.state.view.vertex_count == 0)
    # An empty kernel is solved by kernelization alone: no block runs.
    while GK.vertex_count > 0:
        if config.max_blocks is not None:
            if blocks >= config.max_blocks:
                break
        elif time.perf_counter() - t_start >= config.cutoff_seconds:
            break
        if config.target_size is not None and len(best) + offset >= config.target_size:
            break

        block_best = arw_block(rs.state, config.m)
        blocks += 1
        improved = len(block_best) > len(rs.current_best)
        if improved:
            rs.current_best = block_best
        period_improved = period_improved or improved

        restart = False
        if period and blocks % period == 0:
            # The search's local optimum, not the round best: a best that
            # does not move would make the intersection the whole best, and
            # N[S] would then cover the kernel.
            rs.record(rs.state.solution_set())
            p_centi, restart = adaptive_test(p_centi, period_improved, rng)
            period_improved = False

        # A restart only follows a block that did not improve.
        if restart:
            rejected += rs.state.rejected
            rs = restart_round(GK, rs, config, rng)
            restarts += 1
            empty_rounds += rs.state.view.vertex_count == 0
            log.debug(
                "restart %d: fixed %d by intersection, %d alive",
                restarts,
                len(rs.S),
                rs.state.view.vertex_count,
            )
        elif not improved:
            continue
        lifted = rs.lift(rs.current_best)
        if restart:
            # The new round's one lift is checked here, not in restart_round.
            check_solution(GK, lifted, maximal=False)
        if len(lifted) > len(best):
            best = lifted
            t_best = time.perf_counter() - t_start

    solution = extend_solution(best, kern.log)
    check_solution(graph, solution)
    stats = {
        "variant": config.variant,
        "seed": config.seed,
        "cutoff_s": config.cutoff_seconds if config.max_blocks is None else None,
        "kernel_vertices": GK.vertex_count,
        "fixed_by_kernel": offset,
        "rounds": restarts + 1,
        "restarts": restarts,
        "empty_rounds": empty_rounds,
        "blocks": blocks,
        "rejected": rejected + rs.state.rejected,
        "start_size": start_size,
        "best_size": len(solution),
        "time_to_best_s": t_best,
    }
    return RunResult(solution=solution, stats=stats)

