"""Framework orchestration: kernelize, search in blocks, restart rounds on
stagnation, fix the running intersection of recorded solutions, and lift the
final answer back to the input graph.

A run alternates search blocks with a periodic stagnation test. Each failed
test raises the restart probability by 0.01 (reset on improvement). On
restart, the vertices common to every solution recorded this round are fixed
into the solution, their closed neighborhood is deleted from the frozen
kernel, and search starts fresh on the remainder.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, replace

from .graph import ContractError, StaticGraph, WorkingGraph
from .reductions import (
    ReductionLog,
    extend_solution,
    kernelize,
    run_to_fixpoint,
)
from .search import LiveView, SolutionState, arw_block, greedy_init

log = logging.getLogger("arir")

VARIANTS = ("arir1", "arir2", "arir3", "arw")


@dataclass(slots=True)
class RunConfig:
    """Tunables for one solver run.

    n is the stagnation-test period in search iterations and defaults to
    10 * m; it is rounded up to a whole number of blocks. max_blocks switches
    the cutoff from wall-clock seconds to an exact block count (deterministic
    end-to-end). target_size stops early once the incumbent reaches it.
    """

    variant: str = "arir2"
    m: int = 10_000
    n: int | None = None
    cutoff_seconds: float = 10.0
    seed: int = 1
    max_blocks: int | None = None
    target_size: int | None = None

    def validated(self) -> "RunConfig":
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        n = self.n if self.n is not None else 10 * self.m
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        n = ((n + self.m - 1) // self.m) * self.m
        if self.max_blocks is None and not self.cutoff_seconds > 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff_seconds}")
        if self.max_blocks is not None and self.max_blocks < 0:
            raise ValueError(f"max_blocks must be >= 0, got {self.max_blocks}")
        return replace(self, n=n)


@dataclass(slots=True)
class AdaptiveState:
    """Restart probability driver. p is held in integer hundredths so the
    multiple-of-0.01 invariant is exact."""

    n: int
    iter_num: int = 0
    p_centi: int = 0


def adaptive_test(adaptive: AdaptiveState, improved: bool, rng: random.Random) -> bool:
    """Stagnation test, run once per block after advancing iter_num.

    Off test boundaries (iter_num not a multiple of n) nothing changes. On a
    boundary: improvement resets p to 0; otherwise p grows by 0.01 (capped at
    1) and a restart fires with probability p. Returns True to restart.
    """
    if adaptive.iter_num % adaptive.n != 0:
        return False
    if improved:
        adaptive.p_centi = 0
        return False
    if adaptive.p_centi < 100:
        adaptive.p_centi += 1
    return rng.random() < adaptive.p_centi / 100.0


def rir_reduce(
    frozen_kernel: StaticGraph, intersection: set[int] | None
) -> tuple[set[int], WorkingGraph]:
    """Fix the recorded intersection and rebuild the working graph as the
    frozen kernel minus the closed neighborhood of the fixed set. Deletion
    always starts from the frozen kernel, never from a previous reduction."""
    S = set(intersection) if intersection is not None else set()
    working = WorkingGraph(frozen_kernel)
    for v in sorted(S):
        if working.alive[v]:
            working.delete_closed_neighborhood(v)
    working.touched.clear()
    return S, working


@dataclass(slots=True)
class RoundState:
    """One search round over the frozen kernel: the intersection-fixed set S,
    the working graph left after deleting N[S], the round's reduction log,
    the search state and the round's best solution (in working-graph ids),
    plus the running intersection of the solutions recorded this round
    (None until the first record)."""

    S: set[int]
    working: WorkingGraph
    round_log: ReductionLog
    state: SolutionState
    current_best: set[int]
    intersection: set[int] | None = None

    @classmethod
    def begin(
        cls,
        S: set[int],
        working: WorkingGraph,
        round_log: ReductionLog,
        rng: random.Random,
    ) -> "RoundState":
        """Start a round on a reduced working graph with a greedy solution."""
        state = greedy_init(LiveView.from_working(working), rng)
        return cls(S, working, round_log, state, state.solution_set())

    def record(self) -> None:
        """Intersect current_best into the running intersection. Recorded sets
        live on the frozen kernel: round folds are resolved and round-fixed
        vertices included, but not S, so a later intersection can release
        previously fixed vertices."""
        lifted = extend_solution(self.current_best, self.round_log)
        if self.intersection is None:
            self.intersection = lifted
        else:
            self.intersection &= lifted

    def lift(self, solution: set[int]) -> set[int]:
        """Lift a working-graph solution onto the frozen kernel: undo the
        round's reductions, then add the intersection-fixed set."""
        lifted = extend_solution(solution, self.round_log)
        lifted |= self.S
        return lifted


def _assert_independent(graph: StaticGraph, solution: set[int]) -> None:
    for v in solution:
        for u in graph.adjacency[v]:
            if u in solution:
                raise ContractError(f"solution carries edge {v}-{u}")


def restart_round(
    frozen_kernel: StaticGraph, rs: RoundState, config: RunConfig, rng: random.Random
) -> RoundState:
    """Begin a fresh round: fix the intersection recorded in rs, delete its
    closed neighborhood from the frozen kernel, optionally run the simple
    reduction tier on the remainder, and reinitialize the search greedily."""
    S, working = rir_reduce(frozen_kernel, rs.intersection)
    round_log = ReductionLog()
    if config.variant == "arir3":
        _, round_log = run_to_fixpoint(working, tier="simple")
    new = RoundState.begin(S, working, round_log, rng)
    _assert_independent(frozen_kernel, new.lift(new.current_best))
    return new


@dataclass(slots=True)
class RunResult:
    solution: set[int]
    stats: dict


def run(graph: StaticGraph, config: RunConfig) -> RunResult:
    """Solve one instance: kernelize by variant, then search under the cutoff.

    Returns the best solution found, lifted to the input graph and verified
    independent and maximal, plus a stats record.
    """
    cfg = config.validated()
    t_start = time.perf_counter()
    rng = random.Random(cfg.seed)
    kern = kernelize(graph, "light" if cfg.variant == "arir1" else "advanced")
    offset = kern.fixed_count + kern.fold_count
    log.info(
        "kernel: %d of %d vertices remain, %d solution vertices fixed",
        kern.kernel.vertex_count,
        graph.vertex_count,
        offset,
    )

    GK = kern.kernel
    adaptive = AdaptiveState(n=cfg.n)
    rs = RoundState.begin(set(), WorkingGraph(GK), ReductionLog(), rng)
    # The best solution of all rounds, on the frozen kernel.
    best = rs.lift(rs.current_best)
    t_best = time.perf_counter() - t_start

    adaptive_on = cfg.variant != "arw"
    blocks = 0
    restarts = 0
    # An empty kernel is solved by kernelization alone: no block runs.
    while GK.vertex_count > 0:
        if cfg.max_blocks is not None:
            if blocks >= cfg.max_blocks:
                break
        elif time.perf_counter() - t_start >= cfg.cutoff_seconds:
            break
        if cfg.target_size is not None and len(best) + offset >= cfg.target_size:
            break

        tracker = arw_block(rs.state, cfg.m)
        blocks += 1
        improved = tracker.best_size > len(rs.current_best)

        restart = False
        if adaptive_on:
            adaptive.iter_num += cfg.m
            if adaptive.iter_num % adaptive.n == 0:
                rs.record()
            restart = adaptive_test(adaptive, improved, rng)

        # A restart only follows a block that did not improve.
        if restart:
            rs = restart_round(GK, rs, cfg, rng)
            restarts += 1
            log.debug(
                "restart %d: fixed %d by intersection, %d alive",
                restarts,
                len(rs.S),
                rs.working.alive_count,
            )
        elif improved:
            rs.current_best = tracker.best_set
        else:
            continue
        lifted = rs.lift(rs.current_best)
        if len(lifted) > len(best):
            best = lifted
            t_best = time.perf_counter() - t_start

    solution = extend_solution(best, kern.log)
    _verify_final(graph, solution)
    stats = {
        "variant": cfg.variant,
        "seed": cfg.seed,
        "cutoff_s": cfg.cutoff_seconds if cfg.max_blocks is None else None,
        "kernel_vertices": GK.vertex_count,
        "fixed_by_kernel": offset,
        "rounds": restarts + 1,
        "restarts": restarts,
        "blocks": blocks,
        "best_size": len(solution),
        "time_to_best_s": t_best,
    }
    return RunResult(solution=solution, stats=stats)


def _verify_final(graph: StaticGraph, solution: set[int]) -> None:
    _assert_independent(graph, solution)
    for v in range(graph.vertex_count):
        if v in solution:
            continue
        if not any(u in solution for u in graph.adjacency[v]):
            raise ContractError(f"solution is not maximal: vertex {v} is free")
