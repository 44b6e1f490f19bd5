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
from dataclasses import dataclass, field, replace

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

    @property
    def p(self) -> float:
        return self.p_centi / 100.0


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


class RirState:
    """Running intersection of the solutions recorded this round."""

    __slots__ = ("intersection", "recorded_count")

    def __init__(self):
        # None is the full-vertex sentinel (identity of intersection).
        self.intersection: set[int] | None = None
        self.recorded_count = 0

    def reset(self) -> None:
        self.intersection = None
        self.recorded_count = 0


def record_solution(rir: RirState, solution: set[int]) -> None:
    if rir.intersection is None:
        rir.intersection = set(solution)
    else:
        rir.intersection &= solution
    rir.recorded_count += 1


def rir_reduce(
    frozen_kernel: StaticGraph, rir: RirState
) -> tuple[set[int], WorkingGraph]:
    """Fix the recorded intersection and rebuild the working graph as the
    frozen kernel minus the closed neighborhood of the fixed set. Deletion
    always starts from the frozen kernel, never from a previous reduction."""
    S = set(rir.intersection) if rir.intersection is not None else set()
    working = WorkingGraph(frozen_kernel)
    for v in sorted(S):
        if working.alive[v]:
            working.delete_closed_neighborhood(v)
    working.touched.clear()
    return S, working


@dataclass(slots=True)
class RoundState:
    """Per-round search context over the frozen kernel."""

    frozen_kernel: StaticGraph
    working: WorkingGraph
    rir: RirState
    state: SolutionState
    S: set[int] = field(default_factory=set)
    round_log: ReductionLog = field(default_factory=ReductionLog)
    current_best: set[int] = field(default_factory=set)
    global_best: set[int] = field(default_factory=set)


def _lift_round(solution: set[int], rs: RoundState) -> set[int]:
    """Lift a working-graph solution onto the frozen kernel: undo the round's
    folds, add its fixed vertices, then add the intersection-fixed set."""
    lifted = extend_solution(solution, rs.round_log)
    lifted |= rs.S
    return lifted


def _composite_size(solution_size: int, rs: RoundState) -> int:
    return (
        solution_size + len(rs.S) + rs.round_log.fixed_count + rs.round_log.fold_count
    )


def _assert_independent(graph: StaticGraph, solution: set[int]) -> None:
    for v in solution:
        for u in graph.adjacency[v]:
            if u in solution:
                raise ContractError(f"solution carries edge {v}-{u}")


def restart_round(rs: RoundState, config: RunConfig, rng: random.Random) -> None:
    """Begin a fresh round: fix the recorded intersection, delete its closed
    neighborhood from the frozen kernel, optionally run the simple reduction
    tier on the remainder, and reinitialize the search greedily."""
    rs.S, rs.working = rir_reduce(rs.frozen_kernel, rs.rir)
    rs.round_log = ReductionLog()
    if config.variant == "arir3":
        _, rs.round_log = run_to_fixpoint(rs.working, tier="simple")
    rs.state = greedy_init(LiveView.from_working(rs.working), rng)
    rs.current_best = rs.state.solution_set()
    rs.rir.reset()
    composite = _lift_round(rs.current_best, rs)
    _assert_independent(rs.frozen_kernel, composite)


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

    stats = {
        "variant": cfg.variant,
        "seed": cfg.seed,
        "cutoff_s": cfg.cutoff_seconds if cfg.max_blocks is None else None,
        "kernel_vertices": kern.kernel.vertex_count,
        "fixed_by_kernel": offset,
        "rounds": 1,
        "restarts": 0,
        "blocks": 0,
    }

    if kern.kernel.vertex_count == 0:
        solution = kern.extend(set())
        stats["best_size"] = len(solution)
        stats["time_to_best_s"] = time.perf_counter() - t_start
        _verify_final(graph, solution)
        return RunResult(solution=solution, stats=stats)

    GK = kern.kernel
    adaptive = AdaptiveState(n=cfg.n)
    working = WorkingGraph(GK)
    state = greedy_init(LiveView.from_working(working), rng)
    rs = RoundState(
        frozen_kernel=GK, working=working, rir=RirState(), state=state
    )
    rs.current_best = state.solution_set()
    rs.global_best = set(rs.current_best)
    global_size = len(rs.global_best)
    t_best = time.perf_counter() - t_start

    adaptive_on = cfg.variant != "arw"
    blocks = 0
    restarts = 0
    while True:
        if cfg.max_blocks is not None:
            if blocks >= cfg.max_blocks:
                break
        elif time.perf_counter() - t_start >= cfg.cutoff_seconds:
            break
        if cfg.target_size is not None and global_size + offset >= cfg.target_size:
            break

        tracker = arw_block(rs.state, cfg.m)
        blocks += 1
        improved = tracker.best_size > len(rs.current_best)

        restart = False
        if adaptive_on:
            adaptive.iter_num += cfg.m
            if adaptive.iter_num % adaptive.n == 0:
                # Recorded sets live on the frozen kernel: round folds are
                # resolved and round-fixed vertices included, but not S, so a
                # later intersection can release previously fixed vertices.
                record_solution(
                    rs.rir, extend_solution(rs.current_best, rs.round_log)
                )
            restart = adaptive_test(adaptive, improved, rng)

        if restart:
            restart_round(rs, cfg, rng)
            restarts += 1
            comp = _composite_size(len(rs.current_best), rs)
            if comp > global_size:
                rs.global_best = _lift_round(rs.current_best, rs)
                global_size = comp
                t_best = time.perf_counter() - t_start
            log.debug(
                "restart %d: fixed %d by intersection, %d alive",
                restarts,
                len(rs.S),
                rs.working.alive_count,
            )
            continue

        if improved:
            rs.current_best = tracker.best_set
            comp = _composite_size(tracker.best_size, rs)
            if comp > global_size:
                rs.global_best = _lift_round(rs.current_best, rs)
                if len(rs.global_best) != comp:
                    raise ContractError(
                        f"composite size {comp} != lifted {len(rs.global_best)}"
                    )
                global_size = comp
                t_best = time.perf_counter() - t_start

    solution = extend_solution(rs.global_best, kern.log)
    stats["best_size"] = len(solution)
    stats["time_to_best_s"] = t_best
    stats["rounds"] = restarts + 1
    stats["restarts"] = restarts
    stats["blocks"] = blocks
    _verify_final(graph, solution)
    return RunResult(solution=solution, stats=stats)


def _verify_final(graph: StaticGraph, solution: set[int]) -> None:
    _assert_independent(graph, solution)
    for v in range(graph.vertex_count):
        if v in solution:
            continue
        if not any(u in solution for u in graph.adjacency[v]):
            raise ContractError(f"solution is not maximal: vertex {v} is free")
