"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import functools
import os
import random
import time

import pytest

from arir import (
    ReductionLog,
    RunConfig,
    WorkingGraph,
    build_graph,
    exact_mis,
    extend_solution,
    kernelize,
    read_graph,
    run,
)
from arir.search import arw_block, greedy_init
from arir.solver import RoundState, adaptive_test, restart_round
from helpers import ScriptedRng, gnp, is_independent, is_maximal, view_of


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_feasibility_suite():
    rng = random.Random(20260811)
    t0 = time.time()
    checked = 0
    for variant in ("arir1", "arir2", "arir3", "arw"):
        for trial in range(1000):
            n = rng.randint(5, 200)
            p = rng.uniform(0.01, 0.5)
            g = gnp(n, p, rng)
            result = run(
                g, RunConfig(variant=variant, m=8, max_blocks=1, seed=trial)
            )
            sol = result.solution
            if not (is_independent(g, sol) and is_maximal(g, sol)):
                report("1 feasibility", False, f"{variant} n={n} p={p:.3f}")
            checked += 1
    report(
        "1 feasibility",
        True,
        f"{checked} runs independent+maximal in {time.time() - t0:.0f}s",
    )


def test_criterion_2_reduction_oracle_equivalence():
    rng = random.Random(42)
    t0 = time.time()
    for trial in range(500):
        n = rng.randint(2, 40)
        p = rng.uniform(0.02, 0.55)
        g = gnp(n, p, rng)
        alpha = exact_mis(g).alpha
        for tier in ("simple", "advanced"):
            result = kernelize(g, tier)
            kernel_alpha = (
                exact_mis(result.kernel).alpha if result.kernel.vertex_count else 0
            )
            total = result.fixed_count + result.fold_count + kernel_alpha
            if total != alpha:
                report("2 reductions", False, f"{tier} trial {trial}: {total}!={alpha}")
            witness = (
                exact_mis(result.kernel).witness
                if result.kernel.vertex_count
                else set()
            )
            lifted = result.extend(witness)
            if not (is_independent(g, lifted) and len(lifted) == alpha):
                report("2 reductions", False, f"{tier} trial {trial}: bad lift")
    report("2 reductions", True, f"500 graphs x 2 tiers in {time.time() - t0:.0f}s")


def test_criterion_3_exactness_small_scale():
    rng = random.Random(7)
    t0 = time.time()
    hits = 0
    trials = 200
    for trial in range(trials):
        n = rng.randint(5, 40)
        p = rng.uniform(0.02, 0.5)
        g = gnp(n, p, rng)
        alpha = exact_mis(g).alpha
        result = run(
            g,
            RunConfig(
                variant="arir2",
                m=300,
                cutoff_seconds=2.0,
                seed=1,
                target_size=alpha,
            ),
        )
        hits += result.stats["best_size"] == alpha
    ok = hits >= 0.95 * trials
    report(
        "3 exactness",
        ok,
        f"{hits}/{trials} exact in {time.time() - t0:.0f}s",
    )


def test_criterion_4_adaptive_semantics():
    # Where the tests fall is checked on run() in test_solver.py; this
    # replays p and the restart draws over scripted test outcomes.
    p_centi = 0
    rng_plan = [
        # (improved, injected draw or None when unused)
        (False, 0.5),
        (False, 0.5),
        (False, 0.025),
        (True, None),
        (False, 0.02),
        (False, 0.015),
        (False, 0.005),
        (True, None),
        (False, 0.5),
    ]
    failures = 0
    for improved, draw in rng_plan:
        rng = ScriptedRng(uniforms=[] if draw is None else [draw])
        p_centi, restarted = adaptive_test(p_centi, improved, rng)
        if improved:
            failures = 0
            if restarted or p_centi != 0:
                report("4 adaptive", False, "reset on improvement violated")
        else:
            failures += 1
            if p_centi != failures:
                report(
                    "4 adaptive",
                    False,
                    f"p={p_centi} != failures {failures}",
                )
            if restarted != (draw < failures / 100.0):
                report("4 adaptive", False, "restart draw mismatch")
    report("4 adaptive", True, "scripted trajectory exact")


def test_criterion_5_rir_semantics():
    rng = random.Random(99)
    isolated = build_graph([], 60)
    for trial in range(100):
        universe = list(range(60))
        sets = [
            set(rng.sample(universe, rng.randint(1, 30)))
            for _ in range(rng.randint(1, 8))
        ]
        rs = RoundState.begin(
            set(), WorkingGraph(isolated), ReductionLog(), random.Random(trial)
        )
        for k, s in enumerate(sets, 1):
            rs.record(s)
            # Every record counts: the running value is the prefix intersection.
            if rs.intersection != functools.reduce(set.__and__, sets[:k]):
                report("5 rir", False, f"intersection mismatch on trial {trial}")

    # Post-restart composites stay independent on the frozen kernel.
    for trial in range(30):
        g = gnp(rng.randint(20, 60), rng.uniform(0.1, 0.3), rng)
        rrng = random.Random(trial)
        rs = RoundState.begin(set(), WorkingGraph(g), ReductionLog(), rrng)
        for _ in range(rng.randint(1, 4)):
            arw_block(rs.state, 10)
            rs.record(rs.state.solution_set())
        variant = rng.choice(("arir2", "arir3"))
        rs = restart_round(g, rs, RunConfig(variant=variant), rrng)
        composite = extend_solution(rs.current_best, rs.round_log) | rs.S
        if not is_independent(g, composite):
            report("5 rir", False, f"composite dependent on trial {trial}")
    report("5 rir", True, "100 intersection sequences + 30 restart composites")


def test_criterion_6_arw_block_contract():
    rng = random.Random(77)
    worst_ratio = 0.0
    blocks = 0
    t0 = time.time()
    while blocks < 10_000:
        n = rng.randint(40, 100)
        p = rng.uniform(0.08, 0.35)
        g = gnp(n, p, rng)
        if g.edge_count < 80:
            continue
        state = greedy_init(view_of(g), random.Random(blocks))
        for _ in range(4):
            before = state.size
            best = arw_block(state, 10)
            blocks += 1
            if len(best) < before:
                report("6 arw-block", False, "block lost ground")
            ratio = state.max_iter_touches / g.edge_count
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 8.0:
                report("6 arw-block", False, f"{ratio:.2f} edge touches per edge")
    report(
        "6 arw-block",
        True,
        f"{blocks} blocks, worst {worst_ratio:.2f}x edges per iteration, "
        f"{time.time() - t0:.0f}s",
    )


SPOT_CHECKS = {
    "bcsstk33": ("==", 512),
    "add32": ("==", 2286),
    "memplus": ("==", 7686),
    "crack": ("==", 4603),
    "fe_sphere": ("==", 5462),
    "3elt": (">=", 1478),
}


def _instance_dir() -> str:
    return os.environ.get(
        "ARIR_INSTANCE_DIR",
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "instances"),
    )


def test_criterion_7_published_spot_checks():
    directory = _instance_dir()
    paths = {}
    missing = []
    for name in SPOT_CHECKS:
        for ext in (".graph", ".metis", ".edges"):
            candidate = os.path.join(directory, name + ext)
            if os.path.exists(candidate):
                paths[name] = candidate
                break
        else:
            missing.append(name)
    if missing:
        message = (
            f"spot-check instances not found under {directory}: "
            f"{', '.join(missing)}; download the public instances and "
            "set ARIR_INSTANCE_DIR to enable this criterion"
        )
        print(f"ACCEPTANCE 7 spot-checks: SKIP ({message})", flush=True)
        pytest.skip(message)
    failures = []
    for name, (op, target) in SPOT_CHECKS.items():
        graph = read_graph(paths[name])
        best = 0
        for seed in (1, 2, 3, 4, 5):
            result = run(
                graph,
                RunConfig(
                    variant="arir2",
                    cutoff_seconds=60.0,
                    seed=seed,
                    target_size=target if op == "==" else None,
                ),
            )
            best = max(best, result.stats["best_size"])
            if op == "==" and best >= target:
                break
        reached = best == target if op == "==" else best >= target
        print(f"  {name}: best-of-seeds {best}, target {op}{target}", flush=True)
        if not reached:
            failures.append(f"{name}={best}")
    report("7 spot-checks", not failures, ", ".join(failures) or "all targets met")


def test_criterion_8_determinism():
    rng = random.Random(3)
    configs = []
    for i in range(20):
        configs.append(
            (
                gnp(rng.randint(15, 80), rng.uniform(0.05, 0.35), rng),
                RunConfig(
                    variant=("arir1", "arir2", "arir3", "arw")[i % 4],
                    m=rng.choice((5, 10, 25)),
                    n=rng.choice((20, 50, 100)),
                    max_blocks=rng.randint(5, 60),
                    seed=rng.randint(1, 10_000),
                ),
            )
        )
    for i, (g, cfg) in enumerate(configs):
        first = run(g, cfg)
        second = run(g, cfg)
        if first.solution != second.solution:
            report("8 determinism", False, f"config {i} diverged")
        strip = lambda s: {k: v for k, v in s.items() if k != "time_to_best_s"}
        if strip(first.stats) != strip(second.stats):
            report("8 determinism", False, f"config {i} stats diverged")
    report("8 determinism", True, "20 configurations bitwise stable")
