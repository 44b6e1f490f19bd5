import random

import pytest

from arir import RunConfig, WorkingGraph, extend_solution, run
from arir.search import LiveView, greedy_init
from arir.solver import (
    AdaptiveState,
    RirState,
    RoundState,
    adaptive_test,
    record_solution,
    restart_round,
    rir_reduce,
)
from helpers import (
    ScriptedRng,
    brute_alpha,
    cycle,
    gnp,
    is_independent,
    is_maximal,
    path,
    petersen,
    view_of,
)


def test_adaptive_restart_fires_on_small_draw():
    state = AdaptiveState(n=1, iter_num=1, p_centi=0)
    assert adaptive_test(state, improved=False, rng=ScriptedRng(uniforms=[0.005]))
    assert state.p_centi == 1


def test_adaptive_improvement_resets_p():
    state = AdaptiveState(n=1, iter_num=1, p_centi=37)
    assert not adaptive_test(state, improved=True, rng=ScriptedRng())
    assert state.p_centi == 0


def test_adaptive_off_boundary_no_change():
    state = AdaptiveState(n=10, iter_num=7, p_centi=5)
    assert not adaptive_test(state, improved=False, rng=ScriptedRng(uniforms=[0.0]))
    assert state.p_centi == 5


def test_adaptive_p_trajectory_scripted():
    # p equals 0.01 x consecutive failed tests, reset on improvement, and a
    # restart fires exactly when the injected draw falls below p.
    state = AdaptiveState(n=5)
    script = [False, False, False, True, False, False]
    draws = [0.5, 0.5, 0.5, None, 0.02, 0.015]
    failures = 0
    for improved, draw in zip(script, draws):
        state.iter_num += 5
        rng = ScriptedRng(uniforms=[draw] if draw is not None else [])
        restarted = adaptive_test(state, improved, rng)
        if improved:
            failures = 0
            assert not restarted
        else:
            failures = min(failures + 1, 100)
            assert state.p_centi == failures
            assert restarted == (draw < failures / 100.0)
        assert state.p_centi == failures


def test_adaptive_p_caps_at_one():
    state = AdaptiveState(n=1, p_centi=100)
    state.iter_num = 1
    adaptive_test(state, improved=False, rng=ScriptedRng(uniforms=[0.999]))
    assert state.p_centi == 100


def test_record_solution_intersections():
    rir = RirState()
    for s in ({1, 3, 5}, {1, 3, 6}, {1, 4, 5}):
        record_solution(rir, s)
    assert rir.intersection == {1}
    assert rir.recorded_count == 3

    single = RirState()
    record_solution(single, {2, 7})
    assert single.intersection == {2, 7}

    disjoint = RirState()
    record_solution(disjoint, {1})
    record_solution(disjoint, {2})
    assert disjoint.intersection == set()


def test_rir_reduce_empty_intersection_full_copy():
    g = cycle(5)
    rir = RirState()
    record_solution(rir, {0})
    record_solution(rir, {2})
    S, working = rir_reduce(g, rir)
    assert S == set()
    assert working.alive_count == 5


def test_rir_reduce_c5():
    g = cycle(5)
    rir = RirState()
    record_solution(rir, {0})
    S, working = rir_reduce(g, rir)
    assert S == {0}
    assert working.alive_vertices() == [2, 3]


def test_rir_reduce_composite_independent():
    rng = random.Random(14)
    for trial in range(30):
        g = gnp(40, 0.2, rng)
        rir = RirState()
        for _ in range(3):
            state = greedy_init(view_of(g), random.Random(trial * 7))
            state.perturb()
            record_solution(rir, state.solution_set())
        S, working = rir_reduce(g, rir)
        inner = greedy_init(LiveView.from_working(working), random.Random(trial))
        combined = S | inner.solution_set()
        assert is_independent(g, combined)


def _round_state(g, variant, seed=1):
    working = WorkingGraph(g)
    rng = random.Random(seed)
    state = greedy_init(LiveView.from_working(working), rng)
    rs = RoundState(frozen_kernel=g, working=working, rir=RirState(), state=state)
    rs.current_best = state.solution_set()
    return rs, rng


def test_restart_round_arir2_runs_no_reductions():
    g = gnp(30, 0.2, random.Random(2))
    rs, rng = _round_state(g, "arir2")
    record_solution(rs.rir, rs.current_best)
    restart_round(rs, RunConfig(variant="arir2").validated(), rng)
    assert rs.round_log.fixed_count == 0
    assert len(rs.round_log) == 0
    assert rs.rir.recorded_count == 0


def test_restart_round_arir3_runs_simple_tier():
    g = path(9)
    rs, rng = _round_state(g, "arir3")
    record_solution(rs.rir, set())  # empty intersection: plain restart
    restart_round(rs, RunConfig(variant="arir3").validated(), rng)
    # The simple tier empties a path entirely.
    assert rs.working.alive_count == 0
    composite = rs.S | extend_solution(rs.current_best, rs.round_log)
    assert is_independent(g, composite)


def test_restart_round_composite_independent_randoms():
    rng = random.Random(44)
    for trial in range(20):
        g = gnp(rng.randint(15, 50), rng.uniform(0.1, 0.3), rng)
        rs, rrng = _round_state(g, "arir3", seed=trial)
        record_solution(rs.rir, rs.current_best)
        restart_round(rs, RunConfig(variant="arir3").validated(), rrng)
        # restart_round asserts independence internally; double-check here.
        lifted = extend_solution(rs.current_best, rs.round_log) | rs.S
        assert is_independent(g, lifted)


@pytest.mark.parametrize("variant", ["arir1", "arir2", "arir3", "arw"])
def test_run_petersen_all_variants(variant):
    g = petersen()
    result = run(
        g,
        RunConfig(variant=variant, m=500, cutoff_seconds=5.0, seed=1, target_size=4),
    )
    assert result.stats["best_size"] == 4
    assert is_independent(g, result.solution)
    assert is_maximal(g, result.solution)


def test_run_p7_solved_by_kernelization():
    g = path(7)
    result = run(g, RunConfig(variant="arir2", m=100, cutoff_seconds=1.0, seed=1))
    assert result.stats["best_size"] == brute_alpha(g) == 4
    assert result.stats["blocks"] == 0
    assert result.stats["kernel_vertices"] == 0


def test_run_deterministic_same_seed():
    g = gnp(60, 0.15, random.Random(10))
    cfg = RunConfig(variant="arir3", m=25, n=50, max_blocks=80, seed=3)
    r1, r2 = run(g, cfg), run(g, cfg)
    assert r1.solution == r2.solution
    strip = lambda s: {k: v for k, v in s.items() if k != "time_to_best_s"}
    assert strip(r1.stats) == strip(r2.stats)


def test_run_restarts_fire_and_composites_stay_feasible():
    rng = random.Random(5)
    total_restarts = 0
    for trial in range(10):
        g = gnp(50, 0.2, rng)
        result = run(
            g, RunConfig(variant="arir2", m=10, n=20, max_blocks=120, seed=trial)
        )
        total_restarts += result.stats["restarts"]
        assert is_independent(g, result.solution)
        assert is_maximal(g, result.solution)
    assert total_restarts > 0


def test_run_stats_record_shape():
    g = cycle(9)
    result = run(g, RunConfig(variant="arir1", m=50, cutoff_seconds=0.2, seed=2))
    for key in (
        "variant",
        "seed",
        "cutoff_s",
        "best_size",
        "time_to_best_s",
        "rounds",
        "restarts",
        "kernel_vertices",
        "fixed_by_kernel",
    ):
        assert key in result.stats
    assert result.stats["rounds"] == result.stats["restarts"] + 1


def test_config_validation():
    with pytest.raises(ValueError, match="cutoff"):
        RunConfig(cutoff_seconds=0).validated()
    with pytest.raises(ValueError, match="variant"):
        RunConfig(variant="nope").validated()
    with pytest.raises(ValueError, match="m must"):
        RunConfig(m=0).validated()
    cfg = RunConfig(m=7, n=15).validated()
    assert cfg.n == 21  # rounded up to whole blocks


def test_run_global_best_survives_restarts():
    # Aggressive restarts must never lose the incumbent: final size is at
    # least the first greedy composite.
    g = gnp(45, 0.25, random.Random(77))
    baseline = run(g, RunConfig(variant="arir2", m=10, max_blocks=0, seed=1))
    churned = run(g, RunConfig(variant="arir2", m=10, n=10, max_blocks=150, seed=1))
    assert churned.stats["best_size"] >= baseline.stats["best_size"]
