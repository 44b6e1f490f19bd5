import gc
import random
import re
import sys
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest

import arir.solver
from arir import (
    ContractError,
    ReductionLog,
    RunConfig,
    StaticGraph,
    WorkingGraph,
    build_graph,
    exact_mis,
    extend_solution,
    kernelize,
    run,
)
from arir.graph import check_solution
from arir.reductions import TIERS
from arir.search import LiveView, SolutionState, arw_block, greedy_init
from arir.solver import (
    VARIANTS,
    RoundState,
    adaptive_test,
    restart_round,
    rir_reduce,
)
from helpers import (
    ScriptedRng,
    bench_gen,
    brute_alpha,
    cycle,
    gnp,
    is_independent,
    is_maximal,
    path,
    petersen,
    random_maximal,
    view_of,
)


def test_adaptive_restart_fires_on_small_draw():
    rng = ScriptedRng(uniforms=[0.005])
    assert adaptive_test(0, improved=False, rng=rng) == (1, True)


def test_adaptive_improvement_resets_p():
    assert adaptive_test(37, improved=True, rng=ScriptedRng()) == (0, False)


def test_adaptive_p_trajectory_scripted():
    # p equals 0.01 x consecutive failed tests, reset on improvement, and a
    # restart fires exactly when the injected draw falls below p.
    p_centi = 0
    script = [False, False, False, True, False, False]
    draws = [0.5, 0.5, 0.5, None, 0.02, 0.015]
    failures = 0
    for improved, draw in zip(script, draws):
        rng = ScriptedRng(uniforms=[draw] if draw is not None else [])
        p_centi, restarted = adaptive_test(p_centi, improved, rng)
        if improved:
            failures = 0
            assert not restarted
        else:
            failures = min(failures + 1, 100)
            assert p_centi == failures
            assert restarted == (draw < failures / 100.0)
        assert p_centi == failures


def test_adaptive_p_caps_at_one():
    p_centi, _ = adaptive_test(100, improved=False, rng=ScriptedRng(uniforms=[0.999]))
    assert p_centi == 100


@pytest.mark.parametrize(
    "variant,m,n",
    [("arir2", 10, 30), ("arir3", 10, 25), ("arir1", 7, 7), ("arw", 10, 20)],
)
def test_run_tests_and_records_only_at_period_ends(monkeypatch, variant, m, n):
    # Off a test boundary neither the test nor the record runs; on one, both
    # run once. Blocks count across rounds, and arw never tests.
    blocks, tests, records = [], [], []
    block, test, record = arir.solver.arw_block, adaptive_test, RoundState.record

    def counted_block(*args):
        blocks.append(None)
        return block(*args)

    def counted_test(*args):
        tests.append(len(blocks))
        return test(*args)

    def counted_record(self, solution):
        records.append(len(blocks))
        record(self, solution)

    monkeypatch.setattr(arir.solver, "arw_block", counted_block)
    monkeypatch.setattr(arir.solver, "adaptive_test", counted_test)
    monkeypatch.setattr(RoundState, "record", counted_record)
    g = gnp(60, 0.1, random.Random(71))
    cfg = RunConfig(variant=variant, m=m, n=n, max_blocks=100, seed=2)
    result = run(g, cfg)
    assert len(blocks) == 100
    period = cfg.n // m
    expected = [] if variant == "arw" else list(range(period, 101, period))
    assert tests == records == expected
    if variant == "arir1":
        assert result.stats["restarts"] > 0


def test_stagnation_test_judges_the_whole_period(monkeypatch):
    # The search improves only in the first block of each period, so every
    # test sees an improving period and no restart fires. The rounds start
    # from an empty solution, and each improving block adds one vertex of a
    # maximal independent set.
    pete = petersen().adjacency
    edges = [(u, v) for u, a in enumerate(pete) for v in a]
    g = build_graph([(u + 10 * c, v + 10 * c) for c in range(6) for u, v in edges])
    assert kernelize(g).kernel.adjacency == g.adjacency
    target = sorted(random_maximal(g, random.Random(3)))
    period = 4
    blocks = []

    def scripted_block(state, m):
        blocks.append(None)
        if len(blocks) % period == 1:
            return set(target[: (len(blocks) - 1) // period + 1])
        return set()

    def no_restart(*args):
        pytest.fail("restart after a period that improved")

    monkeypatch.setattr(arir.solver, "greedy_init", SolutionState)
    monkeypatch.setattr(arir.solver, "arw_block", scripted_block)
    monkeypatch.setattr(arir.solver, "restart_round", no_restart)
    cfg = RunConfig(variant="arir2", m=5, n=5 * period, max_blocks=period * len(target))
    result = run(g, cfg)
    assert len(target) > 10
    assert result.solution == set(target)
    assert result.stats["restarts"] == 0


def test_record_takes_the_search_state_at_each_test(monkeypatch):
    # At a test boundary the recorded set is the search state's solution as
    # the block just run left it, not the round's best.
    after_block, stale = {}, []
    block, record = arir.solver.arw_block, RoundState.record

    def tracked_block(state, m):
        block_best = block(state, m)
        after_block[state] = state.solution_set()
        return block_best

    def checked_record(self, solution):
        assert solution == after_block[self.state] == self.state.solution_set()
        stale.append(solution != self.current_best)
        record(self, solution)

    monkeypatch.setattr(arir.solver, "arw_block", tracked_block)
    monkeypatch.setattr(RoundState, "record", checked_record)
    n, edges = bench_gen.mesh(30, random.Random(1))
    g = build_graph(edges, vertex_count_hint=n)
    restarts = 0
    for seed in range(1, 4):
        cfg = RunConfig(variant="arir3", m=20, n=20, max_blocks=60, seed=seed)
        restarts += run(g, cfg).stats["restarts"]
    # Some record differs from the round best, and some restart starts a
    # new round.
    assert any(stale) and restarts > 0


def test_empty_rounds_counts_rounds_that_start_empty(monkeypatch):
    # The spy sees every round that runs a block: with a test after every
    # second block and an odd budget, no restart falls after the last block,
    # so every round runs at least one. It keeps each empty round's state,
    # so no id is reused.
    empty_states = {}
    block = arir.solver.arw_block

    def spy(state, m):
        if state.view.vertex_count == 0:
            empty_states[id(state)] = state
        return block(state, m)

    monkeypatch.setattr(arir.solver, "arw_block", spy)
    rng = random.Random(83)
    seen = 0
    for seed in range(12):
        empty_states.clear()
        g = gnp(40, rng.uniform(0.1, 0.3), rng)
        cfg = RunConfig(variant="arir2", m=10, n=20, max_blocks=101, seed=seed)
        stats = run(g, cfg).stats
        assert stats["empty_rounds"] == len(empty_states) <= stats["rounds"]
        seen += stats["empty_rounds"]
    assert seen > 0


def test_rejected_iterations_summed_over_rounds(monkeypatch):
    # A mesh search rejects some worse iterations, and never more than it
    # ran; with restarts, stats["rejected"] sums every round's count.
    n, edges = bench_gen.mesh(30, random.Random(1))
    g = build_graph(edges, vertex_count_hint=n)
    states = {}
    block = arir.solver.arw_block

    def spy(state, m):
        states[id(state)] = state
        return block(state, m)

    monkeypatch.setattr(arir.solver, "arw_block", spy)
    for cfg in (
        RunConfig(variant="arir1", m=500, max_blocks=4, seed=1),
        RunConfig(variant="arir3", m=50, n=50, max_blocks=60, seed=2),
    ):
        states.clear()
        stats = run(g, cfg).stats
        assert 0 < stats["rejected"] <= stats["blocks"] * cfg.m
        assert stats["rejected"] == sum(s.rejected for s in states.values())
        assert (stats["restarts"] > 0) == (cfg.variant == "arir3")


def test_restarting_runs_match_exact_mis():
    # Differential: short blocks and a test after each, so restarts fire;
    # every answer is an independent, maximal set no larger than alpha.
    rng = random.Random(89)
    restarts = 0
    for trial in range(25):
        g = gnp(rng.randint(20, 64), rng.uniform(0.08, 0.3), rng)
        alpha = exact_mis(g).alpha
        result = run(g, RunConfig(variant="arir3", m=10, n=10, max_blocks=40, seed=trial))
        assert is_independent(g, result.solution)
        assert is_maximal(g, result.solution)
        assert result.stats["best_size"] == len(result.solution) <= alpha
        restarts += result.stats["restarts"]
    assert restarts > 0


def _round_state(g, seed=1):
    rng = random.Random(seed)
    rs = RoundState.begin(set(), WorkingGraph(g), ReductionLog(), rng)
    return rs, rng


def _record_all(rs, solutions):
    """Record each set, in order."""
    for s in solutions:
        rs.record(set(s))


def test_record_intersections():
    g = cycle(8)
    rs, _ = _round_state(g)
    assert rs.intersection is None
    sets = ({1, 3, 5}, {1, 3, 6}, {1, 4, 5})
    for k, s in enumerate(sets, 1):
        _record_all(rs, [s])
        # Every record counts: the running value is the prefix intersection.
        assert rs.intersection == set.intersection(*sets[:k])
    assert rs.intersection == {1}

    single, _ = _round_state(g)
    _record_all(single, [{2, 7}])
    assert single.intersection == {2, 7}

    disjoint, _ = _round_state(g)
    _record_all(disjoint, [{1}, {2}])
    assert disjoint.intersection == set()


def _subdivided_biclique():
    """K_{4,4} plus a path between each of four same-side pairs. The simple
    tier folds a path of three inner vertices once and one of five twice
    (the second fold consumes the first's new vertex), and each last new
    vertex stays alive between two non-adjacent vertices of degree 5."""
    edges = [(a, b) for a in range(4) for b in range(4, 8)]
    n = 8
    for (a, b), inner in (((0, 1), 3), ((2, 3), 3), ((4, 5), 5), ((6, 7), 5)):
        chain = [a, *range(n, n + inner), b]
        edges += zip(chain, chain[1:])
        n += inner
    return build_graph(edges, n)


def test_intersection_matches_lifting_every_record():
    # The intersection lifted once, from the records' intersection and
    # union, equals the intersection of every record lifted on its own, on
    # arir3 rounds that fold: on mesh and G(n, m) kernels and on a
    # subdivided biclique. The round records its local optima, as run()
    # does; a probe on the same log also records random subsets of the
    # snapshot, so that a fold's new vertex is in some records and not in
    # others. The identity holds for any sets of snapshot vertices.
    rng = random.Random(83)
    cfg = RunConfig(variant="arir3")
    instances = (
        bench_gen.mesh(12, rng),
        bench_gen.mesh(20, rng),
        bench_gen.gnm(150, 300, rng),
    )
    graphs = [kernelize(build_graph(edges, n)).kernel for n, edges in instances]
    graphs.append(_subdivided_biclique())
    folds = nested = needs_common = needs_union = 0
    for g in graphs:
        for seed in range(3):
            # A round with no record restarts on the whole frozen graph.
            rs, rrng = _round_state(g, seed=seed)
            for _ in range(6):
                rs = restart_round(g, rs, cfg, rrng)
                log = rs.round_log
                probe = RoundState(rs.S, log, rs.state, rs.current_best)
                records = []
                for k in range(4):
                    arw_block(rs.state, 10)
                    if k % 2:
                        ids = rs.state.view.ids
                        records.append({v for v in ids if rng.random() < 0.5})
                    else:
                        records.append(rs.state.solution_set())
                        rs.record(records[-1])
                    probe.record(records[-1])
                    lifted = [extend_solution(r, log) for r in records]
                    common = set.intersection(*lifted)
                    assert probe.intersection == common
                optima = records[::2]
                assert rs.intersection == set.intersection(
                    *(extend_solution(r, log) for r in optima)
                )
                # Rounds where the lift of the intersection alone, or of the
                # union alone, would be wrong.
                needs_union += extend_solution(set.intersection(*records), log) != common
                needs_common += extend_solution(set.union(*records), log) != common
                folds += log.fold_count
                consumed = {t for _, u, v, w in log.folds for t in (u, v, w)}
                nested += sum(x in consumed for x, *_ in log.folds)
    assert folds > 0 and nested > 0 and needs_common > 0 and needs_union > 0


def test_rir_reduce_empty_intersection_full_copy():
    g = cycle(5)
    rs, _ = _round_state(g)
    _record_all(rs, [{0}, {2}])
    S, working = rir_reduce(g, rs.intersection)
    assert S == set()
    assert sum(working.alive) == 5


def test_rir_reduce_c5():
    g = cycle(5)
    rs, _ = _round_state(g)
    _record_all(rs, [{0}])
    S, working = rir_reduce(g, rs.intersection)
    assert S == {0}
    assert working.alive_vertices() == [2, 3]


def reference_rir_reduce(frozen_kernel, S):
    """Reference: mark N[S] dead in one walk over S's lists, then lower each
    survivor's degree once per dead neighbour."""
    working = WorkingGraph(frozen_kernel)
    alive, adj, live_degree = working.alive, working.adj, working.live_degree
    for v in S:
        alive[v] = False
        for u in adj[v]:
            alive[u] = False
    for d in range(len(alive)):
        if not alive[d]:
            for t in adj[d]:
                if alive[t]:
                    live_degree[t] -= 1
    return working


def test_rir_reduce_matches_reference():
    rng = random.Random(30)
    for _ in range(60):
        g = gnp(rng.randint(2, 60), rng.uniform(0.03, 0.3), rng)
        S = {v for v in random_maximal(g, rng) if rng.random() < 0.5}
        fixed, working = rir_reduce(g, S)
        ref = reference_rir_reduce(g, S)
        assert fixed == S
        assert working.alive == ref.alive
        assert working.touched == []
        alive = working.alive
        assert [d for d, a in zip(working.live_degree, alive) if a] == [
            d for d, a in zip(ref.live_degree, alive) if a
        ]
        working.audit()


def test_rir_reduce_composite_independent():
    rng = random.Random(14)
    for trial in range(30):
        g = gnp(40, 0.2, rng)
        rs, _ = _round_state(g)
        for _ in range(3):
            state = greedy_init(view_of(g), random.Random(trial * 7))
            state.perturb()
            _record_all(rs, [state.solution_set()])
        S, working = rir_reduce(g, rs.intersection)
        inner = greedy_init(LiveView.from_working(working), random.Random(trial))
        combined = S | inner.solution_set()
        assert is_independent(g, combined)


def test_restart_round_arir2_runs_no_reductions():
    g = gnp(30, 0.2, random.Random(2))
    rs, rng = _round_state(g)
    rs.record(rs.current_best)
    rs = restart_round(g, rs, RunConfig(variant="arir2"), rng)
    assert not rs.round_log.fixed and not rs.round_log.folds
    assert rs.intersection is None


def test_restart_round_arir3_runs_simple_tier():
    g = path(9)
    rs, rng = _round_state(g)
    _record_all(rs, [set()])  # empty intersection: plain restart
    rs = restart_round(g, rs, RunConfig(variant="arir3"), rng)
    # The simple tier empties a path entirely.
    assert rs.state.view.vertex_count == 0
    composite = rs.S | extend_solution(rs.current_best, rs.round_log)
    assert is_independent(g, composite)


def test_restart_round_composite_independent_randoms():
    rng = random.Random(44)
    for trial in range(20):
        g = gnp(rng.randint(15, 50), rng.uniform(0.1, 0.3), rng)
        rs, rrng = _round_state(g, seed=trial)
        rs.record(rs.current_best)
        rs = restart_round(g, rs, RunConfig(variant="arir3"), rrng)
        lifted = extend_solution(rs.current_best, rs.round_log) | rs.S
        assert is_independent(g, lifted)


def test_round_keeps_no_working_graph():
    g = gnp(30, 0.2, random.Random(5))
    working = WorkingGraph(g)
    before = sys.getrefcount(working)
    rs = RoundState.begin(set(), working, ReductionLog(), random.Random(1))
    assert sys.getrefcount(working) == before
    assert not any(r is rs for r in gc.get_referrers(working))


@pytest.mark.parametrize("variant", ["arir2", "arir3"])
def test_restart_round_keeps_no_working_graph(monkeypatch, variant):
    rounds = []
    reduce = arir.solver.rir_reduce

    def spy(*args):
        S, working = reduce(*args)
        rounds.append(working)
        return S, working

    monkeypatch.setattr(arir.solver, "rir_reduce", spy)
    g = gnp(40, 0.1, random.Random(6))
    rs, rng = _round_state(g)
    arw_block(rs.state, 5)
    rs.record(rs.state.solution_set())
    rs = restart_round(g, rs, RunConfig(variant=variant), rng)
    # Only the spy's list and this frame hold the round's graph, as they
    # hold a control graph.
    working = rounds[0]
    controls = [WorkingGraph(g)]
    control = controls[0]
    assert sys.getrefcount(working) == sys.getrefcount(control)
    assert not any(r is rs for r in gc.get_referrers(working))


def test_restart_lift_matches_round_accounting():
    # Sparse graphs leave degree-2 paths, so the simple tier fixes and folds
    # in most rounds. The lift of a round's best gains exactly S plus one
    # vertex per fixed vertex and per fold, and stays independent.
    rng = random.Random(61)
    cfg = RunConfig(variant="arir3")
    folds = fixed_by_intersection = 0
    for trial in range(40):
        n = rng.randint(20, 80)
        g = gnp(n, rng.uniform(1.5, 3.0) / n, rng)
        rs, rrng = _round_state(g, seed=trial)
        for _ in range(6):
            best = arw_block(rs.state, 5)
            if len(best) > len(rs.current_best):
                rs.current_best = best
            rs.record(rs.state.solution_set())
            rs = restart_round(g, rs, cfg, rrng)
            lifted = rs.lift(rs.current_best)
            assert len(lifted) == (
                len(rs.current_best)
                + len(rs.S)
                + rs.round_log.fixed_count
                + rs.round_log.fold_count
            )
            assert is_independent(g, lifted)
            folds += rs.round_log.fold_count
            fixed_by_intersection += len(rs.S)
    assert folds > 0 and fixed_by_intersection > 0


def test_restarts_leave_the_frozen_kernel_unchanged(monkeypatch):
    # Folds copy a shared list the first time they extend it and append in
    # place afterwards; neither may write to the frozen kernel's lists.
    rounds = []
    reduce = arir.solver.rir_reduce

    def kept_reduce(*args):
        S, working = reduce(*args)
        rounds.append(working)
        return S, working

    monkeypatch.setattr(arir.solver, "rir_reduce", kept_reduce)
    rng = random.Random(67)
    cfg = RunConfig(variant="arir3")
    in_place = 0
    for trial in range(30):
        n = rng.randint(20, 80)
        g = gnp(n, rng.uniform(1.5, 3.0) / n, rng)
        before = [list(a) for a in g.adjacency]
        rs, rrng = _round_state(g, seed=trial)
        for _ in range(8):
            best = arw_block(rs.state, 5)
            if len(best) > len(rs.current_best):
                rs.current_best = best
            rs.record(rs.state.solution_set())
            rs = restart_round(g, rs, cfg, rrng)
            # A list that grew by two or more was appended to in place.
            in_place += sum(
                len(rounds[-1].adj[v]) - len(a) >= 2 for v, a in enumerate(before)
            )
        assert g.adjacency == before
    assert in_place > 0


def test_restart_lifts_its_round_once(monkeypatch):
    # After a restart, the new round's best is lifted once: that lift is both
    # checked independent and compared against the best of all rounds.
    events = []
    lift, restart, block = (
        arir.solver.extend_solution,
        arir.solver.restart_round,
        arir.solver.arw_block,
    )

    def counted_lift(solution, log, *args, **kwargs):
        # The final lift through the kernel log is not a round's.
        if log.kernel_map is None:
            events.append("lift")
        return lift(solution, log, *args, **kwargs)

    def counted_restart(*args):
        # The old round's intersection is lifted inside restart_round, so
        # the event follows those lifts.
        rs = restart(*args)
        events.append("restart")
        return rs

    def counted_block(*args):
        events.append("block")
        return block(*args)

    monkeypatch.setattr(arir.solver, "extend_solution", counted_lift)
    monkeypatch.setattr(arir.solver, "restart_round", counted_restart)
    monkeypatch.setattr(arir.solver, "arw_block", counted_block)
    g = gnp(60, 0.1, random.Random(71))
    result = run(g, RunConfig(variant="arir3", m=10, n=10, max_blocks=80, seed=2))
    assert result.stats["restarts"] > 3
    assert events.count("restart") == result.stats["restarts"]
    for i, event in enumerate(events):
        if event == "restart":
            rest = events[i + 1 :] + ["block"]
            assert rest[: rest.index("block")] == ["lift"]


def test_verify_final_rejects_an_edge_and_a_free_vertex():
    g = path(5)
    check_solution(g, {0, 2, 4})
    check_solution(g, {1, 3})
    with pytest.raises(ContractError, match="solution carries edge [01]-[01]"):
        check_solution(g, {0, 1, 3})
    with pytest.raises(ContractError, match="vertex 4 is free"):
        check_solution(g, {0, 2})
    with pytest.raises(ContractError, match="vertex 0 is free"):
        check_solution(g, {2, 4})
    # The restart check tests independence only.
    check_solution(g, {2, 4}, maximal=False)
    with pytest.raises(ContractError, match="solution carries edge [34]-[34]"):
        check_solution(g, {3, 4}, maximal=False)
    # The empty graph has nothing to cover; a lone vertex left out is free.
    empty = StaticGraph([])
    check_solution(empty, set())
    check_solution(empty, set(), maximal=False)
    single = StaticGraph([[]])
    check_solution(single, set(), maximal=False)
    with pytest.raises(ContractError, match="vertex 0 is free"):
        check_solution(single, set())


def test_check_solution_matches_brute_force():
    # The one-pass verdict, and the edge or free vertex each failure names,
    # against the brute-force oracles on random graphs and random sets.
    rng = random.Random(13)
    outcomes = set()
    for _ in range(400):
        h = gnp(rng.randint(1, 14), rng.uniform(0.0, 0.6), rng)
        sol = {v for v in range(h.vertex_count) if rng.random() < rng.random()}
        for maximal in (True, False):
            try:
                check_solution(h, sol, maximal)
            except ContractError as error:
                found = re.fullmatch(
                    r"solution carries edge (\d+)-(\d+)"
                    r"|solution is not maximal: vertex (\d+) is free",
                    str(error),
                )
                assert found, str(error)
                if found[1] is not None:
                    a, b = int(found[1]), int(found[2])
                    assert not is_independent(h, sol)
                    assert {a, b} <= sol and h.has_edge(a, b)
                    outcomes.add("edge")
                else:
                    assert maximal and is_independent(h, sol)
                    free = [
                        v
                        for v in range(h.vertex_count)
                        if v not in sol and sol.isdisjoint(h.adjacency[v])
                    ]
                    assert int(found[3]) == min(free)
                    outcomes.add("free")
            else:
                assert is_independent(h, sol)
                assert not maximal or is_maximal(h, sol)
                outcomes.add("pass")
    assert outcomes == {"edge", "free", "pass"}


def test_check_solution_rejects_ids_outside_the_graph():
    # A negative id would index a list from its end and a large one past
    # it; either is named, the smallest if negative, else the largest.
    g = StaticGraph([[1], [0, 2], [1]])
    for maximal in (True, False):
        with pytest.raises(ContractError, match=r"vertex -1, outside 0\.\.2"):
            check_solution(g, {-1, 0}, maximal)
        with pytest.raises(ContractError, match=r"vertex -5, outside"):
            check_solution(g, {-5, -1, 9}, maximal)
        with pytest.raises(ContractError, match=r"vertex 9, outside"):
            check_solution(g, {0, 3, 9}, maximal)
    check_solution(g, {0, 2})
    check_solution(g, set(), maximal=False)
    # The light tier keeps every vertex of the cube, a 3-regular graph, so
    # the kernel's ids are the cube's own and -1 would read as vertex 7.
    cube = build_graph([(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
    kernel = kernelize(cube, "light")
    assert kernel.kernel.vertex_count == 8
    for outside in (-1, 99):
        with pytest.raises(ContractError, match=f"vertex {outside}, outside 0\\.\\.7"):
            kernel.extend({outside})
    assert kernel.extend({7}) == {7}


def _mesh_and_gnm():
    rng = random.Random(17)
    instances = (bench_gen.mesh(20, rng), bench_gen.gnm(400, 600, rng))
    return [build_graph(edges, n) for n, edges in instances]


def test_solver_makes_no_reference_cycles():
    # The pause in run and kernelize is safe only while refcounting frees
    # everything they drop: with the collector off, every variant (with
    # restarts) and every tier leave no cyclic garbage behind.
    graphs = _mesh_and_gnm()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        restarts = dict.fromkeys(VARIANTS, 0)
        for g in graphs:
            for variant in VARIANTS:
                config = RunConfig(variant=variant, m=20, n=20, max_blocks=60, seed=3)
                restarts[variant] += run(g, config).stats["restarts"]
            for tier in TIERS:
                kernelize(g, tier)
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert unreachable == 0
    assert restarts["arw"] == 0
    assert all(restarts[v] > 0 for v in ("arir1", "arir2", "arir3"))


def test_run_leaves_the_collector_as_it_found_it(monkeypatch):
    g = petersen()
    config = RunConfig(max_blocks=2)
    enabled = gc.isenabled()
    try:
        gc.enable()
        run(g, config)
        assert gc.isenabled()
        gc.disable()
        run(g, config)
        kernelize(g)
        assert not gc.isenabled()
        # A run that raises enables the collector again on its way out.
        gc.enable()

        def failing_check(*args, **kwargs):
            raise ContractError("injected")

        monkeypatch.setattr(arir.solver, "check_solution", failing_check)
        with pytest.raises(ContractError, match="injected"):
            run(g, config)
        assert gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


def test_only_a_young_pass_starts_inside_run_or_kernelize():
    # Each call makes thousands of lists at once (the working graph, the
    # kernel, the search snapshot), enough to start a collection whatever
    # the collector's count when it begins. Paused, a call starts one pass,
    # over the youngest generation, on entry.
    n, edges = bench_gen.mesh(60, random.Random(17))
    g = build_graph(edges, n)
    config = RunConfig(variant="arir3", m=20, n=20, max_blocks=60, seed=3)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    calls = [
        (run, (g, config)),
        (kernelize, (g, "advanced")),
    ]
    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        for paused, args in calls:
            # The same body without the pause starts collections, so the
            # count can see one.
            paused.__wrapped__(*args)
            unpaused_starts = len(starts)
            starts.clear()
            paused(*args)
            # Read before anything else allocates: the collector, enabled
            # again, may start a pass at the next allocation.
            paused_starts = len(starts)
            assert unpaused_starts > 0 and paused_starts == 1
            assert starts[0] == 0
    finally:
        gc.callbacks.remove(count)
        if not enabled:
            gc.disable()


def test_run_frees_the_callers_young_cyclic_garbage():
    # The call frees no more than it makes, so the collector's count would
    # not reach its threshold inside it or just after; the young pass on
    # entry frees the cycle the caller dropped before the call.
    class Node:
        pass

    enabled = gc.isenabled()
    gc.enable()
    try:
        gc.collect()
        node = Node()
        node.self = node
        dropped = weakref.ref(node)
        del node
        run(petersen(), RunConfig(max_blocks=1))
        assert dropped() is None
    finally:
        if not enabled:
            gc.disable()


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
    # Its one round begins on an empty snapshot.
    assert result.stats["empty_rounds"] == result.stats["rounds"] == 1


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


def test_start_size_is_the_first_start_lifted():
    # start_size is the first round's start on the input graph: what a run
    # of no blocks returns, and no more than any run of the same seed finds.
    rng = random.Random(61)
    for trial in range(20):
        g = gnp(rng.randint(5, 60), rng.uniform(0.05, 0.3), rng)
        for variant in ("arir1", "arir3"):
            start = run(g, RunConfig(variant=variant, m=20, max_blocks=0, seed=trial))
            assert start.stats["start_size"] == start.stats["best_size"]
            config = RunConfig(variant=variant, m=20, n=40, max_blocks=10, seed=trial)
            searched = run(g, config)
            assert searched.stats["start_size"] == start.stats["start_size"]
            assert searched.stats["start_size"] <= searched.stats["best_size"]


def test_config_validation():
    with pytest.raises(ValueError, match="cutoff"):
        RunConfig(cutoff_seconds=0)
    with pytest.raises(ValueError, match="variant"):
        RunConfig(variant="nope")
    with pytest.raises(ValueError, match="m must"):
        RunConfig(m=0)
    # Block counts are ints: a fraction would fail inside the search or
    # round up a block.
    for field, value in (("m", 10.5), ("m", True), ("n", 20.0), ("max_blocks", 1.5)):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            RunConfig(**{field: value})
    with pytest.raises(ValueError, match="n must be >= 1"):
        RunConfig(n=0)
    with pytest.raises(ValueError, match="cutoff must be a number"):
        RunConfig(cutoff_seconds="5")
    with pytest.raises(ValueError, match="max_blocks must be >= 0"):
        RunConfig(max_blocks=-1)
    cfg = RunConfig(m=7, n=15)
    assert cfg.n == 21  # rounded up to whole blocks
    # A config is frozen, and a copy keeps the period it was made with.
    with pytest.raises(FrozenInstanceError):
        cfg.m = 1
    assert replace(cfg, variant="arir3").n == 21
    assert replace(cfg, m=5).n == 25


def test_config_rejects_a_cutoff_that_never_ends():
    # Without max_blocks the cutoff alone ends a run, so it must be finite.
    for cutoff in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="cutoff must be finite and positive"):
            RunConfig(cutoff_seconds=cutoff)
    assert RunConfig(cutoff_seconds=float("inf"), max_blocks=1).max_blocks == 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        # None would seed from the OS, so the run could not be reproduced.
        ("seed", None, "seed must be an int"),
        ("seed", [1], "seed must be an int"),
        ("seed", True, "seed must be an int"),
        ("seed", 1.0, "seed must be an int"),
        ("target_size", "5", "target_size must be an int"),
        ("target_size", 2.5, "target_size must be an int"),
        ("target_size", False, "target_size must be an int"),
        ("target_size", -1, "target_size must be >= 0"),
    ],
)
def test_config_rejects_bad_seed_and_target_size(field, value, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**{field: value})


def test_run_global_best_survives_restarts():
    # Aggressive restarts must never lose the incumbent: final size is at
    # least the first greedy composite.
    g = gnp(45, 0.25, random.Random(77))
    baseline = run(g, RunConfig(variant="arir2", m=10, max_blocks=0, seed=1))
    churned = run(g, RunConfig(variant="arir2", m=10, n=10, max_blocks=150, seed=1))
    assert churned.stats["best_size"] >= baseline.stats["best_size"]
