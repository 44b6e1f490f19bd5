import random

import arir.search
from arir import WorkingGraph, build_graph, exact_mis
from arir.search import (
    BestTracker,
    LiveView,
    SolutionState,
    arw_block,
    find_one_two_swap,
    greedy_init,
)
from helpers import (
    ScriptedRng,
    brute_alpha,
    complete,
    cycle,
    enumerate_swaps,
    gnp,
    is_independent,
    is_maximal,
    path,
    petersen,
    star,
    view_of,
)


def fresh_state(g, seed=0):
    return greedy_init(view_of(g), random.Random(seed))


def manual_state(g, solution, rng=None):
    state = SolutionState(view_of(g), rng or random.Random(0))
    for v in sorted(solution):
        state._insert(v)
    state._zero_heap.clear()
    state._one_buf.clear()
    return state


def random_maximal(g, rng):
    order = list(range(g.vertex_count))
    rng.shuffle(order)
    sol = set()
    for v in order:
        if all(u not in sol for u in g.adjacency[v]):
            sol.add(v)
    return sol


def test_greedy_star_picks_leaves():
    state = fresh_state(star(4))
    assert state.solution_set() == {1, 2, 3, 4}


def test_greedy_c5_size2():
    state = fresh_state(cycle(5))
    assert state.size == 2


def test_greedy_random_is_maximal_independent():
    rng = random.Random(21)
    for trial in range(20):
        g = gnp(50, 0.2, rng)
        state = fresh_state(g, trial)
        state.audit()
        sol = state.solution_set()
        assert is_independent(g, sol) and is_maximal(g, sol)


def test_maintain_maximality_restores_p3():
    state = manual_state(path(3), {0, 2})
    state._remove(0)
    assert state.size == 1
    inserted = state.maintain_maximality()
    assert inserted == 1
    assert state.size == 2
    state.audit()


def test_maintain_maximality_noop_when_maximal():
    state = fresh_state(cycle(5))
    assert state.maintain_maximality() == 0


def test_maintain_maximality_random_leaves_no_zero_tight():
    rng = random.Random(4)
    for trial in range(15):
        g = gnp(40, 0.15, rng)
        state = manual_state(g, set())
        state.maintain_maximality()
        state.audit()
        assert is_maximal(g, state.solution_set())


def test_swap_found_on_p3_center():
    state = manual_state(path(3), {1})
    swap = find_one_two_swap(state)
    assert swap == (1, 0, 2)
    state._remove(1)
    state._insert(0)
    state._insert(2)
    state.audit()
    assert state.size == 2


def test_swap_none_on_optimal_c5():
    g = cycle(5)
    state = fresh_state(g)
    assert state.size == brute_alpha(g) == 2
    assert find_one_two_swap(state) is None
    assert enumerate_swaps(g, state.solution_set()) == []


def test_swap_none_on_k3():
    state = manual_state(complete(3), {0})
    assert find_one_two_swap(state) is None


def test_swap_sound_and_complete_small():
    rng = random.Random(31)
    for trial in range(300):
        n = rng.randint(4, 20)
        g = gnp(n, rng.uniform(0.1, 0.5), rng)
        # A random maximal solution, not just the greedy one.
        sol = random_maximal(g, rng)
        state = manual_state(g, sol)
        found = find_one_two_swap(state)
        all_swaps = enumerate_swaps(g, sol)
        if found is None:
            assert all_swaps == []
        else:
            x, u, w = found
            assert x in sol and u not in sol and w not in sol
            assert not g.has_edge(u, w)
            assert set(g.adjacency[u]) & sol == {x}
            assert set(g.adjacency[w]) & sol == {x}
            assert all_swaps


def test_perturb_force_one_on_p3():
    state = manual_state(path(3), {0, 2}, rng=ScriptedRng(uniforms=[0.9]))
    forced = state.perturb()
    assert forced == {1}
    assert state.solution_set() == {1}
    state.audit()
    assert is_maximal(path(3), state.solution_set())


def test_perturb_batch_never_adjacent():
    # c=2 on P4 from {0,3}: both free vertices are adjacent, so the second
    # pick keeps redrawing and the batch stays a single vertex.
    state = manual_state(path(4), {0, 3}, rng=ScriptedRng(uniforms=[0.4, 0.9]))
    forced = state.perturb()
    assert len(forced) == 1
    state.audit()

    rng = random.Random(8)
    for trial in range(100):
        g = gnp(30, 0.15, rng)
        state = fresh_state(g, trial)
        forced = sorted(state.perturb())
        for i, u in enumerate(forced):
            for w in forced[i + 1 :]:
                assert not g.has_edge(u, w)
        state.audit()


def test_perturb_noop_without_free_vertices():
    g = build_graph([], vertex_count_hint=3)
    state = fresh_state(g)
    assert state.size == 3
    assert state.perturb() == set()


def test_force_count_distribution():
    # On a perfect matching, forced batch size equals the sampled count, so
    # the coin-flip law P(c=k) = 2^-k is observable: P(c=1) should be ~1/2.
    edges = [(i, i + 100) for i in range(100)]
    g = build_graph(edges)
    state = fresh_state(g, seed=5)
    ones = 0
    samples = 10_000
    for _ in range(samples):
        state.iteration += 1
        ones += len(state.perturb()) == 1
    assert 0.47 <= ones / samples <= 0.53


def test_arw_block_m0_identity():
    state = fresh_state(cycle(6), seed=2)
    before = state.solution_set()
    tracker = arw_block(state, 0)
    assert tracker.best_set == before
    assert tracker.best_size == len(before)
    assert state.solution_set() == before


def test_arw_block_petersen_reaches_alpha():
    g = petersen()
    assert exact_mis(g).alpha == 4
    state = greedy_init(view_of(g), random.Random(1))
    tracker = arw_block(state, 10_000)
    assert tracker.best_size == 4
    assert is_independent(g, tracker.best_set)


def test_arw_block_c6_swap_improves():
    g = cycle(6)
    assert exact_mis(g).alpha == 3
    state = manual_state(g, {0, 3}, rng=random.Random(1))
    tracker = arw_block(state, 1)
    assert tracker.best_size == 3
    assert is_independent(g, tracker.best_set)


def test_arw_block_output_at_least_input():
    rng = random.Random(12)
    for trial in range(50):
        g = gnp(rng.randint(10, 60), rng.uniform(0.05, 0.3), rng)
        state = fresh_state(g, trial)
        before = state.size
        tracker = arw_block(state, 20)
        assert tracker.best_size >= before
        assert is_independent(g, tracker.best_set)
        assert is_maximal(g, tracker.best_set)
        state.audit()


def test_arw_block_deterministic():
    g = gnp(40, 0.2, random.Random(3))
    trackers = []
    for _ in range(2):
        state = greedy_init(view_of(g), random.Random(9))
        trackers.append(arw_block(state, 200))
    assert trackers[0] == BestTracker(trackers[1].best_set, trackers[1].best_size)


def test_exhaustion_leaves_no_swap():
    rng = random.Random(6)
    for trial in range(40):
        g = gnp(rng.randint(8, 50), rng.uniform(0.05, 0.4), rng)
        state = fresh_state(g, trial)
        state.exhaust_swaps(seed_all=True)
        for _ in range(10):
            state.iteration += 1
            state.perturb()
            state.exhaust_swaps()
            assert find_one_two_swap(state) is None


def test_age_queue_compacts_and_stays_in_sync():
    g = gnp(60, 0.1, random.Random(14))
    state = fresh_state(g, seed=3)
    compacted = False
    for _ in range(80):
        before = len(state._age)
        arw_block(state, 100)
        # Between compactions the queue only grows.
        compacted = compacted or len(state._age) < before
        state.audit()
    assert compacted


def test_perturb_picks_from_the_oldest_window(monkeypatch):
    rng = random.Random(19)
    for trial in range(30):
        g = gnp(rng.randint(20, 200), rng.uniform(0.01, 0.2), rng)
        state = fresh_state(g, trial)
        for _ in range(40):
            state.iteration += 1
            free = [v for v in range(state.view.vertex_count) if not state.in_sol[v]]
            forced = state.perturb()
            state.exhaust_swaps()
            assert forced <= set(free)
        # With one forced vertex per call, the pick comes from the window of
        # the state just before the call.
        with monkeypatch.context() as patch:
            patch.setattr(arir.search, "_FORCE_CAP", 1)
            for _ in range(40):
                state.iteration += 1
                last_out = list(state.last_out)
                free = [
                    v for v in range(state.view.vertex_count) if not state.in_sol[v]
                ]
                ages = sorted(last_out[v] for v in free)
                forced = state.perturb()
                state.exhaust_swaps()
                assert len(forced) == 1
                assert last_out[next(iter(forced))] <= ages[len(ages) // 32]
        state.audit()


def test_arw_block_leaves_no_swap():
    rng = random.Random(23)
    for trial in range(30):
        g = gnp(rng.randint(8, 60), rng.uniform(0.05, 0.4), rng)
        state = manual_state(g, random_maximal(g, rng), rng=random.Random(trial))
        for m in (1, 1, 5, 20):
            arw_block(state, m)
            assert find_one_two_swap(state) is None


def test_skipped_rescan_matches_full_rescan():
    rng = random.Random(29)
    for trial in range(20):
        g = gnp(rng.randint(10, 80), rng.uniform(0.03, 0.3), rng)
        states = [fresh_state(g, trial) for _ in range(2)]
        for _ in range(4):
            trackers = []
            for state, rescan in zip(states, (False, True)):
                if rescan:
                    state.swap_free = False
                trackers.append(arw_block(state, 25))
            assert trackers[0] == trackers[1]
            assert states[0].solution_set() == states[1].solution_set()


def test_snapshot_matches_working_graph():
    rng = random.Random(37)
    for trial in range(40):
        g = gnp(rng.randint(5, 40), rng.uniform(0.05, 0.3), rng)
        w = WorkingGraph(g)
        for _ in range(rng.randint(0, 12)):
            alive = w.alive_vertices()
            if not alive:
                break
            v = rng.choice(alive)
            if w.live_degree[v] == 2 and not w.adjacent(*w.alive_neighbors(v)):
                w.fold_degree2(v)
            else:
                w.kill(v)
        view = LiveView.from_working(w)
        view.audit()
        assert view.ids == w.alive_vertices()
        for i in range(view.vertex_count):
            assert [view.ids[u] for u in view.adjacency[i]] == w.alive_neighbors(
                view.ids[i]
            )
        # Solutions leave the search in working-graph ids.
        state = greedy_init(view, random.Random(trial))
        tracker = arw_block(state, 5)
        alive = w.alive_vertices()
        for sol in (state.solution_set(), tracker.best_set):
            assert sol <= set(alive)
            assert all(u not in sol for v in sol for u in w.alive_neighbors(v))
            assert all(
                v in sol or any(u in sol for u in w.alive_neighbors(v)) for v in alive
            )
