import hashlib
import random
from itertools import compress

import pytest

import arir.search
from arir import WorkingGraph, build_graph, exact_mis, kernelize
from arir.search import (
    LiveView,
    SolutionState,
    arw_block,
    greedy_init,
)
from helpers import (
    ScriptedRng,
    bench_gen,
    brute_alpha,
    complete,
    cycle,
    enumerate_swaps,
    find_one_two_swap,
    gnp,
    is_independent,
    is_maximal,
    path,
    petersen,
    random_maximal,
    random_tree,
    star,
    view_of,
)

def fresh_state(g, seed=0):
    return greedy_init(view_of(g), random.Random(seed))


def manual_state(g, solution, rng=None):
    # Inserted in the order given (ascending for a set), which fixes the free
    # list's order, and queued in ascending id for the first swap
    # exhaustion, as greedy_init does.
    view = g if isinstance(g, LiveView) else view_of(g)
    state = SolutionState(view, rng or random.Random(0))
    for v in solution if isinstance(solution, list) else sorted(solution):
        state._insert(v)
    state._queue.extend(compress(range(view.vertex_count), state.in_sol))
    state._in_queue[:] = state.in_sol
    state._zero_buf.clear()
    state._one_buf.clear()
    state._journal.clear()
    return state


def test_greedy_star_picks_leaves():
    state = fresh_state(star(4))
    assert state.solution_set() == {1, 2, 3, 4}


def test_greedy_c5_size2():
    state = fresh_state(cycle(5))
    assert state.size == 2


def stamp_scan_greedy(adj):
    """Reference start, O(n^2): the reducing-peeling rule. Each undecided
    vertex carries its degree (undecided neighbours) and an arrival stamp:
    -id at the start, then a fresh counter value at each drop of its degree,
    in the order the drops happen. While an undecided vertex has degree at
    most 1, each step scans for the least degree, then the latest stamp,
    inserts that vertex and deletes its neighbour; otherwise it peels the
    vertex of greatest degree, then latest stamp, without inserting it.
    Last, each peeled vertex without a solution neighbour is inserted, in
    ascending id. Returns the solution in insertion order and the peeled
    vertices."""
    deg = [len(a) for a in adj]
    stamp = [-v for v in range(len(adj))]
    undecided = set(range(len(adj)))
    clock = 0
    picks = []
    peeled = []
    while undecided:
        v = min(undecided, key=lambda u: (deg[u], -stamp[u]))
        if deg[v] <= 1:
            picks.append(v)
            gone = [u for u in adj[v] if u in undecided]
            undecided.discard(v)
        else:
            v = max(undecided, key=lambda u: (deg[u], stamp[u]))
            peeled.append(v)
            gone = [v]
        undecided.difference_update(gone)
        for u in gone:
            for t in adj[u]:
                if t in undecided:
                    deg[t] -= 1
                    clock += 1
                    stamp[t] = clock
    chosen = set(picks)
    for v in sorted(peeled):
        if not any(u in chosen for u in adj[v]):
            picks.append(v)
            chosen.add(v)
    return picks, peeled


def assert_greedy_state(view, seed):
    """greedy_init's whole state equals the one manual_state builds from the
    reference's picks in the reference's order: solution, tightness,
    touches, free list and positions, swap queue in order, RNG, and both
    buffers and the journal empty."""
    state = greedy_init(view, random.Random(seed))
    assert state._zero_buf == [] and state._one_buf == []
    picks, _ = stamp_scan_greedy(view.adjacency)
    expected = manual_state(view, picks, random.Random(seed))
    for name in SolutionState.__slots__:
        if name not in ("view", "rng"):
            assert getattr(state, name) == getattr(expected, name), name
    assert state.rng.getstate() == expected.rng.getstate()
    return state


def test_greedy_matches_stamp_scan_reference():
    rng = random.Random(43)
    graphs = [star(5), cycle(7), path(6), petersen(), complete(5)]
    for _ in range(30):
        graphs.append(gnp(rng.randint(1, 60), rng.uniform(0.02, 0.4), rng))
        graphs.append(random_tree(rng.randint(1, 60), rng))
    # The benchmark's generators at small sizes.
    instances = [bench_gen.mesh(side, rng) for side in (1, 2, 5, 12, 30)]
    instances += [bench_gen.gnm(n, 3 * n // 2, rng) for n in (30, 200, 500)]
    for n, edges in instances:
        graphs.append(build_graph(edges, vertex_count_hint=n))
    for g in graphs:
        assert_greedy_state(view_of(g), 0)
    # Snapshots with gaps in their ids, after random kills and folds.
    for trial in range(30):
        w = WorkingGraph(gnp(rng.randint(5, 50), rng.uniform(0.05, 0.3), rng))
        for _ in range(rng.randint(1, 10)):
            alive = w.alive_vertices()
            if not alive:
                break
            v = rng.choice(alive)
            if w.live_degree[v] == 2 and not w.adjacent(*w.alive_neighbors(v)):
                w.fold_degree2(v, w.alive_neighbors(v))
            else:
                w.delete((v,))
        view = LiveView.from_working(w)
        expected = {view.ids[v] for v in stamp_scan_greedy(view.adjacency)[0]}
        assert assert_greedy_state(view, trial).solution_set() == expected


def random_forest(n, rng):
    """A forest on n vertices: each vertex after the first joins an earlier
    one with probability 0.8, or starts a new tree."""
    edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8]
    return build_graph(edges, vertex_count_hint=n)


def test_greedy_is_optimal_on_forests():
    # A forest always has a vertex of degree at most 1, so nothing is peeled
    # and every step is an exact reduction.
    rng = random.Random(53)
    for trial in range(300):
        g = random_forest(rng.randint(1, 64), rng)
        assert fresh_state(g, trial).size == exact_mis(g).alpha, trial


def test_greedy_against_exact_mis():
    rng = random.Random(59)
    exact = 0
    for trial in range(200):
        g = gnp(rng.randint(1, 64), rng.uniform(0.02, 0.5), rng)
        sol = fresh_state(g, trial).solution_set()
        alpha = exact_mis(g).alpha
        assert is_independent(g, sol) and is_maximal(g, sol)
        assert len(sol) <= alpha
        if not stamp_scan_greedy(g.adjacency)[1]:
            assert len(sol) == alpha, trial
            exact += 1
    # The exact case is exercised, not vacuous.
    assert exact >= 20


def test_greedy_random_is_maximal_independent():
    rng = random.Random(21)
    for trial in range(20):
        g = gnp(50, 0.2, rng)
        state = fresh_state(g, trial)
        state.audit()
        sol = state.solution_set()
        assert is_independent(g, sol) and is_maximal(g, sol)


def test_maintain_maximality_restores_p3():
    # Half a swap: the center leaves, one end comes in; removing the center
    # put both ends on the candidate list.
    state = manual_state(path(3), {1})
    state._remove(1)
    state._insert(0)
    assert state.size == 1
    state.maintain_maximality()
    assert state.size == 2
    state.audit()


def test_maintain_maximality_noop_when_maximal():
    state = fresh_state(cycle(5))
    size = state.size
    state.maintain_maximality()
    assert state.size == size


def test_maintain_maximality_random_leaves_no_zero_tight():
    rng = random.Random(4)
    for trial in range(15):
        g = gnp(40, 0.15, rng)
        state = fresh_state(g, trial)
        removed = [v for v in sorted(state.solution_set()) if rng.random() < 0.5]
        for v in removed:
            state._remove(v)
        # _remove queues the neighbors that became 0-tight; the removed
        # vertices themselves are the caller's to queue.
        for v in removed:
            state._zero_buf.append(v)
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


def test_find_pair_matches_first_enumerated_swap():
    rng = random.Random(47)
    for trial in range(300):
        g = gnp(rng.randint(4, 24), rng.uniform(0.05, 0.5), rng)
        sol = random_maximal(g, rng)
        state = manual_state(g, sol)
        all_swaps = enumerate_swaps(g, sol)
        for x in sorted(sol):
            first = next(((u, w) for y, u, w in all_swaps if y == x), None)
            assert state._find_pair(x) == first, (trial, x)


def test_perturb_force_one_on_p3():
    state = manual_state(path(3), {0, 2}, rng=ScriptedRng(uniforms=[0.9]))
    forced = state.perturb()
    assert forced == [1]
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
    assert state.perturb() == []


def test_force_count_distribution():
    # On a perfect matching, forced batch size equals the sampled count, so
    # the coin-flip law P(c=k) = 2^-k is observable: P(c=1) should be ~1/2.
    edges = [(i, i + 100) for i in range(100)]
    g = build_graph(edges)
    state = fresh_state(g, seed=5)
    ones = 0
    samples = 10_000
    for _ in range(samples):
        ones += len(state.perturb()) == 1
    assert 0.47 <= ones / samples <= 0.53


def test_arw_block_m0_identity():
    state = fresh_state(cycle(6), seed=2)
    before = state.solution_set()
    assert arw_block(state, 0) == before
    assert state.solution_set() == before


def test_arw_block_petersen_reaches_alpha():
    g = petersen()
    assert exact_mis(g).alpha == 4
    state = greedy_init(view_of(g), random.Random(1))
    best = arw_block(state, 10_000)
    assert len(best) == 4
    assert is_independent(g, best)


def test_arw_block_c6_swap_improves():
    g = cycle(6)
    assert exact_mis(g).alpha == 3
    state = manual_state(g, {0, 3}, rng=random.Random(1))
    best = arw_block(state, 1)
    assert len(best) == 3
    assert is_independent(g, best)


def test_arw_block_output_at_least_input():
    rng = random.Random(12)
    for trial in range(50):
        g = gnp(rng.randint(10, 60), rng.uniform(0.05, 0.3), rng)
        state = fresh_state(g, trial)
        before = state.size
        best = arw_block(state, 20)
        assert len(best) >= before
        assert is_independent(g, best)
        assert is_maximal(g, best)
        state.audit()


def test_arw_block_deterministic():
    g = gnp(40, 0.2, random.Random(3))
    bests = []
    for _ in range(2):
        state = greedy_init(view_of(g), random.Random(9))
        bests.append(arw_block(state, 200))
    assert bests[0] == bests[1]


def test_exhaustion_leaves_no_swap():
    rng = random.Random(6)
    for trial in range(40):
        g = gnp(rng.randint(8, 50), rng.uniform(0.05, 0.4), rng)
        state = fresh_state(g, trial)
        state.exhaust_swaps()
        assert find_one_two_swap(state) is None
        for _ in range(10):
            state.perturb()
            state.exhaust_swaps()
            assert find_one_two_swap(state) is None


def test_free_list_stays_in_sync(monkeypatch):
    g = gnp(60, 0.1, random.Random(14))
    for cap in (1, arir.search._FORCE_CAP):
        monkeypatch.setattr(arir.search, "_FORCE_CAP", cap)
        state = fresh_state(g, seed=3)
        state.audit()
        for _ in range(80):
            arw_block(state, 100)
            state.audit()


def test_pick_reaches_every_free_vertex_of_petersen():
    g = petersen()
    rng = random.Random(17)
    for trial in range(10):
        state = manual_state(g, random_maximal(g, rng), rng=random.Random(trial))
        free = [v for v in range(10) if not state.in_sol[v]]
        counts = dict.fromkeys(free, 0)
        draws = 600 * len(free)
        for _ in range(draws):
            counts[state._pick([])] += 1
        # Uniform: each free vertex near 600 draws, none missed.
        assert all(450 <= c <= 750 for c in counts.values()), counts


def test_perturb_picks_the_centre_of_a_star():
    # The centre is the only free vertex; forcing it evicts every leaf, and
    # no other vertex can join the batch.
    g = star(6)
    state = manual_state(g, set(range(1, 7)), rng=random.Random(4))
    assert state._free == [0]
    assert state.perturb() == [0]
    assert state.solution_set() == {0}
    state.audit()


def snapshot(state):
    return (
        bytes(state.in_sol),
        list(state.tight),
        state.size,
        list(state._free),
        # A solution vertex's entry is stale: in_sol alone records it.
        [p for p, sol in zip(state._free_pos, state.in_sol) if not sol],
        list(state._zero_buf),
        list(state._one_buf),
        len(state._queue),
    )


def test_rejected_iteration_restores_the_state():
    # Each scripted iteration forces one vertex, the free list's k-th entry
    # (a 0.9 coin ends the count at 1), and its last draw, 0.99, rejects
    # any worse outcome, since 0.99 * (1 + d * d_best) >= 1.98.
    rng = random.Random(61)
    rejections = 0
    for trial in range(60):
        g = gnp(rng.randint(8, 64), rng.uniform(0.05, 0.4), rng)
        state = greedy_init(view_of(g), random.Random(trial))
        arw_block(state, rng.randint(1, 30))
        for k in range(len(state._free)):
            free = len(state._free)
            if k >= free:
                break
            state.rng = ScriptedRng(uniforms=[0.9, (k + 0.5) / free, 0.99])
            before = snapshot(state)
            rejected = state.rejected
            arw_block(state, 1)
            if state.rejected > rejected:
                rejections += 1
                assert snapshot(state) == before, trial
            else:
                assert state.size >= before[2], trial
            state.audit()
    # The rejection path is exercised, not vacuous.
    assert rejections >= 200


def test_undo_restores_any_iteration():
    # _undo restores the iteration's start whatever its outcome.
    rng = random.Random(67)
    for trial in range(100):
        g = gnp(rng.randint(4, 64), rng.uniform(0.05, 0.4), rng)
        state = greedy_init(view_of(g), random.Random(trial))
        state.exhaust_swaps()
        for _ in range(5):
            before = snapshot(state)
            state._journal.clear()
            state.perturb()
            state.exhaust_swaps()
            state._undo()
            assert snapshot(state) == before, trial
            state.audit()
            state.perturb()
            state.exhaust_swaps()


def test_arw_block_against_exact_mis():
    rng = random.Random(71)
    for trial in range(150):
        g = gnp(rng.randint(1, 64), rng.uniform(0.02, 0.5), rng)
        alpha = exact_mis(g).alpha
        if trial % 2:
            state = fresh_state(g, trial)
        else:
            state = manual_state(g, random_maximal(g, rng), rng=random.Random(trial))
        iterations = 0
        for m in (1, 10, 50):
            before = state.size
            best = arw_block(state, m)
            iterations += m
            assert is_independent(g, best) and is_maximal(g, best), trial
            assert before <= len(best) <= alpha, trial
            assert state.rejected <= iterations
            state.audit()


def test_arw_block_leaves_no_swap():
    rng = random.Random(23)
    for trial in range(30):
        g = gnp(rng.randint(8, 60), rng.uniform(0.05, 0.4), rng)
        state = manual_state(g, random_maximal(g, rng), rng=random.Random(trial))
        for m in (1, 1, 5, 20):
            arw_block(state, m)
            assert find_one_two_swap(state) is None


def test_greedy_queue_matches_full_rescan():
    # The rescanning state queues every solution vertex in ascending id
    # before each block; the other relies on the queue greedy_init left and
    # the tightness transitions since.
    rng = random.Random(29)
    for trial in range(20):
        g = gnp(rng.randint(10, 80), rng.uniform(0.03, 0.3), rng)
        states = [fresh_state(g, trial) for _ in range(2)]
        for _ in range(4):
            bests = []
            for state, rescan in zip(states, (False, True)):
                if rescan:
                    n = state.view.vertex_count
                    state._queue.clear()
                    state._queue.extend(compress(range(n), state.in_sol))
                    state._in_queue[:] = state.in_sol
                bests.append(arw_block(state, 25))
            assert bests[0] == bests[1]
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
                w.fold_degree2(v, w.alive_neighbors(v))
            else:
                w.delete((v,))
        view = LiveView.from_working(w)
        view.audit()
        assert view.ids == w.alive_vertices()
        for i in range(view.vertex_count):
            assert [view.ids[u] for u in view.adjacency[i]] == w.alive_neighbors(
                view.ids[i]
            )
        # Solutions leave the search in working-graph ids.
        state = greedy_init(view, random.Random(trial))
        best = arw_block(state, 5)
        alive = w.alive_vertices()
        for sol in (state.solution_set(), best):
            assert sol <= set(alive)
            assert all(u not in sol for v in sol for u in w.alive_neighbors(v))
            assert all(
                v in sol or any(u in sol for u in w.alive_neighbors(v)) for v in alive
            )


# Block best sizes, final touches and a digest of the final solution mask
# for three 2,000-iteration blocks on the light kernel of a 60x60 mesh; a
# change to the swap probe, the perturbation or the RNG stream shows here.
# A change that alters the trajectory on purpose updates these pins and says
# so in CHANGES.md.
PINNED_TRAJECTORIES = [
    (1, [1322, 1322, 1323], 1028041, "517e8519a906fbf9"),
    (2, [1320, 1327, 1330], 1033055, "0292d863547e14e0"),
]


@pytest.mark.parametrize(
    "seed,bests,touches,digest",
    PINNED_TRAJECTORIES,
    ids=[f"seed{case[0]}" for case in PINNED_TRAJECTORIES],
)
def test_search_trajectory_pinned(seed, bests, touches, digest):
    n, edges = bench_gen.mesh(60, random.Random(1))
    kernel = kernelize(build_graph(edges, vertex_count_hint=n), "light").kernel
    state = greedy_init(view_of(kernel), random.Random(seed))
    assert [len(arw_block(state, 2000)) for _ in range(3)] == bests
    assert state.touches == touches
    assert hashlib.sha256(bytes(state.in_sol)).hexdigest()[:16] == digest
