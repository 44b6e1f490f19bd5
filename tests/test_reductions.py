import hashlib
import random
import re
from collections import deque

import pytest

import arir.reductions as reductions
from arir import (
    ContractError,
    ReductionLog,
    WorkingGraph,
    build_graph,
    exact_mis,
    extend_solution,
    kernelize,
    run_to_fixpoint,
)
from arir.reductions import (
    rule_domination,
    rule_fold2,
    rule_one_vertex,
    rule_quadrilateral,
    rule_triangle,
    rule_twin_edge,
    rule_zero_vertex,
)
from arir.solver import rir_reduce
from helpers import (
    bench_gen,
    brute_alpha,
    complete,
    cycle,
    gnp,
    is_independent,
    is_maximal,
    path,
    random_maximal,
    random_tree,
    star,
)


def kernel_alpha(g, tier):
    result = kernelize(g, tier)
    a = exact_mis(result.kernel).alpha if result.kernel.vertex_count else 0
    return result.fixed_count + result.fold_count + a, result


def test_zero_vertex():
    g = build_graph([(0, 1)], vertex_count_hint=3)
    w = WorkingGraph(g)
    log = ReductionLog()
    assert rule_zero_vertex(w, 2, log)
    assert not w.alive[2]
    assert not rule_zero_vertex(w, 0, log)  # degree 1
    assert log.fixed_count == 1


def test_zero_vertex_empty_graph():
    g = build_graph([], vertex_count_hint=4)
    fixed, log = run_to_fixpoint(WorkingGraph(g), tier="simple")
    # The first item is the log's own list, not a copy.
    assert fixed is log.fixed
    assert set(fixed) == {0, 1, 2, 3}
    assert extend_solution(set(), log) == {0, 1, 2, 3}


def test_one_vertex_p2():
    w = WorkingGraph(path(2))
    log = ReductionLog()
    assert rule_one_vertex(w, 0, log)
    assert sum(w.alive) == 0
    assert log.fixed == [0]
    assert not w.alive[1]


def test_one_vertex_star_cascade():
    fixed, log = run_to_fixpoint(WorkingGraph(star(4)), tier="simple")
    assert len(fixed) == 4
    assert extend_solution(set(), log) == {1, 2, 3, 4}


def test_one_vertex_p4_cascade():
    g = path(4)
    total, _ = kernel_alpha(g, "simple")
    assert total == brute_alpha(g) == 2


def test_triangle_k3():
    w = WorkingGraph(complete(3))
    log = ReductionLog()
    assert rule_triangle(w, 0, log)
    assert sum(w.alive) == 0
    assert log.fixed_count == 1


def test_triangle_with_pendant():
    # K3 on {0,1,2} plus pendant 3 on vertex 0; vertex 1 is a 2-vertex.
    g = build_graph([(0, 1), (1, 2), (0, 2), (0, 3)])
    w = WorkingGraph(g)
    log = ReductionLog()
    assert rule_triangle(w, 1, log)
    assert w.alive_vertices() == [3]
    assert w.live_degree[3] == 0
    total, _ = kernel_alpha(g, "simple")
    assert total == brute_alpha(g) == 2


def test_triangle_noop_on_c4():
    w = WorkingGraph(cycle(4))
    assert not rule_triangle(w, 0, ReductionLog())


def test_quadrilateral_c4():
    g = cycle(4)
    w = WorkingGraph(g)
    log = ReductionLog()
    assert rule_quadrilateral(w, 0, log)
    assert sum(w.alive) == 0
    assert log.fixed_count == 2
    assert extend_solution(set(), log) == {0, 2}


def test_quadrilateral_with_pendant():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)])
    w = WorkingGraph(g)
    log = ReductionLog()
    assert rule_quadrilateral(w, 0, log)
    assert w.alive_vertices() == [4]
    assert w.live_degree[4] == 0
    total, _ = kernel_alpha(g, "simple")
    assert total == brute_alpha(g) == 3


def test_quadrilateral_noop_on_c5():
    w = WorkingGraph(cycle(5))
    for v in range(5):
        assert not rule_quadrilateral(w, v, ReductionLog())


def test_fold2_p3_lift_both_ways():
    w = WorkingGraph(path(3))
    log = ReductionLog()
    assert rule_fold2(w, 1, log)
    assert log.folds == [(3, 1, 0, 2)]
    assert not log.fixed
    assert extend_solution({3}, log) == {0, 2}
    assert extend_solution(set(), log) == {1}


def test_fold2_c5_alpha_preserved():
    g = cycle(5)
    w = WorkingGraph(g)
    log = ReductionLog()
    assert rule_fold2(w, 0, log)
    kernel, orig = w.freeze()
    assert exact_mis(kernel).alpha + log.fold_count == brute_alpha(g) == 2


def test_fold2_restricted_requires_degree2_neighbors():
    w = WorkingGraph(path(3))  # leaves have degree 1
    assert not rule_fold2(w, 1, ReductionLog(), restricted=True)
    assert rule_fold2(w, 1, ReductionLog())


def test_domination_triangle_with_pendant():
    # Pendant 3 on vertex 0 of K3: N[1] is inside N[0], so 0 is excludable.
    g = build_graph([(0, 1), (1, 2), (0, 2), (0, 3)])
    w = WorkingGraph(g)
    assert rule_domination(w, 0)
    assert not w.alive[0]
    kernel, _ = w.freeze()
    assert exact_mis(kernel).alpha == brute_alpha(g) == 2


def test_domination_k2():
    w = WorkingGraph(path(2))
    assert rule_domination(w, 0)
    assert w.alive_vertices() == [1]
    assert w.live_degree[1] == 0


def test_domination_noop_on_c5():
    w = WorkingGraph(cycle(5))
    for v in range(5):
        assert not rule_domination(w, v)


def dominated_by_a_neighbor(w, v):
    """Reference: some alive u in N(v) has deg(u) <= deg(v) and N[u] inside N[v]."""
    closed_v = set(w.alive_neighbors(v)) | {v}
    return any(
        len(w.alive_neighbors(u)) <= len(closed_v) - 1
        and set(w.alive_neighbors(u)) | {u} <= closed_v
        for u in w.alive_neighbors(v)
    )


def test_domination_matches_reference_after_kills_and_folds():
    rng = random.Random(53)
    fires = misses = 0
    for _ in range(60):
        w = WorkingGraph(gnp(rng.randint(4, 40), rng.uniform(0.05, 0.5), rng))
        for _ in range(rng.randint(0, 10)):
            alive = w.alive_vertices()
            if not alive:
                break
            v = rng.choice(alive)
            if w.live_degree[v] == 2 and not w.adjacent(*w.alive_neighbors(v)):
                w.fold_degree2(v, w.alive_neighbors(v))
            else:
                w.delete((v,))
        order = list(range(len(w.alive)))
        rng.shuffle(order)
        for v in order:
            expected = w.alive[v] and dominated_by_a_neighbor(w, v)
            before = sum(w.alive)
            assert rule_domination(w, v) == expected
            # A fire removes v and nothing else.
            assert sum(w.alive) == before - expected
            assert not (expected and w.alive[v])
            w.audit()
            fires += expected
            misses += not expected
    assert fires > 50 and misses > 50


def twin_gadget(extra_edges):
    # Vertices 3 and 4 both see exactly {0, 1, 2}.
    base = [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)]
    return build_graph(base + extra_edges)


def test_twin_edge_fires_with_edge_inside():
    g = twin_gadget([(0, 1)])
    w = WorkingGraph(g)
    log = ReductionLog()
    assert rule_twin_edge(w, 3, log)
    assert sum(w.alive) == 0
    assert extend_solution(set(), log) == {3, 4}
    assert brute_alpha(g) == 2


def test_twin_edge_noop_without_edge():
    w = WorkingGraph(twin_gadget([]))
    assert not rule_twin_edge(w, 3, ReductionLog())


def test_twin_edge_noop_partial_overlap():
    g = build_graph([(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 5), (0, 1)])
    w = WorkingGraph(g)
    assert not rule_twin_edge(w, 3, ReductionLog())
    assert not rule_twin_edge(w, 4, ReductionLog())


def test_fixpoint_empties_random_trees():
    rng = random.Random(13)
    for _ in range(25):
        g = random_tree(15, rng)
        total, result = kernel_alpha(g, "simple")
        assert result.kernel.vertex_count == 0
        assert total == brute_alpha(g)


def test_fixpoint_c5_simple_tier():
    total, result = kernel_alpha(cycle(5), "simple")
    assert result.kernel.vertex_count == 0
    assert total == 2
    assert extend_solution(set(), result.log) <= set(range(5))


def test_fixpoint_k4_untouched():
    result = kernelize(complete(4), "simple")
    assert result.kernel.vertex_count == 4
    assert result.kernel.edge_count == 6
    assert result.fixed_count == 0 and result.fold_count == 0


def test_fixpoint_idempotent():
    # Each tier, on small random graphs and on a benchmark-shaped sparse
    # graph and mesh: a second run over the result fires nothing.
    rng = random.Random(23)
    graphs = [gnp(rng.randint(4, 30), rng.uniform(0.05, 0.4), rng) for _ in range(20)]
    for n, edges in (bench_gen.gnm(300, 450, rng), bench_gen.mesh(12, rng)):
        graphs.append(build_graph(edges, vertex_count_hint=n))
    for tier in reductions.TIERS:
        for g in graphs:
            w = WorkingGraph(g)
            run_to_fixpoint(w, tier)
            alive = sum(w.alive)
            fixed2, log2 = run_to_fixpoint(w, tier)
            assert not fixed2 and not log2.fixed and not log2.folds, tier
            # Domination leaves no log record; a second fire would kill a
            # vertex.
            assert sum(w.alive) == alive, tier


# The reference's own table of each tier's rules, kept apart from the
# dispatcher's branches.
TIER_RULES = {
    "light": {"zero", "one", "fold"},
    "simple": {"zero", "one", "triangle", "quadrilateral", "fold_restricted"},
    "advanced": {"zero", "one", "triangle", "fold", "domination", "twin_edge"},
}


def ungated_apply_first(W, v, tier, log):
    """Reference: try every rule of the tier in order, whatever v's degree."""
    rules = TIER_RULES[tier]
    W.check_steps += 2
    if "zero" in rules and reductions.rule_zero_vertex(W, v, log):
        return True
    if "one" in rules and reductions.rule_one_vertex(W, v, log):
        return True
    if "triangle" in rules and reductions.rule_triangle(W, v, log):
        return True
    if "quadrilateral" in rules and reductions.rule_quadrilateral(W, v, log):
        return True
    if "fold" in rules and reductions.rule_fold2(W, v, log):
        return True
    if "fold_restricted" in rules:
        if reductions.rule_fold2(W, v, log, restricted=True):
            return True
        if W.live_degree[v] == 2:
            for u in W.alive_neighbors(v):
                if W.live_degree[u] == 2 and reductions.rule_fold2(
                    W, u, log, restricted=True
                ):
                    return True
    if "domination" in rules:
        if reductions.rule_domination(W, v) or reductions._dominates_neighbor(W, v):
            return True
    return "twin_edge" in rules and reductions.rule_twin_edge(W, v, log)


def test_degree_gating_matches_ungated_rule_order(monkeypatch):
    # Sparse graphs with twin pairs, so every rule fires somewhere.
    rng = random.Random(59)
    graphs = []
    for _ in range(40):
        n = rng.randint(8, 60)
        m = rng.randint(n, 2 * n)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        for _ in range(rng.randint(0, 3)):
            a, b, c, x, y = rng.sample(range(n), 5)
            edges += [(x, a), (x, b), (x, c), (y, a), (y, b), (y, c), (a, b)]
        edges = [(u, v) for u, v in edges if u != v]
        graphs.append(build_graph(edges, vertex_count_hint=n))
    graphs += [gnp(rng.randint(5, 40), rng.uniform(0.05, 0.4), rng) for _ in range(20)]
    # Fires per rule, counted on each side: every rule is exercised, and
    # under the gated dispatcher each still fires through its own function.
    names = (
        "rule_zero_vertex",
        "rule_one_vertex",
        "rule_triangle",
        "rule_quadrilateral",
        "rule_fold2",
        "rule_domination",
        "_dominates_neighbor",
        "rule_twin_edge",
    )
    sides = (reductions._apply_first, ungated_apply_first)
    fires = {side: dict.fromkeys(names, 0) for side in sides}
    counts = fires[sides[0]]  # the running side's tally, read by counted
    for name in names:
        def counted(*args, rule=getattr(reductions, name), name=name, **kwargs):
            fired = rule(*args, **kwargs)
            counts[name] += fired
            return fired

        monkeypatch.setattr(reductions, name, counted)
    for tier in ("simple", "advanced", "light"):
        for g in graphs:
            outcomes = []
            for side in sides:
                counts = fires[side]
                with monkeypatch.context() as m:
                    m.setattr(reductions, "_apply_first", side)
                    w = WorkingGraph(g)
                    _, log = run_to_fixpoint(w, tier)
                outcomes.append((log.to_lines(), w.alive, w.adj, w.check_steps))
            gated, reference = outcomes
            assert gated[:3] == reference[:3]
            # Reading v's neighbours once checks no more than the reference.
            assert gated[3] <= reference[3]
    assert fires[sides[0]] == fires[sides[1]]
    assert all(fires[sides[0]].values()), fires


def test_advanced_tier_reduces_planted_quadrilaterals(monkeypatch):
    # Sparse graphs with chordless 4-cycles planted on two fresh 2-vertices
    # u and w opposite each other, both adjacent to exactly v1 and v2. The
    # advanced tier folds u and then removes w by the degree-1 rule; a
    # reference dispatcher that tries the quadrilateral rule first must
    # reach a kernel of the same size at the same offset.
    apply_first = reductions._apply_first
    quadrilaterals = 0

    def quadrilateral_first(W, v, tier, log):
        nonlocal quadrilaterals
        if tier == "advanced" and reductions.rule_quadrilateral(W, v, log):
            quadrilaterals += 1
            return True
        return apply_first(W, v, tier, log)

    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(6, 40)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n, 2 * n))]
        g = build_graph([(a, b) for a, b in edges if a != b], vertex_count_hint=n)
        for _ in range(rng.randint(1, 4)):
            v1, v2 = rng.sample(range(n), 2)
            if g.has_edge(v1, v2):
                continue
            u, w = n, n + 1
            edges += [(u, v1), (u, v2), (w, v1), (w, v2)]
            n += 2
            g = build_graph([(a, b) for a, b in edges if a != b], vertex_count_hint=n)
        assert n <= 64
        result = kernelize(g, "advanced")
        kernel = result.kernel
        witness = exact_mis(kernel).witness if kernel.vertex_count else set()
        offset = result.fixed_count + result.fold_count
        assert offset + len(witness) == exact_mis(g).alpha
        lifted = result.extend(witness)
        assert is_independent(g, lifted) and is_maximal(g, lifted)
        with monkeypatch.context() as m:
            m.setattr(reductions, "_apply_first", quadrilateral_first)
            reference = kernelize(g, "advanced")
        assert reference.kernel.vertex_count == kernel.vertex_count
        assert reference.fixed_count + reference.fold_count == offset
    assert quadrilaterals > 20


def test_unknown_tier_rejected():
    for call in (
        lambda: kernelize(path(4), "bogus"),
        lambda: run_to_fixpoint(WorkingGraph(path(4)), tier="bogus"),
    ):
        with pytest.raises(ValueError, match="light.*simple.*advanced"):
            call()


# Each tier's kernel on two benchmark-shaped graphs (a sparse G(n, m) and a
# mesh, both from perfbench's generators with seed 1): the kernel's vertex
# count, and digests of its adjacency and of its log lines. The size is the
# reductions' outcome; the digests also pin the labels and the log order,
# which follow the worklist order, so a change to a rule or to that order
# shows here.
PINNED_KERNELS = [
    ("gnm", "simple", 1325, "83181586ecd9fe96", "6aefd9dc8e86107e"),
    ("gnm", "advanced", 281, "de66ea1c68873f6b", "d9a2417162a12cfe"),
    ("gnm", "light", 358, "25a92d56ea0cada1", "35a48c65c8470ec0"),
    ("mesh", "simple", 3589, "a50ecc8d0fe48199", "ac717fc58bdd606e"),
    ("mesh", "advanced", 3414, "036f7da3b387757d", "93477f79e56b26a0"),
    ("mesh", "light", 3596, "5c9a5c1e86641d2a", "76cbe7cf1f927f0a"),
]


def pinned_graph(family):
    if family == "gnm":
        n, edges = bench_gen.gnm(5000, 7500, random.Random(1))
    else:
        n, edges = bench_gen.mesh(60, random.Random(1))
    return build_graph(edges, vertex_count_hint=n)


@pytest.mark.parametrize("family,tier,size,kernel_digest,log_digest", PINNED_KERNELS)
def test_kernels_and_logs_pinned(family, tier, size, kernel_digest, log_digest):
    result = kernelize(pinned_graph(family), tier)

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    assert result.kernel.vertex_count == size
    assert digest(repr(result.kernel.adjacency)) == kernel_digest
    assert digest("\n".join(result.log.to_lines())) == log_digest


def fifo_fixpoint(W, tier):
    """Reference: one FIFO worklist seeded in ascending id, whatever the
    degrees."""
    log = ReductionLog()
    W.touched.clear()
    alive = W.alive
    queue = deque(v for v in range(len(alive)) if alive[v])
    in_queue = alive.copy()
    while queue:
        v = queue.popleft()
        in_queue[v] = False
        if alive[v] and reductions._apply_first(W, v, tier, log):
            in_queue.extend([False] * (len(alive) - len(in_queue)))
            for t in W.touched:
                if alive[t] and not in_queue[t]:
                    in_queue[t] = True
                    queue.append(t)
            W.touched.clear()
    return log


@pytest.mark.parametrize("family,tier", [case[:2] for case in PINNED_KERNELS])
def test_low_degrees_first_checks_no_more_than_fifo(family, tier):
    # Every rule is exact, so any order reaches a kernel of the same α; on
    # these graphs both orders also reach the same size and offset, and
    # settling degrees 0-2 first spends no more applicability checks.
    g = pinned_graph(family)
    w_ordered, w_fifo = WorkingGraph(g), WorkingGraph(g)
    _, ordered = run_to_fixpoint(w_ordered, tier)
    fifo = fifo_fixpoint(w_fifo, tier)

    def outcome(w, log):
        kernel, _ = w.freeze()
        return kernel.vertex_count, kernel.edge_count, log.fixed_count + log.fold_count

    assert outcome(w_ordered, ordered) == outcome(w_fifo, fifo)
    assert w_ordered.check_steps <= w_fifo.check_steps


@pytest.mark.parametrize("tier", ["simple", "advanced", "light"])
def test_alpha_preservation_small(tier):
    rng = random.Random(f"alpha:{tier}")
    for _ in range(60):
        g = gnp(rng.randint(2, 18), rng.uniform(0.05, 0.6), rng)
        before = [list(a) for a in g.adjacency]
        total, result = kernel_alpha(g, tier)
        assert total == brute_alpha(g)
        witness = (
            exact_mis(result.kernel).witness if result.kernel.vertex_count else set()
        )
        lifted = result.extend(witness)
        assert is_independent(g, lifted)
        assert len(lifted) == total
        # Folds copy a neighbor's list before extending it; the input stays.
        assert g.adjacency == before


def test_extend_rejects_dependent_input(monkeypatch):
    result = kernelize(complete(4), "simple")
    with pytest.raises(ContractError, match="solution carries edge [01]-[01]"):
        result.extend({0, 1})
    # The check is the shared one, run on the kernel before the lift.
    calls = []
    check = reductions.check_solution

    def spy(graph, vertices, maximal=True):
        calls.append((graph, set(vertices), maximal))
        check(graph, vertices, maximal)

    monkeypatch.setattr(reductions, "check_solution", spy)
    assert result.extend({2}) == {2}
    assert calls == [(result.kernel, {2}, False)]


def test_check_cost_linear_in_nu_delta():
    # Pure applicability-check cost of one sweep over an irreducible graph
    # stays within a fixed multiple of (vertices x max degree).
    rng = random.Random(99)
    for _ in range(10):
        g = gnp(rng.randint(30, 80), rng.uniform(0.2, 0.5), rng)
        result = kernelize(g, "simple")
        if result.kernel.vertex_count == 0:
            continue
        w = WorkingGraph(result.kernel)
        w.check_steps = 0
        run_to_fixpoint(w, tier="simple")
        max_degree = max(map(len, result.kernel.adjacency))
        bound = 32 * result.kernel.vertex_count * max(1, max_degree)
        assert w.check_steps <= bound


def test_log_serialization_round_trip():
    g = cycle(5)
    result = kernelize(g, "simple")
    lines = result.log.to_lines()
    back = ReductionLog.from_lines(lines)
    assert back.fixed_count == result.log.fixed_count
    assert back.fold_count == result.log.fold_count
    assert (back.kernel_map or []) == (result.log.kernel_map or [])
    assert extend_solution(set(), back) == extend_solution(set(), result.log)
    # Logs written before exclusions were dropped may carry X lines; they
    # load and lift as no-ops.
    old = ReductionLog.from_lines(lines[:1] + ["X 3"] + lines[1:])
    assert old.to_lines() == lines
    assert extend_solution(set(), old) == extend_solution(set(), result.log)


class _Tape(list):
    """A list that also copies every item written to it onto a shared tape."""

    def __init__(self, tape):
        super().__init__()
        self.tape = tape

    def append(self, item):
        self.tape.append(item)
        super().append(item)

    def __iadd__(self, items):
        for item in items:
            self.append(item)
        return self


class OrderedLog(ReductionLog):
    """A ReductionLog that also keeps the order in which the rules wrote to
    it, fixed vertices and folds interleaved in one list."""

    __slots__ = ("order",)

    def __init__(self):
        super().__init__()
        self.order = []
        self.fixed = _Tape(self.order)
        self.folds = _Tape(self.order)


def replay_in_write_order(kernel_solution, log):
    """Reference lift: undo every record in reverse of the order written."""
    kmap = log.kernel_map
    if kmap is not None:
        solution = {kmap[v] for v in kernel_solution}
    else:
        solution = set(kernel_solution)
    for rec in reversed(log.order):
        if not isinstance(rec, tuple):
            solution.add(rec)
        elif rec[0] in solution:
            solution.remove(rec[0])
            solution.update(rec[2:])
        else:
            solution.add(rec[1])
    return solution


def test_lift_matches_replay_in_write_order(monkeypatch):
    monkeypatch.setattr(reductions, "ReductionLog", OrderedLog)
    rng = random.Random(61)
    lifts = fixed_fold_vertices = 0
    for _ in range(40):
        n = rng.randint(6, 70)
        if rng.random() < 0.5:
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n // 2)]
            g = build_graph([(u, v) for u, v in edges if u != v], vertex_count_hint=n)
        else:
            g = gnp(n, rng.uniform(0.03, 0.3), rng)
        cases = []
        for tier in ("simple", "advanced", "light"):
            result = kernelize(g, tier)
            cases.append((result.kernel, result.log))
        # The in-round simple tier, after deleting N[S] for an independent S.
        S = {v for v in random_maximal(g, rng) if rng.random() < 0.3}
        _, working = rir_reduce(g, S)
        _, log = run_to_fixpoint(working, tier="simple")
        rest, ids = working.freeze()
        log.kernel_map = ids
        cases.append((rest, log))
        for kernel, log in cases:
            assert isinstance(log, OrderedLog)
            folds = [r for r in log.order if isinstance(r, tuple)]
            assert folds == log.folds
            assert [r for r in log.order if not isinstance(r, tuple)] == log.fixed
            # A fold consumes only vertices that were alive; a fixed vertex
            # is dead at once, so none is consumed. A fold's new vertex may
            # be fixed later.
            consumed = {v for fold in log.folds for v in fold[1:]}
            assert consumed.isdisjoint(log.fixed)
            fixed_fold_vertices += sum(v >= g.vertex_count for v in log.fixed)
            solutions = [random_maximal(kernel, rng) for _ in range(3)]
            if kernel.vertex_count <= 64:
                solutions.append(exact_mis(kernel).witness)
            for sol in solutions:
                lifted = extend_solution(sol, log)
                assert lifted == replay_in_write_order(sol, log)
                assert len(lifted) == len(sol) + log.fixed_count + log.fold_count
                lifts += 1
    assert lifts > 500 and fixed_fold_vertices > 0


def test_interleaved_log_lifts_the_same():
    # Older logs list F and D lines in the order the rules fired. On cycle(5)
    # the simple tier folds 0 into 5, then fixes one vertex of the triangle
    # {2, 3, 5}: fixing 5 lifts to 5's merged pair, fixing 2 to {0, 2}.
    g = cycle(5)
    for lines, expected in (
        (["D 5 0 1 4", "F 5"], {1, 4}),
        (["D 5 0 1 4", "F 2"], {0, 2}),
    ):
        log = ReductionLog.from_lines(lines)
        assert log.to_lines() == [lines[1], lines[0]]
        lifted = extend_solution(set(), log)
        assert lifted == expected and is_independent(g, lifted)
    assert kernelize(g, "simple").log.to_lines() == ["F 2", "D 5 0 1 4"]


def test_kernel_lines_in_any_order_lift_the_same():
    # Each K line places its vertex at its own index, whatever the order.
    for lines in (["K 0 3", "K 1 7"], ["K 1 7", "K 0 3"]):
        log = ReductionLog.from_lines(lines)
        assert log.kernel_map == [3, 7]
        assert extend_solution({0}, log) == {3}
    rng = random.Random(41)
    g = gnp(60, 0.08, rng)
    result = kernelize(g, "advanced")
    assert result.kernel.vertex_count > 1
    lines = result.log.to_lines()
    back = ReductionLog.from_lines(reversed(lines))
    assert back.kernel_map == result.log.kernel_map
    solution = random_maximal(result.kernel, rng)
    assert extend_solution(solution, back) == extend_solution(solution, result.log)


@pytest.mark.parametrize(
    "lines, where",
    [
        (["F"], "line 1 'F'"),
        (["K 0"], "line 1 'K 0'"),
        (["F 1 2"], "line 1 'F 1 2'"),
        (["D 5 0 1 4 9"], "line 1 'D 5 0 1 4 9'"),
        (["D 5 0 1"], "line 1 'D 5 0 1'"),
        (["F -1"], "line 1 'F -1'"),
        (["F x"], "line 1 'F x'"),
        (["# fixed=1", "Q 1"], "line 2 'Q 1'"),
        (["K 0 3", "K 2 5"], "line 2 'K 2 5'"),
        (["K 1 3", "K 1 5"], "line 2 'K 1 5'"),
        (["K 0 -3"], "line 1 'K 0 -3'"),
        (["#fixed=1 folds=0", "  #F x", "Q 1"], "line 3 'Q 1'"),
    ],
)
def test_malformed_kernel_log_lines_rejected(lines, where):
    with pytest.raises(ValueError, match=re.escape(where)):
        ReductionLog.from_lines(lines)
