import random

import pytest

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
from helpers import brute_alpha, complete, cycle, gnp, is_independent, path, random_tree, star


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
    assert fixed == {0, 1, 2, 3}
    assert extend_solution(set(), log) == {0, 1, 2, 3}


def test_one_vertex_p2():
    w = WorkingGraph(path(2))
    log = ReductionLog()
    assert rule_one_vertex(w, 0, log)
    assert w.alive_count == 0
    assert log.records[0].vertex == 0
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
    assert w.alive_count == 0
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
    assert w.alive_count == 0
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
    x = log.records[0].new_vertex
    assert extend_solution({x}, log) == {0, 2}
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


def twin_gadget(extra_edges):
    # Vertices 3 and 4 both see exactly {0, 1, 2}.
    base = [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)]
    return build_graph(base + extra_edges)


def test_twin_edge_fires_with_edge_inside():
    g = twin_gadget([(0, 1)])
    w = WorkingGraph(g)
    log = ReductionLog()
    assert rule_twin_edge(w, 3, log)
    assert w.alive_count == 0
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
    rng = random.Random(23)
    for _ in range(20):
        g = gnp(rng.randint(4, 30), rng.uniform(0.05, 0.4), rng)
        w = WorkingGraph(g)
        run_to_fixpoint(w, tier="advanced")
        alive = w.alive_count
        fixed2, log2 = run_to_fixpoint(w, tier="advanced")
        assert not fixed2 and len(log2) == 0
        # Domination leaves no log record; a second fire would kill a vertex.
        assert w.alive_count == alive


@pytest.mark.parametrize("tier", ["simple", "advanced", "light"])
def test_alpha_preservation_small(tier):
    rng = random.Random(hash(tier) & 0xFFFF)
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


def test_extend_rejects_dependent_input():
    result = kernelize(complete(4), "simple")
    with pytest.raises(ContractError):
        result.extend({0, 1})


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
        bound = 32 * result.kernel.vertex_count * max(1, result.kernel.max_degree)
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
