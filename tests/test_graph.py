import random

import pytest

from arir import WorkingGraph, build_graph
from helpers import cycle, gnp, path, star


def test_build_path3():
    g = build_graph([(0, 1), (1, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_build_dedup():
    g = build_graph([(0, 1), (1, 0), (0, 1)])
    assert g.vertex_count == 2
    assert g.edge_count == 1


def test_build_rejects_self_loop():
    # Dropping a loop would let its vertex into a solution.
    with pytest.raises(ValueError, match="self-loop on vertex 1"):
        build_graph([(0, 1), (1, 1)])


def test_build_empty_without_hint():
    with pytest.raises(ValueError, match="empty graph undefined"):
        build_graph([])


def test_build_hint_preserves_isolated():
    g = build_graph([(0, 1)], vertex_count_hint=5)
    assert g.vertex_count == 5
    assert g.degree(4) == 0


def test_build_rejects_negative_ids():
    with pytest.raises(ValueError):
        build_graph([(-1, 2)])


def test_static_audit_random():
    rng = random.Random(1)
    for _ in range(20):
        gnp(rng.randint(2, 40), rng.uniform(0.05, 0.5), rng).audit()


def test_delete_closed_neighborhood_c5():
    w = WorkingGraph(cycle(5))
    w.delete(w.alive_neighbors(0), (0,))
    assert [v for v in range(5) if not w.alive[v]] == [0, 1, 4]
    assert w.alive_vertices() == [2, 3]
    assert w.live_degree[2] == 1 and w.live_degree[3] == 1


def test_delete_closed_neighborhood_star():
    w = WorkingGraph(star(4))
    w.delete(w.alive_neighbors(0), (0,))
    assert not any(w.alive)


def test_delete_updates_degrees_like_recount():
    rng = random.Random(7)
    g = gnp(60, 0.1, rng)
    w = WorkingGraph(g)
    order = list(range(60))
    rng.shuffle(order)
    for v in order[:25]:
        if w.alive[v]:
            w.delete(w.alive_neighbors(v), (v,))
            w.audit()  # recomputes live_degree from scratch


def test_fold_p3_to_isolated():
    w = WorkingGraph(path(3))
    assert w.fold_degree2(1, w.alive_neighbors(1)) == 3
    assert sum(w.alive) == 1
    assert w.live_degree[3] == 0


def test_fold_c5_gives_triangle():
    w = WorkingGraph(cycle(5))
    x = w.fold_degree2(0, w.alive_neighbors(0))
    assert w.alive_vertices() == [2, 3, x]
    assert w.adjacent(x, 2) and w.adjacent(x, 3) and w.adjacent(2, 3)
    assert w.live_degree[x] == 2


def test_fold_p5_middle_gives_p3():
    w = WorkingGraph(path(5))
    x = w.fold_degree2(2, w.alive_neighbors(2))
    assert sorted(w.alive_vertices()) == [0, 4, x]
    assert w.adjacent(x, 0) and w.adjacent(x, 4)
    assert not w.adjacent(0, 4)


def test_fold_ids_contiguous_past_base():
    w = WorkingGraph(path(7))
    first = w.fold_degree2(1, w.alive_neighbors(1))
    second = w.fold_degree2(4, w.alive_neighbors(4))
    assert first == 7 and second == 8


def test_fresh_working_graph_ignores_earlier_deletions():
    g = cycle(5)
    gone = WorkingGraph(g)
    gone.delete(gone.alive_neighbors(0), (0,))
    w = WorkingGraph(g)
    assert sum(w.alive) == 5
    assert w.live_degree == [2, 2, 2, 2, 2]
    assert all(w.live_degree[v] == g.degree(v) for v in range(5))


def test_fresh_working_graph_has_no_fold_extensions():
    g = cycle(5)
    folded = WorkingGraph(g)
    folded.fold_degree2(0, folded.alive_neighbors(0))
    assert len(folded.adj) == 6
    w = WorkingGraph(g)
    assert len(w.adj) == 5
    assert len(w.alive) == 5


def test_working_audit_under_mixed_ops():
    rng = random.Random(3)
    for trial in range(15):
        g = gnp(rng.randint(6, 30), 0.15, rng)
        before = [list(a) for a in g.adjacency]
        w = WorkingGraph(g)
        for _ in range(10):
            candidates = w.alive_vertices()
            if not candidates:
                break
            v = rng.choice(candidates)
            if w.live_degree[v] == 2:
                a, b = w.alive_neighbors(v)
                if not w.adjacent(a, b):
                    w.fold_degree2(v, [a, b])
                    w.audit()
                    continue
            w.delete(w.alive_neighbors(v), (v,))
            w.audit()
        assert g.adjacency == before


def test_freeze_compacts_alive_subgraph():
    w = WorkingGraph(cycle(6))
    w.delete((0,))
    kernel, orig = w.freeze()
    assert kernel.vertex_count == 5
    assert orig == [1, 2, 3, 4, 5]
    kernel.audit()
    # path 1-2-3-4-5 survives
    assert kernel.edge_count == 4


def test_freeze_shares_lists_when_nothing_died():
    rng = random.Random(5)
    g = gnp(40, 0.1, rng)
    w = WorkingGraph(g)
    kernel, orig = w.freeze()
    # The copying path would build equal lists; these are the base's own.
    assert orig == list(range(40))
    assert kernel == g and kernel.edge_count == g.edge_count
    assert all(a is b for a, b in zip(kernel.adjacency, g.adjacency))
    kernel.audit()
    before = [list(a) for a in kernel.adjacency]
    # A later fold on the working graph leaves the snapshot as it was.
    folds = 0
    for v in range(40):
        if w.alive[v] and w.live_degree[v] == 2:
            if w.adjacent(*w.alive_neighbors(v)):
                continue
            w.fold_degree2(v, w.alive_neighbors(v))
            folds += 1
    assert folds
    assert kernel.adjacency == before and len(kernel.adjacency) == 40
    assert g.adjacency == before


def reference_fold(w, u, nbrs):
    """Reference: the fold that kills u, then each merged vertex, walking
    all three lists and queueing a neighbor once per list it is on."""
    w.delete((u,))
    alive, live_degree, touched, adj = w.alive, w.live_degree, w.touched, w.adj
    merged = set()
    for v in nbrs:
        alive[v] = False
        for t in adj[v]:
            if alive[t]:
                live_degree[t] -= 1
                touched.append(t)
                merged.add(t)
    x = len(alive)
    adj_x = sorted(merged)
    adj.append(adj_x)
    w.owned.append(1)
    alive.append(True)
    live_degree.append(len(adj_x))
    for t in adj_x:
        if w.owned[t]:
            adj[t].append(x)
        else:
            adj[t] = adj[t] + [x]
            w.owned[t] = 1
        live_degree[t] += 1
        touched.append(t)
    touched.append(x)
    return x


def test_fold_matches_reference_fold():
    # Random folds and deletions on two copies: the same lists, the same
    # alive set and live degrees, and the same order of first occurrences of
    # alive vertices in touched, which is the order the fixpoint queues them.
    rng = random.Random(29)
    folds = 0
    for _ in range(60):
        g = gnp(rng.randint(6, 50), rng.uniform(0.04, 0.2), rng)
        new, ref = WorkingGraph(g), WorkingGraph(g)
        for _ in range(25):
            candidates = new.alive_vertices()
            if not candidates:
                break
            foldable = [
                v
                for v in candidates
                if new.live_degree[v] == 2 and not new.adjacent(*new.alive_neighbors(v))
            ]
            v = rng.choice(foldable if foldable and rng.random() < 0.7 else candidates)
            nbrs = new.alive_neighbors(v)
            if len(nbrs) == 2 and not new.adjacent(*nbrs):
                assert new.fold_degree2(v, list(nbrs)) == reference_fold(ref, v, nbrs)
                folds += 1
            elif rng.random() < 0.5:
                new.delete(new.alive_neighbors(v), (v,))
                ref.delete(ref.alive_neighbors(v), (v,))
            else:
                new.delete((v,))
                ref.delete((v,))
            assert new.adj == ref.adj and new.alive == ref.alive
            alive = new.alive
            assert [d for d, a in zip(new.live_degree, alive) if a] == [
                d for d, a in zip(ref.live_degree, alive) if a
            ]
            first = [dict.fromkeys(t for t in w.touched if alive[t]) for w in (new, ref)]
            assert list(first[0]) == list(first[1])
            new.touched.clear()
            ref.touched.clear()
            new.audit()
    assert folds > 200


def reference_delete(w, removed, fixed):
    """Reference: one kill per vertex, the removed ones first, in order;
    each marks its vertex dead and walks its whole list."""
    alive, live_degree, touched = w.alive, w.live_degree, w.touched
    for v in [*removed, *fixed]:
        alive[v] = False
        for u in w.adj[v]:
            if alive[u]:
                live_degree[u] -= 1
                touched.append(u)


def test_delete_matches_sequential_kills():
    # delete against one kill per vertex on two copies: the same alive set
    # and live degrees, and the same order of first occurrences of alive
    # vertices in touched, which is the order the fixpoint queues them.
    rng = random.Random(30)
    fixed_total = 0
    for _ in range(80):
        g = gnp(rng.randint(2, 60), rng.uniform(0.03, 0.25), rng)
        new, ref = WorkingGraph(g), WorkingGraph(g)
        for _ in range(6):
            alive = new.alive_vertices()
            if not alive:
                break
            # The neighbourhoods of a few centres, so some vertices have
            # every live neighbour in removed, plus a random sprinkle.
            dead = {v for v in alive if rng.random() < 0.1}
            for c in rng.sample(alive, min(len(alive), rng.randint(0, 3))):
                dead.update(new.alive_neighbors(c))
            removed = list(dead)
            rng.shuffle(removed)
            fixed = [
                v
                for v in alive
                if v not in dead
                and dead.issuperset(new.alive_neighbors(v))
                and rng.random() < 0.7
            ]
            fixed_total += len(fixed)
            new.delete(removed, fixed)
            reference_delete(ref, removed, fixed)
            assert new.alive == ref.alive
            alive = new.alive
            assert [d for d, a in zip(new.live_degree, alive) if a] == [
                d for d, a in zip(ref.live_degree, alive) if a
            ]
            first = [dict.fromkeys(t for t in w.touched if alive[t]) for w in (new, ref)]
            assert list(first[0]) == list(first[1])
            new.touched.clear()
            ref.touched.clear()
            new.audit()
    assert fixed_total > 200
