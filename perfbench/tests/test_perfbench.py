"""Tests of the benchmark itself: generators, checkers, bounds and tracing.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _files_for(make, seed, tmp_path, tag):
    n, edges = make(random.Random(seed))
    path = tmp_path / f"{tag}.graph"
    gen.write_metis(str(path), n, edges)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_gives_identical_files(name, tmp_path):
    w = run.WORKLOADS[name]
    for make in (w.instance, w.replica):
        first = _files_for(make, f"{name}:7", tmp_path, "a")
        again = _files_for(make, f"{name}:7", tmp_path, "b")
        other = _files_for(make, f"{name}:8", tmp_path, "c")
        assert first == again
        assert first != other


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_replicas_are_small(name):
    w = run.WORKLOADS[name]
    for i in range(20):
        n, edges = w.replica(random.Random(i))
        assert n <= 30
        assert all(0 <= u < v < n for u, v in edges)


def test_mesh_shape():
    n, edges = gen.mesh(4, random.Random(3))
    assert n == 16
    grid = {(v, v + 1) for v in range(16) if v % 4 != 3} | {(v, v + 4) for v in range(12)}
    assert grid <= set(edges)
    diagonals = set(edges) - grid
    assert len(edges) == len(set(edges)) == len(grid) + len(diagonals)
    for u, v in diagonals:
        assert v - u in (3, 5)


def _gnp(n, p, rng):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return gen.adjacency(n, edges), edges


def _alpha_by_subsets(adj):
    n = len(adj)
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if all(u not in chosen for v in subset for u in adj[v]):
                return size
    return 0


def test_checker_accepts_a_maximal_independent_set():
    adj, edges = gen.adjacency(4, [(0, 1), (1, 2), (2, 3)]), [(0, 1), (1, 2), (2, 3)]
    checks.check_independent({0, 2}, edges)
    checks.check_maximal({0, 2}, adj)
    checks.check_maximal({0, 3}, adj)


def test_checker_rejects_a_solution_with_an_edge():
    edges = [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(checks.CheckFailed):
        checks.check_independent({0, 1, 3}, edges)


def test_checker_rejects_a_solution_that_is_not_maximal():
    adj = gen.adjacency(5, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(checks.CheckFailed):
        checks.check_maximal({0, 2}, adj)  # isolated vertex 4 is free
    with pytest.raises(checks.CheckFailed):
        checks.check_maximal({0, 4}, adj)  # vertex 3 has no solution neighbour


def test_brute_alpha_matches_subset_enumeration():
    rng = random.Random(11)
    for _ in range(150):
        adj, _ = _gnp(rng.randint(1, 11), rng.random(), rng)
        assert checks.brute_alpha(adj) == _alpha_by_subsets(adj)


def test_upper_bound_never_below_alpha():
    rng = random.Random(5)
    graphs = [_gnp(rng.randint(1, 16), rng.random(), rng)[0] for _ in range(300)]
    for name, w in run.WORKLOADS.items():
        for i in range(30):
            n, edges = w.replica(random.Random(f"{name}:{i}"))
            graphs.append(gen.adjacency(n, edges))
    for adj in graphs:
        assert checks.upper_bound(adj) >= checks.brute_alpha(adj)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_worker_partitions_time_by_layer(tmp_path):
    n, edges = gen.mesh(30, random.Random(1))
    path = tmp_path / "mesh.graph"
    gen.write_metis(str(path), n, edges)
    spans_path = tmp_path / "spans.jsonl"
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), str(path), "arir3",
           "200", "200", "30", "1", "1", str(spans_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = out["layers"]
    assert set(layers) == {name for name, _ in spans.PER_LAYER}
    assert layers["graph.vertices"] == n and layers["graph.edges"] == len(edges)
    stats = out["solves"][0]["stats"]
    assert layers["search.iterations"] == 200 * stats["blocks"]
    assert layers["solver.restarts"] == stats["restarts"]
    records = [json.loads(line) for line in spans_path.read_text().splitlines()]
    roots = [r for r in records if r["parent"] is None]
    assert [r["name"] for r in roots] == ["io.read_s", "solver.run_s"]
    # Self times of all layers add up to the time of the two root spans.
    total = sum(r["end"] - r["start"] for r in roots)
    self_total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert self_total == pytest.approx(total, rel=1e-6)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
