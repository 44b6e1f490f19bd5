"""End-to-end benchmark of the arir solver.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's instance is generated from the seed and written as a Metis
file. Then whole rounds run while time is left, at least one: each round is
a fresh process (worker.py) that reads the file and solves it once per
solver seed with a fixed block budget, and every answer is checked against
the generator's own edges. A hundred scaled-down replicas of the workload's
generator check that the reductions are exact against a brute-force α. The
last line of standard output is one JSON object: correctness, operations
attempted and failed, and the end-to-end metrics (trace 0) or the per-layer
metrics of the traced rounds (trace 1). End-to-end times are scaled by a
reference loop timed alongside them (see worker.py).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

import checks
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REPLICAS = 100
ROUND_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("search_iters_per_s", "1/s"),
    ("best_size", "vertices"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    """One instance shape, one variant and one fixed block budget."""

    instance: object  # rng -> (n, edges)
    replica: object  # rng -> (n, edges), n <= 30
    variant: str
    ruleset: str  # the kernel rules the solver applies for this variant
    m: int
    n: int  # stagnation-test period in iterations
    max_blocks: int
    replica_budget: tuple[int, int, int]  # (m, n, max_blocks) on replicas
    exercised: object  # (stats, vertex count) -> error message or None
    solves: int  # solver seeds per round, each with its own read


def _no_restart(stats, vertices):
    if stats["restarts"] != 0:
        return f"{stats['restarts']} restarts; the budget should end before any"
    return None


def _some_restart(stats, vertices):
    if stats["restarts"] < 1:
        return "no restart fired"
    return None


def _small_kernel(stats, vertices):
    if stats["kernel_vertices"] * 4 > vertices:
        return f"kernel keeps {stats['kernel_vertices']} of {vertices} vertices"
    return None


WORKLOADS = {
    # Light rules barely shrink a mesh, so perturb and swap exhaustion do
    # most of the work; 3 blocks end before the first stagnation test.
    # The search's speed depends on the seed's trajectory, so each round
    # averages over several solver seeds (likewise below).
    "mesh-search": Workload(
        instance=lambda rng: gen.mesh(316, rng),
        replica=lambda rng: gen.mesh(5, rng),
        variant="arir1",
        ruleset="light",
        m=10_000,
        n=100_000,
        max_blocks=3,
        replica_budget=(20, 200, 2),
        exercised=_no_restart,
        solves=4,
    ),
    # The advanced rules cut a sparse random graph to a small kernel and
    # leave a long log to lift; one block keeps the search share small.
    "sparse-kernel": Workload(
        instance=lambda rng: gen.gnm(100_000, 150_000, rng),
        replica=lambda rng: gen.gnm(30, 45, rng),
        variant="arir2",
        ruleset="advanced",
        m=10_000,
        n=100_000,
        max_blocks=1,
        replica_budget=(50, 500, 1),
        exercised=_small_kernel,
        solves=7,
    ),
    # Short blocks with a stagnation test after each, so restarts fire
    # several times per solve and round set-up weighs. How many fire depends
    # on the solver seed, hence the many seeds per round.
    "restart-churn": Workload(
        instance=lambda rng: gen.mesh(100, rng),
        replica=lambda rng: gen.mesh(5, rng),
        variant="arir3",
        ruleset="advanced",
        m=100,
        n=100,
        max_blocks=100,
        replica_budget=(20, 20, 40),
        exercised=_some_restart,
        solves=14,
    ),
}


class Tally:
    """Solves and checks attempted and failed; failures go to stderr."""

    def __init__(self):
        self.counts = {"solves": [0, 0], "checks": [0, 0]}  # [attempted, failed]

    @property
    def attempted(self) -> int:
        return sum(c[0] for c in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(c[1] for c in self.counts.values())

    def add(self, kind: str, count: int, failed: bool) -> None:
        self.counts[kind][0] += count
        if failed:
            self.counts[kind][1] += count

    def check(self, label: str, fn, *args, kind: str = "checks") -> bool:
        try:
            message = fn(*args)
        except checks.CheckFailed as exc:
            message = str(exc)
        self.add(kind, 1, bool(message))
        if message:
            print(f"FAILED {label}: {message}", file=sys.stderr)
            return False
        return True

    def fail(self, label: str, kind: str, count: int, message: str) -> None:
        """Count `count` operations that could not run as failed."""
        self.add(kind, count, True)
        print(f"FAILED {label} ({count} {kind}): {message}", file=sys.stderr)

    def summary(self) -> str:
        return "; ".join(
            f"{kind}: {a} attempted, {f} failed" for kind, (a, f) in self.counts.items()
        )


def _expect(condition: bool, message: str):
    return None if condition else message


def check_replicas(arir, name: str, w: Workload, seed: int, workdir: str, tally: Tally):
    """Kernel exactness and solve sanity on small replicas, against α found
    by exhaustive branching."""
    replica_m, replica_n, replica_blocks = w.replica_budget
    for i in range(REPLICAS):
        n, edges = w.replica(random.Random(f"{name}:{seed}:replica:{i}"))
        path = os.path.join(workdir, f"replica{i}.graph")
        gen.write_metis(path, n, edges)
        adj = gen.adjacency(n, edges)
        alpha = checks.brute_alpha(adj)
        graph = arir.read_graph(path)
        label = f"replica {i}"

        kern = arir.kernelize(graph, w.ruleset)
        reduced = kern.fixed_count + kern.fold_count
        kernel_alpha = checks.brute_alpha(kern.kernel.adjacency)
        tally.check(
            f"{label} kernel exactness",
            _expect,
            reduced + kernel_alpha == alpha,
            f"fixed+folds {reduced} + α(kernel) {kernel_alpha} != α(G) {alpha}",
        )
        if w.variant == "arir3":
            working = arir.WorkingGraph(graph)
            _, log = arir.run_to_fixpoint(working, tier="simple")
            rest, _ = working.freeze()
            reduced = log.fixed_count + log.fold_count
            rest_alpha = checks.brute_alpha(rest.adjacency)
            tally.check(
                f"{label} simple-tier exactness",
                _expect,
                reduced + rest_alpha == alpha,
                f"fixed+folds {reduced} + α(rest) {rest_alpha} != α(G) {alpha}",
            )

        config = arir.RunConfig(
            variant=w.variant,
            m=replica_m,
            n=replica_n,
            max_blocks=replica_blocks,
            seed=seed * 1000 + i,
        )
        try:
            result, error = arir.run(graph, config), None
        except Exception as exc:  # a crash is one failed operation
            result, error = None, repr(exc)
        if not tally.check(f"{label} solve", _expect, error is None, error, kind="solves"):
            tally.fail(f"{label} answer", "checks", 3, "solve failed")
            continue
        solution = result.solution
        size = result.stats["best_size"]
        tally.check(f"{label} independent", checks.check_independent, solution, edges)
        tally.check(f"{label} maximal", checks.check_maximal, solution, adj)
        tally.check(
            f"{label} best_size",
            _expect,
            size == len(solution) and size <= alpha,
            f"best_size {size}, |solution| {len(solution)}, α(G) {alpha}",
        )


def solve_round(w: Workload, path: str, seeds, traced: bool, spans_path: str):
    """Run one worker process; return its parsed result or an error text."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        path,
        w.variant,
        str(w.m),
        str(w.n),
        str(w.max_blocks),
        ",".join(str(s) for s in seeds),
        "1" if traced else "0",
    ]
    if traced:
        cmd.append(spans_path)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {ROUND_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"worker printed no result: {proc.stdout[-500:]!r}"


ROUND_CHECKS = ("independent", "maximal", "best_size == |solution|", "upper bound",
                "layer exercised", "same solution as in round 1")


def check_solve(w, solve, n, edges, adj, bound, first, tally: Tally) -> None:
    solution = set(solve["solution"])
    size = solve["stats"]["best_size"]
    tally.check(ROUND_CHECKS[0], checks.check_independent, solution, edges)
    tally.check(ROUND_CHECKS[1], checks.check_maximal, solution, adj)
    tally.check(ROUND_CHECKS[2], _expect, size == len(solution),
                f"best_size {size} != |solution| {len(solution)}")
    tally.check(ROUND_CHECKS[3], _expect, size <= bound, f"best_size {size} > bound {bound}")
    tally.check(ROUND_CHECKS[4], w.exercised, solve["stats"], n)
    tally.check(ROUND_CHECKS[5], _expect, first is None or solve["solution"] == first,
                "a rerun with the same seed returned another solution")


def summarise(w: Workload, rounds: list[dict], traced: bool):
    """Per-run metric values and units. Times are medians over every solve of
    the run; the best size is the mean over a round's solver seeds, the same
    in every round."""
    if traced:
        units = dict(spans.PER_LAYER)
        values = {name: statistics.median(r["layers"][name] for r in rounds) for name in units}
        return values, units
    solves = [s for r in rounds for s in r["solves"]]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in solves),
        "solve_s": statistics.median(s["solve_s"] for s in solves),
        "search_iters_per_s": statistics.median(
            s["stats"]["blocks"] * w.m / s["block_s"] for s in solves
        ),
        "best_size": statistics.median(
            statistics.fmean(s["stats"]["best_size"] for s in r["solves"]) for r in rounds
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return values, dict(END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "arir", "__init__.py")):
        print(f"arir sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import arir

    w = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        tally = Tally()
        n, edges = w.instance(random.Random(f"{args.workload}:{args.seed}"))
        path = os.path.join(workdir, "instance.graph")
        gen.write_metis(path, n, edges)
        adj = gen.adjacency(n, edges)
        bound = checks.upper_bound(adj)
        check_replicas(arir, args.workload, w, args.seed, workdir, tally)

        seeds = [args.seed * 1000 + j for j in range(w.solves)]
        spans_path = os.path.join(WORK, f"{args.workload}.spans.jsonl")
        rounds: list[dict] = []
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if rounds and elapsed * (1 + 1 / len(rounds)) > args.seconds:
                break
            out, error = solve_round(w, path, seeds, bool(args.trace), spans_path)
            if error is not None:
                tally.fail("round", "solves", len(seeds), error)
                tally.fail("round", "checks", len(seeds) * len(ROUND_CHECKS), "solve failed")
                break
            tally.add("solves", len(seeds), False)
            for j, solve in enumerate(out["solves"]):
                first = rounds[0]["solves"][j]["solution"] if rounds else None
                check_solve(w, solve, n, edges, adj, bound, first, tally)
            rounds.append(out)
            print(
                f"round {len(rounds)}: "
                + "; ".join(
                    f"setup {s['setup_wall_s']:.3f} s, solve {s['solve_wall_s']:.3f} s "
                    f"(scaled {s['setup_s']:.3f}, {s['solve_s']:.3f}), "
                    f"best {s['stats']['best_size']}, restarts {s['stats']['restarts']}"
                    for s in out["solves"]
                ),
                flush=True,
            )
        if not rounds:
            return 1
        values, units = summarise(w, rounds, bool(args.trace))
        print(tally.summary())
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
