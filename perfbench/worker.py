"""One measured round in a fresh process: for each solver seed, read the
instance and solve it; then print one JSON object with the timings, the
solutions and the process's peak RSS.

Usage: worker.py INSTANCE VARIANT M N MAX_BLOCKS SEED[,SEED...] TRACE [SPANS]

The process reads and solves only; the instance was generated by the
caller, so generation does not count towards this process's memory.

The machine this runs on is shared, and its speed drifts by a tenth or more
over tens of seconds. A fixed reference loop is therefore timed before the
read, between read and solve, and after the solve; each timed region is
also reported scaled by REFERENCE_S over the mean of its two neighbouring
reference times, which cancels the drift.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import arir  # noqa: E402
import arir.solver  # noqa: E402

import spans  # noqa: E402

# About the time of one reference() call when the 2-core machine the
# README's figures come from is quiet; scaled times are in those units.
REFERENCE_S = 0.075


def reference() -> float:
    """Time a fixed mix of list indexing, set updates and integer work, the
    operations the solver's inner loops are made of."""
    start = perf_counter()
    table = list(range(4096))
    members: set[int] = set()
    acc = 0
    for i in range(500_000):
        j = table[(i * 7919) & 4095]
        if j & 1:
            members.add(j)
        else:
            members.discard(j - 1)
        acc += j
    return perf_counter() - start


def main(argv: list[str]) -> None:
    path, variant = argv[0], argv[1]
    m, n, max_blocks = (int(a) for a in argv[2:5])
    seeds = [int(s) for s in argv[5].split(",")]
    traced = argv[6] == "1"
    tracer = None
    block_s = [0.0]
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer, arir)
    else:
        block = arir.solver.arw_block

        def timed_block(state, iterations):
            start = perf_counter()
            result = block(state, iterations)
            block_s[0] += perf_counter() - start
            return result

        arir.solver.arw_block = timed_block

    solves = []
    before_read = reference()
    for seed in seeds:
        config = arir.RunConfig(variant=variant, m=m, n=n, max_blocks=max_blocks, seed=seed)
        block_s[0] = 0.0
        start = perf_counter()
        graph = arir.read_graph(path)
        setup_s = perf_counter() - start
        before_solve = reference()
        start = perf_counter()
        result = arir.run(graph, config)
        solve_s = perf_counter() - start
        after_solve = reference()
        read_scale = 2 * REFERENCE_S / (before_read + before_solve)
        solve_scale = 2 * REFERENCE_S / (before_solve + after_solve)
        solves.append(
            {
                "setup_wall_s": setup_s,
                "solve_wall_s": solve_s,
                "setup_s": setup_s * read_scale,
                "solve_s": solve_s * solve_scale,
                "block_s": block_s[0] * solve_scale,
                "stats": result.stats,
                "solution": sorted(result.solution),
            }
        )
        del graph, result
        before_read = after_solve
    out = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "solves": solves,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(len(seeds))
        if len(argv) > 7:
            tracer.write_spans(argv[7])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
