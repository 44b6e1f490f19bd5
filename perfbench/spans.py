"""Timing spans and counters around the arir package's layer entry points.

The benchmark never edits the package: `install` replaces module attributes
with wrappers, so calls made inside the solver go through them. Coarse calls
(read, build, kernelize, fixpoint, lift, LiveView, greedy, block, restart)
become spans kept in memory, each with its parent and its self time (its
duration minus the part its child spans cover). Calls made millions of times
(the reduction rules, perturb and swap exhaustion) are not stored one by one:
their time, calls and outcomes are summed, and their time counts as child
time of the span that encloses them.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("io", "graph", "reductions", "search", "solver")
RULES = ("zero", "one", "triangle", "quadrilateral", "fold2", "domination", "twin_edge")

# (metric, unit) in report order; every name appears in every traced run.
PER_LAYER = (
    [
        ("io.read_s", "s"),
        ("io.bytes", "B"),
        ("graph.build_s", "s"),
        ("graph.freeze_s", "s"),
        ("graph.vertices", "count"),
        ("graph.edges", "count"),
        ("reductions.kernelize_s", "s"),
        ("reductions.check_steps", "count"),
        ("reductions.kernel_vertices", "count"),
        ("reductions.kernel_edges", "count"),
        ("reductions.fixed", "count"),
        ("reductions.folds", "count"),
        ("reductions.fixpoint_s", "s"),
        ("reductions.lift_s", "s"),
    ]
    + [
        (f"reductions.rule.{rule}.{field}", unit)
        for rule in RULES
        for field, unit in (("calls", "count"), ("fires", "count"), ("s", "s"))
    ]
    + [
        ("search.liveview_s", "s"),
        ("search.greedy_s", "s"),
        ("search.block_s", "s"),
        ("search.perturb_s", "s"),
        ("search.swap_s", "s"),
        ("search.iterations", "count"),
        ("search.swaps", "count"),
        ("search.forced", "count"),
        ("search.touches", "count"),
        ("search.max_iter_touches", "count"),
        ("solver.run_s", "s"),
        ("solver.restarts", "count"),
        ("solver.restart_s", "s"),
        ("solver.rir_reduce_s", "s"),
        ("solver.fixed_by_intersection", "count"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
)
MAXIMA = {"search.max_iter_touches"}


class Tracer:
    """Spans and counters of one process. Single-threaded."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        # Open spans, innermost last: [span id, start, child seconds].
        self._stack: list[list] = []

    def span(self, metric: str, layer: str, fn, after=None):
        """Wrap fn so each call is a span; `after(result, args)` adds counters."""
        values = self.values
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            frame = [len(spans), perf_counter(), 0.0]
            spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                own = duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                spans[frame[0]] = {
                    "id": frame[0],
                    "parent": parent[0] if parent is not None else None,
                    "name": metric,
                    "start": frame[1],
                    "end": end,
                    "self_s": own,
                }
                values[metric] += duration
                values[f"{layer}.self_s"] += own
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def tally(self, metric: str, layer: str, fn, after=None):
        """Wrap fn so its time is summed under metric without a span record."""
        values = self.values
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            duration = perf_counter() - start
            values[metric] += duration
            values[f"{layer}.self_s"] += duration
            if stack:
                stack[-1][2] += duration
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def metrics(self, solves: int) -> dict[str, float]:
        """Every per-layer metric as a mean per solve (a maximum stays one)."""
        return {
            name: self.values.get(name, 0) / (1 if name in MAXIMA else solves)
            for name, _ in PER_LAYER
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, arir) -> None:
    """Route the package's layer entry points through tracer wrappers.

    The solver module imported its callees by name, so its references are
    replaced as well as the defining modules' ones.
    """
    io, graph, reductions = arir.io, arir.graph, arir.reductions
    search, solver = arir.search, arir.solver
    v = tracer.values

    def count(name, amount):
        v[name] += amount

    def after_read(g, args):
        count("io.bytes", os.path.getsize(args[0]))
        count("graph.vertices", g.vertex_count)
        count("graph.edges", g.edge_count)

    arir.read_graph = tracer.span("io.read_s", "io", io.read_graph, after_read)
    io.build_graph = tracer.span("graph.build_s", "graph", io.build_graph)
    graph.WorkingGraph.freeze = tracer.span(
        "graph.freeze_s", "graph", graph.WorkingGraph.freeze
    )

    def after_kernelize(k, args):
        count("reductions.kernel_vertices", k.kernel.vertex_count)
        count("reductions.kernel_edges", k.kernel.edge_count)
        count("reductions.fixed", k.fixed_count)
        count("reductions.folds", k.fold_count)

    solver.kernelize = tracer.span(
        "reductions.kernelize_s", "reductions", reductions.kernelize, after_kernelize
    )

    fixpoint = reductions.run_to_fixpoint

    def fixpoint_counted(W, *args, **kwargs):
        before = W.check_steps
        try:
            return fixpoint(W, *args, **kwargs)
        finally:
            count("reductions.check_steps", W.check_steps - before)

    # The kernel's own fixpoint is part of kernelize_s; in-round calls from
    # the solver are fixpoint_s.
    reductions.run_to_fixpoint = tracer.span(
        "reductions.kernel_fixpoint_s", "reductions", fixpoint_counted
    )
    solver.run_to_fixpoint = tracer.span(
        "reductions.fixpoint_s", "reductions", fixpoint_counted
    )
    lift = tracer.span("reductions.lift_s", "reductions", reductions.extend_solution)
    reductions.extend_solution = lift
    solver.extend_solution = lift

    rule_functions = {
        "zero": ["rule_zero_vertex"],
        "one": ["rule_one_vertex"],
        "triangle": ["rule_triangle"],
        "quadrilateral": ["rule_quadrilateral"],
        "fold2": ["rule_fold2"],
        # The reverse direction of domination is a private helper of the
        # same rule; without it most domination time would go untraced.
        "domination": ["rule_domination", "_dominates_neighbor"],
        "twin_edge": ["rule_twin_edge"],
    }
    for rule, names in rule_functions.items():
        prefix = f"reductions.rule.{rule}"

        def after_rule(fired, args, prefix=prefix):
            v[prefix + ".calls"] += 1
            if fired:
                v[prefix + ".fires"] += 1

        for name in names:
            wrapped = tracer.tally(
                prefix + ".s", "reductions", getattr(reductions, name), after_rule
            )
            setattr(reductions, name, wrapped)

    from_working = search.LiveView.from_working.__func__
    search.LiveView.from_working = classmethod(
        tracer.span("search.liveview_s", "search", from_working)
    )
    solver.greedy_init = tracer.span("search.greedy_s", "search", search.greedy_init)

    block = search.arw_block

    def block_counted(state, m):
        before = state.touches
        try:
            return block(state, m)
        finally:
            count("search.iterations", m)
            count("search.touches", state.touches - before)
            if state.max_iter_touches > v["search.max_iter_touches"]:
                v["search.max_iter_touches"] = state.max_iter_touches

    solver.arw_block = tracer.span("search.block_s", "search", block_counted)
    state_cls = search.SolutionState
    state_cls.perturb = tracer.tally(
        "search.perturb_s",
        "search",
        state_cls.perturb,
        lambda forced, args: count("search.forced", len(forced)),
    )
    state_cls.exhaust_swaps = tracer.tally(
        "search.swap_s",
        "search",
        state_cls.exhaust_swaps,
        lambda swaps, args: count("search.swaps", swaps),
    )

    solver.restart_round = tracer.span(
        "solver.restart_s",
        "solver",
        solver.restart_round,
        lambda _, args: count("solver.restarts", 1),
    )
    solver.rir_reduce = tracer.span(
        "solver.rir_reduce_s",
        "solver",
        solver.rir_reduce,
        lambda out, args: count("solver.fixed_by_intersection", len(out[0])),
    )
    arir.run = tracer.span("solver.run_s", "solver", solver.run)
