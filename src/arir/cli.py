"""Command-line frontend: solve, bench, verify, kernelize, oracle."""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys

from .bench import _instance_name, load_manifest, run_bench, write_csv
from .graph import ContractError, _outside, check_solution
from .io import GRAPH_FORMATS, INDEX_BASES, read_graph, read_solution
from .io import write_metis, write_solution
from .oracle import exact_mis
from .reductions import TIERS, kernelize
from .solver import VARIANTS, RunConfig, run

log = logging.getLogger("arir")

class _Unusable(Exception):
    """Input or output a command cannot use: main prints it and exits 2."""


@contextlib.contextmanager
def _as_unusable():
    """Turn a ValueError (a ParseError, a bad setting, text that is not UTF-8)
    or OSError raised in the block into _Unusable, naming an OSError's file."""
    try:
        yield
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename:
            exc = f"{exc.filename}: {exc.strerror}"
        raise _Unusable(exc) from None


_LOG_LEVELS = {"off": logging.CRITICAL + 1, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    """Set the arir logger, and no other, to ARIR_LOG's level (off if unset)."""
    value = os.environ.get("ARIR_LOG", "off")
    level = _LOG_LEVELS.get(value.lower())
    if level is None:
        raise _Unusable(f"ARIR_LOG must be one of off, info, debug; got {value!r}")
    log.setLevel(level)
    if level <= logging.INFO:
        if not log.handlers:
            handler = logging.StreamHandler()
            handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
            log.addHandler(handler)
        # Each call logs to the sys.stderr of its own time. The stream is set
        # directly: setStream would flush the old one, which raises once it
        # is closed, and every record is flushed as it is written anyway.
        log.handlers[0].stream = sys.stderr


def _check_writable(*paths: str | None) -> None:
    """Raise _Unusable unless every given path can be opened for writing.
    Each is opened for append, so an existing file keeps its content, and a
    file the check created is removed again."""
    with _as_unusable():
        for path in filter(None, paths):
            existed = os.path.exists(path)
            open(path, "ab").close()
            if not existed:
                os.remove(path)


def _check_distinct(inputs, outputs) -> None:
    """Raise _Unusable if an output resolves to the same path as an input or
    as another output, so no command overwrites what it reads or writes two
    outputs into one file."""
    owners = {os.path.realpath(path): f"input {path}" for path in inputs}
    for path in filter(None, outputs):
        real = os.path.realpath(path)
        if real in owners:
            raise _Unusable(f"{path}: output is the same file as {owners[real]}")
        owners[real] = f"output {path}"


def _add_format_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=GRAPH_FORMATS, default="auto")
    parser.add_argument("--index-base", choices=INDEX_BASES, default="auto")


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="instance file")
    _add_format_args(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arir", description="maximum independent set solver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_input_args(p_solve)
    defaults = RunConfig()
    p_solve.add_argument("--variant", choices=VARIANTS, default=defaults.variant)
    p_solve.add_argument(
        "--time-limit",
        type=float,
        default=defaults.cutoff_seconds,
        metavar="SECONDS",
    )
    p_solve.add_argument("--seed", type=int, default=defaults.seed)
    p_solve.add_argument("--m", type=int, default=defaults.m)
    p_solve.add_argument(
        "--adapt-n",
        type=int,
        default=None,
        help="stagnation-test period in iterations (default: 10 * --m)",
    )
    p_solve.add_argument(
        "--max-blocks",
        type=int,
        default=defaults.max_blocks,
        help="stop after this many search blocks instead of a wall-clock cutoff",
    )
    p_solve.add_argument("--emit-solution", metavar="PATH")

    p_bench = sub.add_parser("bench", help="run a benchmark manifest")
    p_bench.add_argument("--manifest", required=True)
    p_bench.add_argument("--csv", required=True, metavar="PATH")

    p_verify = sub.add_parser("verify", help="check a solution file")
    p_verify.add_argument("graph_path")
    p_verify.add_argument("solution_path")
    _add_format_args(p_verify)

    p_kern = sub.add_parser("kernelize", help="reduce an instance to its kernel")
    _add_input_args(p_kern)
    p_kern.add_argument("--ruleset", choices=TIERS, default="advanced")
    p_kern.add_argument("--kernel-out", metavar="PATH")
    p_kern.add_argument("--log-out", metavar="PATH")

    p_oracle = sub.add_parser("oracle", help="exact solve a small instance")
    _add_input_args(p_oracle)

    return parser


def cmd_solve(args) -> int:
    _check_distinct([args.input], [args.emit_solution])
    with _as_unusable():
        config = RunConfig(
            variant=args.variant,
            m=args.m,
            n=args.adapt_n,
            cutoff_seconds=args.time_limit,
            seed=args.seed,
            max_blocks=args.max_blocks,
        )
        graph = read_graph(args.input, fmt=args.format, index_base=args.index_base)
    _check_writable(args.emit_solution)
    try:
        result = run(graph, config)
    except ContractError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    if args.emit_solution:
        with _as_unusable():
            write_solution(result.solution, args.emit_solution)
    print(json.dumps({"instance": _instance_name(args.input), **result.stats}))
    return 0


def cmd_bench(args) -> int:
    with _as_unusable():
        entries = load_manifest(args.manifest)
    instances = [entry.instance_path for entry in entries]
    _check_distinct([args.manifest, *instances], [args.csv])
    _check_writable(args.csv)
    rows = run_bench(entries)
    with _as_unusable():
        write_csv(rows, args.csv)
    for row in rows:
        if row["error"] is not None:
            label = f"{row['instance']}/{row['variant']}"
            print(f"error: {label}: {row['error']}", file=sys.stderr)
    return 0


def _passes(graph, solution: set[int], maximal: bool) -> bool:
    """Whether check_solution accepts solution, with maximal as given."""
    try:
        check_solution(graph, solution, maximal)
    except ContractError:
        return False
    return True


def cmd_verify(args) -> int:
    with _as_unusable():
        graph = read_graph(args.graph_path, fmt=args.format, index_base=args.index_base)
        solution = read_solution(args.solution_path)
    outside = _outside(graph, solution)
    if outside is not None:
        raise _Unusable(f"vertex id {outside} out of range")
    # A maximal independent set passes the full check in one pass; only a
    # set that fails it is checked again, to tell an edge from a free vertex.
    maximal = _passes(graph, solution, maximal=True)
    independent = maximal or _passes(graph, solution, maximal=False)
    print(
        f"size={len(solution)} independent={'true' if independent else 'false'} "
        f"maximal={'true' if maximal else 'false'}"
    )
    return 0 if independent else 1


def cmd_kernelize(args) -> int:
    stem = os.path.splitext(args.input)[0]
    kernel_path = args.kernel_out or f"{stem}.kernel.graph"
    log_path = args.log_out or f"{stem}.kernel.log"
    _check_distinct([args.input], [kernel_path, log_path])
    with _as_unusable():
        graph = read_graph(args.input, fmt=args.format, index_base=args.index_base)
    _check_writable(kernel_path, log_path)
    result = kernelize(graph, args.ruleset)
    with _as_unusable():
        write_metis(result.kernel, kernel_path)
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write(f"# fixed={result.fixed_count} folds={result.fold_count}\n")
            fh.writelines(line + "\n" for line in result.log.to_lines())
    print(
        f"kernel {result.kernel.vertex_count} {result.kernel.edge_count} "
        f"{result.fixed_count} {result.fold_count}"
    )
    return 0


def cmd_oracle(args) -> int:
    with _as_unusable():
        graph = read_graph(args.input, fmt=args.format, index_base=args.index_base)
        result = exact_mis(graph)
    print(f"alpha={result.alpha}")
    print(" ".join(str(v) for v in sorted(result.witness)))
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "bench": cmd_bench,
    "verify": cmd_verify,
    "kernelize": cmd_kernelize,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except _Unusable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early. What is still buffered goes to
        # devnull, so the flush at exit stays quiet; 141 is what a shell
        # reports for a process that SIGPIPE ended.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
