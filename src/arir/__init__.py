"""Maximum independent set solving: exact kernelization, perturbation-and-swap
local search with adaptive restarts, and intersection-based inexact reduction."""

from .graph import ContractError, StaticGraph, WorkingGraph, build_graph
from .io import (
    ParseError,
    read_edgelist,
    read_graph,
    read_metis,
    read_solution,
    write_metis,
    write_solution,
)
from .oracle import OracleResult, exact_mis
from .reductions import (
    KernelResult,
    ReductionLog,
    extend_solution,
    kernelize,
    run_to_fixpoint,
)
from .solver import RunConfig, RunResult, run

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "KernelResult",
    "OracleResult",
    "ParseError",
    "ReductionLog",
    "RunConfig",
    "RunResult",
    "StaticGraph",
    "WorkingGraph",
    "build_graph",
    "exact_mis",
    "extend_solution",
    "kernelize",
    "read_edgelist",
    "read_graph",
    "read_metis",
    "read_solution",
    "run",
    "run_to_fixpoint",
    "write_metis",
    "write_solution",
]
