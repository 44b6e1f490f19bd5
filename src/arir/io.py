"""Readers for Metis graphs, edge lists and solution files, and writers for
Metis graphs and solutions."""

from __future__ import annotations

import os
from bisect import bisect_left
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain
from typing import TextIO

from .graph import StaticGraph, build_graph

_MAX_ID = 2**63 - 1

_METIS_EXTENSIONS = {".graph", ".metis"}
_EDGELIST_EXTENSIONS = {".edges", ".edgelist", ".el", ".txt"}

# The fmt and index_base values that read_graph accepts.
GRAPH_FORMATS = ("metis", "edgelist", "auto")
INDEX_BASES = ("0", "1", "auto")


class ParseError(ValueError):
    """A graph or solution file could not be parsed."""


@contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """Open path for reading as UTF-8 text; bytes that are not UTF-8, met
    anywhere in the with block, raise a ParseError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _parse_id(token: str, where: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{where}: expected integer, got {token!r}") from None
    if value > _MAX_ID:
        raise ParseError(f"{where}: id {value} overflows platform integer")
    return value


def detect_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext in _METIS_EXTENSIONS:
        return "metis"
    if ext in _EDGELIST_EXTENSIONS:
        return "edgelist"
    raise ParseError(
        f"cannot infer format from extension {ext!r}; pass --format explicitly"
    )


def check_read_options(fmt: str, index_base: str) -> None:
    """Raise ParseError unless read_graph accepts fmt and index_base (an
    index base may also be the int 0 or 1)."""
    if fmt not in GRAPH_FORMATS:
        raise ParseError(f"unknown graph format {fmt!r}; pick one of {GRAPH_FORMATS}")
    if str(index_base) not in INDEX_BASES:
        raise ParseError(f"invalid index base {index_base!r}; pick one of {INDEX_BASES}")


def read_graph(path: str, fmt: str = "auto", index_base: str = "auto") -> StaticGraph:
    check_read_options(fmt, index_base)
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "metis":
        return read_metis(path)
    return read_edgelist(path, index_base=index_base)


def read_metis(path: str) -> StaticGraph:
    """Read a Metis-format graph: header "n m", then line i lists the
    (1-based) neighbors of vertex i in any order. A line whose first
    non-blank character is '%' is a comment, wherever it sits. The file is
    read in one pass.

    Every edge must be listed from both ends exactly once (no line repeats
    an entry or lists its own vertex), and m must be the edge count. Missing
    trailing lines are isolated vertices; only blank lines and comments may
    follow the n-th vertex line. Errors name lines as they are numbered in
    the file.
    """
    with open_text(path) as fh:
        # skipped counts the header and the comments read so far, so vertex
        # i's line is the file's line skipped + i + 1.
        skipped = 0
        for first in fh:
            skipped += 1
            if not first.lstrip().startswith("%"):
                break
        else:
            raise ParseError(f"{path}: empty metis file")
        header = first.split()
        if len(header) < 2:
            raise ParseError(
                f"{path}: metis header needs 'n m', got {first.rstrip()!r}"
            )
        n = _parse_id(header[0], f"{path} header")
        m = _parse_id(header[1], f"{path} header")
        if len(header) >= 3 and header[2].strip("0") != "":
            raise ParseError(f"{path}: weighted metis format {header[2]} unsupported")
        if n < 0:
            raise ParseError(f"{path}: negative vertex count {n}")
        # adjacency[u]: the vertices whose lines list u, ascending. When line
        # i is read it holds exactly the listers below i, which must be the
        # line's own entries below i; so every edge is checked from both ends.
        adjacency: list[list[int]] = [[] for _ in range(n)]
        i = 0
        if n:
            for line in fh:
                toks = line.split()
                try:
                    row = [int(t) - 1 for t in toks]
                except ValueError:
                    # Only a non-blank line fails, so toks[0] exists.
                    if toks[0][0] == "%":
                        skipped += 1
                        continue
                    _reject_metis_line(toks, i, n, f"{path} line {skipped + i + 1}")
                row.sort()
                k = len(row)
                j = bisect_left(row, i)
                if (
                    (k and (row[0] < 0 or row[-1] >= n))
                    or (j < k and row[j] == i)
                    or len(set(row)) != k
                ):
                    _reject_metis_line(toks, i, n, f"{path} line {skipped + i + 1}")
                if adjacency[i] != row[:j]:
                    _reject_unpaired(path, i, row[:j], adjacency[i])
                for u in row:
                    adjacency[u].append(i)
                i += 1
                if i == n:
                    break
        # A missing trailing line reads as an empty one: an isolated vertex,
        # which no line may list.
        for v in range(i, n):
            if adjacency[v]:
                _reject_unpaired(path, v, [], adjacency[v])
        for no, line in enumerate(fh, skipped + n + 1):
            text = line.lstrip()
            if text and text[0] != "%":
                raise ParseError(f"{path} line {no}: text after the {n} vertex lines")
    graph = StaticGraph(adjacency)
    if graph.edge_count != m:
        raise ParseError(
            f"{path}: header claims {m} edges, adjacency holds {graph.edge_count}"
        )
    return graph


def _reject_unpaired(path: str, v: int, lists: list[int], listed_by: list[int]) -> None:
    """Raise ParseError naming the smallest u that vertex v lists but that
    does not list v, or that lists v but that v does not list."""
    u = min(set(lists).symmetric_difference(listed_by))
    a, b = (v, u) if u in lists else (u, v)
    raise ParseError(
        f"{path}: vertex {a + 1} lists {b + 1}, but {b + 1} does not list"
        f" {a + 1} (every edge is listed from both ends exactly once)"
    )


def _reject_metis_line(toks: list[str], i: int, n: int, where: str) -> None:
    """Raise ParseError at the first bad token of vertex i's line: not an
    integer, out of range, i itself, or a repeat."""
    seen = set()
    for tok in toks:
        u = _parse_id(tok, where) - 1
        if not 0 <= u < n:
            raise ParseError(f"{where}: neighbor id {u + 1} out of range")
        if u == i:
            raise ParseError(f"{where}: vertex {i + 1} lists itself")
        if u in seen:
            raise ParseError(
                f"{where}: neighbor {u + 1} listed twice"
                " (every edge is listed from both ends exactly once)"
            )
        seen.add(u)
    raise AssertionError(f"{where}: no bad token")


def write_metis(graph: StaticGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.vertex_count} {graph.edge_count}\n")
        for a in graph.adjacency:
            fh.write(" ".join(str(u + 1) for u in a))
            fh.write("\n")


def read_edgelist(path: str, index_base: str = "auto") -> StaticGraph:
    """Read a whitespace-separated "u v" edge list; '#'/'%' lines are comments.

    index_base "auto" reads the file as 0-based when its smallest id is 0
    and raises ParseError for any other smallest id, whose base the file
    does not show. A self-loop raises ParseError naming its line; repeated
    edges collapse, since edge lists often give both directions.

    The checked pairs stream into build_graph as the file is read, so no
    list of them is held.
    """
    check_read_options("edgelist", index_base)
    one_based = str(index_base) == "1"
    min_id = None

    def pairs(fh):
        nonlocal min_id
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] in "#%":
                continue
            toks = stripped.split()
            if len(toks) != 2:
                raise ParseError(
                    f"{path} line {lineno}: expected 'u v', got {stripped!r}"
                )
            u = _parse_id(toks[0], f"{path} line {lineno}")
            v = _parse_id(toks[1], f"{path} line {lineno}")
            if u < 0 or v < 0:
                raise ParseError(f"{path} line {lineno}: negative id")
            if u == v:
                raise ParseError(f"{path} line {lineno}: self-loop on vertex {u}")
            low = min(u, v)
            if min_id is None or low < min_id:
                min_id = low
            if one_based:
                if low == 0:
                    raise ParseError(
                        f"{path} line {lineno}: id 0 present in a 1-based edge list"
                    )
                u -= 1
                v -= 1
            yield u, v

    with open_text(path) as fh:
        edges = pairs(fh)
        first = next(edges, None)
        if first is None:
            raise ParseError(f"{path}: empty graph undefined")
        graph = build_graph(chain((first,), edges))
    if index_base == "auto" and min_id != 0:
        raise ParseError(
            f"{path}: smallest vertex id is {min_id}, so the index base is"
            " ambiguous; pass --index-base 0 or 1"
        )
    return graph


def read_solution(path: str) -> set[int]:
    """Read a solution file: one 0-based vertex id per line, '#' comments.
    An id listed twice raises ParseError naming the line of the repeat."""
    first_line: dict[int, int] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            v = _parse_id(stripped, f"{path} line {lineno}")
            if v in first_line:
                raise ParseError(
                    f"{path} line {lineno}: vertex {v} already listed on line"
                    f" {first_line[v]}"
                )
            first_line[v] = lineno
    return set(first_line)


def write_solution(solution: set[int], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# size={len(solution)}\n")
        for v in sorted(solution):
            fh.write(f"{v}\n")
