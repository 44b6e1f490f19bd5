import gc
import random
import tracemalloc

import pytest

from arir import (
    ParseError,
    build_graph,
    read_edgelist,
    read_graph,
    read_metis,
    read_solution,
    write_metis,
    write_solution,
)
from helpers import bench_gen, gnp


def test_metis_round_trip_random(tmp_path):
    rng = random.Random(5)
    for trial in range(10):
        edges = [(rng.randrange(50), rng.randrange(50)) for _ in range(200)]
        g = build_graph([(u, v) for u, v in edges if u != v], vertex_count_hint=50)
        target = tmp_path / f"g{trial}.graph"
        write_metis(g, str(target))
        assert read_metis(str(target)) == g


def test_metis_comments_and_isolated(tmp_path):
    target = tmp_path / "iso.graph"
    target.write_text("% a comment\n3 1\n2\n1\n\n")
    g = read_metis(str(target))
    assert g.vertex_count == 3
    assert g.edge_count == 1
    assert g.degree(2) == 0
    # A missing trailing line is an isolated vertex too.
    target.write_text("3 1\n2\n1\n")
    assert read_metis(str(target)) == g


def test_metis_rejects_bad_header(tmp_path):
    target = tmp_path / "bad.graph"
    target.write_text("3\n")
    with pytest.raises(ParseError):
        read_metis(str(target))
    # The header is quoted without its line end, LF or CRLF.
    for raw in (b"garbage\n", b"garbage\r\n"):
        target.write_bytes(raw)
        with pytest.raises(ParseError, match="got 'garbage'$"):
            read_metis(str(target))


def test_metis_rejects_out_of_range_neighbor(tmp_path):
    target = tmp_path / "oob.graph"
    target.write_text("2 1\n3\n1\n")
    with pytest.raises(ParseError):
        read_metis(str(target))


def test_metis_rejects_unpaired_neighbors(tmp_path):
    # Each file's edges recount to its header m; only the pairing is wrong.
    cases = {
        "asymmetric": ("3 2\n2\n1 3\n\n", "both ends"),
        "repeated": ("2 1\n2 2\n1\n", "both ends"),
        "self": ("2 1\n1 2\n1\n", "line 2: vertex 1 lists itself"),
        "one_sided": ("4 2\n2 3\n1\n\n\n", "vertex 1 lists 3, but 3 does not list 1"),
        # Their entries number twice the edge count: a repeat stands in for
        # the other end's missing entry, or every edge of a directed triangle
        # is listed twice from one end.
        "repeat_for_missing_end": ("2 1\n2 2\n\n", "line 2: neighbor 2 listed twice"),
        "directed_triangle": ("3 3\n2 2\n3 3\n1 1\n", "line 2: neighbor 2 listed twice"),
        # Vertex 3 has no line, so it lists nothing.
        "listed_without_line": ("3 1\n3\n\n", "vertex 1 lists 3, but 3 does not list 1"),
    }
    for name, (text, message) in cases.items():
        target = tmp_path / f"{name}.graph"
        target.write_text(text)
        with pytest.raises(ParseError, match=message):
            read_metis(str(target))


def test_metis_names_file_lines_and_rejects_extra_lines(tmp_path):
    cases = {
        # Comment lines count: the self-listing sits on the file's line 4.
        "comment_before_self": ("% c\n2 1\n2\n2\n", "line 4: vertex 2 lists itself"),
        # A third vertex line in a 2-vertex file would be dropped unread.
        "extra_vertex_line": ("2 1\n2\n1\n3 1\n", "line 4: text after the 2 vertex"),
        "extra_after_blank": ("1 0\n\n\n5\n", "line 4: text after the 1 vertex lines"),
        "comment_between_lines": ("3 2\n2\n% c\n1 1\n\n", "line 4: neighbor 1 listed twice"),
        "self_on_last_line": ("3 1\n2\n1\n3\n", "line 4: vertex 3 lists itself"),
        # Comments before and among the vertex lines move every later line.
        "extra_after_comments": (
            "2 1\n% c\n2\n  % d\n1\n3\n",
            "line 6: text after the 2 vertex lines",
        ),
        "bad_token_after_comment": ("2 1\n% c\nx\n1\n", "line 3: expected integer, got 'x'"),
        "self_after_comments": (
            "% h\n% h2\n3 1\n2\n% c\n1\n3\n",
            "line 7: vertex 3 lists itself",
        ),
        # A '%' after a vertex's first entry starts no comment.
        "percent_inside_line": ("2 1\n2 %x\n1\n", "line 2: expected integer, got '%x'"),
    }
    for name, (text, message) in cases.items():
        target = tmp_path / f"{name}.graph"
        target.write_text(text)
        with pytest.raises(ParseError, match=message):
            read_metis(str(target))
    # Trailing blank lines and comments after the last vertex line still read.
    target = tmp_path / "trailing.graph"
    target.write_text("2 1\n2\n1\n\n  \n% end\n\n")
    g = read_metis(str(target))
    assert g.vertex_count == 2 and g.has_edge(0, 1)


def test_metis_round_trip_with_comments_among_lines(tmp_path):
    rng = random.Random(11)
    for trial in range(10):
        g = gnp(30, 0.15, rng)
        plain = tmp_path / f"plain{trial}.graph"
        write_metis(g, str(plain))
        lines = plain.read_text().splitlines()
        for _ in range(rng.randrange(1, 6)):
            # Anywhere after the header, indented or not.
            at = rng.randrange(1, len(lines) + 1)
            lines.insert(at, rng.choice(["% c", "%c", "  % indented", "\t%"]))
        end = "\r\n" if trial % 2 else "\n"
        target = tmp_path / f"commented{trial}.graph"
        target.write_bytes(end.join(lines + [""]).encode())
        assert read_metis(str(target)) == g


def test_metis_reads_unsorted_lines_and_crlf(tmp_path):
    unsorted = tmp_path / "unsorted.graph"
    unsorted.write_text("4 3\n4 3 2\n1\n1\n1\n")
    g = read_metis(str(unsorted))
    assert g.adjacency == [[1, 2, 3], [0], [0], [0]]
    text = "% star\n4 3\n2 3 4\n1\n% between\n1\n1\n\n"
    lf = tmp_path / "lf.graph"
    lf.write_bytes(text.encode())
    crlf = tmp_path / "crlf.graph"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert read_metis(str(crlf)) == read_metis(str(lf)) == g


def test_metis_rejects_wrong_edge_count(tmp_path):
    target = tmp_path / "count.graph"
    target.write_text("3 3\n2\n1 3\n2\n")
    with pytest.raises(ParseError, match="header claims 3 edges"):
        read_metis(str(target))


def test_edgelist_auto_base_detection(tmp_path):
    zero_based = tmp_path / "a.edges"
    zero_based.write_text("# comment\n0 1\n1 2\n")
    g = read_edgelist(str(zero_based))
    assert g.vertex_count == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 2)
    assert read_edgelist(str(zero_based), index_base="0") == g

    # Without a 0 the file does not show its base: it may be 1-based, or
    # 0-based with its lowest vertices isolated.
    for name, text, low in (("b.edges", "1 2\n2 3\n", 1), ("c.edges", "3 2\n", 2)):
        target = tmp_path / name
        target.write_text(text)
        message = f"smallest vertex id is {low},.*--index-base 0 or 1"
        with pytest.raises(ParseError, match=message):
            read_edgelist(str(target))
    assert read_edgelist(str(tmp_path / "b.edges"), index_base="1") == g


def test_edgelist_base_override(tmp_path):
    target = tmp_path / "c.edges"
    target.write_text("1 2\n2 3\n")
    g = read_edgelist(str(target), index_base="0")
    assert g.vertex_count == 4
    assert g.degree(0) == 0
    # A 1-based file has no vertex 0; the error names the line that lists one.
    target.write_text("1 2\n0 1\n")
    with pytest.raises(ParseError, match=r"c\.edges line 2: id 0 present in a 1-based"):
        read_edgelist(str(target), index_base="1")


def test_edgelist_rejects_overflow(tmp_path):
    target = tmp_path / "big.edges"
    target.write_text(f"0 {2**63}\n")
    with pytest.raises(ParseError, match="overflows"):
        read_edgelist(str(target))


def test_edgelist_rejects_bad_line(tmp_path):
    target = tmp_path / "bad.edges"
    target.write_text("0 1 2\n")
    with pytest.raises(ParseError):
        read_edgelist(str(target))


def test_edgelist_rejects_self_loop_and_collapses_repeats(tmp_path):
    looped = tmp_path / "loop.edges"
    looped.write_text("0 1\n1 2\n# comment\n2 2\n")
    with pytest.raises(ParseError, match=r"loop\.edges line 4: self-loop on vertex 2"):
        read_edgelist(str(looped))
    both_ways = tmp_path / "both.edges"
    both_ways.write_text("0 1\n1 0\n0 1\n1 2\n")
    g = read_edgelist(str(both_ways))
    assert g.adjacency == [[1], [0, 2], [1]]


def test_read_graph_format_dispatch(tmp_path):
    rng = random.Random(2)
    g = gnp(10, 0.3, rng)
    metis = tmp_path / "x.graph"
    write_metis(g, str(metis))
    assert read_graph(str(metis)) == g
    unknown = tmp_path / "x.weird"
    unknown.write_text("1 0\n")
    with pytest.raises(ParseError, match="cannot infer"):
        read_graph(str(unknown))
    # Options are checked before the file is opened, whatever its format.
    with pytest.raises(ParseError, match="unknown graph format 'mtx'"):
        read_graph(str(metis), fmt="mtx")
    with pytest.raises(ParseError, match="invalid index base '2'"):
        read_graph(str(metis), index_base="2")
    edges = tmp_path / "x.edges"
    edges.write_text("1 2\n")
    assert read_edgelist(str(edges), index_base=0).vertex_count == 3
    assert read_edgelist(str(edges), index_base=1).vertex_count == 2


def test_matrix_market_needs_an_explicit_format(tmp_path):
    # Neither reader understands Matrix Market, so .mtx is not guessed.
    target = tmp_path / "x.mtx"
    target.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n2 1\n")
    with pytest.raises(ParseError, match="'.mtx'; pass --format explicitly"):
        read_graph(str(target))


def test_solution_round_trip(tmp_path):
    target = tmp_path / "s.sol"
    write_solution({4, 1, 9}, str(target))
    text = target.read_text()
    assert text.startswith("# size=3\n")
    assert read_solution(str(target)) == {1, 4, 9}


def test_solution_rejects_repeated_id(tmp_path):
    target = tmp_path / "twice.sol"
    target.write_text("# size=2\n0\n2\n\n0\n")
    with pytest.raises(ParseError, match=r"twice\.sol line 5: vertex 0 already listed on line 2"):
        read_solution(str(target))


def _traced_read(reader, path: str) -> tuple[int, int]:
    """The tracemalloc peak of one read and the memory its graph retains."""
    gc.collect()
    tracemalloc.start()
    try:
        graph = reader(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.vertex_count > 0
    return peak, retained


def test_readers_peak_memory_stays_near_the_graph(tmp_path):
    # A 141 x 141 mesh: 19,881 vertices, about 59k edges. The Metis reader
    # keeps one adjacency copy (measured peak 1.005x what the graph retains;
    # a reader that also holds the file's lines and a second copy peaks at
    # 3.9x). The edge-list reader streams its pairs into the graph, whose
    # lists share one int per vertex (measured 1.14x; holding the parsed
    # pairs and an int per endpoint made it 1.63x).
    n, edges = bench_gen.mesh(141, random.Random(1))
    metis = tmp_path / "mesh.graph"
    bench_gen.write_metis(str(metis), n, edges)
    peak, retained = _traced_read(read_metis, str(metis))
    assert peak <= 1.5 * retained, (peak, retained)
    edgelist = tmp_path / "mesh.edges"
    edgelist.write_text("".join(f"{u} {v}\n" for u, v in edges))
    peak, retained = _traced_read(read_edgelist, str(edgelist))
    assert peak <= 1.5 * retained, (peak, retained)
