import contextlib
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arir.bench
import arir.cli
from arir import ContractError, ReductionLog, RunConfig, RunResult, extend_solution, run
from arir.cli import main
from arir.io import read_graph, write_metis, write_solution
from helpers import (
    complete,
    cycle,
    gnp,
    is_independent,
    is_maximal,
    path,
    petersen,
    random_maximal,
    random_tree,
)

import random


def metis_file(tmp_path, graph, name):
    target = tmp_path / name
    write_metis(graph, str(target))
    return str(target)


def test_solve_p3(tmp_path, capsys):
    graph_path = metis_file(tmp_path, path(3), "p3.graph")
    sol_path = str(tmp_path / "p3.sol")
    rc = main(
        [
            "solve",
            "--input",
            graph_path,
            "--variant",
            "arir2",
            "--time-limit",
            "1",
            "--emit-solution",
            sol_path,
        ]
    )
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["best_size"] == 2
    assert record["instance"] == "p3"
    rc = main(["verify", graph_path, sol_path])
    assert rc == 0
    assert "independent=true" in capsys.readouterr().out


def test_solve_deterministic_json(tmp_path, capsys):
    graph_path = metis_file(tmp_path, cycle(9), "c9.graph")
    args = [
        "solve",
        "--input",
        graph_path,
        "--seed",
        "1",
        "--m",
        "20",
        "--max-blocks",
        "30",
    ]
    records = []
    for _ in range(2):
        assert main(args) == 0
        records.append(json.loads(capsys.readouterr().out))
    for record in records:
        record.pop("time_to_best_s")
    assert records[0] == records[1]


def test_solve_petersen(tmp_path, capsys):
    graph_path = metis_file(tmp_path, petersen(), "petersen.graph")
    rc = main(
        ["solve", "--input", graph_path, "--time-limit", "5", "--m", "2000",
         "--max-blocks", "10"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["best_size"] == 4


def test_solve_parse_failure_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a header\n")
    assert main(["solve", "--input", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    # An edge-list self-loop is not dropped: that would let vertex 2 into
    # the solution.
    looped = tmp_path / "loop.edges"
    looped.write_text("0 1\n1 2\n2 2\n")
    sol = tmp_path / "loop.sol"
    argv = ["solve", "--input", str(looped), "--max-blocks", "1"]
    assert main(argv + ["--emit-solution", str(sol)]) == 2
    captured = capsys.readouterr()
    assert "line 3: self-loop on vertex 2" in captured.err and captured.out == ""
    assert not sol.exists()


def test_solve_edge_list_without_zero_needs_index_base(tmp_path, capsys):
    # 1 2 / 2 3 is the path 0-1-2 if 1-based, or a 4-vertex graph with
    # vertex 0 isolated if 0-based.
    edges = tmp_path / "p3.edges"
    edges.write_text("1 2\n2 3\n")
    assert main(["solve", "--input", str(edges), "--max-blocks", "1"]) == 2
    captured = capsys.readouterr()
    assert "--index-base 0 or 1" in captured.err and captured.out == ""
    for base, size in (("1", 2), ("0", 3)):
        argv = ["solve", "--input", str(edges), "--max-blocks", "1"]
        assert main(argv + ["--index-base", base]) == 0
        assert json.loads(capsys.readouterr().out)["best_size"] == size


def test_solve_bad_config_exit2(tmp_path, capsys):
    graph_path = metis_file(tmp_path, path(3), "p3.graph")
    assert main(["solve", "--input", graph_path, "--time-limit", "0"]) == 2
    capsys.readouterr()


def test_solve_checks_settings_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.graph")
    assert main(["solve", "--input", missing, "--m", "0"]) == 2
    err = capsys.readouterr().err
    assert "m must be >= 1" in err and missing not in err


def test_solve_adapt_n_defaults_to_ten_m(tmp_path, monkeypatch, capsys):
    graph_path = metis_file(tmp_path, cycle(5), "c5.graph")
    configs = []

    def capture(graph, config):
        configs.append(config)
        return RunResult(solution={0, 2}, stats={})

    monkeypatch.setattr(arir.cli, "run", capture)
    # Without --adapt-n the period follows --m, not RunConfig()'s own n.
    for argv, m, n in (
        (["--m", "20"], 20, 200),
        (["--m", "50"], 50, 500),
        (["--m", "50", "--adapt-n", "120"], 50, 150),
    ):
        assert main(["solve", "--input", graph_path, *argv]) == 0
        capsys.readouterr()
        assert configs[-1].m == m and configs[-1].n == n


def test_solve_prints_the_run_stats(tmp_path, monkeypatch, capsys):
    graph_path = metis_file(tmp_path, cycle(9), "c9.graph")
    results = []

    def capture(graph, config):
        results.append(run(graph, config))
        return results[-1]

    monkeypatch.setattr(arir.cli, "run", capture)
    assert main(["solve", "--input", graph_path, "--m", "20", "--max-blocks", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == ["instance", *results[0].stats]
    assert record == {"instance": "c9", **results[0].stats}


def test_solve_verification_failure_exits_3(tmp_path, monkeypatch, capsys):
    graph_path = metis_file(tmp_path, cycle(5), "c5.graph")
    sol_path = tmp_path / "c5.sol"

    def failing_run(graph, config):
        raise ContractError("solution carries edge 0-1")

    monkeypatch.setattr(arir.cli, "run", failing_run)
    rc = main(["solve", "--input", graph_path, "--emit-solution", str(sol_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "verification failed: solution carries edge 0-1\n"
    assert captured.out == ""
    assert not sol_path.exists()


def _solve_in_subprocess(graph_path, arir_log):
    env = {**os.environ, "PYTHONPATH": str(Path(arir.cli.__file__).parents[1])}
    env.pop("ARIR_LOG", None)
    if arir_log is not None:
        env["ARIR_LOG"] = arir_log
    return subprocess.run(
        [sys.executable, "-c", "import sys; from arir.cli import main; "
         "sys.exit(main())", "solve", "--input", graph_path, "--max-blocks", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_arir_log_info_goes_to_stderr_only(tmp_path):
    graph_path = metis_file(tmp_path, petersen(), "petersen.graph")
    quiet = _solve_in_subprocess(graph_path, None)
    loud = _solve_in_subprocess(graph_path, "info")
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    assert "kernel:" in loud.stderr
    records = [json.loads(done.stdout) for done in (quiet, loud)]
    for record in records:
        record.pop("time_to_best_s")
    assert records[0] == records[1]


def test_arir_log_info_follows_the_current_stderr(tmp_path, monkeypatch):
    monkeypatch.setenv("ARIR_LOG", "info")
    graph_path = metis_file(tmp_path, petersen(), "petersen.graph")
    argv = ["solve", "--input", graph_path, "--max-blocks", "1"]

    def solve_logging_to(stream):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stream):
            assert main(argv) == 0

    buffers = [io.StringIO(), io.StringIO()]
    for buffer in buffers:
        solve_logging_to(buffer)
    assert [buffer.getvalue().count("kernel:") for buffer in buffers] == [1, 1]
    # A call after the previous call's stream was closed still logs.
    closed = io.TextIOWrapper(io.BytesIO())
    solve_logging_to(closed)
    closed.close()
    solve_logging_to(buffers[0])
    assert buffers[0].getvalue().count("kernel:") == 2


def test_arir_log_off_leaves_other_loggers_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ARIR_LOG", raising=False)
    host = logging.getLogger("host")
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    host.addHandler(handler)
    try:
        assert main(["oracle", "--input", metis_file(tmp_path, cycle(4), "c4.graph")]) == 0
        capsys.readouterr()
        host.warning("still heard")
    finally:
        host.removeHandler(handler)
    assert stream.getvalue() == "still heard\n"
    assert logging.root.manager.disable == logging.NOTSET


def test_arir_log_bogus_value_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ARIR_LOG", "verbose")
    assert main(["oracle", "--input", metis_file(tmp_path, cycle(4), "c4.graph")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ARIR_LOG must be one of off, info, debug")


def test_verify_cases(tmp_path, capsys):
    p3 = metis_file(tmp_path, path(3), "p3.graph")
    good = str(tmp_path / "good.sol")
    write_solution({0, 2}, good)
    assert main(["verify", p3, good]) == 0
    out = capsys.readouterr().out
    assert "size=2" in out and "maximal=true" in out

    bad = str(tmp_path / "bad.sol")
    write_solution({0, 1}, bad)
    assert main(["verify", p3, bad]) == 1
    assert "independent=false" in capsys.readouterr().out

    p4 = metis_file(tmp_path, path(4), "p4.graph")
    partial = str(tmp_path / "partial.sol")
    write_solution({1}, partial)
    assert main(["verify", p4, partial]) == 0
    out = capsys.readouterr().out
    assert "independent=true" in out and "maximal=false" in out

    # An id out of range is named as check_solution names it: the smallest
    # if it is negative, else the largest.
    oob = tmp_path / "oob.sol"
    for ids, named in (({9}, 9), ({-1, 9}, -1), ({9, 12}, 12)):
        oob.write_text("".join(f"{v}\n" for v in ids))
        assert main(["verify", p3, str(oob)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: vertex id {named} out of range\n"
        assert captured.out == ""

    # A repeated id is not merged into a smaller set.
    twice = tmp_path / "twice.sol"
    twice.write_text("0\n0\n")
    assert main(["verify", p3, str(twice)]) == 2
    captured = capsys.readouterr()
    assert "line 2: vertex 0 already listed" in captured.err and captured.out == ""


def test_verify_matches_brute_force_checks(tmp_path, capsys):
    rng = random.Random(8)
    for trial in range(40):
        g = gnp(rng.randint(1, 14), rng.uniform(0.0, 0.6), rng)
        graph_path = metis_file(tmp_path, g, f"g{trial}.graph")
        sol_path = str(tmp_path / f"g{trial}.sol")
        for _ in range(10):
            sol = {v for v in range(g.vertex_count) if rng.random() < 0.4}
            write_solution(sol, sol_path)
            independent = is_independent(g, sol)
            maximal = independent and is_maximal(g, sol)
            rc = main(["verify", graph_path, sol_path])
            out = capsys.readouterr().out.split()
            assert rc == (0 if independent else 1)
            assert out == [
                f"size={len(sol)}",
                f"independent={str(independent).lower()}",
                f"maximal={str(maximal).lower()}",
            ]


def test_verify_reads_a_maximal_independent_set_once(tmp_path, monkeypatch, capsys):
    calls = []
    real_check = arir.cli.check_solution

    def spy(graph, solution, maximal=True):
        calls.append(maximal)
        return real_check(graph, solution, maximal)

    monkeypatch.setattr(arir.cli, "check_solution", spy)
    pet = metis_file(tmp_path, petersen(), "petersen.graph")
    sol = str(tmp_path / "pet.sol")
    write_solution(random_maximal(petersen(), random.Random(3)), sol)
    assert main(["verify", pet, sol]) == 0
    assert "independent=true" in capsys.readouterr().out
    assert calls == [True]


def test_kernelize_tree(tmp_path, capsys):
    g = random_tree(12, random.Random(3))
    graph_path = metis_file(tmp_path, g, "tree.graph")
    rc = main(["kernelize", "--input", graph_path, "--ruleset", "simple"])
    assert rc == 0
    tokens = capsys.readouterr().out.split()
    assert tokens[0] == "kernel" and tokens[1] == "0"
    assert (tmp_path / "tree.kernel.graph").exists()
    assert (tmp_path / "tree.kernel.log").exists()


def test_empty_kernel_round_trip(tmp_path, capsys):
    g = path(7)
    graph_path = metis_file(tmp_path, g, "p7.graph")
    assert main(["kernelize", "--input", graph_path]) == 0
    assert capsys.readouterr().out.split() == ["kernel", "0", "0", "4", "0"]
    kernel_path = str(tmp_path / "p7.kernel.graph")
    assert main(["solve", "--input", kernel_path, "--max-blocks", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["best_size"] == 0
    with open(tmp_path / "p7.kernel.log", encoding="utf-8") as fh:
        lifted = extend_solution(set(), ReductionLog.from_lines(fh))
    assert len(lifted) == 4
    assert is_independent(g, lifted)


def test_kernelize_k4_untouched(tmp_path, capsys):
    graph_path = metis_file(tmp_path, complete(4), "k4.graph")
    assert main(["kernelize", "--input", graph_path, "--ruleset", "simple"]) == 0
    assert capsys.readouterr().out.split() == ["kernel", "4", "6", "0", "0"]


def test_kernelize_c5_simple(tmp_path, capsys):
    graph_path = metis_file(tmp_path, cycle(5), "c5.graph")
    assert main(["kernelize", "--input", graph_path, "--ruleset", "simple"]) == 0
    tokens = capsys.readouterr().out.split()
    assert tokens[1] == "0"
    assert int(tokens[3]) + int(tokens[4]) == 2  # fixed + folds


def test_oracle_subcommand(tmp_path, capsys):
    graph_path = metis_file(tmp_path, petersen(), "petersen.graph")
    assert main(["oracle", "--input", graph_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "alpha=4"
    assert len(out[1].split()) == 4


def test_bench_manifest(tmp_path, capsys):
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    pet = metis_file(tmp_path, petersen(), "petersen.graph")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "instance_path": c5,
                    "cutoff_s": 5.0,
                    "variants": ["arir2"],
                    "seeds": [1, 2, 3, 4, 5],
                    "m": 20,
                    "max_blocks": 5,
                },
                {
                    "instance_path": pet,
                    "cutoff_s": 5.0,
                    "variants": ["arir2"],
                    "seeds": [1, 2, 3, 4, 5],
                    "m": 200,
                    "max_blocks": 10,
                },
            ]
        )
    )
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "instance,variant,runs,max,avg,avg_time_to_best_s"
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert rows["c5"][2] == "5" and rows["c5"][3] == "2" and rows["c5"][4] == "2.00"
    assert rows["petersen"][3] == "4" and rows["petersen"][4] == "4.00"


def test_solve_and_bench_name_an_instance_alike(tmp_path, capsys):
    # Only the last extension is dropped, in the solve record and the row.
    graph_path = metis_file(tmp_path, path(3), "g.v2.graph")
    assert main(["solve", "--input", graph_path, "--max-blocks", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["instance"] == "g.v2"
    manifest = tmp_path / "bench.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "instance_path": graph_path,
                    "cutoff_s": 5.0,
                    "variants": ["arir2"],
                    "seeds": [1],
                    "max_blocks": 1,
                }
            ]
        )
    )
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[1].startswith("g.v2,arir2,")


def test_bench_rerun_reproduces_max_avg(tmp_path, capsys):
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "instance_path": c5,
                    "cutoff_s": 5.0,
                    "variants": ["arir2", "arw"],
                    "seeds": [1, 2, 3],
                    "m": 10,
                    "max_blocks": 4,
                }
            ]
        )
    )
    snapshots = []
    for name in ("a.csv", "b.csv"):
        csv_path = tmp_path / name
        assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        rows = [
            ln.split(",")[:5]  # all but the timing column
            for ln in csv_path.read_text().strip().splitlines()
        ]
        snapshots.append(rows)
    assert snapshots[0] == snapshots[1]


def test_bench_empty_seeds_rejected(tmp_path, capsys):
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [{"instance_path": c5, "cutoff_s": 1.0, "variants": ["arir2"], "seeds": []}]
        )
    )
    rc = main(["bench", "--manifest", str(manifest), "--csv", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "seeds" in capsys.readouterr().err


def test_bench_error_row_continues(tmp_path, capsys):
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    broken = tmp_path / "broken.graph"
    broken.write_text("garbage\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "instance_path": str(broken),
                    "cutoff_s": 1.0,
                    "variants": ["arir2"],
                    "seeds": [1],
                },
                {
                    "instance_path": c5,
                    "cutoff_s": 1.0,
                    "variants": ["arir2"],
                    "seeds": [1],
                    "m": 10,
                    "max_blocks": 2,
                },
            ]
        )
    )
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()
    by_name = {ln.split(",")[0]: ln for ln in lines[1:]}
    assert by_name["broken"].split(",")[2] == "0"
    assert by_name["c5"].split(",")[3] == "2"


def test_bench_reads_each_entry_once_and_matches_separate_runs(
    tmp_path, monkeypatch, capsys
):
    # Sparse enough that both tiers fold, dense enough that a kernel of about
    # 110 vertices is left to search, with sizes that differ by seed.
    g = gnp(120, 0.06, random.Random(1))
    graph_path = metis_file(tmp_path, g, "g.graph")
    real_read = arir.bench.read_graph
    reads = []

    def counting_read(*args, **kwargs):
        reads.append(args)
        return real_read(*args, **kwargs)

    monkeypatch.setattr(arir.bench, "read_graph", counting_read)
    variants, seeds = ["arir1", "arw"], [1, 2, 3]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "instance_path": graph_path,
                    "cutoff_s": 5.0,
                    "variants": variants,
                    "seeds": seeds,
                    "m": 5,
                    "max_blocks": 2,
                }
            ]
        )
    )
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().err == ""
    assert reads == [(graph_path,)]
    rows = [ln.split(",") for ln in csv_path.read_text().strip().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["g", v] for v in variants]
    for row, variant in zip(rows, variants):
        sizes = [
            run(
                real_read(graph_path),
                RunConfig(variant=variant, seed=seed, m=5, max_blocks=2),
            ).stats["best_size"]
            for seed in seeds
        ]
        assert row[2:5] == [
            str(len(seeds)),
            str(max(sizes)),
            f"{sum(sizes) / len(sizes):.2f}",
        ]


def test_bench_read_failure_fills_every_row_of_its_entry(tmp_path, capsys):
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    broken = tmp_path / "broken.graph"
    broken.write_text("garbage\n")
    with pytest.raises(ValueError) as excinfo:
        read_graph(str(broken))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "instance_path": str(broken),
                    "cutoff_s": 1.0,
                    "variants": ["arir2", "arw"],
                    "seeds": [1, 2],
                },
                {
                    "instance_path": c5,
                    "cutoff_s": 1.0,
                    "variants": ["arir2"],
                    "seeds": [1],
                    "m": 10,
                    "max_blocks": 2,
                },
            ]
        )
    )
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().err == "".join(
        f"error: broken/{variant}: {excinfo.value}\n" for variant in ("arir2", "arw")
    )
    lines = csv_path.read_text().strip().splitlines()
    assert lines[1:3] == ["broken,arir2,0,,,", "broken,arw,0,,,"]
    assert lines[3].startswith("c5,arir2,1,2,2.00,")


def test_bench_bad_settings_rejected_before_any_read(tmp_path, monkeypatch, capsys):
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "instance_path": c5,
                    "cutoff_s": 1.0,
                    "variants": ["arir2"],
                    "seeds": [1],
                    "max_blocks": 1,
                },
                {
                    "instance_path": c5,
                    "cutoff_s": 1.0,
                    "variants": ["arir2", "arirX"],
                    "seeds": [1],
                    "m": 0,
                },
            ]
        )
    )
    reads = []
    monkeypatch.setattr(arir.bench, "read_graph", lambda *a, **k: reads.append(a))
    csv_path = tmp_path / "o.csv"
    rc = main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "entry 1" in err and "m must be >= 1" in err
    assert reads == [] and not csv_path.exists()
    # With m fixed, the unknown variant is the entry's fault.
    entries = json.loads(manifest.read_text())
    entries[1]["m"] = 10
    manifest.write_text(json.dumps(entries))
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert "entry 1" in err and "arirX" in err
    assert reads == []


def test_bench_seeds_must_be_a_list_of_ints(tmp_path, capsys):
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    manifest = tmp_path / "manifest.json"
    for seeds in (3, [1, "2"], [1.0]):
        manifest.write_text(
            json.dumps(
                [
                    {
                        "instance_path": c5,
                        "cutoff_s": 1.0,
                        "variants": ["arir2"],
                        "seeds": seeds,
                    }
                ]
            )
        )
        rc = main(["bench", "--manifest", str(manifest), "--csv", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "entry 0" in err and "seeds must be a non-empty list of ints" in err


def test_unreadable_input_exits_2(tmp_path, capsys):
    # Bytes that are not UTF-8 are an input error for every command, and for
    # verify never a verdict.
    junk = tmp_path / "junk.graph"
    junk.write_bytes(b"\xff\xfe\x00garbage\n")
    p3 = metis_file(tmp_path, path(3), "p3.graph")
    good = str(tmp_path / "good.sol")
    write_solution({0, 2}, good)
    for argv in (
        ["solve", "--input", str(junk)],
        ["kernelize", "--input", str(junk)],
        ["oracle", "--input", str(junk)],
        ["verify", str(junk), good],
        ["verify", p3, str(junk)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def test_unreadable_input_error_names_the_file(tmp_path, capsys):
    # With two inputs, the message says which one is not UTF-8.
    p3 = metis_file(tmp_path, path(3), "p3.graph")
    good = str(tmp_path / "good.sol")
    write_solution({0, 2}, good)
    for name in ("junk.graph", "junk.sol", "junk.edges", "junk.json"):
        junk = tmp_path / name
        junk.write_bytes(b"0 1\n\xff\xfe\x00garbage\n")
    for argv, bad in (
        (["verify", p3, str(tmp_path / "junk.sol")], "junk.sol"),
        (["verify", str(tmp_path / "junk.graph"), good], "junk.graph"),
        (["solve", "--input", str(tmp_path / "junk.edges")], "junk.edges"),
        (["bench", "--manifest", str(tmp_path / "junk.json"), "--csv", good],
         "junk.json"),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / bad}: not UTF-8 text"), err


def test_bench_bad_read_options_and_fractional_counts_rejected(tmp_path, capsys):
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    manifest = tmp_path / "manifest.json"
    csv_path = tmp_path / "o.csv"
    for key, value, message in (
        ("format", "mtx", "unknown graph format"),
        ("index_base", "2", "invalid index base"),
        ("m", 10.5, "m must be an int"),
        ("n", 20.0, "n must be an int"),
        ("max_blocks", 1.5, "max_blocks must be an int"),
        ("cutoff_s", True, "cutoff"),
        ("cutoff_s", "60", "cutoff"),
    ):
        entry = {
            "instance_path": c5,
            "cutoff_s": 1.0,
            "variants": ["arir2"],
            "seeds": [1],
            key: value,
        }
        manifest.write_text(json.dumps([entry]))
        assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert "entry 0" in err and message in err, (key, err)
        assert not csv_path.exists()


def test_broken_pipe_is_quiet(tmp_path):
    # stdout is a pipe whose reader is already gone, as when `| head -n 1`
    # exits before the witness line: no traceback, and the status README names.
    graph_path = metis_file(tmp_path, cycle(4), "c4.graph")
    src = str(Path(arir.cli.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from arir.cli import main; "
             "sys.exit(main())", "oracle", "--input", graph_path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 141


@pytest.mark.parametrize(
    "flag", ["--emit-solution", "--kernel-out", "--log-out", "--csv"]
)
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, flag):
    graph_path = metis_file(tmp_path, path(3), "p3.graph")
    target = str(tmp_path / "missing" / "out")
    # The outputs are checked before the solve, grid or kernelization starts.
    started = []
    for name in ("run", "run_bench", "kernelize"):
        monkeypatch.setattr(arir.cli, name, lambda *a, name=name, **k: started.append(name))
    if flag == "--emit-solution":
        argv = ["solve", "--input", graph_path, "--max-blocks", "1"]
    elif flag == "--csv":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [{"instance_path": graph_path, "cutoff_s": 5.0, "variants": ["arir2"],
                  "seeds": [1], "max_blocks": 1}]
            )
        )
        argv = ["bench", "--manifest", str(manifest)]
    else:
        argv = ["kernelize", "--input", graph_path]
    before = sorted(os.listdir(tmp_path))
    assert main(argv + [flag, target]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {target}: No such file or directory\n"
    assert captured.out == ""
    assert started == []
    # No file is left behind: with --log-out, not the kernel either.
    assert sorted(os.listdir(tmp_path)) == before
    if flag == "--log-out":
        assert not (tmp_path / "p3.kernel.graph").exists()
        # The check appends, so an output that exists keeps its content.
        kept = tmp_path / "kept.graph"
        kept.write_text("keep\n")
        assert main(argv + ["--kernel-out", str(kept), flag, target]) == 2
        assert kept.read_text() == "keep\n" and started == []


def test_bench_manifest_not_json_names_the_file(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[{\"instance_path\": ")
    csv_path = tmp_path / "o.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: not JSON ("), err
    assert not csv_path.exists()


@pytest.mark.parametrize("entry", ["cutoff_s", 5, None, ["cutoff_s"]])
def test_bench_entry_that_is_not_an_object_rejected(tmp_path, capsys, entry):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([entry]))
    csv_path = tmp_path / "o.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {manifest}: entry 0: not a JSON object: {json.dumps(entry)}\n"
    assert not csv_path.exists()


def _merging_manifest(tmp_path, case):
    """A manifest whose two (entry, variant) pairs would share one row label,
    and the indices of the entry that is rejected and of the entry it merges
    with."""
    base = {"cutoff_s": 5.0, "seeds": [1, 2], "max_blocks": 1}
    if case == "same_stem":
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        pet = metis_file(tmp_path, petersen(), "a/g.graph")
        c5b = metis_file(tmp_path, cycle(5), "b/g.graph")
        entries = [
            {**base, "instance_path": pet, "variants": ["arir2"]},
            {**base, "instance_path": c5b, "variants": ["arir2"]},
        ]
        return entries, 1, 0
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    if case == "shared_variant":
        entries = [
            {**base, "instance_path": c5, "variants": ["arir1", "arir2"],
             "max_blocks": 0},
            {**base, "instance_path": c5, "variants": ["arir2"], "max_blocks": 5},
        ]
        return entries, 1, 0
    entries = [
        {**base, "instance_path": c5, "variants": ["arir1"]},
        {**base, "instance_path": c5, "variants": ["arir2", "arir3", "arir2"]},
    ]
    return entries, 1, 1


@pytest.mark.parametrize("case", ["same_stem", "shared_variant", "variant_twice"])
def test_bench_rows_that_would_merge_rejected(tmp_path, monkeypatch, capsys, case):
    entries, later, earlier = _merging_manifest(tmp_path, case)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    reads = []
    monkeypatch.setattr(arir.bench, "read_graph", lambda *a, **k: reads.append(a))
    csv_path = tmp_path / "o.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"entry {later}: " in err and f"merge with entry {earlier}'s" in err, err
    assert reads == [] and not csv_path.exists()


def test_bench_failing_seed_makes_only_its_row_an_error_row(tmp_path, monkeypatch, capsys):
    c5 = metis_file(tmp_path, cycle(5), "c5.graph")
    pet = metis_file(tmp_path, petersen(), "petersen.graph")
    real_run = arir.bench.run

    def run_failing_seed_2(graph, config):
        if config.seed == 2:
            raise RuntimeError("seed 2 failed")
        return real_run(graph, config)

    monkeypatch.setattr(arir.bench, "run", run_failing_seed_2)
    base = {"cutoff_s": 5.0, "variants": ["arir2"], "m": 100, "max_blocks": 2}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {**base, "instance_path": c5, "seeds": [1, 2, 3]},
                {**base, "instance_path": pet, "seeds": [1, 3]},
            ]
        )
    )
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().err == "error: c5/arir2: seed 2 failed\n"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[1] == "c5,arir2,0,,,"
    assert lines[2].startswith("petersen,arir2,2,4,4.00,")
    # The rows themselves: formatted cells plus the error, one row per pair.
    rows = arir.bench.run_bench(arir.bench.load_manifest(str(manifest)))
    assert rows[0] == {
        "instance": "c5",
        "variant": "arir2",
        "runs": 0,
        "max": "",
        "avg": "",
        "avg_time_to_best_s": "",
        "error": "seed 2 failed",
    }
    assert rows[1]["error"] is None and rows[1]["runs"] == 2


def test_solve_infinite_time_limit_exits_2(tmp_path, capsys):
    # A run without max_blocks ends only at its cutoff, so inf never returns.
    graph_path = metis_file(tmp_path, path(3), "p3.graph")
    for limit in ("inf", "nan"):
        assert main(["solve", "--input", graph_path, "--time-limit", limit]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cutoff must be finite and positive")
        assert captured.out == ""


def test_bench_infinite_cutoff_rejected_naming_its_entry(tmp_path, monkeypatch, capsys):
    graph_path = metis_file(tmp_path, path(3), "p3.graph")
    manifest = tmp_path / "manifest.json"
    entry = {"instance_path": graph_path, "variants": ["arir2"], "seeds": [1]}
    text = json.dumps([{**entry, "cutoff_s": 5}, {**entry, "cutoff_s": "big"}])
    # 1e999 is valid JSON and loads as inf.
    manifest.write_text(text.replace('"big"', "1e999"))
    started = []
    monkeypatch.setattr(arir.cli, "run_bench", lambda *a, **k: started.append(1))
    csv_path = tmp_path / "o.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {manifest}: entry 1: cutoff must be finite and positive, got inf\n"
    assert started == [] and not csv_path.exists()


@pytest.mark.parametrize(
    "case", ["solve-input", "kernel-input", "kernel-log", "csv-manifest", "csv-instance"]
)
def test_output_on_an_input_or_another_output_exits_2(tmp_path, monkeypatch, capsys, case):
    graph_path = metis_file(tmp_path, cycle(5), "c5.graph")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [{"instance_path": graph_path, "cutoff_s": 5.0, "variants": ["arir2"],
              "seeds": [1], "max_blocks": 1}]
        )
    )
    # The same file under another spelling of its path.
    alias = str(tmp_path / "sub" / ".." / "c5.graph")
    (tmp_path / "sub").mkdir()
    started = []
    for name in ("run", "run_bench", "kernelize", "read_graph"):
        monkeypatch.setattr(arir.cli, name, lambda *a, name=name, **k: started.append(name))
    argv, clash = {
        "solve-input": (["solve", "--input", graph_path, "--emit-solution", alias], alias),
        "kernel-input": (["kernelize", "--input", graph_path, "--kernel-out", alias], alias),
        "kernel-log": (
            ["kernelize", "--input", graph_path, "--kernel-out", "out.x", "--log-out", "out.x"],
            "out.x",
        ),
        "csv-manifest": (["bench", "--manifest", str(manifest), "--csv", str(manifest)],
                         str(manifest)),
        "csv-instance": (["bench", "--manifest", str(manifest), "--csv", alias], alias),
    }[case]
    monkeypatch.chdir(tmp_path)
    inputs = {p: p.read_bytes() for p in (Path(graph_path), manifest)}
    before = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {clash}: output is the same file as ")
    assert captured.out == ""
    assert started == []
    assert sorted(os.listdir(tmp_path)) == before
    assert all(p.read_bytes() == data for p, data in inputs.items())


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("comments.graph", "% only\n% comments\n", "{path}: empty metis file"),
        ("weighted.graph", "3 2 1\n2\n1 3\n2\n", "{path}: weighted metis format 1 unsupported"),
        ("negative.graph", "-3 0\n", "{path}: negative vertex count -3"),
        ("negative.edges", "-1 2\n", "{path} line 1: negative id"),
        ("comments.edges", "# only\n% comments\n", "{path}: empty graph undefined"),
    ],
)
def test_unreadable_graph_exits_2_naming_the_fault(tmp_path, capsys, name, text, message):
    target = tmp_path / name
    target.write_text(text)
    assert main(["oracle", "--input", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(path=target)}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "change, message",
    [
        (None, "manifest must be a JSON list"),
        ("cutoff_s", "entry 0: missing required key 'cutoff_s'"),
        ({"variants": []}, "entry 0: variants must be a non-empty list"),
        ({"instance_path": "gone.graph"}, "entry 0: instance gone.graph not found"),
    ],
)
def test_bad_manifest_exits_2_naming_the_fault(tmp_path, monkeypatch, capsys, change, message):
    graph_path = metis_file(tmp_path, path(3), "p3.graph")
    entry = {"instance_path": graph_path, "cutoff_s": 5.0, "variants": ["arir2"],
             "seeds": [1], "max_blocks": 1}
    if change is None:
        raw = {}
    elif isinstance(change, str):
        del entry[change]
        raw = [entry]
    else:
        raw = [{**entry, **change}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(raw))
    started = []
    monkeypatch.setattr(arir.cli, "run_bench", lambda *a, **k: started.append(1))
    monkeypatch.chdir(tmp_path)
    csv_path = tmp_path / "o.csv"
    assert main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {manifest}: {message}\n"
    assert captured.out == "" and started == [] and not csv_path.exists()
