"""Benchmark harness: run (instance x variant x seed) grids from a JSON
manifest and aggregate best/average solution sizes per configuration."""

from __future__ import annotations

import csv
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .io import check_read_options, open_text, read_graph
from .solver import RunConfig, run

log = logging.getLogger("arir")

CSV_COLUMNS = ("instance", "variant", "runs", "max", "avg", "avg_time_to_best_s")


@dataclass(slots=True)
class BenchEntry:
    """One manifest entry. config carries the entry's run settings; each
    task sets its own variant and seed on a copy."""

    instance_path: str
    variants: list[str]
    seeds: list[int]
    config: RunConfig
    format: str = "auto"
    index_base: str = "auto"


# Optional manifest keys that set the RunConfig field of the same name; an
# absent key keeps RunConfig's default. The required cutoff_s sets cutoff_seconds.
_CONFIG_KEYS = ("m", "n", "max_blocks")


@dataclass(slots=True)
class BenchRow:
    instance: str
    variant: str
    runs: int
    max_size: int | None = None
    avg_size: float | None = None
    avg_time_to_best: float | None = None
    error: str | None = None


def load_manifest(path: str) -> list[BenchEntry]:
    """Parse and validate a manifest: a JSON list of entry objects. Every
    entry's run settings (for each of its variants) and read options are
    checked, so a bad entry fails here, before any graph is read."""
    with open_text(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(raw, list):
        raise ValueError(f"{path}: manifest must be a JSON list")
    entries = []
    for i, item in enumerate(raw):
        try:
            if "cutoff_s" not in item:
                raise TypeError("missing required key 'cutoff_s'")
            settings = {k: item.pop(k) for k in _CONFIG_KEYS if k in item}
            config = RunConfig(cutoff_seconds=item.pop("cutoff_s"), **settings)
            entry = BenchEntry(config=config, **item)
            seeds, variants = entry.seeds, entry.variants
            if not (isinstance(seeds, list) and seeds) or any(
                type(seed) is not int for seed in seeds
            ):
                raise ValueError("seeds must be a non-empty list of ints")
            if not (isinstance(variants, list) and variants):
                raise ValueError("variants must be a non-empty list")
            for variant in variants:
                replace(config, variant=variant)  # raises on an unknown variant
            check_read_options(entry.format, entry.index_base)
            if not os.path.exists(entry.instance_path):
                raise ValueError(f"instance {entry.instance_path} not found")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: entry {i}: {exc}") from None
        entries.append(entry)
    return entries


def _bench_task(
    task: tuple[BenchEntry, RunConfig],
) -> tuple[str, RunConfig, dict | None, str | None]:
    entry, config = task
    name = os.path.splitext(os.path.basename(entry.instance_path))[0]
    try:
        graph = read_graph(
            entry.instance_path, fmt=entry.format, index_base=entry.index_base
        )
        return (name, config, run(graph, config).stats, None)
    except Exception as exc:  # noqa: BLE001 - reported as an error row
        return (name, config, None, str(exc))


def run_bench(entries: list[BenchEntry], jobs: int = 1) -> list[BenchRow]:
    """Execute the whole grid and aggregate per (instance, variant).

    A failing instance yields error rows for its variants; other instances
    continue. Rows come back sorted by instance name then variant.
    """
    tasks = [
        (entry, replace(entry.config, variant=variant, seed=seed))
        for entry in entries
        for variant in entry.variants
        for seed in entry.seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_bench_task, tasks))
    else:
        outcomes = [_bench_task(t) for t in tasks]

    grouped: dict[tuple[str, str], list] = {}
    failures: dict[tuple[str, str], str] = {}
    for name, config, stats, error in outcomes:
        key = (name, config.variant)
        if error is not None:
            failures[key] = error
            log.error(
                "%s/%s seed %d failed: %s", name, config.variant, config.seed, error
            )
            continue
        grouped.setdefault(key, []).append(stats)

    rows = []
    for key in sorted(set(grouped) | set(failures)):
        name, variant = key
        if key in failures:
            rows.append(BenchRow(name, variant, runs=0, error=failures[key]))
            continue
        stats = grouped[key]
        sizes = [s["best_size"] for s in stats]
        times = [s["time_to_best_s"] for s in stats]
        rows.append(
            BenchRow(
                instance=name,
                variant=variant,
                runs=len(sizes),
                max_size=max(sizes),
                avg_size=sum(sizes) / len(sizes),
                avg_time_to_best=sum(times) / len(times),
            )
        )
    return rows


def write_csv(rows: list[BenchRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.instance,
                    row.variant,
                    row.runs,
                    "" if row.max_size is None else row.max_size,
                    "" if row.avg_size is None else f"{row.avg_size:.2f}",
                    ""
                    if row.avg_time_to_best is None
                    else f"{row.avg_time_to_best:.3f}",
                ]
            )
