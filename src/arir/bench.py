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


def _instance_name(path: str) -> str:
    """An instance's name in a solve record and a bench row: its file name
    without the last extension."""
    return os.path.splitext(os.path.basename(path))[0]


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
    owners: dict[tuple[str, str], int] = {}  # row label -> entry index
    for i, item in enumerate(raw):
        try:
            if not isinstance(item, dict):
                raise TypeError(f"not a JSON object: {json.dumps(item)}")
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
            # Each row holds one entry's runs of one variant, so two pairs
            # with the same label would merge into one row.
            for variant in variants:
                label = (_instance_name(entry.instance_path), variant)
                if label in owners:
                    raise ValueError(
                        f"row {label[0]}/{variant} would merge with entry "
                        f"{owners[label]}'s"
                    )
                owners[label] = i
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: entry {i}: {exc}") from None
        entries.append(entry)
    return entries


def _bench_task(task: tuple[BenchEntry, RunConfig]) -> tuple[dict | None, str | None]:
    entry, config = task
    try:
        graph = read_graph(
            entry.instance_path, fmt=entry.format, index_base=entry.index_base
        )
        return run(graph, config).stats, None
    except Exception as exc:  # noqa: BLE001 - reported as an error row
        return None, str(exc)


def run_bench(entries: list[BenchEntry], jobs: int = 1) -> list[dict]:
    """Execute the whole grid and aggregate each entry's runs per variant.

    Each (entry, variant) gives one row: a dict of its formatted CSV cells
    plus "error", None unless a seed failed. A failing seed makes its row an
    error row (runs 0, empty size and time cells); other rows continue. Rows
    come back sorted by instance name then variant.
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
    outcomes = iter(outcomes)  # in task order: entry, then variant, then seed
    rows = []
    for entry in entries:
        name = _instance_name(entry.instance_path)
        for variant in entry.variants:
            row = dict.fromkeys(CSV_COLUMNS, "")
            row.update(instance=name, variant=variant, runs=0, error=None)
            sizes, times = [], []
            for seed in entry.seeds:
                stats, error = next(outcomes)
                if error is not None:
                    log.error("%s/%s seed %d failed: %s", name, variant, seed, error)
                    row["error"] = error
                    continue
                sizes.append(stats["best_size"])
                times.append(stats["time_to_best_s"])
            if row["error"] is None:
                row.update(
                    runs=len(sizes),
                    max=max(sizes),
                    avg=f"{sum(sizes) / len(sizes):.2f}",
                    avg_time_to_best_s=f"{sum(times) / len(times):.3f}",
                )
            rows.append(row)
    rows.sort(key=lambda r: (r["instance"], r["variant"]))
    return rows


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
