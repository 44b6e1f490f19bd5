"""Benchmark harness: run (instance x variant x seed) grids from a JSON
manifest and aggregate best/average solution sizes per configuration. The
grid runs in one process and reads each entry's instance once."""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import dataclass, replace

from .io import check_read_options, open_text, read_graph
from .solver import RunConfig, run

log = logging.getLogger("arir")

CSV_COLUMNS = ("instance", "variant", "runs", "max", "avg", "avg_time_to_best_s")


@dataclass(slots=True)
class BenchEntry:
    """One manifest entry. config carries the entry's run settings; each
    run sets its own variant and seed on a copy."""

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


def run_bench(entries: list[BenchEntry]) -> list[dict]:
    """Execute the whole grid and aggregate each entry's runs per variant.
    An entry's instance is read at its first run, and every later run of the
    entry solves that graph: run never writes to it.

    Each (entry, variant) gives one row: a dict of its formatted CSV cells
    plus "error", None unless a seed failed. A failing seed makes its row an
    error row (runs 0, empty size and time cells); other rows continue. A
    read that fails fails each run of its entry, which tries the read again.
    Rows come back sorted by instance name then variant.
    """
    rows = []
    for entry in entries:
        name = _instance_name(entry.instance_path)
        graph = None
        for variant in entry.variants:
            row = dict.fromkeys(CSV_COLUMNS, "")
            row.update(instance=name, variant=variant, runs=0, error=None)
            sizes, times = [], []
            for seed in entry.seeds:
                try:
                    if graph is None:
                        graph = read_graph(
                            entry.instance_path,
                            fmt=entry.format,
                            index_base=entry.index_base,
                        )
                    config = replace(entry.config, variant=variant, seed=seed)
                    stats = run(graph, config).stats
                except Exception as exc:  # noqa: BLE001 - reported as an error row
                    log.error("%s/%s seed %d failed: %s", name, variant, seed, exc)
                    row["error"] = str(exc)
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
