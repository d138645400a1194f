"""Output check for one benchmark unit.

A unit fails if it raised, if any row breaks an invariant that holds for
every seed, or, where a reference exists for the unit's inputs, if a stored
value differs from the unit's by more than that row's own reported ``tv_tol``.

Invariants: TV in [0, 1], a positive finite tolerance, ``n_real <= n_total``,
and exactly one row per generation (loop scenarios) or per size and seed
(``kde_rate``), in order.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REFERENCE_FIELDS = ("tv_est", "tv_tol")


def read_results(out_dir: Path) -> list[dict]:
    with (out_dir / "results.csv").open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def expected_keys(cfg) -> list[str]:
    """Row identities the config asks for, in output order."""
    if cfg.scenario == "kde_rate":
        kv = cfg.values["kde_rate"]
        return [f"n={n}/r={r}" for n in kv["sizes"] for r in range(kv["seeds"])]
    gens = cfg.values["schedule_obj"].max_generation
    return [f"g={g}/r={r}" for r in range(cfg.replicates) for g in range(1, gens + 1)]


def row_key(cfg, row: dict) -> str:
    if cfg.scenario == "kde_rate":
        return f"n={row['n_total']}/r={row['replicate']}"
    return f"g={row['generation']}/r={row['replicate']}"


def invariant_failures(cfg, rows: list[dict]) -> list[str]:
    keys = [row_key(cfg, row) for row in rows]
    want = expected_keys(cfg)
    if keys != want:
        return [f"rows {keys} differ from the expected {want}"]
    failures = []
    for key, row in zip(keys, rows):
        tv, tol = float(row["tv_est"]), float(row["tv_tol"])
        if not 0.0 <= tv <= 1.0:
            failures.append(f"{key}: tv_est {tv!r} outside [0, 1]")
        if not (math.isfinite(tol) and tol > 0.0):
            failures.append(f"{key}: tv_tol {tol!r} is not a positive number")
        if not int(row["n_real"]) <= int(row["n_total"]):
            failures.append(f"{key}: n_real {row['n_real']} exceeds n_total {row['n_total']}")
    return failures


def reference_failures(cfg, rows: list[dict], reference: list[dict]) -> list[str]:
    failures = []
    by_key = {row_key(cfg, row): row for row in rows}
    for ref in reference:
        row = by_key.get(ref["key"])
        if row is None:
            failures.append(f"{ref['key']}: row missing")
            continue
        tol = float(row["tv_tol"])
        for field in REFERENCE_FIELDS:
            got, want = float(row[field]), ref[field]
            if not abs(got - want) <= tol:
                failures.append(
                    f"{ref['key']}: {field} {got!r} differs from the reference "
                    f"{want!r} by more than tv_tol {tol!r}"
                )
    return failures


def reference_rows(cfg, rows: list[dict]) -> list[dict]:
    """The stored form of one unit's outputs."""
    return [
        {"key": row_key(cfg, row), **{f: float(row[f]) for f in REFERENCE_FIELDS}}
        for row in rows
    ]
