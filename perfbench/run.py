"""sclab benchmark: seeded scenario workloads timed end to end.

Each unit is one ``cli.parse_config`` -> ``cli.run_scenario`` call with one
replicate, the path a user of ``sclab run`` takes. Units run as a closed
loop: one caller in one process, each unit starting when the previous one
ends, for about ``--seconds`` (at least three units). BLAS and OpenMP
threads are pinned to the number of CPUs this process may use. Unit ``k``
gets ``base_seed`` derived from the workload seed and ``k``; the program sees
only the generated config.

    python3 perfbench/run.py --workload kde_balanced --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # every workload, one table

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced units and prints the per-layer metrics from the spans
(see ``spans.py``). Every unit's output is checked (see ``check.py``); when
the workload seed is not the one the references were taken with, one extra
untimed unit runs on the reference inputs after the timed phase. The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when any unit fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from check import invariant_failures, read_results, reference_failures, reference_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = tuple(sorted(p.stem for p in (HERE / "workloads").glob("*.ini")))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

DEFAULT_SEED = 1  # the seed the stored references were taken with
SETUP_PROBES = 3  # fresh processes whose median set-up time is reported
MIN_UNITS = 3
E2E_UNITS = {"setup_s": "s", "unit_s_p50": "s", "units_per_s": "1/s", "peak_rss_mb": "MB"}


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to this process's CPU count; call before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def unit_seed(workload: str, seed: int, k: int) -> int:
    digest = hashlib.blake2b(f"{workload}/{seed}/{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class Unit:
    seed: int  # workload seed
    k: int
    base_seed: int
    traced: bool
    wall: float | None = None  # None when the unit raised
    failures: list[str] = field(default_factory=list)


class Bench:
    """Set-up state for one workload: imports, workload config, output directory."""

    def __init__(self, workload: str, seed: int, with_references: bool = True):
        from sclab import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.text = (HERE / "workloads" / f"{workload}.ini").read_text(encoding="utf-8")
        self.out_dir = OUT / f"{workload}-{os.getpid()}"
        # validate the workload config once, as the CLI does before any work
        cli.parse_config(self.text, overrides=self._overrides(unit_seed(workload, seed, 0)))
        self.references = []
        if with_references:
            ref_path = HERE / "references" / f"{workload}.json"
            self.references = json.loads(ref_path.read_text(encoding="utf-8"))["units"]

    def _overrides(self, base_seed: int) -> dict:
        return {"base_seed": base_seed, "out_dir": str(self.out_dir)}

    def reference(self, seed: int, k: int):
        return self.references[k] if seed == DEFAULT_SEED and k < len(self.references) else None

    def attempt(self, k: int, seed: int, tracer=None) -> Unit:
        unit = Unit(seed, k, unit_seed(self.workload, seed, k), traced=tracer is not None)
        gc.collect()
        try:
            if tracer is None:
                unit.wall, cfg = self._run(unit.base_seed)
            else:
                with tracer.traced(k):
                    unit.wall, cfg = self._run(unit.base_seed)
            rows = read_results(self.out_dir)
            unit.failures = invariant_failures(cfg, rows)
            reference = self.reference(seed, k)
            if reference is not None:
                unit.failures += reference_failures(cfg, rows, reference)
        except Exception as exc:  # noqa: BLE001 - a failing unit is counted, not fatal
            traceback.print_exc()
            unit.wall = None
            unit.failures = [f"raised {type(exc).__name__}: {exc}"]
        return unit

    def _run(self, base_seed: int):
        t0 = time.perf_counter()
        cfg = self.cli.parse_config(self.text, overrides=self._overrides(base_seed))
        self.cli.run_scenario(cfg)
        return time.perf_counter() - t0, cfg

    def closed_loop(self, seconds: float, tracer=None) -> tuple[list[Unit], float]:
        """Run units back to back for about ``seconds``; with a tracer, every
        second unit is traced.

        No unit starts that would likely end more than half a unit past the
        deadline, so a run measures close to ``seconds`` whatever a unit costs.
        """
        units: list[Unit] = []
        start = time.perf_counter()
        while True:
            k = len(units)
            units.append(self.attempt(k, self.seed, tracer if tracer and k % 2 else None))
            elapsed = time.perf_counter() - start
            walls = [u.wall for u in units if u.wall is not None]
            typical = statistics.median(walls) if walls else 0.0
            if elapsed + 0.5 * typical >= seconds and len(units) >= MIN_UNITS:
                return units, elapsed

    def check_reference(self) -> list[Unit]:
        """One untimed unit on the reference inputs, unless the timed units had them."""
        return [] if self.seed == DEFAULT_SEED else [self.attempt(0, DEFAULT_SEED)]


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of process start to the first unit's start."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def metric_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last.startswith("bytes"):
        return "B"
    return {"macs": "MAC", "repeat_frac": "ratio", "tv_tol_max": "TV"}.get(last, "count")


def report_failures(units: list[Unit], workload: str) -> None:
    for u in units:
        for msg in u.failures:
            print(f"FAIL {workload} seed {u.seed} unit {u.k} (base_seed {u.base_seed}): {msg}")


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Unit]]:
    setup_s = measure_setup(bench.workload, bench.seed)
    units, elapsed = bench.closed_loop(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [u.wall for u in units if u.wall is not None and not u.failures]
    units += bench.check_reference()
    failed = sum(bool(u.failures) for u in units)
    print(f"{bench.workload}: seed {bench.seed}, {len(walls)} timed units in {elapsed:.2f} s, "
          f"{os.environ['OMP_NUM_THREADS']} BLAS threads")
    if not walls:
        return {}, units
    values = {
        "setup_s": setup_s,
        "unit_s_p50": statistics.median(walls),
        "units_per_s": len(walls) / elapsed,
        "peak_rss_mb": peak_rss_mb,
    }
    print("  unit walls   " + " ".join(f"{w:.3f}" for w in walls) + " s")
    for name, value in values.items():
        print(f"  {name:<12} {value:12.6g} {E2E_UNITS[name]}")
    print(f"  {'error_rate':<12} {failed / len(units):12.6g} ratio "
          f"({failed} of {len(units)} units failed)")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, units


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[Unit]]:
    import spans

    tracer = spans.Tracer()
    units, _ = bench.closed_loop(seconds, tracer)
    ok = [u for u in units if u.wall is not None and not u.failures]
    traced = [u for u in ok if u.traced]
    untraced = [u for u in ok if not u.traced]
    units += bench.check_reference()
    if not traced or not untraced:
        return {}, units
    overhead = statistics.median(u.wall for u in traced) - statistics.median(u.wall for u in untraced)
    values = spans.median_metrics([spans.unit_metrics(tracer.spans, u.k) for u in traced])
    values["trace.overhead_s"] = overhead
    coverage = spans.coverage_failures(
        bench.workload, tracer.spans, {u.k: u.wall for u in traced}, overhead, tracer.missing
    )
    values["trace.coverage_failures"] = len(coverage)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{bench.workload}-seed{bench.seed}.jsonl")

    print(f"{bench.workload}: seed {bench.seed}, {len(traced)} traced and "
          f"{len(untraced)} untraced units; tracing overhead {overhead:+.4f} s per unit")
    top = spans.median_metrics([spans.self_times(tracer.spans, u.k) for u in traced])
    for name, s in sorted(top.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  self {name:<28} {s:10.4f} s")
    for name, value in values.items():
        print(f"  {name:<40} {value:14.6g} {metric_unit(name)}")
    for msg in coverage:
        print(f"COVERAGE {bench.workload}: {msg}")
    return {k: {"value": v, "unit": metric_unit(k)} for k, v in values.items()}, units


def run_workload(args) -> int:
    pin_threads()
    bench = Bench(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    try:
        if args.trace:
            metrics, units = per_layer(bench, args.seconds)
        else:
            metrics, units = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(bench.out_dir, ignore_errors=True)
    report_failures(units, args.workload)
    failed = sum(bool(u.failures) for u in units)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(units), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAIL {workload}: no result (exit code {proc.returncode})")
            total["correct"] = False
            continue
        total["correct"] &= result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def record_references(args) -> int:
    """Store the outputs of the first ``count`` units on the default seed."""
    pin_threads()
    bench = Bench(args.workload, DEFAULT_SEED, with_references=False)
    stored = []
    try:
        for k in range(args.record_references):
            base_seed = unit_seed(args.workload, DEFAULT_SEED, k)
            _, cfg = bench._run(base_seed)
            rows = read_results(bench.out_dir)
            failures = invariant_failures(cfg, rows)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            stored.append(reference_rows(cfg, rows))
    finally:
        shutil.rmtree(bench.out_dir, ignore_errors=True)
    path = HERE / "references" / f"{args.workload}.json"
    units = ",\n".join("  " + json.dumps(rows) for rows in stored)
    path.write_text(f'{{"workload": "{args.workload}", "seed": {DEFAULT_SEED}, "units": [\n'
                    f"{units}\n]}}\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-references", type=int, metavar="UNITS",
                        help="store the outputs of the first UNITS units on the default seed")
    args = parser.parse_args(argv)
    if args.record_references:
        return record_references(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
