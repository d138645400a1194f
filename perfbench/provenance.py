"""Print the benchmark's environment and workload provenance as JSON.

    python3 perfbench/provenance.py > perfbench/provenance.json

Records the CPU count and cache sizes (read from sysfs), the Python, numpy
and scipy versions, the pinned BLAS/OpenMP thread count, the workload seed
the references were taken with, and each workload's full input config with
the reason it was chosen.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import run


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def cache_sizes() -> dict[str, str]:
    """Unified cache sizes by level, from the first CPU's sysfs entries."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified":
            sizes[f"L{level}"] = size
    return sizes


def main() -> int:
    threads = run.pin_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy
    import scipy

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "thread_variables": list(run.THREAD_VARS),
        "workload_seed": run.DEFAULT_SEED,
        "setup_probes": run.SETUP_PROBES,
        "min_units": run.MIN_UNITS,
        "run_seconds": spec["run_seconds"],
        "workloads": {
            name: {
                "why": why.get(name),
                "config": (run.HERE / "workloads" / f"{name}.ini").read_text(encoding="utf-8"),
            }
            for name in run.WORKLOADS
        },
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
