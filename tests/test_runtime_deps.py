"""NumPy is the only runtime dependency: every front end runs with SciPy blocked.

Each case runs in a fresh interpreter that sets ``sys.modules["scipy"] = None``
before ``sclab`` is imported, so any SciPy import raises at once.
"""

import subprocess
import sys

import pytest

BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"

KDE_LOOP = """
[run]
scenario = balanced
base_seed = 3

[target]
kind = gauss1d

[schedule]
kind = balanced
max_generation = 2

[loop]
generator = kde
sample_sizes = constant:128
eval_nodes = 1024
"""

DIFFUSION_LOOP = """
[run]
scenario = diffusion_1d
base_seed = 3

[target]
kind = gauss1d

[schedule]
kind = full_synthetic
max_generation = 1

[loop]
generator = diffusion
sample_sizes = constant:64
eval_samples = 200

[diffusion]
reverse_steps = 10
"""

PHASE = """
[run]
scenario = phase_transition
base_seed = 1

[phase]
i_values = 1, 7, 600000
lambda_steps = 5
"""

BOUNDS_REPORT = """
[run]
scenario = bounds_report
base_seed = 1

[schedule]
kind = balanced
max_generation = 3

[bounds]
family = kde
n = balanced:2.0
s = 2
"""


def _python(code: str, *args: str, block: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", (BLOCK_SCIPY if block else "import sys\n") + code, *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _cli(*args: str) -> subprocess.CompletedProcess:
    return _python("from sclab.cli import main; sys.exit(main(sys.argv[1:]))", *args)


@pytest.mark.parametrize("block", [True, False], ids=["blocked", "installed"])
def test_cli_import_loads_no_scipy(block):
    proc = _python("import sclab.cli; print(sys.modules.get('scipy'))", block=block)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"


@pytest.mark.parametrize(
    "config, outputs",
    [
        (KDE_LOOP, ("results.csv", "bounds.csv")),
        (DIFFUSION_LOOP, ("results.csv", "bounds.csv")),
        (PHASE, ("phase.csv",)),
        (BOUNDS_REPORT, ("bounds.csv",)),
    ],
    ids=["kde_loop", "diffusion_loop", "phase_transition", "bounds_report"],
)
def test_run_without_scipy(tmp_path, config, outputs):
    path = tmp_path / "cfg.ini"
    path.write_text(config)
    out = tmp_path / "out"
    proc = _cli("run", "--config", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for name in (*outputs, "manifest.ini"):
        assert (out / name).exists()


def test_bounds_without_scipy(tmp_path):
    proc = _cli("bounds", "--schedule", "balanced", "--i", "3", "--family", "flow",
                "--r-cap", "1.5", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "bounds.csv").read_text().splitlines()) == 1 + 4


def test_analytic_tv_without_scipy():
    proc = _python(
        "from sclab.distributions import Gauss1D, analytic_tv_gauss1d\n"
        "print(analytic_tv_gauss1d(Gauss1D(0, 1), Gauss1D(1, 2)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert 0.0 < float(proc.stdout) < 1.0
