import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sclab.bounds import coefficients, lambda_star
from sclab.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
    parse_config,
    run_scenario,
)
from sclab.distributions import GaussMixture1D
from sclab.mixing import MixtureSchedule

MINIMAL_KDE_RATE = """
[run]
scenario = kde_rate
base_seed = 7

[target]
kind = gauss1d

[kde_rate]
sizes = 128,256
seeds = 2
"""

LOOP_CONFIG = """
[run]
scenario = full_synthetic
out_dir = {out}
base_seed = 99
replicates = 2

[target]
kind = gauss1d
mean = 0.0
std = 1.0

[schedule]
kind = full_synthetic
max_generation = 3

[loop]
generator = kde
sample_sizes = constant:256

[kde]
kernel = gaussian
"""


SWEEP_CONFIG = """
[run]
scenario = fixed_ratio_sweep
base_seed = 5

[target]
kind = gauss1d

[loop]
generator = kde

[sweep]
n_real = 64
lambdas = 0.5, -2
max_generation = 2
"""

DIFFUSION_CONFIG = """
[run]
scenario = diffusion_1d
base_seed = 1

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

BOUNDS_CONFIG = """
[run]
scenario = bounds_report
base_seed = 1

[schedule]
kind = balanced
max_generation = 2

[bounds]
n = {n}
i = {i}
"""

PHASE_CONFIG = """
[run]
scenario = phase_transition
base_seed = 1

[phase]
i_values = 2, 0
"""

MIXTURE = "gauss_mixture1d\ncomponents = {}, 0.5:2:1"

GAUSS1D = "gauss1d\nmean = 0.0\nstd = 1.0"

GENERAL_CONFIG = LOOP_CONFIG.replace(
    "kind = full_synthetic\nmax_generation = 3", "kind = general\nmax_generation = 2\n{rows}"
)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_FILES = sorted(
    [*(ROOT / "tests" / "configs").glob("*.ini"), *(ROOT / "perfbench" / "workloads").glob("*.ini")]
)


def _scenario(kind):
    """LOOP_CONFIG run as the scenario named after schedule ``kind``."""
    return LOOP_CONFIG.replace("full_synthetic", kind)


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL_KDE_RATE)
        assert cfg.scenario == "kde_rate"
        assert cfg.replicates == 1
        assert str(cfg.out_dir) == "out"
        assert cfg.values["kde"]["kernel"] == "gaussian"

    def test_simplex_violation_names_generation(self):
        text = """
[run]
scenario = diffusion_1d
base_seed = 1

[target]
kind = gauss1d

[schedule]
kind = general
max_generation = 2
row1 = 1.0, 0.0
row2 = 1.2, 0.0, 0.0

[loop]
generator = diffusion
sample_sizes = constant:64
"""
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any("generation 2" in e for e in exc.value.errors)

    def test_multiple_errors_all_reported(self):
        text = MINIMAL_KDE_RATE.replace("sizes = 128,256", "sizes = 128\nbogus = 1")
        text = text.replace("kind = gauss1d", "kind = gauss9d")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        messages = "\n".join(exc.value.errors)
        assert "kde_rate.bogus: unknown key" in messages
        assert "target.kind" in messages
        assert len(exc.value.errors) >= 2

    def test_unknown_section_fatal(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL_KDE_RATE + "\n[extras]\nx = 1\n")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="run.scenario"):
            parse_config("[run]\nscenario = nonsense\nbase_seed = 1\n")

    def test_overrides_take_precedence(self):
        cfg = parse_config(MINIMAL_KDE_RATE, overrides={"base_seed": "42"})
        assert cfg.base_seed == 42
        assert cfg.echo["run"]["base_seed"] == "42"

    @pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_committed_configs_parse(self, path):
        # the benchmark workloads leave base_seed to their runner
        cfg = parse_config(path.read_text(), overrides={"base_seed": "1"})
        assert cfg.scenario

    def test_manifest_echoes_only_the_keys_read(self):
        kde = parse_config(LOOP_CONFIG.format(out="out")).manifest_text()
        assert "[kde]" in kde and "eval_nodes" in kde
        assert "[diffusion]" not in kde and "eval_samples" not in kde
        diffusion = parse_config(DIFFUSION_CONFIG).manifest_text()
        assert "[diffusion]" in diffusion and "eval_samples" in diffusion
        assert "[kde]" not in diffusion and "eval_nodes" not in diffusion
        assert "alpha" not in kde + diffusion and "var" not in kde + diffusion

    def test_general_rows_round_trip(self):
        text = """
[run]
scenario = diffusion_1d
base_seed = 3

[target]
kind = gauss1d

[schedule]
kind = general
max_generation = 2
row1 = 0.5, 0.5
row2 = 0.25, 0.25, 0.5

[loop]
generator = diffusion
sample_sizes = constant:64
"""
        cfg = parse_config(text)
        sched = cfg.values["schedule_obj"]
        assert sched.kind == "general"
        assert sched.weights_at(2) == (0.25, (0.25, 0.5))


class TestScenarios:
    def test_kde_rate_writes_results(self, tmp_path):
        cfg = parse_config(MINIMAL_KDE_RATE, overrides={"out_dir": str(tmp_path)})
        assert run_scenario(cfg) == EXIT_OK
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,replicate,generation,n_total,n_real,tv_est")
        assert len(lines) == 1 + 2 * 2  # two sizes, two seeds
        assert (tmp_path / "manifest.ini").exists()

    def test_loop_scenario_outputs(self, tmp_path):
        cfg = parse_config(LOOP_CONFIG.format(out=tmp_path))
        assert run_scenario(cfg) == EXIT_OK
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3  # replicates x generations
        assert (tmp_path / "bounds.csv").exists()

    def test_bounds_report_matches_coefficient_table(self, tmp_path):
        text = f"""
[run]
scenario = bounds_report
out_dir = {tmp_path}
base_seed = 1

[schedule]
kind = balanced
max_generation = 4

[bounds]
family = diffusion
n = constant:4096
d = 1
delta = 0.1
"""
        assert run_scenario(parse_config(text)) == EXIT_OK
        rows = (tmp_path / "bounds.csv").read_text().splitlines()[1:]
        table = coefficients(MixtureSchedule.balanced(4), 4).values
        for row in rows:
            _, i, k, a_k, _, _ = row.split(",")
            assert float(a_k) == pytest.approx(table[int(k)], abs=1e-12)

    def test_phase_transition_csv(self, tmp_path):
        text = f"""
[run]
scenario = phase_transition
out_dir = {tmp_path}
base_seed = 1

[phase]
i_values = 1,2,3
lambda_max = 8.0
lambda_steps = 17
"""
        assert run_scenario(parse_config(text)) == EXIT_OK
        lines = (tmp_path / "phase.csv").read_text().splitlines()
        assert lines[0] == "i,lam,f_value,lambda_star"
        stars = {}
        for line in lines[1:]:
            i, lam, f_value, star = line.split(",")
            stars[int(i)] = float(star)
            if float(lam) == 0.0:
                assert float(f_value) == 1.0
        assert stars[1] < stars[2] < stars[3]

    def test_phase_transition_large_generation(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "phase.ini"
        path.write_text(PHASE_CONFIG.replace("2, 0", "3, 600000"))
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        stars = {}
        for line in (out / "phase.csv").read_text().splitlines()[1:]:
            i, _, _, star = line.split(",")
            stars[int(i)] = float(star)
        assert set(stars) == {3, 600000}
        assert all(math.isfinite(s) for s in stars.values())

    def test_fixed_ratio_sweep_labels(self, tmp_path):
        text = f"""
[run]
scenario = fixed_ratio_sweep
out_dir = {tmp_path}
base_seed = 5
replicates = 1

[target]
kind = gauss1d

[loop]
generator = kde

[kde]
kernel = gaussian

[sweep]
n_real = 64
lambdas = 0.5, 2.0
max_generation = 2
"""
        assert run_scenario(parse_config(text)) == EXIT_OK
        body = (tmp_path / "results.csv").read_text()
        assert "fixed_ratio_sweep:lambda=0.5" in body
        assert "fixed_ratio_sweep:lambda=2" in body

    def test_mixture_target_sweep(self, tmp_path):
        text = f"""
[run]
scenario = fixed_ratio_sweep
out_dir = {tmp_path}
base_seed = 11
replicates = 2

[target]
kind = gauss_mixture1d
components = 0.5:-2:1, 0.5:2:1

[loop]
generator = kde

[sweep]
n_real = 64
lambdas = 0, 1, 4
max_generation = 2
"""
        cfg = parse_config(text)
        target = cfg.values["target_obj"]
        assert isinstance(target, GaussMixture1D)
        assert target.components == ((0.5, -2.0, 1.0), (0.5, 2.0, 1.0))
        assert run_scenario(cfg) == EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "results.csv").read_text().splitlines()[1:]]
        labels = [row[0] for row in rows]
        assert labels == [f"fixed_ratio_sweep:lambda={lam}" for lam in (0, 1, 4) for _ in range(4)]
        for label, _, _, n_total, _, tv_est, *_ in rows:
            assert int(n_total) == 64 * (1 + int(label.rpartition("=")[2]))  # n_real + m
            assert 0.0 <= float(tv_est) <= 1.0


class TestDeterminismAndManifest:
    def test_bit_identical_results(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_scenario(parse_config(LOOP_CONFIG.format(out=out_a)))
        run_scenario(parse_config(LOOP_CONFIG.format(out=out_b)))
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "bounds.csv").read_bytes() == (out_b / "bounds.csv").read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_scenario(parse_config(LOOP_CONFIG.format(out=out_a)))
        manifest = (out_a / "manifest.ini").read_text()
        cfg = parse_config(manifest, overrides={"out_dir": str(out_b)})
        run_scenario(cfg)
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    def test_kde_manifest_without_diffusion_reproduces_results(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_scenario(parse_config(LOOP_CONFIG.format(out=out_a)))
        manifest = (out_a / "manifest.ini").read_text()
        assert "[diffusion]" not in manifest
        run_scenario(parse_config(manifest, overrides={"out_dir": str(out_b)}))
        for name in ("results.csv", "bounds.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestCommandLine:
    def test_run_exit_codes(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(LOOP_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nscenario = kde_rate\n")  # missing base_seed and sections
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
        assert main(["run", "--config", str(tmp_path / "missing.ini")]) == EXIT_CONFIG

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        text = f"""
[run]
scenario = diffusion_1d
out_dir = {tmp_path / "boom"}
base_seed = 1

[target]
kind = gauss1d

[schedule]
kind = full_synthetic
max_generation = 1

[loop]
generator = diffusion
sample_sizes = constant:128
eval_samples = 1000

[diffusion]
reverse_steps = 20
lr = 1e18
"""
        path = tmp_path / "boom.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == EXIT_RUNTIME
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "runtime"
        assert record["scenario"] == "diffusion_1d"

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.ini"
        path.write_text(LOOP_CONFIG.format(out=tmp_path / "o1"))
        monkeypatch.setenv("SCLAB_SEED", "1234")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o2")]) == EXIT_OK
        manifest = (tmp_path / "o2" / "manifest.ini").read_text()
        assert "base_seed = 1234" in manifest

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.ini"
        path.write_text(LOOP_CONFIG.format(out=tmp_path / "o3"))
        monkeypatch.setenv("SCLAB_SEED", "1234")
        main(["run", "--config", str(path), "--seed", "77", "--out", str(tmp_path / "o3")])
        assert "base_seed = 77" in (tmp_path / "o3" / "manifest.ini").read_text()

    def test_bounds_subcommand(self, tmp_path):
        code = main(
            [
                "bounds",
                "--schedule",
                "fixed_ratio",
                "--i",
                "3",
                "--n",
                "400",
                "--n-real",
                "100",
                "--m-synth",
                "300",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert lines[0] == "schedule,i,k,A_k,bound_term,total_bound"
        a_col = [float(line.split(",")[3]) for line in lines[1:]]
        assert a_col == pytest.approx([0.75**3, 0.75**2, 0.75, 1.0])

    def test_kde_rate_invalid_kernel_order_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL_KDE_RATE + "\n[kde]\nkernel = gaussian\norder = 4\n")
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "config", "errors": ["kde: gaussian kernel has order 2"]}
        assert not (out / "results.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (LOOP_CONFIG.replace("constant:256", "list:100,200"),
             "loop: need 3 sample counts, got 2"),
            (SWEEP_CONFIG,
             "sweep.lambdas: lambda=-2: fixed_ratio counts must be nonnegative, not both zero"),
            (LOOP_CONFIG.replace("constant:256", "constant:256\neval_nodes = 129"),
             "loop: eval_nodes must be >= 1024"),
            # every lambda's loop refuses the same value; it is reported once
            (SWEEP_CONFIG.replace("-2", "2").replace("= kde\n", "= kde\neval_nodes = 129\n"),
             "loop: eval_nodes must be >= 1024"),
            (BOUNDS_CONFIG.format(n="constant:100", i=5),
             "bounds.i: 5 exceeds schedule.max_generation"),
            (BOUNDS_CONFIG.format(n="list:100,200", i=2), "bounds: need 3 sample counts, got 2"),
            (MINIMAL_KDE_RATE.replace("128,256", "128, 0"),
             "kde_rate.sizes: 0 is not a positive count"),
            (PHASE_CONFIG, "phase.i_values: 0 is not a positive count"),
            (LOOP_CONFIG.replace("kernel = gaussian", "kernel = higher_order_gaussian"),
             "kde: the loop cannot draw from a signed (higher-order) kernel estimate"),
            (LOOP_CONFIG.replace("mean = 0.0", "mean = nan"),
             "target.mean: 'nan' is not a finite number"),
            (LOOP_CONFIG.replace("mean = 0.0", "mean ="),
             "target.mean: could not convert string to float: ''"),
            (LOOP_CONFIG.replace("gauss1d\nmean = 0.0\nstd = 1.0", MIXTURE.format("nan:0:1")),
             "target.components: 'nan' is not a finite number"),
            (LOOP_CONFIG.replace("gauss1d\nmean = 0.0\nstd = 1.0", MIXTURE.format("0.5:inf:1")),
             "target.components: 'inf' is not a finite number"),
        ],
        ids=["list_length", "negative_lambda", "eval_nodes", "sweep_eval_nodes", "bounds_i",
             "bounds_n", "kde_rate_size", "phase_i", "signed_kernel", "target_mean_nan",
             "target_mean_empty", "mixture_weight_nan", "mixture_mean_inf"],
    )
    def test_config_error_exits_before_out_dir(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        path = tmp_path / "bad.ini"
        path.write_text(text.replace("{out}", str(out)))
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "config", "errors": [message]}
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, flags, errors",
        [
            (LOOP_CONFIG.replace(GAUSS1D, "gauss_mixture1d"), [],
             ["target.components: missing required key"]),
            (LOOP_CONFIG.replace(GAUSS1D, MIXTURE.format("0.5:2")), [],
             ["target.components: component '0.5:2' is not weight:mean:std"]),
            (LOOP_CONFIG.replace("constant:256", "quartic:0"), [],
             ["loop.sample_sizes: 0.0 must be positive"]),
            (LOOP_CONFIG.replace("constant:256", "balanced:-1"), [],
             ["loop.sample_sizes: -1.0 must be positive"]),
            (LOOP_CONFIG.replace("constant:256", "poisson:3"), [],
             ["loop.sample_sizes: 'poisson:3': expected constant:N, list:n0,n1,..., "
              "quartic:eps or balanced:eps"]),
            (LOOP_CONFIG.replace("max_generation = 3", "max_generation = 3\nrow1 = 1.0, 0.0"), [],
             ["schedule.row1: unknown key"]),
            (GENERAL_CONFIG.replace("{rows}", "row1 = 0.5, 0.5"), [],
             ["schedule.row2: missing required key"]),
            (GENERAL_CONFIG.replace("{rows}", "row1 = 0.5, x\nrow2 = 0.25, 0.25, 0.5"), [],
             ["schedule.row1: could not convert string to float: 'x'"]),
            (GENERAL_CONFIG.replace(
                "{rows}", "row1 = 0.5, 0.5\nrow2 = 0.25, 0.25, 0.5\nrow3 = 1, 0, 0, 0"), [],
             ["schedule.row3: unknown key"]),
            (LOOP_CONFIG.replace("scenario = full_synthetic", "scenario = balanced"), [],
             ["schedule.kind: scenario balanced requires kind balanced"]),
            (LOOP_CONFIG.replace("scenario = full_synthetic", "scenario = diffusion_1d"), [],
             ["loop.generator: diffusion_1d requires the diffusion generator"]),
            (LOOP_CONFIG.replace("scenario = full_synthetic", "scenario = diffusion_1d")
             .replace("generator = kde", "generator = diffusion").replace(GAUSS1D, "gauss2d")
             .replace("\n[kde]\nkernel = gaussian\n", ""), [],
             ["target: diffusion_1d needs a one-dimensional target"]),
            (BOUNDS_CONFIG.format(n="constant:100", i=2) + "family = kde\n", [],
             ["bounds.s: required for the kde family"]),
            (BOUNDS_CONFIG.format(n="constant:100", i=2) + "family = flow\n", [],
             ["bounds.r_cap: required for the flow family"]),
            ("[run\nscenario = kde_rate\n", [],
             ["syntax: File contains no section headers.\nfile: '<string>', line: 1\n'[run\\n'"]),
            (MINIMAL_KDE_RATE.replace("[run]\nscenario = kde_rate\nbase_seed = 7\n", ""), [],
             ["missing [run] section", "run.scenario: missing required key"]),
            (MINIMAL_KDE_RATE.replace("[run]\nscenario = kde_rate\nbase_seed = 7\n", ""),
             ["--seed", "7"], ["missing [run] section", "run.scenario: missing required key"]),
            (MINIMAL_KDE_RATE.replace("scenario = kde_rate\n", ""), [],
             ["run.scenario: missing required key"]),
            (LOOP_CONFIG.replace("mean = 0.0", "mean = 0.0, 1.0"), [],
             ["target.mean: could not convert string to float: '0.0, 1.0'"]),
            (LOOP_CONFIG.replace("base_seed = 99", f"base_seed = {2**64}"), [],
             ["run.base_seed: seed must fit in 64 bits"]),
            (MINIMAL_KDE_RATE.replace("sizes = 128,256", "sizes = ,"), [],
             ["kde_rate.sizes: empty list"]),
            (LOOP_CONFIG, ["--replicates", "0"], ["run.replicates: 0 is not a positive count"]),
        ],
        ids=["mixture_components", "mixture_triple", "quartic_rule", "balanced_rule", "unknown_rule",
             "rows_not_general", "row_missing", "row_bad", "row_beyond", "scenario_kind",
             "diffusion_generator", "diffusion_2d_target", "bounds_s", "bounds_r_cap",
             "syntax", "no_run_section", "no_run_section_seed_flag", "no_scenario",
             "gauss1d_two_means", "seed_2_64", "empty_count_list", "replicates_flag"],
    )
    def test_config_paths_refused(self, tmp_path, capsys, monkeypatch, text, flags, errors):
        """Each case is refused with exactly ``errors``."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SCLAB_SEED", raising=False)
        out = tmp_path / "out"
        path = tmp_path / "bad.ini"
        path.write_text(text.replace("{out}", str(out)))
        assert main(["run", "--config", str(path), *flags]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "config", "errors": errors}
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, flags, section",
        [
            ("full_synthetic", [], ""),
            ("balanced", [], ""),
            ("fixed_ratio", ["--n-real", "100", "--m-synth", "300"], "n_real = 100\nm_synth = 300"),
            ("real_each_gen", ["--alpha", "0.25"], "alpha = 0.25"),
        ],
    )
    @pytest.mark.parametrize(
        "family, option, key, value",
        [
            ("diffusion", "--kl", "kl", "0.01,0.04,0.0,0.25"),
            ("kde", "--s", "s", "3"),
            ("flow", "--r-cap", "r_cap", "1.5"),
        ],
    )
    def test_bounds_subcommand_matches_bounds_report(
        self, tmp_path, kind, flags, section, family, option, key, value
    ):
        cli_out, cfg_out = tmp_path / "cli", tmp_path / "cfg"
        code = main(
            ["bounds", "--schedule", kind, "--i", "3", "--n", "777", "--d", "2",
             "--delta", "0.2", "--family", family, option, value, *flags,
             "--out", str(cli_out)]
        )
        assert code == EXIT_OK
        text = f"""
[run]
scenario = bounds_report
out_dir = {cfg_out}
base_seed = 1

[schedule]
kind = {kind}
max_generation = 3
{section}

[bounds]
family = {family}
n = constant:777
d = 2
delta = 0.2
{key} = {value}
"""
        assert run_scenario(parse_config(text)) == EXIT_OK
        expect = (cfg_out / "bounds.csv").read_bytes()
        assert (cli_out / "bounds.csv").read_bytes() == expect
        assert len(expect.splitlines()) == 1 + 4

    @pytest.mark.parametrize(
        "text, message",
        [
            (LOOP_CONFIG + "\n[diffusion]\nreverse_steps = 20\n",
             "[diffusion]: unknown section for scenario full_synthetic"),
            (DIFFUSION_CONFIG + "\n[kde]\nkernel = gaussian\n",
             "[kde]: unknown section for scenario diffusion_1d"),
            (LOOP_CONFIG.replace("constant:256", "constant:256\neval_samples = 1000"),
             "loop.eval_samples: unknown key"),
            (DIFFUSION_CONFIG.replace("eval_samples = 200", "eval_nodes = 4096"),
             "loop.eval_nodes: unknown key"),
            (LOOP_CONFIG.replace("std = 1.0", "std = 1.0\nvar = 1.0"), "target.var: unknown key"),
            (LOOP_CONFIG.replace(GAUSS1D, "gauss2d\nstd = 1.0"), "target.std: unknown key"),
            (LOOP_CONFIG.replace(GAUSS1D, MIXTURE.format("0.5:-2:1") + "\nmean = 0.0"),
             "target.mean: unknown key"),
            (_scenario("balanced").replace("max_generation = 3", "max_generation = 3\nalpha = 0.5"),
             "schedule.alpha: unknown key"),
            (_scenario("real_each_gen").replace("max_generation = 3",
                                                "max_generation = 3\nalpha = 0.5\nn_real = 64"),
             "schedule.n_real: unknown key"),
            (SWEEP_CONFIG.replace("-2", "2")
             .replace("= kde\n", "= kde\nsample_sizes = constant:64\n"),
             "loop.sample_sizes: unknown key"),
            (GENERAL_CONFIG.replace("{rows}", "row0 = 1\nrow1 = 0.5, 0.5\nrow2 = 0.25, 0.25, 0.5"),
             "schedule.row0: unknown key"),
            (BOUNDS_CONFIG.format(n="constant:100", i=2)
             .replace("= balanced", "= fixed_ratio\nn_real = 3"),
             "schedule.m_synth: missing required key"),
        ],
        ids=["diffusion_in_kde_loop", "kde_in_diffusion_loop", "eval_samples_kde",
             "eval_nodes_diffusion", "var_gauss1d", "std_gauss2d", "mean_mixture",
             "alpha_balanced", "n_real_real_each_gen", "sample_sizes_sweep", "row_zero",
             "fixed_ratio_m_synth"],
    )
    def test_key_outside_its_variant_refused(self, tmp_path, capsys, text, message):
        """Each section is checked against the keys of its own kind and generator."""
        out = tmp_path / "out"
        path = tmp_path / "dead.ini"
        path.write_text(text.replace("{out}", str(out)))
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "config", "errors": [message]}
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, flags, message",
        [
            ("balanced", ["--n-real", "100"], "balanced schedule takes no n_real"),
            ("full_synthetic", ["--m-synth", "300"], "full_synthetic schedule takes no m_synth"),
            ("balanced", ["--alpha", "0.5"], "balanced schedule takes no alpha"),
            ("real_each_gen", ["--alpha", "0.5", "--n-real", "100"],
             "real_each_gen schedule takes no n_real"),
            ("fixed_ratio", ["--n-real", "100", "--m-synth", "300", "--alpha", "0.5"],
             "fixed_ratio schedule takes no alpha"),
        ],
        ids=["n_real_balanced", "m_synth_full_synthetic", "alpha_balanced",
             "n_real_real_each_gen", "alpha_fixed_ratio"],
    )
    def test_bounds_subcommand_rejects_flags_of_another_kind(
        self, tmp_path, capsys, kind, flags, message
    ):
        out = tmp_path / "out"
        code = main(["bounds", "--schedule", kind, "--i", "3", *flags, "--out", str(out)])
        assert code == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "config", "errors": [message]}
        assert not out.exists()

    def test_bounds_subcommand_rejects_short_count_list(self, tmp_path, capsys):
        code = main(
            ["bounds", "--schedule", "balanced", "--i", "3", "--n", "100,200",
             "--kl", "0,0", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "config", "errors": ["need 4 sample counts, got 2"]}
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "kde", "--s", "-1"], "smoothness order s must be >= 1"),
            (["--family", "kde", "--s", "0"], "smoothness order s must be >= 1"),
            (["--family", "flow", "--r-cap", "-1.5"], "norm cap R must be nonnegative and finite"),
            (["--family", "flow", "--r-cap", "nan"], "norm cap R must be nonnegative and finite"),
        ],
        ids=["s_negative", "s_zero", "r_cap_negative", "r_cap_nan"],
    )
    def test_bounds_subcommand_rejects_invalid_order_and_cap(
        self, tmp_path, capsys, flags, message
    ):
        code = main(["bounds", "--schedule", "balanced", "--i", "3", *flags,
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "config", "errors": [message]}
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize(
        "flags, keys, message",
        [
            (["--i", "0"], "i = 0", "bounds.i: 0 is not a positive count"),
            (["--i", "2", "--family", "flow", "--r-cap", "0"], "i = 2\nfamily = flow\nr_cap = 0",
             "bounds.r_cap: 0.0 must be positive"),
        ],
        ids=["i_zero", "r_cap_zero"],
    )
    def test_both_front_ends_refuse_zero(self, tmp_path, capsys, flags, keys, message):
        """``sclab bounds`` gives the [bounds] key's message without the key name."""
        cli_out, cfg_out = tmp_path / "cli", tmp_path / "cfg"
        code = main(["bounds", "--schedule", "balanced", *flags, "--out", str(cli_out)])
        assert code == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "config", "errors": [message.partition(": ")[2]]}
        assert not cli_out.exists()
        path = tmp_path / "bounds.ini"
        path.write_text(BOUNDS_CONFIG.format(n="constant:100", i=2).replace("i = 2", keys))
        assert main(["run", "--config", str(path), "--out", str(cfg_out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "config", "errors": [message]}
        assert not cfg_out.exists()

    def test_entry_point_installed(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sclab.cli", "bounds", "--schedule", "balanced",
             "--i", "2", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "bounds.csv").exists()
