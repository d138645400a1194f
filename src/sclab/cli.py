"""Command-line front end: strict INI configs, scenario runners, CSV outputs.

Configs are flat INI sections (syntax in the README). Parsing is strict:
unknown sections or keys are fatal, and every problem found is reported, not
just the first, before any output is written. Exit codes: 0 success, 2 config
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bounds, kernels, loop, mixing
from .distributions import Gauss1D, Gauss2D, GaussMixture1D, TargetDensity
from .kernels import KernelSpec
from .loop import (
    BalancedSizes,
    ConstantSizes,
    DiffusionGenerator,
    ExplicitSizes,
    KdeGenerator,
    LoopConfig,
    QuarticSizes,
)
from .mixing import MixtureSchedule
from . import diffusion as diffusion_mod

RESULT_COLUMNS = (
    "scenario",
    "replicate",
    "generation",
    "n_total",
    "n_real",
    "tv_est",
    "tv_method",
    "tv_tol",
    "bound_value",
    "kl_prior",
    "seed",
    "runtime_ms",
)

BOUND_COLUMNS = ("schedule", "i", "k", "A_k", "bound_term", "total_bound")

PHASE_COLUMNS = ("i", "lam", "f_value", "lambda_star")

SEED_ENV_VAR = "SCLAB_SEED"

_ROW_KEY = re.compile(r"row[0-9]+")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Carries every validation problem found in a config document."""

    def __init__(self, errors):
        self.errors = list(dict.fromkeys(errors))  # each distinct problem once
        super().__init__("; ".join(self.errors))


# ----------------------------------------------------------------------------
# value parsers


def _p_int(text):
    return int(text)


def _p_pos_int(text):
    v = int(text)
    if v < 1:
        raise ValueError(f"{v} is not a positive count")
    return v


def _p_float(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text!r} is not a finite number")
    return v


def _p_pos_float(text):
    v = _p_float(text)
    if not v > 0:
        raise ValueError(f"{v} must be positive")
    return v


def _p_seed(text):
    v = int(text)
    if not 0 <= v < 2**64:
        raise ValueError("seed must fit in 64 bits")
    return v


def _p_enum(*choices):
    def parse(text):
        if text not in choices:
            raise ValueError(f"{text!r} not one of {choices}")
        return text

    return parse


def _p_list(item):
    def parse(text):
        vals = [item(v.strip()) for v in text.split(",") if v.strip()]
        if not vals:
            raise ValueError("empty list")
        return tuple(vals)

    return parse


_p_int_list = _p_list(_p_pos_int)
_p_float_list = _p_list(_p_float)


def _p_components(text):
    comps = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"component {chunk.strip()!r} is not weight:mean:std")
        comps.append(tuple(_p_float(p) for p in parts))
    return tuple(comps)


def _p_size_rule(text):
    head, _, rest = text.partition(":")
    if head == "constant":
        return ConstantSizes(_p_pos_int(rest))
    if head == "list":
        return ExplicitSizes(_p_int_list(rest))
    if head == "quartic":
        return QuarticSizes(_p_pos_float(rest))
    if head == "balanced":
        return BalancedSizes(_p_pos_float(rest))
    raise ValueError(
        f"{text!r}: expected constant:N, list:n0,n1,..., quartic:eps or balanced:eps"
    )


# ----------------------------------------------------------------------------
# schema: section -> key -> (required, parser, default-as-string)

_SCHEMA = {
    "run": {
        "scenario": (True, str, None),  # parse_config has already refused unknown names
        "out_dir": (False, str, "out"),
        "base_seed": (True, _p_seed, None),
        "replicates": (False, _p_pos_int, "1"),
    },
    "target": {
        "kind": (True, _p_enum("gauss1d", "gauss_mixture1d", "gauss2d"), None),
        "mean": (False, _p_float_list, None),
        "std": (False, _p_pos_float, None),
        "components": (False, _p_components, None),
        "var": (False, _p_float_list, None),
    },
    "schedule": {
        "kind": (True, _p_enum(*mixing._KINDS), None),
        "max_generation": (True, _p_pos_int, None),
        "n_real": (False, _p_pos_int, None),
        "m_synth": (False, _p_int, None),
        "alpha": (False, _p_pos_float, None),
    },
    "loop": {
        "generator": (True, _p_enum("kde", "diffusion"), None),
        "sample_sizes": (True, _p_size_rule, None),
        "delta": (False, _p_pos_float, "0.1"),
        "eval_nodes": (False, _p_pos_int, "4096"),
        "eval_samples": (False, _p_pos_int, "100000"),
    },
    "kde": {
        "kernel": (False, _p_enum(*kernels._PROFILES), "gaussian"),
        "order": (False, _p_pos_int, None),
    },
    "diffusion": {
        "horizon": (False, _p_pos_float, "3.0"),
        "reverse_steps": (False, _p_pos_int, "500"),
        "embed_dim": (False, _p_pos_int, "8"),
        "width_factor": (False, _p_pos_float, "1.0"),
        "tau_factor": (False, _p_pos_float, "1.0"),
        "lr": (False, _p_pos_float, None),
    },
    "kde_rate": {
        "sizes": (True, _p_int_list, None),
        "seeds": (False, _p_pos_int, "10"),
    },
    "sweep": {
        "n_real": (True, _p_pos_int, None),
        "lambdas": (True, _p_float_list, None),
        "max_generation": (True, _p_pos_int, None),
    },
    "phase": {
        "i_values": (True, _p_int_list, None),
        "lambda_max": (False, _p_pos_float, "20.0"),
        "lambda_steps": (False, _p_pos_int, "201"),
    },
    "bounds": {
        "family": (False, _p_enum(*bounds.FAMILIES), "diffusion"),
        "n": (True, _p_size_rule, None),
        "d": (False, _p_pos_int, "1"),
        "delta": (False, _p_pos_float, "0.1"),
        "kl": (False, _p_float_list, "0.0"),
        "s": (False, _p_pos_int, None),
        "r_cap": (False, _p_pos_float, None),
        "i": (False, _p_pos_int, None),
    },
}


@dataclass
class ExperimentConfig:
    scenario: str
    out_dir: Path
    base_seed: int
    replicates: int
    values: dict  # parsed per-section key values and the built run plan
    echo: dict  # canonical resolved strings, for the manifest

    def manifest_text(self, comments: tuple[str, ...] = ()) -> str:
        buf = io.StringIO()
        for line in comments:
            buf.write(f"; {line}\n")
        for section, keys in self.echo.items():
            buf.write(f"[{section}]\n")
            for key, value in keys.items():
                buf.write(f"{key} = {value}\n")
            buf.write("\n")
        return buf.getvalue()


def _read_sections(text: str, errors: list[str]) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        errors.append(f"syntax: {exc}")
        return {}
    return {s: dict(parser.items(s)) for s in parser.sections()}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a config document and build its run plan, reporting every
    error it contains; ``run_scenario`` then only runs the plan.

    ``overrides`` maps [run] keys (base_seed, replicates, out_dir) to
    replacement string values before validation, which is how the CLI flags
    and the seed environment variable take precedence.
    """
    errors: list[str] = []
    sections = _read_sections(text, errors)
    if errors:
        raise ConfigError(errors)

    if "run" not in sections:
        errors.append("missing [run] section")
    run = sections.get("run", {})
    if overrides:
        run = {**run, **{k: str(v) for k, v in overrides.items()}}
        sections = {**sections, "run": run}
    scenario = run.get("scenario")
    if scenario not in SCENARIOS:
        errors.append(
            f"run.scenario: {scenario!r} not one of {tuple(SCENARIOS)}"
            if scenario
            else "run.scenario: missing required key"
        )
        raise ConfigError(errors)

    sections_read, _ = SCENARIOS[scenario]
    schema = {section: _SCHEMA[section] for section in ("run", *sections_read)}
    values: dict[str, dict] = {}
    echo: dict[str, dict[str, str]] = {}

    for section, keys in schema.items():
        present = sections.get(section, {})
        values[section] = {}
        echo[section] = {}
        for key, (required, parse, default) in keys.items():
            raw = present.get(key, default)
            if raw is None:
                if required:
                    errors.append(f"{section}.{key}: missing required key")
                continue
            try:
                values[section][key] = parse(raw)
                echo[section][key] = raw
            except (ValueError, TypeError) as exc:
                errors.append(f"{section}.{key}: {exc}")
        for key in present:
            if key in keys:
                continue
            # general schedules carry one explicit weight row per generation
            if section == "schedule" and _ROW_KEY.fullmatch(key):
                values[section].setdefault("_rows", {})[int(key[3:])] = present[key]
                echo[section][key] = present[key]
                continue
            errors.append(f"{section}.{key}: unknown key")
    for section in sections:
        if section not in schema:
            errors.append(f"[{section}]: unknown section for scenario {scenario}")

    if not errors:
        _validate_semantics(scenario, values, errors)
    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        scenario=scenario,
        out_dir=Path(values["run"]["out_dir"]),
        base_seed=values["run"]["base_seed"],
        replicates=values["run"]["replicates"],
        values=values,
        echo=echo,
    )


def _build_target(v: dict, errors: list[str]) -> TargetDensity | None:
    kind = v.get("kind")
    try:
        if kind == "gauss1d":
            mean = v.get("mean", (0.0,))
            if len(mean) != 1:
                raise ValueError("gauss1d mean must be one number")
            return Gauss1D(mean=mean[0], std=v.get("std", 1.0))
        if kind == "gauss_mixture1d":
            if "components" not in v:
                errors.append("target.components: missing required key for mixtures")
                return None
            return GaussMixture1D(components=v["components"])
        if kind == "gauss2d":
            return Gauss2D(mean=v.get("mean", (0.0, 0.0)), var=v.get("var", (1.0, 1.0)))
    except ValueError as exc:
        errors.append(f"target: {exc}")
    return None


def _build_schedule(kind, gens, n_real=None, m_synth=None, alpha=None, rows=None):
    """The one schedule builder, for [schedule] sections and ``sclab bounds``.

    Raises ValueError when the kind's parameters are missing or invalid.
    """
    if kind == "full_synthetic":
        return MixtureSchedule.full_synthetic(gens)
    if kind == "balanced":
        return MixtureSchedule.balanced(gens)
    if kind == "fixed_ratio":
        return MixtureSchedule.fixed_ratio(n_real, m_synth, gens)
    if kind == "real_each_gen":
        return MixtureSchedule.real_each_gen(alpha, gens)
    return MixtureSchedule.general(rows)


def _schedule_section(v: dict, errors: list[str]) -> MixtureSchedule | None:
    kind, gens = v["kind"], v["max_generation"]
    rows_raw = v.get("_rows", {})
    if kind != "general" and rows_raw:
        errors.append("schedule: explicit rows are only valid for kind general")
        return None
    rows = None
    if kind == "general":
        # row<i> = alpha, beta_1, ..., beta_i for every generation
        rows = []
        ok = True
        for i in range(1, gens + 1):
            if i not in rows_raw:
                errors.append(f"schedule.row{i}: missing required key")
                ok = False
                continue
            try:
                weights = _p_float_list(rows_raw[i])
            except ValueError as exc:
                errors.append(f"schedule.row{i}: {exc}")
                ok = False
                continue
            rows.append((weights[0], tuple(weights[1:])))
        for i in rows_raw:
            if i > gens:
                errors.append(f"schedule.row{i}: beyond max_generation {gens}")
                ok = False
        if not ok:
            return None
    try:
        return _build_schedule(
            kind, gens, v.get("n_real"), v.get("m_synth"), v.get("alpha"), rows
        )
    except ValueError as exc:
        errors.append(f"schedule: {exc}")
    return None


def _validate_semantics(scenario: str, values: dict, errors: list[str]) -> None:
    """Build every object the scenario runs, adding each constructor's
    ValueError to ``errors``; a step runs only when its inputs were built."""
    if "target" in values:
        target = _build_target(values["target"], errors)
        values["target_obj"] = target
        if scenario == "diffusion_1d" and target is not None and target.dim != 1:
            errors.append("target: diffusion_1d needs a one-dimensional target")
    if "schedule" in values:
        schedule = _schedule_section(values["schedule"], errors)
        values["schedule_obj"] = schedule
        # the loop scenarios named after a schedule kind run only that kind
        if schedule is not None and scenario in mixing._KINDS and schedule.kind != scenario:
            errors.append(f"schedule.kind: scenario {scenario} requires kind {scenario}")
    if "kde" in values:
        kv = values["kde"]
        default_order = 4 if kv["kernel"] == "higher_order_gaussian" else 2
        try:
            values["kernel_obj"] = KernelSpec(kv["kernel"], kv.get("order", default_order))
        except ValueError as exc:
            errors.append(f"kde: {exc}")
    if "loop" in values:
        gen_kind = values["loop"]["generator"]
        if scenario == "diffusion_1d" and gen_kind != "diffusion":
            errors.append("loop.generator: diffusion_1d requires the diffusion generator")
        try:
            if gen_kind == "kde" and "kernel_obj" in values:
                values["generator_obj"] = KdeGenerator(kernel=values["kernel_obj"])
            elif gen_kind == "diffusion":
                dv = values["diffusion"]
                values["generator_obj"] = DiffusionGenerator(
                    cfg=diffusion_mod.DiffusionConfig(
                        horizon=dv["horizon"],
                        reverse_steps=dv["reverse_steps"],
                        embed_dim=dv["embed_dim"],
                    ),
                    width_factor=dv["width_factor"],
                    tau_factor=dv["tau_factor"],
                    lr=dv.get("lr"),
                )
        except ValueError as exc:
            errors.append(f"{gen_kind}: {exc}")
        if values["target_obj"] is not None and "generator_obj" in values:
            values["loops"] = _loop_plan(scenario, values, errors)
    if scenario == "bounds_report":
        bv, schedule = values["bounds"], values["schedule_obj"]
        if bv["family"] == "kde" and bv.get("s") is None:
            errors.append("bounds.s: required for the kde family")
        if bv["family"] == "flow" and bv.get("r_cap") is None:
            errors.append("bounds.r_cap: required for the flow family")
        if schedule is not None:
            i = bv.get("i", schedule.max_generation)
            if i > schedule.max_generation:
                errors.append(f"bounds.i: {i} exceeds schedule.max_generation")
            else:
                try:
                    values["bound_inputs"] = _bound_inputs(
                        bv["n"], i, bv["d"], bv["delta"], bv["kl"], bv.get("s"), bv.get("r_cap")
                    )
                except ValueError as exc:
                    errors.append(f"bounds: {exc}")


def _loop_plan(scenario: str, values: dict, errors: list[str]) -> list:
    """(label, LoopConfig) pairs to run. A sweep labels each lambda's rows in
    both CSVs; a single loop's label is None, which keeps the scenario in
    results.csv and the schedule kind in bounds.csv."""
    lv, sw = values["loop"], values.get("sweep")
    runs = []  # (label, schedule, size rule)
    if sw is None and values["schedule_obj"] is not None:
        runs.append((None, values["schedule_obj"], lv["sample_sizes"]))
    for lam in sw["lambdas"] if sw else ():
        m = int(round(lam * sw["n_real"]))
        try:
            schedule = MixtureSchedule.fixed_ratio(sw["n_real"], m, sw["max_generation"])
        except ValueError as exc:
            errors.append(f"sweep.lambdas: lambda={lam:g}: {exc}")
            continue
        runs.append((f"{scenario}:lambda={lam:g}", schedule, ConstantSizes(sw["n_real"] + m)))
    plan = []
    for label, schedule, sizes in runs:
        try:
            plan.append((label, LoopConfig(
                generator=values["generator_obj"],
                schedule=schedule,
                p0=values["target_obj"],
                sample_sizes=sizes,
                max_generation=schedule.max_generation,
                replicates=values["run"]["replicates"],
                base_seed=values["run"]["base_seed"],
                delta=lv["delta"],
                eval_nodes=lv["eval_nodes"],
                eval_samples=lv["eval_samples"],
            )))
        except ValueError as exc:
            errors.append(f"loop: {exc}")
    return plan


def _bound_inputs(n, i, d, delta, kl, s=None, r_cap=None) -> bounds.BoundInputs:
    """Bound inputs at generation ``i``, for [bounds] configs and ``sclab bounds``.

    ``n`` is a size rule; ``kl`` holds one prior-mismatch term per generation
    or a single term for all of them.
    """
    kl_terms = kl * (i + 1) if len(kl) == 1 else kl
    return bounds.BoundInputs(
        n=n.resolve(i + 1, d), d=d, delta=delta, kl_terms=kl_terms, s=s, R=r_cap
    )


# ----------------------------------------------------------------------------
# output helpers


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # builtin float: shortest round-trip repr
    return str(v)


def write_csv_atomic(path: Path, columns, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[c]) for c in columns])
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(buf.getvalue(), encoding="utf-8")
    os.replace(tmp, path)


def _write_manifest(cfg: ExperimentConfig, out_dir: Path, started: float) -> None:
    comments = (
        f"sclab {__version__}, numpy {np.__version__}, python {sys.version.split()[0]}",
        f"wall time {time.time() - started:.3f} s",
    )
    tmp = out_dir / "manifest.ini.tmp"
    tmp.write_text(cfg.manifest_text(comments), encoding="utf-8")
    os.replace(tmp, out_dir / "manifest.ini")


# ----------------------------------------------------------------------------
# scenario runners


def _run_loops(cfg: ExperimentConfig, out_dir: Path) -> None:
    rows, bound_rows = [], []
    for label, lcfg in cfg.values["loops"]:
        traces, _ = loop.run_replicates(lcfg)
        for trace in traces:
            rows.extend(loop.trace_rows(trace, label or cfg.scenario))
        # bounds.csv: the generator's family at generation max_generation - 1,
        # with no prior-mismatch terms
        gen, i = lcfg.generator, max(0, lcfg.max_generation - 1)
        inputs = gen.bound_inputs(lcfg.resolved_sizes()[: i + 1], lcfg.p0.dim, lcfg.delta)
        for row in bounds.bound_table_rows(lcfg.schedule, inputs, gen.family):
            bound_rows.append({**row, "schedule": label or row["schedule"]})
    write_csv_atomic(out_dir / "results.csv", RESULT_COLUMNS, rows)
    write_csv_atomic(out_dir / "bounds.csv", BOUND_COLUMNS, bound_rows)


def _run_kde_rate(cfg: ExperimentConfig, out_dir: Path) -> None:
    target = cfg.values["target_obj"]
    kernel = cfg.values["kernel_obj"]
    sizes = cfg.values["kde_rate"]["sizes"]
    n_seeds = cfg.values["kde_rate"]["seeds"]
    seed_grid = np.random.default_rng([cfg.base_seed, 0x6B5E]).integers(
        0, 2**63, size=(len(sizes), n_seeds)
    )
    rows = []
    for j, n in enumerate(sizes):
        for r in range(n_seeds):
            seed = int(seed_grid[j, r])
            data = target.sample(n, seed)
            model = kernels.fit(data, kernel)
            err = kernels.l1_error(model, target)
            rows.append(
                {
                    "scenario": cfg.scenario,
                    "replicate": r,
                    "generation": 1,
                    "n_total": n,
                    "n_real": n,
                    "tv_est": err,
                    "tv_method": "quadrature",
                    "tv_tol": 1e-4,
                    "bound_value": bounds.bound_kde(
                        MixtureSchedule.full_synthetic(1),
                        bounds.BoundInputs(n=(n,), d=target.dim, s=kernel.order),
                    ),
                    "kl_prior": "",
                    "seed": seed,
                    "runtime_ms": 0,
                }
            )
    write_csv_atomic(out_dir / "results.csv", RESULT_COLUMNS, rows)


def _run_bounds_report(cfg: ExperimentConfig, out_dir: Path) -> None:
    rows = bounds.bound_table_rows(
        cfg.values["schedule_obj"], cfg.values["bound_inputs"], cfg.values["bounds"]["family"]
    )
    write_csv_atomic(out_dir / "bounds.csv", BOUND_COLUMNS, rows)


def _run_phase_transition(cfg: ExperimentConfig, out_dir: Path) -> None:
    pv = cfg.values["phase"]
    grid = np.linspace(0.0, pv["lambda_max"], pv["lambda_steps"])
    rows = []
    for i in pv["i_values"]:
        star = bounds.lambda_star(i)
        for lam in grid:
            rows.append(
                {
                    "i": i,
                    "lam": float(lam),
                    "f_value": bounds.f_lambda(float(lam), i),
                    "lambda_star": star,
                }
            )
    write_csv_atomic(out_dir / "phase.csv", PHASE_COLUMNS, rows)


# The one list of scenarios: each name maps to the config sections it reads
# after [run], in the order they are checked and echoed to the manifest, and
# to the runner that writes its outputs.
SCENARIOS = {
    "kde_rate": (("target", "kde", "kde_rate"), _run_kde_rate),
    "full_synthetic": (("target", "schedule", "loop", "kde", "diffusion"), _run_loops),
    "balanced": (("target", "schedule", "loop", "kde", "diffusion"), _run_loops),
    "fixed_ratio_sweep": (("target", "loop", "kde", "diffusion", "sweep"), _run_loops),
    "real_each_gen": (("target", "schedule", "loop", "kde", "diffusion"), _run_loops),
    "diffusion_1d": (("target", "schedule", "loop", "kde", "diffusion"), _run_loops),
    "bounds_report": (("schedule", "bounds"), _run_bounds_report),
    "phase_transition": (("phase",), _run_phase_transition),
}


def run_scenario(cfg: ExperimentConfig) -> int:
    """Run a parsed config's plan; writes output files plus a manifest."""
    started = time.time()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _, runner = SCENARIOS[cfg.scenario]
    runner(cfg, cfg.out_dir)
    _write_manifest(cfg, cfg.out_dir, started)
    return EXIT_OK


# ----------------------------------------------------------------------------
# entry point


def _error_record(kind: str, **fields) -> str:
    return json.dumps({"error": kind, **fields}, sort_keys=True)


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(_error_record("io", message=str(exc)), file=sys.stderr)
        return EXIT_CONFIG
    overrides = {}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        overrides["base_seed"] = env_seed
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.out is not None:
        overrides["out_dir"] = args.out
    try:
        cfg = parse_config(text, overrides=overrides)
    except ConfigError as exc:
        print(_error_record("config", errors=exc.errors), file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_scenario(cfg)
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        print(
            _error_record("runtime", type=type(exc).__name__, message=str(exc),
                          scenario=cfg.scenario),
            file=sys.stderr,
        )
        return EXIT_RUNTIME


def _cmd_bounds(args) -> int:
    try:
        i = _p_pos_int(args.i)  # the rule of [bounds] i
        schedule = _build_schedule(args.schedule, i, args.n_real, args.m_synth, args.alpha)
        counts = _p_int_list(args.n)
        n = ConstantSizes(counts[0]) if len(counts) == 1 else ExplicitSizes(counts)
        inputs = _bound_inputs(
            n, i, args.d, args.delta, _p_float_list(args.kl), args.s, args.r_cap
        )
        if args.r_cap is not None:
            _p_pos_float(args.r_cap)  # [bounds] r_cap refuses the zero cap BoundInputs takes
        rows = bounds.bound_table_rows(schedule, inputs, args.family)
    except ValueError as exc:
        print(_error_record("config", errors=[str(exc)]), file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv_atomic(out_dir / "bounds.csv", BOUND_COLUMNS, rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sclab",
        description="Self-consuming generative-model training loop laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured scenario")
    p_run.add_argument("--config", required=True, help="path to an INI config")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, help="base seed (overrides config)")
    p_run.add_argument("--replicates", type=int, help="replicate count (overrides config)")
    p_run.set_defaults(func=_cmd_run)

    p_bounds = sub.add_parser("bounds", help="emit a closed-form bound table")
    p_bounds.add_argument(
        "--schedule",
        required=True,
        choices=[k for k in mixing._KINDS if k != "general"],
    )
    p_bounds.add_argument("--i", type=int, required=True, help="final generation index")
    p_bounds.add_argument("--n", default="4096", help="sample counts (single or list)")
    p_bounds.add_argument("--d", type=int, default=1)
    p_bounds.add_argument("--delta", type=float, default=0.1)
    p_bounds.add_argument("--kl", default="0.0", help="prior KL terms (single or list)")
    p_bounds.add_argument("--family", choices=bounds.FAMILIES, default="diffusion")
    p_bounds.add_argument("--s", type=int, help="smoothness order (kde family)")
    p_bounds.add_argument("--r-cap", type=float, dest="r_cap", help="norm cap (flow family)")
    p_bounds.add_argument("--n-real", type=int, dest="n_real")
    p_bounds.add_argument("--m-synth", type=int, dest="m_synth")
    p_bounds.add_argument("--alpha", type=float)
    p_bounds.add_argument("--out", default=".")
    p_bounds.set_defaults(func=_cmd_bounds)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
