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
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bounds, kernels, loop, mixing
from .distributions import Gauss1D, Gauss2D, GaussMixture1D
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
)

BOUND_COLUMNS = ("schedule", "i", "k", "A_k", "bound_term", "total_bound")

PHASE_COLUMNS = ("i", "lam", "f_value", "lambda_star")

SEED_ENV_VAR = "SCLAB_SEED"

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

# [target] kind -> (class, its keys); the class takes the keys as keywords
_TARGETS = {
    "gauss1d": (Gauss1D, {"mean": (False, _p_float, None), "std": (False, _p_pos_float, None)}),
    "gauss_mixture1d": (GaussMixture1D, {"components": (True, _p_components, None)}),
    "gauss2d": (
        Gauss2D, {"mean": (False, _p_float_list, None), "var": (False, _p_float_list, None)}
    ),
}

# [schedule] kind -> its MixtureSchedule fields; general reads row1..row<max_generation>
_SCHEDULES = {
    "general": {},
    "full_synthetic": {},
    "balanced": {},
    "fixed_ratio": {"n_real": (True, _p_pos_int, None), "m_synth": (True, _p_int, None)},
    "real_each_gen": {"alpha": (True, _p_pos_float, None)},
}

# [loop] generator -> its [loop] key; a loop also reads the section named after its generator
_GENERATORS = {
    "kde": {"eval_nodes": (False, _p_pos_int, "4096")},
    "diffusion": {"eval_samples": (False, _p_pos_int, "100000")},
}

_SCHEMA = {
    "run": {
        "scenario": (True, str, None),  # parse_config has already refused unknown names
        "out_dir": (False, str, "out"),
        "base_seed": (True, _p_seed, None),
        "replicates": (False, _p_pos_int, "1"),
    },
    "target": {"kind": (True, _p_enum(*_TARGETS), None)},
    "schedule": {
        "kind": (True, _p_enum(*_SCHEDULES), None),
        "max_generation": (True, _p_pos_int, None),
    },
    "loop": {
        "generator": (True, _p_enum(*_GENERATORS), None),
        "sample_sizes": (True, _p_size_rule, None),
        "delta": (False, _p_pos_float, "0.1"),
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

# section -> (the key that picks a variant, variant -> the keys it adds)
_VARIANTS = {
    "target": ("kind", {kind: keys for kind, (_, keys) in _TARGETS.items()}),
    "schedule": ("kind", _SCHEDULES),
    "loop": ("generator", _GENERATORS),
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
    if "loop" in sections_read:
        # a loop reads the section of its generator; both when that is invalid
        generator = sections.get("loop", {}).get("generator")
        sections_read += (generator,) if generator in _GENERATORS else tuple(_GENERATORS)
    values: dict[str, dict] = {}
    echo: dict[str, dict[str, str]] = {}

    for section in ("run", *sections_read):
        present = sections.get(section, {})
        keys, complete = _section_keys(scenario, section, present)
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
        if complete:
            errors.extend(f"{section}.{key}: unknown key" for key in present if key not in keys)
    for section in sections:
        if section not in values:
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


def _section_keys(scenario: str, section: str, present: dict) -> tuple[dict, bool]:
    """The keys ``section`` reads, its own plus those of the variant its
    selector key names, and whether that is all of them. It is not when the
    selector (or a general schedule's max_generation) is invalid, an error
    reported under that key; the section's other keys then go unchecked."""
    keys = dict(_SCHEMA[section])
    if section == "loop" and scenario == "fixed_ratio_sweep":
        del keys["sample_sizes"]  # each lambda's loop draws n_real + m points a generation
    if section not in _VARIANTS:
        return keys, True
    selector, variants = _VARIANTS[section]
    if present.get(selector) not in variants:
        return keys, False
    keys.update(variants[present[selector]])
    if present[selector] == "general":  # row<i> = alpha, beta_1, ..., beta_i
        try:
            gens = _p_pos_int(present.get("max_generation", ""))
        except ValueError:
            return keys, False
        keys.update({f"row{i}": (True, _p_float_list, None) for i in range(1, gens + 1)})
    return keys, True


def _build(label: str, make, errors: list[str]):
    """``make()``, or None with its ValueError added to ``errors`` under ``label``."""
    try:
        return make()
    except ValueError as exc:
        errors.append(f"{label}: {exc}")
        return None


def _validate_semantics(scenario: str, values: dict, errors: list[str]) -> None:
    """Build every object the scenario runs, adding each constructor's
    ValueError to ``errors``; a step runs only when its inputs were built."""
    if "target" in values:
        cls, _ = _TARGETS[values["target"]["kind"]]
        params = {k: v for k, v in values["target"].items() if k != "kind"}
        target = values["target_obj"] = _build("target", lambda: cls(**params), errors)
        if scenario == "diffusion_1d" and target is not None and target.dim != 1:
            errors.append("target: diffusion_1d needs a one-dimensional target")
    if "schedule" in values:
        sv = values["schedule"]
        rows = tuple((w[0], w[1:]) for key, w in sv.items() if key.startswith("row"))
        fields = {k: v for k, v in sv.items() if not k.startswith("row")}
        schedule = values["schedule_obj"] = _build(
            "schedule", lambda: MixtureSchedule(**fields, rows=rows or None), errors
        )
        # the loop scenarios named after a schedule kind run only that kind
        if schedule is not None and scenario in mixing._KINDS and schedule.kind != scenario:
            errors.append(f"schedule.kind: scenario {scenario} requires kind {scenario}")
    if "kde" in values:
        kv = values["kde"]
        order = kv.get("order", 4 if kv["kernel"] == "higher_order_gaussian" else 2)
        values["kernel_obj"] = _build("kde", lambda: KernelSpec(kv["kernel"], order), errors)
    if "loop" in values:
        name = values["loop"]["generator"]
        if scenario == "diffusion_1d" and name != "diffusion":
            errors.append("loop.generator: diffusion_1d requires the diffusion generator")
        generator = None
        if name == "kde" and values["kernel_obj"] is not None:
            generator = _build("kde", lambda: KdeGenerator(kernel=values["kernel_obj"]), errors)
        elif name == "diffusion":
            dv = values["diffusion"]
            generator = _build("diffusion", lambda: DiffusionGenerator(
                cfg=diffusion_mod.DiffusionConfig(
                    horizon=dv["horizon"],
                    reverse_steps=dv["reverse_steps"],
                    embed_dim=dv["embed_dim"],
                ),
                width_factor=dv["width_factor"],
                tau_factor=dv["tau_factor"],
                lr=dv.get("lr"),
            ), errors)
        if values["target_obj"] is not None and generator is not None:
            values["loops"] = _loop_plan(scenario, values, generator, errors)
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
                values["bound_inputs"] = _build("bounds", lambda: _bound_inputs(
                    bv["n"], i, bv["d"], bv["delta"], bv["kl"], bv.get("s"), bv.get("r_cap")
                ), errors)


def _loop_plan(scenario: str, values: dict, generator, errors: list[str]) -> list:
    """(label, LoopConfig) pairs to run. A sweep labels each lambda's rows in
    both CSVs; a single loop's label is None, which keeps the scenario in
    results.csv and the schedule kind in bounds.csv."""
    lv, sw = values["loop"], values.get("sweep")
    runs = []  # (label, schedule, size rule)
    if sw is None and values["schedule_obj"] is not None:
        runs.append((None, values["schedule_obj"], lv["sample_sizes"]))
    for lam in sw["lambdas"] if sw else ():
        m = int(round(lam * sw["n_real"]))
        schedule = _build(
            f"sweep.lambdas: lambda={lam:g}",
            lambda: MixtureSchedule.fixed_ratio(sw["n_real"], m, sw["max_generation"]),
            errors,
        )
        if schedule is not None:
            runs.append((f"{scenario}:lambda={lam:g}", schedule, ConstantSizes(sw["n_real"] + m)))
    # the generator's own [loop] key: eval_nodes or eval_samples
    evaluation = {key: lv[key] for key in _GENERATORS[lv["generator"]]}
    plan = []
    for label, schedule, sizes in runs:
        lcfg = _build("loop", lambda: LoopConfig(
            generator=generator,
            schedule=schedule,
            p0=values["target_obj"],
            sample_sizes=sizes,
            max_generation=schedule.max_generation,
            replicates=values["run"]["replicates"],
            base_seed=values["run"]["base_seed"],
            delta=lv["delta"],
            **evaluation,
        ), errors)
        if lcfg is not None:
            plan.append((label, lcfg))
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
# after [run], in the order they are checked and echoed to the manifest (a
# loop then reads its generator's section), and to the runner that writes its
# outputs.
SCENARIOS = {
    "kde_rate": (("target", "kde", "kde_rate"), _run_kde_rate),
    "full_synthetic": (("target", "schedule", "loop"), _run_loops),
    "balanced": (("target", "schedule", "loop"), _run_loops),
    "fixed_ratio_sweep": (("target", "sweep", "loop"), _run_loops),
    "real_each_gen": (("target", "schedule", "loop"), _run_loops),
    "diffusion_1d": (("target", "schedule", "loop"), _run_loops),
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
        schedule = MixtureSchedule(
            args.schedule, i, n_real=args.n_real, m_synth=args.m_synth, alpha=args.alpha
        )
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
