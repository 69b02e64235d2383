"""Config-driven command line front end.

Commands: ``conditions``, ``distances``, ``study``, ``counterexample``,
``selfcheck``.  Scenario files are JSON; unknown and missing keys are
rejected with the offending location spelled out ("$.array.famly: unknown
key"), and every default is materialized into the effective config echoed
back, so the echo re-parses to the same run.  ``main`` checks the flags,
loads the config and answers ``--dry-run`` for every command, then hands
the config to the command, which writes through ``_write``.  Output files
are written once, atomically.  Exit codes: 0 ok, 2 config error,
3 numeric failure, 4 finding violated.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import arrays as _arrays
from . import conditions as _conditions
from . import engine as _engine
from . import metrics as _metrics
from .distributions import (
    DISTRIBUTION_FAMILIES,
    INDEX_FAMILIES,
    Normal,
    index_from_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_FINDING = 4

COMMANDS = ("conditions", "distances", "study", "counterexample", "selfcheck")

DISTANCES_CSV_HEADER = ("label", "n", "metric", "value", "error_bound", "method")
COUNTEREXAMPLE_CSV_HEADER = ("finding", "passed", "value", "threshold", "detail")


class ConfigError(Exception):
    """Rejected configuration; the message names the offending location."""


# ---------------------------------------------------------------------------
# config validation: every check names its location as $.section.key
# ---------------------------------------------------------------------------


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


def _expect_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected an array")
    return obj


def _check_keys(obj: dict, allowed: Sequence[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _positive_number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number")
    if not math.isfinite(float(value)) or float(value) <= 0.0:
        raise ConfigError(f"{path}: must be a positive finite number")
    return float(value)


def _positive_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if value < 1:
        raise ConfigError(f"{path}: must be >= 1")
    return int(value)


def _validate_entry(cfg, path: str, table: dict, kind_key: str, what: str) -> dict:
    """Check a config mapping against its family's entry in a registry table."""
    cfg = _expect_mapping(cfg, path)
    kind = cfg.get(kind_key)
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(
            f"{path}.{kind_key}: unknown {what} {kind!r}; available: {', '.join(table)}"
        )
    entry = table[kind]
    _check_keys(cfg, (kind_key, *entry.required, *entry.optional), path)
    for key in entry.required:
        if key not in cfg:
            raise ConfigError(f"{path}.{key}: required for {what} {kind!r}")
    if "base" in cfg:
        _validate_entry(
            cfg["base"], f"{path}.base", DISTRIBUTION_FAMILIES, "family",
            "distribution family",
        )
    return cfg


def _check_value_types(build, cfg: dict, path: str) -> None:
    """Build ``cfg`` once, so a wrongly typed value is a config error."""
    try:
        build(cfg)
    except TypeError as exc:
        raise ConfigError(f"{path}: wrongly typed value: {exc}") from None


def _validate_array(cfg, path: str) -> dict:
    cfg = _validate_entry(cfg, path, _arrays.ARRAY_KINDS, "array", "array kind")
    rows = cfg.get("rows", "n")
    if rows not in ("n", "2n"):
        raise ConfigError(f'{path}.rows: expected "n" or "2n"')
    cfg["rows"] = rows
    return cfg


def _validate_grids(cfg, path: str, defaults: dict) -> dict:
    cfg = _expect_mapping(cfg, path)
    _check_keys(cfg, ("n", "epsilon", "delta"), path)
    out = {}
    for key in ("n", "epsilon", "delta"):
        raw = cfg.get(key, list(defaults[key]))
        raw = _expect_list(raw, f"{path}.{key}")
        if not raw:
            raise ConfigError(f"{path}.{key}: grid must be nonempty")
        vals = []
        for i, v in enumerate(raw):
            if key == "n":
                vals.append(_positive_int(v, f"{path}.n[{i}]"))
            else:
                vals.append(_positive_number(v, f"{path}.{key}[{i}]"))
                if key == "delta" and vals[-1] > 1.0:
                    raise ConfigError(f"{path}.delta[{i}]: must lie in (0, 1]")
        out[key] = vals
    return out


def _validate_monte_carlo(cfg, path: str, defaults: dict) -> dict:
    cfg = _expect_mapping(cfg, path)
    _check_keys(cfg, ("M", "alpha", "seed"), path)
    m = _positive_int(cfg.get("M", defaults["M"]), f"{path}.M")
    if m < 1_000:
        raise ConfigError(f"{path}.M: must be >= 1000")
    alpha = _positive_number(cfg.get("alpha", defaults["alpha"]), f"{path}.alpha")
    if alpha >= 1.0:
        raise ConfigError(f"{path}.alpha: must lie in (0, 1)")
    seed = cfg.get("seed", defaults["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{path}.seed: expected a nonnegative integer")
    return {"M": m, "alpha": alpha, "seed": seed}


def _validate_outputs(cfg, path: str) -> dict:
    cfg = _expect_mapping(cfg, path)
    _check_keys(cfg, ("format", "path"), path)
    fmt = cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f'{path}.format: expected "csv" or "json"')
    out_path = cfg.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"{path}.path: expected a string")
    return {"format": fmt, "path": out_path}


_STUDY_FIELDS = (
    "plan",
    "label",
    "mode",
    "eta",
    "functionals",
    "distances",
    "checks",
    "normal_twin_feller",
)

# the defaults of a config that names no bundled plan
_DEFAULT_PLAN = _engine.StudyPlan(
    label="study",
    array={"array": "shiryaev"},
    index=None,
    n_grid=(4, 16, 64),
    epsilon_grid=(0.1, 0.5, 1.0),
    functionals=("lindeberg", "feller", "rand_lindeberg", "rand_feller"),
)


def _validate_study_section(cfg, path: str, defaults: dict) -> dict:
    cfg = _expect_mapping(cfg, path)
    _check_keys(cfg, _STUDY_FIELDS, path)
    out = {key: copy.deepcopy(cfg.get(key, defaults[key])) for key in _STUDY_FIELDS}
    if out["mode"] not in ("prefix", "rows"):
        raise ConfigError(f'{path}.mode: expected "prefix" or "rows"')
    _positive_number(out["eta"], f"{path}.eta")
    for field in ("functionals", "distances"):
        vals = _expect_list(out[field], f"{path}.{field}")
        for i, v in enumerate(vals):
            if not isinstance(v, str):
                raise ConfigError(f"{path}.{field}[{i}]: expected a string")
    checks = _expect_list(out["checks"], f"{path}.checks")
    for i, chk in enumerate(checks):
        _expect_mapping(chk, f"{path}.checks[{i}]")
    if not isinstance(out["normal_twin_feller"], bool):
        raise ConfigError(f"{path}.normal_twin_feller: expected true or false")
    return out


def _validate_distances_section(cfg, path: str) -> dict:
    cfg = _expect_mapping(cfg, path)
    _check_keys(cfg, ("metrics", "mode"), path)
    metrics = cfg.get("metrics", ["kolmogorov_row", "empirical_delta", "delta_mixture"])
    metrics = _expect_list(metrics, f"{path}.metrics")
    for i, name in enumerate(metrics):
        if name not in _engine.DISTANCES:
            raise ConfigError(
                f"{path}.metrics[{i}]: unknown metric {name!r}; "
                f"available: {', '.join(_engine.DISTANCES)}"
            )
    mode = cfg.get("mode", "prefix")
    if mode not in ("prefix", "rows"):
        raise ConfigError(f'{path}.mode: expected "prefix" or "rows"')
    return {"metrics": list(metrics), "mode": mode}


_TOP_KEYS = ("array", "index", "grids", "monte_carlo", "outputs", "tasks",
             "study", "distances")


def effective_config(raw: dict, command: str) -> dict:
    """Validate a scenario document and materialize every default.

    When a study section names a bundled plan, that plan supplies the
    defaults for any section the document leaves out, and otherwise
    ``_DEFAULT_PLAN`` does.  The result re-validates to itself, so the
    echoed effective config reproduces the run exactly.
    """
    raw = _expect_mapping(raw, "$")
    _check_keys(raw, _TOP_KEYS, "$")

    tasks = raw.get("tasks", [command])
    tasks = _expect_list(tasks, "$.tasks")
    for i, t in enumerate(tasks):
        if t not in COMMANDS:
            raise ConfigError(f"$.tasks[{i}]: unknown task {t!r}")
    if command not in tasks:
        raise ConfigError(f"$.tasks: config does not enable task {command!r}")

    plan: Optional[_engine.StudyPlan] = None
    plan_name = None
    if "study" in raw:
        study_raw = _expect_mapping(raw["study"], "$.study")
        plan_name = study_raw.get("plan")
        if plan_name is not None:
            if plan_name not in _engine.BUILTIN_PLAN_NAMES:
                raise ConfigError(
                    f"$.study.plan: unknown plan {plan_name!r}; "
                    f"available: {', '.join(_engine.BUILTIN_PLAN_NAMES)}"
                )
            plan = _engine.builtin_plan(plan_name)

    defaults = (plan or _DEFAULT_PLAN).to_json_dict()
    grid_defaults = {
        "n": defaults["n_grid"], "epsilon": defaults["epsilon_grid"],
        "delta": [defaults["delta"]],
    }
    mc_defaults = {"M": defaults["samples"], "alpha": defaults["alpha"], "seed": defaults["seed"]}

    cfg: Dict[str, object] = {
        "array": _validate_array(copy.deepcopy(raw.get("array", defaults["array"])), "$.array"),
        "grids": _validate_grids(copy.deepcopy(raw.get("grids", {})), "$.grids", grid_defaults),
        "monte_carlo": _validate_monte_carlo(
            copy.deepcopy(raw.get("monte_carlo", {})), "$.monte_carlo", mc_defaults
        ),
        "outputs": _validate_outputs(copy.deepcopy(raw.get("outputs", {})), "$.outputs"),
        "tasks": list(tasks),
    }
    index_raw = raw.get("index", defaults["index"])
    cfg["index"] = (
        _validate_entry(
            copy.deepcopy(index_raw), "$.index", INDEX_FAMILIES, "family", "index family"
        )
        if index_raw
        else None
    )

    # the checks above read key names; one build reads the values' types
    _check_value_types(_arrays.array_from_config, cfg["array"], "$.array")
    if cfg["index"]:
        n_first = cfg["grids"]["n"][0]
        _check_value_types(lambda c: index_from_config(c, n_first), cfg["index"], "$.index")

    if command == "distances" and cfg["index"] is None:
        raise ConfigError("$.index: required for the distances task")

    if command == "study" or "study" in raw:
        study = _validate_study_section(
            copy.deepcopy(raw.get("study", {})), "$.study", {**defaults, "plan": plan_name}
        )
        if command == "study":
            if cfg["index"] is None:
                raise ConfigError("$.index: required for the study task")
            if len(cfg["grids"]["delta"]) != 1:
                raise ConfigError("$.grids.delta: the study task needs exactly one delta")
        cfg["study"] = study
        # functional names and check fields are declared with the study code
        try:
            _plan_from_config(cfg).validated()
        except ValueError as exc:
            raise ConfigError(f"$.study: {exc}")

    if command == "distances" or "distances" in raw:
        cfg["distances"] = _validate_distances_section(
            copy.deepcopy(raw.get("distances", {})), "$.distances"
        )
    return cfg


def _plan_from_config(cfg: dict) -> _engine.StudyPlan:
    study = cfg["study"]
    mc = cfg["monte_carlo"]
    return _engine.StudyPlan(
        label=study["label"],
        array=cfg["array"],
        index=cfg["index"],
        n_grid=tuple(cfg["grids"]["n"]),
        epsilon_grid=tuple(cfg["grids"]["epsilon"]),
        delta=float(cfg["grids"]["delta"][0]),
        samples=mc["M"],
        alpha=mc["alpha"],
        seed=mc["seed"],
        eta=float(study["eta"]),
        mode=study["mode"],
        functionals=tuple(study["functionals"]),
        distances=tuple(study["distances"]),
        checks=tuple(dict(c) for c in study["checks"]),
        normal_twin_feller=study["normal_twin_feller"],
    )


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".randsum-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_output_path(args, cfg_outputs: dict, default_name: str) -> Optional[str]:
    path = cfg_outputs.get("path")
    if args.out is not None:
        return os.path.join(args.out, path if path else default_name)
    return path


def _emit(args, cfg_outputs: dict, default_name: str, text: str) -> Optional[str]:
    """Write to the resolved file atomically, or to stdout; returns the path."""
    target = _resolve_output_path(args, cfg_outputs, default_name)
    if target is None:
        sys.stdout.write(text)
        return None
    _atomic_write(target, text)
    print(f"wrote {target}", file=sys.stderr)
    return target


def _write(args, cfg: dict, stem: str, doc: dict, csv_text: str) -> Optional[str]:
    """Write a command's JSON document, with its command and config, or its CSV table."""
    if cfg["outputs"]["format"] == "json":
        text = _engine.json_text({"command": args.command, "config": cfg, **doc})
        return _emit(args, cfg["outputs"], f"{stem}.json", text)
    return _emit(args, cfg["outputs"], f"{stem}.csv", csv_text)


def _cells_failed(args, errors: List[dict], any_success: bool) -> bool:
    """Whether the failed cells fail the command; if so, print them to stderr."""
    failed = bool(errors) and (args.strict or not any_success)
    if failed:
        for err in errors:
            print(f"cell failed: {err}", file=sys.stderr)
    return failed


def _load_config(args, command: str) -> dict:
    """The effective config of a command, with its --seed and --format applied.

    ``selfcheck`` reads no config file: its config is its seed and
    quadrature tolerance.
    """
    if command == "selfcheck":
        return {"seed": 42 if args.seed is None else args.seed, "quad_tol": args.quad_tol}
    if args.plan is not None:
        if args.config is not None:
            raise ConfigError("--plan and --config are mutually exclusive")
        raw = {"tasks": ["study"], "study": {"plan": args.plan}}
    elif args.config is None:
        raw = {}
    else:
        try:
            with open(args.config) as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc.strerror or exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config} is not valid JSON: {exc}")
    cfg = effective_config(raw, command)
    if args.seed is not None:
        cfg["monte_carlo"]["seed"] = args.seed
    if args.format is not None:
        cfg["outputs"]["format"] = args.format
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_conditions(args, cfg: dict) -> int:
    array = _arrays.array_from_config(cfg["array"])
    grids = cfg["grids"]
    rows: List[dict] = []
    errors: List[dict] = []
    for n in grids["n"]:
        index = index_from_config(cfg["index"], n) if cfg["index"] else None
        for eps in grids["epsilon"]:
            for delta in grids["delta"]:
                try:
                    report = _conditions.evaluate_report(
                        array, n, eps, delta, index=index
                    )
                except Exception as exc:
                    errors.append(
                        {"n": n, "epsilon": eps, "delta": delta,
                         "error": f"{type(exc).__name__}: {exc}"}
                    )
                    continue
                for tup in report.csv_rows():
                    rows.append(dict(zip(_conditions.CSV_HEADER, tup)))
    # annotate failed cells in the table itself, stable column set
    for err in errors:
        rows.append(
            {"label": array.label, "n": err["n"], "epsilon": err["epsilon"],
             "delta": err["delta"], "functional": "cell_error",
             "value": None, "error_bound": None}
        )

    _write(args, cfg, "conditions", {"rows": rows, "errors": errors},
           _engine.csv_text(_conditions.CSV_HEADER, rows))
    return EXIT_NUMERIC if _cells_failed(args, errors, len(rows) > len(errors)) else EXIT_OK


def cmd_distances(args, cfg: dict) -> int:
    array = _arrays.array_from_config(cfg["array"])
    section = cfg["distances"]
    mc = cfg["monte_carlo"]
    grids = cfg["grids"]
    streams = _engine.spawn_streams(mc["seed"], len(grids["n"]))
    rows: List[dict] = []
    errors: List[dict] = []
    for n, rng in zip(grids["n"], streams):
        index = index_from_config(cfg["index"], n)
        for metric in section["metrics"]:
            try:
                # the section sets no eta: the plan-less default applies
                est = _engine.DISTANCES[metric](
                    array, index, n, rng, mc["M"], mc["alpha"], _DEFAULT_PLAN.eta,
                    section["mode"],
                )
            except Exception as exc:
                errors.append({"n": n, "metric": metric,
                               "error": f"{type(exc).__name__}: {exc}"})
                rows.append({"label": array.label, "n": n, "metric": f"{metric}_error",
                             "value": None, "error_bound": None, "method": None})
                continue
            rows.append({"label": array.label, "n": n, "metric": metric,
                         "value": est.value, "error_bound": est.bound,
                         "method": est.method})

    _write(args, cfg, "distances", {"rows": rows, "errors": errors},
           _engine.csv_text(DISTANCES_CSV_HEADER, rows))
    any_success = any(r["value"] is not None for r in rows)
    return EXIT_NUMERIC if _cells_failed(args, errors, any_success) else EXIT_OK


def cmd_study(args, cfg: dict) -> int:
    plan = _plan_from_config(cfg)
    result = _engine.run_study(plan)
    doc = result.to_json_dict(include_runtime=False)
    del doc["plan"]  # the config echo already carries the plan
    wrote = _write(args, cfg, f"study-{plan.label}", doc, result.csv_text())

    verdict_stream = sys.stdout if wrote else sys.stderr
    for verdict in result.verdicts:
        mark = "PASS" if verdict["passed"] else "FAIL"
        print(f"{mark} {verdict['check']}: {verdict['detail']}", file=verdict_stream)
    for err in result.errors:
        print(f"cell failed: {err}", file=sys.stderr)

    if result.errors and (args.strict or not result.rows):
        return EXIT_NUMERIC
    if not all(v["passed"] for v in result.verdicts):
        return EXIT_FINDING
    return EXIT_OK


_CE_N_GRID = (4, 8, 16, 32)
_CE_EPSILONS = (0.1, 0.5, 1.0)


def _counterexample_findings(seed: int, quad_tol: float, mc_draws: int) -> List[dict]:
    """The five findings on the all-normal row-mixing array."""
    array = _arrays.make_shiryaev_array()
    findings: List[dict] = []

    worst = 0.0
    for k in _CE_N_GRID:
        law = _metrics.row_sum_law(array, k)
        worst = max(worst, _metrics.kolmogorov(law, Normal(0.0, 1.0)).value)
    findings.append({
        "finding": "exact_clt_distance",
        "passed": worst <= 1e-10,
        "value": worst,
        "threshold": 1e-10,
        "detail": "largest exact row-sum distance to the standard normal",
    })

    worst = 0.0
    for k in _CE_N_GRID:
        worst = max(worst, abs(_conditions.feller(array, k) - 0.5))
    findings.append({
        "finding": "feller_half",
        "passed": worst <= 1e-12,
        "value": worst,
        "threshold": 1e-12,
        "detail": "max |F - 1/2| across the grid",
    })

    # exact L(0.5) values: nonincreasing, never below half the first one,
    # each cross-checked against a Monte Carlo oracle
    streams = _engine.spawn_streams(seed, len(_CE_N_GRID))
    values = []
    mc_ok = True
    mc_detail = ""
    for k, rng in zip(_CE_N_GRID, streams):
        exact = _conditions.lindeberg(array, k, 0.5)
        values.append(exact)
        sigmas = np.sqrt(array.normal_variances(k))
        z = rng.standard_normal((mc_draws, sigmas.size))
        x = z * sigmas
        stat = np.sum(np.square(x) * (np.abs(x) >= 0.5), axis=1)
        mc_mean = float(np.mean(stat))
        mc_se = float(np.std(stat, ddof=1) / math.sqrt(mc_draws))
        if exact < mc_mean - 3.0 * mc_se:
            mc_ok = False
            mc_detail = f"; k={k} exact {exact:.6f} < oracle {mc_mean:.6f} - 3*{mc_se:.2g}"
    floor = 0.5 * values[0]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    findings.append({
        "finding": "lindeberg_floor",
        "passed": bool(nonincreasing and min(values) >= floor and mc_ok),
        "value": min(values),
        "threshold": floor,
        "detail": "L(0.5) values " + ", ".join(f"{v:.6f}" for v in values) + mc_detail,
    })

    worst = math.inf
    for k in _CE_N_GRID:
        worst = min(worst, _conditions.infinitesimality(array, k, 0.5))
    findings.append({
        "finding": "infinitesimality_floor",
        "passed": worst >= 0.1,
        "value": worst,
        "threshold": 0.1,
        "detail": "smallest I(0.5) across the grid stays bounded away from zero",
    })

    worst = 0.0
    apriori = 0.0
    for k in _CE_N_GRID:
        for eps in _CE_EPSILONS:
            worst = max(worst, _conditions.rotar(array, k, eps, quad_tol=quad_tol))
        apriori = max(apriori, _conditions.rotar_error_bound(array.row_length(k), quad_tol))
    findings.append({
        "finding": "rotar_within_tolerance",
        "passed": worst <= 1e-8 and worst <= max(apriori, 1e-12),
        "value": worst,
        "threshold": 1e-8,
        "detail": f"largest R value {worst:.3e}, a priori quadrature bound {apriori:.3e}",
    })
    return findings


def cmd_counterexample(args, cfg: dict) -> int:
    mc = cfg["monte_carlo"]
    findings = _counterexample_findings(
        mc["seed"], args.quad_tol, min(mc["M"], 200_000)
    )
    doc = {"findings": findings, "passed": all(f["passed"] for f in findings)}
    _write(args, cfg, "counterexample", doc,
           _engine.csv_text(COUNTEREXAMPLE_CSV_HEADER, findings))

    failed = [f for f in findings if not f["passed"]]
    for f in findings:
        mark = "PASS" if f["passed"] else "FAIL"
        print(f"{mark} {f['finding']}: {f['detail']}", file=sys.stderr)
    if failed:
        print(f"violated: {failed[0]['finding']}", file=sys.stderr)
        return EXIT_FINDING
    return EXIT_OK


def cmd_selfcheck(args, cfg: dict) -> int:
    report = _engine.selfcheck(cfg["seed"], cfg["quad_tol"])
    _emit(args, {}, "selfcheck.json", _engine.json_text(report))
    return EXIT_OK if report["passed"] else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randsum",
        description="Random-sum CLT conditions, distances, and study runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, *, config: bool = True, fmt: bool = True,
                strict: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", metavar="PATH", help="scenario JSON file")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="override the Monte Carlo seed")
        p.add_argument("--out", metavar="DIR", help="directory for output files")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"),
                           help="override the output format")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="any failed cell is fatal (exit 3)")
        p.add_argument("--dry-run", action="store_true",
                       help="validate, echo the effective config, run nothing")
        return p

    command("conditions", "condition functionals over a grid")
    command("distances", "distances to the standard normal over a grid")
    p = command("study", "run a convergence study plan")
    p.add_argument("--plan", choices=_engine.BUILTIN_PLAN_NAMES,
                   help="bundled study plan (instead of --config)")
    p = command("counterexample", "the all-normal row-mixing findings", strict=False)
    p.add_argument("--quad-tol", type=float, default=1e-12,
                   help="quadrature tolerance for the Rotar finding")
    p = command("selfcheck", "deterministic invariant suite",
                config=False, fmt=False, strict=False)
    p.add_argument("--quad-tol", type=float, default=1e-12,
                   help="quadrature tolerance fed to the Rotar check")
    # flags a command does not take read as unset
    parser.set_defaults(config=None, plan=None, quad_tol=None)
    return parser


_DISPATCH = {
    "conditions": cmd_conditions,
    "distances": cmd_distances,
    "study": cmd_study,
    "counterexample": cmd_counterexample,
    "selfcheck": cmd_selfcheck,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.quad_tol is not None:
            _positive_number(args.quad_tol, "--quad-tol")
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed: expected a nonnegative integer")
        cfg = _load_config(args, args.command)
        if args.dry_run:
            sys.stdout.write(_engine.json_text(cfg))
            return EXIT_OK
        return _DISPATCH[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # numeric findings that subclass ValueError, so ahead of the clause below
    except (_conditions.InvalidRowError, _metrics.MomentMismatchError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (_arrays.ArrayError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
