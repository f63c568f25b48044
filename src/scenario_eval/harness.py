"""Run the full evaluation experiment and write its report files.

A run executes: world generation -> the three estimation strategies
(strategy 1; strategies 2 and 3 each with and without the R0 covariate) ->
accuracy metrics, and writes a directory of CSV tables plus a manifest:

    world.csv              ground truth per location and scenario point
    projections.csv        per (model, location, scenario point) projections
    approach_estimates.csv quantile summaries of every estimated distribution
    report.csv             MAE-of-means and KS test per (approach, variant,
                           model, scenario)
    decomposition.csv      observed deviation split into calibration and
                           scenario-specification error per (model, location,
                           scenario)
    a1_deviation.csv       strategy-1 estimate accuracy vs scenario deviation
    implied_obs_ks.csv     KS of strategy-2 implied observations vs truth
    location_mae.csv       per-location estimate accuracy
    manifest.json          config hash, seed, version, file digests

Everything a report number needs is recomputable from the data CSVs plus
the seeded sampling procedure; re-running the same config produces byte
identical data files.

This module alone owns the table format. Row values are ``int``, ``float``
or ``str`` (flags "true"/"false", missing values ""), never numpy scalars,
and go straight to ``csv.writer.writerows``: floats by ``repr``, the rest
by ``str``.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, approaches, metrics, world_gen
from .approaches import (
    APPROACH_ERROR_REGRESSION,
    APPROACH_OBSERVATION_MODEL,
    APPROACH_PLAUSIBLE,
    POOLED,
    VARIANT_COVARIATE,
    VARIANT_NO_COVARIATE,
    VARIANT_PLAUSIBLE,
)
from .errors import ConfigError
from .spline_fit import SplineSpec
from .world_gen import ExperimentConfig

DATA_FILES = (
    "world.csv",
    "projections.csv",
    "approach_estimates.csv",
    "report.csv",
    "decomposition.csv",
    "a1_deviation.csv",
    "implied_obs_ks.csv",
    "location_mae.csv",
)
MANIFEST_FILE = "manifest.json"
OUT_DIR_ENV = "SCENARIO_EVAL_OUT"


@dataclass(frozen=True)
class RunSettings:
    """Experiment configuration plus harness toggles."""

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    n_samples: int = 10_000
    basis_dim: int = 5
    run_approach1: bool = True
    run_approach2: bool = True
    run_approach3: bool = True
    covariate_variants: bool = True     # run strategies 2/3 both with and without R0
    plausibility_threshold: float | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1", "approaches.n_samples")
        threshold = self.plausibility_threshold
        if threshold is not None and not threshold >= 0:
            raise ConfigError(f"must be empty or >= 0, got {threshold}",
                              "approaches.plausibility_threshold")
        needed = self.basis_dim + 2 + 1   # spline columns + intercept + covariate, exclusive bound
        if (self.run_approach2 or self.run_approach3) and \
                self.experiment.n_locations <= needed:
            raise ConfigError(
                f"strategies 2/3 need n_locations > {needed} to fit the spline "
                f"(basis_dim={self.basis_dim}); got {self.experiment.n_locations}. "
                "Reduce basis_dim or disable run_approach2/run_approach3",
                "experiment.n_locations")
        if (self.run_approach2 or self.run_approach3) and \
                self.n_samples < self.experiment.n_locations:
            raise ConfigError(
                f"strategies 2/3 split the samples across locations and need "
                f"n_samples >= n_locations ({self.experiment.n_locations}); "
                f"got {self.n_samples}", "approaches.n_samples")


def default_settings() -> RunSettings:
    return RunSettings()


_EXPERIMENT_FIELDS = {
    "n_locations": int,
    "n_models": int,
    "seed": int,
    "scenario_values": "floats",
    "perfect_models": "bool",
    "x_realized_low": float,
    "x_realized_high": float,
    "r0_true_low": float,
    "r0_true_high": float,
    "alpha_true_mean": float,
    "alpha_true_sd": float,
    "global_bias_sd": float,
    "local_bias_sd": float,
    "alpha_center_low": float,
    "alpha_center_high": float,
    "alpha_model_sd": float,
}
_SIR_FIELDS = {
    "infectious_period": float,
    "initial_infected": float,
    "population": float,
    "horizon": float,
    "step": float,
}
_APPROACH_FIELDS = {
    "n_samples": int,
    "basis_dim": int,
    "run_approach1": "bool",
    "run_approach2": "bool",
    "run_approach3": "bool",
    "covariate_variants": "bool",
    "plausibility_threshold": "optional_float",
}


def _parse_value(raw: str, kind, context: str):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "floats":
            return tuple(float(part) for part in raw.replace(",", " ").split())
        if kind == "optional_float":
            return float(raw) if raw.strip() else None
        raise AssertionError(kind)
    except ValueError as exc:
        raise ConfigError(str(exc), context) from exc


def load_settings(path) -> RunSettings:
    """Parse a key = value config file with [experiment], [sir] and
    [approaches] sections; every field is optional and defaults to the
    built-in experiment. Unknown sections or fields are errors."""
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(str(exc), str(path)) from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc).replace("\n", " "), str(path)) from exc

    known = {"experiment": _EXPERIMENT_FIELDS, "sir": _SIR_FIELDS,
             "approaches": _APPROACH_FIELDS}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]", str(path))
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"unknown field {key!r}", f"{path}:[{section}]")

    def section_values(section: str, fields: dict) -> dict:
        out = {}
        if parser.has_section(section):
            for key, kind in fields.items():
                if parser.has_option(section, key):
                    out[key] = _parse_value(parser.get(section, key), kind,
                                            f"{path}:[{section}] {key}")
        return out

    exp_raw = section_values("experiment", _EXPERIMENT_FIELDS)
    sir_raw = section_values("sir", _SIR_FIELDS)
    app_raw = section_values("approaches", _APPROACH_FIELDS)

    exp_kwargs = {}
    range_pairs = {
        "x_realized_range": ("x_realized_low", "x_realized_high"),
        "r0_true_range": ("r0_true_low", "r0_true_high"),
        "alpha_center_range": ("alpha_center_low", "alpha_center_high"),
    }
    defaults = ExperimentConfig()
    for target, (lo_key, hi_key) in range_pairs.items():
        if lo_key in exp_raw or hi_key in exp_raw:
            lo_default, hi_default = getattr(defaults, target)
            exp_kwargs[target] = (exp_raw.pop(lo_key, lo_default),
                                  exp_raw.pop(hi_key, hi_default))
    exp_kwargs.update(exp_raw)
    sir_renames = {"initial_infected": "i0"}
    for key, value in sir_raw.items():
        exp_kwargs[sir_renames.get(key, key)] = value
    experiment = replace(defaults, **exp_kwargs)
    return RunSettings(experiment=experiment, **app_raw)


@dataclass(frozen=True)
class EvaluationReport:
    """In-memory result of a run: inputs, strategy outputs, metric tables."""

    settings: RunSettings
    world: world_gen.TrueWorld
    ensemble: world_gen.ModelEnsemble
    true_errors: np.ndarray
    results: dict                 # (approach, variant) -> strategy result object
    report_rows: list
    estimate_rows: list
    decomposition_rows: list
    a1_deviation_rows: list
    implied_obs_ks_rows: list
    location_mae_rows: list


def _variant_list(settings: RunSettings):
    """(approach id, variant label, include_covariate) for enabled strategies."""
    out = []
    if settings.run_approach1:
        out.append((APPROACH_PLAUSIBLE, VARIANT_PLAUSIBLE, None))
    for enabled, approach_id in ((settings.run_approach2, APPROACH_ERROR_REGRESSION),
                                 (settings.run_approach3, APPROACH_OBSERVATION_MODEL)):
        if enabled:
            if settings.covariate_variants:
                out.append((approach_id, VARIANT_NO_COVARIATE, False))
            out.append((approach_id, VARIANT_COVARIATE, True))
    return out


def evaluate(settings: RunSettings) -> EvaluationReport:
    """Run the whole experiment in memory (no files)."""
    config = settings.experiment
    world, ensemble = world_gen.generate(config)
    errs = world_gen.true_errors(world, ensemble)
    spec = SplineSpec(basis_dim=settings.basis_dim)
    seed = config.seed

    results = {}
    for approach_id, variant, with_cov in _variant_list(settings):
        if approach_id == APPROACH_PLAUSIBLE:
            results[(approach_id, variant)] = approaches.evaluate_plausible(
                world, ensemble, settings.plausibility_threshold)
        elif approach_id == APPROACH_ERROR_REGRESSION:
            results[(approach_id, variant)] = approaches.infer_error_distribution(
                world, ensemble, with_cov, settings.n_samples, seed, spec)
        else:
            results[(approach_id, variant)] = approaches.infer_observations(
                world, ensemble, with_cov, settings.n_samples, seed, spec)

    report_rows = _report_rows(settings, world, errs, results)
    estimate_rows = _estimate_rows(results)
    decomposition_rows = _decomposition_rows(world, ensemble)
    a1_rows = _a1_deviation_rows(errs, results)
    implied_rows = _implied_obs_rows(world, ensemble, results)
    location_rows = _location_mae_rows(errs, results)
    return EvaluationReport(
        settings=settings, world=world, ensemble=ensemble, true_errors=errs,
        results=results, report_rows=report_rows, estimate_rows=estimate_rows,
        decomposition_rows=decomposition_rows, a1_deviation_rows=a1_rows,
        implied_obs_ks_rows=implied_rows, location_mae_rows=location_rows)


REPORT_HEADER = ("approach", "variant", "model_id", "scenario_index", "scenario_x",
                 "n_est", "est_mean", "true_mean", "mae_of_means",
                 "ks_d", "ks_n", "ks_m", "ks_critical", "ks_significant")


def _report_rows(settings, world, errs, results):
    rows = []
    for (approach_id, variant), result in results.items():
        for m in range(errs.shape[0]):
            for j in range(world.n_scenarios):
                dist = result.pooled[(m, j)]
                true_vec = errs[m, :, j]
                base = (approach_id, variant, m, j,
                        float(world.scenario_values[j]))
                if dist is None:
                    rows.append(base + (0, "", float(true_vec.mean()), "",
                                        "", "", "", "", ""))
                    continue
                mae = metrics.mae_of_means(dist.summary.mean, true_vec)
                if dist.samples.size >= 5:
                    ks = metrics.ks_two_sample(dist.samples, true_vec)
                    ks_part = (ks.statistic, ks.n, ks.m, ks.critical_value,
                               "true" if ks.significant else "false")
                else:
                    ks_part = ("", "", "", "", "")
                rows.append(base + (dist.samples.size, dist.summary.mean,
                                    float(true_vec.mean()), mae) + ks_part)
    return rows


def _plausible_points(result):
    """Strategy-1 point errors as (model, plausible scenario, location,
    error), model-major, skipping locations without a plausible scenario."""
    chosen = result.selection.chosen_index
    for m in range(result.point_errors.shape[0]):
        for l in np.flatnonzero(chosen >= 0):
            yield m, int(chosen[l]), int(l), float(result.point_errors[m, l])


def _summary(dist):
    """(mean, median, q25, q75, q05, q95, n_samples) of a distribution."""
    s = dist.summary
    return (s.mean, s.median, s.q25, s.q75, s.q05, s.q95, s.n_samples)


ESTIMATE_HEADER = ("approach", "variant", "model_id", "scenario_index",
                   "location_id", "mean", "median", "q25", "q75", "q05", "q95",
                   "n_samples")


def _estimate_rows(results):
    rows = []
    for (approach_id, variant), result in results.items():
        for (m, j), dist in sorted(result.pooled.items()):
            if dist is not None:
                rows.append((approach_id, variant, m, j, POOLED) + _summary(dist))
        if approach_id == APPROACH_PLAUSIBLE:
            for m, j, l, e in _plausible_points(result):
                rows.append((approach_id, variant, m, j, l, e, e, e, e, e, e, 1))
        else:
            for (m, j, l), dist in sorted(result.per_location.items()):
                rows.append((approach_id, variant, m, j, l) + _summary(dist))
    return rows


DECOMPOSITION_HEADER = ("model_id", "location_id", "scenario_index", "projected",
                        "counterfactual_obs", "realized_obs", "observed_deviation",
                        "calibration_error", "scenario_spec_error", "total_error")


def _decomposition_rows(world, ensemble):
    """One row per (model, location, scenario), model-major, from a single
    elementwise ``metrics.decompose`` over the projection array."""
    shape = ensemble.projections.shape
    d = metrics.decompose(ensemble.projections,
                          np.broadcast_to(world.y_counterfactual, shape),
                          np.broadcast_to(world.y_observed[:, None], shape))
    columns = (getattr(d, f.name).ravel().tolist() for f in fields(d))
    return [ids + values for ids, values in zip(np.ndindex(shape), zip(*columns))]


A1_DEVIATION_HEADER = ("model_id", "location_id", "plausible_scenario",
                       "deviation", "estimated_error", "true_error",
                       "abs_difference")


def _a1_deviation_rows(errs, results):
    result = results.get((APPROACH_PLAUSIBLE, VARIANT_PLAUSIBLE))
    if result is None:
        return []
    deviation = result.selection.deviation
    rows = []
    for m, j, l, est in _plausible_points(result):
        true = float(errs[m, l, j])
        rows.append((m, l, j, float(deviation[l]), est, true, abs(est - true)))
    return rows


IMPLIED_OBS_HEADER = ("variant", "model_id", "scenario_index", "ks_d",
                      "ks_critical", "ks_significant")


def _implied_obs_rows(world, ensemble, results):
    rows = []
    for (approach_id, variant), result in results.items():
        if approach_id != APPROACH_ERROR_REGRESSION:
            continue
        for m in range(ensemble.n_models):
            for j in range(world.n_scenarios):
                implied = approaches.implied_observations(result, ensemble,
                                                          world, m, j)
                ks = metrics.ks_two_sample(implied, world.y_counterfactual[:, j])
                rows.append((variant, m, j, ks.statistic, ks.critical_value,
                             "true" if ks.significant else "false"))
    return rows


LOCATION_MAE_HEADER = ("approach", "variant", "model_id", "scenario_index",
                       "location_id", "est_mean", "true_error", "abs_difference")


def _location_mae_rows(errs, results):
    rows = []
    for (approach_id, variant), result in results.items():
        if approach_id == APPROACH_PLAUSIBLE:
            estimates = _plausible_points(result)
        else:
            estimates = ((m, j, l, dist.summary.mean)
                         for (m, j, l), dist in sorted(result.per_location.items()))
        for m, j, l, est in estimates:
            true = float(errs[m, l, j])
            rows.append((approach_id, variant, m, j, l, est, true, abs(est - true)))
    return rows


WORLD_HEADER = ("location_id", "r0_true", "alpha_true", "x_kind", "x_value",
                "y_value")


def _scenario_points(world):
    """Per location, the (x_kind, x_value, true y) of each modeled scenario
    and then of the realized coverage."""
    L, S = world.n_locations, world.n_scenarios
    kinds = (["scenario_low", "scenario_high"] if S == 2
             else [f"scenario_{j}" for j in range(S)]) + ["realized"]
    x = np.column_stack([np.broadcast_to(world.scenario_values, (L, S)), world.x_realized])
    y = np.column_stack([world.y_counterfactual, world.y_observed])
    return [list(zip(kinds, xs, ys)) for xs, ys in zip(x.tolist(), y.tolist())]


def _world_rows(world):
    r0, alpha = world.r0_true.tolist(), world.alpha_true.tolist()
    for l, points in enumerate(_scenario_points(world)):
        for point in points:
            yield (l, r0[l], alpha[l]) + point


PROJECTIONS_HEADER = ("model_id", "location_id", "x_kind", "x_value",
                      "y_projected", "y_observed_or_counterfactual")


def _projection_rows(world, ensemble):
    """Each model's projection at every scenario point of every location;
    its honest reprojection at the realized one."""
    points = _scenario_points(world)
    modeled = np.concatenate([ensemble.projections, ensemble.reprojection[..., None]], axis=2)
    for m, per_location in enumerate(modeled.tolist()):
        for l, ys in enumerate(per_location):
            for (kind, x, y), y_model in zip(points[l], ys):
                yield (m, l, kind, x, y_model, y)


def _sha256(path: Path) -> str:
    """Digest of a file read 1 MiB at a time, so no file is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_report(report: EvaluationReport, out_dir,
                 config_bytes: bytes | None = None) -> dict:
    """Write all report files to ``out_dir``; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # world.csv and projections.csv rows are made while written, never held whole.
    tables = {
        "world.csv": (WORLD_HEADER, _world_rows(report.world)),
        "projections.csv": (PROJECTIONS_HEADER,
                            _projection_rows(report.world, report.ensemble)),
        "approach_estimates.csv": (ESTIMATE_HEADER, report.estimate_rows),
        "report.csv": (REPORT_HEADER, report.report_rows),
        "decomposition.csv": (DECOMPOSITION_HEADER, report.decomposition_rows),
        "a1_deviation.csv": (A1_DEVIATION_HEADER, report.a1_deviation_rows),
        "implied_obs_ks.csv": (IMPLIED_OBS_HEADER, report.implied_obs_ks_rows),
        "location_mae.csv": (LOCATION_MAE_HEADER, report.location_mae_rows),
    }
    for name in DATA_FILES:
        header, rows = tables[name]
        with open(out / name, "w", encoding="utf-8", newline="\n") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    settings_dict = asdict(report.settings)
    config_digest = hashlib.sha256(
        config_bytes if config_bytes is not None
        else json.dumps(settings_dict, sort_keys=True, default=str).encode()
    ).hexdigest()
    manifest = {
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "seed": report.settings.experiment.seed,
        "config_sha256": config_digest,
        "n_locations": report.settings.experiment.n_locations,
        "n_models": report.settings.experiment.n_models,
        "redraw_count": report.ensemble.redraw_count,
        "files": {name: _sha256(out / name) for name in DATA_FILES},
    }
    with open(out / MANIFEST_FILE, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def run(config_path, out_dir, seed: int | None = None) -> EvaluationReport:
    """Load settings (or defaults when ``config_path`` is None), evaluate,
    and write the report directory."""
    config_bytes = None
    if config_path is None:
        settings = default_settings()
    else:
        settings = load_settings(config_path)
        config_bytes = Path(config_path).read_bytes()
    if seed is not None:
        settings = replace(settings,
                           experiment=replace(settings.experiment, seed=seed))
        config_bytes = None   # overridden seed invalidates the file hash alone
    report = evaluate(settings)
    write_report(report, out_dir, config_bytes)
    return report


def resolve_out_dir(cli_value: str | None, default: str = "scenario_eval_report") -> Path:
    """Output directory precedence: explicit CLI value, then the
    SCENARIO_EVAL_OUT environment variable, then the default."""
    if cli_value is not None:
        return Path(cli_value)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path(default)
