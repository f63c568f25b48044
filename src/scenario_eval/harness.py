"""Run the full evaluation experiment and write its report files.

A run executes: world generation -> the three estimation strategies
(strategy 1; strategies 2 and 3 each with and without the R0 covariate) ->
accuracy metrics, and writes a directory of CSV tables plus a manifest:

    world.csv              ground truth per location and scenario point
    projections.csv        per (model, location, scenario point) projections;
                           the coverage and truth are world.csv's
    approach_estimates.csv quantile summaries of every estimated distribution
    report.csv             MAE-of-means and KS test per (approach, variant,
                           model, scenario)
    decomposition.csv      observed deviation split into calibration and
                           scenario-specification error per (model, location,
                           scenario); the calibration error is the true error
    a1_deviation.csv       strategy-1 estimate accuracy vs scenario deviation
    implied_obs_ks.csv     KS of strategy-2 implied observations vs truth
    location_mae.csv       per-location estimate accuracy
    manifest.json          config hash, seed, version, file digests

A per-location value is written to one data file only: the coverage and
truth of a scenario point are ``world.csv``'s, the per-location estimates
``approach_estimates.csv``'s means and the true errors
``decomposition.csv``'s ``calibration_error``; the other files leave them out.
Everything a report number needs is recomputable from the data CSVs plus
the seeded sampling procedure; re-running the same config produces byte
identical data files.

``evaluate`` scores strategy 1 whole and strategies 2 and 3 one model at a
time: each model's distributions go to the scorer as soon as they are drawn
(``approaches``' ``consume`` callback), which turns them into table rows,
the KS test of each pooled vector reading the sorted copy its summary was
made from, and drops them before the next model is drawn into the same
arrays. So a run holds one model's samples at a time. Each strategy's rows,
its variants in order, go to the run's ``ReportWriter`` in one batch, and a
run keeps no row it has handed over. The ``EvaluationReport`` it returns
holds ``report.csv``'s rows, which ``scenario-eval run`` prints, and no
strategy result. Callers who want the distributions themselves call the
strategy functions of ``approaches``.

This module alone owns the table format. Row values are ``int``, ``float``
or ``str``, never numpy scalars, and every ``str`` is a bare token of
letters, digits and underscores (labels, flags "true"/"false", missing
values ""), so no field needs quoting. Each table has one line template,
``"%s,...,%s\\n"`` with a ``%s`` per header column, and each row fills it:
floats by ``repr`` (which is their ``str``), the rest by ``str``, the bytes
``csv.writer`` with ``"\\n"`` line endings would write. One ``ReportWriter``,
which ``run`` makes, writes them: ``evaluate`` hands it each strategy's
rows as soon as they are built, strategy 1's together with ``world.csv``
and ``projections.csv``, and ``write_report`` then hands it
``decomposition.csv`` and writes the manifest. On two CPUs a run forks one
solve worker and three background appends, one per strategy.
``evaluate`` alone decides which table builders a strategy's results go
to; each builder turns the values it is given into rows. Which process
writes a batch, and when, is described once in README.md, "Report files";
it changes none of the bytes.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__, approaches, fanout, metrics, world_gen
from .approaches import (
    APPROACH_ERROR_REGRESSION,
    APPROACH_PLAUSIBLE,
    POOLED,
    VARIANT_COVARIATE,
)
from .errors import ConfigError, InsufficientDataError
from .spline_fit import SplineSpec
from .world_gen import MAX_FLOAT64_SIZE, ExperimentConfig

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
    """Experiment configuration plus the strategies' method parameters."""

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    n_samples: int = 10_000
    basis_dim: int = 5
    plausibility_threshold: float | None = None

    def __post_init__(self):
        if not 1 <= self.n_samples <= MAX_FLOAT64_SIZE:
            raise ConfigError(f"n_samples must be >= 1 and at most {MAX_FLOAT64_SIZE}, "
                              f"the largest float64 array numpy can address, "
                              f"got {self.n_samples}", "approaches.n_samples")
        threshold = self.plausibility_threshold
        if threshold is not None and not threshold >= 0:
            raise ConfigError(f"must be empty or >= 0, got {threshold}",
                              "approaches.plausibility_threshold")
        try:
            SplineSpec(basis_dim=self.basis_dim)
        except InsufficientDataError as exc:
            raise ConfigError(str(exc), "approaches.basis_dim") from exc
        needed = self.basis_dim + 2 + 1   # spline columns + intercept + covariate, exclusive bound
        if self.experiment.n_locations <= needed:
            raise ConfigError(
                f"strategies 2/3 need n_locations > {needed} to fit the spline "
                f"(basis_dim={self.basis_dim}); got {self.experiment.n_locations}. "
                "Reduce basis_dim", "experiment.n_locations")
        if self.n_samples < self.experiment.n_locations:
            raise ConfigError(
                f"strategies 2/3 split the samples across locations and need "
                f"n_samples >= n_locations ({self.experiment.n_locations}); "
                f"got {self.n_samples}", "approaches.n_samples")


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
    built-in experiment. Unknown sections or fields are errors, ``[DEFAULT]``
    included, and values are taken as written: ``%`` is not interpolated."""
    path = Path(path)
    # No section header can be empty, so "[DEFAULT]" is a section like any other.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(str(exc), str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not valid UTF-8 text ({exc.reason})", str(path)) from exc
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
    """In-memory result of a run: its inputs and ``report.csv``'s rows.
    Every other table went to the writer as it was built, and no strategy
    result is kept: each model's distributions are scored as soon as they
    are drawn and then released."""

    settings: RunSettings
    world: world_gen.TrueWorld
    ensemble: world_gen.ModelEnsemble
    report_rows: list


def evaluate(settings: RunSettings, writer: ReportWriter) -> EvaluationReport:
    """Run the whole experiment, handing its tables to ``writer``.

    ``writer`` is handed one batch per strategy: the rows of its variants in
    ``approaches.VARIANTS``, once they are built. Strategy 1's batch also
    carries ``world.csv`` and ``projections.csv``: it is scored in a few
    milliseconds, so the world's tables go out with it rather than in a
    batch of their own that the next would wait on. Strategy 1 is scored
    whole; strategies 2 and 3 hand each model's distributions to the scorer
    as they are built, which turns them into rows and drops them, so only
    one model's samples are alive at a time. Only ``report.csv``'s rows are
    kept, in ``VARIANTS`` order, for the report."""
    config = settings.experiment
    world, ensemble = world_gen.generate(config)
    errs = world_gen.true_errors(world, ensemble)
    spec = SplineSpec(basis_dim=settings.basis_dim)
    true_errors = errs.tolist()   # [m][l][j], once for every builder call

    report_rows = []
    world_tables = _world_tables(world, ensemble)   # handed over with strategy 1
    # Strategies and builders are looked up at call time, so span wrappers
    # swapped in after import (benchmarks/spans.py) see every call.
    for approach_id, variants in groupby(approaches.VARIANTS, itemgetter(0)):
        batch = {name: [] for name in _STRATEGY_FILES}
        for _, variant in variants:
            ids = (approach_id, variant)
            if approach_id == APPROACH_PLAUSIBLE:
                result = approaches.evaluate_plausible(
                    world, ensemble, settings.plausibility_threshold)
                batch["report.csv"] += _report_rows(world, errs, {}, *ids, result.pooled)
                batch["approach_estimates.csv"] += _estimate_rows(*ids, _pooled(result.pooled))
                batch["approach_estimates.csv"] += _estimate_rows(*ids, (   # one sample each
                    (key, (e,) * 6 + (1,)) for key, e in _plausible_points(result)))
                batch["a1_deviation.csv"] += _a1_deviation_rows(
                    true_errors, result.selection.deviation.tolist(), _plausible_points(result))
                batch["location_mae.csv"] += _location_mae_rows(
                    true_errors, *ids, _plausible_points(result))
                del result   # else it stays alive through strategies 2 and 3
                continue
            # Only strategy 2's error samples imply observations to test.
            implied = approach_id == APPROACH_ERROR_REGRESSION
            located = []   # per-location estimates, written after the pooled

            def score(part, ordered):
                """Add the rows of one model's distributions, ``part``, to
                the batch; ``ordered`` maps (m, j) to its pooled samples,
                sorted. Their arrays are overwritten by the next model."""
                batch["report.csv"] += _report_rows(world, errs, ordered, *ids, part.pooled)
                batch["approach_estimates.csv"] += _estimate_rows(*ids, _pooled(part.pooled))
                # inserted in (m, j, l) order by approaches._distributions
                per_location = part.per_location
                located.extend(_estimate_rows(
                    *ids, zip(per_location, map(_summary, per_location.values()))))
                if implied:
                    batch["implied_obs_ks.csv"] += _implied_obs_rows(
                        world, ensemble, variant, part)
                means = [dist.summary.mean for dist in per_location.values()]
                batch["location_mae.csv"] += _location_mae_rows(
                    true_errors, *ids, zip(per_location, means))

            infer = (approaches.infer_error_distribution if implied
                     else approaches.infer_observations)
            infer(world, ensemble, variant == VARIANT_COVARIATE,
                  settings.n_samples, config.seed, spec, score)
            batch["approach_estimates.csv"] += located
        report_rows += batch["report.csv"]
        writer.add(world_tables | batch)
        world_tables = {}
        del batch   # else its rows stay alive through the next strategy

    return EvaluationReport(settings=settings, world=world, ensemble=ensemble,
                            report_rows=report_rows)


REPORT_HEADER = ("approach", "variant", "model_id", "scenario_index", "scenario_x",
                 "n_est", "est_mean", "true_mean", "mae_of_means",
                 "ks_d", "ks_n", "ks_m", "ks_critical", "ks_significant")


def _report_rows(world, errs, ordered, approach_id, variant, pooled):
    """One row per distribution of ``pooled``, (m, j) -> distribution or None
    (empty), in (m, j) order; the KS test takes the sorted samples from
    ``ordered`` where it has them."""
    rows = []
    for (m, j), dist in sorted(pooled.items()):
        true_vec = errs[m, :, j]
        base = (approach_id, variant, m, j, float(world.scenario_values[j]))
        if dist is None:
            rows.append(base + (0, "", float(true_vec.mean()), "",
                                "", "", "", "", ""))
            continue
        mae = metrics.mae_of_means(dist.summary.mean, true_vec)
        if dist.samples.size >= 5:
            ks = metrics.ks_two_sample(ordered.get((m, j), dist.samples), true_vec)
            ks_part = (ks.statistic, ks.n, ks.m, ks.critical_value,
                       "true" if ks.significant else "false")
        else:
            ks_part = ("", "", "", "", "")
        rows.append(base + (dist.samples.size, dist.summary.mean,
                            float(true_vec.mean()), mae) + ks_part)
    return rows


def _plausible_points(result):
    """Strategy-1 point errors as ((model, plausible scenario, location),
    error), model-major, skipping locations without a plausible scenario."""
    located = [(j, l) for l, j in enumerate(result.selection.chosen_index.tolist())
               if j >= 0]
    for m, errors in enumerate(result.point_errors.tolist()):
        for j, l in located:
            yield (m, j, l), errors[l]


def _summary(dist):
    """(mean, median, q25, q75, q05, q95, n_samples) of a distribution."""
    s = dist.summary
    return (s.mean, s.median, s.q25, s.q75, s.q05, s.q95, s.n_samples)


def _pooled(pooled):
    """((m, j, POOLED), summary) of each distribution of ``pooled``, in
    (m, j) order, skipping the empty ones (None)."""
    return (((m, j, POOLED), _summary(dist)) for (m, j), dist in sorted(pooled.items())
            if dist is not None)


ESTIMATE_HEADER = ("approach", "variant", "model_id", "scenario_index",
                   "location_id", "mean", "median", "q25", "q75", "q05", "q95",
                   "n_samples")


def _estimate_rows(approach_id, variant, estimates):
    """One row per ((m, j, l), summary) of ``estimates``, in their order;
    the summary is the header's mean to n_samples."""
    return [(approach_id, variant, m, j, l) + summary
            for (m, j, l), summary in estimates]


DECOMPOSITION_HEADER = ("model_id", "location_id", "scenario_index",
                        "observed_deviation", "calibration_error",
                        "scenario_spec_error", "total_error")


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
                       "deviation", "abs_difference")


def _a1_deviation_rows(true_errors, deviation, points):
    """Strategy 1's rows from its ((m, j, l), point error) ``points``;
    ``deviation`` is each location's, ``true_errors`` the true error array,
    both as (nested) lists."""
    return [(m, l, j, deviation[l], abs(est - true_errors[m][l][j]))
            for (m, j, l), est in points]


IMPLIED_OBS_HEADER = ("variant", "model_id", "scenario_index", "ks_d",
                      "ks_critical", "ks_significant")


def _implied_obs_rows(world, ensemble, variant, result):
    """Strategy 2's rows: the KS test of the observations each pooled
    distribution of ``result`` implies."""
    rows = []
    for m, j in sorted(result.pooled):
        implied = approaches.implied_observations(result, ensemble, world, m, j)
        implied.sort()   # in place: the KS test then needs no sorted copy
        ks = metrics.ks_two_sample(implied, world.y_counterfactual[:, j])
        rows.append((variant, m, j, ks.statistic, ks.critical_value,
                     "true" if ks.significant else "false"))
    return rows


LOCATION_MAE_HEADER = ("approach", "variant", "model_id", "scenario_index",
                       "location_id", "abs_difference")


def _location_mae_rows(true_errors, approach_id, variant, estimates):
    """One row per ((m, j, l), estimate) of ``estimates``; ``true_errors``
    is the true error array as nested lists."""
    return [(approach_id, variant, m, j, l, abs(est - true_errors[m][l][j]))
            for (m, j, l), est in estimates]


WORLD_HEADER = ("location_id", "r0_true", "alpha_true", "x_kind", "x_value",
                "y_value")


def _x_kinds(n_scenarios: int) -> list:
    """The x_kind of each modeled scenario point, then of the realized one."""
    return (["scenario_low", "scenario_high"] if n_scenarios == 2
            else [f"scenario_{j}" for j in range(n_scenarios)]) + ["realized"]


def _world_rows(world):
    """Per location, the (x_kind, x_value, true y) of each modeled scenario
    and then of the realized coverage."""
    L, S = world.n_locations, world.n_scenarios
    x = np.column_stack([np.broadcast_to(world.scenario_values, (L, S)), world.x_realized])
    y = np.column_stack([world.y_counterfactual, world.y_observed])
    kinds = _x_kinds(S)
    r0, alpha = world.r0_true.tolist(), world.alpha_true.tolist()
    for l, (xs, ys) in enumerate(zip(x.tolist(), y.tolist())):
        for point in zip(kinds, xs, ys):
            yield (l, r0[l], alpha[l]) + point


PROJECTIONS_HEADER = ("model_id", "location_id", "x_kind", "y_projected")


def _projection_rows(world, ensemble):
    """Each model's projection at every scenario point of every location;
    its honest reprojection at the realized one."""
    kinds = _x_kinds(world.n_scenarios)
    modeled = np.concatenate([ensemble.projections, ensemble.reprojection[..., None]], axis=2)
    for m, per_location in enumerate(modeled.tolist()):
        for l, ys in enumerate(per_location):
            for kind, y_model in zip(kinds, ys):
                yield (m, l, kind, y_model)


# The files each strategy's batch adds rows to, in the order they are built.
_STRATEGY_FILES = ("report.csv", "approach_estimates.csv", "a1_deviation.csv",
                  "implied_obs_ks.csv", "location_mae.csv")

_HEADERS = {
    "world.csv": WORLD_HEADER,
    "projections.csv": PROJECTIONS_HEADER,
    "approach_estimates.csv": ESTIMATE_HEADER,
    "report.csv": REPORT_HEADER,
    "decomposition.csv": DECOMPOSITION_HEADER,
    "a1_deviation.csv": A1_DEVIATION_HEADER,
    "implied_obs_ks.csv": IMPLIED_OBS_HEADER,
    "location_mae.csv": LOCATION_MAE_HEADER,
}


def _world_tables(world, ensemble) -> dict:
    """``world.csv`` and ``projections.csv``; the rows are made while
    written, never held whole."""
    return {"world.csv": _world_rows(world),
            "projections.csv": _projection_rows(world, ensemble)}


def _append(parts) -> None:
    """Write each (path, new, rows) part: a new file starts with its
    header, any other is appended to. Each row fills its table's one line
    template, so a row of another length, or a list, raises ``TypeError``."""
    for path, new, rows in parts:
        header = _HEADERS[path.name]
        line = ",".join(["%s"] * len(header)) + "\n"
        with open(path, "w" if new else "a", encoding="utf-8", newline="\n") as handle:
            if new:
                handle.write(line % header)
            handle.writelines(map(line.__mod__, rows))


def _sha256(path: Path) -> str:
    """Digest of a file read 1 MiB at a time, so no file is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ReportWriter:
    """Writes the data files of one report directory, batch by batch.

    A batch maps file names to rows. ``add`` waits for the append of the
    batch before it, raising its failure, then starts this batch's append
    in the background (``fanout.Background``) and returns; so each file
    keeps its row order. ``close`` writes ``decomposition.csv``, waits for
    the last append and returns every data file's digest. Leaving a
    ``with`` block kills the append still running."""

    def __init__(self, out_dir):
        self.out = Path(out_dir)
        self._opened = set()  # files handed out with their header
        self._appends = fanout.Background()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._appends.__exit__(*exc_info)

    def _parts(self, batch: dict) -> list:
        """The parts ``_append`` writes for ``batch``, leaving out files
        with nothing to add unless they are new. The first call removes an
        old manifest, which would list files this run is replacing."""
        self.out.mkdir(parents=True, exist_ok=True)
        if not self._opened:
            (self.out / MANIFEST_FILE).unlink(missing_ok=True)
        parts = []
        for name, rows in batch.items():
            new = name not in self._opened
            if rows or new:
                parts.append((self.out / name, new, rows))
                self._opened.add(name)
        return parts

    def add(self, batch: dict) -> None:
        self._appends.start(_append, self._parts(batch))

    def close(self, decomposition) -> dict:
        """Write ``decomposition.csv``'s rows while the last append drains,
        wait for it; the SHA-256 digest of each data file by name.

        If the writing or the wait fails, ``decomposition.csv`` is removed
        again, as a serial run that failed there would not have written it."""
        path = self.out / "decomposition.csv"
        try:
            _append(self._parts({path.name: decomposition}))
            self._appends.wait()
        except BaseException:
            if path.is_file():   # a directory in its place stays
                path.unlink()
            raise
        return {name: _sha256(self.out / name) for name in DATA_FILES}


def write_report(report: EvaluationReport, writer: ReportWriter,
                 config_bytes: bytes | None = None) -> dict:
    """Finish the report ``evaluate`` fed to ``writer``: hand it
    ``decomposition.csv``, close it and write the manifest to its
    directory; returns the manifest dict."""
    digests = writer.close(_decomposition_rows(report.world, report.ensemble))

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
        "files": {name: digests[name] for name in DATA_FILES},
    }
    with open(writer.out / MANIFEST_FILE, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def run(config_path, out_dir, seed: int | None = None) -> EvaluationReport:
    """Load settings (or defaults when ``config_path`` is None), evaluate,
    and write the report directory."""
    config_bytes = None
    if config_path is None:
        settings = RunSettings()
    else:
        settings = load_settings(config_path)
        config_bytes = Path(config_path).read_bytes()
    if seed is not None:
        settings = replace(settings,
                           experiment=replace(settings.experiment, seed=seed))
        config_bytes = None   # overridden seed invalidates the file hash alone
    with ReportWriter(out_dir) as writer:
        report = evaluate(settings, writer)
        write_report(report, writer, config_bytes)
    return report


def resolve_out_dir(cli_value: str | None, default: str = "scenario_eval_report") -> Path:
    """Output directory precedence: explicit CLI value, then the
    SCENARIO_EVAL_OUT environment variable, then the default."""
    if cli_value is not None:
        return Path(cli_value)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path(default)
