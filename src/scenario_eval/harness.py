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

``evaluate`` scores all five variants with one scorer, one model at a
time: it turns a model's distributions and per-location estimates into
``report.csv``, ``approach_estimates.csv`` and ``location_mae.csv`` rows;
only ``a1_deviation.csv`` (strategy 1) and ``implied_obs_ks.csv``
(strategy 2) have builders of their own. Strategies 2 and 3 hand each
model's distributions to the scorer as soon as they are drawn
(``approaches``' ``consume`` callback), the KS test of each pooled vector
reading the sorted copy its summary was made from, and drop them before the
next model is drawn into the same arrays. So a run holds one model's
samples at a time, and one model's rows: each model's go to the run's
``ReportWriter`` as soon as they are built, and a run keeps no row it has
handed over. The ``EvaluationReport`` it returns holds ``report.csv``'s rows,
which ``scenario-eval run`` prints, and no strategy result. Callers who
want the distributions themselves call the strategy functions of
``approaches``.

This module alone owns the table format. Row values are ``int``, ``float``
or ``str``, never numpy scalars, and every ``str`` is a bare token of
letters, digits and underscores (labels, flags "true"/"false", missing
values ""), so no field needs quoting. Each table has one line template,
``"%s,...,%s\\n"`` with a ``%s`` per header column, and each row fills it:
floats by ``repr`` (which is their ``str``), the rest by ``str``, the bytes
``csv.writer`` with ``"\\n"`` line endings would write. One ``ReportWriter``,
which ``run`` makes, writes them: ``evaluate`` starts it right after the
world is generated, and its one writer process writes the world's three
tables whole, then each model's rows as they come, and hashes every data
file; ``write_report`` closes it and writes the manifest. On two CPUs a
run forks one solve worker and the writer. ``evaluate`` alone decides
which table builders a strategy's results go to; each builder turns the
values it is given into rows. Which process writes the rows, and when, is
described once in README.md, "Report files"; it changes none of the bytes.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
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
from .world_gen import MAX_FLOAT64_SIZE, ExperimentConfig, store_typed

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
        store_typed(self, "approaches.")
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


# The config file's keys by section, in README's order: [approaches] sets
# ``RunSettings`` fields, the other two ``ExperimentConfig``'s (``_field_of``).
CONFIG_FIELDS = {
    "experiment": ("n_locations", "n_models", "scenario_values", "seed",
                   "perfect_models", "x_realized_low", "x_realized_high",
                   "r0_true_low", "r0_true_high", "alpha_true_mean",
                   "alpha_true_sd", "global_bias_sd", "local_bias_sd",
                   "alpha_center_low", "alpha_center_high", "alpha_model_sd"),
    "sir": ("infectious_period", "initial_infected", "population", "horizon", "step"),
    "approaches": ("n_samples", "basis_dim", "plausibility_threshold"),
}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


def _field_of(key: str) -> tuple:
    """The field config ``key`` names, by its own name but for
    ``initial_infected``, which is ``i0``, and ``<stem>_low``/``_high``, ends
    0 and 1 of ``<stem>_range``; and the end, None for a whole field."""
    if key == "initial_infected":
        return "i0", None
    stem, _, end = key.rpartition("_")
    if end in ("low", "high"):
        return f"{stem}_range", int(end == "high")
    return key, None


def _parse_value(raw: str, default, context: str):
    """``raw`` as a value of ``default``'s type: ``bool``, ``int``,
    ``float``, a tuple of floats, or ``None`` for an optional float."""
    try:
        if isinstance(default, bool):   # true/yes/on/1 or false/no/off/0
            if raw.strip().lower() not in _BOOLEANS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOLEANS[raw.strip().lower()]
        if isinstance(default, tuple):
            return tuple(float(part) for part in raw.replace(",", " ").split())
        if default is None:
            return float(raw) if raw.strip() else None
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(str(exc), context) from exc


def load_settings(path) -> RunSettings:
    """Parse a key = value config file with the sections and keys of
    ``CONFIG_FIELDS``; every key is optional, defaults to the built-in
    experiment and is parsed by the type of its field's default. Unknown
    sections or fields are errors, ``[DEFAULT]`` included, and values are
    taken as written: ``%`` is not interpolated. The file is read once, so
    a pipe such as ``/dev/stdin`` serves as well as a regular file."""
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

    defaults = RunSettings()
    experiment, approaches = {}, {}   # field name -> value read
    for section in parser.sections():
        if section not in CONFIG_FIELDS:
            raise ConfigError(f"unknown section [{section}]", str(path))
        owner, read = ((defaults, approaches) if section == "approaches"
                       else (defaults.experiment, experiment))
        for key, raw in parser[section].items():
            if key not in CONFIG_FIELDS[section]:
                raise ConfigError(f"unknown field {key!r}", f"{path}:[{section}]")
            name, end = _field_of(key)
            default = read.get(name, getattr(owner, name))
            value = _parse_value(raw, default if end is None else default[end],
                                 f"{path}:[{section}] {key}")
            if end is not None:
                value = (value, default[1]) if end == 0 else (default[0], value)
            read[name] = value
    return replace(defaults, experiment=replace(defaults.experiment, **experiment),
                   **approaches)


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

    Right after the world is generated, ``writer.start`` gets the row
    iterators of ``world.csv`` and ``projections.csv`` and the rows of
    ``decomposition.csv``, which the run then drops. Then ``writer.add`` gets
    each model's rows as soon as they are scored, the five variants of
    ``approaches.VARIANTS`` in turn, and ``writer.end_variant`` follows each
    variant. One scorer turns a model's distributions into the report,
    estimate and ``location_mae.csv`` rows of every variant: strategy 1
    calls it once per model, and strategies 2 and 3 hand it each model's
    distributions as they are built and then drop them, so only one model's
    samples and rows are alive at a time. Only ``report.csv``'s rows are
    kept, in ``VARIANTS`` order, for the report."""
    config = settings.experiment
    world, ensemble = world_gen.generate(config)
    errs = world_gen.true_errors(world, ensemble)
    spec = SplineSpec(basis_dim=settings.basis_dim)
    true_errors = errs.tolist()   # [m][l][j], once for every builder call
    writer.start(_world_tables(world, ensemble), _decomposition_rows(world, ensemble))

    report_rows = []

    def hand_over(tables, located):
        report_rows.extend(tables["report.csv"])
        writer.add(tables, located)

    # Strategies and builders are looked up at call time, so span wrappers
    # swapped in after import (benchmarks/spans.py) see every call.
    for approach_id, variant in approaches.VARIANTS:
        ids = (approach_id, variant)

        def score(pooled, ordered, estimates):
            """One model's report, pooled estimate and ``location_mae.csv``
            rows by file name, and its per-location estimate rows:
            ``pooled`` maps its (m, j) to a distribution or None (empty),
            ``ordered[j]`` holds scenario j's pooled samples, sorted or not,
            and ``estimates`` yields its ((m, j, l), summary) per-location
            estimates. It is read once, so no list of them is held beside
            their rows: one raised many_models' peak memory."""
            tables = {
                "report.csv": _report_rows(world, errs, ordered, *ids, pooled),
                "approach_estimates.csv": _estimate_rows(*ids, (
                    ((m, j, POOLED), dist.summary) for (m, j), dist in pooled.items()
                    if dist is not None))}
            located = _estimate_rows(*ids, estimates)
            tables["location_mae.csv"] = _location_mae_rows(true_errors, located)
            return tables, located

        if approach_id == APPROACH_PLAUSIBLE:
            def plausible(result):
                """Score strategy 1 one model at a time, its point errors
                as one-sample estimates; what it holds goes on return."""
                chosen = [(j, l) for l, j in
                          enumerate(result.selection.chosen_index.tolist()) if j >= 0]
                deviation = result.selection.deviation.tolist()
                for m, errors in enumerate(result.point_errors.tolist()):
                    pooled = {(m, j): result.pooled[(m, j)]
                              for j in range(world.n_scenarios)}
                    samples = [None if dist is None else dist.samples
                               for dist in pooled.values()]
                    points = (((m, j, l), (errors[l],) * 6 + (1,)) for j, l in chosen)
                    tables, located = score(pooled, samples, points)
                    tables["a1_deviation.csv"] = _a1_deviation_rows(
                        true_errors, deviation, located)
                    hand_over(tables, located)

            plausible(approaches.evaluate_plausible(
                world, ensemble, settings.plausibility_threshold))
        else:
            # Only strategy 2's error samples imply observations to test.
            implied = approach_id == APPROACH_ERROR_REGRESSION

            def consume(part, ordered):
                tables, located = score(part.pooled, ordered, (
                    (key, dist.summary) for key, dist in part.per_location.items()))
                if implied:
                    tables["implied_obs_ks.csv"] = _implied_obs_rows(
                        world, ensemble, variant, part)
                hand_over(tables, located)

            infer = (approaches.infer_error_distribution if implied
                     else approaches.infer_observations)
            infer(world, ensemble, variant == VARIANT_COVARIATE,
                  settings.n_samples, config.seed, spec, consume)
        writer.end_variant()

    return EvaluationReport(settings=settings, world=world, ensemble=ensemble,
                            report_rows=report_rows)


REPORT_HEADER = ("approach", "variant", "model_id", "scenario_index", "scenario_x",
                 "n_est", "est_mean", "true_mean", "mae_of_means",
                 "ks_d", "ks_n", "ks_m", "ks_critical", "ks_significant")


def _report_rows(world, errs, ordered, approach_id, variant, pooled):
    """One row per distribution of ``pooled``, (m, j) -> distribution or None
    (empty), in its order; the KS test reads scenario j's samples from
    ``ordered[j]``."""
    rows = []
    for (m, j), dist in pooled.items():
        true_vec = errs[m, :, j]
        base = (approach_id, variant, m, j, float(world.scenario_values[j]))
        if dist is None:
            rows.append(base + (0, "", float(true_vec.mean()), "",
                                "", "", "", "", ""))
            continue
        mae = metrics.mae_of_means(dist.summary.mean, true_vec)
        if dist.samples.size >= 5:
            ks = metrics.ks_two_sample(ordered[j], true_vec)
            ks_part = (ks.statistic, ks.n, ks.m, ks.critical_value,
                       "true" if ks.significant else "false")
        else:
            ks_part = ("", "", "", "", "")
        rows.append(base + (dist.samples.size, dist.summary.mean,
                            float(true_vec.mean()), mae) + ks_part)
    return rows


ESTIMATE_HEADER = ("approach", "variant", "model_id", "scenario_index",
                   "location_id", "mean", "median", "q25", "q75", "q05", "q95",
                   "n_samples")


def _estimate_rows(approach_id, variant, estimates):
    """One row per ((m, j, l), summary) of ``estimates``, in their order;
    the summary, a ``DistributionSummary`` or a tuple in its field order,
    is the header's mean to n_samples. ``_location_mae_rows`` and
    ``_a1_deviation_rows`` read these rows."""
    return [(approach_id, variant, m, j, l) + summary
            for (m, j, l), summary in estimates]


DECOMPOSITION_HEADER = ("model_id", "location_id", "scenario_index",
                        "observed_deviation", "calibration_error",
                        "scenario_spec_error", "total_error")


def _decomposition_rows(world, ensemble):
    """One row per (model, location, scenario), model-major, from a single
    elementwise ``metrics.decompose`` over the projection array. The rows
    are made only as they are read, so the run holds the four columns as
    arrays, not its M x L x S rows."""
    shape = ensemble.projections.shape
    d = metrics.decompose(ensemble.projections,
                          np.broadcast_to(world.y_counterfactual, shape),
                          np.broadcast_to(world.y_observed[:, None], shape))
    return _Rows(shape, [getattr(d, f.name).ravel() for f in fields(d)])


class _Rows:
    """The rows ``ids + values`` of a table: ``ids`` each index of
    ``shape`` in row-major order, ``values`` the matching entries of the
    flat ``columns``. ``len`` counts them; iterating makes them."""

    def __init__(self, shape: tuple, columns: list):
        self.shape, self.columns = shape, columns

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __iter__(self):
        values = zip(*(column.tolist() for column in self.columns))
        return (ids + row for ids, row in zip(np.ndindex(self.shape), values))


A1_DEVIATION_HEADER = ("model_id", "location_id", "plausible_scenario",
                       "deviation", "abs_difference")


def _a1_deviation_rows(true_errors, deviation, estimate_rows):
    """Strategy 1's rows from its per-location ``approach_estimates.csv``
    rows, whose mean is the point error; ``deviation`` is each location's,
    ``true_errors`` the true error array, both as (nested) lists. Each
    estimate row is unpacked whole, faster than a starred target."""
    return [(m, l, j, deviation[l], abs(mean - true_errors[m][l][j]))
            for _, _, m, j, l, mean, _, _, _, _, _, _ in estimate_rows]


IMPLIED_OBS_HEADER = ("variant", "model_id", "scenario_index", "ks_d",
                      "ks_critical", "ks_significant")


def _implied_obs_rows(world, ensemble, variant, result):
    """Strategy 2's rows: the KS test of the observations each pooled
    distribution of ``result`` implies."""
    rows = []
    for m, j in result.pooled:
        implied = approaches.implied_observations(result, ensemble, world, m, j)
        implied.sort()   # in place: the KS test then needs no sorted copy
        ks = metrics.ks_two_sample(implied, world.y_counterfactual[:, j])
        rows.append((variant, m, j, ks.statistic, ks.critical_value,
                     "true" if ks.significant else "false"))
    return rows


LOCATION_MAE_HEADER = ("approach", "variant", "model_id", "scenario_index",
                       "location_id", "abs_difference")


def _location_mae_rows(true_errors, estimate_rows):
    """One row per per-location ``approach_estimates.csv`` row of
    ``estimate_rows``: how far its mean is from the true error;
    ``true_errors`` is the true error array as nested lists. Each estimate
    row is unpacked whole, faster than a starred target."""
    return [(approach_id, variant, m, j, l, abs(mean - true_errors[m][l][j]))
            for approach_id, variant, m, j, l, mean, _, _, _, _, _, _ in estimate_rows]


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
DATA_FILES = tuple(_HEADERS)   # in the order the writer creates them


def _world_tables(world, ensemble) -> dict:
    """``world.csv`` and ``projections.csv``; the rows are made as the
    writer formats them, never held as rows."""
    return {"world.csv": _world_rows(world),
            "projections.csv": _projection_rows(world, ensemble)}


def _lines(name: str, rows) -> bytes:
    """``rows`` as the lines of table ``name``, UTF-8 encoded. Each row
    fills the table's one line template, so a row of another length, or a
    list, raises ``TypeError``."""
    line = ",".join(["%s"] * len(_HEADERS[name])) + "\n"
    return "".join(map(line.__mod__, rows)).encode()


def _table(name: str, rows) -> bytes:
    """Table ``name`` whole: its header line, then ``rows``."""
    return _lines(name, (_HEADERS[name],)) + _lines(name, rows)


class ReportWriter:
    """The run's one writer, fed one model's rows at a time.

    ``start`` makes the directory, removes an old manifest, which would list
    files this run is replacing, and forks the writer process
    (``fanout.Feed``). The writer makes a ``_ReportFiles`` from the world's
    row iterators and ``decomposition.csv``'s rows in its copy of the run's
    memory, so nothing of them is pickled, and writes those three tables
    whole as it starts. ``add`` then pickles one model's rows into its pipe
    and returns. ``close`` waits for the writer to write them all and
    returns every data file's SHA-256 digest. A failure of the writer is
    raised by the next ``add``, ``end_variant`` or ``close``; leaving a
    ``with`` block kills a writer still running."""

    def __init__(self, out_dir):
        self.out = Path(out_dir)
        self._feed = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._feed is not None:
            self._feed.__exit__(*exc_info)

    def start(self, tables: dict, decomposition) -> None:
        """Start the writer: ``tables`` maps ``world.csv`` and
        ``projections.csv`` to their row iterators, ``decomposition`` is
        ``decomposition.csv``'s rows."""
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / MANIFEST_FILE).unlink(missing_ok=True)
        tables = {**tables, "decomposition.csv": decomposition}
        self._feed = fanout.Feed(lambda: _ReportFiles(self.out, tables))

    def add(self, tables: dict, located: list) -> None:
        """One model's rows: ``tables`` maps file names to rows written now,
        ``located`` is its per-location ``approach_estimates.csv`` rows,
        written after every model's pooled rows, at ``end_variant``."""
        self._feed.send((tables, located))

    def end_variant(self) -> None:
        self._feed.send(None)

    def close(self) -> dict:
        """The SHA-256 digest of each data file by name, once all are written."""
        return self._feed.close()


class _ReportFiles:
    """The writer's side of a ``ReportWriter``: it formats, writes and
    hashes every data file, in the writer process or, where ``fanout`` runs
    serially, in the run's own. It creates every data file as it starts, in
    ``DATA_FILES`` order, writing the tables it is given whole, then appends
    each model's rows. It holds the current variant's per-location estimate
    rows as text until the variant ends. Each write opens its file and
    closes it again, so a failed run leaves no file open."""

    def __init__(self, out: Path, tables: dict):
        self.out = out
        self._digests = {}   # file name -> SHA-256 of the bytes written so far
        self._held = []      # the current variant's per-location estimate lines
        for name in DATA_FILES:
            self._write(name, _table(name, tables.get(name, ())), "wb")

    def _write(self, name: str, data: bytes, mode: str = "ab") -> None:
        with open(self.out / name, mode) as handle:
            handle.write(data)
        self._digests.setdefault(name, hashlib.sha256()).update(data)

    def take(self, message) -> None:
        """Write one ``ReportWriter.add``'s rows, or at None, the end of a
        variant, its held per-location estimates."""
        if message is None:
            self._write("approach_estimates.csv", b"".join(self._held))
            self._held = []
            return
        tables, located = message
        for name, rows in tables.items():
            self._write(name, _lines(name, rows))
        self._held.append(_lines("approach_estimates.csv", located))

    def close(self) -> dict:
        return {name: digest.hexdigest() for name, digest in self._digests.items()}


def write_report(report: EvaluationReport, writer: ReportWriter) -> dict:
    """Finish the report ``evaluate`` fed to ``writer``: close it and
    write the manifest, with its digests, to its directory; returns the
    manifest dict. ``config_sha256`` is the SHA-256 of the effective
    settings, ``asdict(report.settings)`` as JSON with sorted keys, however
    they were given: a config file, defaults or a ``--seed`` override."""
    digests = writer.close()
    settings = json.dumps(asdict(report.settings), sort_keys=True).encode()
    manifest = {
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "seed": report.settings.experiment.seed,
        "config_sha256": hashlib.sha256(settings).hexdigest(),
        "n_locations": report.settings.experiment.n_locations,
        "n_models": report.settings.experiment.n_models,
        "redraw_count": report.ensemble.redraw_count,
        "files": digests,
    }
    with open(writer.out / MANIFEST_FILE, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def run(config_path, out_dir, seed: int | None = None) -> EvaluationReport:
    """Load settings (or defaults when ``config_path`` is None), override
    their seed with ``seed`` if given, evaluate, and write the report
    directory. The config file is read once; the manifest hashes the
    settings it gave, not its bytes."""
    settings = RunSettings() if config_path is None else load_settings(config_path)
    if seed is not None:
        settings = replace(settings,
                           experiment=replace(settings.experiment, seed=seed))
    with ReportWriter(out_dir) as writer:
        report = evaluate(settings, writer)
        write_report(report, writer)
    return report


def resolve_out_dir(cli_value: str | None, default: str = "scenario_eval_report") -> Path:
    """Output directory precedence: explicit CLI value, then the
    SCENARIO_EVAL_OUT environment variable, then the default."""
    if cli_value is not None:
        return Path(cli_value)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path(default)
