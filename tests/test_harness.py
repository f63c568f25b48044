import collections
import configparser
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_eval import approaches, cli, harness, metrics, plots, sir_core, world_gen
from scenario_eval.errors import ConfigError

from conftest import assert_no_child_processes, time_limit, use_cpus

FAST_CONFIG = """\
[experiment]
n_locations = 12
n_models = 2
seed = 3

[sir]
horizon = 200
step = 0.5

[approaches]
n_samples = 600
"""


# A quick world for CLI failure cases; later sections extend it.
CLI_SMALL = """\
[sir]
horizon = 200
step = 0.5

"""

# Each must exit 2 from the CLI, within a time cap: input problems that are
# not numerical failures, including removed fields and a redraw loop that
# can never succeed.
BAD_CONFIGS = [
    "[experiment]\nn_locations = -2\n",
    b"[experiment]\nseed = 5\n# \xff\n",
    "[approaches]\nthreads = 1\n",
    "[approaches]\nrun_approach1 = false\n",
    "[approaches]\nrun_approach2 = false\n",
    "[approaches]\nrun_approach3 = false\n",
    "[approaches]\ncovariate_variants = false\n",
    "[experiment]\nr0_true_low = -1\nr0_true_high = -0.5\n"
    "global_bias_sd = 0\nlocal_bias_sd = 0\n",
    CLI_SMALL + "[experiment]\nseed = 1\nr0_true_low = 0\nr0_true_high = 0.1\n"
    "global_bias_sd = 5\nlocal_bias_sd = 0\n",
    CLI_SMALL + "[approaches]\nbasis_dim = 3\n",
    "[sir]\nhorizon = inf\n",
    "[sir]\nhorizon = 200\nstep = 300\n",
    "[sir]\ninfectious_period = nan\n",
    "[sir]\nstep = 1e-300\n",
    "[sir]\nhorizon = 1e12\n",
    "[approaches]\nn_samples = 30\n",
    "[approaches]\nplausibility_threshold = nan\n",
    "[approaches]\nplausibility_threshold = -1\n",
    "[experiment]\nx_realized_high = inf\n",
    "[experiment]\nx_realized_high = 1.5\n",
    "[experiment]\nr0_true_high = inf\n",
    "[experiment]\nalpha_center_high = inf\n",
    "[experiment]\nalpha_true_sd = nan\n",
    "[experiment]\nalpha_true_mean = nan\n",
    "[experiment]\nglobal_bias_sd = nan\n",
    "[experiment]\nalpha_true_sd = 0.5\n",
    "[experiment]\nalpha_model_sd = 0.6\n",
    "[experiment]\nglobal_bias_sd = 1e308\nlocal_bias_sd = 1e308\n",
    "[experiment]\nseed = 18446744073709551616\n",
    "[experiment]\nn_locations = 9999999999999999999999999\n",
    "[approaches]\nn_samples = 9999999999999999999999999\n",
    "[experiment]\nseed = 5%\n",
    "[experiment]\nn_models = %(x)s\n",
    "[DEFAULT]\nseed = 3\n",
]


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


def readme_defaults() -> str:
    """README's "Defaults shown" config block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(r"Defaults shown:\n\n```ini\n(.*?)```", readme, re.S).group(1)


def digest_dir(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))}


class TestConfigLoading:
    def test_defaults_when_unset(self, tmp_path):
        settings = harness.load_settings(write_config(tmp_path, "[experiment]\nseed = 5\n"))
        assert settings.experiment.seed == 5
        assert settings.experiment.n_locations == 50
        assert settings.n_samples == 10_000

    def test_full_roundtrip(self, tmp_path):
        text = """\
[experiment]
n_locations = 20
n_models = 4
scenario_values = 0.25, 0.45
seed = 99
x_realized_low = 0.25
x_realized_high = 0.45
perfect_models = true

[sir]
infectious_period = 8
initial_infected = 0.002
population = 2000
horizon = 400
step = 0.5

[approaches]
n_samples = 1000
basis_dim = 4
plausibility_threshold = 0.08
"""
        settings = harness.load_settings(write_config(tmp_path, text))
        exp = settings.experiment
        assert exp.n_locations == 20 and exp.n_models == 4
        assert exp.scenario_values == (0.25, 0.45)
        assert exp.x_realized_range == (0.25, 0.45)
        assert exp.perfect_models is True
        assert exp.infectious_period == 8 and exp.i0 == 0.002
        assert exp.population == 2000 and exp.horizon == 400 and exp.step == 0.5
        assert settings.basis_dim == 4
        assert settings.plausibility_threshold == 0.08

    @pytest.mark.parametrize("text,fragment", [
        ("[experiment]\nn_locations = abc\n", "n_locations"),
        ("[experiment]\nmystery = 3\n", "mystery"),
        ("[mystery]\nseed = 1\n", "unknown section"),
        ("not an ini file at all", "contains no section"),
        (b"[experiment]\nseed = 5\n# \xff\n", "run.cfg: not valid UTF-8 text"),
        ("[experiment]\nseed = -4\n", "seed"),
        ("[approaches]\nn_samples = 30\n", "approaches.n_samples"),
        ("[approaches]\nplausibility_threshold = nan\n", "plausibility_threshold"),
        ("[approaches]\nplausibility_threshold = -1\n", "plausibility_threshold"),
        ("[approaches]\nrun_approach1 = false\n", "unknown field 'run_approach1'"),
        ("[approaches]\nrun_approach2 = false\n", "unknown field 'run_approach2'"),
        ("[approaches]\nrun_approach3 = false\n", "unknown field 'run_approach3'"),
        ("[approaches]\ncovariate_variants = false\n",
         "unknown field 'covariate_variants'"),
        # Values are not interpolated, and [DEFAULT] is an unknown section.
        ("[experiment]\nseed = 5%\n", "run.cfg:[experiment] seed: invalid literal"),
        ("[experiment]\nn_models = %(x)s\n", "run.cfg:[experiment] n_models"),
        ("[DEFAULT]\nseed = 3\n", "run.cfg: unknown section [DEFAULT]"),
        ("[DEFAULT]\nbogus = 3\n", "run.cfg: unknown section [DEFAULT]"),
        ("[experiment]\nseed = 4\n[DEFAULT]\nseed = 3\n",
         "run.cfg: unknown section [DEFAULT]"),
    ])
    def test_diagnostics(self, tmp_path, text, fragment):
        with pytest.raises(ConfigError) as info:
            harness.load_settings(write_config(tmp_path, text))
        assert fragment in str(info.value)

    def test_readme_sample_config_is_the_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = re.search(r"Defaults shown:\n\n```ini\n(.*?)```", readme, re.S)
        assert block, "README has no 'Defaults shown' ini block"
        settings = harness.load_settings(write_config(tmp_path, block.group(1)))
        assert settings == harness.RunSettings()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.load_settings(tmp_path / "nope.cfg")

    def test_range_ends_set_apart(self, tmp_path):
        settings = harness.load_settings(write_config(
            tmp_path, "[experiment]\nr0_true_high = 4\nalpha_center_high = 1.02\n"
            "alpha_center_low = 0.9\n"))
        assert settings.experiment.r0_true_range == (2.0, 4.0)
        assert settings.experiment.alpha_center_range == (0.9, 1.02)

    def test_config_fields_are_readme_keys_and_reach_every_field_once(self):
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        parser.read_string(readme_defaults())
        assert [(section, tuple(parser[section])) for section in parser.sections()] \
            == list(harness.CONFIG_FIELDS.items())
        reached = collections.defaultdict(list)   # (class, field) -> ends reached
        for section, keys in harness.CONFIG_FIELDS.items():
            owner = "RunSettings" if section == "approaches" else "ExperimentConfig"
            for key in keys:
                name, end = harness._field_of(key)
                reached[owner, name].append(end)
        assert sorted(reached) == sorted(
            [("ExperimentConfig", f.name) for f in dataclasses.fields(world_gen.ExperimentConfig)]
            + [("RunSettings", f.name) for f in dataclasses.fields(harness.RunSettings)
               if f.name != "experiment"])
        assert all(ends in ([None], [0, 1]) for ends in reached.values()), reached
        assert len(PROPERTY_FIELDS) == 24

    def test_readme_report_files_list_the_written_columns(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        listed = dict(re.findall(r"^\| `([a-z_0-9]+\.csv)` \| `([^`]*)`", readme, re.M))
        assert listed == {name: ", ".join(harness._HEADERS[name])
                          for name in harness.DATA_FILES}

    def test_basis_dim_below_cubic_exits_2_before_any_solve(self, tmp_path, monkeypatch,
                                                          capsys):
        def no_world(config):
            raise AssertionError("world generated for a config that cannot run")

        monkeypatch.setattr(world_gen, "generate", no_world)
        config = write_config(tmp_path, "[approaches]\nbasis_dim = 2\n")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: approaches.basis_dim: ")
        assert "must be >= 4 for a cubic basis, got 2" in err
        assert not (tmp_path / "o").exists()

    def test_spline_needs_enough_locations(self):
        with pytest.raises(ConfigError) as info:
            harness.RunSettings(
                experiment=world_gen.ExperimentConfig(n_locations=6))
        assert "n_locations" in str(info.value)

    @pytest.mark.parametrize("field, value", [
        ("n_samples", 10_000.0), ("basis_dim", True), ("plausibility_threshold", "0.1")])
    def test_number_field_of_another_type_names_it(self, field, value):
        with pytest.raises(ConfigError) as info:
            harness.RunSettings(**{field: value})
        assert str(info.value).startswith(f"approaches.{field}: must be ")

    def test_sample_budget_covers_locations(self):
        experiment = world_gen.ExperimentConfig(n_locations=40)
        with pytest.raises(ConfigError) as info:
            harness.RunSettings(experiment=experiment, n_samples=39)
        assert "approaches.n_samples" in str(info.value)
        assert "40" in str(info.value)
        harness.RunSettings(experiment=experiment, n_samples=40)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = write_config(tmp, FAST_CONFIG)
    report = harness.run(config, tmp / "out")
    return tmp, config, report


@pytest.fixture(scope="module")
def plotted(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plots")
    config_path = tmp / "run.cfg"
    config_path.write_text(FAST_CONFIG, encoding="utf-8")
    harness.run(config_path, tmp / "out")
    plots.plot_report_dir(tmp / "out")
    return tmp / "out"


def _config_sha256(out_dir) -> str:
    return json.loads((Path(out_dir) / harness.MANIFEST_FILE).read_text())["config_sha256"]


class TestConfigHash:
    # The manifest's config_sha256 is the SHA-256 of the effective settings,
    # however they were given; run_dir ran FAST_CONFIG from a regular file.
    def test_comments_key_order_and_defaults_do_not_change_it(self, run_dir, tmp_path):
        text = ("# FAST_CONFIG, reordered\n[approaches]\nbasis_dim = 5\nn_samples = 600\n"
                "[sir]\nstep = 0.5\n# a comment\nhorizon = 200\n"
                "[experiment]\nseed = 3\nn_models = 2\nn_locations = 12\n")
        harness.run(write_config(tmp_path, text), tmp_path / "out")
        assert _config_sha256(tmp_path / "out") == _config_sha256(run_dir[0] / "out")

    def test_seed_override_hashes_as_the_file_seed(self, run_dir, tmp_path):
        config = write_config(tmp_path, FAST_CONFIG.replace("seed = 3", "seed = 9"))
        harness.run(config, tmp_path / "out", seed=3)
        assert _config_sha256(tmp_path / "out") == _config_sha256(run_dir[0] / "out")

    def test_defaults_hash_as_readme_defaults(self, tmp_path):
        harness.run(None, tmp_path / "defaults")
        harness.run(write_config(tmp_path, readme_defaults()), tmp_path / "readme")
        settings = json.dumps(dataclasses.asdict(harness.RunSettings()), sort_keys=True)
        assert _config_sha256(tmp_path / "defaults") == _config_sha256(tmp_path / "readme") \
            == hashlib.sha256(settings.encode()).hexdigest()

    def test_fifo_hashes_as_a_regular_file(self, run_dir, tmp_path):
        # The config is read once: a second read of a drained pipe hashed
        # no bytes at all, or waited for a writer that never came.
        fifo = tmp_path / "config.fifo"
        os.mkfifo(fifo)
        feeder = threading.Thread(target=fifo.write_text, args=(FAST_CONFIG,), daemon=True)
        feeder.start()
        with time_limit(30):
            harness.run(fifo, tmp_path / "out")
        feeder.join(10)
        assert _config_sha256(tmp_path / "out") == _config_sha256(run_dir[0] / "out")

    def test_library_settings_of_other_number_types_hash_alike(self, run_dir, tmp_path):
        # An int for a float field and a numpy integer for an int field are
        # stored as the field's type, so equal settings hash alike.
        given = harness.load_settings(run_dir[1])
        given = dataclasses.replace(given, n_samples=np.int64(600), experiment=dataclasses.replace(
            given.experiment, horizon=200, r0_true_range=(2, 3), n_models=np.int32(2)))
        assert given == harness.load_settings(run_dir[1])
        with harness.ReportWriter(tmp_path / "out") as writer:
            harness.write_report(harness.evaluate(given, writer), writer)
        assert _config_sha256(tmp_path / "out") == _config_sha256(run_dir[0] / "out")


class TestRunOutputs:
    def test_all_files_present(self, run_dir):
        tmp, _, _ = run_dir
        for name in harness.DATA_FILES + (harness.MANIFEST_FILE,):
            assert (tmp / "out" / name).exists()

    def test_report_row_count(self, run_dir):
        tmp, _, report = run_dir
        # 5 approach-variants x models x scenarios
        assert len(report.report_rows) == 5 * 2 * 2
        with open(tmp / "out" / "report.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5 * 2 * 2

    def test_manifest_digests_match_files(self, run_dir):
        tmp, _, _ = run_dir
        manifest = json.loads((tmp / "out" / harness.MANIFEST_FILE).read_text())
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((tmp / "out" / name).read_bytes()).hexdigest()
            assert actual == digest
        assert manifest["seed"] == 3

    def test_rerun_identical_data_files(self, run_dir):
        tmp, config, _ = run_dir
        harness.run(config, tmp / "out2")
        assert digest_dir(tmp / "out") == digest_dir(tmp / "out2")

    def test_seed_override_changes_world(self, run_dir):
        tmp, config, _ = run_dir
        harness.run(config, tmp / "out_seed", seed=12)
        assert digest_dir(tmp / "out") != digest_dir(tmp / "out_seed")

    def test_decomposition_identity_in_file(self, run_dir):
        tmp, _, _ = run_dir
        with open(tmp / "out" / "decomposition.csv", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                observed = float(row["observed_deviation"])
                parts = float(row["calibration_error"]) + float(row["scenario_spec_error"])
                assert abs(observed - parts) <= 1e-12

    def test_report_recomputable_from_data_files(self, run_dir):
        # true means in report.csv must be derivable from decomposition.csv's
        # calibration errors alone; estimate means from approach_estimates.csv.
        tmp, _, _ = run_dir
        out = tmp / "out"
        true_means = {}
        for r in _csv_rows(out / "decomposition.csv"):
            true_means.setdefault((int(r["model_id"]), int(r["scenario_index"])),
                                  []).append(float(r["calibration_error"]))
        with open(out / "approach_estimates.csv", encoding="utf-8") as handle:
            est_means = {(r["approach"], r["variant"], int(r["model_id"]),
                          int(r["scenario_index"])): float(r["mean"])
                         for r in csv.DictReader(handle)
                         if r["location_id"] == "-1"}
        with open(out / "report.csv", encoding="utf-8") as handle:
            for r in csv.DictReader(handle):
                if r["n_est"] == "0":
                    continue
                m = int(r["model_id"])
                j = int(r["scenario_index"])
                expected_true = np.mean(true_means[(m, j)])
                assert float(r["true_mean"]) == pytest.approx(expected_true, abs=1e-12)
                est = est_means[(r["approach"], r["variant"], m, j)]
                assert float(r["mae_of_means"]) == pytest.approx(
                    abs(est - expected_true), abs=1e-12)


    def test_dropped_columns_recomputable_bit_for_bit(self, run_dir):
        # Each value a data file leaves out because another file holds it
        # is recomputed from the files that remain, with the same bits as
        # the run's own arrays.
        tmp, _, report = run_dir
        out, world, ensemble = tmp / "out", report.world, report.ensemble
        kinds = harness._x_kinds(world.n_scenarios)
        points = {(int(r["location_id"]), r["x_kind"]): (float(r["x_value"]),
                                                          float(r["y_value"]))
                  for r in _csv_rows(out / "world.csv")}
        for (l, kind), (x, y) in points.items():
            j = kinds.index(kind)
            if kind == "realized":
                assert (x, y) == (world.x_realized[l], world.y_observed[l])
            else:
                assert (x, y) == (world.scenario_values[j], world.y_counterfactual[l, j])
        projected = {}
        for r in _csv_rows(out / "projections.csv"):
            m, l, j = int(r["model_id"]), int(r["location_id"]), kinds.index(r["x_kind"])
            projected[(m, l, j)] = float(r["y_projected"])
            modeled = (ensemble.reprojection[m, l] if r["x_kind"] == "realized"
                       else ensemble.projections[m, l, j])
            assert projected[(m, l, j)] == modeled
        errs = world_gen.true_errors(world, ensemble)
        calibration = {}
        for r in _csv_rows(out / "decomposition.csv"):
            m, l, j = (int(r[name]) for name in ("model_id", "location_id", "scenario_index"))
            y_model = projected[(m, l, j)]
            counterfactual = points[(l, kinds[j])][1]
            realized = points[(l, "realized")][1]
            calibration[(m, l, j)] = float(r["calibration_error"])
            assert calibration[(m, l, j)] == y_model - counterfactual == errs[m, l, j]
            assert float(r["scenario_spec_error"]) == counterfactual - realized
            assert float(r["observed_deviation"]) == y_model - realized
            assert float(r["total_error"]) == (abs(calibration[(m, l, j)])
                                               + abs(counterfactual - realized))
        located = {}   # per-location estimate means
        for r in _csv_rows(out / "approach_estimates.csv"):
            if r["location_id"] != "-1":
                key = (r["approach"], r["variant"], *(int(r[name]) for name in (
                    "model_id", "scenario_index", "location_id")))
                located[key] = float(r["mean"])
        mae_keys = []
        for r in _csv_rows(out / "location_mae.csv"):
            key = (r["approach"], r["variant"], *(int(r[name]) for name in (
                "model_id", "scenario_index", "location_id")))
            mae_keys.append(key)
            assert float(r["abs_difference"]) == abs(
                located[key] - calibration[(key[2], key[4], key[3])])
        assert mae_keys == list(located)
        a1_keys = []
        for r in _csv_rows(out / "a1_deviation.csv"):
            m, l, j = (int(r[name]) for name in ("model_id", "location_id",
                                                 "plausible_scenario"))
            a1_keys.append(("1", "plausible", m, j, l))
            assert float(r["abs_difference"]) == abs(
                located[("1", "plausible", m, j, l)] - calibration[(m, l, j)])
            assert float(r["deviation"]) == abs(points[(l, "realized")][0]
                                                - points[(l, kinds[j])][0])
        assert sorted(a1_keys) == sorted(key for key in located if key[0] == "1")


def _csv_rows(path):
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def small_world(**overrides):
    config = dict(n_locations=8, n_models=3, horizon=200.0, step=0.5)
    config.update(overrides)
    return world_gen.generate(world_gen.ExperimentConfig(**config))


class TestTables:
    def test_projection_rows_schema_and_values(self):
        world, ensemble = small_world(seed=6)
        rows = list(harness._projection_rows(world, ensemble))
        # one row per (model, location, scenario point + realized)
        assert len(rows) == 3 * 8 * (2 + 1)
        assert {len(row) for row in rows} == {len(harness.PROJECTIONS_HEADER)}
        kinds = {row[2] for row in rows}
        assert kinds == {"scenario_low", "scenario_high", "realized"}
        assert rows[0] == (0, 0, "scenario_low", ensemble.projections[0, 0, 0])
        assert rows[2] == (0, 0, "realized", ensemble.reprojection[0, 0])

    def test_projection_rows_three_scenario_labels(self):
        world, ensemble = small_world(scenario_values=(0.2, 0.3, 0.4))
        kinds = {row[2] for row in harness._projection_rows(world, ensemble)}
        assert kinds == {"scenario_0", "scenario_1", "scenario_2", "realized"}

    def test_values_are_csv_scalars(self):
        # The row templates write these as csv.writer would: float by repr,
        # int and str by str (tests/test_row_format.py). A bool would be
        # written "True", not as the flag "true".
        writer = CollectingWriter()
        report = harness.evaluate(harness.RunSettings(), writer)
        tables = writer.tables
        assert all(tables.values())
        types = {type(value) for rows in tables.values() for row in rows for value in row}
        assert types == {int, float, str}
        flags = {row[-1] for name in ("report.csv", "implied_obs_ks.csv")
                 for row in tables[name]}
        assert flags == {"true", "false"}
        assert report.report_rows == tables["report.csv"]

    def test_decomposition_rows_match_scalar_loop(self):
        world, ensemble = small_world(seed=9, scenario_values=(0.2, 0.3, 0.4))
        expected = []
        for m in range(ensemble.n_models):
            for l in range(world.n_locations):
                for j in range(world.n_scenarios):
                    d = metrics.decompose(float(ensemble.projections[m, l, j]),
                                          float(world.y_counterfactual[l, j]),
                                          float(world.y_observed[l]))
                    expected.append((m, l, j, d.observed_deviation,
                                     d.calibration_error, d.scenario_spec_error,
                                     d.total_error))
        assert repr(list(harness._decomposition_rows(world, ensemble))) == repr(expected)


class CollectingWriter:
    """Stands in for ``harness.ReportWriter`` where a test needs the rows
    ``evaluate`` hands over: keeps them all, by file name."""

    def __init__(self):
        self.tables = {name: [] for name in harness.DATA_FILES}

    def start(self, tables, decomposition):
        self.add(dict(tables, **{"decomposition.csv": decomposition}), [])

    def add(self, tables, located):
        for name, rows in tables.items():
            self.tables[name] += rows
        self.tables["approach_estimates.csv"] += located

    def end_variant(self):
        pass


def test_evaluate_holds_one_variant_of_samples_at_a_time():
    # Each variant is scored and released before the next is estimated, so
    # the traced peak stays below two variants' pooled samples
    # (M x S x n_samples float64 each) and what is left, the report and
    # every row kept by the writer, below one variant's.
    settings = harness.RunSettings(n_samples=40_000)
    config = settings.experiment
    one_variant = config.n_models * len(config.scenario_values) * settings.n_samples * 8
    writer = CollectingWriter()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = harness.evaluate(settings, writer)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 2 * one_variant
    assert held - before < one_variant
    assert len(report.report_rows) == 5 * config.n_models * len(config.scenario_values)
    assert len(writer.tables["report.csv"]) == len(report.report_rows)


def test_evaluate_holds_one_model_of_samples_at_a_time():
    # Strategies 2 and 3 hand each model's distributions to the scorer as
    # they are built, so the traced peak is a few times one model's pooled
    # samples (S x n_samples float64): its samples and their sorted copies,
    # strategy 3's shared observations and a sort's scratch. Holding a whole
    # variant's (M = 10 models) would peak above ten times that.
    settings = harness.RunSettings(n_samples=200_000)
    config = settings.experiment
    one_model = len(config.scenario_values) * settings.n_samples * 8
    assert config.n_models == 10
    harness.evaluate(harness.RunSettings(), CollectingWriter())   # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = harness.evaluate(settings, CollectingWriter())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 5 * one_model
    assert len(report.report_rows) == 5 * config.n_models * len(config.scenario_values)


# 100 locations x 30 models and 200 samples: many rows, few samples.
MANY_ROWS_CONFIG = """\
[experiment]
n_locations = 100
n_models = 30

[sir]
horizon = 100
step = 0.5

[approaches]
n_samples = 200
"""


def test_run_keeps_no_row_it_has_handed_to_the_writer(tmp_path, monkeypatch):
    # One variant's rows are what the traced memory grows by while its
    # builders run, measured on a run whose writer keeps every row (rows
    # handed over and freed would be rebuilt from the free lists, untraced).
    # A run that kept the rows it has handed to the writer would peak above
    # about six variants' rows.
    grown = collections.Counter()
    scored = []   # (strategy, option) of each strategy call: the variant being scored

    def measured(builder):
        def build(*args):
            start = tracemalloc.get_traced_memory()[0]
            rows = builder(*args)
            grown[scored[-1]] += tracemalloc.get_traced_memory()[0] - start
            return rows
        return build

    def scoring(approach_id, strategy):
        # Strategy 1's option is its threshold, strategies 2 and 3's the covariate.
        def run(world, ensemble, option, *args):
            scored.append((approach_id, option))
            return strategy(world, ensemble, option, *args)
        return run

    harness.run(write_config(tmp_path, FAST_CONFIG), tmp_path / "warm")   # imports
    config = write_config(tmp_path, MANY_ROWS_CONFIG)
    with monkeypatch.context() as patches:
        for name in ("_report_rows", "_estimate_rows", "_a1_deviation_rows",
                     "_implied_obs_rows", "_location_mae_rows"):
            patches.setattr(harness, name, measured(getattr(harness, name)))
        for approach_id, name in enumerate(("evaluate_plausible", "infer_error_distribution",
                                            "infer_observations"), 1):
            patches.setattr(approaches, name, scoring(approach_id, getattr(approaches, name)))
        tracemalloc.start()
        try:
            harness.evaluate(harness.load_settings(config), CollectingWriter())
        finally:
            tracemalloc.stop()
    one_variant = max(grown.values())
    gc.collect()   # empties the free lists, so every row allocated is traced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with time_limit(20):
            report = harness.run(config, tmp_path / "out")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The peak holds one variant's distributions, about twice its rows,
    # and its rows.
    assert peak - before < 4.5 * one_variant
    assert [f.name for f in dataclasses.fields(report) if f.name.endswith("_rows")] \
        == ["report_rows"]
    assert len(report.report_rows) == 5 * 30 * 2
    assert held - before < 2 * one_variant
    assert_no_child_processes()


def _peak_in_strategies_2_and_3(tmp_path, monkeypatch, config):
    """The traced memory a run adds from the start of strategy 2 to its
    end, at its peak."""
    tmp_path.mkdir()
    infer, base = approaches.infer_error_distribution, []

    def first_call_sets_the_base(*args):
        if not base:
            base.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return infer(*args)

    monkeypatch.setattr(approaches, "infer_error_distribution", first_call_sets_the_base)
    gc.collect()
    tracemalloc.start()
    try:
        with time_limit(60):
            harness.run(write_config(tmp_path, config), tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base[0]


def test_parent_holds_one_model_of_rows_while_strategies_2_and_3_run(tmp_path, monkeypatch):
    # Each model's rows go to the writer as soon as they are scored, so the
    # run's peak while strategies 2 and 3 run does not grow with the number
    # of models; one that held a strategy's rows until it ended would peak
    # about twice as high at twice the models.
    use_cpus(monkeypatch, 2)
    harness.run(write_config(tmp_path, FAST_CONFIG), tmp_path / "warm")   # imports
    peaks = [_peak_in_strategies_2_and_3(tmp_path / str(models), monkeypatch,
                                         MANY_ROWS_CONFIG.replace("n_models = 30",
                                                                  f"n_models = {models}"))
             for models in (30, 60)]
    assert peaks[1] < 1.25 * peaks[0], peaks
    assert_no_child_processes()


def test_plot_holds_no_string_table_of_decomposition(tmp_path):
    # plot parses decomposition.csv's drawn columns to floats as it reads
    # them, so its traced peak on a many-row report stays below what those
    # columns take as strings alone, which plot once held whole.
    harness.run(write_config(tmp_path, MANY_ROWS_CONFIG), tmp_path / "out")
    columns = ("scenario_index",) + tuple(name for name, _ in plots.COMPONENTS)
    gc.collect()
    tracemalloc.start()
    try:
        with open(tmp_path / "out" / "decomposition.csv", encoding="utf-8") as handle:
            rows = csv.reader(handle)
            header = next(rows)
            strings = [tuple(row[header.index(name)] for name in columns) for row in rows]
        table = tracemalloc.get_traced_memory()[0]
        del strings
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        plots.plot_report_dir(tmp_path / "out", tmp_path / "figures")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < table


class TestEnvOverride:
    def test_out_dir_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(harness.OUT_DIR_ENV, raising=False)
        assert harness.resolve_out_dir("explicit") == Path("explicit")
        assert harness.resolve_out_dir(None) == Path("scenario_eval_report")
        monkeypatch.setenv(harness.OUT_DIR_ENV, str(tmp_path / "env_out"))
        assert harness.resolve_out_dir(None) == tmp_path / "env_out"
        assert harness.resolve_out_dir("explicit") == Path("explicit")
        # An empty variable counts as unset (README, "Command line").
        monkeypatch.setenv(harness.OUT_DIR_ENV, "")
        assert harness.resolve_out_dir(None) == Path("scenario_eval_report")


def _cut_last_row(text, n_fields):
    """``text`` with its last CSV row cut to its first ``n_fields`` fields."""
    head, last = text.rstrip("\n").rsplit("\n", 1)
    return head + "\n" + ",".join(last.split(",")[:n_fields]) + "\n"


def _append_to_line(text, index, suffix):
    """``text`` with ``suffix`` appended to its line ``index`` (0 is the
    header)."""
    lines = text.splitlines()
    lines[index] += suffix
    return "\n".join(lines) + "\n"


def _pad_line(text, index, length):
    """``text`` with its line ``index`` (0 is the header) padded to
    ``length`` characters by appending to its last field."""
    lines = text.splitlines()
    lines[index] += "x" * (length - len(lines[index]))
    return "\n".join(lines) + "\n"


def _set_column(column, value):
    """An edit of a report file's text that sets ``column`` to ``value`` in
    every row."""
    def edit(text):
        lines = [line.split(",") for line in text.splitlines()]
        at = lines[0].index(column)
        for fields in lines[1:]:
            fields[at] = value
        return "\n".join(",".join(fields) for fields in lines) + "\n"
    return edit


def _set_field(column, value, match=lambda row: True):
    """An edit of a report file's text that sets ``column`` to ``value`` in
    the first row ``match`` accepts (a dict of the row's fields)."""
    def edit(text):
        lines = text.splitlines()
        header = lines[0].split(",")
        for n, line in enumerate(lines[1:], 1):
            fields = line.split(",")
            if match(dict(zip(header, fields))):
                fields[header.index(column)] = value
                lines[n] = ",".join(fields)
                return "\n".join(lines) + "\n"
        raise AssertionError(f"no row to edit for {column}")
    return edit


def _pooled(row):
    return row["location_id"] == "-1"


def _copy_report(source_dir, report, name, edit):
    """Copy the CSVs of ``source_dir`` to ``report``, ``edit`` applied to the
    text of the file called ``name``."""
    report.mkdir(exist_ok=True)
    for source in source_dir.glob("*.csv"):
        text = source.read_text(encoding="utf-8")
        if source.name == name:
            text = edit(text)
        (report / source.name).write_text(text, encoding="utf-8")


class TestCli:
    def test_run_and_plot_roundtrip(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "cli_out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "wrote report" in captured.out
        assert cli.main(["plot", "--in", str(out)]) == 0
        for name in ("error_densities.svg", "accuracy_summary.svg",
                     "decomposition.svg"):
            assert (out / name).exists()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        for k, text in enumerate(BAD_CONFIGS):
            config = write_config(tmp_path, text, f"bad{k}.cfg")
            with time_limit(20):
                code = cli.main(["run", "--config", str(config),
                                 "--out", str(tmp_path / "o")])
            assert code == 2, text
            err = capsys.readouterr().err
            assert "configuration error" in err, text
            assert "Traceback" not in err, text

    @pytest.mark.parametrize("field, fields", [
        ("alpha_true_sd = 0.5", "alpha_true_mean/alpha_true_sd"),
        ("alpha_model_sd = 0.6", "alpha_center_range/alpha_model_sd"),
    ])
    def test_nonpositive_alpha_names_field(self, tmp_path, capsys, field, fields):
        config = write_config(tmp_path, f"[experiment]\n{field}\n")
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert fields in err and "location" in err
        assert "Traceback" not in err

    def test_stiff_alpha_names_its_grid_point(self, tmp_path, capsys):
        # Seed 38 draws a true alpha of 1.95 at location 9, too stiff for
        # step 0.5: exit 3, with the failing solve placed in the grid.
        config = write_config(tmp_path, "[experiment]\nn_locations = 12\n"
                              "n_models = 2\nalpha_true_sd = 0.5\nseed = 38\n"
                              "[sir]\nhorizon = 100\nstep = 0.5\n")
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "truth, location 9, scenario 0" in err
        assert "alpha 1.95427" in err and "smaller [sir] step" in err
        assert "Traceback" not in err

    def test_stiff_world_at_default_step_exits_3(self, tmp_path, capsys):
        # Alphas drawn about 1.5 (model centres up to 1.55) are too stiff for
        # the default step; the same world at 1.45 runs.
        config = write_config(tmp_path, "[experiment]\nalpha_true_mean = 1.5\n"
                              "alpha_center_low = 1.5\nalpha_center_high = 1.55\n")
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"step {sir_core.DEFAULT_STEP} is too large" in err
        assert "try a smaller [sir] step" in err
        assert "Traceback" not in err

    def test_perfect_models_ignore_a_bias_spread_that_needs_endless_redraws(self, tmp_path):
        # Imperfect models with this global bias sd give up after the local
        # bias redraws (exit 2); perfect models would discard every bias.
        config = write_config(tmp_path, "[experiment]\nglobal_bias_sd = 100\n"
                              "perfect_models = true\n" + CLI_SMALL)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--config", str(config),
                             "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / harness.MANIFEST_FILE).read_text())
        assert manifest["redraw_count"] == 0

    def test_perfect_models_ignore_model_alpha_spread(self, tmp_path):
        config = write_config(tmp_path, "[experiment]\nalpha_model_sd = 0.6\n"
                              "perfect_models = true\n" + CLI_SMALL)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--config", str(config),
                             "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("field", ["n_locations", "n_models", "seed"])
    def test_huge_integer_names_its_field(self, tmp_path, capsys, field):
        config = write_config(tmp_path, f"[experiment]\n{field} = {10**24}\n")
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{field}: must fit in a 64-bit integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, fragment", [
        (f"[experiment]\nn_locations = 12\n[approaches]\nn_samples = {2**62}\n",
         "approaches.n_samples: n_samples must be >= 1 and at most"),
        (f"[experiment]\nn_models = {2**62}\n", "n_models: must be at most"),
        (f"[experiment]\nn_locations = {2**62}\n", "n_locations: must be at most"),
        (f"[experiment]\nn_models = {2**56}\n", "n_models/n_locations: the solve grid"),
    ], ids=["n_samples", "n_models", "n_locations", "grid"])
    def test_unaddressable_size_names_its_field(self, tmp_path, capsys, text, fragment):
        # These fit in 64 bits, but not their float64 arrays in numpy's
        # address range: rejected before anything is allocated.
        config = write_config(tmp_path, text)
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert fragment in err and "numpy can address" in err
        assert "Traceback" not in err

    def test_memory_error_exit_2(self, tmp_path, monkeypatch, capsys):
        # An addressable size that does not fit in memory fails as numpy's
        # MemoryError does; raised here without a real allocation.
        def out_of_memory(config):
            raise MemoryError("Unable to allocate 8.00 TiB for an array with shape "
                              "(1099511627776,) and data type float64")

        monkeypatch.setattr(world_gen, "generate", out_of_memory)
        assert cli.main(["run", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate 8.00 TiB")
        assert "Traceback" not in err

    def test_huge_seed_flag_exit_2(self, tmp_path, capsys):
        assert cli.main(["run", "--seed", "99999999999999999999999",
                         "--out", str(tmp_path / "o")]) == 2
        assert "seed: must fit in a 64-bit integer" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_CONFIG)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        code = cli.main(["run", "--config", str(config),
                         "--out", str(blocker / "out")])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--out", ""], "--out"),
        (["plot", "--in", ""], "--in"),
        (["plot", "--in", "report", "--out", ""], "--out"),
    ], ids=["run_out", "plot_in", "plot_out"])
    def test_empty_directory_flag_exit_2(self, tmp_path, monkeypatch, capsys, argv, flag):
        # An empty path would mean the current directory: run would write
        # its nine report files there and plot read and write there.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "report").mkdir()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {flag}: must name a directory, got an empty string\n")
        assert [path.name for path in tmp_path.iterdir()] == ["report"]
        assert not any((tmp_path / "report").iterdir())

    def test_missing_plot_inputs_exit_2(self, tmp_path, capsys):
        assert cli.main(["plot", "--in", str(tmp_path / "empty")]) == 2

    @pytest.mark.parametrize("name, edit", [
        ("world.csv", lambda text: "garbage\n"),
        ("world.csv", lambda text: text.splitlines()[0] + "\n"),
        ("decomposition.csv", _set_field("scenario_index", "2")),
        ("approach_estimates.csv", lambda text: text.replace(",-1,", ",-1,abc,", 1)),
        ("report.csv", lambda text: text.rsplit(",", 3)[0] + "\n"),
        ("decomposition.csv", lambda text: text.splitlines()[0] + "\n"),
        ("world.csv", lambda text: _cut_last_row(text, 2)),
        ("decomposition.csv", lambda text: _cut_last_row(text, 2)),
        # A drawn value that is not finite, or a scenario index outside
        # [0, n_scenarios), which a pooled estimate would wrap to the last
        # scenario with; each edited row is one a figure draws.
        ("report.csv", _set_field("mae_of_means", "inf")),
        ("report.csv", _set_field("ks_d", "nan")),
        ("report.csv", _set_field("ks_critical", "-inf")),
        ("report.csv", _set_field("scenario_index", "-1")),
        ("approach_estimates.csv", _set_field("scenario_index", "-1", _pooled)),
        ("approach_estimates.csv", _set_field("scenario_index", "2", _pooled)),
        ("approach_estimates.csv", _set_field("q95", "nan", _pooled)),
        ("world.csv", _set_field("x_kind", "scenario_typo")),
        ("decomposition.csv", _set_field("calibration_error", "nan")),
        ("decomposition.csv", _set_field("total_error", "inf")),
        ("decomposition.csv", _set_field("scenario_index", "-1")),
        # Every row in scenario 0: scenario 1 has none to draw.
        ("decomposition.csv", _set_column("scenario_index", "0")),
        # Finite, but the true errors' spread overflows: the density figure
        # would draw nan, and numpy warn, which the test config makes an error.
        ("decomposition.csv", _set_field("calibration_error", "1e308")),
        # Finite, but 1.15 times it, the accuracy panel's scale, is not.
        ("report.csv", _set_field("mae_of_means", "1.7e308")),
        # The density figure keeps only the pooled rows; the rows it drops
        # are checked all the same.
        ("approach_estimates.csv",
         _set_field("n_samples", "1,2", lambda row: not _pooled(row))),
        # A field over the csv module's size limit (131,072 characters).
        ("report.csv", lambda text: _append_to_line(text, 3, ',"' + "x" * 200_000 + '"')),
        # Lines that csv would read otherwise than split at every comma, or
        # not at all, in columns no figure draws: a quoted field, a NUL, a
        # line longer than the csv module's field size limit, a blank line.
        ("approach_estimates.csv",
         _set_field("median", '"0.5"', lambda row: not _pooled(row))),
        ("world.csv", _set_field("r0_true", "2\x00")),
        ("report.csv", lambda text: _pad_line(text, 3, 131_073)),
        ("decomposition.csv", lambda text: text + "\n"),
    ], ids=["garbage_world", "empty_world", "decomposition_scenario_past_last",
            "shifted_value", "short_row", "no_rows", "short_world_row",
            "short_decomposition_row", "inf_mae", "nan_ks_d", "inf_ks_critical",
            "negative_report_scenario", "wrapped_pooled_scenario",
            "pooled_scenario_past_last", "nan_pooled_q95", "malformed_x_kind",
            "nan_calibration_error", "inf_decomposition",
            "negative_decomposition_scenario", "decomposition_scenario_without_rows",
            "huge_calibration_error", "huge_mae", "extra_field_in_dropped_row",
            "overlong_field", "quote_in_dropped_column", "nul", "overlong_line",
            "blank_line"])
    def test_malformed_report_exit_2(self, run_dir, tmp_path, capsys, name, edit):
        report = tmp_path / "report"
        _copy_report(run_dir[0] / "out", report, name, edit)
        assert cli.main(["plot", "--in", str(report)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and name in err


class TestWorkerFailures:
    @pytest.mark.parametrize("name", harness.DATA_FILES)
    def test_blocked_table_exits_2_as_when_serial(self, tmp_path, monkeypatch,
                                                  capsys, name):
        # A directory where one table goes. Over all tables this fails in
        # a background append and in the caller; either way the message is
        # the serial path's, naming the file.
        config = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        errors = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert_no_child_processes()
        assert errors[0] == errors[1]
        assert errors[0].startswith("i/o error: ") and str(out / name) in errors[0]

    def test_killed_worker_exits_2(self, tmp_path, monkeypatch, capsys):
        # The default config's 1,650 solves fan out over two processes; the
        # solve's worker dies before any append starts.
        use_cpus(monkeypatch, 2)
        caller, rk4 = os.getpid(), sir_core._rk4

        def die_in_worker(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return rk4(*args)

        monkeypatch.setattr(sir_core, "_rk4", die_in_worker)
        with time_limit(20):
            code = cli.main(["run", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "killed by signal 9" in err and "Traceback" not in err
        assert_no_child_processes()

    @pytest.mark.parametrize("name", ["projections.csv", "location_mae.csv"])
    def test_blocked_background_append_exits_2_as_when_serial(
            self, tmp_path, monkeypatch, capsys, name):
        # The writer creates every data file as it starts, in DATA_FILES
        # order, writing world.csv, projections.csv and decomposition.csv
        # whole; location_mae.csv comes last. No write after the failed one
        # happens, so no file is written out of order.
        config = write_config(tmp_path, FAST_CONFIG)
        errors, written = [], []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"out{cpus}"
            (out / name).mkdir(parents=True)
            with time_limit(20):
                assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err.replace(str(out), "OUT"))
            written.append(sorted(path.name for path in out.iterdir()))
            assert_no_child_processes()
        assert errors[0] == errors[1]
        assert errors[0].startswith("i/o error: ") and f"OUT/{name}" in errors[0]
        assert written[0] == written[1]
        if name == "projections.csv":
            assert written[0] == ["projections.csv", "world.csv"]
        else:   # the last file created: all of them, decomposition.csv included
            assert written[0] == sorted(harness.DATA_FILES)

    def test_killed_background_append_exits_2(self, tmp_path, monkeypatch, capsys):
        # The writer dies at its first hand-over; the run fails at a later
        # one or at close, naming the signal.
        use_cpus(monkeypatch, 2)
        caller, take = os.getpid(), harness._ReportFiles.take

        def die_in_writer(self, message):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            take(self, message)

        monkeypatch.setattr(harness._ReportFiles, "take", die_in_writer)
        config = write_config(tmp_path, FAST_CONFIG)
        with time_limit(20):
            code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "killed by signal 9" in err and "Traceback" not in err
        assert not (tmp_path / "o" / harness.MANIFEST_FILE).exists()
        assert_no_child_processes()

    def test_blocked_decomposition_exits_2_with_or_without_pending_appends(
            self, tmp_path, monkeypatch, capsys):
        # decomposition.csv is created as the writer starts, by the writer
        # process on two CPUs; the failure reads as the serial run's.
        config = write_config(tmp_path, FAST_CONFIG)
        errors = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"out{cpus}"
            (out / "decomposition.csv").mkdir(parents=True)
            with time_limit(20):
                assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err.replace(str(out), "OUT"))
            assert (out / "decomposition.csv").is_dir()
            assert not (out / harness.MANIFEST_FILE).exists()
            assert_no_child_processes()
        assert errors[0] == errors[1]
        assert errors[0].startswith("i/o error: ") and "OUT/decomposition.csv" in errors[0]

    @pytest.mark.parametrize("failure", ["raises", "killed"])
    def test_failed_last_append_leaves_the_files_of_a_serial_run(
            self, tmp_path, monkeypatch, capsys, failure):
        # The writer fails at the last strategy's first model. It created
        # every data file as it started, so the directory holds them all, as
        # a run that failed there serially does, and no manifest.
        caller, take = os.getpid(), harness._ReportFiles.take

        def fail_last_strategy(self, message):
            last = message is not None and message[0]["report.csv"][0][0] == 3
            if last and failure == "killed" and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            if last:
                raise OSError("last append failed")
            take(self, message)

        monkeypatch.setattr(harness._ReportFiles, "take", fail_last_strategy)
        config = write_config(tmp_path, FAST_CONFIG)
        written = []
        for cpus in (1, 2) if failure == "raises" else (2,):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"out{cpus}"
            with time_limit(20):
                assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert ("killed by signal 9" if failure == "killed" else "last append failed") in err
            assert "Traceback" not in err
            written.append(sorted(path.name for path in out.iterdir()))
            assert not (out / harness.MANIFEST_FILE).exists()
            assert_no_child_processes()
        assert written[0] == sorted(harness.DATA_FILES)
        assert written[-1] == written[0]

    @pytest.mark.parametrize("failure", ["builder_raises", "time_limit"])
    def test_caller_failure_kills_and_reaps_the_background_appends(
            self, tmp_path, monkeypatch, failure):
        # The writer hangs at strategy 2's first model, so a run that waited
        # for it when the strategy-3 builder raises would hang too. Under
        # the hang guard the writer hangs at its first hand-over, and the
        # run is cut while close waits for it.
        use_cpus(monkeypatch, 2)
        caller, builder = os.getpid(), harness._location_mae_rows

        def hang_in_writer(self, message):
            pending = failure == "time_limit" or (
                message is not None and message[0]["report.csv"][0][0] == 2)
            if pending and os.getpid() != caller:
                time.sleep(60)

        def fail_in_last_strategy(true_errors, estimate_rows):
            if any(row[0] == 3 for row in estimate_rows):
                raise RuntimeError("builder failed")
            return builder(true_errors, estimate_rows)

        monkeypatch.setattr(harness._ReportFiles, "take", hang_in_writer)
        if failure == "builder_raises":
            monkeypatch.setattr(harness, "_location_mae_rows", fail_in_last_strategy)
        config = write_config(tmp_path, FAST_CONFIG)
        start = time.monotonic()
        expected = RuntimeError if failure == "builder_raises" else TimeoutError
        with pytest.raises(expected):
            with time_limit(20 if failure == "builder_raises" else 2):
                harness.run(config, tmp_path / "o")
        assert time.monotonic() - start < 15
        assert_no_child_processes()

    def test_failed_run_leaves_no_manifest_of_an_earlier_run(self, tmp_path, monkeypatch):
        # Strategy 2's builder fails after strategy 1's rows have gone to
        # the writer, which replaces world.csv, projections.csv and the
        # rest, so the earlier manifest's digests no longer hold. The
        # writer's start removed it.
        config = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "o"
        harness.run(config, out)
        assert (out / harness.MANIFEST_FILE).exists()

        def fail(*args):
            raise RuntimeError("builder failed")

        monkeypatch.setattr(harness, "_implied_obs_rows", fail)
        with pytest.raises(RuntimeError):
            harness.run(config, out)
        assert not (out / harness.MANIFEST_FILE).exists()
        assert_no_child_processes()

    def test_stiff_world_leaves_the_earlier_report_untouched(self, tmp_path, capsys):
        # A world too stiff for its step fails in generate, before the
        # writer starts, so nothing is written: the earlier report and its
        # manifest stay, and the manifest's digests still hold.
        out = tmp_path / "o"
        harness.run(write_config(tmp_path, FAST_CONFIG, "earlier.cfg"), out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        config = write_config(tmp_path, FAST_CONFIG.replace(
            "seed = 3", "seed = 3\nalpha_true_mean = 1.9"))
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        manifest = json.loads(before[harness.MANIFEST_FILE])
        assert manifest["files"] == {name: hashlib.sha256(before[name]).hexdigest()
                                     for name in harness.DATA_FILES}
        assert_no_child_processes()

    def test_failed_strategy_1_leaves_no_manifest(self, tmp_path, monkeypatch):
        # A failure while strategy 1's first model is scored comes after the
        # writer started and replaced the world's tables, so the earlier
        # manifest, whose digests no longer hold, is gone.
        config = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "o"
        harness.run(write_config(tmp_path, FAST_CONFIG.replace("seed = 3", "seed = 4"),
                                 "earlier.cfg"), out)
        assert (out / harness.MANIFEST_FILE).exists()

        def fail(*args):
            raise RuntimeError("builder failed")

        monkeypatch.setattr(harness, "_a1_deviation_rows", fail)
        with pytest.raises(RuntimeError, match="builder failed"):
            harness.run(config, out)
        assert not (out / harness.MANIFEST_FILE).exists()
        assert_no_child_processes()

    def test_run_leaves_no_child_process(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        config = write_config(tmp_path, FAST_CONFIG)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--config", str(config),
                             "--out", str(tmp_path / "o")]) == 0
        assert_no_child_processes()


ROOT = Path(__file__).resolve().parents[1]

# Instruments the package with the benchmark's tracer, runs the CLI and
# prints the exit code, span names, counters and the tracer's table builders
# as the last stdout line.
TRACED_RUN = """
import json, sys
import spans
from scenario_eval import cli
tracer = spans.Tracer()
spans.instrument(tracer)
code = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "names": sorted({span[0] for span in tracer.spans}),
                  "counts": dict(tracer.counts), "builders": spans.TABLE_BUILDERS}))
"""


def test_benchmark_tracer_sees_every_stage(tmp_path):
    # benchmarks/spans.py swaps package attributes by name; a rename or an
    # early-bound call would drop spans or counts from a traced run.
    # FAST_CONFIG: L = 12 locations, M = 2 models, S = 2 scenarios. Without
    # a threshold every location has a plausible scenario (P = 12); at 0.03
    # only location 3 has, scenario 1, so strategy 1's (0, 0) and (1, 0) are
    # None (E = 2 empty distributions).
    L, M, S = 12, 2, 2
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'benchmarks'}")
    for label, extra, P, E, expected in (
            ("all", "", L, 0, (360, 116, 50)),
            ("threshold", "plausibility_threshold = 0.03\n", 1, 2, (292, 114, 50))):
        config = write_config(tmp_path, FAST_CONFIG + extra, f"{label}.cfg")
        done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(config),
                               str(tmp_path / label)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        traced = json.loads(done.stdout.splitlines()[-1])
        assert traced["code"] == 0
        expected_names = [f"harness.{name}" for name in traced["builders"]] + [
            "approaches.evaluate_plausible", "approaches.infer_error_distribution",
            "approaches.infer_observations"]
        assert set(expected_names) <= set(traced["names"])
        # report 5MS, estimates 5MS - E pooled + MP plausible points + 2MSL
        # per-location, decomposition MLS, a1 MP, implied 2MS, location_mae
        # MP + 2MSL.
        rows = (5*M*S + (5*M*S - E + M*P + 2*M*S*L) + M*L*S + M*P + 2*M*S
                + (M*P + 2*M*S*L))
        # 5MS - E pooled, 2MSL per-location (the two covariate variants).
        distributions = 5*M*S - E + 2*M*S*L
        # world_gen: L truths + ML model locations + M models; strategy 2 MS
        # per variant, strategy 3 S per variant.
        substreams = L + M*L + M + 2*M*S + 2*S
        assert (rows, distributions, substreams) == expected
        counts = traced["counts"]
        assert counts["harness.rows"] == rows
        assert counts["approaches.distributions"] == distributions
        assert counts["streams.substreams"] == substreams
        assert counts["approaches.empty_plausible"] == E


# Small base config for the CLI properties; hypothesis overrides its fields.
PROPERTY_BASE = {
    "experiment": {"n_locations": "12", "n_models": "2"},
    "sir": {"horizon": "100", "step": "0.5"},
    "approaches": {"n_samples": "200"},
}
PROPERTY_FIELDS = [(section, key) for section, keys in harness.CONFIG_FIELDS.items()
                   for key in keys]
PROPERTY_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-300", "0.5", "2",
                   "9999999999999999999999999", "5%"]


def _quiet_main(argv):
    """``cli.main(argv)`` under a hang guard; (exit code, stderr)."""
    err = io.StringIO()
    with time_limit(20), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class TestCliProperties:
    @settings(max_examples=50, deadline=None)
    @given(overrides=st.dictionaries(st.sampled_from(PROPERTY_FIELDS),
                                     st.sampled_from(PROPERTY_VALUES),
                                     min_size=1, max_size=3))
    def test_any_config_exits_cleanly(self, overrides):
        sections = {name: dict(fields) for name, fields in PROPERTY_BASE.items()}
        for (section, key), value in overrides.items():
            sections[section][key] = value
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
                       for name, fields in sections.items())
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), text)
            code, err = _quiet_main(["run", "--config", str(config),
                                     "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3), text
        assert "Traceback" not in err, text

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(harness.DATA_FILES),
           cut=st.floats(0.0, 1.0, allow_nan=False))
    def test_truncated_report_exits_cleanly(self, run_dir, name, cut):
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp)
            for source in (run_dir[0] / "out").glob("*.csv"):
                data = source.read_bytes()
                if source.name == name:
                    data = data[:int(cut * len(data))]
                (report / source.name).write_bytes(data)
            code, err = _quiet_main(["plot", "--in", str(report)])
        assert code in (0, 2), (name, cut)
        assert "Traceback" not in err, (name, cut)

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(harness.DATA_FILES), line=st.integers(0, 10**6),
           field=st.integers(0, 100),
           token=st.sampled_from(["nan", "inf", "-1", "", "abc", "1e999", "1e308"]))
    def test_replaced_field_exits_cleanly(self, run_dir, name, line, field, token):
        def edit(text):
            lines = text.splitlines()
            fields = lines[line % len(lines)].split(",")
            fields[field % len(fields)] = token
            lines[line % len(lines)] = ",".join(fields)
            return "\n".join(lines) + "\n"

        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp)
            _copy_report(run_dir[0] / "out", report, name, edit)
            code, err = _quiet_main(["plot", "--in", str(report)])
            svgs = [path.read_text(encoding="utf-8") for path in report.glob("*.svg")]
        case = (name, line, field, token)
        assert code in (0, 2), case
        assert "Traceback" not in err, case
        if code == 0:
            assert len(svgs) == 3, case
            assert not any(re.search(r"\b(nan|inf)\b", svg) for svg in svgs), case


class TestPlots:
    def test_svgs_are_wellformed_xml(self, plotted):
        for name in ("error_densities.svg", "accuracy_summary.svg",
                     "decomposition.svg"):
            root = ET.parse(plotted / name).getroot()
            assert root.tag.endswith("svg")

    def test_each_source_file_read_once(self, plotted, tmp_path, monkeypatch):
        # benchmarks/spans.py tallies plots.bytes_read from the size of the
        # path each _read_csv call gets as its first argument.
        paths, read = [], plots._read_csv

        def recorded(*args, **kwargs):
            paths.append(args[0])
            return read(*args, **kwargs)

        monkeypatch.setattr(plots, "_read_csv", recorded)
        plots.plot_report_dir(plotted, tmp_path)
        assert sorted(path.name for path in paths) == sorted((
            "approach_estimates.csv", "world.csv", "report.csv", "decomposition.csv"))
        assert all(path.parent == plotted and path.stat().st_size for path in paths)

    def test_true_errors_drawn_are_world_gen_true_errors(self, run_dir, tmp_path,
                                                         monkeypatch):
        # The density figure's true errors, read from decomposition.csv,
        # have the bits of world_gen.true_errors, scenario by scenario in
        # (model, location) order, and its panels world.csv's scenario kinds.
        tmp, _, report = run_dir
        drawn = {}
        monkeypatch.setattr(plots, "plot_error_densities",
                            lambda report_dir, path, kinds, true_errors:
                            drawn.update(kinds=kinds, true_errors=true_errors))
        plots.plot_report_dir(tmp / "out", tmp_path)
        errs = world_gen.true_errors(report.world, report.ensemble)
        assert drawn["kinds"] == ["scenario_low", "scenario_high"]
        assert len(drawn["true_errors"]) == errs.shape[2]
        for j, truth in enumerate(drawn["true_errors"]):
            assert truth.tobytes() == errs[:, :, j].ravel().tobytes()

    def test_replot_byte_identical(self, plotted, tmp_path):
        plots.plot_report_dir(plotted, tmp_path / "again")
        for name in ("error_densities.svg", "accuracy_summary.svg",
                     "decomposition.svg"):
            assert (plotted / name).read_bytes() == \
                (tmp_path / "again" / name).read_bytes()

    def test_accuracy_dots_stay_in_their_slot(self, tmp_path):
        # 40 models: each dot of a variant must lie inside that variant's
        # slot of the panel, whatever the model count.
        n_models = 40
        rng = np.random.default_rng(5)
        with open(tmp_path / "report.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(harness.REPORT_HEADER)
            for approach, variant, _ in plots.VARIANT_ORDER:
                for m in range(n_models):
                    for j in range(2):
                        writer.writerow((approach, variant, m, j, 0.3, 100,
                                         0.01, 0.02, rng.uniform(0, 0.1),
                                         rng.uniform(0, 0.5), 100, 50, 0.2, "true"))
        plots.plot_accuracy_summary(tmp_path, tmp_path / "accuracy.svg")
        root = ET.parse(tmp_path / "accuracy.svg").getroot()
        circles = [c for c in root.iter() if c.tag.endswith("circle")]
        per_panel = len(plots.VARIANT_ORDER) * n_models * 2
        assert len(circles) == 2 * per_panel
        slot_of = {color: k for k, (_, _, color) in enumerate(plots.VARIANT_ORDER)}
        panel_w = (plots.WIDTH - plots.MARGIN_L - plots.MARGIN_R) / 2
        slot_w = (panel_w - 40.0) / len(plots.VARIANT_ORDER)
        for index, circle in enumerate(circles):
            x0 = plots.MARGIN_L + (index // per_panel) * panel_w
            lo = x0 + slot_of[circle.get("fill")] * slot_w
            cx, r = float(circle.get("cx")), float(circle.get("r"))
            assert lo <= cx - r and cx + r <= lo + slot_w, (index, cx)

    def test_empty_plausible_bucket_annotated(self, tmp_path):
        # Clamp realized coverage near the low scenario so the high scenario
        # is never plausible, then check the annotation shows up.
        text = FAST_CONFIG + "x_realized_low = 0.30\nx_realized_high = 0.34\n"
        lines = text.splitlines()
        idx = lines.index("seed = 3") + 1
        text = "\n".join(lines[:idx] + ["x_realized_low = 0.30",
                                        "x_realized_high = 0.34"] + lines[idx:-2]) + "\n"
        config = tmp_path / "clamped.cfg"
        config.write_text(text, encoding="utf-8")
        harness.run(config, tmp_path / "out")
        plots.plot_report_dir(tmp_path / "out")
        svg = (tmp_path / "out" / "error_densities.svg").read_text(encoding="utf-8")
        assert "no plausible locations" in svg
