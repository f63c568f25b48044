"""Golden SHA-256 digests of every data file, and of the three figures
``plot`` draws from them, for three fixed configs.

A refactor must leave these bytes unchanged; a change that moves them is a
numerics change and has to say so. The digests depend on numpy's RNG
streams and its pairwise summation order, and were recorded with numpy
2.4.6; a different numpy version may legitimately produce other bytes.
"""

import hashlib
import itertools
import os
import threading

import pytest

from scenario_eval import approaches, harness, plots
from scenario_eval.world_gen import ExperimentConfig

from conftest import assert_no_child_processes, time_limit, use_cpus

DEFAULT_DIGESTS = {
    "world.csv": "383e2151eb3b4994273729515de6d792edce3abbfa92c3682e8bc7f332c7a215",
    "projections.csv": "3a2c8b743eda42bdbc587b072898f0c247c31139338757a7a82a4fc5b82cb318",
    "approach_estimates.csv": "2723fdd6e19fafb928ed9e178b115c534ef41efcbf95a8f66f680dbd167c2c48",
    "report.csv": "7611ef3fd4067e1f967841ad371b20d14dc50593326e2f6c181f8183a8a61899",
    "decomposition.csv": "961d21465d0cc61e7ab07ecd10cb872cdf226aad53389bd9b7079b01a1dd9235",
    "a1_deviation.csv": "76d573d5f5a3d51c03ad36113306936bc73036529ec4db15377369fe1b1bdbec",
    "implied_obs_ks.csv": "6d404e9cd2e09e821eed67317ff1dd7c097f8c12f888d1592cfb608b120e6c7e",
    "location_mae.csv": "b28ddff47ba1cd97074aa2690fdd4821c7221cb46a76937466a884983fa1f1ac",
}
# The default config at step 1.0, the default step before 2.0: the bytes
# the default config wrote then, so the default step is the only thing
# that moved them, and the grid still steps exactly 1 day.
ONE_DAY_STEP_DIGESTS = {
    "world.csv": "ef909d0183a1f717b4ab741b07c73275b1ba67b405120bb54435629b46fa6752",
    "projections.csv": "873064c65d4a8d1d3f69ca539d51482b069040960603424318638c65f3f08ada",
    "approach_estimates.csv": "dd9a6f37be48f8f5dbc18f0d8ca8c1cece4970f962956637cf06d18a5ae1d659",
    "report.csv": "2bb9d2b7f00a4e620b40b2b04cfb4cba3f6703040887ae598997f91fa00b3d01",
    "decomposition.csv": "97b3253cc74387748606938c32c058f8caf6d3100293fe63618fe4407da149cd",
    "a1_deviation.csv": "50c9bceac1a9ee1af6b48dfd492d41cd7f58653ac60f023f99d6f5152f4532bf",
    "implied_obs_ks.csv": "6d404e9cd2e09e821eed67317ff1dd7c097f8c12f888d1592cfb608b120e6c7e",
    "location_mae.csv": "2b845f16d011d6ec11c1c30dfb22f4a250d66b736a1f6c81242f7816f6f13d1a",
}
# The default config at step 0.5, the default step before 1.0: the bytes
# the default config wrote then but for approach_estimates.csv's row order
# (each model's pooled rows, then its per-location ones), so the default
# step and that order are the only things that moved them, and the grid
# still steps exactly 0.5 days.
HALF_DAY_STEP_DIGESTS = {
    "world.csv": "87cd5fb61e2e9c5078f23f9eb0b5271c30a431938b55b5b4035c70614cc0d6c6",
    "projections.csv": "dfef766af4d8d72ea0b36575bc6d4fdc355a3ed4ac8a46a10a9616e4c7b6616e",
    "approach_estimates.csv": "8ef36f40c10e3f907c411f90cab0d4315a021c1e1c25f2f9d7253eba9b0fd9b2",
    "report.csv": "071cfe21b24e7815aaadc053541dca655b46a2ee2d48f051ebacc38cc799b61e",
    "decomposition.csv": "f55ec8c664aef46e07393aca72a29df6d98077589fb7bc5e85e3ea689180ca02",
    "a1_deviation.csv": "1c9d54f98f15e859ddf64f628c6b1879ec8b8f81ace80f3d89ff7d553b23dc3e",
    "implied_obs_ks.csv": "6d404e9cd2e09e821eed67317ff1dd7c097f8c12f888d1592cfb608b120e6c7e",
    "location_mae.csv": "2d8ac00e4e8938cbee0a685882db4b9c9f9e5d6f7e3da127c9a7082669a2f247",
}
THREE_SCENARIO_DIGESTS = {
    "world.csv": "0c6a9df8be299feb47057de70fac9b9dde1957a2e99bcd5b0271bf4fc32f4529",
    "projections.csv": "4df7457d885d4f503276db5237f6d14048cd7a96591d17dd0d5327b7da17d859",
    "approach_estimates.csv": "1e3b86f3ddf3780a99f6a5137cf2d5c5072b365e367be45d810e3370b9d253c5",
    "report.csv": "ee0dac658dc66d8ee34eb44cbd26724815ef4ff65ce6b248370876ca9e4a5471",
    "decomposition.csv": "9e2f7a55290f786e656fd599d3c2632f3903ad847a0132a3eb34bb98856c5094",
    "a1_deviation.csv": "5a3cd0c04b20fe8b8eee617a011d9ce8388cb5d6462ea2dc2e5449d17a317a04",
    "implied_obs_ks.csv": "8400da85b71a7e3e919d34eb0b3d27c321ea1534cdd0d2c41ec395b8e8239a48",
    "location_mae.csv": "a43642a7c2368e43122599fd771342f74f46a6b210fa09e87cc67f6d643bd127",
}
SVG_DIGESTS = {
    "default": {
        "error_densities.svg": "d706af7e4f84e4b4a9415ce00582e7fd53894351be4e1fd805844975ee632d94",
        "accuracy_summary.svg": "92c416d41ef4f6c0d0eda06d2030071ba4f7f16e647cea253dbb02d3e0c42380",
        "decomposition.svg": "b68bbf671fddbb09dbd79795a583999fd57ef4f0d4c49969bcc838fb3efc64e8",
    },
    "one_day_step": {
        "error_densities.svg": "2580663bd605d0f90898e6820381524a013db5a27a0ba6fd967db9fbb365275a",
        "accuracy_summary.svg": "92c416d41ef4f6c0d0eda06d2030071ba4f7f16e647cea253dbb02d3e0c42380",
        "decomposition.svg": "b68bbf671fddbb09dbd79795a583999fd57ef4f0d4c49969bcc838fb3efc64e8",
    },
    "half_day_step": {
        "error_densities.svg": "fd1f584ac78f05147caa42c1f34c525a7ff9473a7af1116595da9c1de33e9309",
        "accuracy_summary.svg": "92c416d41ef4f6c0d0eda06d2030071ba4f7f16e647cea253dbb02d3e0c42380",
        "decomposition.svg": "b68bbf671fddbb09dbd79795a583999fd57ef4f0d4c49969bcc838fb3efc64e8",
    },
    "three_scenarios": {
        "error_densities.svg": "59ac1f1dac86413dd243b2dd914276ff69717789914cfee038ff21fffcbd5ef5",
        "accuracy_summary.svg": "c35cc16ea84469365a4820b73c3e81370a2c557546a0d4f929af9a542bef1733",
        "decomposition.svg": "0bc48123f8fe5fc1cda0b2d7182026830790aa82297c36852d63099b9884aefb",
    },
}

THREE_SCENARIO_SETTINGS = harness.RunSettings(
    experiment=ExperimentConfig(scenario_values=(0.30, 0.40, 0.50), n_models=4),
    n_samples=2000)


THREE_SCENARIO_CONFIG = """\
[experiment]
scenario_values = 0.30, 0.40, 0.50
n_models = 4

[approaches]
n_samples = 2000
"""

ONE_DAY_STEP_SETTINGS = harness.RunSettings(experiment=ExperimentConfig(step=1.0))

ONE_DAY_STEP_CONFIG = """\
[sir]
step = 1.0
"""

HALF_DAY_STEP_SETTINGS = harness.RunSettings(experiment=ExperimentConfig(step=0.5))

HALF_DAY_STEP_CONFIG = """\
[sir]
step = 0.5
"""

SETTINGS = {THREE_SCENARIO_CONFIG: THREE_SCENARIO_SETTINGS,
            ONE_DAY_STEP_CONFIG: ONE_DAY_STEP_SETTINGS,
            HALF_DAY_STEP_CONFIG: HALF_DAY_STEP_SETTINGS}


def _config_path(tmp_path, config):
    """``config`` written to a file in ``tmp_path``; None for the built-in
    config."""
    if config is None:
        return None
    path = tmp_path / "golden.cfg"
    path.write_text(config, encoding="utf-8")
    assert harness.load_settings(path) == SETTINGS[config]
    return path


@pytest.mark.parametrize("config, expected", [
    (None, DEFAULT_DIGESTS),
    (THREE_SCENARIO_CONFIG, THREE_SCENARIO_DIGESTS),
    (ONE_DAY_STEP_CONFIG, ONE_DAY_STEP_DIGESTS),
    (HALF_DAY_STEP_CONFIG, HALF_DAY_STEP_DIGESTS),
], ids=["default", "three_scenarios", "one_day_step", "half_day_step"])
def test_data_files_match_golden_digests(tmp_path, config, expected):
    harness.run(_config_path(tmp_path, config), tmp_path / "out")
    assert tuple(expected) == harness.DATA_FILES
    assert _digests(tmp_path / "out") == expected


@pytest.mark.parametrize("config, expected", [
    (None, SVG_DIGESTS["default"]),
    (THREE_SCENARIO_CONFIG, SVG_DIGESTS["three_scenarios"]),
    (ONE_DAY_STEP_CONFIG, SVG_DIGESTS["one_day_step"]),
    (HALF_DAY_STEP_CONFIG, SVG_DIGESTS["half_day_step"]),
], ids=["default", "three_scenarios", "one_day_step", "half_day_step"])
def test_figures_match_golden_digests(tmp_path, config, expected):
    harness.run(_config_path(tmp_path, config), tmp_path / "out")
    written = plots.plot_report_dir(tmp_path / "out")
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in written} == expected


def _digests(out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in harness.DATA_FILES}


@pytest.mark.parametrize("entry", ["write_report", "run"])
@pytest.mark.parametrize("case", ["three_cpus", "one_cpu", "no_fork", "live_thread"])
def test_fan_out_and_serial_fallbacks_write_golden_bytes(tmp_path, monkeypatch, case, entry):
    # Fanned over three processes: two forks for the solve and one for the
    # writer. Each serial path must not fork at all.
    use_cpus(monkeypatch, 1 if case == "one_cpu" else 3)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(case)
        if case != "three_cpus":
            raise AssertionError("forked on a serial path")
        return real_fork()

    if case == "no_fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", counted_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    if case == "live_thread":
        thread.start()
    try:
        if entry == "run":
            harness.run(None, tmp_path)
        else:
            with harness.ReportWriter(tmp_path) as writer:
                report = harness.evaluate(harness.RunSettings(), writer)
                harness.write_report(report, writer)
    finally:
        release.set()
        if case == "live_thread":
            thread.join(10)
    assert not thread.is_alive()
    assert len(forks) == (2 + 1 if case == "three_cpus" else 0)
    assert _digests(tmp_path) == DEFAULT_DIGESTS
    assert_no_child_processes()


@pytest.mark.parametrize("config, expected", [
    (None, DEFAULT_DIGESTS),
    (THREE_SCENARIO_CONFIG, THREE_SCENARIO_DIGESTS),
], ids=["default", "three_scenarios"])
def test_run_with_every_batch_in_the_background_writes_golden_bytes(
        tmp_path, monkeypatch, config, expected):
    use_cpus(monkeypatch, 2)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    harness.run(_config_path(tmp_path, config), tmp_path / "out")
    # One fork for the solve and one for the writer, which is handed every
    # row and writes and hashes every data file.
    assert len(forks) == 1 + 1
    assert _digests(tmp_path / "out") == expected
    assert_no_child_processes()


def test_writer_creates_every_file_once_at_start(tmp_path, monkeypatch):
    # One writer writes every data file: in a process of its own on two
    # CPUs, in the caller on one. It creates each file once, before any
    # model's rows, in DATA_FILES order; every later write appends.
    caller, write = os.getpid(), harness._ReportFiles._write
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        log, out = tmp_path / f"writes{cpus}.log", tmp_path / f"out{cpus}"

        def logged(self, name, data, mode="ab", log=log):
            write(self, name, data, mode)
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid() != caller} {name} {mode}\n")

        monkeypatch.setattr(harness._ReportFiles, "_write", logged)
        with time_limit(60):
            harness.run(None, out)
        writes = [line.split(" ") for line in log.read_text().splitlines()]
        assert {by_writer for by_writer, _, _ in writes} == {str(cpus == 2)}
        created = [name for _, name, mode in writes if mode == "wb"]
        assert created == list(harness.DATA_FILES)
        assert [name for _, name, _ in writes[:len(created)]] == created
        assert len(writes) > len(created)
        assert _digests(out) == DEFAULT_DIGESTS
        assert_no_child_processes()


def test_each_models_pooled_rows_come_before_its_per_location_rows(tmp_path, monkeypatch):
    # approach_estimates.csv as written on one CPU and on two: variant by
    # variant, each model's rows in one block, its pooled rows (location_id
    # -1) first, then its per-location ones.
    n_models = harness.RunSettings().experiment.n_models
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        with time_limit(60):
            harness.run(None, out)
        lines = (out / "approach_estimates.csv").read_text(encoding="utf-8").splitlines()
        keys = [line.split(",")[:5] for line in lines[1:]]
        blocks = [(tuple(ids), [key[4] == "-1" for key in block])
                  for ids, block in itertools.groupby(keys, key=lambda key: key[:3])]
        assert [ids for ids, _ in blocks] == [(str(approach), variant, str(m))
                                              for approach, variant in approaches.VARIANTS
                                              for m in range(n_models)]
        for _, pooled in blocks:
            assert pooled == sorted(pooled, reverse=True) and pooled[0]
        assert sum(not all(pooled) for _, pooled in blocks) == 3 * n_models
        assert _digests(out) == DEFAULT_DIGESTS
        assert_no_child_processes()
