"""Golden SHA-256 digests of every data file, and of the three figures
``plot`` draws from them, for three fixed configs.

A refactor must leave these bytes unchanged; a change that moves them is a
numerics change and has to say so. The digests depend on numpy's RNG
streams and its pairwise summation order, and were recorded with numpy
2.4.6; a different numpy version may legitimately produce other bytes.
"""

import hashlib
import os
import threading

import pytest

from scenario_eval import harness, plots
from scenario_eval.world_gen import ExperimentConfig

from conftest import assert_no_child_processes, time_limit, use_cpus

DEFAULT_DIGESTS = {
    "world.csv": "ef909d0183a1f717b4ab741b07c73275b1ba67b405120bb54435629b46fa6752",
    "projections.csv": "873064c65d4a8d1d3f69ca539d51482b069040960603424318638c65f3f08ada",
    "approach_estimates.csv": "c831e52b0d561d7c44f4d90ecf2a2dcaf8334af85e186d5f503e33c8a65702c3",
    "report.csv": "2bb9d2b7f00a4e620b40b2b04cfb4cba3f6703040887ae598997f91fa00b3d01",
    "decomposition.csv": "97b3253cc74387748606938c32c058f8caf6d3100293fe63618fe4407da149cd",
    "a1_deviation.csv": "50c9bceac1a9ee1af6b48dfd492d41cd7f58653ac60f023f99d6f5152f4532bf",
    "implied_obs_ks.csv": "6d404e9cd2e09e821eed67317ff1dd7c097f8c12f888d1592cfb608b120e6c7e",
    "location_mae.csv": "2b845f16d011d6ec11c1c30dfb22f4a250d66b736a1f6c81242f7816f6f13d1a",
}
# The default config at step 0.5, the default step before 1.0: the bytes
# the default config wrote then, so the default step is the only thing
# that moved them, and the grid still steps exactly 0.5 days.
HALF_DAY_STEP_DIGESTS = {
    "world.csv": "87cd5fb61e2e9c5078f23f9eb0b5271c30a431938b55b5b4035c70614cc0d6c6",
    "projections.csv": "dfef766af4d8d72ea0b36575bc6d4fdc355a3ed4ac8a46a10a9616e4c7b6616e",
    "approach_estimates.csv": "d65d9be03303ac6f4db45fb1fa2eb3a61abe97828ea16eee0ef7a9270fa43eef",
    "report.csv": "071cfe21b24e7815aaadc053541dca655b46a2ee2d48f051ebacc38cc799b61e",
    "decomposition.csv": "f55ec8c664aef46e07393aca72a29df6d98077589fb7bc5e85e3ea689180ca02",
    "a1_deviation.csv": "1c9d54f98f15e859ddf64f628c6b1879ec8b8f81ace80f3d89ff7d553b23dc3e",
    "implied_obs_ks.csv": "6d404e9cd2e09e821eed67317ff1dd7c097f8c12f888d1592cfb608b120e6c7e",
    "location_mae.csv": "2d8ac00e4e8938cbee0a685882db4b9c9f9e5d6f7e3da127c9a7082669a2f247",
}
THREE_SCENARIO_DIGESTS = {
    "world.csv": "03198ff49bc0fcbe05720e3c1c214c2aa89cdebaa7cd4f2fc6c1f4d636eca12a",
    "projections.csv": "f1af4ea16b3f80b0b7e41a9c51516f4461d63b223e15900a11fa0ecb3b100bde",
    "approach_estimates.csv": "99f51f143c10f374f04b59582c493930c99a11f0b3ec2068d16616a8e4f7b284",
    "report.csv": "0a0e3fb7e1b2f01fe717b05c03277e2dff3f12bf40b545868603da96dbb2f38e",
    "decomposition.csv": "d323fc553d315767087c43236c030041e9bfa50a794b3d68b60b72674b1cea1c",
    "a1_deviation.csv": "fa602496c784e13947a6e22386a13946333d0090ef7048a15cfa894dae7e0a82",
    "implied_obs_ks.csv": "8400da85b71a7e3e919d34eb0b3d27c321ea1534cdd0d2c41ec395b8e8239a48",
    "location_mae.csv": "2a007c715dda37ffe5e6988ebf95255a47e78b67e0e4ad3db0a6c055a5a91c3e",
}
SVG_DIGESTS = {
    "default": {
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
        "error_densities.svg": "7dbe97482b5e1a551ef1af4edc5a8ba3abedb665e51f1b9f909f493dd213d866",
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

HALF_DAY_STEP_SETTINGS = harness.RunSettings(experiment=ExperimentConfig(step=0.5))

HALF_DAY_STEP_CONFIG = """\
[sir]
step = 0.5
"""

SETTINGS = {THREE_SCENARIO_CONFIG: THREE_SCENARIO_SETTINGS,
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
    (HALF_DAY_STEP_CONFIG, HALF_DAY_STEP_DIGESTS),
], ids=["default", "three_scenarios", "half_day_step"])
def test_data_files_match_golden_digests(tmp_path, config, expected):
    harness.run(_config_path(tmp_path, config), tmp_path / "out")
    assert tuple(expected) == harness.DATA_FILES
    assert _digests(tmp_path / "out") == expected


@pytest.mark.parametrize("config, expected", [
    (None, SVG_DIGESTS["default"]),
    (THREE_SCENARIO_CONFIG, SVG_DIGESTS["three_scenarios"]),
    (HALF_DAY_STEP_CONFIG, SVG_DIGESTS["half_day_step"]),
], ids=["default", "three_scenarios", "half_day_step"])
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
