"""Golden SHA-256 digests of every data file, and of the three figures
``plot`` draws from them, for two fixed configs.

A refactor must leave these bytes unchanged; a change that moves them is a
numerics change and has to say so. The digests depend on numpy's RNG
streams and its pairwise summation order, and were recorded with numpy
2.4.6; a different numpy version may legitimately produce other bytes.
"""

import hashlib
import os
import threading
import time

import pytest

from scenario_eval import harness, plots
from scenario_eval.world_gen import ExperimentConfig

from conftest import assert_no_child_processes, time_limit, use_cpus

DEFAULT_DIGESTS = {
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
    "world.csv": "f84e18d00903960eac26c3a9d19e7dbe8235fea3cb0be0924ff0ba73ca8ab41b",
    "projections.csv": "143cce38d9651c900044d010bd37d73d9f05ebeeebfc4f600ffc91800f9b74db",
    "approach_estimates.csv": "c7ea5ec0f0749e4bdbd64d3a1d1aec824c2ac5ac0a6eafedfafe9f80b92b20e2",
    "report.csv": "5d6a7f390644ed5ecfb927a84d7d4c2d237a5ada447a26a4adde9db2e32d5edc",
    "decomposition.csv": "a58c4d8ff1ff75a875d366d7c5d57f5bf8a0d09c22496c218f2ca3681934e912",
    "a1_deviation.csv": "388dc9f4b061de62ea437261b93821ebff000dbd055931930e7f3b9e3f34c0a9",
    "implied_obs_ks.csv": "8400da85b71a7e3e919d34eb0b3d27c321ea1534cdd0d2c41ec395b8e8239a48",
    "location_mae.csv": "aed61d1303034ba31e8f6c3321caf599d97fc435d41a03b6f92432b737f4d4a2",
}
SVG_DIGESTS = {
    "default": {
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


def _config_path(tmp_path, config):
    """``config`` written to a file in ``tmp_path``; None for the built-in
    config."""
    if config is None:
        return None
    path = tmp_path / "three.cfg"
    path.write_text(config, encoding="utf-8")
    assert harness.load_settings(path) == THREE_SCENARIO_SETTINGS
    return path


@pytest.mark.parametrize("config, expected", [
    (None, DEFAULT_DIGESTS),
    (THREE_SCENARIO_CONFIG, THREE_SCENARIO_DIGESTS),
], ids=["default", "three_scenarios"])
def test_data_files_match_golden_digests(tmp_path, config, expected):
    harness.run(_config_path(tmp_path, config), tmp_path / "out")
    assert tuple(expected) == harness.DATA_FILES
    assert _digests(tmp_path / "out") == expected


@pytest.mark.parametrize("config, expected", [
    (None, SVG_DIGESTS["default"]),
    (THREE_SCENARIO_CONFIG, SVG_DIGESTS["three_scenarios"]),
], ids=["default", "three_scenarios"])
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
    # Fanned over three processes: two forks for the solve, and one
    # background append for each of the three batches. Each serial path
    # must not fork at all.
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
    assert len(forks) == (2 + 3 if case == "three_cpus" else 0)
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
    # One fork for the solve and one background append per batch: each of
    # the three strategies with all its variants, world and projections
    # with strategy 1. The parent writes decomposition.csv and computes the
    # digests itself.
    assert len(forks) == 1 + 3
    assert _digests(tmp_path / "out") == expected
    assert_no_child_processes()


def test_parent_writes_decomposition_before_waiting_for_the_last_append(
        tmp_path, monkeypatch):
    # Only strategy 3's append is pending when decomposition.csv is written.
    # It waits until the parent has logged its own write: a parent that
    # waited for it before writing decomposition.csv would leave it waiting
    # out its 10 s and log it first.
    use_cpus(monkeypatch, 2)
    caller, append = os.getpid(), harness._append
    log, out = tmp_path / "appends.log", tmp_path / "out"
    log.touch()

    def logged(parts):
        last = any(path.name == "report.csv" and rows[0][0] == 3
                   for path, _, rows in parts)
        if last and os.getpid() != caller:
            deadline = time.monotonic() + 10
            while f"{caller} " not in log.read_text() and time.monotonic() < deadline:
                time.sleep(0.01)
        append(parts)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {','.join(path.name for path, _, _ in parts)}\n")

    monkeypatch.setattr(harness, "_append", logged)
    with time_limit(60):
        harness.run(None, out)
    writes = [(pid == str(caller), names) for pid, names in
              (line.split(" ") for line in log.read_text().splitlines()) if names]
    assert writes[0] == (False, "world.csv,projections.csv,report.csv,approach_estimates.csv,"
                                "a1_deviation.csv,implied_obs_ks.csv,location_mae.csv")
    assert [by_caller for by_caller, _ in writes] == [False] * 2 + [True, False]
    assert writes[2] == (True, "decomposition.csv")
    assert _digests(out) == DEFAULT_DIGESTS
    assert_no_child_processes()
