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
    "projections.csv": "31fde3895406cd9d9a29c03c50e15ee8d577901a868a563eb9da66778009226e",
    "approach_estimates.csv": "d65d9be03303ac6f4db45fb1fa2eb3a61abe97828ea16eee0ef7a9270fa43eef",
    "report.csv": "071cfe21b24e7815aaadc053541dca655b46a2ee2d48f051ebacc38cc799b61e",
    "decomposition.csv": "d6bcb55bc77dd7d7d511da7e74461d14d1fe25f61cd82314970c4851729442f8",
    "a1_deviation.csv": "69e91d11a7104193fffe7a3337da349c0a4662dbf1263c8cc5b45eb2c73f52d9",
    "implied_obs_ks.csv": "6d404e9cd2e09e821eed67317ff1dd7c097f8c12f888d1592cfb608b120e6c7e",
    "location_mae.csv": "4544f8d1fd46ef6fe96d47094ce1efda4286fc8d28127d1cb5405f247aefe415",
}
THREE_SCENARIO_DIGESTS = {
    "world.csv": "f84e18d00903960eac26c3a9d19e7dbe8235fea3cb0be0924ff0ba73ca8ab41b",
    "projections.csv": "58a5c370d4354069e6483f1617a20612a119768e7cb4fbf343c5d601d6271388",
    "approach_estimates.csv": "c7ea5ec0f0749e4bdbd64d3a1d1aec824c2ac5ac0a6eafedfafe9f80b92b20e2",
    "report.csv": "5d6a7f390644ed5ecfb927a84d7d4c2d237a5ada447a26a4adde9db2e32d5edc",
    "decomposition.csv": "a5c97233d8394583bbe31978885e77b137ca979f4959be8f03ceb30d2b118286",
    "a1_deviation.csv": "5a9d9d124d250a47bc202bde4cc1c23f977b1b6a14b549738f4409116aa08f98",
    "implied_obs_ks.csv": "8400da85b71a7e3e919d34eb0b3d27c321ea1534cdd0d2c41ec395b8e8239a48",
    "location_mae.csv": "823a23285edbf5581675c9f9a25b7ce246d8afa20a826fd4c5778620df8f2453",
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
    # background append for each of the six batches. Each serial path must
    # not fork at all.
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
    assert len(forks) == (2 + 6 if case == "three_cpus" else 0)
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
    # One fork for the solve and one background append per batch: world and
    # projections, then each of the five variants. The parent writes
    # decomposition.csv and computes the digests itself.
    assert len(forks) == 1 + 6
    assert _digests(tmp_path / "out") == expected
    assert_no_child_processes()


def test_parent_writes_decomposition_before_joining_the_appends(tmp_path, monkeypatch):
    # Each append waits until the parent has logged its own write: a parent
    # that joined the appends before writing decomposition.csv would leave
    # them waiting out their 10 s and log them first.
    use_cpus(monkeypatch, 2)
    caller, append = os.getpid(), harness._append
    log, out = tmp_path / "appends.log", tmp_path / "out"
    log.touch()

    def logged(parts):
        if os.getpid() != caller:
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
    assert writes[0] == (True, "decomposition.csv")
    assert writes[1] == (False, "world.csv,projections.csv")
    assert [by_caller for by_caller, _ in writes[2:]] == [False] * 5
    assert _digests(out) == DEFAULT_DIGESTS
    assert_no_child_processes()
