"""Golden SHA-256 digests of every data file for two fixed configs.

A refactor must leave these bytes unchanged; a change that moves them is a
numerics change and has to say so. The digests depend on numpy's RNG
streams and its pairwise summation order, and were recorded with numpy
2.4.6; a different numpy version may legitimately produce other bytes.
"""

import hashlib

import pytest

from scenario_eval import harness
from scenario_eval.world_gen import ExperimentConfig

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

THREE_SCENARIO_SETTINGS = harness.RunSettings(
    experiment=ExperimentConfig(scenario_values=(0.30, 0.40, 0.50), n_models=4),
    n_samples=2000)


@pytest.mark.parametrize("settings, expected", [
    (harness.RunSettings(), DEFAULT_DIGESTS),
    (THREE_SCENARIO_SETTINGS, THREE_SCENARIO_DIGESTS),
], ids=["default", "three_scenarios"])
def test_data_files_match_golden_digests(tmp_path, settings, expected):
    harness.write_report(harness.evaluate(settings), tmp_path)
    assert tuple(expected) == harness.DATA_FILES
    actual = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in harness.DATA_FILES}
    assert actual == expected
