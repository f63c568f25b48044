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
    "world.csv": "e1f37756b25ea9472981611c9f88f9b0a0e351fe45b5121a1779e28092446185",
    "projections.csv": "d074a92d43ae0b984dd68c825a81110ce4edc204ab0dcb635a94c5a8c0b19a2c",
    "approach_estimates.csv": "e80e5281b35b2df0e4a19795ef9f4246371e3f0ca392bc6cb5a7cc3880d2c0c5",
    "report.csv": "0c9c820d764b75190f12e0cab8830cde98fa682aa3944a31151dacc72d44656a",
    "decomposition.csv": "7f2dcc9bff5941aa4cd4e1120398d279bde0a9797a7bf6dc545644d861fbc03b",
    "a1_deviation.csv": "6a0dde0c550221ca1a121c798edb42bb820692cfbd6454c6015c1a3427e3fb78",
    "implied_obs_ks.csv": "6d404e9cd2e09e821eed67317ff1dd7c097f8c12f888d1592cfb608b120e6c7e",
    "location_mae.csv": "bc23c2879f0ad15c2c9fe71f6309d6a0f856f7474facbe412ee97a66987e35a5",
}
THREE_SCENARIO_DIGESTS = {
    "world.csv": "70cf179176da8d412d3406b7b4e325f7035f4a5bdf74532997cb7051eaeaf52e",
    "projections.csv": "609046dc1e00951d6040a41839f0fef3583b52338c2a6740c7add8dbc3bb533c",
    "approach_estimates.csv": "e844caec5e7c5afe6998fe7668d45e10df0493ff073df1d52389a9f2b85242ce",
    "report.csv": "3ae0287dfbc7c9043c18fca67de31a1fc27893bde81fbe823b5580dba8c7669f",
    "decomposition.csv": "123196f9a0a02c97c0811dcf9fef01398f2defbb64f55f87854f6ad60eca64f6",
    "a1_deviation.csv": "aa8ea600ef1147f967c2b74a10a8e8498d94957b71a13006f3758ce97d939a45",
    "implied_obs_ks.csv": "8400da85b71a7e3e919d34eb0b3d27c321ea1534cdd0d2c41ec395b8e8239a48",
    "location_mae.csv": "aec122dfe731b88d6339503ad0dafc8a3cbe681878e3e1dcfbc76acb4dcb2145",
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
