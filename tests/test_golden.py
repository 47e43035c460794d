"""Golden runs: every mode on a tiny fixed scenario, pinned bit for bit.

Each digest is the SHA-256 of the round history plus the final test report
(``MetricsReport.to_json_lines``) and of ``ServerCache.state_bytes()``. A
change that is meant to keep behaviour must leave them all unchanged; a
change that moves them says why.
"""

import hashlib

import pytest

from fedmoe import federation
from fedmoe.config import MODES

from test_acceptance import tiny_config, tiny_scenario

# mode: (records, server cache state)
GOLDEN_SHA256 = {
    "fmoe": ("5698fee6019ee3b36d22cf36efb048dd28369f2af614aaabc8643ed0364699d2",
             "d6a4d9bb30d797fff03d1f053292a04a194c91165e6bc9099b631a639db78328"),
    "local_only": ("ab89cd85c4a2483a82d8254267179503263959c424512cdce7ea77aadcc13e70",
                   "17f5a6106b7e533409c7bb5a981e55b670b778f187770c82cc797650a6b29e09"),
    "fedavg": ("53dd67c3948b057acadcf781faa0e30e97b25d8fe126f0c9b3d90156fe252a3a",
               "89c8370075911537dc7af4601c77d527ad2cc12f2879a33866fef0979a5e9a3c"),
    "no_gate": ("89e4c88ddc76417fee6481751b7e2d13ce8b02eb4cc070c48201ce6913f48837",
                "d6a4d9bb30d797fff03d1f053292a04a194c91165e6bc9099b631a639db78328"),
    "no_freeze": ("c0986710aa91cb91d0f53904d3024f29c12ffcd52d84506b9f8815af8c67f034",
                  "d6a4d9bb30d797fff03d1f053292a04a194c91165e6bc9099b631a639db78328"),
    "drop_expert": ("8b08c35a35d4e2d10252c3f5b8b147815c20eb498fab7dcd605b4e9c12c279ac",
                    "d6a4d9bb30d797fff03d1f053292a04a194c91165e6bc9099b631a639db78328"),
    "two_phase": ("fe85269cdc552fddc3f4e12a64c90038a9494df5dfa321ddcf7c0a156e419241",
                  "b6eec5192a325358a0aab57df00af03946006f2cf4454dc36d6ac682b998c80c"),
}


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario()


def test_every_mode_has_a_golden():
    assert sorted(GOLDEN_SHA256) == sorted(MODES)


@pytest.mark.parametrize("mode", MODES)
def test_golden_run(scenario, mode):
    cfg = tiny_config(rounds=2, mode=mode, drop_domain="d1", pretrain_epochs=1)
    res = federation.run(scenario, cfg)
    records = "\n".join(r.to_json_lines() for r in res.history + [res.final_test])
    got = (hashlib.sha256(records.encode()).hexdigest(),
           hashlib.sha256(res.cache.state_bytes()).hexdigest())
    assert got == GOLDEN_SHA256[mode]
