"""Golden runs: every mode on a tiny fixed scenario, pinned bit for bit.

Each digest is the SHA-256 of the round history plus the final test report
(``MetricsReport.to_json_lines``) and of ``ServerCache.state_bytes()``. A
change that is meant to keep behaviour must leave them all unchanged; a
change that moves them says why.

drop_expert runs with drop_domain="d1" and two_phase with pretrain_epochs=1;
each is passed only to the mode that reads it.
"""

import hashlib

import pytest

from fedmoe import federation
from fedmoe.config import MODES

from test_acceptance import tiny_config, tiny_scenario

# mode: (records, server cache state)
GOLDEN_SHA256 = {
    "fmoe": ("59640a4e946323f6462eadba46cb51d4f3bd31f8f436bbe6938d530104c60f89",
             "3a821e05e31d3c1e5fe0b974c7a0976830b339ab05ac51afc18cec64f186202c"),
    "local_only": ("ab89cd85c4a2483a82d8254267179503263959c424512cdce7ea77aadcc13e70",
                   "17f5a6106b7e533409c7bb5a981e55b670b778f187770c82cc797650a6b29e09"),
    "fedavg": ("53dd67c3948b057acadcf781faa0e30e97b25d8fe126f0c9b3d90156fe252a3a",
               "89c8370075911537dc7af4601c77d527ad2cc12f2879a33866fef0979a5e9a3c"),
    "no_gate": ("1fec7970c7729b69d77d949f99309f5f9984869e926245d23ee09f65527edb9c",
                "3a821e05e31d3c1e5fe0b974c7a0976830b339ab05ac51afc18cec64f186202c"),
    "no_freeze": ("c6888bb1a4c8ce946c39f3605185efd557a59f96cfc469aa9926089827c13a4a",
                  "3a821e05e31d3c1e5fe0b974c7a0976830b339ab05ac51afc18cec64f186202c"),
    "drop_expert": ("8b08c35a35d4e2d10252c3f5b8b147815c20eb498fab7dcd605b4e9c12c279ac",
                    "d6a4d9bb30d797fff03d1f053292a04a194c91165e6bc9099b631a639db78328"),
    "two_phase": ("c1f35388735b088b31e34a40fd912096d338c24d46d620bb0e6fd4ef43c411bc",
                  "b6eec5192a325358a0aab57df00af03946006f2cf4454dc36d6ac682b998c80c"),
}


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario()


def test_every_mode_has_a_golden():
    assert sorted(GOLDEN_SHA256) == sorted(MODES)


@pytest.mark.parametrize("mode", MODES)
def test_golden_run(scenario, mode):
    own = {"drop_expert": dict(drop_domain="d1"), "two_phase": dict(pretrain_epochs=1)}
    cfg = tiny_config(rounds=2, mode=mode, **own.get(mode, {}))
    res = federation.run(scenario, cfg)
    records = "\n".join(r.to_json_lines() for r in res.history + [res.final_test])
    got = (hashlib.sha256(records.encode()).hexdigest(),
           hashlib.sha256(res.cache.state_bytes()).hexdigest())
    assert got == GOLDEN_SHA256[mode]
