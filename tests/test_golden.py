"""Golden runs: every mode on a tiny fixed scenario, pinned bit for bit.

Each digest is the SHA-256 of the round history plus the final test report
(``MetricsReport.to_json_lines``) and of ``ServerCache.state_bytes()``. A
change that is meant to keep behaviour must leave them all unchanged; a
change that moves them says why.

Two tables: the tiny config's dropout of 0.1, and the same runs without
dropout. A change to the dropout stream moves the first table alone; the
second shows that nothing else moved. A failing run prints the digests it
got beside the pinned ones, so a re-pin shows old and new in one run.

drop_expert runs with drop_domain="d1" and two_phase with pretrain_epochs=1;
each is passed only to the mode that reads it.
"""

import hashlib

import pytest

from fedmoe import federation
from fedmoe.config import MODES

from test_acceptance import tiny_config, tiny_scenario

# mode: (records, server cache state), dropout 0.1
GOLDEN_SHA256 = {
    "fmoe": ("245c371d01cfa9dd544f6fb0fa7862c18ff89fbdd92d000c17508050a0025eca",
             "7a94f63ae4db2ec7ef047e620f4217a78a3349615749b87359d9a1136a90323a"),
    "local_only": ("b9c294ecee05a9e095529d28ad8648ca329b98bc9405b3392cce1b2258506e9c",
                   "17f5a6106b7e533409c7bb5a981e55b670b778f187770c82cc797650a6b29e09"),
    "fedavg": ("81382178053d15a59022c3ea8f85dcf1f1c0c5f64cbfb911d79cb82481070417",
               "efd8fa4b7807ed6920e6c38001b997bd96a44fb78ba634d7f51fa6303a6bf06f"),
    "no_gate": ("cd621ba9e1321dbfffa0bae9437e2c1c21e4abee9a800b2f53d1a81e16c87619",
                "7a94f63ae4db2ec7ef047e620f4217a78a3349615749b87359d9a1136a90323a"),
    "no_freeze": ("9c8347b010391cb16e4ec75e615fe1be7b9ccafd4780fb5c07c5a87edf39c6fd",
                  "7a94f63ae4db2ec7ef047e620f4217a78a3349615749b87359d9a1136a90323a"),
    "drop_expert": ("d809972dafe4519a0d73ecd3dc7283d6e9dfc658e77bda8f2ac8aa1a7afda613",
                    "cc67340a7767bca47fdb948d5970183011b39f47c6e6a370822da62b3c722106"),
    "two_phase": ("7bcc84df4bd7ec7109a658c7eb7e6f723bb3609018ef0d050ff9ecf098bde5fc",
                  "dd8c091d10653a43653e7e14b54d0e9b6eb0e3f819724458b807efeea666d9fd"),
}

# mode: (records, server cache state), dropout 0.0
GOLDEN_NO_DROPOUT_SHA256 = {
    "fmoe": ("419b2abd29c58a5592653939195cee140182f6267823180dd571193030656ca3",
             "d097cce63924db8f21691b28291cafa3ba002452bfe08c8b6eea744299fce98a"),
    "local_only": ("7c2ef9003bb2c965d1cd57c344d03860c65117e3055a7a8c5a4c85f56b439113",
                   "17f5a6106b7e533409c7bb5a981e55b670b778f187770c82cc797650a6b29e09"),
    "fedavg": ("845f5f924016eca3e9bc96956504a5b9c9019bc5ec55a797243cd89115f6d292",
               "d045e59f727435e556f95a3801dec0512b7f3d5d2978e973b56ab9f27ffb2abb"),
    "no_gate": ("9eceb942e17d56b6e7ecda4f231aa0bedec6002088ed26f4771538d3216d815e",
                "d097cce63924db8f21691b28291cafa3ba002452bfe08c8b6eea744299fce98a"),
    "no_freeze": ("48603e3f344db8a7bffc687f29ac508abf23602a3e4169a6f2dd32c5c16a3ee4",
                  "d097cce63924db8f21691b28291cafa3ba002452bfe08c8b6eea744299fce98a"),
    "drop_expert": ("e7b3137cd7dbe72d2f92af92d993492e7f1e8284b0481770d6af70614de47581",
                    "d097cce63924db8f21691b28291cafa3ba002452bfe08c8b6eea744299fce98a"),
    "two_phase": ("9450dc86ca2127d7006efdf12cef718d8a4bad58aa496ac8fead6c25ef4c63ea",
                  "9aa12139680d978fe45c9c17c7564b1dbfc97538ede7ae1f497bb359f42e04a2"),
}


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario()


def _digests(scenario, mode, **overrides):
    own = {"drop_expert": dict(drop_domain="d1"), "two_phase": dict(pretrain_epochs=1)}
    cfg = tiny_config(rounds=2, mode=mode, **own.get(mode, {}), **overrides)
    res = federation.run(scenario, cfg)
    records = "\n".join(r.to_json_lines() for r in res.history + [res.final_test])
    return (hashlib.sha256(records.encode()).hexdigest(),
            hashlib.sha256(res.cache.state_bytes()).hexdigest())


def _assert_pinned(mode, got, table):
    assert got == table[mode], (f"{mode}: got records {got[0]} state {got[1]}; "
                                f"pinned records {table[mode][0]} state {table[mode][1]}")


def test_every_mode_has_a_golden():
    for table in (GOLDEN_SHA256, GOLDEN_NO_DROPOUT_SHA256):
        assert sorted(table) == sorted(MODES)


@pytest.mark.parametrize("mode", MODES)
def test_golden_run(scenario, mode):
    _assert_pinned(mode, _digests(scenario, mode), GOLDEN_SHA256)


@pytest.mark.parametrize("mode", MODES)
def test_golden_run_without_dropout(scenario, mode):
    _assert_pinned(mode, _digests(scenario, mode, dropout=0.0), GOLDEN_NO_DROPOUT_SHA256)
