"""Golden runs: every mode on a tiny fixed scenario, pinned bit for bit.

Each digest is the SHA-256 of the round history plus the final test report
(``MetricsReport.to_json_lines``) and of ``ServerCache.state_bytes()``. A
change that is meant to keep behaviour must leave them all unchanged; a
change that moves them says why.

Two tables: the tiny config's dropout of 0.1, and the same runs without
dropout. A change to the dropout stream moves the first table alone; the
second shows that nothing else moved. A failing run prints the digests it
got beside the pinned ones, so a re-pin shows old and new in one run.

Two more tables run fmoe and fedavg with two blocks, with and without
dropout: one with two heads, one with one head. The tiny config's single
one-head block never attends at every position, so only these tables pin
the all-position attention of the earlier blocks end to end: the per-head
split with two heads, and the default model's one-head path with one.

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
    "fmoe": ("e637e580190573e4b6f804ee305f70aa1c836665837b397595328019d333257b",
             "08ac3b0092f5f11d0da45e507bfca0480bf703ee9b8c5db09e90798974972a95"),
    "local_only": ("e32b549b1e4f688a287e04d1e7ceaa6b28fd4250f56c3124fd253d27e7d6c886",
                   "301d681c9fcdd651da568ea5464df4ee6bf64470a479fb6c2de7846e4c571898"),
    "fedavg": ("9cbef45d66328f4ee5b7a7064f55d25571b6b296eda2fd05c5ee6fc885d5672b",
               "c50bdb8d3e4ad38e98c6d7a95e150d0f140902c4919b5f2412296b1e4143f691"),
    "no_gate": ("384d0d139005898660965109c949c58e90b228e7a10b26abbe5fcedd09227589",
                "08ac3b0092f5f11d0da45e507bfca0480bf703ee9b8c5db09e90798974972a95"),
    "no_freeze": ("265bdf25526fc952d561f998796e9b14bb7e3346565766616a2b125ca4da9e2e",
                  "08ac3b0092f5f11d0da45e507bfca0480bf703ee9b8c5db09e90798974972a95"),
    "drop_expert": ("3d8bc24c290ea4cd10fdd1f10f3818dce6a5e8c2f3d55d7d547c911f471dd292",
                    "da2c921e2588b661a17f27cc176a5fe87457d503241ffff9f31cf724385513ce"),
    "two_phase": ("b31567dcea079952d307f6a7e03fc54256a4b4d9826e1d985ec2a05da6a51fad",
                  "61851a77dd0deb303c1b17f02dc36ab052c12ea090e3abb4b1276501f0509637"),
}

# mode: (records, server cache state), dropout 0.0
GOLDEN_NO_DROPOUT_SHA256 = {
    "fmoe": ("6586af9c34160cbbdb35fe8301f9617e856612c06f5c75656cdb43812d406370",
             "853ccccbcb4be4ea76d7bb819a527e78a737343a4dde7c0ad287baf6924fb3f6"),
    "local_only": ("220372e6b1c68e7d8df13d3a7b705543c208c83fa27a968784b1c97f99ddc2dd",
                   "301d681c9fcdd651da568ea5464df4ee6bf64470a479fb6c2de7846e4c571898"),
    "fedavg": ("e232f2db629ccd27ac053ed08e0d1b59eb8f7ac1d3c2ef32b9532ad7ad2b14a1",
               "d510977d2ee3c91606713d035d33cea2ab99b9d18440dd0742851814745a3f16"),
    "no_gate": ("8956fe918717677fc6ac98a6a937c242339300b30a92636a0e59e50cb09bc66f",
                "853ccccbcb4be4ea76d7bb819a527e78a737343a4dde7c0ad287baf6924fb3f6"),
    "no_freeze": ("8361c7b87cda43148a46d56a578e2e695be23f44571ddeda3518b715f29b8f50",
                  "853ccccbcb4be4ea76d7bb819a527e78a737343a4dde7c0ad287baf6924fb3f6"),
    "drop_expert": ("8910e8e6c72e2a7dddc6560bf8fb9b3cc9ee0d933e8220f1840305d59fe5bb58",
                    "853ccccbcb4be4ea76d7bb819a527e78a737343a4dde7c0ad287baf6924fb3f6"),
    "two_phase": ("755db0ee8c45ae887a757991474dc006851697b46cfad330bb6cc7fb982e8410",
                  "b69c05b60fac4835e5bd352cf0bff65bcff37831431889f07f6d8b8e34309349"),
}

# (mode, dropout): (records, server cache state), blocks=2, heads=2
GOLDEN_TWO_BLOCKS_SHA256 = {
    ("fmoe", 0.1): ("76496786a9fcda52eb5b2442887418d2b88c9ff7d17f4fe464e9abe0e784d441",
                    "3434b75f1793de9c82d5c92304cca766b88d069ad9dd03590c2f18cbd8c6ddfb"),
    ("fmoe", 0.0): ("97f6c4e19877766bca786480f2c617233ff8d996c6b6787ddc802d3da63098e3",
                    "4396fe3db7e0def4f7e40f123e400bfb19758c494e2b3e8c1e2c2ac4b095ea61"),
    ("fedavg", 0.1): ("aca82ec2584a8a9cda75e04f1e9ea580f7c14e793c0bab640348a36077dffb57",
                      "ea4d844456c10562b7566825dee087f9dbf0ae9e6e9fb41cbcee7172ef5ff5c3"),
    ("fedavg", 0.0): ("495be599fb9747a46f5169ffcce82bdf70b253db8b99b1798c23b855e3e9ffca",
                      "bc809ecc94beaa4b1fded4dded284fe1b98b19a6ab8c757530d7ede820a27eba"),
}

# (mode, dropout): (records, server cache state), blocks=2, heads=1
GOLDEN_TWO_BLOCKS_ONE_HEAD_SHA256 = {
    ("fmoe", 0.1): ("73c23410c21d17e9ac0917938baf5242fb3fd5adf9e35b7f6233d7cd178ae996",
                    "50317a5c7e07b761d57ed536ae4d6a21bada1b5b9c4c8e6d2887f7379ccfc516"),
    ("fmoe", 0.0): ("0292eee213b33b94acb17004df70d6244f5f39f558416023b4734779ff9ac08e",
                    "d1805e1ae276d50ac8ee269f5873956a9051099be112482b77cc13692ab03787"),
    ("fedavg", 0.1): ("62fa91520ed84b804293cd60957d76e59621038347a7a44f4da43a44f935a7a8",
                      "d5d34466ddf791a71ce09cf0f32bac1b8b251b8447dfe5a622ecff6aa6ece939"),
    ("fedavg", 0.0): ("0645e10b391df5cad418e3c75fa6225f398e46a4297df89ddddbd48d1d87175d",
                      "cff144243c288e1bc363bba5f851b573bf6f408f86235270afd73000e3fc45bb"),
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


@pytest.mark.parametrize("mode, dropout", sorted(GOLDEN_TWO_BLOCKS_SHA256))
def test_golden_run_two_blocks_two_heads(scenario, mode, dropout):
    _assert_pinned((mode, dropout), _digests(scenario, mode, blocks=2, heads=2, dropout=dropout),
                   GOLDEN_TWO_BLOCKS_SHA256)


@pytest.mark.parametrize("mode, dropout", sorted(GOLDEN_TWO_BLOCKS_ONE_HEAD_SHA256))
def test_golden_run_two_blocks_one_head(scenario, mode, dropout):
    _assert_pinned((mode, dropout), _digests(scenario, mode, blocks=2, heads=1, dropout=dropout),
                   GOLDEN_TWO_BLOCKS_ONE_HEAD_SHA256)
