"""Checkpoint wire-format round-trip tests."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoe import autodiff as ad
from fedmoe import expert
from fedmoe.checkpoint import (ExpertCheckpoint, check_layout, checkpoint_from_params,
                               load_into_params)
from fedmoe.optim import Adam


def random_checkpoint(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return ExpertCheckpoint([
        (f"p{i}", rng.standard_normal((int(rng.integers(1, 5)),
                                       int(rng.integers(1, 5)))).astype(np.float32))
        for i in range(n)
    ])


class TestRoundTrip:
    def test_serialize_deserialize_serialize_byte_identical(self):
        ckpt = random_checkpoint(1)
        blob = ckpt.to_bytes()
        again = ExpertCheckpoint.from_bytes(blob).to_bytes()
        assert blob == again

    def test_values_and_names_survive(self):
        ckpt = random_checkpoint(2)
        back = ExpertCheckpoint.from_bytes(ckpt.to_bytes())
        assert back.names == ckpt.names
        for name in ckpt.names:
            np.testing.assert_array_equal(back.get(name), ckpt.get(name))

    def test_file_round_trip(self, tmp_path):
        ckpt = random_checkpoint(3)
        path = tmp_path / "enc.ckpt"
        ckpt.save(path)
        assert ExpertCheckpoint.load(path) == ckpt

    def test_header_layout(self):
        ckpt = ExpertCheckpoint([("w", np.zeros((2, 3), np.float32))])
        blob = ckpt.to_bytes()
        version, count = struct.unpack_from("<II", blob, 0)
        assert (version, count) == (1, 1)
        (name_len,) = struct.unpack_from("<I", blob, 8)
        assert name_len == 1
        assert blob[12:13] == b"w"
        rank, d0, d1 = struct.unpack_from("<III", blob, 13)
        assert (rank, d0, d1) == (2, 2, 3)
        assert len(blob) == 13 + 12 + 2 * 3 * 4

    def test_trailing_bytes_rejected(self):
        blob = random_checkpoint().to_bytes() + b"x"
        with pytest.raises(ValueError, match="trailing"):
            ExpertCheckpoint.from_bytes(blob)

    def test_unknown_version_rejected(self):
        blob = b"\x02\x00\x00\x00\x00\x00\x00\x00"
        with pytest.raises(ValueError, match="version"):
            ExpertCheckpoint.from_bytes(blob)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExpertCheckpoint([("a", np.zeros(1, np.float32)),
                              ("a", np.ones(1, np.float32))])


class TestParamsBridge:
    def test_encoder_snapshot_and_restore(self):
        cfg = expert.ModelConfig(width=8, blocks=2, heads=1, ff_mult=2, t_max=4)
        enc = expert.init_encoder(np.random.default_rng(0), cfg)
        ckpt = checkpoint_from_params(enc.parameters())
        assert set(ckpt.names) == {p.name for p in enc.parameters()}

        other = expert.init_encoder(np.random.default_rng(99), cfg)
        load_into_params(dict(ckpt.entries), {p.name: p for p in other.parameters()},
                         "encoder")
        for p, q in zip(enc.parameters(), other.parameters()):
            np.testing.assert_array_equal(p.data.astype(np.float32), q.data)

    def test_name_mismatch_rejected(self):
        cfg = expert.ModelConfig(width=8, blocks=1, heads=1, ff_mult=2, t_max=4)
        enc = expert.init_encoder(np.random.default_rng(0), cfg)
        small = expert.init_encoder(
            np.random.default_rng(0),
            expert.ModelConfig(width=8, blocks=2, heads=1, ff_mult=2, t_max=4))
        before = [p.data.tobytes() for p in small.parameters()]
        with pytest.raises(ValueError, match="encoder has no entry 'block1.attn_k'"):
            load_into_params(dict(checkpoint_from_params(enc.parameters()).entries),
                             {p.name: p for p in small.parameters()}, "encoder")
        assert [p.data.tobytes() for p in small.parameters()] == before

    def test_shape_mismatch_leaves_every_parameter_unchanged(self):
        params = [ad.Parameter(np.arange(6.0).reshape(2, 3), "a"),
                  ad.Parameter(np.arange(4.0), "b")]
        before = [p.data.tobytes() for p in params]
        # "a" fits and comes first; only the later "b" has the wrong shape
        ckpt = ExpertCheckpoint([("a", np.ones((2, 3), np.float32)),
                                 ("b", np.ones(5, np.float32))])
        with pytest.raises(ValueError, match=r"params entry 'b' has shape \(5,\), expected \(4,\)"):
            load_into_params(dict(ckpt.entries), {p.name: p for p in params}, "params")
        assert [p.data.tobytes() for p in params] == before

    @pytest.mark.parametrize("arrays, message", [
        ({"a": np.zeros(2)}, "x has no entry 'b'"),
        ({"a": np.zeros(2), "b": np.zeros(3), "c": np.zeros(1)}, "x has an unexpected entry 'c'"),
        ({"a": np.zeros(2), "b": np.zeros((3, 1))}, "x entry 'b' has shape (3, 1), expected (3,)"),
        # the first entry in name order is named, whatever the kind of misfit
        ({"b": np.zeros(3), "aa": np.zeros(1)}, "x has no entry 'a'"),
        ({"a": np.zeros(1), "c": np.zeros(1)}, "x entry 'a' has shape (1,), expected (2,)")])
    def test_check_layout_names_the_first_misfit(self, arrays, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_layout(arrays, {"a": (2,), "b": (3,)}, "x")

    def test_load_writes_at_each_parameter_width_and_copies(self):
        with ad.default_dtype(np.float32):
            p = ad.Parameter(np.zeros(3), "p")
        with ad.default_dtype(np.float64):
            q = ad.Parameter(np.zeros(2), "q")
        arrays = {"p": np.arange(3.0), "q": np.arange(2, dtype=np.float32)}
        load_into_params(arrays, {"p": p, "q": q}, "x")
        assert (p.data.dtype, q.data.dtype) == (np.float32, np.float64)
        np.testing.assert_array_equal(p.data, [0, 1, 2])
        np.testing.assert_array_equal(q.data, [0, 1])
        assert not np.shares_memory(p.data, arrays["p"])

    def test_checkpoint_entries_are_immutable(self):
        ckpt = random_checkpoint()
        with pytest.raises(ValueError):
            ckpt.get("p0")[0, 0] = 5.0

    def test_checkpoint_owns_its_bytes_across_an_optimizer_step(self):
        cfg = expert.ModelConfig(width=8, blocks=1, heads=1, ff_mult=2, t_max=4)
        with ad.default_dtype(np.float32):
            params = expert.init_encoder(np.random.default_rng(0), cfg).parameters()
        assert {p.data.dtype for p in params} == {np.dtype(np.float32)}
        ckpt = checkpoint_from_params(params)
        before = ckpt.to_bytes()
        for p in params:
            assert not np.shares_memory(ckpt.get(p.name), p.data)
            p.tensor.grad = np.ones_like(p.data)
        Adam(params, lr=0.1).step()
        assert ckpt.to_bytes() == before
        assert all(p.data.flags.writeable for p in params)
        assert checkpoint_from_params(params).to_bytes() != before


VALID_BLOB = ExpertCheckpoint([
    ("block0.w", np.arange(6, dtype=np.float32).reshape(2, 3)),
    ("scalar", np.float32(1.5)),
    ("empty", np.zeros((0, 2), np.float32)),
]).to_bytes()


def parse_or_value_error(blob: bytes) -> None:
    """Malformed input raises ValueError only; what parses round-trips."""
    try:
        ckpt = ExpertCheckpoint.from_bytes(blob)
    except ValueError as exc:
        assert str(exc)
        return
    assert ckpt.to_bytes() == blob


class TestMalformedBytes:
    @given(st.integers(0, len(VALID_BLOB) - 1))
    def test_truncation_rejected(self, cut):
        with pytest.raises(ValueError, match="truncated"):
            ExpertCheckpoint.from_bytes(VALID_BLOB[:cut])

    @settings(max_examples=300)
    @given(st.integers(0, 8), st.binary(max_size=128))
    def test_random_blob_after_valid_header(self, count, body):
        parse_or_value_error(struct.pack("<II", 1, count) + body)

    @settings(max_examples=300)
    @given(st.integers(0, len(VALID_BLOB) - 1), st.integers(0, 255))
    def test_corrupted_byte(self, index, value):
        blob = bytearray(VALID_BLOB)
        blob[index] = value
        parse_or_value_error(bytes(blob))

    def test_huge_declared_shape_rejected_without_allocating(self):
        blob = (struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"w"
                + struct.pack("<III", 2, 2**32 - 1, 2**32 - 1))
        with pytest.raises(ValueError, match="'w' values"):
            ExpertCheckpoint.from_bytes(blob)

    def test_invalid_utf8_name_rejected(self):
        blob = struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"\xff"
        with pytest.raises(ValueError, match="utf-8"):
            ExpertCheckpoint.from_bytes(blob)
