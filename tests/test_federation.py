"""Federation protocol tests on a small synthetic scenario."""

import dataclasses
import re
import weakref

import numpy as np
import pytest

from fedmoe import autodiff as ad
from fedmoe import data, expert, federation
from fedmoe.checkpoint import ExpertCheckpoint
from fedmoe.config import RunConfig
from fedmoe.errors import ConfigError, EmptyDatasetError

from helpers import encode_prefixes, single_tape_step


@pytest.fixture(scope="module")
def scenario():
    return data.generate_synthetic(
        data.SyntheticSpec(num_domains=3, items_per_domain=60, users_per_domain=120,
                           min_len=10, max_len=14, num_clusters=6, seed=42))


def small_config(**overrides):
    base = dict(mode="fmoe", rounds=1, local_epochs=1, patience=0, batch_size=64,
                learning_rate=0.01, width=16, blocks=1, heads=1, ff_mult=2,
                gnn_depth=1, dropout=0.1, seed=7)
    base.update(overrides)
    return RunConfig(**base)


class _WeakTape(ad.Tape):
    __slots__ = ("__weakref__",)


def _record_tapes(monkeypatch, keep):
    """Make every tape federation opens a weak-referenceable one, and hand
    each to keep as it is made."""
    def make():
        tape = _WeakTape()
        keep(tape)
        return tape

    monkeypatch.setattr(federation, "Tape", make)


class TestClientBuild:
    def test_global_branches_cover_other_domains(self, scenario):
        client = federation.build_client(scenario, "d1", small_config())
        assert sorted(client.global_branches) == ["d0", "d2"]
        assert client.gate is not None
        assert client.gate.num_experts == 3

    def test_local_only_has_no_globals_or_gate(self, scenario):
        client = federation.build_client(scenario, "d0", small_config(mode="local_only"))
        assert client.global_branches == {} and client.gate is None

    def test_drop_expert_shrinks_other_domains_branch_sets(self, scenario):
        cfg = small_config(mode="drop_expert", drop_domain="d2")
        client = federation.build_client(scenario, "d0", cfg)
        assert sorted(client.global_branches) == ["d1"]
        assert client.gate.num_experts == 2
        dropped = federation.build_client(scenario, "d2", cfg)
        assert sorted(dropped.global_branches) == ["d0", "d1"]

    @pytest.mark.parametrize("mode", ["fmoe", "no_gate", "no_freeze", "two_phase"])
    def test_drop_domain_ignored_outside_drop_expert(self, scenario, mode):
        client = federation.build_client(scenario, "d0",
                                         small_config(mode=mode, drop_domain="d2"))
        assert sorted(client.global_branches) == ["d1", "d2"]
        if client.gate is not None:
            assert client.gate.num_experts == 3


class TestRestoreParameters:
    @pytest.mark.parametrize("edit, message", [
        ("shape", "state entry 'global.d2.head.out' has shape (3,), expected {shape}"),
        ("missing", "state has no entry 'global.d2.head.out'"),
        ("extra", "state has an unexpected entry 'zz.extra'")])
    def test_state_that_does_not_fit_changes_nothing(self, scenario, edit, message):
        # the entries before 'global.d2.head.out' would be written first
        client = federation.build_client(scenario, "d0", small_config())
        state = {name: a + 1.0 for name, a in client.snapshot_parameters().items()}
        message = message.format(shape=state["global.d2.head.out"].shape)
        if edit == "shape":
            state["global.d2.head.out"] = np.zeros(3)
        elif edit == "missing":
            del state["global.d2.head.out"]
        else:
            state["zz.extra"] = np.zeros(1)
        before = [p.data.tobytes() for p in client.all_parameters()]
        with pytest.raises(ValueError, match=re.escape(f"domain 'd0': {message}")):
            client.restore_parameters(state)
        assert [p.data.tobytes() for p in client.all_parameters()] == before


class TestClientUpdate:
    def test_global_encoders_byte_identical_to_synced_checkpoints(self, scenario):
        cfg = small_config()
        clients = [federation.build_client(scenario, d, cfg) for d in ("d0", "d1", "d2")]
        cache = federation.ServerCache()
        for c in clients:
            cache.put(c.domain_id, c.local_encoder_checkpoint())
        snapshot = cache.snapshot()
        federation.client_update(clients[0], snapshot, 0)
        for dom, branch in clients[0].global_branches.items():
            for p in branch.encoder.parameters():
                expected = snapshot[dom].get(p.name).astype(p.data.dtype)
                assert p.data.tobytes() == expected.tobytes(), (dom, p.name)

    def test_no_freeze_mode_changes_at_least_one_global_encoder(self, scenario):
        cfg = small_config(mode="no_freeze")
        clients = [federation.build_client(scenario, d, cfg) for d in ("d0", "d1", "d2")]
        cache = federation.ServerCache()
        for c in clients:
            cache.put(c.domain_id, c.local_encoder_checkpoint())
        snapshot = cache.snapshot()
        federation.client_update(clients[1], snapshot, 0)
        changed = False
        for dom, branch in clients[1].global_branches.items():
            for p in branch.encoder.parameters():
                if p.data.tobytes() != snapshot[dom].get(p.name).astype(p.data.dtype).tobytes():
                    changed = True
        assert changed

    @pytest.mark.parametrize("edit, error, message", [
        ("missing", ConfigError, "server cache is missing domain 'd2'"),
        ("shape", ValueError, "domain 'd0': download entry 'global.d2.block0.ff_out_bias' "
                              "has shape (15,), expected (16,)")])
    def test_failed_download_writes_no_encoder_and_keeps_moments(self, scenario, edit,
                                                                 error, message):
        # d1 comes first and fits, so a branch-by-branch sync would write it
        cfg = small_config(mode="no_freeze")
        clients = [federation.build_client(scenario, d, cfg) for d in ("d0", "d1", "d2")]
        cache = federation.ServerCache()
        for c in clients:
            cache.put(c.domain_id, c.local_encoder_checkpoint())
        client = clients[0]
        federation.client_update(client, cache.snapshot(), 0)
        snapshot = {dom: ExpertCheckpoint([(n, a + 1.0) for n, a in ckpt.entries])
                    for dom, ckpt in cache.snapshot().items()}
        if edit == "missing":
            del snapshot["d2"]
        else:
            snapshot["d2"] = ExpertCheckpoint([(n, a[:-1] if n == "block0.ff_out_bias" else a)
                                               for n, a in snapshot["d2"].entries])

        def encoder_bytes():
            return [p.data.tobytes() for branch in client.global_branches.values()
                    for p in branch.encoder.parameters()]

        def moment_bytes():
            return {key: (m.tobytes(), v.tobytes())
                    for key, (m, v) in client.optimizer._moments.items()}

        encoders, moments = encoder_bytes(), moment_bytes()
        assert any(id(p) in moments for p in client.global_branches["d1"].encoder.parameters())
        with pytest.raises(error, match=re.escape(message)):
            client.sync(snapshot)
        assert encoder_bytes() == encoders
        assert moment_bytes() == moments

    def test_returned_checkpoint_differs_from_round_start(self, scenario):
        cfg = small_config()
        client = federation.build_client(scenario, "d0", cfg)
        cache = federation.ServerCache()
        for d in ("d0", "d1", "d2"):
            cache.put(d, federation.build_client(scenario, d, cfg).local_encoder_checkpoint())
        start = client.local_encoder_checkpoint().to_bytes()
        out = federation.client_update(client, cache.snapshot(), 0)
        assert out.to_bytes() != start

    def test_loss_components_bookkeeping(self, scenario):
        cfg = small_config()
        client = federation.build_client(scenario, "d0", cfg)
        prefixes, targets = client.dataset.train_arrays()
        rng = np.random.default_rng(0)
        batch = prefixes[:32]
        aug = data.augment_batch(batch, cfg.shuffle_ratio, rng)
        total, components = federation.client_losses(client, batch, aug, targets[:32], rng)
        assert len(components) == 7  # 2 per expert branch + fusion, D=3
        assert np.isfinite(total)
        assert total == pytest.approx(sum(components.values()), rel=1e-5)

    @pytest.mark.parametrize("mode, local_only", [("fedavg", False), ("local_only", False),
                                                  ("two_phase", True)])
    def test_one_branch_losses_record_no_dead_tape_node(self, scenario, monkeypatch, mode,
                                                        local_only):
        """fedavg, local_only and two-phase pretraining train the local branch
        alone: every op on its tape feeds the loss, so each gets a gradient."""
        client = federation.build_client(scenario, "d0", small_config(mode=mode))
        prefixes, targets = client.dataset.train_arrays()
        rng = np.random.default_rng(0)
        batch = prefixes[:32]
        aug = data.augment_batch(batch, client.cfg.shuffle_ratio, rng)
        tapes = []
        _record_tapes(monkeypatch, tapes.append)
        total, components = federation.client_losses(client, batch, aug, targets[:32],
                                                     rng, local_only=local_only)
        assert sorted(components) == ["con:local", "rec:local"]
        assert len(tapes) == 1
        for tape in tapes:
            dead = [i for i, node in enumerate(tape.nodes) if node.out.grad is None]
            assert tape.nodes and not dead, \
                f"{len(dead)} of {len(tape.nodes)} nodes have no gradient"

    @pytest.mark.parametrize("bad, message", [("empty", r"no items \(row 3\)"),
                                              ("gap", "row 3 is not left-padded")])
    def test_malformed_batch_rejected_before_any_branch_computes(self, scenario, monkeypatch,
                                                                 bad, message):
        client = federation.build_client(scenario, "d0", small_config())
        prefixes, targets = client.dataset.train_arrays()
        rng = np.random.default_rng(0)
        batch = prefixes[:8].copy()
        aug = data.augment_batch(batch, client.cfg.shuffle_ratio, rng)
        batch[3] = 0
        if bad == "gap":
            batch[3, :2] = 5

        def computed(*args):
            raise AssertionError("a branch computed before the batch was checked")

        monkeypatch.setattr(federation, "lookup_table", computed)
        with pytest.raises(ValueError, match=message):
            federation.client_losses(client, batch, aug, targets[:8], rng)

    def test_one_layout_per_step_and_per_evaluation_chunk(self, scenario, monkeypatch):
        """Three branches encode each batch from one layout, so the prefix
        checks run once per step."""
        built = []
        original = expert.BatchLayout.__init__

        def counted(layout, prefixes):
            built.append(prefixes.shape)
            original(layout, prefixes)

        monkeypatch.setattr(expert.BatchLayout, "__init__", counted)
        client = federation.build_client(scenario, "d0", small_config())
        assert len(client.branches()) == 3
        prefixes, targets = client.dataset.train_arrays()
        rng = np.random.default_rng(0)
        batch = prefixes[:8]
        aug = data.augment_batch(batch, client.cfg.shuffle_ratio, rng)
        federation.client_losses(client, batch, aug, targets[:8], rng)
        assert built == [(16, batch.shape[1])]
        built.clear()
        federation.evaluate_client(client, "valid")
        chunks = -(-len(client.dataset.eval_arrays("valid")[1]) // client.cfg.eval_batch)
        assert len(built) == chunks

    def test_one_sample_batches_warn_once_per_update(self, scenario, caplog):
        """A training set of 1 modulo the batch size leaves a one-sample batch
        in every epoch, whose contrastive terms are zero in all three
        branches; the update warns once, naming the domain, the round and
        the number of such batches."""
        n = len(federation.build_client(scenario, "d0", small_config()).dataset.train_arrays()[1])
        client = federation.build_client(scenario, "d0",
                                         small_config(batch_size=n - 1, local_epochs=2))
        assert len(client.branches()) == 3
        with caplog.at_level("WARNING", logger="fedmoe"):
            federation.client_update(client, None, 4)
        assert [r.getMessage() for r in caplog.records] == [
            "domain d0 round 4: contrastive loss skipped in 2 one-sample batch(es), "
            "which have no negatives"]

    def test_non_finite_loss_raises_before_the_step(self, scenario, monkeypatch):
        client = federation.build_client(scenario, "d1", small_config())
        real_losses = federation.client_losses

        def infinite_losses(*args, **kwargs):
            total, components = real_losses(*args, **kwargs)
            return total * np.inf, components

        monkeypatch.setattr(federation, "client_losses", infinite_losses)
        before = [p.data.tobytes() for p in client.all_parameters()]
        with pytest.raises(FloatingPointError, match="domain d1"), \
                np.errstate(invalid="ignore"):
            federation.client_update(client, None, 0)
        assert [p.data.tobytes() for p in client.all_parameters()] == before
        assert client.optimizer.t == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("branch", [0, 1, 2])
    def test_non_finite_logit_in_any_branch_raises_before_the_step(self, scenario, monkeypatch,
                                                                   branch, bad):
        """One bad logit, outside the target column so that -inf leaves the
        branch's cross-entropy finite, stops the step before Adam runs."""
        client = federation.build_client(scenario, "d1", small_config())
        real_rec_loss = federation.rec_loss
        calls = []

        def poisoned_rec_loss(logits, targets, *args, **kwargs):
            if len(calls) == branch:
                logits.data[0, targets[0] % logits.data.shape[1]] = bad
            calls.append(branch)
            return real_rec_loss(logits, targets, *args, **kwargs)

        monkeypatch.setattr(federation, "rec_loss", poisoned_rec_loss)
        before = [p.data.tobytes() for p in client.all_parameters()]
        with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
            federation.client_update(client, None, 0)
        assert [p.data.tobytes() for p in client.all_parameters()] == before
        assert client.optimizer.t == 0


# mode, config overrides, local_only
STEP_CASES = [("fmoe", {}, False), ("no_gate", {}, False), ("no_freeze", {}, False),
              ("drop_expert", {"drop_domain": "d1"}, False), ("fedavg", {}, False),
              ("local_only", {}, False), ("two_phase", {}, True)]


class TestBranchTapes:
    """Each branch runs forward and backward on a tape of its own, then the
    gate on another; the step equals the one-tape step bit for bit."""

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("mode, overrides, local_only", STEP_CASES,
                             ids=[c[0] for c in STEP_CASES])
    def test_bit_identical_to_the_single_tape_step(self, scenario, mode, overrides, local_only,
                                                   precision, blocks):
        cfg = small_config(mode=mode, precision=precision, blocks=blocks, **overrides)
        with ad.default_dtype(cfg.dtype):
            ref, new = (federation.build_client(scenario, "d0", cfg) for _ in range(2))
            prefixes, targets = ref.dataset.train_arrays()
            batch, tgt = prefixes[:32], targets[:32]
            aug = data.augment_batch(batch, cfg.shuffle_ratio, np.random.default_rng(3))
            ref_rng, new_rng = np.random.default_rng(5), np.random.default_rng(5)
            ref_total, ref_components = single_tape_step(ref, batch, aug, tgt, ref_rng,
                                                         local_only=local_only)
            total, components = federation.client_losses(new, batch, aug, tgt, new_rng,
                                                         local_only=local_only)
        assert total == float(ref_total.data)
        assert components == ref_components
        assert new_rng.random() == ref_rng.random()
        grads = 0
        for (name, p), q in zip(new._named_parameters().items(), ref.all_parameters()):
            if q.tensor.grad is None:
                assert p.tensor.grad is None, name
                continue
            assert p.tensor.grad.dtype == q.tensor.grad.dtype == cfg.dtype, name
            assert np.array_equal(p.tensor.grad, q.tensor.grad), name
            grads += 1
        assert grads

    @pytest.mark.parametrize("mode, overrides, tapes", [
        ("fmoe", {}, 4), ("no_gate", {}, 3), ("drop_expert", {"drop_domain": "d1"}, 3),
        ("fedavg", {}, 1)])
    def test_one_backward_per_branch_and_gate_tape(self, scenario, monkeypatch, mode,
                                                   overrides, tapes):
        """A gate-less client's fusion loss records no node, so it gets no
        backward call, and the step still trains."""
        client = federation.build_client(scenario, "d0", small_config(mode=mode, **overrides))
        real_backward = federation.backward
        nodes = []

        def counted(loss, tape):
            nodes.append(len(tape.nodes))
            real_backward(loss, tape)

        monkeypatch.setattr(federation, "backward", counted)
        before = client.snapshot_parameters()
        federation.client_update(client, None, 0)
        steps = -(-len(client.dataset.train_arrays()[1]) // client.cfg.batch_size)
        assert len(nodes) == tapes * steps
        assert all(nodes), "backward ran on an empty tape"
        after = client.snapshot_parameters()
        assert any(not np.array_equal(before[n], after[n]) for n in before)
        if client.gate is not None:
            assert any(not np.array_equal(before[p.name], after[p.name])
                       for p in client.gate.parameters())

    def test_no_two_branch_tapes_alive_at_once(self, scenario, monkeypatch):
        """When a branch starts, and when the gate starts, every earlier tape
        is gone; of its arrays only the kept z rows and loss value remain."""
        client = federation.build_client(scenario, "d0", small_config())
        prefixes, targets = client.dataset.train_arrays()
        rng = np.random.default_rng(0)
        batch = prefixes[:32]
        aug = data.augment_batch(batch, client.cfg.shuffle_ratio, rng)
        width = client.cfg.width
        kept = {(), (len(batch), width), (2 * len(batch), width)}
        tapes, arrays, seen = [], [], []
        _record_tapes(monkeypatch, lambda tape: tapes.append(weakref.ref(tape)))
        real_backward = federation.backward

        def remembered(loss, tape):
            real_backward(loss, tape)
            found = {id(a): a for node in tape.nodes for a in (node.out.data, node.out.grad)
                     if isinstance(a, np.ndarray)}
            arrays.append([weakref.ref(a) for a in found.values()])

        def first_op_of(name, fn):
            def wrapped(*args, **kwargs):
                alive = [ref() for refs in arrays for ref in refs if ref() is not None]
                seen.append((name, [ref() is not None for ref in tapes], len(arrays),
                             sorted({a.shape for a in alive} - kept)))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(federation, "backward", remembered)
        monkeypatch.setattr(federation, "lookup_table",
                            first_op_of("branch", federation.lookup_table))
        monkeypatch.setattr(federation, "gate_forward",
                            first_op_of("gate", federation.gate_forward))
        federation.client_losses(client, batch, aug, targets[:32], rng)
        assert seen == [("branch", [True], 0, []),
                        ("branch", [False, True], 1, []),
                        ("branch", [False, False, True], 2, []),
                        ("gate", [False, False, False, True], 3, [])]
        assert len(tapes) == 4 and all(ref() is None for ref in tapes)


class TestPrecision:
    @pytest.mark.parametrize("overrides, width", [({}, np.float32),
                                                  ({"precision": "float64"}, np.float64)])
    def test_parameters_gradients_and_moments_at_configured_width(self, scenario,
                                                                   overrides, width):
        res = federation.run(scenario, small_config(**overrides))
        for client in res.clients:
            params = client.all_parameters()
            grads = [p.tensor.grad for p in params if p.tensor.grad is not None]
            moments = [m for pair in client.optimizer._moments.values() for m in pair]
            assert grads and moments
            arrays = [p.data for p in params] + grads + moments
            assert {a.dtype for a in arrays} == {np.dtype(width)}, client.domain_id


class TestServerCachePut:
    def _cache(self):
        cache = federation.ServerCache()
        cache.put("d0", ExpertCheckpoint([("w", np.zeros((2, 3), np.float32)),
                                          ("b", np.zeros(3, np.float32))]))
        return cache

    def _rejected(self, cache, ckpt, match):
        before = (cache.state_bytes(), list(cache.upload_history))
        with pytest.raises(ValueError, match=match):
            cache.put("d0", ckpt)
        assert (cache.state_bytes(), cache.upload_history) == before

    def test_matching_upload_replaces(self):
        cache = self._cache()
        ckpt = ExpertCheckpoint([("w", np.ones((2, 3), np.float32)),
                                 ("b", np.ones(3, np.float32))])
        cache.put("d0", ckpt)
        assert cache.checkpoints["d0"] is ckpt
        assert len(cache.upload_history) == 2

    def test_other_names_rejected(self):
        ckpt = ExpertCheckpoint([("w", np.ones((2, 3), np.float32)),
                                 ("bias", np.ones(3, np.float32))])
        self._rejected(self._cache(), ckpt, r"'d0'.*entry 'b'")

    def test_other_shape_rejected(self):
        ckpt = ExpertCheckpoint([("w", np.ones((3, 2), np.float32)),
                                 ("b", np.ones(3, np.float32))])
        self._rejected(self._cache(), ckpt, r"'d0'.*entry 'w'.*\(3, 2\).*\(2, 3\)")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        b = np.ones(3, np.float32)
        b[1] = bad
        ckpt = ExpertCheckpoint([("w", np.ones((2, 3), np.float32)), ("b", b)])
        self._rejected(self._cache(), ckpt, r"'d0'.*entry 'b'.*non-finite")

    def test_non_finite_first_upload_fixes_nothing(self):
        cache = federation.ServerCache()
        with pytest.raises(ValueError, match="non-finite"):
            cache.put("d1", ExpertCheckpoint([("w", np.full(2, np.nan, np.float32))]))
        good = ExpertCheckpoint([("v", np.zeros(4, np.float32))])
        cache.put("d1", good)
        assert cache.checkpoints == {"d1": good}


class TestFedavgAggregate:
    def test_idempotent_on_identical_checkpoints(self):
        ckpt = ExpertCheckpoint([("a", np.full((3, 3), 0.7, np.float32)),
                                 ("b", np.linspace(0, 1, 4, dtype=np.float32))])
        out = federation.fedavg_aggregate([ckpt, ckpt, ckpt])
        for name in ckpt.names:
            np.testing.assert_allclose(out.get(name), ckpt.get(name), rtol=1e-7)

    def test_opposite_checkpoints_average_to_zero(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 4)).astype(np.float32)
        a = ExpertCheckpoint([("w", w)])
        b = ExpertCheckpoint([("w", -w)])
        np.testing.assert_array_equal(federation.fedavg_aggregate([a, b]).get("w"), 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_mean_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ckpts = [ExpertCheckpoint([("w", rng.standard_normal((5, 7)).astype(np.float32))])
                 for _ in range(3)]
        out = federation.fedavg_aggregate(ckpts).get("w")
        for i in range(5):
            for j in range(7):
                vals = [float(c.get("w")[i, j]) for c in ckpts]
                assert abs(out[i, j] - sum(vals) / 3) <= 1e-7

    def test_name_mismatch_rejected(self):
        a = ExpertCheckpoint([("w", np.zeros(2, np.float32))])
        b = ExpertCheckpoint([("v", np.zeros(2, np.float32))])
        with pytest.raises(ValueError, match="checkpoint 1 to aggregate has an unexpected "
                                             "entry 'v'"):
            federation.fedavg_aggregate([a, b])

    def test_shape_mismatch_names_the_entry(self):
        a = ExpertCheckpoint([("b", np.zeros(3, np.float32)), ("w", np.zeros((2, 3), np.float32))])
        c = ExpertCheckpoint([("b", np.zeros(3, np.float32)), ("w", np.zeros((3, 2), np.float32))])
        with pytest.raises(ValueError, match=re.escape(
                "checkpoint 2 to aggregate entry 'w' has shape (3, 2), expected (2, 3)")):
            federation.fedavg_aggregate([a, a, c])

    def test_entry_order_mismatch_rejected(self):
        a = ExpertCheckpoint([("b", np.zeros(3, np.float32)), ("w", np.zeros(2, np.float32))])
        b = ExpertCheckpoint([("w", np.zeros(2, np.float32)), ("b", np.zeros(3, np.float32))])
        with pytest.raises(ValueError, match="checkpoint 1 to aggregate lists its entries in "
                                             "another order"):
            federation.fedavg_aggregate([a, b])


class TestRunModes:
    @pytest.mark.parametrize("mode", ["fmoe", "local_only", "fedavg", "no_gate",
                                      "no_freeze"])
    def test_smoke_one_round(self, scenario, mode):
        res = federation.run(scenario, small_config(mode=mode))
        assert len(res.history) == 1
        assert set(res.final_test.per_domain) == {"d0", "d1", "d2"}
        for m in res.final_test.per_domain.values():
            assert 0 <= m.mrr <= 100

    def test_drop_expert_smoke(self, scenario):
        res = federation.run(scenario, small_config(mode="drop_expert", drop_domain="d1"))
        assert res.final_test.per_domain["d0"].gate_weights is not None
        assert len(res.final_test.per_domain["d0"].gate_weights) == 2
        assert len(res.final_test.per_domain["d1"].gate_weights) == 3

    @pytest.mark.parametrize("mode", ["fmoe", "local_only", "fedavg", "no_gate",
                                      "no_freeze", "two_phase"])
    def test_drop_domain_outside_drop_expert_rejected(self, scenario, mode):
        with pytest.raises(ConfigError, match=f"drop_domain .* {mode} mode"):
            federation.run(scenario, small_config(mode=mode, drop_domain="d1"))

    @pytest.mark.parametrize("mode", ["fmoe", "local_only", "fedavg", "no_gate",
                                      "no_freeze", "drop_expert"])
    def test_pretrain_epochs_outside_two_phase_rejected(self, mode):
        cfg = small_config(mode=mode, pretrain_epochs=1,
                           drop_domain="d1" if mode == "drop_expert" else None)
        with pytest.raises(ConfigError, match=f"pretrain_epochs .* {mode} mode"):
            cfg.validate()
        dataclasses.replace(cfg, pretrain_epochs=0).validate()

    def test_drop_unknown_domain_rejected(self, scenario):
        with pytest.raises(ConfigError):
            federation.run(scenario, small_config(mode="drop_expert", drop_domain="nope"))

    def test_two_phase_zero_pretrain_runs(self, scenario):
        res = federation.run(scenario, small_config(mode="two_phase", rounds=1,
                                                    pretrain_epochs=0))
        assert res.final_test.avg.mrr >= 0

    def test_upload_discipline_only_encoder_names(self, scenario):
        res = federation.run(scenario, small_config(rounds=2, patience=0))
        assert res.cache.upload_history
        banned = ("embed", "position", "head", "gate")
        for _, _, names in res.cache.upload_history:
            assert names  # every upload carries the encoder
            for name in names:
                assert name.startswith("block")
                assert not any(b in name for b in banned)

    def test_gate_weights_logged_for_gated_modes(self, scenario):
        res = federation.run(scenario, small_config())
        for m in res.final_test.per_domain.values():
            assert m.gate_weights is not None
            assert sum(m.gate_weights) == pytest.approx(1.0, abs=1e-6)

    def test_branch_nll_reported_beside_fused_nll(self, scenario):
        res = federation.run(scenario, small_config(mode="no_gate"))
        for m in res.final_test.per_domain.values():
            assert len(m.branch_nll) == len(m.gate_weights) == 3
            # under equal weights -log(mean p) <= mean(-log p), sample by sample
            assert m.nll <= np.mean(m.branch_nll) + 1e-9

    def test_single_branch_nll_is_the_fused_nll(self, scenario):
        res = federation.run(scenario, small_config(mode="local_only"))
        client = res.clients[0]
        m = federation.evaluate_client(client, "test")
        assert m.branch_nll is None and m.gate_weights is None
        prefixes, targets = client.dataset.eval_arrays("test")
        _, logits = encode_prefixes(client.local, client.dataset.adjacency, prefixes)
        probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(len(targets)), targets - 1]))
        assert m.nll == pytest.approx(expected, rel=1e-6)


def _left_padded(items, t_max):
    out = np.zeros(t_max, dtype=np.int64)
    out[t_max - len(items):] = items
    return out


class TestConfigKnobs:
    """exclude_seen, gate_hidden_dim and the retired moe_grad_to_experts,
    reached through the federation's own entry points."""

    def test_exclude_seen_ranks_without_seen_items(self, scenario, monkeypatch):
        # every row gets the same scores: item 7 first, item 3 second
        rows = [([5, 7], 3),      # seen item 7 outscores the target
                ([3, 7], 3),      # the target is in its own prefix and still ranked
                ([5, 6], 3)]      # unseen item 7 outscores the target
        prefixes = np.stack([_left_padded(items, 16) for items, _ in rows])
        targets = np.array([t for _, t in rows])
        mrr = {}
        for exclude in (False, True):
            client = federation.build_client(
                scenario, "d0", small_config(mode="local_only", exclude_seen=exclude))
            branch = client.local
            branch.head_out.tensor.data[:] = 0.0
            branch.head_out_bias.tensor.data[:] = 0.0
            branch.head_out_bias.tensor.data[[6, 2]] = [3.0, 2.0]  # items 7 and 3
            monkeypatch.setattr(client.dataset, "eval_arrays",
                                lambda split: (prefixes, targets))
            mrr[exclude] = federation.evaluate_client(client, "test").mrr
        assert mrr[False] == pytest.approx(100.0 / 2)                    # ranks 2, 2, 2
        assert mrr[True] == pytest.approx(100.0 * (1 + 1 + 0.5) / 3)    # ranks 1, 1, 2

    def test_hidden_gate_trains_and_mixes(self, scenario):
        cfg = small_config(gate_hidden_dim=8)
        before = {d: federation.build_client(scenario, d, cfg).gate.hidden_weight.data.tobytes()
                  for d in ("d0", "d1", "d2")}
        res = federation.run(scenario, cfg)
        for client in res.clients:
            assert client.gate.hidden_weight.name == "gate.hidden"
            assert client.gate.hidden_weight.data.tobytes() != before[client.domain_id]
            prefixes, targets = client.dataset.eval_arrays("test")
            tables = [expert.lookup_table(b, client.dataset.adjacency)
                      for b in client.branches().values()]
            _, gates, _ = federation._client_scores(client, prefixes, targets, tables)
            assert gates.shape == (len(targets), 3)
            np.testing.assert_allclose(gates.sum(axis=1), 1.0, rtol=1e-5)

    def test_negative_gate_hidden_dim_rejected_before_building(self, scenario, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a client was built for a negative gate_hidden_dim")

        monkeypatch.setattr(federation, "build_client", no_build)
        with pytest.raises(ConfigError, match="gate_hidden_dim must be >= 0"):
            federation.run(scenario, small_config(gate_hidden_dim=-1))

    def test_retired_expert_gradient_field(self):
        """Run directories of earlier releases saved moe_grad_to_experts:
        false, the only behaviour left, is dropped; true is refused."""
        payload = small_config().to_dict()
        assert "moe_grad_to_experts" not in payload
        assert RunConfig.from_dict({**payload, "moe_grad_to_experts": False}) == small_config()
        with pytest.raises(ConfigError, match="moe_grad_to_experts"):
            RunConfig.from_dict({**payload, "moe_grad_to_experts": True})


class TestDeterminism:
    def test_same_seed_identical_histories(self, scenario):
        cfg = small_config(rounds=2, patience=0)
        a = federation.run(scenario, cfg)
        b = federation.run(scenario, dataclasses.replace(cfg))
        assert [r.per_domain for r in a.history] == [r.per_domain for r in b.history]
        assert a.final_test.per_domain == b.final_test.per_domain

    def test_different_seed_differs(self, scenario):
        a = federation.run(scenario, small_config())
        b = federation.run(scenario, small_config(seed=8))
        assert a.final_test.per_domain != b.final_test.per_domain

    def test_sequential_and_parallel_clients_identical(self, scenario):
        cfg = small_config(rounds=2, patience=0)
        seq = federation.run(scenario, cfg)
        par = federation.run(scenario, dataclasses.replace(cfg, parallel_clients=True))
        assert seq.cache.state_bytes() == par.cache.state_bytes()
        assert seq.final_test.per_domain == par.final_test.per_domain

    def test_fedavg_cache_order_independent(self, scenario):
        cfg = small_config(mode="fedavg", rounds=2, patience=0)
        seq = federation.run(scenario, cfg)
        par = federation.run(scenario, dataclasses.replace(cfg, parallel_clients=True))
        assert seq.cache.shared == par.cache.shared


class TestSplitChecks:
    def test_empty_evaluation_split_fails_before_training(self, monkeypatch):
        no_filters = data.DataConfig(apply_filters=False)
        full = [(f"a{u}", [f"x{(u + j) % 5}" for j in range(8)]) for u in range(6)]
        two = [(f"b{u}", [f"y{u % 3}", f"y{(u + 1) % 3}"]) for u in range(4)]  # valid only
        one = [(f"c{u}", [f"z{u % 2}"]) for u in range(3)]                       # nothing
        scenario = data.ScenarioSpec([data.build_domain_dataset("d0", full, no_filters),
                                      data.build_domain_dataset("d1", two, no_filters),
                                      data.build_domain_dataset("d2", one, no_filters)], seed=0)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the splits were checked")

        monkeypatch.setattr(federation, "client_update", no_training)
        for mode in ("fmoe", "fedavg", "two_phase"):
            with pytest.raises(EmptyDatasetError) as err:
                federation.run(scenario, small_config(mode=mode))
            assert str(err.value) == (
                "domain 'd1' has an empty test split; domain 'd2' has an empty valid split; "
                "domain 'd2' has an empty test split")

    def test_run_and_evaluation_leave_split_arrays_unchanged(self, scenario):
        before = {(d.domain_id, name): tuple(a.copy() for a in
                                             (s.prefixes, s.targets, s.users))
                  for d in scenario.domains
                  for name, s in (("train", d.train), ("valid", d.valid), ("test", d.test))}
        res = federation.run(scenario, small_config(rounds=2, exclude_seen=True))
        federation.evaluate_all(res.clients, "valid", 0, "fmoe")
        for d in scenario.domains:
            for name in ("train", "valid", "test"):
                s = getattr(d, name)
                for want, got in zip(before[d.domain_id, name],
                                     (s.prefixes, s.targets, s.users)):
                    assert not got.flags.writeable
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
