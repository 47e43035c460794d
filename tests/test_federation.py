"""Federation protocol tests on a small synthetic scenario."""

import dataclasses

import numpy as np
import pytest

from fedmoe import autodiff as ad
from fedmoe import data, expert, federation
from fedmoe.checkpoint import ExpertCheckpoint
from fedmoe.config import RunConfig
from fedmoe.errors import ConfigError


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

    def test_drop_own_domain_rejected(self, scenario):
        client = federation.build_client(scenario, "d0", small_config())
        with pytest.raises(ConfigError):
            federation.drop_expert(client, "d0")

    def test_drop_mutator_rebuilds_gate(self, scenario):
        client = federation.build_client(scenario, "d0", small_config())
        federation.drop_expert(client, "d1")
        assert sorted(client.global_branches) == ["d2"]
        assert client.gate.num_experts == 2


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
        from fedmoe.autodiff import Tape
        with Tape():
            total, components = federation.client_losses(client, batch, aug,
                                                         targets[:32], rng)
        assert len(components) == 7  # 2 per expert branch + fusion, D=3
        assert np.isfinite(total.data)
        assert float(total.data) == pytest.approx(sum(components.values()), rel=1e-5)


    def test_non_finite_loss_raises_before_the_step(self, scenario, monkeypatch):
        client = federation.build_client(scenario, "d1", small_config())
        real_losses = federation.client_losses

        def infinite_losses(*args, **kwargs):
            total, components = real_losses(*args, **kwargs)
            return ad.scale(total, np.inf), components

        monkeypatch.setattr(federation, "client_losses", infinite_losses)
        before = [p.data.tobytes() for p in client.all_parameters()]
        with pytest.raises(FloatingPointError, match="domain d1"), \
                np.errstate(invalid="ignore"):
            federation.client_update(client, None, 0)
        assert [p.data.tobytes() for p in client.all_parameters()] == before
        assert client.optimizer.t == 0


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
        with pytest.raises(ValueError):
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
        _, logits = expert.encode_batch(client.local, client.dataset.adjacency,
                                        prefixes)
        probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(len(targets)), targets - 1]))
        assert m.nll == pytest.approx(expected, rel=1e-6)


def _left_padded(items, t_max):
    out = np.zeros(t_max, dtype=np.int64)
    out[t_max - len(items):] = items
    return out


class TestConfigKnobs:
    """exclude_seen, gate_hidden_dim and moe_grad_to_experts, reached
    through the federation's own entry points."""

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
            _, gates, _ = federation._client_scores(client, prefixes, targets)
            assert gates.shape == (len(targets), 3)
            np.testing.assert_allclose(gates.sum(axis=1), 1.0, rtol=1e-5)

    def test_expert_gradient_option_reaches_branch_heads(self, scenario):
        def head_and_gate_grads(flag):
            client = federation.build_client(scenario, "d0",
                                             small_config(moe_grad_to_experts=flag))
            prefixes, targets = client.dataset.train_arrays()
            rng = np.random.default_rng(0)
            batch = prefixes[:32]
            aug = data.augment_batch(batch, client.cfg.shuffle_ratio, rng)
            with ad.Tape() as tape:
                total, _ = federation.client_losses(client, batch, aug, targets[:32], rng)
                ad.backward(total, tape)
            heads = [b.head_out.tensor.grad.copy() for b in client.branches_in_order()]
            return heads, client.gate.weight.tensor.grad.copy()

        heads_off, gate_off = head_and_gate_grads(False)
        heads_on, gate_on = head_and_gate_grads(True)
        for off, on in zip(heads_off, heads_on):
            assert np.abs(on - off).max() > 0
        # the gate's own gradient is the same either way
        np.testing.assert_array_equal(gate_on, gate_off)


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
