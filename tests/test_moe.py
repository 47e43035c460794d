"""Gate routing and fusion tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoe import autodiff as ad
from fedmoe import expert, moe
from fedmoe.errors import ShapeError
from fedmoe.optim import Adam

from helpers import build_adjacency, encode_prefixes

TINY = expert.ModelConfig(width=8, blocks=1, heads=1, ff_mult=2, gnn_depth=1,
                          t_max=6, dropout=0.0)


@pytest.fixture(autouse=True)
def _float64():
    with ad.default_dtype(np.float64):
        yield


def random_probs(rng, shape):
    x = rng.random(shape) + 1e-3
    return x / x.sum(axis=-1, keepdims=True)


class TestGateForward:
    def test_zero_init_gives_uniform_weights(self):
        gate = moe.init_gate(num_experts=3, width=4)
        z_list = [ad.Tensor(np.random.default_rng(i).standard_normal((5, 4)))
                  for i in range(3)]
        w = moe.gate_forward(z_list, gate)
        np.testing.assert_allclose(w.data, np.full((5, 3), 1 / 3), atol=1e-12)

    def test_width_mismatch_raises(self):
        gate = moe.init_gate(3, 4)
        z_list = [ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((2, 5))),
                  ad.Tensor(np.zeros((2, 4)))]
        with pytest.raises(ShapeError):
            moe.gate_forward(z_list, gate)

    def test_stop_gradient_blocks_expert_representations(self):
        gate = moe.init_gate(2, 3)
        z0 = ad.Parameter(np.random.default_rng(0).standard_normal((4, 3)), "z0")
        z1 = ad.Parameter(np.random.default_rng(1).standard_normal((4, 3)), "z1")
        with ad.Tape() as tape:
            w = moe.gate_forward([z0.tensor, z1.tensor], gate)
            ad.backward(ad.tsum(ad.mul(w, w)), tape)
        assert z0.tensor.grad is None and z1.tensor.grad is None
        assert gate.weight.tensor.grad is not None

    def test_rows_sum_to_one_and_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        d, n = 4, 3
        gate = moe.init_gate(n, d)
        gate.weight.tensor.data[:] = rng.standard_normal((n * d, n))
        gate.bias.tensor.data[:] = rng.standard_normal(n)
        z_list = [ad.Tensor(rng.standard_normal((6, d))) for _ in range(n)]
        w = moe.gate_forward(z_list, gate).data
        np.testing.assert_allclose(w.sum(axis=-1), np.ones(6), atol=1e-12)

        # swap the two global branches along with their gate blocks/columns
        perm = [0, 2, 1]
        permuted = moe.init_gate(n, d)
        blocks = gate.weight.data.reshape(n, d, n)
        permuted.weight.tensor.data[:] = blocks[perm][:, :, perm].reshape(n * d, n)
        permuted.bias.tensor.data[:] = gate.bias.data[perm]
        w2 = moe.gate_forward([z_list[i] for i in perm], permuted).data
        np.testing.assert_allclose(w2, w[:, perm], atol=1e-12)

    def test_hidden_gate_variant_starts_uniform(self):
        gate = moe.init_gate(3, 4, hidden_dim=8, rng=np.random.default_rng(0))
        z_list = [ad.Tensor(np.random.default_rng(i).standard_normal((2, 4)))
                  for i in range(3)]
        w = moe.gate_forward(z_list, gate)
        np.testing.assert_allclose(w.data, np.full((2, 3), 1 / 3), atol=1e-12)


def reference_fuse(prob_list, gate_weights):
    """The per-expert fusion chain of earlier releases (select, reshape,
    mul and add per expert, branch distributions stop-gradiented): the
    reference that the mixture op must match bit for bit."""
    mixture = None
    for e, probs in enumerate(prob_list):
        w = ad.reshape(ad.select(gate_weights, axis=-1, index=e), (-1, 1))
        term = ad.mul(w, ad.stop_gradient(probs))
        mixture = term if mixture is None else ad.add(mixture, term)
    return mixture


def reference_moe_loss(mixture, target_items):
    picked = ad.take_along_last(mixture, np.asarray(target_items) - 1)
    return ad.scale(ad.tmean(ad.tlog(ad.add(picked, ad.Tensor(moe.EPS_FLOOR)))), -1.0)


def fuse_logits(rng, batch, n, experts, dtype=np.float64):
    return [rng.normal(0, 2, (batch, n)).astype(dtype) for _ in range(experts)]


class TestFuse:
    def test_degenerate_gate_returns_local_distribution(self):
        rng = np.random.default_rng(2)
        logits = fuse_logits(rng, 4, 6, 3)
        local = ad.softmax(ad.Tensor(logits[0])).data
        weights = ad.Tensor(np.tile([1.0, 0.0, 0.0], (4, 1)))
        mixture, _ = moe.fuse([ad.Tensor(x) for x in logits], weights, np.ones(4, dtype=int))
        np.testing.assert_array_equal(mixture, local)

    def test_equal_weights_two_experts(self):
        logits = [ad.Tensor(np.array([[50.0, 0.0]])), ad.Tensor(np.array([[0.0, 50.0]]))]
        weights = ad.Tensor(np.array([[0.5, 0.5]]))
        mixture, _ = moe.fuse(logits, weights, np.array([1]))
        np.testing.assert_allclose(mixture, [[0.5, 0.5]], atol=1e-12)

    def test_length_mismatch_raises(self):
        logits = [ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((2, 5)))]
        with pytest.raises(ShapeError):
            moe.fuse(logits, ad.Tensor(np.full((2, 2), 0.5)), np.ones(2, dtype=int))

    @pytest.mark.parametrize("seed", range(10))
    def test_mixture_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        logits = [ad.Tensor(x) for x in fuse_logits(rng, 8, 20, 3)]
        weights = ad.Tensor(random_probs(rng, (8, 3)))
        mixture, _ = moe.fuse(logits, weights, np.ones(8, dtype=int))
        np.testing.assert_allclose(mixture.sum(axis=-1), np.ones(8), atol=1e-5)

    def test_one_hot_gate_preserves_expert_argmax(self):
        rng = np.random.default_rng(9)
        logits = fuse_logits(rng, 6, 12, 3)
        argmax = [x.argmax(axis=-1) for x in logits]
        weights = np.zeros((6, 3))
        pick = rng.integers(0, 3, size=6)
        weights[np.arange(6), pick] = 1.0
        mixture, _ = moe.fuse([ad.Tensor(x) for x in logits], ad.Tensor(weights),
                              np.ones(6, dtype=int))
        for i in range(6):
            assert mixture[i].argmax() == argmax[pick[i]][i]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 300),
           experts=st.integers(2, 4), dtype=st.sampled_from([np.float32, np.float64]),
           gated=st.booleans())
    def test_in_place_fusion_equals_softmax_and_reference_chain(self, seed, batch, experts,
                                                                 dtype, gated):
        """Row blocks, in-place softmax and in-place mixing change no bit:
        the mixture is the reference chain's over ad.softmax, and each
        branch NLL is read from that softmax."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        logits = fuse_logits(rng, batch, n, experts, dtype)
        targets = rng.integers(1, n + 1, size=batch)
        with ad.default_dtype(dtype):
            weights = (ad.Tensor(random_probs(rng, (batch, experts)).astype(dtype)) if gated
                       else moe.uniform_gate_weights(batch, experts))
        probs = [ad.softmax(ad.Tensor(x)) for x in logits]
        want = reference_fuse(probs, weights).data
        mixture, branch_nll = moe.fuse([ad.Tensor(x.copy()) for x in logits], weights, targets)
        assert mixture.dtype == dtype
        np.testing.assert_array_equal(mixture, want)
        np.testing.assert_array_equal(
            branch_nll, np.stack([moe.target_nll(p.data, targets) for p in probs], axis=1))


class TestMixtureOp:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 16),
           experts=st.integers(2, 4), dtype=st.sampled_from([np.float32, np.float64]),
           gated=st.booleans())
    def test_target_column_loss_and_gate_gradient_equal_reference(self, seed, batch, experts,
                                                                  dtype, gated):
        """The fusion loss on each branch's target probability, taken from
        its cross-entropy, has the value and gate gradient of the full
        per-expert chain over softmax distributions."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        with ad.default_dtype(dtype):
            logits = [ad.Tensor(x) for x in fuse_logits(rng, batch, n, experts, dtype)]
            gate_logits = ad.Parameter(rng.normal(0, 1, (batch, experts)), "gate")
            targets = rng.integers(1, n + 1, size=batch)

            def loss_and_grads(fusion_loss):
                gate_logits.tensor.grad = None
                with ad.Tape() as tape:
                    weights = (ad.softmax(gate_logits.tensor) if gated
                               else moe.uniform_gate_weights(batch, experts))
                    loss = fusion_loss(weights)
                    if gated:
                        ad.backward(loss, tape)
                return loss.data, weights.grad, gate_logits.tensor.grad

            want = loss_and_grads(lambda w: reference_moe_loss(
                reference_fuse([ad.softmax(x) for x in logits], w), targets))
            got = loss_and_grads(lambda w: moe.moe_loss(w, np.stack(
                [expert.rec_loss(x, targets, return_prob=True)[1] for x in logits], axis=1)))
        if not gated:
            assert got[1:] == want[1:] == (None, None)
            got, want = got[:1], want[:1]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 16),
           experts=st.integers(2, 4), dtype=st.sampled_from([np.float32, np.float64]))
    def test_any_upstream_gradient_equals_reference(self, seed, batch, experts, dtype):
        """Under any upstream gradient, mix gives the mixture and weight
        gradient of the reference chain over one-column values."""
        rng = np.random.default_rng(seed)
        values = rng.random((batch, experts)).astype(dtype)
        upstream = rng.normal(0, 1, batch).astype(dtype)

        def run(mixture_of, upstream):
            weights = ad.Tensor(random_probs(np.random.default_rng(seed), (batch, experts))
                                .astype(dtype), requires_grad=True)
            with ad.Tape() as tape:
                mixture = mixture_of(weights)
                ad.backward(ad.tsum(ad.mul(mixture, ad.Tensor(upstream))), tape)
            return mixture.data.reshape(batch), weights.grad

        want = run(lambda w: reference_fuse([ad.Tensor(values[:, e:e + 1])
                                             for e in range(experts)], w), upstream[:, None])
        got = run(lambda w: ad.mix(w, values), upstream)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_values_and_weights_must_agree(self):
        with pytest.raises(ShapeError):
            ad.mix(ad.Tensor(np.full((2, 3), 1 / 3)), np.ones((2, 2)))

    def test_values_get_no_gradient_path(self):
        """The branch values are a plain array: the op records the weights
        as its only input, so nothing upstream of the values is reached."""
        weights = ad.Tensor(np.full((2, 2), 0.5), requires_grad=True)
        with ad.Tape() as tape:
            ad.mix(weights, np.ones((2, 2)))
        assert [node.inputs for node in tape.nodes] == [(weights,)]


class TestMoeLoss:
    def test_certain_mixture_near_zero_loss(self):
        loss = moe.moe_loss(ad.Tensor(np.full((1, 2), 0.5)), np.array([[1.0, 1.0]]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_mixture_log4(self):
        loss = moe.moe_loss(ad.Tensor(np.full((2, 2), 0.5)), np.full((2, 2), 0.25))
        assert float(loss.data) == pytest.approx(math.log(4), abs=1e-6)

    def test_out_of_range_target(self):
        """The loss's inputs come from each branch's cross-entropy, which
        rejects a target outside the catalog."""
        with pytest.raises(IndexError):
            expert.rec_loss(ad.Tensor(np.zeros((1, 4))), np.array([5]), return_prob=True)


def _padded(items, t_max=6):
    out = np.zeros(t_max, dtype=np.int64)
    out[t_max - len(items):] = items
    return out


def test_gate_only_learning_full_stack():
    """One optimizer step driven purely by the fusion loss moves the gate
    parameters and nothing else, byte for byte."""
    rng = np.random.default_rng(23)
    num_items = 10
    adj = build_adjacency([[1, 2, 3, 4]], num_items)
    branches = [expert.init_branch(rng, num_items, TINY) for _ in range(3)]
    gate = moe.init_gate(3, TINY.width)
    gate.weight.tensor.data[:] = rng.normal(0, 0.1, gate.weight.data.shape)

    prefixes = np.stack([_padded([1, 2]), _padded([3, 4, 1])])
    targets = np.array([3, 2])
    all_params = [p for b in branches for p in b.parameters()] + gate.parameters()
    before = {id(p): p.data.tobytes() for p in all_params}

    opt = Adam(all_params, lr=0.01)
    opt.zero_grad()
    with ad.Tape() as tape:
        zs, probs = [], []
        for b in branches:
            z, logits = encode_prefixes(b, adj, prefixes)
            zs.append(z)
            probs.append(expert.rec_loss(logits, targets, return_prob=True)[1])
        weights = moe.gate_forward(zs, gate)
        ad.backward(moe.moe_loss(weights, np.stack(probs, axis=1)), tape)
    opt.step()

    for b in branches:
        for p in b.parameters():
            assert p.data.tobytes() == before[id(p)], p.name
    assert any(p.data.tobytes() != before[id(p)] for p in gate.parameters())


def test_gate_downweights_uninformative_expert():
    """Trained on the fusion loss alone, the gate weights an expert that
    carries no information about the target below uniform.

    Experts 0 and 1 put extra mass on the target item; expert 2 is the
    uniform distribution over the catalog, uninformative by construction.
    The gate reads random per-expert representations, so all it can learn
    is which expert to trust.
    """
    rng = np.random.default_rng(12)
    num_items, batch, width = 50, 64, 8
    gate = moe.init_gate(3, width)
    opt = Adam(gate.parameters(), lr=0.01)

    def step_inputs():
        targets = rng.integers(1, num_items + 1, size=batch)
        onehot = np.zeros((batch, num_items))
        onehot[np.arange(batch), targets - 1] = 1.0
        probs = [(1.0 + extra * onehot) / (num_items + extra) for extra in (10.0, 5.0)]
        probs.append(np.full((batch, num_items), 1.0 / num_items))
        z_list = [ad.Tensor(rng.standard_normal((batch, width))) for _ in range(3)]
        at_target = np.stack([p[np.arange(batch), targets - 1] for p in probs], axis=1)
        return z_list, at_target

    for _ in range(60):
        z_list, at_target = step_inputs()
        opt.zero_grad()
        with ad.Tape() as tape:
            ad.backward(moe.moe_loss(moe.gate_forward(z_list, gate), at_target), tape)
        opt.step()

    z_list, _ = step_inputs()
    mean_weights = moe.gate_forward(z_list, gate).data.mean(axis=0)
    assert mean_weights[2] < 1 / 3, \
        f"uniform expert weighted {mean_weights[2]:.3f}, not below 1/3"
    assert mean_weights[2] < mean_weights[:2].min(), \
        f"uniform expert not the least weighted: {np.round(mean_weights, 3)}"


def test_uniform_gate_weights_helper():
    w = moe.uniform_gate_weights(4, 5)
    np.testing.assert_allclose(w.data, np.full((4, 5), 0.2))
