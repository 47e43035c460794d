"""Encoder, branch, and objective tests for the domain expert."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from fedmoe import autodiff as ad
from fedmoe import data, expert
from fedmoe.optim import Adam

from helpers import gradient_close

TINY = expert.ModelConfig(width=8, blocks=1, heads=2, ff_mult=2, gnn_depth=1,
                          t_max=6, dropout=0.0)


@pytest.fixture(autouse=True)
def _float64():
    with ad.default_dtype(np.float64):
        yield


def identity_adjacency(num_items):
    return sp.identity(num_items + 1, format="csr").tolil().tocsr() * 1.0


def padded(items, t_max):
    out = np.zeros(t_max, dtype=np.int64)
    out[t_max - len(items):] = items
    return out


class TestGnnPropagate:
    def test_depth_zero_returns_input(self):
        emb = ad.Tensor(np.random.default_rng(0).standard_normal((5, 3)))
        out = expert.gnn_propagate(identity_adjacency(4), emb, 0)
        assert out is emb

    def test_identity_adjacency_fixed_point(self):
        rng = np.random.default_rng(1)
        emb = rng.standard_normal((6, 4))
        emb[0] = 0
        out = expert.gnn_propagate(identity_adjacency(5), ad.Tensor(emb), 3)
        np.testing.assert_allclose(out.data, emb, atol=1e-12)

    def test_two_step_chain_matches_dense_oracle(self):
        adj = data.build_adjacency([[1, 2, 3]], num_items=3)
        rng = np.random.default_rng(2)
        emb = rng.standard_normal((4, 5))
        emb[0] = 0
        dense = adj.toarray()
        expected = dense @ (dense @ emb)
        out = expert.gnn_propagate(adj, ad.Tensor(emb), 2)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_padding_row_stays_zero(self):
        adj = data.build_adjacency([[1, 2], [2, 3]], num_items=3)
        emb = np.ones((4, 3))
        emb[0] = 0
        out = expert.gnn_propagate(adj, ad.Tensor(emb), 2)
        np.testing.assert_array_equal(out.data[0], 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_stay_in_convex_hull_of_referenced_rows(self, seed):
        rng = np.random.default_rng(seed)
        seqs = [list(rng.integers(1, 9, size=5)) for _ in range(6)]
        adj = data.build_adjacency(seqs, num_items=8)
        emb = rng.standard_normal((9, 4))
        out = expert.gnn_propagate(adj, ad.Tensor(emb), 1).data
        for i in range(1, 9):
            support = adj[i].indices
            lo = emb[support].min(axis=0) - 1e-9
            hi = emb[support].max(axis=0) + 1e-9
            assert ((out[i] >= lo) & (out[i] <= hi)).all()

    def test_gradient_reaches_embeddings(self):
        adj = data.build_adjacency([[1, 2, 3]], num_items=3)
        p = ad.Parameter(np.random.default_rng(3).standard_normal((4, 2)), "emb")
        with ad.Tape() as tape:
            out = expert.gnn_propagate(adj, p.tensor, 2)
            ad.backward(ad.tsum(out), tape)
        assert p.tensor.grad is not None and np.abs(p.tensor.grad).sum() > 0


class TestEncode:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.num_items = 10
        self.branch = expert.init_branch(self.rng, self.num_items, TINY)
        self.adj = data.build_adjacency([[1, 2, 3, 4], [5, 6, 7]], self.num_items)

    def test_all_padding_prefix_rejected(self):
        with pytest.raises(ValueError, match="no items"):
            expert.encode(np.zeros(6, dtype=np.int64), self.branch, self.adj)

    @pytest.mark.parametrize("bad", [[3, 4, 0, 0, 0, 0], [0, 0, 3, 0, 4, 5]])
    def test_prefix_not_left_padded_rejected_before_compute(self, bad, monkeypatch):
        def computed(*args):
            raise AssertionError("the encoder computed before checking its input")

        monkeypatch.setattr(expert, "lookup_table", computed)
        prefixes = np.stack([padded([1, 2], 6), np.array(bad)])
        with pytest.raises(ValueError, match="row 1 is not left-padded"):
            expert.encode_batch(self.branch, self.adj, prefixes)

    def test_output_shapes(self):
        enc = expert.encode(padded([1, 2, 3], 6), self.branch, self.adj)
        assert enc.z.data.shape == (8,)
        assert enc.o.data.shape == (self.num_items,)

    def test_causal_mask_blocks_future_positions(self):
        prefix = padded([1, 2, 3, 4, 5], 6)
        states = expert._forward_states(self.branch, self.adj, prefix[None, :]).data
        perturbed = prefix.copy()
        perturbed[-2] = 9  # change the 4th item
        states2 = expert._forward_states(self.branch, self.adj, perturbed[None, :]).data
        # positions before the change are bit-identical, later ones move
        np.testing.assert_array_equal(states[0, :4], states2[0, :4])
        assert np.abs(states[0, 4:] - states2[0, 4:]).max() > 0

    def test_padding_positions_cannot_leak_into_real_ones(self):
        short = padded([3, 4], 6)
        longer = padded([1, 1, 1, 1, 3, 4], 6)
        a = expert.encode(short, self.branch, self.adj).z.data
        b = expert.encode(longer, self.branch, self.adj).z.data
        assert np.abs(a - b).max() > 0  # sanity: history does matter

    def test_single_item_prefix_depends_only_on_its_row_and_position_zero(self):
        adj = identity_adjacency(self.num_items)
        prefix = padded([4], 6)
        base = expert.encode(prefix, self.branch, adj).z.data.copy()

        pos = self.branch.position_embeddings
        saved = pos.data.copy()
        pos.tensor.data[1:] += 5.0  # only position 0 may matter
        unchanged = expert.encode(prefix, self.branch, adj).z.data
        np.testing.assert_array_equal(base, unchanged)
        pos.tensor.data[:] = saved

        emb = self.branch.item_embeddings
        emb.tensor.data[5:] += 3.0  # other item rows may not matter
        unchanged = expert.encode(prefix, self.branch, adj).z.data
        np.testing.assert_array_equal(base, unchanged)

        emb.tensor.data[4] += 0.1  # its own row must matter
        moved = expert.encode(prefix, self.branch, adj).z.data
        assert np.abs(base - moved).max() > 0

    def test_eval_is_deterministic(self):
        prefix = padded([1, 2, 3], 6)
        a = expert.encode(prefix, self.branch, self.adj).o.data
        b = expert.encode(prefix, self.branch, self.adj).o.data
        np.testing.assert_array_equal(a, b)

    def test_dropout_needs_rng_in_train_mode(self):
        branch = expert.init_branch(self.rng, self.num_items,
                                    expert.ModelConfig(width=8, blocks=1, heads=1,
                                                       t_max=6, dropout=0.3))
        with pytest.raises(ValueError, match="rng"):
            expert.encode_batch(branch, self.adj, padded([1, 2], 6)[None, :], train=True)


class TestFinalPositionPath:
    """final_only computes the last block at the final position alone; it
    must give the last row of the all-position pass, the same gradients,
    and consume the dropout stream exactly as that pass does."""

    @staticmethod
    def _run_both(blocks, heads):
        cfg = expert.ModelConfig(width=8, blocks=blocks, heads=heads, ff_mult=2,
                                 gnn_depth=1, t_max=6, dropout=0.3)
        branch = expert.init_branch(np.random.default_rng(3), 10, cfg)
        adj = data.build_adjacency([[1, 2, 3, 4], [5, 6, 7], [8, 9, 10]], 10)
        prefixes = np.stack([padded([1, 2, 3, 4, 5], 6), padded([6, 7], 6),
                             padded([1, 2, 3, 4, 5, 6], 6), padded([9], 6)])
        probe = np.random.default_rng(4).standard_normal((4, 8))
        params = ([branch.item_embeddings, branch.position_embeddings]
                  + branch.encoder.parameters())

        def run(final_only):
            for p in params:
                p.tensor.zero_grad()
            rng = np.random.default_rng(5)
            with ad.Tape() as tape:
                out = expert._forward_states(branch, adj, prefixes, train=True, rng=rng,
                                             final_only=final_only)
                z = out if final_only else ad.select(out, axis=1, index=5)
                ad.backward(ad.tsum(ad.mul(z, ad.Tensor(probe))), tape)
            return z.data, [p.tensor.grad for p in params], rng.random()

        return params, run(False), run(True)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_matches_last_row_of_all_positions(self, blocks, heads):
        params, (z_all, grads_all, next_all), (z_last, grads_last, next_last) = \
            self._run_both(blocks, heads)
        assert z_last.shape == (4, 8)
        np.testing.assert_allclose(z_last, z_all, rtol=0, atol=1e-12)
        for p, ga, gl in zip(params, grads_all, grads_last):
            assert ga is not None and gl is not None, p.name
            np.testing.assert_allclose(gl, ga, rtol=0, atol=1e-12, err_msg=p.name)
        assert next_last == next_all

    @pytest.mark.parametrize("heads", [1, 2])
    def test_float32_matches_all_positions(self, heads):
        with ad.default_dtype(np.float32):
            params, (z_all, _, next_all), (z_last, _, next_last) = self._run_both(2, heads)
        assert z_last.dtype == np.float32
        np.testing.assert_allclose(z_last, z_all, rtol=1e-5, atol=0)
        assert next_last == next_all


def _dense_forward_states(branch, norm_adjacency, prefixes, train=False, rng=None,
                          final_only=False):
    """Reference encoder over every (batch, t) position, padding included:
    the layout the packed encoder replaced. Padding tokens are blanked
    after the embedding, every block's position-wise ops run on all
    positions, and padding states are blanked at the end."""
    cfg = branch.cfg
    b, t = prefixes.shape
    table = expert.lookup_table(branch, norm_adjacency)
    mask = (prefixes != 0)
    pos_idx = np.maximum(np.cumsum(mask, axis=1) - 1, 0)
    tok = ad.gather_rows(table, prefixes)
    tok = ad.add(tok, ad.gather_rows(branch.position_embeddings.tensor, pos_idx))
    tok = ad.mul(tok, ad.Tensor(mask[:, :, None].astype(tok.data.dtype)))

    heads = cfg.heads
    dh = cfg.width // heads
    dtype = tok.data.dtype
    drop = train and cfg.dropout > 0.0
    blocks = branch.encoder.blocks
    full_blocks = len(blocks) - 1 if final_only else len(blocks)
    bias = ad.Tensor(expert._attention_bias(prefixes, dtype, t))
    x = tok
    for i, block in enumerate(blocks):
        h = ad.layer_norm(x, block.norm1_gain.tensor, block.norm1_bias.tensor)
        if i < full_blocks:
            x = ad.add(x, _dense_attend_all(block, h, bias, heads, dh,
                                            rng if drop else None, cfg.dropout))
        else:
            x = ad.add(_dense_final_position(x),
                       _dense_attend_final(block, h, expert._attention_bias(prefixes, dtype, 1),
                                           heads, dh, rng if drop else None, cfg.dropout))
        h2 = ad.layer_norm(x, block.norm2_gain.tensor, block.norm2_bias.tensor)
        f = ad.gelu(ad.add(ad.matmul(h2, block.ff_in.tensor), block.ff_in_bias.tensor))
        if drop:
            f = ad.dropout(f, cfg.dropout, rng, draw_shape=(b, t, f.data.shape[-1]))
        x = ad.add(x, ad.add(ad.matmul(f, block.ff_out.tensor), block.ff_out_bias.tensor))
    rows = x.data.shape[1]
    x = ad.mul(x, ad.Tensor(mask[:, t - rows:, None].astype(dtype)))
    return ad.reshape(x, (b, cfg.width)) if final_only else x


def _dense_attend_all(block, h, bias, heads, dh, rng, p):
    b, t, d = h.data.shape
    q = expert._split_heads(ad.matmul(h, block.attn_q.tensor), heads, dh)
    k = expert._split_heads(ad.matmul(h, block.attn_k.tensor), heads, dh)
    v = expert._split_heads(ad.matmul(h, block.attn_v.tensor), heads, dh)
    scores = ad.add(ad.scale(ad.matmul(q, ad.swapaxes(k, -1, -2)), dh ** -0.5), bias)
    attn = ad.softmax(scores, axis=-1)
    if rng is not None:
        attn = ad.dropout(attn, p, rng)
    ctx = expert._merge_heads(ad.matmul(attn, v), b, t, d)
    return ad.matmul(ctx, block.attn_out.tensor)


def _dense_attend_final(block, h, bias, heads, dh, rng, p):
    b, t, d = h.data.shape
    q = ad.matmul(_dense_final_position(h), block.attn_q.tensor)
    q = ad.swapaxes(ad.reshape(q, (b, heads, dh)), 0, 1)
    k_t = ad.reshape(ad.swapaxes(block.attn_k.tensor, 0, 1), (heads, dh, d))
    r = ad.swapaxes(ad.swapaxes(ad.matmul(q, k_t), 0, 1), 1, 2)
    scores = ad.add(ad.scale(ad.matmul(h, r), dh ** -0.5), ad.Tensor(bias[:, 0, 0, :, None]))
    attn = ad.swapaxes(ad.softmax(scores, axis=1), 1, 2)
    if rng is not None:
        attn = ad.reshape(ad.dropout(ad.reshape(attn, (b, heads, 1, t)), p, rng,
                                     draw_shape=(b, heads, t, t)), (b, heads, t))
    pooled = ad.swapaxes(ad.matmul(attn, h), 0, 1)
    v = ad.swapaxes(ad.reshape(block.attn_v.tensor, (d, heads, dh)), 0, 1)
    ctx = ad.reshape(ad.swapaxes(ad.matmul(pooled, v), 0, 1), (b, 1, d))
    return ad.matmul(ctx, block.attn_out.tensor)


def _dense_final_position(x):
    b, t, d = x.data.shape
    return ad.reshape(ad.select(x, axis=1, index=t - 1), (b, 1, d))


class TestPackedMatchesDenseOracle:
    """The packed encoder computes only real positions; it must give the
    dense all-position reference's states, gradients and rng stream, in
    train mode with dropout."""

    @staticmethod
    def _run_both(blocks, heads, final_only):
        cfg = expert.ModelConfig(width=8, blocks=blocks, heads=heads, ff_mult=2,
                                 gnn_depth=1, t_max=6, dropout=0.3)
        branch = expert.init_branch(np.random.default_rng(3), 10, cfg)
        adj = data.build_adjacency([[1, 2, 3, 4], [5, 6, 7], [8, 9, 10]], 10)
        # lengths 5, 2, 6 (no padding), 1 and 3
        prefixes = np.stack([padded([1, 2, 3, 4, 5], 6), padded([6, 7], 6),
                             padded([1, 2, 3, 4, 5, 6], 6), padded([9], 6),
                             padded([10, 3, 8], 6)])
        shape = (5, 8) if final_only else (5, 6, 8)
        probe = np.random.default_rng(4).standard_normal(shape)
        params = ([branch.item_embeddings, branch.position_embeddings]
                  + branch.encoder.parameters())

        def run(forward):
            for p in params:
                p.tensor.zero_grad()
            rng = np.random.default_rng(5)
            with ad.Tape() as tape:
                out = forward(branch, adj, prefixes, train=True, rng=rng,
                              final_only=final_only)
                ad.backward(ad.tsum(ad.mul(out, ad.Tensor(probe.astype(out.data.dtype)))),
                            tape)
            return out.data, [p.tensor.grad for p in params], rng.random()

        return params, run(_dense_forward_states), run(expert._forward_states)

    @pytest.mark.parametrize("final_only", [True, False])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_matches_dense_reference(self, blocks, heads, final_only):
        params, (dense, grads_dense, next_dense), (packed, grads_packed, next_packed) = \
            self._run_both(blocks, heads, final_only)
        assert packed.shape == dense.shape
        np.testing.assert_allclose(packed, dense, rtol=0, atol=1e-12)
        for p, gd, gp in zip(params, grads_dense, grads_packed):
            assert gd is not None and gp is not None, p.name
            np.testing.assert_allclose(gp, gd, rtol=0, atol=1e-12, err_msg=p.name)
        assert next_packed == next_dense

    @pytest.mark.parametrize("final_only", [True, False])
    def test_float32_matches_dense_reference(self, final_only):
        with ad.default_dtype(np.float32):
            _, (dense, _, next_dense), (packed, _, next_packed) = \
                self._run_both(2, 2, final_only)
        assert packed.dtype == np.float32
        np.testing.assert_allclose(packed, dense, rtol=1e-5, atol=0)
        assert next_packed == next_dense


def _flat(params):
    return np.concatenate([p.data.ravel() for p in params])


def _assign(params, vec):
    at = 0
    for p in params:
        n = p.data.size
        p.tensor.data[:] = vec[at:at + n].reshape(p.data.shape)
        at += n


def test_full_branch_gradient_check_against_finite_differences():
    """Recommendation + contrastive loss through the whole encoder."""
    rng = np.random.default_rng(11)
    num_items = 10
    branch = expert.init_branch(rng, num_items, TINY)
    adj = data.build_adjacency([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 1]], num_items)
    prefixes = np.stack([padded([1, 2, 3], 6), padded([4, 5], 6), padded([6, 7, 8, 9], 6)])
    aug = np.stack([padded([2, 1, 3], 6), padded([5, 4], 6), padded([6, 8, 7, 9], 6)])
    targets = np.array([4, 6, 10])
    params = branch.parameters()

    def loss_value(vec):
        _assign(params, vec)
        z, logits = expert.encode_batch(branch, adj, prefixes)
        z_aug, _ = expert.encode_batch(branch, adj, aug)
        loss = ad.add(expert.rec_loss(logits, targets),
                      expert.contrastive_loss(z, z_aug, temperature=0.8))
        return float(loss.data)

    base = _flat(params)
    for p in params:
        p.tensor.grad = None
    _assign(params, base)
    with ad.Tape() as tape:
        z, logits = expert.encode_batch(branch, adj, prefixes)
        z_aug, _ = expert.encode_batch(branch, adj, aug)
        loss = ad.add(expert.rec_loss(logits, targets),
                      expert.contrastive_loss(z, z_aug, temperature=0.8))
        ad.backward(loss, tape)
    analytic = np.concatenate([
        (p.tensor.grad if p.tensor.grad is not None else np.zeros_like(p.data)).ravel()
        for p in params])

    h = 1e-5
    numeric = np.zeros_like(base)
    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        numeric[i] = (loss_value(up) - loss_value(down)) / (2 * h)
    _assign(params, base)
    assert gradient_close(analytic, numeric, rel_tol=1e-4)


class TestContrastiveLoss:
    def test_orthonormal_pair_closed_form(self):
        z = ad.Tensor(np.eye(2))
        loss = expert.contrastive_loss(z, ad.Tensor(np.eye(2)), temperature=1.0)
        assert float(loss.data) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)

    def test_identical_embeddings_log_batch(self):
        z = ad.Tensor(np.ones((5, 3)))
        loss = expert.contrastive_loss(z, ad.Tensor(np.ones((5, 3))))
        assert float(loss.data) == pytest.approx(math.log(5), abs=1e-9)

    def test_batch_of_one_returns_zero_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            loss = expert.contrastive_loss(ad.Tensor(np.ones((1, 3))),
                                           ad.Tensor(np.ones((1, 3))))
        assert float(loss.data) == 0.0
        assert any("contrastive" in r.message for r in caplog.records)

    def test_batch_of_one_zero_keeps_float32(self):
        z = ad.Tensor(np.ones((1, 3), np.float32))
        with ad.default_dtype(np.float32):
            loss = expert.contrastive_loss(z, ad.Tensor(np.ones((1, 3), np.float32)))
        assert loss.data.dtype == np.float32

    def test_gradient_check_random_batch(self):
        rng = np.random.default_rng(13)
        z0 = rng.standard_normal((4, 8))
        za = rng.standard_normal((4, 8))

        def f(zv):
            t = ad.Tensor(zv)
            return float(expert.contrastive_loss(t, ad.Tensor(za), temperature=0.7).data)

        t = ad.Tensor(z0, requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(expert.contrastive_loss(t, ad.Tensor(za), temperature=0.7), tape)
        from helpers import central_difference
        assert gradient_close(t.grad, central_difference(f, z0), rel_tol=1e-6)


class TestFreezeContract:
    def test_frozen_encoder_unchanged_while_adapters_move(self):
        rng = np.random.default_rng(17)
        branch = expert.init_branch(rng, 10, TINY)
        branch.encoder.set_trainable(False)
        adj = data.build_adjacency([[1, 2, 3]], 10)
        opt = Adam(branch.parameters(), lr=0.01)
        enc_before = {p.name: p.data.tobytes() for p in branch.encoder.parameters()}
        adapters_before = {p.name: p.data.tobytes() for p in branch.adapter_parameters()}

        prefixes = np.stack([padded([1, 2], 6), padded([3, 1], 6)])
        targets = np.array([3, 2])
        for _ in range(3):
            opt.zero_grad()
            with ad.Tape() as tape:
                z, logits = expert.encode_batch(branch, adj, prefixes)
                ad.backward(expert.rec_loss(logits, targets), tape)
            opt.step()

        for p in branch.encoder.parameters():
            assert p.data.tobytes() == enc_before[p.name]
        moved = [p.name for p in branch.adapter_parameters()
                 if p.data.tobytes() != adapters_before[p.name]]
        assert "item_embeddings" in moved and any("head" in m for m in moved)

    def test_padding_embedding_row_pinned_at_zero(self):
        rng = np.random.default_rng(19)
        branch = expert.init_branch(rng, 10, TINY)
        adj = data.build_adjacency([[1, 2, 3]], 10)
        opt = Adam(branch.parameters(), lr=0.05)
        prefixes = np.stack([padded([1, 2], 6), padded([3], 6)])
        targets = np.array([3, 1])
        for _ in range(5):
            opt.zero_grad()
            with ad.Tape() as tape:
                _, logits = expert.encode_batch(branch, adj, prefixes)
                ad.backward(expert.rec_loss(logits, targets), tape)
            grad_row0 = branch.item_embeddings.tensor.grad[0]
            np.testing.assert_array_equal(grad_row0, 0)
            opt.step()
        np.testing.assert_array_equal(branch.item_embeddings.data[0], 0)


def test_encoder_parameter_names_unique_and_stable():
    branch = expert.init_branch(np.random.default_rng(0), 5, TINY)
    names = [p.name for p in branch.parameters()]
    assert len(names) == len(set(names))
    enc_names = {p.name for p in branch.encoder.parameters()}
    other = {p.name for p in branch.adapter_parameters()}
    assert not (enc_names & other)
    for banned in ("embed", "position", "head", "gate"):
        assert not any(banned in n for n in enc_names)
