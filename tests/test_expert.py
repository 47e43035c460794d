"""Encoder, branch, and objective tests for the domain expert."""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from fedmoe import autodiff as ad
from fedmoe import expert
from fedmoe.optim import Adam

from helpers import build_adjacency, encode_prefixes, gradient_close

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
        adj = build_adjacency([[1, 2, 3]], num_items=3)
        rng = np.random.default_rng(2)
        emb = rng.standard_normal((4, 5))
        emb[0] = 0
        dense = adj.toarray()
        expected = dense @ (dense @ emb)
        out = expert.gnn_propagate(adj, ad.Tensor(emb), 2)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_padding_row_stays_zero(self):
        adj = build_adjacency([[1, 2], [2, 3]], num_items=3)
        emb = np.ones((4, 3))
        emb[0] = 0
        out = expert.gnn_propagate(adj, ad.Tensor(emb), 2)
        np.testing.assert_array_equal(out.data[0], 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_stay_in_convex_hull_of_referenced_rows(self, seed):
        rng = np.random.default_rng(seed)
        seqs = [list(rng.integers(1, 9, size=5)) for _ in range(6)]
        adj = build_adjacency(seqs, num_items=8)
        emb = rng.standard_normal((9, 4))
        out = expert.gnn_propagate(adj, ad.Tensor(emb), 1).data
        for i in range(1, 9):
            support = adj[i].indices
            lo = emb[support].min(axis=0) - 1e-9
            hi = emb[support].max(axis=0) + 1e-9
            assert ((out[i] >= lo) & (out[i] <= hi)).all()

    def test_gradient_reaches_embeddings(self):
        adj = build_adjacency([[1, 2, 3]], num_items=3)
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
        self.adj = build_adjacency([[1, 2, 3, 4], [5, 6, 7]], self.num_items)

    def encode(self, prefix, adj=None):
        """(z, logits) arrays of encode_batch on one prefix row."""
        z, logits = encode_prefixes(self.branch, self.adj if adj is None else adj,
                                    prefix[None, :])
        return z.data, logits.data

    def test_all_padding_prefix_rejected(self):
        with pytest.raises(ValueError, match="no items"):
            self.encode(np.zeros(6, dtype=np.int64))

    @pytest.mark.parametrize("bad", [[3, 4, 0, 0, 0, 0], [0, 0, 3, 0, 4, 5]])
    def test_prefix_not_left_padded_rejected_before_compute(self, bad):
        """The layout checks the prefixes; every encode reads one."""
        prefixes = np.stack([padded([1, 2], 6), np.array(bad)])
        with pytest.raises(ValueError, match="row 1 is not left-padded"):
            expert.BatchLayout(prefixes)

    def test_output_shapes(self):
        z, logits = self.encode(padded([1, 2, 3], 6))
        assert z.shape == (1, 8)
        assert logits.shape == (1, self.num_items)

    def test_causal_mask_blocks_future_positions(self):
        """BatchLayout.attention_bias, checked against its definition rather
        than against expert._attention_bias (the dense reference's mask):
        exactly 0 where a query reads a real key at or before it, and -1e9
        at future keys and padding keys, for every query and for the final
        query alone, in float32 and float64."""
        prefixes = np.stack([padded([1, 2, 3, 4, 5], 6), padded([6, 7], 6),
                             padded([1, 2, 3, 4, 5, 6], 6), padded([9], 6)])
        b, t = prefixes.shape
        query, key = np.arange(t)[:, None], np.arange(t)[None, :]
        allowed = (key <= query)[None] & (prefixes != 0)[:, None, :]   # (b, query, key)
        layout = expert.BatchLayout(prefixes)
        for dtype in (np.float32, np.float64):
            want = np.where(allowed, 0.0, -1e9).astype(dtype)
            every = layout.attention_bias(dtype)
            assert every.dtype == dtype and every.shape == (b, 1, t, t)
            np.testing.assert_array_equal(every[:, 0], want)
            final = layout.attention_bias(dtype, final=True)
            assert final.dtype == dtype and final.shape == (b, t, 1)
            np.testing.assert_array_equal(final[:, :, 0], want[:, t - 1])

    def test_padding_positions_cannot_leak_into_real_ones(self):
        short = padded([3, 4], 6)
        longer = padded([1, 1, 1, 1, 3, 4], 6)
        a = self.encode(short)[0]
        b = self.encode(longer)[0]
        assert np.abs(a - b).max() > 0  # sanity: history does matter

    def test_single_item_prefix_depends_only_on_its_row_and_position_zero(self):
        adj = identity_adjacency(self.num_items)
        prefix = padded([4], 6)
        base = self.encode(prefix, adj)[0].copy()

        pos = self.branch.position_embeddings
        saved = pos.data.copy()
        pos.tensor.data[1:] += 5.0  # only position 0 may matter
        unchanged = self.encode(prefix, adj)[0]
        np.testing.assert_array_equal(base, unchanged)
        pos.tensor.data[:] = saved

        emb = self.branch.item_embeddings
        emb.tensor.data[5:] += 3.0  # other item rows may not matter
        unchanged = self.encode(prefix, adj)[0]
        np.testing.assert_array_equal(base, unchanged)

        emb.tensor.data[4] += 0.1  # its own row must matter
        moved = self.encode(prefix, adj)[0]
        assert np.abs(base - moved).max() > 0

    def test_eval_is_deterministic(self):
        prefix = padded([1, 2, 3], 6)
        a = self.encode(prefix)[1]
        b = self.encode(prefix)[1]
        np.testing.assert_array_equal(a, b)

    def test_dropout_needs_rng_in_train_mode(self):
        branch = expert.init_branch(self.rng, self.num_items,
                                    expert.ModelConfig(width=8, blocks=1, heads=1,
                                                       t_max=6, dropout=0.3))
        with pytest.raises(ValueError, match="rng"):
            encode_prefixes(branch, self.adj, padded([1, 2], 6)[None, :], train=True)


PREFIXES = np.stack([padded([1, 2, 3, 4, 5], 6), padded([6, 7], 6),
                     padded([1, 2, 3, 4, 5, 6], 6), padded([9], 6)])
AUG = np.stack([padded([2, 1, 3, 5, 4], 6), padded([7, 6], 6),
                padded([1, 3, 2, 4, 6, 5], 6), padded([9], 6)])
ADJ_RUNS = [[1, 2, 3, 4], [5, 6, 7], [8, 9, 10]]


def _packed(branch, adj, prefixes, train=False, rng=None, pair=False):
    """The encoder's z of a prefix matrix, as a list of row blocks:
    encode_batch's z, or with pair, whose originals are the first half of
    the rows and their augmented views the second, encode_pair's z and
    z_aug."""
    table = expert.lookup_table(branch, adj)
    if not pair:
        return [expert.encode_batch(branch, table, expert.BatchLayout(prefixes), train, rng)[0]]
    b = len(prefixes) // 2
    layout = expert.pair_layout(prefixes[:b], prefixes[b:])
    return list(expert.encode_pair(branch, table, layout, train, rng)[:2])


def _probed(outs, probe):
    """sum(out * probe) over row blocks that stack to probe's shape."""
    loss, at = None, 0
    for out in outs:
        rows = probe[at:at + len(out.data)].astype(out.data.dtype)
        at += len(out.data)
        term = ad.tsum(ad.mul(out, ad.Tensor(rows)))
        loss = term if loss is None else ad.add(loss, term)
    return loss


def _run_probed(cfg, forward, prefixes):
    """forward's output and the embedding and encoder gradients of a fixed
    probe of it, in train mode, and the rng after the run."""
    branch = expert.init_branch(np.random.default_rng(3), 10, cfg)
    adj = build_adjacency(ADJ_RUNS, 10)
    probe = np.random.default_rng(4).standard_normal((len(prefixes), cfg.width))
    params = [branch.item_embeddings, branch.position_embeddings] + branch.encoder.parameters()
    rng = np.random.default_rng(5)
    with ad.Tape() as tape:
        outs = forward(branch, adj, prefixes, train=True, rng=rng)
        ad.backward(_probed(outs, probe), tape)
    return params, np.concatenate([o.data for o in outs]), [p.tensor.grad for p in params], rng


def _dense_last_row(branch, adj, prefixes, train=False, rng=None):
    t = prefixes.shape[1]
    return [ad.select(_dense_forward_states(branch, adj, prefixes, train, rng), axis=1,
                      index=t - 1)]


def _dense_final(branch, adj, prefixes, train=False, rng=None):
    return [_dense_forward_states(branch, adj, prefixes, train, rng, final_only=True)]


def _config(blocks, heads, dropout):
    return expert.ModelConfig(width=8, blocks=blocks, heads=heads, ff_mult=2, gnn_depth=1,
                              t_max=6, dropout=dropout)


class TestFinalPositionPath:
    """The encoder computes the last block at the final position alone; it
    must give the last row of the dense all-position reference and the
    same gradients (compared without dropout, whose draws differ between
    the two), and draw exactly the dropout elements it applies."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_matches_last_row_of_all_positions(self, blocks, heads):
        cfg = _config(blocks, heads, 0.0)
        params, z_all, grads_all, _ = _run_probed(cfg, _dense_last_row, PREFIXES)
        _, z_last, grads_last, _ = _run_probed(cfg, _packed, PREFIXES)
        assert z_last.shape == (4, 8)
        np.testing.assert_allclose(z_last, z_all, rtol=0, atol=1e-12)
        for p, ga, gl in zip(params, grads_all, grads_last):
            assert ga is not None and gl is not None, p.name
            np.testing.assert_allclose(gl, ga, rtol=0, atol=1e-12, err_msg=p.name)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_float32_matches_all_positions(self, heads):
        with ad.default_dtype(np.float32):
            _, z_all, _, _ = _run_probed(_config(2, heads, 0.0), _dense_last_row, PREFIXES)
            _, z_last, _, _ = _run_probed(_config(2, heads, 0.0), _packed, PREFIXES)
        assert z_last.dtype == np.float32
        np.testing.assert_allclose(z_last, z_all, rtol=1e-5, atol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pair", [True, False])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_draws_exactly_the_elements_it_applies(self, blocks, heads, pair, dtype):
        """Per earlier block: (batch, heads, t, t) attention weights and the
        feed-forward's real rows; the last block: (batch, heads, t) weights
        and (batch, ff) rows. A pair is one batch of originals and their
        augmented views."""
        prefixes = np.concatenate([PREFIXES, AUG]) if pair else PREFIXES
        b, t = prefixes.shape
        n_real, ff = int((prefixes != 0).sum()), 16  # width 8 x ff_mult 2
        count = (blocks - 1) * (b * heads * t * t + n_real * ff) + b * heads * t + b * ff
        with ad.default_dtype(dtype):
            rng = _run_probed(_config(blocks, heads, 0.3),
                              functools.partial(_packed, pair=pair), prefixes)[-1]
        ref = np.random.default_rng(5)
        ref.random(count, dtype=dtype)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSharedLayout:
    """Branches that encode one batch share its BatchLayout; each must get
    the z, logits and parameter gradients of a fresh BatchLayout per call,
    bit for bit, in train mode with dropout."""

    @staticmethod
    def _branches(heads):
        rng = np.random.default_rng(3)
        return [expert.init_branch(rng, 10, _config(2, heads, 0.3)) for _ in range(3)]

    def _run(self, heads, encode, layout_for):
        branches = self._branches(heads)
        adj = build_adjacency(ADJ_RUNS, 10)
        rng = np.random.default_rng(5)
        outs = []
        with ad.Tape() as tape:
            loss = None
            for branch in branches:
                table = expert.lookup_table(branch, adj)
                for out in encode(branch, table, layout_for(), train=True, rng=rng):
                    outs.append(out.data)
                    probe = ad.Tensor(np.cos(np.arange(out.data.size)).reshape(out.data.shape))
                    term = ad.tsum(ad.mul(out, probe))
                    loss = term if loss is None else ad.add(loss, term)
            ad.backward(loss, tape)
        grads = [p.tensor.grad for branch in branches for p in branch.parameters()]
        return outs, grads, rng.random()

    def _check(self, heads, encode, new_layout):
        layout = new_layout()
        shared = self._run(heads, encode, lambda: layout)
        per_call = self._run(heads, encode, new_layout)
        for got, want in zip(shared[0] + shared[1], per_call[0] + per_call[1]):
            assert got is not None and np.array_equal(got, want)
        assert shared[2] == per_call[2]
        assert list(layout.item_onehots) == [(11, np.dtype(np.float64))]
        assert list(layout.position_onehots) == [(6, np.dtype(np.float64))]

    @pytest.mark.parametrize("heads", [1, 2])
    def test_encode_pair(self, heads):
        self._check(heads, expert.encode_pair, lambda: expert.pair_layout(PREFIXES, AUG))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_encode_batch(self, heads):
        self._check(heads, expert.encode_batch, lambda: expert.BatchLayout(PREFIXES))

    @pytest.mark.parametrize("bad, message", [([0, 0, 0, 0, 0, 0], r"no items \(row 5\)"),
                                              ([0, 0, 3, 0, 4, 5], "row 5 is not left-padded")])
    def test_malformed_pair_rejected_when_the_layout_is_built(self, bad, message):
        aug = AUG.copy()
        aug[1] = bad
        with pytest.raises(ValueError, match=message):
            expert.pair_layout(PREFIXES, aug)


def _dense_forward_states(branch, norm_adjacency, prefixes, train=False, rng=None,
                          final_only=False):
    """Reference encoder over every (batch, t) position, padding included:
    the layout the packed encoder replaced. Padding tokens are blanked
    after the embedding, every block's position-wise ops run on all
    positions, and padding states are blanked at the end. Each
    feed-forward mask is drawn over the rows the packed encoder computes
    (real rows in row-major order, or the final rows) and scattered into
    the dense layout, zero elsewhere."""
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
            applied = mask[:, t - f.data.shape[1]:]
            f = ad.mul(f, ad.Tensor(_scattered_mask(rng, cfg.dropout, applied, f.data)))
        x = ad.add(x, ad.add(ad.matmul(f, block.ff_out.tensor), block.ff_out_bias.tensor))
    rows = x.data.shape[1]
    x = ad.mul(x, ad.Tensor(mask[:, t - rows:, None].astype(dtype)))
    return ad.reshape(x, (b, cfg.width)) if final_only else x


def _split_heads(x, heads, dh):
    b, t, _ = x.data.shape
    return ad.swapaxes(ad.reshape(x, (b, t, heads, dh)), 1, 2)


def _merge_heads(x, b, t, d):
    return ad.reshape(ad.swapaxes(x, 1, 2), (b, t, d))


def _dense_attend_all(block, h, bias, heads, dh, rng, p):
    b, t, d = h.data.shape
    q = _split_heads(ad.matmul(h, block.attn_q.tensor), heads, dh)
    k = _split_heads(ad.matmul(h, block.attn_k.tensor), heads, dh)
    v = _split_heads(ad.matmul(h, block.attn_v.tensor), heads, dh)
    scores = ad.add(ad.scale(ad.matmul(q, ad.swapaxes(k, -1, -2)), dh ** -0.5), bias)
    attn = ad.softmax(scores, axis=-1)
    if rng is not None:
        attn = ad.dropout(attn, p, rng)
    ctx = _merge_heads(ad.matmul(attn, v), b, t, d)
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
        attn = ad.dropout(attn, p, rng)
    pooled = ad.swapaxes(ad.matmul(attn, h), 0, 1)
    v = ad.swapaxes(ad.reshape(block.attn_v.tensor, (d, heads, dh)), 0, 1)
    ctx = ad.reshape(ad.swapaxes(ad.matmul(pooled, v), 0, 1), (b, 1, d))
    return ad.matmul(ctx, block.attn_out.tensor)


def _scattered_mask(rng, p, applied, like):
    """Inverted dropout mask of like's (b, rows, ff) shape: one uniform per
    element of the rows where applied is set, in row-major order, zero in
    every other row."""
    keep = 1.0 - p
    u = rng.random((int(applied.sum()), like.shape[-1]), dtype=like.dtype)
    out = np.zeros(like.shape, dtype=like.dtype)
    out[applied] = (u < keep).astype(like.dtype) / keep
    return out


def _dense_final_position(x):
    b, t, d = x.data.shape
    return ad.reshape(ad.select(x, axis=1, index=t - 1), (b, 1, d))


class TestPackedMatchesDenseOracle:
    """The packed encoder computes only real positions; it must give the
    dense reference's final states, gradients and rng stream, in train
    mode with dropout drawn over the applied rows. A pair encodes the
    originals and their augmented views in one pass and splits them."""

    # lengths 5, 2, 6 (no padding), 1 and 3
    PREFIXES = np.stack([padded([1, 2, 3, 4, 5], 6), padded([6, 7], 6),
                         padded([1, 2, 3, 4, 5, 6], 6), padded([9], 6),
                         padded([10, 3, 8], 6)])
    AUG = np.stack([padded([2, 1, 3, 5, 4], 6), padded([7, 6], 6),
                    padded([1, 3, 2, 4, 6, 5], 6), padded([9], 6),
                    padded([3, 10, 8], 6)])

    @classmethod
    def _run_both(cls, blocks, heads, pair):
        prefixes = np.concatenate([cls.PREFIXES, cls.AUG]) if pair else cls.PREFIXES

        def run(forward):
            _, out, grads, rng = _run_probed(_config(blocks, heads, 0.3), forward, prefixes)
            return out, grads, rng.random()

        return run(_dense_final), run(functools.partial(_packed, pair=pair))

    @pytest.mark.parametrize("pair", [True, False])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_matches_dense_reference(self, blocks, heads, pair):
        (dense, grads_dense, next_dense), (packed, grads_packed, next_packed) = \
            self._run_both(blocks, heads, pair)
        assert packed.shape == dense.shape == (10 if pair else 5, 8)
        np.testing.assert_allclose(packed, dense, rtol=0, atol=1e-12)
        for i, (gd, gp) in enumerate(zip(grads_dense, grads_packed)):
            assert gd is not None and gp is not None, i
            np.testing.assert_allclose(gp, gd, rtol=0, atol=1e-12, err_msg=str(i))
        assert next_packed == next_dense

    @pytest.mark.parametrize("pair", [True, False])
    def test_float32_matches_dense_reference(self, pair):
        with ad.default_dtype(np.float32):
            (dense, _, next_dense), (packed, _, next_packed) = self._run_both(2, 2, pair)
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
    adj = build_adjacency([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 1]], num_items)
    prefixes = np.stack([padded([1, 2, 3], 6), padded([4, 5], 6), padded([6, 7, 8, 9], 6)])
    aug = np.stack([padded([2, 1, 3], 6), padded([5, 4], 6), padded([6, 8, 7, 9], 6)])
    targets = np.array([4, 6, 10])
    params = branch.parameters()

    def loss_value(vec):
        _assign(params, vec)
        z, logits = encode_prefixes(branch, adj, prefixes)
        z_aug, _ = encode_prefixes(branch, adj, aug)
        loss = ad.add(expert.rec_loss(logits, targets),
                      expert.contrastive_loss(z, z_aug, temperature=0.8))
        return float(loss.data)

    base = _flat(params)
    for p in params:
        p.tensor.grad = None
    _assign(params, base)
    with ad.Tape() as tape:
        z, logits = encode_prefixes(branch, adj, prefixes)
        z_aug, _ = encode_prefixes(branch, adj, aug)
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

    def test_batch_of_one_returns_zero_with_warning(self):
        """A batch of one has no negatives; the warning that counts such
        batches is client_update's, once per update."""
        loss = expert.contrastive_loss(ad.Tensor(np.ones((1, 3))), ad.Tensor(np.ones((1, 3))))
        assert loss.data.shape == () and float(loss.data) == 0.0

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


def _adapter_parameters(branch):
    """Everything of a branch except its encoder: the domain-side isolation set."""
    return [p for p in branch.parameters() if p not in branch.encoder.parameters()]


class TestFreezeContract:
    def test_frozen_encoder_unchanged_while_adapters_move(self):
        rng = np.random.default_rng(17)
        branch = expert.init_branch(rng, 10, TINY)
        branch.encoder.set_trainable(False)
        adj = build_adjacency([[1, 2, 3]], 10)
        opt = Adam(branch.parameters(), lr=0.01)
        enc_before = {p.name: p.data.tobytes() for p in branch.encoder.parameters()}
        adapters_before = {p.name: p.data.tobytes() for p in _adapter_parameters(branch)}

        prefixes = np.stack([padded([1, 2], 6), padded([3, 1], 6)])
        targets = np.array([3, 2])
        for _ in range(3):
            opt.zero_grad()
            with ad.Tape() as tape:
                z, logits = encode_prefixes(branch, adj, prefixes)
                ad.backward(expert.rec_loss(logits, targets), tape)
            opt.step()

        for p in branch.encoder.parameters():
            assert p.data.tobytes() == enc_before[p.name]
        moved = [p.name for p in _adapter_parameters(branch)
                 if p.data.tobytes() != adapters_before[p.name]]
        assert "item_embeddings" in moved and any("head" in m for m in moved)

    def test_padding_embedding_row_pinned_at_zero(self):
        rng = np.random.default_rng(19)
        branch = expert.init_branch(rng, 10, TINY)
        adj = build_adjacency([[1, 2, 3]], 10)
        opt = Adam(branch.parameters(), lr=0.05)
        prefixes = np.stack([padded([1, 2], 6), padded([3], 6)])
        targets = np.array([3, 1])
        for _ in range(5):
            opt.zero_grad()
            with ad.Tape() as tape:
                _, logits = encode_prefixes(branch, adj, prefixes)
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
    other = {p.name for p in _adapter_parameters(branch)}
    assert not (enc_names & other)
    for banned in ("embed", "position", "head", "gate"):
        assert not any(banned in n for n in enc_names)
