"""Gradient and contract tests for the tensor engine.

Every differentiable op is checked against central finite differences in
float64; trivial cases come straight from the op contracts.
"""

import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoe import autodiff as ad
from fedmoe.errors import ShapeError
from fedmoe.optim import Adam

from helpers import central_difference, gradient_close


@pytest.fixture(autouse=True)
def _float64():
    with ad.default_dtype(np.float64):
        yield


def _loss_of(op, x, *args, **kwargs):
    """Scalar probe loss: weighted sum of the op output, as a function of x."""
    rng = np.random.default_rng(99)
    probe = None

    def f(xv):
        nonlocal probe
        t = ad.Tensor(xv)
        out = op(t, *args, **kwargs)
        if probe is None:
            probe = rng.standard_normal(out.data.shape)
        return float((out.data * probe).sum())

    def analytic(xv):
        t = ad.Tensor(xv, requires_grad=True)
        with ad.Tape() as tape:
            out = op(t, *args, **kwargs)
            loss = ad.tsum(ad.mul(out, ad.Tensor(probe)))
            ad.backward(loss, tape)
        return t.grad

    return f, analytic


def _scatter_rows(a, rows, lead):
    """The rows of a 2-d tensor placed at distinct indices into the
    flattened leading axes lead, zeros elsewhere: shape lead + (d,). The
    scatter of the attention chains below; backward takes the rows back out."""
    a = ad.as_tensor(a)
    d = a.data.shape[-1]
    out = np.zeros((int(np.prod(lead)), d), dtype=a.data.dtype)
    out[rows] = a.data
    return ad._record(ad.Tensor(out.reshape(tuple(lead) + (d,))), (a,),
                      lambda g: (g.reshape(-1, d)[rows],))


def _feed_forward_chain(x, w_in, b_in, w_out, b_out, p, rng):
    """The chain of ops that feed_forward replaces."""
    f = ad.gelu(ad.add(ad.matmul(x, w_in), b_in))
    if rng is not None:
        f = ad.dropout(f, p, rng)
    return ad.add(ad.matmul(f, w_out), b_out)


def _self_attention_chain(h, wq, wk, wv, wo, rows, bias, heads, scale, p, rng):
    """The chain of ops that self_attention replaces, as the encoder's
    earlier blocks ran it."""
    b, t = bias.shape[0], bias.shape[-1]
    d = h.data.shape[-1]
    dh = d // heads
    q, k, v = (ad.swapaxes(ad.reshape(_scatter_rows(ad.matmul(h, w), rows, (b, t)),
                                      (b, t, heads, dh)), 1, 2)
               for w in (wq, wk, wv))
    scores = ad.add(ad.scale(ad.matmul(q, ad.swapaxes(k, -1, -2)), scale), ad.Tensor(bias))
    attn = ad.softmax(scores, axis=-1)
    if rng is not None:
        attn = ad.dropout(attn, p, rng)
    ctx = ad.take_rows(ad.reshape(ad.swapaxes(ad.matmul(attn, v), 1, 2), (b, t, d)), rows)
    return ad.matmul(ctx, wo)


def _pooled_attention_chain(h, r, rows, bias, scale, p, rng):
    """Final-query attention scores and pooling of packed states h with one
    query vector per head, r (b, d, heads): pooled states (b, heads, d)."""
    b, t = bias.shape[:2]
    hs = _scatter_rows(h, rows, (b, t))
    scores = ad.add(ad.scale(ad.matmul(hs, r), scale), ad.Tensor(bias))
    attn = ad.swapaxes(ad.softmax(scores, axis=1), 1, 2)
    if rng is not None:
        attn = ad.dropout(attn, p, rng)
    return ad.matmul(attn, hs)


def _final_attention_chain(h, wq, wk, wv, wo, rows, last, bias, heads, scale, p, rng):
    """The chain of ops that final_attention replaces, as the encoder's
    last block ran it."""
    b = len(last)
    d = h.data.shape[-1]
    dh = d // heads
    q = ad.matmul(ad.take_rows(h, last), wq)
    q = ad.swapaxes(ad.reshape(q, (b, heads, dh)), 0, 1)
    k_t = ad.reshape(ad.swapaxes(wk, 0, 1), (heads, dh, d))
    r = ad.swapaxes(ad.swapaxes(ad.matmul(q, k_t), 0, 1), 1, 2)
    pooled = ad.swapaxes(_pooled_attention_chain(h, r, rows, bias, scale, p, rng), 0, 1)
    v = ad.swapaxes(ad.reshape(wv, (d, heads, dh)), 0, 1)
    ctx = ad.reshape(ad.swapaxes(ad.matmul(pooled, v), 0, 1), (b, d))
    return ad.matmul(ctx, wo)


# three sequences of 1, 6 and 3 real positions in a (3, 6) layout
_REAL = np.arange(6)[None, :] >= np.array([[5], [0], [3]])
_ROWS, _BIAS = np.flatnonzero(_REAL), np.where(_REAL, 0.0, -1e9)[:, :, None]
_LAST = np.cumsum(_REAL.sum(axis=1)) - 1
_CAUSAL_BIAS = np.where(np.tril(np.ones((6, 6), dtype=bool))[None] & _REAL[:, None, :],
                        0.0, -1e9)[:, None]


def _constants(*shapes):
    return [ad.Tensor(np.linspace(-1, 1, math.prod(s)).reshape(s) * (1 + 0.1 * i))
            for i, s in enumerate(shapes)]


def _with(op, slot, shapes, *args):
    """op as a function of one tensor t: t at input slot, fixed constants
    at its other differentiable inputs."""
    def f(t):
        inputs = _constants(*shapes)
        inputs[slot] = t
        return op(*inputs, *args)
    return f


_FF = (ad.feed_forward, ((3, 4), (4, 5), (5,), (5, 4), (4,)), ())
_SA = (ad.self_attention, ((10, 4), (4, 4), (4, 4), (4, 4), (4, 4)),
       (_ROWS, _CAUSAL_BIAS, 2, 0.7))
_FA = (ad.final_attention, ((10, 4), (4, 4), (4, 4), (4, 4), (4, 4)),
       (_ROWS, _LAST, _BIAS, 2, 0.7))
_LAYER_CASES = [(f"{name}_{arg}", _with(op, slot, shapes, *args), shapes[slot])
                for name, (op, shapes, args), names in [
                    ("feed_forward", _FF, ("x", "w_in", "b_in", "w_out", "b_out")),
                    ("self_attention", _SA, ("h", "wq", "wk", "wv", "wo")),
                    ("final_attention", _FA, ("h", "wq", "wk", "wv", "wo"))]
                for slot, arg in enumerate(names)]

OP_CASES = [
    ("add_broadcast", lambda t: ad.add(t, ad.Tensor(np.linspace(-1, 1, 4))), (3, 4)),
    ("mul_broadcast", lambda t: ad.mul(t, ad.Tensor(np.linspace(0.5, 2, 4))), (3, 4)),
    ("scale", lambda t: ad.scale(t, -2.5), (3, 4)),
    ("matmul_left", lambda t: ad.matmul(t, ad.Tensor(np.linspace(-1, 1, 8).reshape(4, 2))), (3, 4)),
    ("matmul_batched", lambda t: ad.matmul(t, ad.swapaxes(t, -1, -2)), (2, 3, 4)),
    ("softmax", lambda t: ad.softmax(t, axis=-1), (4, 5)),
    ("gelu", ad.gelu, (3, 4)),
    ("layer_norm", lambda t: ad.layer_norm(t, ad.Tensor(np.linspace(0.5, 1.5, 4)),
                                           ad.Tensor(np.zeros(4))), (3, 4)),
    ("log", lambda t: ad.tlog(ad.add(ad.mul(t, t), ad.Tensor(1.0))), (3, 4)),
    ("sum_axis", lambda t: ad.tsum(t, axis=0), (3, 4)),
    ("mean", lambda t: ad.tmean(t, axis=-1), (3, 4)),
    ("reshape", lambda t: ad.reshape(t, (4, 3)), (3, 4)),
    ("swapaxes", lambda t: ad.swapaxes(t, 0, 1), (3, 4)),
    ("select", lambda t: ad.select(t, axis=1, index=2), (3, 4)),
    ("mix", lambda t: ad.mix(t, np.linspace(0.1, 1.0, 12).reshape(3, 4)), (3, 4)),
    ("concat", lambda t: ad.concat_last([t, ad.mul(t, t)]), (3, 4)),
    ("gather", lambda t: ad.gather_rows(t, np.array([[0, 2], [2, 2]])), (3, 4)),
    ("take_along", lambda t: ad.take_along_last(t, np.array([1, 3, 0])), (3, 4)),
    ("take_rows", lambda t: ad.take_rows(t, np.array([4, 0, 3])), (2, 3, 4)),
    # the attention chains' scatter and final-query pooling, which the
    # layer-level ops are compared with bit for bit
    ("scatter_rows", lambda t: _scatter_rows(t, np.array([5, 1, 2]), (2, 3)), (3, 4)),
    ("pooled_attention_h", lambda t: _pooled_attention_chain(
        t, ad.Tensor(np.linspace(-1, 1, 24).reshape(3, 4, 2)), _ROWS, _BIAS, 0.7, 0.0, None),
     (10, 4)),
    ("pooled_attention_r", lambda t: _pooled_attention_chain(
        ad.Tensor(np.linspace(-1, 1, 40).reshape(10, 4)), t, _ROWS, _BIAS, 0.7, 0.0, None),
     (3, 4, 2)),
    ("sparse_matmul", lambda t: ad.sparse_matmul(
        sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])), t), (3, 4)),
] + _LAYER_CASES


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("name,op,shape", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, op, shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    f, analytic = _loss_of(op, x)
    f(x)  # fix the probe direction
    num = central_difference(f, x)
    ana = analytic(x)
    assert gradient_close(ana, num, rel_tol=1e-4)


class TestMatmul:
    def test_identity(self):
        m = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_hand_arithmetic(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))

    def test_gradient_of_sum_vs_central_differences(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))

        def f(av):
            return float(np.matmul(av, b).sum())

        ta = ad.Tensor(a, requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.tsum(ad.matmul(ta, ad.Tensor(b)))
            ad.backward(loss, tape)
        num = central_difference(f, a)
        assert gradient_close(ta.grad, num, rel_tol=1e-6)

    @pytest.mark.parametrize("b_trainable", [True, False], ids=["both", "b_frozen"])
    def test_stacked_times_2d_gradients_vs_central_differences(self, b_trainable):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        probe = rng.standard_normal((2, 3, 5))

        ta = ad.Tensor(a, requires_grad=True)
        tb = ad.Tensor(b, requires_grad=b_trainable)
        with ad.Tape() as tape:
            out = ad.matmul(ta, tb)
            ad.backward(ad.tsum(ad.mul(out, ad.Tensor(probe))), tape)
        assert out.data.shape == (2, 3, 5)
        num_a = central_difference(lambda av: float((np.matmul(av, b) * probe).sum()), a)
        assert gradient_close(ta.grad, num_a, rel_tol=1e-6)
        if b_trainable:
            num_b = central_difference(lambda bv: float((np.matmul(a, bv) * probe).sum()), b)
            assert gradient_close(tb.grad, num_b, rel_tol=1e-6)
        else:
            assert tb.grad is None

    def test_contracted_dim_one_gradients_vs_central_differences(self):
        """(2, 1, 3) x (1, 3, 1): both backward products contract a dim of 1
        and broadcast over the stack, so they take the outer-product path."""
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 1, 3))
        b = rng.standard_normal((1, 3, 1))
        probe = rng.standard_normal((2, 1, 1))

        ta = ad.Tensor(a, requires_grad=True)
        tb = ad.Tensor(b, requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(ad.tsum(ad.mul(ad.matmul(ta, tb), ad.Tensor(probe))), tape)
        np.testing.assert_array_equal(ta.grad, (probe * np.swapaxes(b, -1, -2)))
        assert tb.grad.shape == b.shape
        num_a = central_difference(lambda av: float((np.matmul(av, b) * probe).sum()), a)
        num_b = central_difference(lambda bv: float((np.matmul(a, bv) * probe).sum()), b)
        assert gradient_close(ta.grad, num_a, rel_tol=1e-6)
        assert gradient_close(tb.grad, num_b, rel_tol=1e-6)


class TestLayerNorm:
    def test_stacked_input_with_trainable_affine_vs_central_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 4))
        gain = rng.uniform(0.5, 1.5, 4)
        bias = rng.standard_normal(4)
        probe = rng.standard_normal((2, 3, 4))

        def f(xv, gv, bv):
            return float((ad.layer_norm(ad.Tensor(xv), ad.Tensor(gv), ad.Tensor(bv)).data
                          * probe).sum())

        tx, tg, tb = (ad.Tensor(v, requires_grad=True) for v in (x, gain, bias))
        with ad.Tape() as tape:
            ad.backward(ad.tsum(ad.mul(ad.layer_norm(tx, tg, tb), ad.Tensor(probe))), tape)
        assert gradient_close(tx.grad, central_difference(lambda v: f(v, gain, bias), x),
                              rel_tol=1e-6)
        assert gradient_close(tg.grad, central_difference(lambda v: f(x, v, bias), gain),
                              rel_tol=1e-6)
        assert gradient_close(tb.grad, central_difference(lambda v: f(x, gain, v), bias),
                              rel_tol=1e-6)

    def test_rows_normalized(self):
        x = np.random.default_rng(5).standard_normal((2, 3, 6)) * 4.0 + 3.0
        out = ad.layer_norm(ad.Tensor(x), ad.Tensor(np.ones(6)), ad.Tensor(np.zeros(6))).data
        assert out.shape == x.shape
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, rtol=1e-3)


class TestGatherRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_bit_identical_to_scatter_add(self, dtype):
        rng = np.random.default_rng(3)
        table = ad.Tensor(rng.standard_normal((7, 5)).astype(dtype), requires_grad=True)
        ids = rng.integers(0, 7, size=(6, 9))
        ids[0, :4] = 2  # repeated ids, within and across rows
        g = rng.standard_normal((6, 9, 5)).astype(dtype)
        with ad.Tape() as tape:
            out = ad.gather_rows(table, ids)
            ad.backward(ad.tsum(ad.mul(out, ad.Tensor(g))), tape)
        expected = np.zeros((7, 5), dtype=dtype)
        np.add.at(expected, ids.ravel(), g.reshape(-1, 5))
        assert table.grad.dtype == dtype
        assert np.array_equal(table.grad, expected)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_onehots_built_once_and_reused(self, dtype):
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 7, size=20)
        g = rng.standard_normal((20, 5)).astype(dtype)

        def table_grad(onehots):
            table = ad.Tensor(rng.standard_normal((7, 5)).astype(dtype), requires_grad=True)
            with ad.Tape() as tape:
                out = ad.gather_rows(table, ids, onehots)
                ad.backward(ad.tsum(ad.mul(out, ad.Tensor(g))), tape)
            return table.grad

        want = table_grad(None)
        onehots = {}
        first = table_grad(onehots)
        matrix = onehots[(7, np.dtype(dtype))]
        second = table_grad(onehots)
        assert list(onehots) == [(7, np.dtype(dtype))] and onehots[(7, np.dtype(dtype))] is matrix
        assert np.array_equal(first, want) and np.array_equal(second, want)


def _layout(t, extra):
    """Packed rows, final rows and the all-position and final-query biases
    of sequences of lengths 1, t and extra in a (b, t) layout."""
    lengths = np.array([1, t] + extra)
    real = np.arange(t)[None, :] >= (t - lengths)[:, None]
    causal = np.tril(np.ones((t, t), dtype=bool))[None] & real[:, None, :]
    return (np.flatnonzero(real), np.cumsum(lengths) - 1,
            np.where(causal, 0.0, -1e9)[:, None], np.where(real, 0.0, -1e9)[:, :, None])


def _assert_bit_identical(op, chain, shapes, trainable, dtype, seed, args):
    """Values, every input's gradient (None where frozen) and the rng state
    after one forward and backward pass of op and of the chain it replaces."""
    data_rng = np.random.default_rng(seed)
    inputs = [data_rng.standard_normal(s).astype(dtype) for s in shapes]

    def run(fn):
        tensors = [ad.Tensor(x.copy(), requires_grad=flag) for x, flag in zip(inputs, trainable)]
        rng = np.random.default_rng(seed + 1)
        with ad.Tape() as tape:
            out = fn(*tensors, *args, rng)
            probe = np.random.default_rng(seed + 2).standard_normal(out.data.shape)
            ad.backward(ad.tsum(ad.mul(out, ad.Tensor(probe.astype(dtype)))), tape)
        return out.data, [x.grad for x in tensors], rng.bit_generator.state

    (got, got_grads, got_state), (want, want_grads, want_state) = run(op), run(chain)
    assert got.dtype == want.dtype == dtype and np.array_equal(got, want)
    for flag, g, w in zip(trainable, got_grads, want_grads):
        assert (g is None) == (w is None) == (not flag)
        assert g is None or (g.dtype == w.dtype and np.array_equal(g, w))
    assert got_state == want_state


_LAYER_GIVEN = dict(seed=st.integers(0, 2**32 - 3), p=st.sampled_from([0.0, 0.3]),
                    dtype=st.sampled_from([np.float32, np.float64]),
                    trainable=st.lists(st.booleans(), min_size=5, max_size=5).filter(any))


class TestFeedForward:
    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 6), d=st.integers(1, 4), f=st.integers(1, 6), **_LAYER_GIVEN)
    def test_bit_identical_to_the_chain(self, rows, d, f, seed, dtype, p, trainable):
        """One row is the head's batch of one, whose weight gradients
        contract a dimension of 1."""
        _assert_bit_identical(ad.feed_forward, _feed_forward_chain,
                              [(rows, d), (d, f), (f,), (f, d), (d,)], trainable, dtype, seed,
                              (p,))

    def test_values_match_the_formula(self):
        """gelu(x w_in + b_in) w_out + b_out, checked apart from the chain."""
        x, w_in, b_in, w_out, b_out = _constants((2, 3), (3, 4), (4,), (4, 5), (5,))
        out = ad.feed_forward(x, w_in, b_in, w_out, b_out)
        pre = x.data @ w_in.data + b_in.data
        hidden = pre / (1.0 + np.exp(-1.702 * pre))
        np.testing.assert_allclose(out.data, hidden @ w_out.data + b_out.data, rtol=1e-12)


class TestSelfAttention:
    T = 6

    @settings(max_examples=80, deadline=None)
    @given(heads=st.integers(1, 4), dh=st.integers(1, 3),
           extra=st.lists(st.integers(1, T), max_size=4), **_LAYER_GIVEN)
    def test_bit_identical_to_the_chain(self, heads, dh, extra, seed, dtype, p, trainable):
        """Every batch has a one-item row and a full-length row."""
        rows, _, bias, _ = _layout(self.T, extra)
        d = heads * dh
        _assert_bit_identical(ad.self_attention, _self_attention_chain,
                              [(len(rows), d)] + [(d, d)] * 4, trainable, dtype, seed,
                              (rows, bias.astype(dtype), heads, dh ** -0.5, p))


class TestFinalAttention:
    T = 6

    @settings(max_examples=80, deadline=None)
    @given(heads=st.integers(1, 4), dh=st.integers(1, 3),
           extra=st.lists(st.integers(1, T), max_size=4), **_LAYER_GIVEN)
    def test_bit_identical_to_the_chain(self, heads, dh, extra, seed, dtype, p, trainable):
        """Every batch has a one-item row and a full-length row; h is read
        twice, by the final rows' queries and by the pooling."""
        rows, last, _, bias = _layout(self.T, extra)
        d = heads * dh
        _assert_bit_identical(ad.final_attention, _final_attention_chain,
                              [(len(rows), d)] + [(d, d)] * 4, trainable, dtype, seed,
                              (rows, last, bias.astype(dtype), heads, dh ** -0.5, p))


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-12)

    def test_no_overflow_on_large_inputs(self):
        out = ad.softmax(ad.Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = ad.softmax(ad.Tensor(rng.standard_normal((6, 9))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-6)

    def test_nonfinite_input_raises(self):
        with pytest.raises(FloatingPointError):
            ad.softmax(ad.Tensor([np.inf, 0.0]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 20), n=st.integers(1, 50),
           spread=st.sampled_from([1.0, 30.0, 1000.0]),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_values_in_own_buffer_equal_softmax(self, seed, rows, n, spread, dtype):
        x = np.random.default_rng(seed).normal(0, spread, (rows, n)).astype(dtype)
        want = ad.softmax(ad.Tensor(x)).data
        buf = x.copy()
        got = ad.softmax_values(buf, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_values_nonfinite_input_raises(self, bad):
        x = np.zeros((2, 3))
        x[1, 2] = bad
        with pytest.raises(FloatingPointError):
            ad.softmax_values(x, out=x)


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = ad.cross_entropy(ad.Tensor(np.zeros(4)), 1)
        assert out.data == pytest.approx(math.log(4.0), abs=1e-9)

    def test_saturated_logits(self):
        out = ad.cross_entropy(ad.Tensor([30.0, -30.0]), 0)
        assert out.data == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(ad.Tensor(np.zeros(4)), 4)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 20), n=st.integers(1, 50),
           spread=st.sampled_from([1.0, 30.0, 1000.0]),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_target_prob_is_the_softmax_entry(self, seed, rows, n, spread, dtype):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, spread, (rows, n)).astype(dtype)
        targets = rng.integers(0, n, size=rows)
        loss, prob = ad.cross_entropy(ad.Tensor(x), targets, return_prob=True)
        assert float(loss.data) == float(ad.cross_entropy(ad.Tensor(x), targets).data)
        want = ad.softmax(ad.Tensor(x)).data[np.arange(rows), targets]
        assert prob.dtype == want.dtype
        np.testing.assert_array_equal(prob, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_target_prob_rejects_nonfinite_logits(self, bad):
        x = np.zeros((2, 3))
        x[1, 2] = bad  # not a target column: -inf leaves the loss finite
        with pytest.raises(FloatingPointError):
            ad.cross_entropy(ad.Tensor(x), np.array([0, 1]), return_prob=True)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(8)

        def f(xv):
            m = xv.max()
            return float(m + np.log(np.exp(xv - m).sum()) - xv[5])

        t = ad.Tensor(x, requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(ad.cross_entropy(t, 5), tape)
        assert gradient_close(t.grad, central_difference(f, x), rel_tol=1e-6)

    def test_batched_mean(self):
        logits = np.array([[0.0, 0.0], [10.0, -10.0]])
        out = ad.cross_entropy(ad.Tensor(logits), np.array([0, 0]))
        assert out.data == pytest.approx(0.5 * math.log(2.0), abs=1e-6)


class TestStopGradient:
    def test_forward_identity(self):
        x = np.array([1.0, -2.0, 3.5])
        out = ad.stop_gradient(ad.Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_blocks_gradient(self):
        w = ad.Parameter(np.array([1.0, 2.0]), "w")
        x = ad.Tensor([3.0, 4.0])
        with ad.Tape() as tape:
            loss = ad.tsum(ad.stop_gradient(ad.mul(w.tensor, x)))
            ad.backward(loss, tape)
        assert w.tensor.grad is None

    def test_stopped_term_adds_nothing(self):
        w = ad.Parameter(np.array([1.0, 2.0]), "w")
        x = ad.Tensor([3.0, 4.0])

        with ad.Tape() as tape:
            live = ad.mul(w.tensor, x)
            loss = ad.tsum(ad.add(live, ad.stop_gradient(ad.mul(w.tensor, x))))
            ad.backward(loss, tape)
        with_stop = w.tensor.grad.copy()

        w.tensor.grad = None
        with ad.Tape() as tape:
            ad.backward(ad.tsum(ad.mul(w.tensor, x)), tape)
        np.testing.assert_array_equal(with_stop, w.tensor.grad)

    @pytest.mark.parametrize("seed", range(5))
    def test_stop_on_side_path_leaves_other_gradients_alone(self, seed):
        rng = np.random.default_rng(seed)
        w = ad.Parameter(rng.standard_normal((3, 3)), "w")
        u = ad.Parameter(rng.standard_normal((3, 3)), "u")
        x = ad.Tensor(rng.standard_normal((2, 3)))

        def run(stop_side_path):
            w.tensor.grad = None
            u.tensor.grad = None
            with ad.Tape() as tape:
                main = ad.matmul(x, w.tensor)
                side = ad.matmul(main, u.tensor)
                if stop_side_path:
                    side = ad.stop_gradient(side)
                    loss = ad.tsum(ad.add(ad.mul(main, main), side))
                else:
                    loss = ad.tsum(ad.mul(main, main))
                ad.backward(loss, tape)
            return w.tensor.grad.copy()

        np.testing.assert_array_equal(run(True), run(False))
        assert u.tensor.grad is None


class TestBackwardContract:
    def test_sum_of_trainable_gives_ones(self):
        w = ad.Parameter(np.zeros((2, 3)), "w")
        with ad.Tape() as tape:
            ad.backward(ad.tsum(w.tensor), tape)
        np.testing.assert_array_equal(w.tensor.grad, np.ones((2, 3)))

    def test_frozen_parameter_gets_no_accumulator(self):
        w = ad.Parameter(np.ones(3), "w", trainable=False)
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(ad.tsum(ad.mul(w.tensor, x)), tape)
        assert w.tensor.grad is None
        before = w.data.tobytes()
        opt = Adam([w], lr=0.1)
        opt.step()
        assert w.data.tobytes() == before

    def test_non_scalar_loss_rejected(self):
        w = ad.Parameter(np.ones(3), "w")
        with ad.Tape() as tape:
            out = ad.mul(w.tensor, w.tensor)
            with pytest.raises(ValueError, match="scalar"):
                ad.backward(out, tape)

    def test_backward_releases_each_backward_fn_and_keeps_outputs(self):
        w = ad.Parameter(np.ones((4, 3)), "w")
        with ad.Tape() as tape:
            out = ad.dropout(ad.gelu(w.tensor), 0.5, np.random.default_rng(1))
            loss = ad.tsum(out)
            released = [weakref.ref(node.backward_fn) for node in tape.nodes]
            ad.backward(loss, tape)
        assert [ref() for ref in released] == [None] * len(released)
        assert all(node.backward_fn is None for node in tape.nodes)
        assert all(node.out.grad is not None for node in tape.nodes)
        assert w.tensor.grad.shape == (4, 3)

    def test_second_backward_on_a_tape_rejected(self):
        w = ad.Parameter(np.ones(3), "w")
        with ad.Tape() as tape:
            loss = ad.tsum(ad.mul(w.tensor, w.tensor))
            ad.backward(loss, tape)
            with pytest.raises(ValueError, match="already ran on this tape"):
                ad.backward(loss, tape)
        np.testing.assert_array_equal(w.tensor.grad, 2 * np.ones(3))

    def test_gradients_accumulate_across_backward_calls(self):
        w = ad.Parameter(np.ones(3), "w")
        for _ in range(2):
            with ad.Tape() as tape:
                ad.backward(ad.tsum(w.tensor), tape)
        np.testing.assert_array_equal(w.tensor.grad, 2 * np.ones(3))


class TestDropout:
    def test_eval_path_is_identity(self):
        x = ad.Tensor(np.ones((4, 4)))
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(np.ones((200, 200)))
        out = ad.dropout(x, 0.3, rng)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_seeded_mask_is_reproducible(self):
        x = ad.Tensor(np.ones((8, 8)))
        a = ad.dropout(x, 0.5, np.random.default_rng(42)).data
        b = ad.dropout(x, 0.5, np.random.default_rng(42)).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_uses_same_mask(self):
        x = ad.Parameter(np.ones((5, 5)), "x")
        with ad.Tape() as tape:
            out = ad.dropout(x.tensor, 0.4, np.random.default_rng(5))
            mask = out.data.copy()
            ad.backward(ad.tsum(out), tape)
        np.testing.assert_array_equal(x.tensor.grad, mask)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_draws_exactly_its_own_elements(self, dtype):
        """The mask is a.size uniforms of a's width, in a's own layout; an
        odd size leaves a float32 half-word behind, which the state shows."""
        rng = np.random.default_rng(8)
        with ad.default_dtype(dtype), ad.Tape() as tape:
            x = ad.Parameter(np.full((3, 5, 1), 2.0), "x")
            out = ad.dropout(x.tensor, 0.4, rng)
            ad.backward(ad.tsum(out), tape)
        ref = np.random.default_rng(8)
        mask = (ref.random(15, dtype=dtype) < 0.6).astype(dtype).reshape(3, 5, 1) / 0.6
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, x.data * mask)
        np.testing.assert_array_equal(x.tensor.grad, mask)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestAdam:
    def test_zero_gradient_means_no_drift(self):
        w = ad.Parameter(np.array([1.0, 2.0, 3.0]), "w")
        w.tensor.grad = np.zeros(3)
        opt = Adam([w], lr=0.5)
        before = w.data.tobytes()
        for _ in range(10):
            opt.step()
        assert w.data.tobytes() == before

    def test_missing_gradient_skips_parameter(self):
        w = ad.Parameter(np.array([1.0]), "w")
        opt = Adam([w], lr=0.5)
        opt.step()
        np.testing.assert_array_equal(w.data, [1.0])

    def test_first_step_moves_by_lr(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        w = ad.Parameter(np.array([0.0]), "w")
        w.tensor.grad = np.array([0.5])
        Adam([w], lr=0.1).step()
        assert w.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_descends_a_quadratic(self):
        w = ad.Parameter(np.array([5.0]), "w")
        opt = Adam([w], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            with ad.Tape() as tape:
                ad.backward(ad.tsum(ad.mul(w.tensor, w.tensor)), tape)
            opt.step()
        assert abs(w.data[0]) < 0.5


def test_determinism_identical_seed_identical_parameters():
    def train(seed):
        rng = np.random.default_rng(seed)
        w = ad.Parameter(rng.standard_normal((4, 4)), "w")
        opt = Adam([w], lr=0.01)
        for _ in range(25):
            x = ad.Tensor(rng.standard_normal((2, 4)))
            opt.zero_grad()
            with ad.Tape() as tape:
                out = ad.matmul(x, w.tensor)
                ad.backward(ad.tsum(ad.mul(out, out)), tape)
            opt.step()
        return w.data.tobytes()

    assert train(123) == train(123)
    assert train(123) != train(124)


def test_tensor_grad_shape_matches_data():
    w = ad.Parameter(np.ones((3, 2)), "w")
    with ad.Tape() as tape:
        ad.backward(ad.tsum(ad.mul(w.tensor, w.tensor)), tape)
    assert w.tensor.grad.shape == w.tensor.data.shape
