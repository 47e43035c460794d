"""Gradient and contract tests for the tensor engine.

Every differentiable op is checked against central finite differences in
float64; trivial cases come straight from the op contracts.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

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
    ("concat", lambda t: ad.concat_last([t, ad.mul(t, t)]), (3, 4)),
    ("gather", lambda t: ad.gather_rows(t, np.array([[0, 2], [2, 2]])), (3, 4)),
    ("take_along", lambda t: ad.take_along_last(t, np.array([1, 3, 0])), (3, 4)),
    ("take_rows", lambda t: ad.take_rows(t, np.array([4, 0, 3])), (2, 3, 4)),
    ("scatter_rows", lambda t: ad.scatter_rows(t, np.array([5, 1, 2]), (2, 3)), (3, 4)),
    ("sparse_matmul", lambda t: ad.sparse_matmul(
        sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])), t), (3, 4)),
]


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

    def test_larger_draw_applies_its_trailing_block(self):
        rng = np.random.default_rng(8)
        full = ad.dropout(ad.Tensor(np.ones((3, 4, 4))), 0.5, rng).data
        after_full = rng.random()
        x = ad.Parameter(np.full((3, 1, 4), 2.0), "x")
        rng = np.random.default_rng(8)
        with ad.Tape() as tape:
            out = ad.dropout(x.tensor, 0.5, rng, draw_shape=(3, 4, 4))
            ad.backward(ad.tsum(out), tape)
        np.testing.assert_array_equal(out.data, 2.0 * full[:, -1:])
        np.testing.assert_array_equal(x.tensor.grad, full[:, -1:])
        assert rng.random() == after_full

    def test_rows_of_a_larger_draw_applied(self):
        rng = np.random.default_rng(8)
        full = ad.dropout(ad.Tensor(np.ones((6, 4))), 0.5, rng).data
        after_full = rng.random()
        rows = np.array([1, 4, 5])
        x = ad.Parameter(np.full((3, 4), 2.0), "x")
        rng = np.random.default_rng(8)
        with ad.Tape() as tape:
            out = ad.dropout(x.tensor, 0.5, rng, draw_shape=(6, 4), rows=rows)
            ad.backward(ad.tsum(out), tape)
        np.testing.assert_array_equal(out.data, 2.0 * full[rows])
        np.testing.assert_array_equal(x.tensor.grad, full[rows])
        assert rng.random() == after_full

    def test_rows_that_do_not_fit_rejected(self):
        with pytest.raises(ShapeError, match="draw"):
            ad.dropout(ad.Tensor(np.ones((3, 4))), 0.5, np.random.default_rng(0),
                       draw_shape=(6, 4), rows=np.array([0, 1]))

    def test_draw_smaller_than_input_rejected(self):
        with pytest.raises(ShapeError, match="draw"):
            ad.dropout(ad.Tensor(np.ones((3, 4))), 0.5, np.random.default_rng(0),
                       draw_shape=(3, 2))


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
