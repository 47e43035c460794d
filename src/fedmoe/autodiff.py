"""Reverse-mode differentiable tensor engine.

Dense numpy-backed tensors plus an explicit tape. Every differentiable
operation executed while a Tape is active appends one node; backward()
replays the nodes in exact reverse execution order and accumulates
gradients additively into every tensor that requires them. Frozen
parameters (trainable=False) are treated as constants: gradients flow
through the ops that consume them but nothing is ever written into
their accumulators.

Scalars are float32 by default (experiment runs); tests switch to
float64 via set_default_dtype / default_dtype for sharp finite-difference
comparisons.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError

_state = threading.local()
_DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily switch the scalar width (used by gradient tests)."""
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


class Tensor:
    """Dense array with an optional same-shape gradient accumulator.

    Float arrays keep their dtype, so an op's result has the width of its
    inputs; everything else is materialized at the default scalar width.
    Leaves are created at the default width (Parameter converts its data),
    so the precision of a model is fixed by the width active when its
    parameters were created.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray) and data.dtype.kind == "f":
            self.data = data
        else:
            self.data = np.asarray(data, dtype=get_default_dtype())
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter:
    """Named tensor owned by a model component.

    The data is materialized at the default scalar width, whatever the
    width of the initializer's array.
    trainable=False freezes the parameter: the optimizer skips it and
    backward never touches its accumulator, while gradients still pass
    through operations that read it.
    """

    __slots__ = ("tensor", "name")

    def __init__(self, data, name: str, trainable: bool = True):
        self.tensor = Tensor(np.asarray(data, dtype=get_default_dtype()), requires_grad=trainable)
        self.name = name

    @property
    def trainable(self) -> bool:
        return self.tensor.requires_grad

    @trainable.setter
    def trainable(self, flag: bool) -> None:
        self.tensor.requires_grad = bool(flag)

    @property
    def data(self):
        return self.tensor.data

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape}, trainable={self.trainable})"


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of differentiable operations for one forward pass.

    backward runs once per tape: it releases each node's backward function
    as it goes, and marks the tape released.
    """

    __slots__ = ("nodes", "released")

    def __init__(self):
        self.nodes: list[_Node] = []
        self.released = False

    def __enter__(self):
        stack = getattr(_state, "tapes", None)
        if stack is None:
            stack = _state.tapes = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tapes.pop()
        return False


def active_tape() -> Tape | None:
    stack = getattr(_state, "tapes", None)
    return stack[-1] if stack else None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = active_tape()
    if tape is not None and any(i.requires_grad for i in inputs):
        out.requires_grad = True
        tape.nodes.append(_Node(out, inputs, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape | None = None) -> None:
    """Accumulate d(loss)/d(tensor) into .grad of every tensor requiring it.

    Each node's backward function is dropped once its turn has come, so
    what it captured (masks, cached activations) is freed during the pass;
    node outputs and their gradients stay. A tape runs backward once.
    """
    tape = tape if tape is not None else active_tape()
    if tape is None or not tape.nodes:
        raise ValueError("backward called with an empty or missing tape")
    if tape.released:
        raise ValueError("backward already ran on this tape and released its backward functions")
    if loss.data.ndim != 0:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    tape.released = True
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(tape.nodes):
        backward_fn, node.backward_fn = node.backward_fn, None
        out_grad = node.out.grad
        if out_grad is None:
            continue
        grads = backward_fn(out_grad)
        for inp, g in zip(node.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            # grad arrays are never mutated in place, so sharing is safe
            inp.grad = g if inp.grad is None else inp.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)
    out = Tensor(a.data * s)
    return _record(out, (a,), lambda g: (g * s,))


def sub(a, b) -> Tensor:
    return add(a, scale(b, -1.0))


def matmul(a, b) -> Tensor:
    """Matrix product; leading dims follow numpy stacking rules."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 1 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.data.shape} x {b.data.shape}")
    if b.data.ndim == 2 and a.data.ndim >= 3:
        return _matmul_flat(a, b)
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g):
        ga, gb = _matmul_grads(g, a.data, b.data, a.requires_grad, b.requires_grad)
        return (None if ga is None else _unbroadcast(ga, a.data.shape),
                None if gb is None else _unbroadcast(gb, b.data.shape))

    return _record(out, (a, b), bwd)


def _matmul_grads(g, a: np.ndarray, b: np.ndarray, need_a: bool, need_b: bool):
    """The gradients of np.matmul(a, b) as matmul's backward forms them,
    before any sum over broadcast axes; None where not needed."""
    return (_product(g, np.swapaxes(b, -1, -2)) if need_a else None,
            _product(np.swapaxes(a, -1, -2), g) if need_b else None)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.matmul, as a broadcast outer product when the contracted dim is 1.

    A sum of one term is exact either way, and numpy's batched matmul is
    slow on such thin operands (a one-head attention's gradient with
    respect to the states it scores and pools: (b, t, 1) x (b, 1, d)).
    """
    if x.shape[-1] == 1 and x.ndim >= 2 and y.ndim >= 2:
        return np.einsum("...ik,...kj->...ij", x, y)
    return np.matmul(x, y)


def _matmul_flat(a: Tensor, b: Tensor) -> Tensor:
    """Stacked rows times one weight matrix as a single 2-d GEMM.

    The weight gradient is one product over all rows instead of a batched
    matmul followed by a sum over the stack.
    """
    k, n = b.data.shape
    a2 = a.data.reshape(-1, k)
    out = Tensor((a2 @ b.data).reshape(a.data.shape[:-1] + (n,)))

    def bwd(g):
        g2 = g.reshape(-1, n)
        ga = (g2 @ b.data.T).reshape(a.data.shape) if a.requires_grad else None
        gb = a2.T @ g2 if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def sparse_matmul(adj, x) -> Tensor:
    """Product of a constant scipy sparse matrix with a dense tensor."""
    x = as_tensor(x)
    if adj.shape[1] != x.data.shape[0]:
        raise ShapeError(f"sparse_matmul: inner dimensions disagree for {adj.shape} x {x.data.shape}")
    out = Tensor(np.asarray(adj @ x.data, dtype=x.data.dtype))
    return _record(out, (x,), lambda g: (np.asarray(adj.T @ g, dtype=x.data.dtype),))


def concat_last(tensors) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    lead = tensors[0].data.shape[:-1]
    for t in tensors[1:]:
        if t.data.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last: leading shapes disagree, {tensors[0].data.shape} vs {t.data.shape}"
            )
    out = Tensor(np.concatenate([t.data for t in tensors], axis=-1))
    offsets = np.cumsum([t.data.shape[-1] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=-1))

    return _record(out, tuple(tensors), bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.swapaxes(a.data, axis1, axis2))
    return _record(out, (a,), lambda g: (np.swapaxes(g, axis1, axis2),))


def select(a, axis: int, index: int) -> Tensor:
    """Pick one slice along an axis (e.g. the final sequence position)."""
    a = as_tensor(a)
    out = Tensor(np.take(a.data, index, axis=axis))

    def bwd(g):
        ga = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        ga[tuple(sl)] = g
        return (ga,)

    return _record(out, (a,), bwd)


def take_rows(a, rows) -> Tensor:
    """Rows of a at distinct indices into its flattened leading axes,
    shape (len(rows), a.shape[-1]).

    Backward writes each row's gradient into a zero array of a's shape;
    the indices are distinct, so nothing accumulates.
    """
    a = as_tensor(a)
    d = a.data.shape[-1]
    rows = np.asarray(rows)
    out = Tensor(a.data.reshape(-1, d)[rows])
    return _record(out, (a,), lambda g: (_placed(g, rows, a.data.size // d).reshape(a.data.shape),))


def _placed(values: np.ndarray, rows, count: int) -> np.ndarray:
    """values at the distinct rows of a zero array of count rows."""
    out = np.zeros((count,) + values.shape[1:], dtype=values.dtype)
    out[rows] = values
    return out


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Contiguous row range along the first axis."""
    a = as_tensor(a)
    out = Tensor(a.data[start:stop])

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return _record(out, (a,), bwd)


def gather_rows(table, ids, onehots: dict | None = None) -> Tensor:
    """Row lookup out[..., :] = table[ids]; backward scatter-adds into rows.

    onehots, when given, keeps the backward's one-hot matrix of these ids
    by table rows and dtype, so lookups that share an index array build
    it once.
    """
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-d, got {table.data.shape}")
    ids = np.asarray(ids)
    out = Tensor(table.data[ids])

    def bwd(g):
        # one-hot (rows, n) product: each row sums its lookups in position
        # order, exactly what a scatter-add gives, without np.add.at's cost
        rows, d = table.data.shape
        key = (rows, g.dtype)
        onehot = onehots.get(key) if onehots is not None else None
        if onehot is None:
            flat = ids.ravel()
            onehot = sp.csr_matrix((np.ones(flat.size, dtype=g.dtype),
                                    (flat, np.arange(flat.size))), shape=(rows, flat.size))
            if onehots is not None:
                onehots[key] = onehot
        return (onehot @ g.reshape(-1, d),)

    return _record(out, (table,), bwd)


def take_along_last(a, idx) -> Tensor:
    """out[i] = a[i, idx[i]] for a 2-d tensor."""
    a = as_tensor(a)
    idx = np.asarray(idx)
    rows = np.arange(a.data.shape[0])
    out = Tensor(a.data[rows, idx])

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g
        return (ga,)

    return _record(out, (a,), bwd)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False),)

    return _record(out, (a,), bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def tlog(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


# ---------------------------------------------------------------------------
# neural-net specific operations
# ---------------------------------------------------------------------------

_GELU_SLOPE = 1.702  # sigmoid approximation constant


def gelu(a) -> Tensor:
    """Gaussian error linear unit, sigmoid form: x * sigmoid(1.702 x).

    The forward sigmoid is cached so the backward pass is pure
    arithmetic (one transcendental per call).
    """
    a = as_tensor(a)
    s = _gelu_sigmoid(a.data)
    out = Tensor(a.data * s)
    return _record(out, (a,), lambda g: (_gelu_grad(g, a.data, s),))


def _gelu_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-1.702 x)), computed in one buffer."""
    s = np.multiply(x, -_GELU_SLOPE)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _gelu_grad(g: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g * (s + 1.702 x s (1 - s)): gelu's gradient at x, whose sigmoid is s."""
    out = np.multiply(x, _GELU_SLOPE)
    out *= s
    out *= 1.0 - s
    out += s
    out *= g
    return out


def softmax_values(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """softmax's arithmetic on an array, off the tape; out=x reuses x's buffer."""
    if not np.isfinite(x).all():
        raise FloatingPointError("softmax input contains non-finite values")
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(a, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along one axis."""
    a = as_tensor(a)
    y = softmax_values(a.data, axis)
    return _record(Tensor(y), (a,), lambda g: (_softmax_grad(g, y, axis),))


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """dx = y * (g - sum(g * y)) for y = softmax(x) along axis."""
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def cross_entropy(logits, target, return_prob: bool = False):
    """-log softmax(logits)[target] via log-sum-exp.

    Accepts a single logit vector with an int target, or a (batch, n)
    matrix with a vector of targets; the batched form returns the mean.
    With return_prob it also returns softmax(logits)[target] per row from
    the same max, exp and row sum, and rejects non-finite logits as softmax does.
    """
    logits = as_tensor(logits)
    x = logits.data
    if x.ndim == 1:
        x2 = x[None, :]
        targets = np.asarray([target], dtype=np.int64)
    elif x.ndim == 2:
        x2 = x
        targets = np.asarray(target, dtype=np.int64)
        if targets.shape != (x2.shape[0],):
            raise ShapeError(f"cross_entropy: {targets.shape} targets for {x2.shape} logits")
    else:
        raise ShapeError(f"cross_entropy: logits must be 1-d or 2-d, got {x.shape}")
    n = x2.shape[1]
    if targets.min() < 0 or targets.max() >= n:
        raise IndexError(f"cross_entropy: target out of range [0, {n})")
    if return_prob and not np.isfinite(x2).all():
        raise FloatingPointError("cross_entropy input contains non-finite values")
    m = x2.max(axis=1, keepdims=True)
    e = np.exp(x2 - m)
    total = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(total[:, 0])
    rows = np.arange(x2.shape[0])
    losses = lse - x2[rows, targets]
    out = Tensor(losses.mean())

    def bwd(g):
        p = e / total
        p[rows, targets] -= 1.0
        p *= g / x2.shape[0]
        return (p.reshape(x.shape),)

    out = _record(out, (logits,), bwd)
    return (out, e[rows, targets] / total[:, 0]) if return_prob else out


def mix(weights, values: np.ndarray) -> Tensor:
    """out[i] = sum_e weights[i, e] * values[i, e], added in e order. values
    (batch, E) is a constant: the backward gives the weights' gradient alone."""
    weights = as_tensor(weights)
    if values.shape != weights.data.shape:
        raise ShapeError(f"mix: values {values.shape} do not match weights {weights.data.shape}")
    terms = weights.data * values
    out = terms[:, 0]
    for e in range(1, values.shape[1]):
        out = out + terms[:, e]
    return _record(Tensor(out), (weights,), lambda g: (g[:, None] * values,))


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Train-mode dropout with inverted scaling; eval paths skip the call.

    The mask is drawn at a's own shape, exactly a.size uniforms of a's
    width (float32 or float64), and applied whole.
    """
    a = as_tensor(a)
    if p <= 0.0:
        return a
    mask = _dropout_mask(a.data, p, rng)
    out = Tensor(a.data * mask)
    return _record(out, (a,), lambda g: (g * mask,))


def _dropout_mask(a: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask of a's shape and width from a.size uniforms."""
    keep = 1.0 - p
    draw_dtype = np.float32 if a.dtype == np.float32 else np.float64
    return np.divide(rng.random(a.shape, dtype=draw_dtype) < keep, keep, dtype=a.dtype)


# ---------------------------------------------------------------------------
# layer-level operations
# ---------------------------------------------------------------------------
#
# Each records one node for a chain of the ops above and runs the chain's
# numpy calls in its order, so values, dropout draws and gradients are the
# chain's bit for bit: sums keep their operand order, a weight's gradient is
# formed only when it is trainable, and an input read twice gets its terms
# added in the order the tape added them. A bias or scale is applied in
# place to a product the op owns: the same values without a second array.


def feed_forward(x, w_in, b_in, w_out, b_out, p: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    """The chain add(matmul(dropout(gelu(add(matmul(x, w_in), b_in)), p, rng),
    w_out), b_out) for rows x (n, d); dropout applies when rng is given and
    p > 0."""
    x, w_in, b_in, w_out, b_out = (as_tensor(t) for t in (x, w_in, b_in, w_out, b_out))
    pre = np.matmul(x.data, w_in.data)
    pre += b_in.data
    s = _gelu_sigmoid(pre)
    f = pre * s
    mask = _dropout_mask(f, p, rng) if rng is not None and p > 0.0 else None
    if mask is not None:
        f *= mask
    out = np.matmul(f, w_out.data)
    out += b_out.data

    def bwd(g):
        need_f = x.requires_grad or w_in.requires_grad or b_in.requires_grad
        gf, gw_out = _matmul_grads(g, f, w_out.data, need_f, w_out.requires_grad)
        gb_out = _unbroadcast(g, b_out.data.shape) if b_out.requires_grad else None
        gx = gw_in = gb_in = None
        if need_f:
            if mask is not None:
                gf *= mask
            gpre = _gelu_grad(gf, pre, s)
            gb_in = _unbroadcast(gpre, b_in.data.shape) if b_in.requires_grad else None
            gx, gw_in = _matmul_grads(gpre, x.data, w_in.data, x.requires_grad, w_in.requires_grad)
        return gx, gw_in, gb_in, gw_out, gb_out

    return _record(Tensor(out), (x, w_in, b_in, w_out, b_out), bwd)


def self_attention(h, wq, wk, wv, wo, rows, bias: np.ndarray, heads: int, scale: float,
                   p: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head self-attention output (n, d) at every row of the packed
    states h (n, d), which sit at the distinct rows of the flattened (b, t)
    layout of the constant additive bias (b, 1, t, t). The chain, with
    split (b, t, d) -> (b, heads, t, dh) and merge its inverse:

        q, k, v = (split(scatter(matmul(h, w), rows)) for w in (wq, wk, wv))
        y = softmax(add(scale(matmul(q, swapaxes(k)), scale), bias))
        out = matmul(take_rows(merge(matmul(dropout(y, p, rng), v)), rows), wo)

    Padding positions hold zeros; dropout applies when rng is given and
    p > 0. h's gradient adds the terms through v, k and q in that order.
    """
    h, wq, wk, wv, wo = (as_tensor(t) for t in (h, wq, wk, wv, wo))
    d = h.data.shape[-1]
    b, t = bias.shape[0], bias.shape[-1]
    dh = d // heads
    rows = np.asarray(rows)
    scale = float(scale)

    def split(x):  # (b * t, d) -> (b, heads, t, dh)
        return np.swapaxes(x.reshape(b, t, heads, dh), 1, 2)

    q, k, v = (split(_placed(np.matmul(h.data, w.data), rows, b * t)) for w in (wq, wk, wv))
    k_t = np.swapaxes(k, -1, -2)
    scores = np.matmul(q, k_t)
    scores *= scale
    scores += bias
    y = softmax_values(scores, -1, out=scores)
    mask = _dropout_mask(y, p, rng) if rng is not None and p > 0.0 else None
    attn = y if mask is None else y * mask
    ctx = np.swapaxes(np.matmul(attn, v), 1, 2).reshape(-1, d)[rows]

    def bwd(g):
        need_q, need_k, need_v = (h.requires_grad or w.requires_grad for w in (wq, wk, wv))
        g_ctx, gwo = _matmul_grads(g, ctx, wo.data, need_q or need_k or need_v,
                                   wo.requires_grad)
        g_attn = g_v = g_q = g_k = gh = None
        if g_ctx is not None:
            g_attn, g_v = _matmul_grads(split(_placed(g_ctx, rows, b * t)), attn, v,
                                        need_q or need_k, need_v)
        if g_attn is not None:
            if mask is not None:
                g_attn *= mask
            g_scores = _softmax_grad(g_attn, y, -1)
            g_scores *= scale
            g_q, g_kt = _matmul_grads(g_scores, q, k_t, need_q, need_k)
            g_k = None if g_kt is None else np.swapaxes(g_kt, -1, -2)
        gw = []
        for w, g_heads in ((wv, g_v), (wk, g_k), (wq, g_q)):
            gh_w = gw_w = None
            if g_heads is not None:
                gh_w, gw_w = _matmul_grads(np.swapaxes(g_heads, 1, 2).reshape(-1, d)[rows],
                                           h.data, w.data, h.requires_grad, w.requires_grad)
            gw.append(gw_w)
            if gh_w is not None:
                gh = gh_w if gh is None else gh + gh_w
        gwv, gwk, gwq = gw
        return gh, gwq, gwk, gwv, gwo

    return _record(Tensor(np.matmul(ctx, wo.data)), (h, wq, wk, wv, wo), bwd)


def final_attention(h, wq, wk, wv, wo, rows, last, bias: np.ndarray, heads: int, scale: float,
                    p: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head attention output (b, d) of each sequence's final query,
    at row last of the packed states h (n, d), over those states, which sit
    at the distinct rows of the flattened (b, t) layout of the constant
    additive bias (b, t, 1). The chain, with hs = scatter(h, rows):

        q = swapaxes(reshape(matmul(take_rows(h, last), wq), (b, heads, dh)), 0, 1)
        r = swapaxes(swapaxes(matmul(q, reshape(swapaxes(wk), (heads, dh, d))), 0, 1), 1, 2)
        y = softmax(add(scale(matmul(hs, r), scale), bias), axis=1)
        pooled = swapaxes(matmul(dropout(swapaxes(y, 1, 2), p, rng), hs), 0, 1)
        v = swapaxes(reshape(wv, (d, heads, dh)), 0, 1)
        out = matmul(reshape(swapaxes(matmul(pooled, v), 0, 1), (b, d)), wo)

    Keys and values are never formed: by associativity the score of state
    j is q.(h_j W_k) = (q W_k^T).h_j and the context (sum_j a_j h_j) W_v.
    h's gradient, formed at its own rows only (with one head as
    elementwise products), adds the pooled term, then the query term.
    """
    h, wq, wk, wv, wo = (as_tensor(t) for t in (h, wq, wk, wv, wo))
    n, d = h.data.shape
    b, t = bias.shape[:2]
    dh = d // heads
    rows, last = np.asarray(rows), np.asarray(last)
    scale = float(scale)
    h_last = h.data[last]
    q = np.swapaxes(np.matmul(h_last, wq.data).reshape(b, heads, dh), 0, 1)   # (heads, b, dh)
    k_t = np.swapaxes(wk.data, 0, 1).reshape(heads, dh, d)
    r = np.swapaxes(np.swapaxes(np.matmul(q, k_t), 0, 1), 1, 2)              # (b, d, heads)
    hs = _placed(h.data, rows, b * t).reshape(b, t, d)
    scores = np.matmul(hs, r)
    scores *= scale
    scores += bias
    y = softmax_values(scores, 1, out=scores)                                # (b, t, heads)
    attn = np.swapaxes(y, 1, 2)
    mask = _dropout_mask(attn, p, rng) if rng is not None and p > 0.0 else None
    if mask is not None:
        attn = attn * mask
    pooled = np.swapaxes(np.matmul(attn, hs), 0, 1)                          # (heads, b, d)
    v = np.swapaxes(wv.data.reshape(d, heads, dh), 0, 1)                     # (heads, d, dh)
    ctx = np.swapaxes(np.matmul(pooled, v), 0, 1).reshape(b, d)

    def bwd(g):
        need_q = h.requires_grad or wq.requires_grad
        need_r = need_q or wk.requires_grad
        need_pooled = h.requires_grad or need_r
        g_ctx, gwo = _matmul_grads(g, ctx, wo.data, need_pooled or wv.requires_grad,
                                   wo.requires_grad)
        gh = gwq = gwk = gwv = g_pooled = g_q = None
        if g_ctx is not None:
            g_pooled, g_v = _matmul_grads(np.swapaxes(g_ctx.reshape(b, heads, dh), 0, 1), pooled,
                                          v, need_pooled, wv.requires_grad)
            gwv = None if g_v is None else np.swapaxes(g_v, 0, 1).reshape(d, d)
        if g_pooled is not None:
            g_pooled = np.swapaxes(g_pooled, 0, 1)                           # (b, heads, d)
            g_attn = _product(g_pooled, np.swapaxes(hs, -1, -2))
            if mask is not None:
                g_attn *= mask
            g_scores = _softmax_grad(np.swapaxes(g_attn, 1, 2), y, 1) * scale
            if h.requires_grad and heads == 1:
                bi, ti = np.divmod(rows, t)
                gh = attn[bi, 0, ti][:, None] * g_pooled[bi, 0] + g_scores[bi, ti] * r[bi, :, 0]
            elif h.requires_grad:
                gh = (_product(np.swapaxes(attn, -1, -2), g_pooled)
                      + _product(g_scores, np.swapaxes(r, -1, -2))).reshape(-1, d)[rows]
            if need_r:
                g_r = _product(np.swapaxes(hs, -1, -2), g_scores)
                g_q, g_kt = _matmul_grads(np.swapaxes(np.swapaxes(g_r, 1, 2), 0, 1), q, k_t,
                                          need_q, wk.requires_grad)
                gwk = None if g_kt is None else np.swapaxes(g_kt.reshape(d, d), 0, 1)
        if g_q is not None:
            g_last, gwq = _matmul_grads(np.swapaxes(g_q, 0, 1).reshape(b, d), h_last, wq.data,
                                        h.requires_grad, wq.requires_grad)
            if g_last is not None:
                gh = gh + _placed(g_last, last, n)
        return gh, gwq, gwk, gwv, gwo

    return _record(Tensor(np.matmul(ctx, wo.data)), (h, wq, wk, wv, wo), bwd)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Mean/variance normalization over the last axis with learned affine.

    Works on the 2-d (rows, d) view: every row mean is one GEMV against a
    constant 1/d column, and the gain and bias gradients are column sums,
    each one GEMV against a row of ones (far faster than numpy's sum over
    the leading axis).
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    d = a.data.shape[-1]
    x2 = a.data.reshape(-1, d)
    avg = np.full((d, 1), 1.0 / d, dtype=x2.dtype)
    centered = x2 - x2 @ avg
    inv = 1.0 / np.sqrt((centered * centered) @ avg + eps)
    xhat = centered * inv
    out = Tensor((xhat * gain.data + bias.data).reshape(a.data.shape))

    def bwd(g):
        g2 = g.reshape(-1, d)
        ga = ggain = gbias = None
        if a.requires_grad:
            gxh = g2 * gain.data
            # dx = inv * (gxh - mean(gxh) - xhat * mean(gxh * xhat))
            ga = gxh - gxh @ avg
            ga -= xhat * ((gxh * xhat) @ avg)
            ga *= inv
            ga = ga.reshape(a.data.shape)
        ones = np.ones(g2.shape[0], dtype=g2.dtype)
        if gain.requires_grad:
            ggain = (ones @ (g2 * xhat)).reshape(gain.data.shape)
        if bias.requires_grad:
            gbias = (ones @ g2).reshape(bias.data.shape)
        return ga, ggain, gbias

    return _record(out, (a, gain, bias), bwd)


def stop_gradient(a) -> Tensor:
    """Forward identity that contributes no gradient to its producers."""
    a = as_tensor(a)
    return Tensor(a.data)
