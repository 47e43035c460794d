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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            self.data = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype.kind == "f":
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

    The data is materialized at the default scalar width unless a dtype
    is given, whatever the width of the initializer's array.
    trainable=False freezes the parameter: the optimizer skips it and
    backward never touches its accumulator, while gradients still pass
    through operations that read it.
    """

    __slots__ = ("tensor", "name")

    def __init__(self, data, name: str, trainable: bool = True, dtype=None):
        if dtype is None:
            dtype = get_default_dtype()
        self.tensor = Tensor(data, requires_grad=trainable, dtype=dtype)
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
    """Ordered record of differentiable operations for one forward pass."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

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
    """Accumulate d(loss)/d(tensor) into .grad of every tensor requiring it."""
    tape = tape if tape is not None else active_tape()
    if tape is None or not tape.nodes:
        raise ValueError("backward called with an empty or missing tape")
    if loss.data.ndim != 0:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(tape.nodes):
        out_grad = node.out.grad
        if out_grad is None:
            continue
        grads = node.backward_fn(out_grad)
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
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(_product(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(_product(np.swapaxes(a.data, -1, -2), g), b.data.shape)
        return ga, gb

    return _record(out, (a, b), bwd)


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

    def bwd(g):
        ga = np.zeros((a.data.size // d, d), dtype=a.data.dtype)
        ga[rows] = g
        return (ga.reshape(a.data.shape),)

    return _record(out, (a,), bwd)


def scatter_rows(a, rows, lead) -> Tensor:
    """The rows of a 2-d tensor placed at distinct indices into the
    flattened leading axes `lead`, zeros elsewhere: shape lead + (d,).

    The inverse of take_rows; backward takes the rows back out.
    """
    a = as_tensor(a)
    d = a.data.shape[-1]
    rows = np.asarray(rows)
    lead = tuple(lead)
    out = np.zeros((int(np.prod(lead)), d), dtype=a.data.dtype)
    out[rows] = a.data
    return _record(Tensor(out.reshape(lead + (d,))), (a,),
                   lambda g: (g.reshape(-1, d)[rows],))


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Contiguous row range along the first axis."""
    a = as_tensor(a)
    out = Tensor(a.data[start:stop])

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return _record(out, (a,), bwd)


def gather_rows(table, ids) -> Tensor:
    """Row lookup out[..., :] = table[ids]; backward scatter-adds into rows."""
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-d, got {table.data.shape}")
    ids = np.asarray(ids)
    out = Tensor(table.data[ids])

    def bwd(g):
        # one-hot (rows, n) product: each row sums its lookups in position
        # order, exactly what a scatter-add gives, without np.add.at's cost
        rows, d = table.data.shape
        flat = ids.ravel()
        onehot = sp.csr_matrix((np.ones(flat.size, dtype=g.dtype), (flat, np.arange(flat.size))),
                               shape=(rows, flat.size))
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
    s = 1.0 / (1.0 + np.exp(-_GELU_SLOPE * a.data))
    out = Tensor(a.data * s)

    def bwd(g):
        return (g * (s + _GELU_SLOPE * a.data * s * (1.0 - s)),)

    return _record(out, (a,), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along one axis."""
    a = as_tensor(a)
    if not np.isfinite(a.data).all():
        raise FloatingPointError("softmax input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        # dx = y * (g - sum(g * y))
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _record(out, (a,), bwd)


def cross_entropy(logits, target) -> Tensor:
    """-log softmax(logits)[target] via log-sum-exp.

    Accepts a single logit vector with an int target, or a (batch, n)
    matrix with a vector of targets; the batched form returns the mean.
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

    return _record(out, (logits,), bwd)


def dropout(a, p: float, rng: np.random.Generator, draw_shape=None, rows=None) -> Tensor:
    """Train-mode dropout with inverted scaling; eval paths skip the call.

    The mask is drawn at draw_shape (default a's shape) and applied in
    part: its trailing block of a's shape, or, given rows, the rows of the
    draw at those first-axis indices. An op computed at some positions of
    a larger activation thus consumes the random stream as the whole one
    would.
    """
    a = as_tensor(a)
    if p <= 0.0:
        return a
    shape = a.data.shape if draw_shape is None else tuple(draw_shape)
    if rows is None:
        pick = tuple(slice(n - m, None) for n, m in zip(shape, a.data.shape))
        fits = len(shape) == a.data.ndim and all(m <= n for n, m in zip(shape, a.data.shape))
    else:
        pick = np.asarray(rows)
        fits = pick.shape == a.data.shape[:1] and shape[1:] == a.data.shape[1:]
    if not fits:
        raise ShapeError(f"dropout: cannot apply a {shape} draw to {a.data.shape}")
    keep = 1.0 - p
    draw_dtype = np.float32 if a.data.dtype == np.float32 else np.float64
    u = rng.random(shape, dtype=draw_dtype)[pick]
    mask = (u < keep).astype(a.data.dtype) / keep
    out = Tensor(a.data * mask)
    return _record(out, (a,), lambda g: (g * mask,))


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
