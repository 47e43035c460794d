"""Gate router and knowledge fusion across expert branches.

The gate reads the concatenated final-position representations of every
branch (local first, then the global branches in fixed domain-id
order), behind a stop-gradient so its training never disturbs expert
convergence. Fusion mixes the branch probability distributions with the
gate weights; the branch values are constants, so the fusion op has no
path to the experts and the fusion loss trains the gate and nothing else.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ShapeError

EPS_FLOOR = 1e-12


@dataclasses.dataclass
class GateParams:
    """Softmax router over the experts visible in one domain.

    Zero-initialized so training starts at the uniform mixture. With
    hidden_dim == 0 it is a single linear map; otherwise one GELU hidden
    layer feeds a zero-initialized output layer.
    """

    weight: Parameter            # (num_experts * width, out) or (hidden, out)
    bias: Parameter
    hidden_weight: Parameter | None = None
    hidden_bias: Parameter | None = None

    @property
    def num_experts(self) -> int:
        return self.weight.data.shape[1]

    def parameters(self) -> list[Parameter]:
        params = [self.weight, self.bias]
        if self.hidden_weight is not None:
            params += [self.hidden_weight, self.hidden_bias]
        return params


def init_gate(num_experts: int, width: int, hidden_dim: int = 0,
              rng: np.random.Generator | None = None) -> GateParams:
    d_in = num_experts * width
    if hidden_dim:
        if rng is None:
            raise ValueError("hidden gate needs an rng for the hidden layer")
        return GateParams(
            weight=Parameter(np.zeros((hidden_dim, num_experts)), "gate.out"),
            bias=Parameter(np.zeros(num_experts), "gate.out_bias"),
            hidden_weight=Parameter(rng.normal(0.0, 0.02, (d_in, hidden_dim)), "gate.hidden"),
            hidden_bias=Parameter(np.zeros(hidden_dim), "gate.hidden_bias"),
        )
    return GateParams(
        weight=Parameter(np.zeros((d_in, num_experts)), "gate.out"),
        bias=Parameter(np.zeros(num_experts), "gate.out_bias"),
    )


def gate_forward(z_list: list[Tensor], gate: GateParams) -> Tensor:
    """Per-sample expert weights, shape (batch, num_experts).

    The concatenated representations are stop-gradiented: downstream
    gradients reach only the gate parameters.
    """
    if len(z_list) < 2:
        raise ShapeError(f"gate needs at least 2 experts, got {len(z_list)}")
    width = z_list[0].data.shape[-1]
    for z in z_list[1:]:
        if z.data.shape[-1] != width:
            raise ShapeError(
                f"gate input widths disagree: {z.data.shape[-1]} vs {width}")
    x = ad.stop_gradient(ad.concat_last(z_list))
    if gate.hidden_weight is not None:
        x = ad.gelu(ad.add(ad.matmul(x, gate.hidden_weight.tensor),
                           gate.hidden_bias.tensor))
    logits = ad.add(ad.matmul(x, gate.weight.tensor), gate.bias.tensor)
    return ad.softmax(logits, axis=-1)


def uniform_gate_weights(batch: int, num_experts: int) -> Tensor:
    """Fixed 1/D mixing used by the no-gate variant."""
    return Tensor(np.full((batch, num_experts), 1.0 / num_experts,
                          dtype=ad.get_default_dtype()))


_FUSE_ROWS = 128  # rows fused at a time, so one block of every branch stays in cache


def target_nll(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-sample -log probability of the (1-based) target item."""
    picked = probs[np.arange(len(targets)), targets - 1]
    return -np.log(picked.astype(np.float64) + EPS_FLOOR)


def fuse(logits_list: list[Tensor], gate_weights: Tensor,
         target_items) -> tuple[np.ndarray, np.ndarray]:
    """Off the tape: the mixture (batch, num_items) of the branch softmaxes
    under the gate weights, and each branch's target NLL (batch, E).

    Every branch's softmax, weighting and sum is done in place in row blocks,
    the mixture in the first branch's logits buffer, in the order of
    ``ad.softmax`` and ``ad.mix``, so the values are theirs bit for bit.
    """
    buffers = [logits.data for logits in logits_list]
    lengths = [buf.shape[-1] for buf in buffers]
    if len(set(lengths)) > 1:
        raise ShapeError(f"fuse: distribution lengths disagree: {lengths}")
    w = gate_weights.data
    if w.shape[-1] != len(buffers):
        raise ShapeError(f"fuse: {w.shape[-1]} gate columns for {len(buffers)} experts")
    targets = np.asarray(target_items, dtype=np.int64)
    branch_nll = np.empty(w.shape, dtype=np.float64)
    for start in range(0, len(w), _FUSE_ROWS):
        rows = slice(start, start + _FUSE_ROWS)
        mixture = buffers[0][rows]
        for e, buf in enumerate(buffers):
            probs = ad.softmax_values(buf[rows], out=buf[rows])
            branch_nll[rows, e] = target_nll(probs, targets[rows])
            probs *= w[rows, e, None]
            if e:
                mixture += probs
    return buffers[0], branch_nll


def moe_loss(gate_weights: Tensor, target_probs: np.ndarray) -> Tensor:
    """-mean log of the gated mixture at the target; target_probs (batch, E)
    holds each branch's probability of the target, as a constant."""
    mixed = ad.mix(gate_weights, target_probs)
    return ad.scale(ad.tmean(ad.tlog(ad.add(mixed, Tensor(EPS_FLOOR)))), -1.0)
