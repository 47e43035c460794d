"""Per-domain sequence expert.

A branch bundles everything one expert needs inside a domain: item and
position embeddings, the causal self-attention encoder stack, and the
prediction head. The local branch is fully trainable; a global branch
carries a frozen encoder synchronized from another domain while its
embeddings, positions and head stay local and trainable.

Token inputs mix the raw item embedding with a graph-propagated view of
the embedding table (row-normalized next-item transitions), then add a
position encoding indexed by the item's offset inside the sequence.
Architecture defaults: pre-normalization blocks, GELU activation.

Prefixes are left-padded, and at training time most positions are
padding (every prefix of a history is a sample). The encoder therefore
works on a packed (n_real, width) matrix of the real positions, in
row-major order: the gathers, layer norms, projections, feed-forward and
residual adds never touch padding. Padding needs no compute: the
attention bias gives every padding key a weight of exactly zero, so no
real position reads a padding state, and padding states are blank in the
output. Only attention returns to the (batch, t_max) layout, with zeros
at padding, and what its padding queries compute is dropped when the
context is packed back.

Every objective reads only the final-position representation z, so
encode_batch and encode_pair run the last block for each row's final
query alone, and earlier blocks at all real positions. That block never
forms keys or values: by associativity the final query's score of
position j is q.(h_j W_k) = (q W_k^T).h_j and its context is
(sum_j a_j h_j) W_v, so one vector per head scores the normed states h
and the attention weights pool h before the value projection.

Dropout masks are still drawn at the all-position shape, padding and
non-final rows included, and only the rows of computed positions
applied: drawing fewer numbers would shift the random stream, and every
augmentation and mask drawn after it, like a re-seed.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor

logger = logging.getLogger(__name__)

INIT_STD = 0.02


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    width: int = 64          # representation dimension
    blocks: int = 2          # self-attention blocks
    heads: int = 1
    ff_mult: int = 4         # feed-forward width multiplier
    gnn_depth: int = 2       # graph propagation steps
    t_max: int = 16          # sequence window
    dropout: float = 0.3     # attention weights and feed-forward activations
    temperature: float = 1.0  # contrastive similarity scale


@dataclasses.dataclass
class EncoderBlock:
    norm1_gain: Parameter
    norm1_bias: Parameter
    attn_q: Parameter
    attn_k: Parameter
    attn_v: Parameter
    attn_out: Parameter
    norm2_gain: Parameter
    norm2_bias: Parameter
    ff_in: Parameter
    ff_in_bias: Parameter
    ff_out: Parameter
    ff_out_bias: Parameter

    def parameters(self):
        return [self.norm1_gain, self.norm1_bias, self.attn_q, self.attn_k,
                self.attn_v, self.attn_out, self.norm2_gain, self.norm2_bias,
                self.ff_in, self.ff_in_bias, self.ff_out, self.ff_out_bias]


@dataclasses.dataclass
class ExpertEncoderParams:
    """Exactly the parameter set exchanged through the server cache."""

    blocks: list[EncoderBlock]
    heads: int
    width: int

    def parameters(self) -> list[Parameter]:
        return [p for b in self.blocks for p in b.parameters()]

    def set_trainable(self, flag: bool) -> None:
        for p in self.parameters():
            p.trainable = flag


@dataclasses.dataclass
class BranchParams:
    item_embeddings: Parameter      # (num_items + 1, d), row 0 pinned at zero
    position_embeddings: Parameter  # (t_max, d)
    encoder: ExpertEncoderParams
    head_hidden: Parameter          # (d, d)
    head_hidden_bias: Parameter
    head_out: Parameter             # (d, num_items)
    head_out_bias: Parameter
    cfg: ModelConfig

    def parameters(self) -> list[Parameter]:
        return ([self.item_embeddings, self.position_embeddings]
                + self.encoder.parameters()
                + [self.head_hidden, self.head_hidden_bias,
                   self.head_out, self.head_out_bias])

    def adapter_parameters(self) -> list[Parameter]:
        """Everything except the encoder: the domain-side isolation set."""
        return [p for p in self.parameters() if p not in self.encoder.parameters()]


@dataclasses.dataclass
class EncodedSequence:
    z: Tensor  # final-position representation, shape (d,)
    o: Tensor  # next-item logits, shape (num_items,)


def init_encoder(rng: np.random.Generator, cfg: ModelConfig) -> ExpertEncoderParams:
    d, f = cfg.width, cfg.width * cfg.ff_mult
    if d % cfg.heads:
        raise ValueError(f"width {d} not divisible by {cfg.heads} heads")

    def w(name, shape):
        return Parameter(rng.normal(0.0, INIT_STD, shape), name)

    blocks = []
    for i in range(cfg.blocks):
        n = f"block{i}."
        blocks.append(EncoderBlock(
            norm1_gain=Parameter(np.ones(d), n + "norm1_gain"),
            norm1_bias=Parameter(np.zeros(d), n + "norm1_bias"),
            attn_q=w(n + "attn_q", (d, d)),
            attn_k=w(n + "attn_k", (d, d)),
            attn_v=w(n + "attn_v", (d, d)),
            attn_out=w(n + "attn_out", (d, d)),
            norm2_gain=Parameter(np.ones(d), n + "norm2_gain"),
            norm2_bias=Parameter(np.zeros(d), n + "norm2_bias"),
            ff_in=w(n + "ff_in", (d, f)),
            ff_in_bias=Parameter(np.zeros(f), n + "ff_in_bias"),
            ff_out=w(n + "ff_out", (f, d)),
            ff_out_bias=Parameter(np.zeros(d), n + "ff_out_bias"),
        ))
    return ExpertEncoderParams(blocks, cfg.heads, d)


def init_branch(rng: np.random.Generator, num_items: int, cfg: ModelConfig) -> BranchParams:
    d = cfg.width
    emb = rng.normal(0.0, INIT_STD, (num_items + 1, d))
    emb[0] = 0.0
    return BranchParams(
        item_embeddings=Parameter(emb, "item_embeddings"),
        position_embeddings=Parameter(rng.normal(0.0, INIT_STD, (cfg.t_max, d)),
                                      "position_embeddings"),
        encoder=init_encoder(rng, cfg),
        head_hidden=Parameter(rng.normal(0.0, INIT_STD, (d, d)), "head.hidden"),
        head_hidden_bias=Parameter(np.zeros(d), "head.hidden_bias"),
        head_out=Parameter(rng.normal(0.0, INIT_STD, (d, num_items)), "head.out"),
        head_out_bias=Parameter(np.zeros(num_items), "head.out_bias"),
        cfg=cfg,
    )


def gnn_propagate(norm_adjacency, item_embeddings, depth: int) -> Tensor:
    """depth applications of the normalized transition matrix."""
    if depth < 0:
        raise ValueError("gnn depth must be >= 0")
    s = ad.as_tensor(item_embeddings)
    for _ in range(depth):
        s = ad.sparse_matmul(norm_adjacency, s)
    return s


def lookup_table(branch: BranchParams, norm_adjacency) -> Tensor:
    """Item representation table: raw embeddings plus their propagated view."""
    emb = branch.item_embeddings.tensor
    return ad.add(emb, gnn_propagate(norm_adjacency, emb, branch.cfg.gnn_depth))


def _attention_bias(prefixes: np.ndarray, dtype, rows: int) -> np.ndarray:
    """(batch, 1, rows, T) additive mask for the last `rows` query positions:
    forbids future positions and padding keys."""
    b, t = prefixes.shape
    causal = np.tril(np.ones((t, t), dtype=bool))[t - rows:]
    key_ok = (prefixes != 0)[:, None, :]            # (b, 1, t)
    allowed = causal[None, :, :] & key_ok           # (b, rows, t)
    bias = np.where(allowed, 0.0, -1e9).astype(dtype)
    return bias[:, None, :, :]


def _forward_states(branch: BranchParams, norm_adjacency, prefixes: np.ndarray,
                    train: bool = False, rng: np.random.Generator | None = None,
                    table: Tensor | None = None, final_only: bool = False) -> Tensor:
    """Encoder states (batch, t_max, width) at every position, zero at
    padding, or (batch, width) at the final position alone when final_only
    is set.

    Position-wise work runs packed: the real positions of the left-padded
    prefixes, in row-major order, are the rows of one (n_real, width)
    matrix. The item and position gathers, every layer norm, the Q/K/V and
    output projections, the feed-forward and the residual adds see only
    those rows. Attention alone returns to the (batch, t_max) layout: q, k
    and v are placed there with zeros at padding, and the context is packed
    back, dropping what the padding queries computed. Padding needs no
    other compute: the attention bias gives every padding key a weight of
    exactly zero, so no real position reads one, and padding states are
    blank in the output.

    With final_only the last block attends from the final query alone and
    never forms its keys and values. By associativity the score of key j
    is q.(h_j W_k) = (q W_k^T).h_j, so one vector r = q_h W_k,h^T per
    head scores the normed states h directly; the attention weights then
    pool h, and one product (sum_j a_j h_j) W_v,h per head gives the
    context. The output projection, second norm and feed-forward also run
    at the final position; every earlier block covers all real positions.

    Dropout masks are drawn at the all-position (batch, t_max, ...) shape
    and only the rows of computed positions applied (draw_shape and rows),
    so the rng advances exactly as in a pass over every position and later
    draws do not shift.
    """
    cfg = branch.cfg
    b, t = prefixes.shape
    real = prefixes != 0
    empty = ~real.any(axis=1)
    if empty.any():
        raise ValueError(f"encode: a prefix contains no items (row {int(np.argmax(empty))})")
    gaps = (real[:, :-1] & ~real[:, 1:]).any(axis=1)
    if gaps.any():
        raise ValueError(f"encode: prefix row {int(np.argmax(gaps))} is not left-padded "
                         f"(padding follows an item)")
    if train and cfg.dropout > 0.0 and rng is None:
        raise ValueError("train-mode encode needs an rng for dropout")
    if table is None:
        table = lookup_table(branch, norm_adjacency)

    vi = np.flatnonzero(real)               # packed rows: real positions, row-major
    last = np.cumsum(real.sum(axis=1)) - 1  # each row's final packed row
    pos_idx = (np.cumsum(real, axis=1) - 1).ravel()[vi]
    x = ad.add(ad.gather_rows(table, prefixes.ravel()[vi]),
               ad.gather_rows(branch.position_embeddings.tensor, pos_idx))

    heads = cfg.heads
    dh = cfg.width // heads
    dtype = x.data.dtype
    drop_rng = rng if train and cfg.dropout > 0.0 else None
    blocks = branch.encoder.blocks
    full_blocks = len(blocks) - 1 if final_only else len(blocks)
    if full_blocks:
        bias = Tensor(_attention_bias(prefixes, dtype, t))
    rows = vi  # flat (batch * t_max) positions of x's rows
    for i, block in enumerate(blocks):
        h = ad.layer_norm(x, block.norm1_gain.tensor, block.norm1_bias.tensor)
        if i < full_blocks:
            x = ad.add(x, _attend_all(block, h, vi, bias, heads, dh, drop_rng, cfg.dropout))
        else:
            x = ad.add(ad.take_rows(x, last),
                       _attend_final(block, h, vi, last, _attention_bias(prefixes, dtype, 1),
                                     heads, dh, drop_rng, cfg.dropout))
            rows = vi[last]

        h2 = ad.layer_norm(x, block.norm2_gain.tensor, block.norm2_bias.tensor)
        f = ad.gelu(ad.add(ad.matmul(h2, block.ff_in.tensor), block.ff_in_bias.tensor))
        if drop_rng is not None:
            f = ad.dropout(f, cfg.dropout, drop_rng, draw_shape=(b * t, f.data.shape[-1]),
                           rows=rows)
        x = ad.add(x, ad.add(ad.matmul(f, block.ff_out.tensor), block.ff_out_bias.tensor))
    return x if final_only else ad.scatter_rows(x, vi, (b, t))


def _attend_all(block: EncoderBlock, h: Tensor, vi: np.ndarray, bias: Tensor, heads: int,
                dh: int, rng: np.random.Generator | None, p: float) -> Tensor:
    """Causal self-attention output (n_real, d) at every packed row of h.

    The projections run on the packed rows; q, k and v are placed at
    their positions vi of the (batch, t) layout for the attention itself,
    and the context is packed back before the output projection.
    """
    b, _, _, t = bias.data.shape
    d = h.data.shape[-1]
    q, k, v = (_split_heads(ad.scatter_rows(ad.matmul(h, w.tensor), vi, (b, t)), heads, dh)
               for w in (block.attn_q, block.attn_k, block.attn_v))
    scores = ad.add(ad.scale(ad.matmul(q, ad.swapaxes(k, -1, -2)), dh ** -0.5), bias)
    attn = ad.softmax(scores, axis=-1)
    if rng is not None:
        attn = ad.dropout(attn, p, rng)
    ctx = ad.take_rows(_merge_heads(ad.matmul(attn, v), b, t, d), vi)
    return ad.matmul(ctx, block.attn_out.tensor)


def _attend_final(block: EncoderBlock, h: Tensor, vi: np.ndarray, last: np.ndarray,
                  bias: np.ndarray, heads: int, dh: int,
                  rng: np.random.Generator | None, p: float) -> Tensor:
    """Attention output (batch, d) of each row's final query over the
    packed normed states h (n_real, d), without forming keys or values.

    The states are placed in the (batch, t, d) layout with zeros at
    padding; the bias gives those keys zero weight. The per-head weight
    products put the heads on the batch axis, (heads, batch, dh) x
    (heads, dh, d), so each weight gradient is one batched product with
    nothing to sum over the batch. Scores are laid out (batch, t, heads),
    so the gradient with respect to the states comes out in their own
    layout; a (batch, d, t) gradient transposed back was several times
    slower to accumulate.
    """
    b, t = len(last), bias.shape[-1]
    d = h.data.shape[-1]
    hs = ad.scatter_rows(h, vi, (b, t))                                 # (b, t, d)
    q = ad.matmul(ad.take_rows(h, last), block.attn_q.tensor)           # (b, d)
    q = ad.swapaxes(ad.reshape(q, (b, heads, dh)), 0, 1)                # (H, b, dh)
    k_t = ad.reshape(ad.swapaxes(block.attn_k.tensor, 0, 1), (heads, dh, d))  # (H, dh, d)
    r = ad.swapaxes(ad.swapaxes(ad.matmul(q, k_t), 0, 1), 1, 2)         # (b, d, H)
    scores = ad.add(ad.scale(ad.matmul(hs, r), dh ** -0.5),
                    Tensor(bias[:, 0, 0, :, None]))                     # (b, t, H)
    attn = ad.swapaxes(ad.softmax(scores, axis=1), 1, 2)                # (b, H, t)
    if rng is not None:
        attn = ad.reshape(ad.dropout(ad.reshape(attn, (b, heads, 1, t)), p, rng,
                                     draw_shape=(b, heads, t, t)), (b, heads, t))
    pooled = ad.swapaxes(ad.matmul(attn, hs), 0, 1)                    # (H, b, d)
    v = ad.swapaxes(ad.reshape(block.attn_v.tensor, (d, heads, dh)), 0, 1)  # (H, d, dh)
    ctx = ad.reshape(ad.swapaxes(ad.matmul(pooled, v), 0, 1), (b, d))
    return ad.matmul(ctx, block.attn_out.tensor)


def encode_batch(branch: BranchParams, norm_adjacency, prefixes: np.ndarray,
                 train: bool = False, rng: np.random.Generator | None = None,
                 table: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Run a left-padded (batch, t_max) prefix matrix through the branch.

    Returns (z, logits) with z the representation at the last position
    and logits over the domain catalog (index i is item i + 1).
    """
    z = _forward_states(branch, norm_adjacency, prefixes, train, rng, table, final_only=True)
    hidden = ad.gelu(ad.add(ad.matmul(z, branch.head_hidden.tensor),
                            branch.head_hidden_bias.tensor))
    logits = ad.add(ad.matmul(hidden, branch.head_out.tensor), branch.head_out_bias.tensor)
    return z, logits


def _split_heads(x: Tensor, heads: int, dh: int) -> Tensor:
    b, t, _ = x.data.shape
    return ad.swapaxes(ad.reshape(x, (b, t, heads, dh)), 1, 2)


def _merge_heads(x: Tensor, b: int, t: int, d: int) -> Tensor:
    return ad.reshape(ad.swapaxes(x, 1, 2), (b, t, d))


def encode_pair(branch: BranchParams, norm_adjacency, prefixes: np.ndarray,
                aug_prefixes: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None,
                table: Tensor | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Original and augmented views in one stacked pass.

    Returns (z, z_aug, logits); the head runs on the original half only.
    """
    b = prefixes.shape[0]
    stacked = np.concatenate([prefixes, aug_prefixes], axis=0)
    z_all = _forward_states(branch, norm_adjacency, stacked, train, rng, table, final_only=True)
    z = ad.slice_rows(z_all, 0, b)
    z_aug = ad.slice_rows(z_all, b, 2 * b)
    hidden = ad.gelu(ad.add(ad.matmul(z, branch.head_hidden.tensor),
                            branch.head_hidden_bias.tensor))
    logits = ad.add(ad.matmul(hidden, branch.head_out.tensor), branch.head_out_bias.tensor)
    return z, z_aug, logits


def encode(prefix: np.ndarray, branch: BranchParams, norm_adjacency,
           train: bool = False, rng: np.random.Generator | None = None) -> EncodedSequence:
    """Single-sample convenience wrapper around encode_batch."""
    prefix = np.asarray(prefix, dtype=np.int64)
    z, logits = encode_batch(branch, norm_adjacency, prefix[None, :], train=train, rng=rng)
    z = ad.reshape(z, (branch.cfg.width,))
    logits = ad.reshape(logits, (logits.data.shape[-1],))
    if not (np.isfinite(z.data).all() and np.isfinite(logits.data).all()):
        raise FloatingPointError("encode produced non-finite values")
    return EncodedSequence(z=z, o=logits)


def rec_loss(logits: Tensor, target_items) -> Tensor:
    """Next-item cross entropy; targets are item ids (1-based)."""
    targets = np.asarray(target_items, dtype=np.int64) - 1
    return ad.cross_entropy(logits, targets if targets.ndim else int(targets))


def contrastive_loss(z: Tensor, z_aug: Tensor, temperature: float = 1.0) -> Tensor:
    """Symmetric in-batch InfoNCE between original and augmented views.

    Similarities are dot products over the batch; each sample's positive
    is its own augmented view, every other pair is a negative. A batch
    of one has no negatives and contributes zero.
    """
    b = z.data.shape[0]
    if b < 2:
        logger.warning("contrastive loss skipped: batch of %d has no negatives", b)
        return Tensor(np.zeros((), dtype=z.data.dtype))
    sim = ad.scale(ad.matmul(z, ad.swapaxes(z_aug, 0, 1)), 1.0 / temperature)
    labels = np.arange(b)
    forward = ad.cross_entropy(sim, labels)
    reverse = ad.cross_entropy(ad.swapaxes(sim, 0, 1), labels)
    return ad.scale(ad.add(forward, reverse), 0.5)
