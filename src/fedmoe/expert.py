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
residual adds never touch padding. The attention bias gives every padding
key a weight of exactly zero, so no real position reads a padding state.

What depends on the batch alone is its BatchLayout: the prefix checks,
the packed rows, the item and position ids, the attention biases and the
gathers' one-hot backward matrices. A caller builds it once per batch,
and every branch that encodes the batch reads it along with the branch's
own lookup table.

Every objective reads only the final-position representation z, so the
encoder has one output, z, and runs the last block for each row's final
query alone. Each block's attention and feed-forward are layer-level tape
ops, one node each, bit-identical to the op chains they replace:
ad.self_attention attends at every real position of an earlier block in
the padded (batch, t_max) layout and packs its output back;
ad.final_attention attends from each row's final query alone and never
forms keys or values (one vector per head scores the normed states, and
the weights pool them before the value projection), so padding never
enters its gradient; ad.feed_forward runs every block's feed-forward and
the prediction head.

Each dropout mask is drawn at the shape of the activation it is applied
to, so no number is drawn for a position that is not computed: the
feed-forward masks cover the packed rows their block computes, and the
final query's attention mask covers its (batch, heads, t) weights.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor

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
    return ExpertEncoderParams(blocks)


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


class BatchLayout:
    """What the encoder reads of one left-padded (batch, t_max) prefix
    matrix, built once per batch and shared by every branch that encodes it.

    Construction checks the prefixes, so a malformed batch fails before any
    compute. vi holds the packed rows (the real positions, row-major), last
    each row's final packed row, and items and positions the item and
    position ids of the packed rows. The attention biases, per dtype, and
    the one-hot matrices of the two gathers' backward, in item_onehots and
    position_onehots, are built on first use.
    """

    def __init__(self, prefixes: np.ndarray):
        real = prefixes != 0
        empty = ~real.any(axis=1)
        if empty.any():
            raise ValueError(f"encode: a prefix contains no items (row {int(np.argmax(empty))})")
        gaps = (real[:, :-1] & ~real[:, 1:]).any(axis=1)
        if gaps.any():
            raise ValueError(f"encode: prefix row {int(np.argmax(gaps))} is not left-padded "
                             f"(padding follows an item)")
        self.prefixes = prefixes
        self.vi = np.flatnonzero(real)
        self.last = np.cumsum(real.sum(axis=1)) - 1
        self.items = prefixes.ravel()[self.vi]
        self.positions = (np.cumsum(real, axis=1) - 1).ravel()[self.vi]
        self.item_onehots: dict = {}
        self.position_onehots: dict = {}
        self._biases: dict = {}

    def attention_bias(self, dtype, final: bool = False) -> np.ndarray:
        """The additive mask of every query, (batch, 1, t, t), or with final
        of each row's final query alone, (batch, t, 1)."""
        key = (np.dtype(dtype), final)
        if key not in self._biases:
            t = self.prefixes.shape[1]
            self._biases[key] = (_attention_bias(self.prefixes, dtype, 1)[:, 0, 0, :, None]
                                 if final else _attention_bias(self.prefixes, dtype, t))
        return self._biases[key]


def pair_layout(prefixes: np.ndarray, aug_prefixes: np.ndarray) -> BatchLayout:
    """The layout encode_pair reads: original rows, then augmented rows."""
    return BatchLayout(np.concatenate([prefixes, aug_prefixes], axis=0))


def _encode(branch: BranchParams, table: Tensor, layout: BatchLayout, train: bool,
            rng: np.random.Generator | None) -> Tensor:
    """Final-position representations z (batch, width) of the batch whose
    layout is given, with table the branch's lookup_table.

    Position-wise work runs on the packed rows: the item and position
    gathers, every layer norm, the feed-forward and the residual adds. Every
    block but the last attends at all real positions (ad.self_attention);
    the last block attends from each row's final query alone
    (ad.final_attention), and its residual, second norm and feed-forward
    run at the final position only. ad.feed_forward is each block's
    feed-forward.

    Dropout draws exactly the elements it applies, in call order from the
    one rng: an earlier block masks its (batch, heads, t, t) attention
    weights and its (n_real, ff) feed-forward rows, in row-major order;
    the last block masks its (batch, heads, t) weights and (batch, ff) rows.
    """
    cfg = branch.cfg
    if train and cfg.dropout > 0.0 and rng is None:
        raise ValueError("train-mode encode needs an rng for dropout")
    x = ad.add(ad.gather_rows(table, layout.items, layout.item_onehots),
               ad.gather_rows(branch.position_embeddings.tensor, layout.positions,
                              layout.position_onehots))

    heads, p = cfg.heads, cfg.dropout
    scale = (cfg.width // heads) ** -0.5
    drop_rng = rng if train and p > 0.0 else None
    blocks = branch.encoder.blocks
    for i, block in enumerate(blocks):
        h = ad.layer_norm(x, block.norm1_gain.tensor, block.norm1_bias.tensor)
        w = (block.attn_q.tensor, block.attn_k.tensor, block.attn_v.tensor,
             block.attn_out.tensor)
        if i < len(blocks) - 1:
            bias = layout.attention_bias(h.data.dtype)
            x = ad.add(x, ad.self_attention(h, *w, layout.vi, bias, heads, scale, p, drop_rng))
        else:
            bias = layout.attention_bias(h.data.dtype, final=True)
            x = ad.add(ad.take_rows(x, layout.last),
                       ad.final_attention(h, *w, layout.vi, layout.last, bias, heads, scale, p,
                                          drop_rng))
        h2 = ad.layer_norm(x, block.norm2_gain.tensor, block.norm2_bias.tensor)
        x = ad.add(x, ad.feed_forward(h2, block.ff_in.tensor, block.ff_in_bias.tensor,
                                      block.ff_out.tensor, block.ff_out_bias.tensor, p, drop_rng))
    return x


def encode_batch(branch: BranchParams, table: Tensor, layout: BatchLayout, train: bool = False,
                 rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
    """Encode the batch of layout with the branch and its lookup table.

    Returns (z, logits) with z the representation at the last position
    and logits over the domain catalog (index i is item i + 1).
    """
    z = _encode(branch, table, layout, train, rng)
    return z, _head(branch, z)


def _head(branch: BranchParams, z: Tensor) -> Tensor:
    """Next-item logits (batch, num_items) from final-position representations."""
    return ad.feed_forward(z, branch.head_hidden.tensor, branch.head_hidden_bias.tensor,
                           branch.head_out.tensor, branch.head_out_bias.tensor)


def encode_pair(branch: BranchParams, table: Tensor, layout: BatchLayout, train: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Original and augmented views in one stacked pass over
    layout = pair_layout(prefixes, aug_prefixes): the first half of its
    rows are the originals.

    Returns (z, z_aug, logits); the head runs on the original half only.
    """
    b = len(layout.last) // 2
    z_all = _encode(branch, table, layout, train, rng)
    z = ad.slice_rows(z_all, 0, b)
    z_aug = ad.slice_rows(z_all, b, 2 * b)
    return z, z_aug, _head(branch, z)


def rec_loss(logits: Tensor, target_items, return_prob: bool = False):
    """Next-item cross entropy; targets are item ids (1-based). With
    return_prob, also each row's softmax probability of its target."""
    targets = np.asarray(target_items, dtype=np.int64) - 1
    return ad.cross_entropy(logits, targets if targets.ndim else int(targets), return_prob)


def contrastive_loss(z: Tensor, z_aug: Tensor, temperature: float = 1.0) -> Tensor:
    """Symmetric in-batch InfoNCE between original and augmented views.

    Similarities are dot products over the batch; each sample's positive
    is its own augmented view, every other pair is a negative. A batch
    of one has no negatives and contributes zero; client_update reports
    how many such batches a round had.
    """
    b = z.data.shape[0]
    if b < 2:
        return Tensor(np.zeros((), dtype=z.data.dtype))
    sim = ad.scale(ad.matmul(z, ad.swapaxes(z_aug, 0, 1)), 1.0 / temperature)
    labels = np.arange(b)
    forward = ad.cross_entropy(sim, labels)
    reverse = ad.cross_entropy(ad.swapaxes(sim, 0, 1), labels)
    return ad.scale(ad.add(forward, reverse), 0.5)
