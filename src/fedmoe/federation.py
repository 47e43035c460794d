"""Federated round loop, server cache, and client updates.

The server is a pure cache: each round every client downloads the other
domains' latest encoder checkpoints, adapts them through its own
isolated embeddings/positions/head, trains for a fixed number of local
epochs, and uploads only its local encoder. Cache writes happen at the
round barrier in deterministic domain order, so client updates within a
round may run sequentially or on a thread pool with identical results.

The fusion loss reads each branch's target probability from its
cross-entropy as a constant, so the fusion op has no path to the experts.

Each training step builds one ``expert.BatchLayout`` of the stacked
original and augmented prefixes, and each evaluation chunk one of its
prefixes; every branch encodes the batch from that layout and its own
lookup table, so the prefix checks run once, before any compute, and the
packed rows, ids, biases and gather matrices are built once rather than
once per branch. A training step builds each branch's table on the tape;
evaluation builds them once per split. ``ClientState.mixture_weights`` is
the one place that picks the gate or uniform weights.

A training step holds one branch's activations at a time. Each branch, in
``ClientState.branches`` order, records its next-item and contrastive
losses on a tape of its own and runs backward on it before the next
branch starts; only its z and target probabilities outlive its tape. The
fusion loss then runs on a small gate tape; with uniform weights it
records nothing and gets no backward. The gradients, losses and random
draws are those of one backward over one tape of the whole total, bit
for bit: no parameter is shared between branches, the fusion loss reads
the probabilities as constants and the gate reads z behind a
stop-gradient, and dropout draws only in forward passes, which run in
the same order.

Variants: local-only training, FedAvg with a single shared encoder,
uniform (no-gate) fusion, unfrozen global encoders, expert removal, and
a two-phase schedule with exactly one synchronization. Every mode runs
the same round loop; ``config.MODE_POLICIES`` says what differs.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import logging

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor, backward
from .checkpoint import ExpertCheckpoint, check_layout, checkpoint_from_params, load_into_params
from .config import RunConfig
from .data import DomainDataset, ScenarioSpec, augment_batch
from .errors import ConfigError, EmptyDatasetError
from .evaluation import DomainMetrics, MetricsReport, compute_metrics, rank_target
from .expert import BatchLayout, BranchParams, encode_batch, encode_pair, init_branch
from .expert import contrastive_loss, init_encoder, lookup_table, pair_layout, rec_loss
from .moe import GateParams, fuse, gate_forward, init_gate, moe_loss, target_nll
from .moe import uniform_gate_weights
from .optim import Adam

logger = logging.getLogger(__name__)

# seed-stream tags so distinct purposes never share a stream
_TAG_INIT, _TAG_ROUND, _TAG_PRETRAIN, _TAG_SERVER = 11, 23, 37, 53


class ServerCache:
    """Domain id -> latest uploaded encoder checkpoint.

    An upload must have the entry names and shapes of the one held for its
    domain, and every value of every upload must be finite.
    """

    def __init__(self):
        self.checkpoints: dict[str, ExpertCheckpoint] = {}
        self.shared: ExpertCheckpoint | None = None  # fedavg baseline only
        self.round_index = 0
        self.upload_history: list[tuple[int, str, tuple[str, ...]]] = []

    def put(self, domain_id: str, ckpt: ExpertCheckpoint) -> None:
        """Store an upload; a malformed one raises ValueError and is not stored."""
        what = f"upload from domain {domain_id!r}"
        held = self.checkpoints.get(domain_id)
        if held is not None:
            check_layout(dict(ckpt.entries), {n: a.shape for n, a in held.entries}, what)
        for name, arr in ckpt.entries:
            if not np.isfinite(arr).all():
                raise ValueError(f"{what}: entry {name!r} has non-finite values")
        self.upload_history.append((self.round_index, domain_id, tuple(ckpt.names)))
        self.checkpoints[domain_id] = ckpt

    def snapshot(self) -> dict[str, ExpertCheckpoint]:
        # checkpoints are immutable, a shallow copy is a true snapshot
        return dict(self.checkpoints)

    def state_bytes(self) -> bytes:
        parts = [f"round={self.round_index}".encode()]
        for dom in sorted(self.checkpoints):
            parts.append(dom.encode())
            parts.append(self.checkpoints[dom].to_bytes())
        if self.shared is not None:
            parts.append(b"shared")
            parts.append(self.shared.to_bytes())
        return b"|".join(parts)


@dataclasses.dataclass
class ClientState:
    domain_id: str
    dataset: DomainDataset
    cfg: RunConfig
    local: BranchParams
    global_branches: dict[str, BranchParams]  # keyed by source domain, sorted
    gate: GateParams | None
    optimizer: Adam
    domain_index: int

    def branches(self) -> dict[str, BranchParams]:
        """Tag -> branch: "local" first, then the global branches by source
        domain in fixed id order."""
        return {"local": self.local,
                **{d: self.global_branches[d] for d in sorted(self.global_branches)}}

    def mixture_weights(self, z_list: list[Tensor]) -> Tensor:
        """Per-sample weights (batch, len(z_list)) over the branches: the
        gate's, or uniform for a client without a gate."""
        if self.gate is not None:
            return gate_forward(z_list, self.gate)
        return uniform_gate_weights(z_list[0].data.shape[0], len(z_list))

    def all_parameters(self) -> list[Parameter]:
        return list(self._named_parameters().values())

    def round_rng(self, tag: int, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.cfg.seed, self.domain_index, tag, index]))

    def local_encoder_checkpoint(self) -> ExpertCheckpoint:
        return checkpoint_from_params(self.local.encoder.parameters())

    def sync(self, snapshot: dict[str, ExpertCheckpoint]) -> None:
        """Download the other domains' encoders, all or nothing: every global
        branch's checkpoint must be present and fit before any encoder is
        written, so a failure leaves every encoder and the optimizer moments
        as they were. Frozen encoders stay frozen, as ``build_client`` set them."""
        for dom in self.global_branches:
            if dom not in snapshot:
                raise ConfigError(f"server cache is missing domain {dom!r}")
        encoders = {f"global.{dom}.{p.name}": p for dom, branch in self.global_branches.items()
                    for p in branch.encoder.parameters()}
        arrays = {f"global.{dom}.{name}": a for dom in self.global_branches
                  for name, a in snapshot[dom].entries}
        load_into_params(arrays, encoders, f"domain {self.domain_id!r}: download")
        self.optimizer.reset_state(encoders.values())

    def sync_shared(self, shared: ExpertCheckpoint) -> None:
        """FedAvg baseline: the local encoder is replaced by the shared one."""
        params = {p.name: p for p in self.local.encoder.parameters()}
        load_into_params(dict(shared.entries), params, f"domain {self.domain_id!r}: shared encoder")
        self.optimizer.reset_state(params.values())

    def snapshot_parameters(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._named_parameters().items()}

    def restore_parameters(self, state: dict[str, np.ndarray]) -> None:
        """Load a ``snapshot_parameters`` state. A state that does not fit
        raises ``ValueError`` naming the entry and changes nothing."""
        load_into_params(state, self._named_parameters(), f"domain {self.domain_id!r}: state")

    def _named_parameters(self) -> dict[str, Parameter]:
        """State name -> parameter: local, global branches by domain, gate."""
        named = {f"local.{p.name}": p for p in self.local.parameters()}
        for dom in sorted(self.global_branches):
            named.update({f"global.{dom}.{p.name}": p
                          for p in self.global_branches[dom].parameters()})
        if self.gate is not None:
            named.update({p.name: p for p in self.gate.parameters()})
        return named


def build_client(scenario: ScenarioSpec, domain_id: str, cfg: RunConfig) -> ClientState:
    ids = sorted(scenario.domain_ids)
    domain_index = ids.index(domain_id)
    dataset = next(d for d in scenario.domains if d.domain_id == domain_id)
    model_cfg = cfg.model_config()
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, domain_index, _TAG_INIT, 0]))

    policy = cfg.policy
    local = init_branch(rng, dataset.num_items, model_cfg)
    global_branches: dict[str, BranchParams] = {}
    if policy.global_branches:
        # dropping an expert removes it from every *other* domain's branch
        # set; the dropped domain itself keeps its full set
        dropped = cfg.drop_domain if policy.drops_domain else None
        for other in ids:
            if other in (domain_id, dropped):
                continue
            branch = init_branch(rng, dataset.num_items, model_cfg)
            branch.encoder.set_trainable(not policy.frozen)
            global_branches[other] = branch

    gate = (init_gate(1 + len(global_branches), cfg.width, cfg.gate_hidden_dim, rng)
            if policy.gate else None)
    client = ClientState(domain_id=domain_id, dataset=dataset, cfg=cfg,
                         local=local, global_branches=global_branches, gate=gate,
                         optimizer=None, domain_index=domain_index)
    client.optimizer = Adam(client.all_parameters(), lr=cfg.learning_rate,
                            beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                            eps=cfg.adam_eps)
    return client


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _branch_step(client: ClientState, branch: BranchParams, layout: BatchLayout,
                 targets: np.ndarray, rng: np.random.Generator | None, mixed: bool
                 ) -> tuple[np.ndarray, float, float, np.ndarray, np.ndarray | None]:
    """One branch's weighted next-item plus contrastive term, back-propagated
    on a tape of its own. Returns the term's value, its two losses, the
    batch's z and, for a mixed client, each row's target probability, all
    as arrays, so the branch's tape and activations die on return."""
    cfg = client.cfg
    with Tape() as tape:
        table = lookup_table(branch, client.dataset.adjacency)
        z, z_aug, logits = encode_pair(branch, table, layout, train=True, rng=rng)
        if mixed:
            rec, prob = rec_loss(logits, targets, return_prob=True)
        else:
            rec, prob = rec_loss(logits, targets), None
        con = contrastive_loss(z, z_aug, cfg.temperature)
        term = ad.add(ad.scale(rec, cfg.rec_weight), ad.scale(con, cfg.con_weight))
    backward(term, tape)
    return term.data, float(rec.data), float(con.data), z.data, prob


def client_losses(client: ClientState, prefixes: np.ndarray, aug_prefixes: np.ndarray,
                  targets: np.ndarray, rng: np.random.Generator | None,
                  local_only: bool = False) -> tuple[float, dict[str, float]]:
    """Back-propagate every branch objective and the fusion objective of one
    batch into the parameters' gradients; return the weighted total and its
    components.

    Components: next-item and contrastive losses for the local branch and
    each global branch, then the gated-mixture loss (2D + 1 terms for D
    visible experts). With local_only, or with no global branches, the
    local branch trains alone and nothing is fused. The batch's layout is
    built once, before any branch computes, and shared by every branch.

    Each branch runs forward and backward on its own tape, in branch order,
    before the next one starts, and hands on only its z and target
    probabilities; the fusion loss then runs on a gate tape of its own. The
    gradients are those of one backward over one tape of the whole total:
    no parameter is shared between branches, the fusion loss reads the
    probabilities as constants and the gate reads z behind a stop-gradient,
    and dropout draws only in forward passes, in the same branch order.
    """
    cfg = client.cfg
    branches = {"local": client.local} if local_only else client.branches()
    mixed = len(branches) > 1
    z_list, target_probs = [], []
    total = None
    components: dict[str, float] = {}
    layout = pair_layout(prefixes, aug_prefixes)

    for tag, branch in branches.items():
        term, rec, con, z, prob = _branch_step(client, branch, layout, targets, rng, mixed)
        components[f"rec:{tag}"] = rec
        components[f"con:{tag}"] = con
        total = term if total is None else total + term
        if mixed:
            z_list.append(Tensor(z))
            target_probs.append(prob)

    if mixed:
        with Tape() as tape:
            fused = moe_loss(client.mixture_weights(z_list), np.stack(target_probs, axis=1))
            weighted = ad.scale(fused, cfg.moe_weight)
        components["moe"] = float(fused.data)
        if client.gate is not None:  # uniform weights leave nothing to train
            backward(weighted, tape)
        total = total + weighted.data

    return float(total), components


def client_update(client: ClientState, snapshot: dict[str, ExpertCheckpoint] | None,
                  round_index: int, local_epochs: int | None = None,
                  local_only: bool = False, rng_tag: int = _TAG_ROUND) -> ExpertCheckpoint:
    """Synchronize, run the local epochs, and return the local encoder.

    Each minibatch is gathered from the training split by a permutation.
    A one-sample batch has no contrastive negatives, so its contrastive
    terms are zero; one warning per call counts such batches."""
    cfg = client.cfg
    if snapshot is not None and client.global_branches:
        client.sync(snapshot)
    rng = client.round_rng(rng_tag, round_index)
    train = client.dataset.train
    epochs = cfg.local_epochs if local_epochs is None else local_epochs
    single = 0

    for _ in range(epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            single += len(idx) == 1
            batch = train.prefixes(idx)
            aug = augment_batch(batch, cfg.shuffle_ratio, rng)
            client.optimizer.zero_grad()
            total, components = client_losses(client, batch, aug, train.targets[idx], rng,
                                              local_only=local_only)
            # checked before the step so a bad batch leaves the parameters intact
            if not np.isfinite(total):
                raise FloatingPointError(
                    f"non-finite loss in domain {client.domain_id}: {components}")
            client.optimizer.step()
    if single:
        logger.warning("domain %s round %d: contrastive loss skipped in %d one-sample "
                       "batch(es), which have no negatives", client.domain_id, round_index,
                       single)
    return client.local_encoder_checkpoint()


def fedavg_aggregate(checkpoints: list[ExpertCheckpoint]) -> ExpertCheckpoint:
    """Elementwise mean, taken in float64, across checkpoints with the first
    one's entry names, shapes and order."""
    if not checkpoints:
        raise ValueError("nothing to aggregate")
    names = checkpoints[0].names
    shapes = {n: a.shape for n, a in checkpoints[0].entries}
    for i, c in enumerate(checkpoints[1:], 1):
        check_layout(dict(c.entries), shapes, f"checkpoint {i} to aggregate")
        if c.names != names:
            raise ValueError(f"checkpoint {i} to aggregate lists its entries in another order")
    return ExpertCheckpoint([(n, np.mean([c.get(n) for c in checkpoints], axis=0, dtype=np.float64))
                             for n in names])


# ---------------------------------------------------------------------------
# evaluation over clients
# ---------------------------------------------------------------------------


def _client_scores(client: ClientState, prefixes: np.ndarray, targets: np.ndarray,
                   tables: list[Tensor]
                   ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Fused item distribution (batch, num_items), per-sample gate weights,
    and the target NLL under each branch alone (batch, num_branches); a
    single-branch client has neither gate weights nor branch NLLs.

    tables holds each branch's lookup table, in branch order, built once
    for all the chunks of a split; the chunk's layout is built once for
    every branch. Softmaxes overwrite the logits."""
    layout = BatchLayout(prefixes)
    z_list, logits_list = [], []
    for branch, table in zip(client.branches().values(), tables):
        z, logits = encode_batch(branch, table, layout)
        z_list.append(z)
        logits_list.append(logits)
    if not client.global_branches:
        probs = ad.softmax_values(logits.data, out=logits.data)
        return probs, None, None
    weights = client.mixture_weights(z_list)
    mixture, branch_nll = fuse(logits_list, weights, targets)
    return mixture, weights.data, branch_nll


def evaluate_client(client: ClientState, split: str) -> DomainMetrics:
    """Ranking metrics of the fused scores on "valid" or "test", gathered a
    chunk at a time, with the mean gate weights and the target NLL of the
    mixture and of each branch alone, so the gate's choice can be checked
    against the expert that is better."""
    cfg = client.cfg
    samples = client.dataset.eval_split(split)
    tables = [lookup_table(branch, client.dataset.adjacency)
              for branch in client.branches().values()]
    ranks = []
    gate_sum = None
    nll_sum = 0.0
    branch_nll_sum = 0.0
    for start in range(0, len(samples), cfg.eval_batch):
        chunk = samples.prefixes(slice(start, start + cfg.eval_batch))
        tgt = samples.targets[start:start + cfg.eval_batch]
        scores, gates, branch_nll = _client_scores(client, chunk, tgt, tables)
        for i in range(len(tgt)):
            exclude = set(int(x) for x in chunk[i] if x) if cfg.exclude_seen else None
            if exclude and int(tgt[i]) in exclude:
                exclude.discard(int(tgt[i]))
            ranks.append(rank_target(scores[i], int(tgt[i]), exclude))
        nll_sum += float(target_nll(scores, tgt).sum())
        if gates is not None:
            gate_sum = gates.sum(axis=0) if gate_sum is None else gate_sum + gates.sum(axis=0)
            branch_nll_sum = branch_nll_sum + branch_nll.sum(axis=0)
    count = len(samples)
    mrr, hr, ndcg = compute_metrics(ranks)
    gate_weights = tuple(float(x) for x in gate_sum / count) if gate_sum is not None else None
    branch_nll = (tuple(float(x) for x in branch_nll_sum / count)
                  if client.global_branches else None)
    return DomainMetrics(mrr, hr, ndcg, gate_weights, nll=nll_sum / count,
                         branch_nll=branch_nll)


def evaluate_all(clients: list[ClientState], split: str, round_index: int,
                 mode: str) -> MetricsReport:
    per_domain = {c.domain_id: evaluate_client(c, split)
                  for c in sorted(clients, key=lambda c: c.domain_id)}
    return MetricsReport(mode=mode, round_index=round_index,
                         per_domain=per_domain, split=split)


# ---------------------------------------------------------------------------
# round loop
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    mode: str
    history: list[MetricsReport]
    final_test: MetricsReport
    best_round: int
    cache: ServerCache
    clients: list[ClientState]


def _run_updates(clients, snapshot, round_index, cfg):
    if cfg.parallel_clients:
        with concurrent.futures.ThreadPoolExecutor(max_workers=len(clients)) as pool:
            futures = {c.domain_id: pool.submit(client_update, c, snapshot, round_index)
                       for c in clients}
            return {dom: fut.result() for dom, fut in futures.items()}
    return {c.domain_id: client_update(c, snapshot, round_index) for c in clients}


def _seed_cache(clients: list[ClientState], cfg: RunConfig) -> ServerCache:
    """The server cache before round 0.

    FedAvg starts from a server-initialized shared encoder. The two-phase
    schedule trains every local branch alone, uploads it at round 0 and
    synchronizes once. Every other mode seeds the cache with the initial
    encoders at round -1.
    """
    cache = ServerCache()
    sync = cfg.policy.sync
    if sync == "shared":
        server_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _TAG_SERVER]))
        cache.shared = checkpoint_from_params(
            init_encoder(server_rng, cfg.model_config()).parameters())
    elif sync == "once":
        for c in clients:
            if cfg.pretrain_epochs:
                client_update(c, None, 0, local_epochs=cfg.pretrain_epochs,
                              local_only=True, rng_tag=_TAG_PRETRAIN)
            cache.put(c.domain_id, c.local_encoder_checkpoint())
        snapshot = cache.snapshot()
        for c in clients:
            c.sync(snapshot)
    else:
        cache.round_index = -1
        for c in clients:
            cache.put(c.domain_id, c.local_encoder_checkpoint())
    return cache


def run(scenario: ScenarioSpec, cfg: RunConfig) -> RunResult:
    """Train under the configured mode and return history plus the test
    report at the best validation round (early stopping on average
    validation MRR)."""
    cfg.validate()
    policy = cfg.policy
    if policy.drops_domain and cfg.drop_domain not in scenario.domain_ids:
        raise ConfigError(f"drop_domain {cfg.drop_domain!r} is not in the scenario")
    # every domain is evaluated on valid each round and on test at the end
    empty = [f"domain {d.domain_id!r} has an empty {split} split" for d in scenario.domains
             for split in ("valid", "test") if not len(getattr(d, split))]
    if empty:
        raise EmptyDatasetError("; ".join(empty))
    with ad.default_dtype(cfg.dtype):
        clients = [build_client(scenario, d, cfg) for d in sorted(scenario.domain_ids)]
        cache = _seed_cache(clients, cfg)
        history: list[MetricsReport] = []
        best_mrr, best_round, stale = -np.inf, -1, 0
        best_states = None
        for t in range(cfg.rounds):
            if policy.sync != "once":
                cache.round_index = t
            if policy.sync == "shared":
                for c in clients:
                    c.sync_shared(cache.shared)
            snapshot = cache.snapshot() if policy.sync == "round" else None
            updates = _run_updates(clients, snapshot, t, cfg)
            if policy.sync in ("round", "shared"):
                for dom in sorted(updates):
                    cache.put(dom, updates[dom])
            if policy.sync == "shared":
                cache.shared = fedavg_aggregate([updates[d] for d in sorted(updates)])

            report = evaluate_all(clients, "valid", t, cfg.mode)
            history.append(report)
            logger.info("round %d [%s] avg valid MRR %.3f", t, cfg.mode, report.avg.mrr)
            if report.avg.mrr > best_mrr:
                best_mrr, best_round, stale = report.avg.mrr, t, 0
                best_states = [c.snapshot_parameters() for c in clients]
            else:
                stale += 1
                if stale >= cfg.patience > 0:
                    logger.info("early stop after round %d (no improvement for %d rounds)",
                                t, stale)
                    break
        if best_states is not None:
            for client, state in zip(clients, best_states):
                client.restore_parameters(state)
        final = evaluate_all(clients, "test", best_round, cfg.mode)
    return RunResult(cfg.mode, history, final, best_round, cache, clients)
