"""Benchmark workloads: scenario and config, set-up, the timed part, and checks.

A unit is one set-up followed by one timed part. Training units time one
``federation.run``; the evaluation unit times one pass of
``federation.evaluate_all`` over valid and then test, as ``fedmoe eval``
does after restoring states. Everything runs in one process, one call after
another, with clients updated one after another.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import time

import numpy as np

from fedmoe import autodiff as ad
from fedmoe import data, federation
from fedmoe.checkpoint import ExpertCheckpoint
from fedmoe.config import RunConfig
from fedmoe.data import SyntheticSpec

# the desk-scale configuration of the acceptance suite, clients run in turn
DESK_MODEL = dict(local_epochs=1, patience=5, batch_size=256, learning_rate=0.003,
                  width=24, blocks=1, heads=1, ff_mult=2, gnn_depth=1, dropout=0.1,
                  t_max=16, parallel_clients=False)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str     # "train" or "eval"
    spec: dict    # SyntheticSpec fields except the seed
    config: dict  # RunConfig fields except the seed
    exercised: tuple[str, ...]  # spans the traced run must record
    bypassed: tuple[str, ...]   # spans the traced run must not record

    def scenario_spec(self, seed: int) -> SyntheticSpec:
        return SyntheticSpec(seed=seed, **self.spec)

    def run_config(self, seed: int) -> RunConfig:
        return RunConfig(seed=seed, **self.config)


def _spec(items: int, users: int) -> dict:
    return dict(num_domains=3, items_per_domain=items, users_per_domain=users,
                min_len=10, max_len=16, num_clusters=8, correlation=1.0)


WORKLOADS = {w.name: w for w in (
    Workload("desk_fmoe", "train", _spec(200, 500), dict(DESK_MODEL, mode="fmoe", rounds=2),
             exercised=("autodiff.backward", "moe.gate_forward", "federation.sync",
                        "optim.adam_step", "evaluation.rank_target"),
             bypassed=("federation.fedavg_aggregate",)),
    # RunConfig's default model; 60 items and 150 users keep the filtered
    # catalog and training set the same size from seed to seed, and batches
    # of 32 take enough Adam steps in one round to beat random ranking
    Workload("wide_fedavg", "train", _spec(60, 150),
             dict(mode="fedavg", rounds=1, local_epochs=2, batch_size=32,
                  learning_rate=0.003, patience=0),
             exercised=("autodiff.backward", "federation.fedavg_aggregate",
                        "optim.adam_step", "evaluation.rank_target"),
             bypassed=("moe.gate_forward", "moe.fuse", "moe.moe_loss", "federation.sync")),
    # without the rarity filter every seed keeps the full 1000-item catalogs
    Workload("eval_catalog", "eval", _spec(1000, 2000),
             dict(DESK_MODEL, mode="fmoe", apply_filters=False),
             exercised=("expert.encode_batch", "moe.gate_forward", "moe.fuse",
                        "evaluation.rank_target"),
             bypassed=("autodiff.backward", "optim.adam_step", "expert.encode_pair")),
)}

def _dtype(cfg: RunConfig):
    return np.float64 if cfg.precision == "float64" else np.float32


@dataclasses.dataclass
class Setup:
    scenario: object
    cfg: RunConfig
    clients: list
    cache: federation.ServerCache | None
    seconds: float


def set_up(w: Workload, seed: int) -> Setup:
    """Generate the scenario and build the clients.

    For evaluation the cache is seeded with the initial encoders and every
    client synced, as ``fedmoe eval`` does before it restores states.
    Training builds its clients here only to time them: ``federation.run``
    builds its own.
    """
    t0 = time.perf_counter()
    cfg = w.run_config(seed)
    scenario = data.generate_synthetic(w.scenario_spec(seed), cfg.data_config())
    cache = None
    with ad.default_dtype(_dtype(cfg)):
        clients = [federation.build_client(scenario, d, cfg)
                   for d in sorted(scenario.domain_ids)]
        if w.kind == "eval":
            cache = federation.ServerCache()
            cache.round_index = -1
            for c in clients:
                cache.put(c.domain_id, c.local_encoder_checkpoint())
            snapshot = cache.snapshot()
            for c in clients:
                c.sync(snapshot)
    return Setup(scenario, cfg, clients, cache, time.perf_counter() - t0)


@dataclasses.dataclass
class UnitResult:
    run_s: float
    work: int             # training samples x epochs x rounds, or queries ranked
    test_mrr: float
    upload_bytes: int     # bytes the cache received in one round
    param_dtype: str
    fingerprint: dict
    problems: list[str]


def run_timed(w: Workload, s: Setup) -> tuple[float, object]:
    """The timed part alone, so nothing else lands inside the measurement."""
    if w.kind == "train":
        t0 = time.perf_counter()
        result = federation.run(s.scenario, s.cfg)
        return time.perf_counter() - t0, result
    with ad.default_dtype(_dtype(s.cfg)):
        t0 = time.perf_counter()
        reports = [federation.evaluate_all(s.clients, split, 0, s.cfg.mode)
                   for split in ("valid", "test")]
        return time.perf_counter() - t0, reports


def finish(w: Workload, s: Setup, run_s: float, output) -> UnitResult:
    """Derive the unit's figures from the timed part's output and check it."""
    domains = s.scenario.domains
    if w.kind == "train":
        result = output
        reports = result.history + [result.final_test]
        work = sum(len(d.train) for d in domains) * s.cfg.local_epochs * len(result.history)
        cache = result.cache
        params = result.clients[0].local.parameters()
        fingerprint = {"state_sha256": hashlib.sha256(cache.state_bytes()).hexdigest(),
                       "records_sha256": _records_hash(reports)}
        problems = check_training(result, s)
        test = result.final_test
    else:
        reports = output
        work = sum(len(d.valid) + len(d.test) for d in domains)
        cache = s.cache
        params = s.clients[0].local.parameters()
        fingerprint = {"records_sha256": _records_hash(reports)}
        problems = []
        test = reports[1]
    problems += check_gate_rows(reports, expect_gate=s.cfg.mode != "fedavg")
    last = max(r for r, _, _ in cache.upload_history)
    upload = sum(len(cache.checkpoints[dom].to_bytes())
                 for r, dom, _ in cache.upload_history if r == last)
    return UnitResult(run_s, work, test.avg.mrr, upload, str(params[0].data.dtype),
                      fingerprint, problems)


def _records_hash(reports) -> str:
    return hashlib.sha256("\n".join(r.to_json_lines() for r in reports).encode()).hexdigest()


def random_mrr(num_items: int) -> float:
    """Expected MRR (0-100) when the target's rank is uniform over the catalog."""
    return 100.0 * sum(1.0 / k for k in range(1, num_items + 1)) / num_items


def check_training(result, s: Setup) -> list[str]:
    problems = []
    rounds = [r.round_index for r in result.history]
    if rounds != list(range(s.cfg.rounds)):
        problems.append(f"round reports {rounds}, expected {s.cfg.rounds} rounds")
    ids = sorted(s.scenario.domain_ids)
    for r in result.history + [result.final_test]:
        if sorted(r.per_domain) != ids:
            problems.append(f"round {r.round_index} reports domains {sorted(r.per_domain)}")
    names = [p.name for p in result.clients[0].local.encoder.parameters()]
    ckpts = dict(result.cache.checkpoints)
    if result.cache.shared is not None:
        ckpts["shared"] = result.cache.shared
    if sorted(result.cache.checkpoints) != ids:
        problems.append(f"cache holds {sorted(result.cache.checkpoints)}, expected {ids}")
    for dom, ckpt in ckpts.items():
        blob = ckpt.to_bytes()
        if ExpertCheckpoint.from_bytes(blob).to_bytes() != blob:
            problems.append(f"checkpoint {dom} does not round-trip")
        if ckpt.names != names:
            problems.append(f"checkpoint {dom} names differ from the encoder parameters")
    floor = statistics.mean(random_mrr(d.num_items) for d in s.scenario.domains)
    if not result.final_test.avg.mrr > floor:
        problems.append(f"test MRR {result.final_test.avg.mrr:.3f} is not above the "
                        f"random-ranking floor {floor:.3f}")
    return problems


def check_gate_rows(reports, expect_gate: bool) -> list[str]:
    problems = []
    for r in reports:
        for dom, m in r.per_domain.items():
            if m.gate_weights is None:
                if expect_gate:
                    problems.append(f"{r.split} round {r.round_index} {dom}: no gate weights")
            elif not math.isclose(sum(m.gate_weights), 1.0, abs_tol=1e-5):
                problems.append(f"{r.split} round {r.round_index} {dom}: gate weights "
                                f"sum to {sum(m.gate_weights)}")
    return problems


def oracle_rank(scores: np.ndarray, target: int, exclude) -> int:
    """Rank by a full stable sort: score descending, ties to the smaller id."""
    n = scores.shape[0]
    keep = np.ones(n, dtype=bool)
    if exclude:
        keep[[e - 1 for e in exclude if 1 <= e <= n]] = False
    keep[target - 1] = True
    ids = np.flatnonzero(keep)
    order = ids[np.lexsort((ids, -scores[ids]))]
    return int(np.flatnonzero(order == target - 1)[0]) + 1


def check_ranking(s: Setup, every: int = 16) -> tuple[int, list[str]]:
    """Evaluate test once more with rank_target observed, and compare every
    ``every``-th call with the sort oracle. Returns (calls compared, problems)."""
    sample = []
    calls = 0
    original = federation.rank_target

    def observed(scores, target, exclude=None):
        nonlocal calls
        rank = original(scores, target, exclude)
        if calls % every == 0:
            sample.append((np.array(scores), target, set(exclude or ()), rank))
        calls += 1
        return rank

    federation.rank_target = observed
    try:
        with ad.default_dtype(_dtype(s.cfg)):
            federation.evaluate_all(s.clients, "test", 0, s.cfg.mode)
    finally:
        federation.rank_target = original
    problems = [f"rank_target gave {rank}, the oracle {oracle_rank(sc, t, ex)} (target {t})"
                for sc, t, ex, rank in sample if oracle_rank(sc, t, ex) != rank]
    if not sample:
        problems.append("rank_target was never called")
    return len(sample), problems
