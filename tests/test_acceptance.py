"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS line with its measured values (visible with pytest -s; failures
surface the same detail through the assertion message).

Criteria 1-8 are property checks; 9-12 are directional desk-scale
reproductions over three seeds on the synthetic cross-domain generator
(3 domains, 200 items and 500 users each, shared latent chain).
"""

import dataclasses
import time

import numpy as np
import pytest

from fedmoe import autodiff as ad
from fedmoe import data, expert, federation, moe
from fedmoe.checkpoint import ExpertCheckpoint
from fedmoe.config import RunConfig
from fedmoe.data import SyntheticSpec, generate_synthetic
from fedmoe.evaluation import compute_metrics, rank_target
from fedmoe.optim import Adam

from helpers import encode_prefixes, max_relative_error

SEEDS = (101, 202, 303)


def _ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


# ---------------------------------------------------------------------------
# small fixtures
# ---------------------------------------------------------------------------


def tiny_scenario(seed=42, items=60, users=120):
    return generate_synthetic(SyntheticSpec(num_domains=3, items_per_domain=items,
                                            users_per_domain=users, min_len=10,
                                            max_len=14, num_clusters=6, seed=seed))


def tiny_config(**overrides):
    base = dict(mode="fmoe", rounds=1, local_epochs=1, patience=0, batch_size=64,
                learning_rate=0.01, width=16, blocks=1, heads=1, ff_mult=2,
                gnn_depth=1, dropout=0.1, seed=7)
    base.update(overrides)
    return RunConfig(**base)


def build_synced_clients(scenario, cfg):
    clients = [federation.build_client(scenario, d, cfg)
               for d in sorted(scenario.domain_ids)]
    cache = federation.ServerCache()
    for c in clients:
        cache.put(c.domain_id, c.local_encoder_checkpoint())
    snapshot = cache.snapshot()
    for c in clients:
        if c.global_branches:
            c.sync(snapshot)
    return clients, cache, snapshot


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness_full_forward():
    """Every trainable parameter of the full model (three domains, both
    branch objectives, gated fusion) matches central finite differences.

    The fusion objective is isolated from the expert branches by design,
    so its differences are taken against the gate parameters and the
    branch objectives against the branch parameters; together that is
    exactly the gradient the optimizer consumes.
    """
    started = time.time()
    with ad.default_dtype(np.float64):
        scenario = generate_synthetic(SyntheticSpec(
            num_domains=3, items_per_domain=20, users_per_domain=30,
            min_len=10, max_len=12, num_clusters=4, seed=9))
        cfg = tiny_config(width=8, blocks=1, heads=2, ff_mult=2, gnn_depth=2,
                          t_max=8, dropout=0.0, batch_size=4, precision="float64")
        clients, _, _ = build_synced_clients(scenario, cfg)
        client = clients[0]

        batch, tgt = client.dataset.train.prefixes(slice(4)), client.dataset.train.targets[:4]
        aug = data.augment_batch(batch, cfg.shuffle_ratio, np.random.default_rng(3))

        adj = client.dataset.adjacency
        order = list(client.branches().values())

        def branch_sum():
            total = None
            for branch in order:
                table = expert.lookup_table(branch, adj)
                layout = expert.pair_layout(batch, aug)
                z, z_aug, logits = expert.encode_pair(branch, table, layout)
                term = ad.add(expert.rec_loss(logits, tgt),
                              expert.contrastive_loss(z, z_aug, cfg.temperature))
                total = term if total is None else ad.add(total, term)
            return total

        def fusion_only():
            zs, probs = [], []
            for branch in order:
                z, logits = encode_prefixes(branch, adj, batch)
                zs.append(z)
                probs.append(expert.rec_loss(logits, tgt, return_prob=True)[1])
            weights = moe.gate_forward(zs, client.gate)
            return moe.moe_loss(weights, np.stack(probs, axis=1))

        trainable = [p for p in client.all_parameters() if p.trainable]
        gate_ids = {id(p) for p in client.gate.parameters()}
        for p in trainable:
            p.tensor.grad = None
        with ad.Tape() as tape:
            ad.backward(ad.add(branch_sum(), fusion_only()), tape)
        analytic = {id(p): (np.zeros_like(p.data) if p.tensor.grad is None
                            else p.tensor.grad.copy()) for p in trainable}

        h = 1e-5
        worst = 0.0
        checked = 0
        for p in trainable:
            fn = fusion_only if id(p) in gate_ids else branch_sum
            flat = p.tensor.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(fn().data)
                flat[i] = orig - h
                down = float(fn().data)
                flat[i] = orig
                numeric[i] = (up - down) / (2 * h)
            err = max_relative_error(analytic[id(p)].reshape(-1), numeric)
            worst = max(worst, err)
            checked += flat.size
            assert err <= 1e-4, f"{p.name}: max rel err {err:.2e}"
    elapsed = time.time() - started
    assert elapsed < 60, f"gradient check took {elapsed:.0f}s"
    _ok("criterion-1", f"{checked} parameters, max rel err {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criteria 2-3: freeze and gate isolation
# ---------------------------------------------------------------------------


def test_criterion_2_freeze_contract():
    scenario = tiny_scenario()
    clients, _, snapshot = build_synced_clients(scenario, tiny_config())
    client = clients[0]
    federation.client_update(client, snapshot, 0)
    for dom, branch in client.global_branches.items():
        for p in branch.encoder.parameters():
            expected = snapshot[dom].get(p.name).astype(p.data.dtype)
            assert p.data.tobytes() == expected.tobytes(), f"{dom}:{p.name} changed"

    nf_clients, _, nf_snapshot = build_synced_clients(
        scenario, tiny_config(mode="no_freeze"))
    nf = nf_clients[0]
    federation.client_update(nf, nf_snapshot, 0)
    changed = sum(
        p.data.tobytes() != nf_snapshot[dom].get(p.name).astype(p.data.dtype).tobytes()
        for dom, branch in nf.global_branches.items()
        for p in branch.encoder.parameters())
    assert changed > 0, "no_freeze left every global encoder untouched"
    _ok("criterion-2", f"frozen encoders byte-identical; no_freeze changed {changed} tensors")


def test_criterion_3_gate_isolation():
    scenario = tiny_scenario()
    clients, _, _ = build_synced_clients(scenario, tiny_config(dropout=0.0))
    client = clients[0]
    batch, tgt = client.dataset.train.prefixes(slice(16)), client.dataset.train.targets[:16]
    params = client.all_parameters()
    gate_ids = {id(p) for p in client.gate.parameters()}
    before = {id(p): p.data.tobytes() for p in params}

    opt = Adam(params, lr=0.01)
    opt.zero_grad()
    with ad.Tape() as tape:
        zs, probs = [], []
        for branch in client.branches().values():
            z, logits = encode_prefixes(branch, client.dataset.adjacency, batch)
            zs.append(z)
            probs.append(expert.rec_loss(logits, tgt, return_prob=True)[1])
        weights = moe.gate_forward(zs, client.gate)
        ad.backward(moe.moe_loss(weights, np.stack(probs, axis=1)), tape)
    opt.step()

    moved_gate, moved_other = 0, 0
    for p in params:
        if p.data.tobytes() != before[id(p)]:
            if id(p) in gate_ids:
                moved_gate += 1
            else:
                moved_other += 1
    assert moved_other == 0, f"{moved_other} non-gate tensors changed"
    assert moved_gate > 0, "gate did not learn"
    _ok("criterion-3", f"fusion step moved {moved_gate} gate tensors and nothing else")


# ---------------------------------------------------------------------------
# criterion 4: upload discipline
# ---------------------------------------------------------------------------


def test_criterion_4_privacy_upload_discipline():
    result = federation.run(tiny_scenario(), tiny_config(rounds=3, patience=0))
    encoder_names = {p.name for p in result.clients[0].local.encoder.parameters()}
    banned = ("embed", "position", "head", "gate")
    uploads = 0
    for _, _, names in result.cache.upload_history:
        uploads += 1
        assert set(names) == encoder_names, "upload carries non-encoder parameters"
        for name in names:
            assert not any(b in name.lower() for b in banned), name
    assert uploads >= 3 * 4  # initial seeding plus three rounds
    _ok("criterion-4", f"{uploads} uploads, encoder parameter names only")


# ---------------------------------------------------------------------------
# criterion 5: mixture validity
# ---------------------------------------------------------------------------


def test_criterion_5_mixture_validity_thousand_batches():
    rng = np.random.default_rng(5)
    gate = moe.init_gate(3, 8)
    gate.weight.tensor.data[:] = rng.normal(0, 0.5, gate.weight.data.shape).astype(np.float32)
    gate.bias.tensor.data[:] = rng.normal(0, 0.5, 3).astype(np.float32)
    worst_mix, worst_gate = 0.0, 0.0
    for _ in range(1000):
        z_list = [ad.Tensor(rng.normal(0, 1, (8, 8)).astype(np.float32))
                  for _ in range(3)]
        logits = [ad.Tensor(rng.normal(0, 2, (8, 50)).astype(np.float32))
                  for _ in range(3)]
        weights = moe.gate_forward(z_list, gate)
        mixture, _ = moe.fuse(logits, weights, np.arange(1, 9))
        worst_gate = max(worst_gate, float(np.abs(
            weights.data.sum(axis=-1) - 1.0).max()))
        worst_mix = max(worst_mix, float(np.abs(
            mixture.sum(axis=-1) - 1.0).max()))
    assert worst_gate <= 1e-6, f"gate rows off by {worst_gate:.2e}"
    assert worst_mix <= 1e-5, f"mixture rows off by {worst_mix:.2e}"
    _ok("criterion-5", f"1000 batches, worst gate {worst_gate:.1e}, worst mixture {worst_mix:.1e}")


# ---------------------------------------------------------------------------
# criterion 6: metric oracles
# ---------------------------------------------------------------------------


def test_criterion_6_metric_oracles():
    import math
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10_000):
        ranks = rng.integers(1, 500, size=rng.integers(1, 30))
        got = compute_metrics(ranks)
        mrr = hr = ndcg = 0.0
        for r in ranks:
            mrr += 1.0 / r
            if r <= 10:
                hr += 1.0
                ndcg += 1.0 / math.log2(r + 1)
        want = (100 * mrr / len(ranks), 100 * hr / len(ranks), 100 * ndcg / len(ranks))
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    assert worst <= 1e-9, f"metric mismatch {worst:.2e}"

    for seed in range(200):
        r2 = np.random.default_rng(seed)
        n = int(r2.integers(2, 40))
        scores = r2.choice([0.1, 0.4, 0.7], size=n)
        target = int(r2.integers(1, n + 1))
        entries = sorted((-s, i) for i, s in enumerate(scores, start=1))
        sort_rank = 1 + [i for _, i in entries].index(target)
        assert rank_target(scores, target) == sort_rank
    _ok("criterion-6", f"10000 rank lists <= {worst:.1e}; 200 sort-oracle agreements")


# ---------------------------------------------------------------------------
# criterion 7: FedAvg oracle
# ---------------------------------------------------------------------------


def test_criterion_7_fedavg_oracle():
    rng = np.random.default_rng(7)
    ckpts = [ExpertCheckpoint([("w", rng.normal(0, 1, (6, 5)).astype(np.float32)),
                               ("b", rng.normal(0, 1, 4).astype(np.float32))])
             for _ in range(4)]
    out = federation.fedavg_aggregate(ckpts)
    worst = 0.0
    for name in ("w", "b"):
        flat = [c.get(name).reshape(-1) for c in ckpts]
        mean = out.get(name).reshape(-1)
        for i in range(flat[0].size):
            expected = sum(float(f[i]) for f in flat) / len(flat)
            worst = max(worst, abs(float(mean[i]) - expected))
    assert worst <= 1e-7, f"aggregation off by {worst:.2e}"

    same = federation.fedavg_aggregate([ckpts[0]] * 3)
    for name in ("w", "b"):
        np.testing.assert_array_equal(same.get(name), ckpts[0].get(name))
    _ok("criterion-7", f"scalar-mean agreement {worst:.1e}; idempotent on identical inputs")


# ---------------------------------------------------------------------------
# criterion 8: determinism and order independence
# ---------------------------------------------------------------------------


def test_criterion_8_determinism_and_order_independence():
    scenario = tiny_scenario()
    cfg = tiny_config(rounds=2, patience=0)
    a = federation.run(scenario, cfg)
    b = federation.run(scenario, dataclasses.replace(cfg))
    hist_a = "\n".join(r.to_json_lines() for r in a.history)
    hist_b = "\n".join(r.to_json_lines() for r in b.history)
    assert hist_a == hist_b, "metric histories diverged for equal seeds"

    par = federation.run(scenario, dataclasses.replace(cfg, parallel_clients=True))
    assert a.cache.state_bytes() == par.cache.state_bytes(), \
        "parallel client order changed the cache"
    _ok("criterion-8", "bit-identical histories; sequential == parallel caches")


# ---------------------------------------------------------------------------
# criteria 9-12: desk-scale directional reproductions
# ---------------------------------------------------------------------------

DESK = dict(rounds=4, local_epochs=1, patience=5, batch_size=256,
            learning_rate=0.003, width=24, blocks=1, heads=1, ff_mult=2,
            gnn_depth=1, dropout=0.1, t_max=16, parallel_clients=True)


def desk_spec(correlation, seed):
    return SyntheticSpec(num_domains=3, items_per_domain=200, users_per_domain=500,
                         min_len=10, max_len=16, num_clusters=8,
                         correlation=correlation, seed=seed)


@pytest.fixture(scope="session")
def desk_runs():
    runs = {}
    t0 = time.time()
    for seed in SEEDS:
        hi = generate_synthetic(desk_spec(1.0, seed))
        lo = generate_synthetic(desk_spec(0.0, seed))
        for label, scenario, extra in (
                ("fmoe", hi, dict(mode="fmoe")),
                ("local", hi, dict(mode="local_only")),
                ("drop", hi, dict(mode="drop_expert", drop_domain="d1")),
                ("tp0", hi, dict(mode="two_phase", pretrain_epochs=0)),
                ("tp6", hi, dict(mode="two_phase", pretrain_epochs=6)),
                ("knob0", lo, dict(mode="fmoe")),
        ):
            cfg = RunConfig(seed=seed, **DESK, **extra)
            runs[(label, seed)] = federation.run(scenario, cfg)
    runs["elapsed"] = time.time() - t0
    return runs


@pytest.mark.desk
def test_criterion_9_transfer_gain(desk_runs):
    fmoe = [desk_runs[("fmoe", s)].final_test.avg.mrr for s in SEEDS]
    local = [desk_runs[("local", s)].final_test.avg.mrr for s in SEEDS]
    wins = sum(f >= l for f, l in zip(fmoe, local))
    gain = float(np.mean(fmoe) - np.mean(local))
    assert wins >= 2, f"federation won on only {wins}/3 seeds ({fmoe} vs {local})"
    assert gain > 0, f"mean transfer gain {gain:.3f} not positive"
    _ok("criterion-9", f"avg MRR fmoe {np.mean(fmoe):.2f} vs local {np.mean(local):.2f}, "
        f"gain {gain:+.2f}, wins {wins}/3")


@pytest.mark.desk
def test_criterion_10_checkpoint_quality_trend(desk_runs):
    long = [desk_runs[("tp6", s)].final_test.avg.mrr for s in SEEDS]
    zero = [desk_runs[("tp0", s)].final_test.avg.mrr for s in SEEDS]
    assert np.mean(long) >= np.mean(zero), \
        f"longer pretraining hurt: {long} vs {zero}"
    _ok("criterion-10", f"two-phase avg MRR pretrain6 {np.mean(long):.2f} "
        f">= pretrain0 {np.mean(zero):.2f}")


@pytest.mark.desk
def test_criterion_11_expert_removal(desk_runs):
    targets = ("d0", "d2")  # d1's expert is the one removed
    full = np.mean([[desk_runs[("fmoe", s)].final_test.per_domain[t].mrr
                     for t in targets] for s in SEEDS])
    dropped = np.mean([[desk_runs[("drop", s)].final_test.per_domain[t].mrr
                        for t in targets] for s in SEEDS])
    assert dropped <= full + 1e-9, \
        f"removing a correlated expert helped: {dropped:.3f} > {full:.3f}"
    _ok("criterion-11", f"target MRR with expert removed {dropped:.2f} <= full {full:.2f}")


def _train_split_experts(run) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per domain of a run: mean gate weights and each branch's own target
    NLL, both on the training split the gate is fitted to. Evaluation
    scores only valid and test, so the training split is scored here in
    the chunks and sums that ``federation.evaluate_client`` uses."""
    experts = []
    with ad.default_dtype(np.float32):
        for client in sorted(run.clients, key=lambda c: c.domain_id):
            train, step = client.dataset.train, client.cfg.eval_batch
            tables = [expert.lookup_table(b, client.dataset.adjacency)
                      for b in client.branches().values()]
            gate_sum = nll_sum = 0.0
            for start in range(0, len(train), step):
                index = slice(start, start + step)
                _, gates, branch_nll = federation._client_scores(
                    client, train.prefixes(index), train.targets[index], tables)
                gate_sum = gate_sum + gates.sum(axis=0)
                nll_sum = nll_sum + branch_nll.sum(axis=0)
            experts.append(((gate_sum / len(train)).astype(np.float64),
                            (nll_sum / len(train)).astype(np.float64)))
    return experts


@pytest.mark.desk
def test_criterion_12_gate_downweights_uninformative_experts(desk_runs):
    """With decorrelated sources (correlation 0), the gate gives its least
    informative expert less than uniform weight, and its weights follow
    the experts' measured quality.

    Which expert is uninformative is measured, not assumed. A global
    branch keeps only another domain's encoder, frozen; its item
    embeddings, positions and head are its own and are retrained on the
    target domain with the same objectives as the local branch, so at
    correlation 0 it is still a second model of the target domain. Each
    branch is scored alone on the training split (``branch_nll``, the
    mean target NLL, lower is more informative). When this was written
    the local branch was the best expert in 1 of the 9 (domain, seed)
    pairs and the worst in 5, so a bound on the local share ("local
    weight above 1/3") would ask the gate to prefer an expert that is
    usually the worst.

    Two checks over the 9 pairs: the mean weight of each pair's
    highest-NLL expert is below uniform 1/3 (0.301 when written), and,
    centred within each pair, gate weights correlate positively with
    -NLL (0.566). A uniform gate fails both; so does one that ignores
    expert quality, barring chance. The gate still lags the experts: in
    most pairs its local share peaks in round 1, when freshly
    synchronized encoders disrupt the global adapters, and is still
    falling in the last desk round.
    """
    per_seed = {s: _train_split_experts(desk_runs[("knob0", s)]) for s in SEEDS}
    pairs = [p for s in SEEDS for p in per_seed[s]]
    worst = {s: [float(g[nll.argmax()]) for g, nll in per_seed[s]] for s in SEEDS}
    worst_mean = float(np.mean([w for s in SEEDS for w in worst[s]]))
    gate_c = np.concatenate([g - g.mean() for g, _ in pairs])
    quality_c = np.concatenate([nll.mean() - nll for _, nll in pairs])
    norm = float(np.linalg.norm(gate_c) * np.linalg.norm(quality_c))
    corr = float(gate_c @ quality_c) / norm if norm > 0 else 0.0
    local_best = sum(int(nll.argmin() == 0) for _, nll in pairs)
    elapsed = desk_runs["elapsed"]
    per_seed_text = ", ".join(f"{s}: {[round(w, 3) for w in worst[s]]}" for s in SEEDS)
    detail = (f"train-split weight of the highest-NLL expert per seed "
              f"({per_seed_text}), mean {worst_mean:.3f}; "
              f"gate/quality correlation {corr:.3f}; "
              f"local branch best in {local_best}/{len(pairs)} pairs "
              f"(desk suite {elapsed:.0f}s)")
    assert worst_mean < 1 / 3, \
        f"least informative experts not weighted below uniform: {detail}"
    assert corr > 0, f"gate weights do not follow expert quality: {detail}"
    assert elapsed < 600, f"desk-scale suite took {elapsed:.0f}s"
    _ok("criterion-12", detail)
