"""Shared test oracles, independent of the code paths they check, and
test inputs built from short item runs."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from fedmoe import autodiff as ad
from fedmoe import data, expert, moe


def encode_prefixes(branch, adj, prefixes, train=False, rng=None):
    """``expert.encode_batch`` of a prefix matrix: its layout is built first,
    then the branch's lookup table."""
    layout = expert.BatchLayout(prefixes)
    return expert.encode_batch(branch, expert.lookup_table(branch, adj), layout, train, rng)


def single_tape_step(client, prefixes, aug_prefixes, targets, rng, local_only=False):
    """The training step recorded on one tape: every branch's next-item and
    contrastive terms, then the fusion loss, summed into one total that is
    back-propagated once. Returns the total tensor and its components, as
    ``federation.client_losses`` reports them."""
    cfg = client.cfg
    branches = {"local": client.local} if local_only else client.branches()
    mixed = len(branches) > 1
    z_list, target_probs = [], []
    total = None
    components = {}
    with ad.Tape() as tape:
        layout = expert.pair_layout(prefixes, aug_prefixes)
        for tag, branch in branches.items():
            table = expert.lookup_table(branch, client.dataset.adjacency)
            z, z_aug, logits = expert.encode_pair(branch, table, layout, train=True, rng=rng)
            if mixed:
                rec, prob = expert.rec_loss(logits, targets, return_prob=True)
                z_list.append(z)
                target_probs.append(prob)
            else:
                rec = expert.rec_loss(logits, targets)
            con = expert.contrastive_loss(z, z_aug, cfg.temperature)
            components[f"rec:{tag}"] = float(rec.data)
            components[f"con:{tag}"] = float(con.data)
            term = ad.add(ad.scale(rec, cfg.rec_weight), ad.scale(con, cfg.con_weight))
            total = term if total is None else ad.add(total, term)
        if mixed:
            weights = (moe.gate_forward(z_list, client.gate) if client.gate is not None
                       else moe.uniform_gate_weights(len(prefixes), len(z_list)))
            fused = moe.moe_loss(weights, np.stack(target_probs, axis=1))
            components["moe"] = float(fused.data)
            total = ad.add(total, ad.scale(fused, cfg.moe_weight))
        ad.backward(total, tape)
    return total, components


def build_adjacency(runs: list[list[int]], num_items: int) -> sp.csr_matrix:
    """``data.transition_adjacency`` of the next-item transitions within
    these item runs."""
    flat = np.array([it for run in runs for it in run], dtype=np.int64)
    run_of = np.repeat(np.arange(len(runs)), [len(run) for run in runs])
    follows = run_of[1:] == run_of[:-1]
    return data.transition_adjacency(flat[:-1][follows], flat[1:][follows], num_items)


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Elementwise central finite differences of a scalar function.

    f receives a fresh copy of x each call and must not cache state
    between calls; this keeps the oracle independent of the analytic
    backward pass it is checking.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    base = x.astype(np.float64).copy()
    for i in range(base.size):
        xp = base.copy().reshape(-1)
        xp[i] += h
        up = f(xp.reshape(x.shape))
        xm = base.copy().reshape(-1)
        xm[i] -= h
        um = f(xm.reshape(x.shape))
        flat[i] = (up - um) / (2.0 * h)
    return grad


def gradient_close(analytic: np.ndarray, numeric: np.ndarray,
                   rel_tol: float = 1e-4, abs_floor: float = 1e-8) -> bool:
    """Elementwise |a - n| <= rel_tol * max(|a|, |n|), with an absolute
    floor for entries where both gradients are essentially zero."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(a - n)
    ref = np.maximum(np.abs(a), np.abs(n))
    return bool(np.all((diff <= rel_tol * ref) | (diff <= abs_floor)))


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       abs_floor: float = 1e-8) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(a - n)
    ref = np.maximum(np.maximum(np.abs(a), np.abs(n)), abs_floor / max(1e-300, 1.0))
    rel = diff / np.maximum(ref, 1e-300)
    rel = np.where(diff <= abs_floor, 0.0, rel)
    return float(rel.max()) if rel.size else 0.0
