"""Full-catalog ranking metrics: MRR, HR@10, NDCG@10.

Values are reported on the 0..100 scale used throughout the result
tables. Ranking is deterministic: ties go to the smaller item id.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np


@dataclasses.dataclass(frozen=True)
class DomainMetrics:
    mrr: float
    hr_at_10: float
    ndcg_at_10: float
    gate_weights: tuple[float, ...] | None = None  # mean weight per expert, local first
    nll: float | None = None  # mean -log probability of the target under the scores
    branch_nll: tuple[float, ...] | None = None  # the same for each expert alone, local first


@dataclasses.dataclass(frozen=True)
class MetricsReport:
    mode: str
    round_index: int
    per_domain: dict[str, DomainMetrics]
    split: str = "valid"

    @property
    def avg(self) -> DomainMetrics:
        rows = list(self.per_domain.values())
        nll = (sum(r.nll for r in rows) / len(rows)
               if all(r.nll is not None for r in rows) else None)
        return DomainMetrics(
            mrr=sum(r.mrr for r in rows) / len(rows),
            hr_at_10=sum(r.hr_at_10 for r in rows) / len(rows),
            ndcg_at_10=sum(r.ndcg_at_10 for r in rows) / len(rows),
            nll=nll,
        )

    def records(self):
        """Line-delimited metric records for the metrics stream."""
        out = []
        for domain, m in list(self.per_domain.items()) + [("avg", self.avg)]:
            for name, value in (("mrr", m.mrr), ("hr@10", m.hr_at_10),
                                ("ndcg@10", m.ndcg_at_10)):
                out.append({"round": self.round_index, "mode": self.mode,
                            "split": self.split, "domain": domain,
                            "metric": name, "value": value})
            named = [("nll", m.nll)]
            named += [(f"gate_weight_{e}", w) for e, w in enumerate(m.gate_weights or ())]
            named += [(f"branch_nll_{e}", v) for e, v in enumerate(m.branch_nll or ())]
            for name, value in named:
                if value is not None:
                    out.append({"round": self.round_index, "mode": self.mode,
                                "split": self.split, "domain": domain,
                                "metric": name, "value": value})
        return out

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records())


def rank_target(scores: np.ndarray, target: int, exclude: set[int] | None = None) -> int:
    """1-based rank of the target item under the score vector.

    scores[i] is the score of item i + 1 (padding has no score slot).
    Ties rank the smaller item id first. Excluded items do not compete.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    if not 1 <= target <= n:
        raise IndexError(f"target {target} outside catalog [1, {n}]")
    if exclude and target in exclude:
        raise ValueError(f"target {target} is excluded from the candidate set")
    t_idx = target - 1
    t_score = scores[t_idx]
    # items scored above the target, and tied items with a smaller id
    rank = 1 + np.count_nonzero(scores > t_score) + np.count_nonzero(scores[:t_idx] == t_score)
    if exclude:
        drop = np.array([e - 1 for e in set(exclude) if 1 <= e <= n], dtype=np.int64)
        dropped = scores[drop]
        rank -= np.count_nonzero((dropped > t_score) | ((dropped == t_score) & (drop < t_idx)))
    return int(rank)


def hr_at_k(ranks, k: int) -> float:
    ranks = np.asarray(ranks)
    return float((ranks <= k).mean() * 100.0)


def compute_metrics(ranks) -> tuple[float, float, float]:
    """(MRR, HR@10, NDCG@10) over a list of 1-based ranks, scaled by 100."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("compute_metrics needs at least one rank")
    if ranks.min() < 1:
        raise ValueError("ranks are 1-based")
    mrr = float((1.0 / ranks).mean() * 100.0)
    hr = hr_at_k(ranks, 10)
    hit = ranks <= 10
    ndcg = float(np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0).mean() * 100.0)
    return mrr, hr, ndcg


def render_table(reports: list[MetricsReport], domain_ids: list[str]) -> str:
    """Fixed-width table, one row per report, domain columns plus Avg."""
    cols = domain_ids + ["Avg"]
    header1 = f"{'Mode':<18}" + "".join(f"{c:^24}" for c in cols)
    header2 = f"{'':<18}" + "".join(f"{'MRR':>8}{'HR@10':>8}{'NDCG@10':>8}" for _ in cols)
    lines = [header1, header2, "-" * len(header2)]
    for rep in reports:
        row = f"{rep.mode + ' r' + str(rep.round_index):<18}"
        for c in domain_ids:
            m = rep.per_domain[c]
            row += f"{m.mrr:>8.2f}{m.hr_at_10:>8.2f}{m.ndcg_at_10:>8.2f}"
        a = rep.avg
        row += f"{a.mrr:>8.2f}{a.hr_at_10:>8.2f}{a.ndcg_at_10:>8.2f}"
        lines.append(row)
    return "\n".join(lines)
