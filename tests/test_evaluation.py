"""Ranking metric tests against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoe import evaluation as ev


def sort_oracle_rank(scores, target, exclude=frozenset()):
    """Rank by explicit sort: score descending, item id ascending."""
    entries = [(-s, item) for item, s in enumerate(scores, start=1)
               if item not in exclude]
    entries.sort()
    for rank, (_, item) in enumerate(entries, start=1):
        if item == target:
            return rank
    raise AssertionError("target missing")


def loop_oracle_metrics(ranks):
    mrr = hr = ndcg = 0.0
    for r in ranks:
        mrr += 1.0 / r
        if r <= 10:
            hr += 1.0
            ndcg += 1.0 / math.log2(r + 1)
    n = len(ranks)
    return 100.0 * mrr / n, 100.0 * hr / n, 100.0 * ndcg / n


class TestRankTarget:
    def test_unique_max_is_rank_one(self):
        scores = np.array([0.1, 0.9, 0.3])
        assert ev.rank_target(scores, 2) == 1

    def test_all_tied_ranks_by_item_id(self):
        scores = np.ones(5)
        for target in range(1, 6):
            assert ev.rank_target(scores, target) == target

    def test_excluded_items_do_not_compete(self):
        scores = np.array([0.9, 0.8, 0.7])
        assert ev.rank_target(scores, 3, exclude={1, 2}) == 1

    def test_exclusions_outside_the_catalog_are_ignored(self):
        scores = np.array([0.5, 0.5, 0.5, 0.9, 0.5])
        # item 4 scores above the target; items 1 and 2 tie with it at smaller ids
        assert ev.rank_target(scores, 3) == 4
        assert ev.rank_target(scores, 3, exclude={0, -1, 6, 99}) == 4
        # excluded ties, before and after the target, no longer rank above it
        assert ev.rank_target(scores, 3, exclude={1, 5, 0, 7}) == 3
        assert ev.rank_target(scores, 3, exclude={1, 2, 4, 5, 6}) == 1

    def test_excluded_target_rejected(self):
        with pytest.raises(ValueError):
            ev.rank_target(np.ones(3), 2, exclude={2})

    def test_target_outside_catalog(self):
        with pytest.raises(IndexError):
            ev.rank_target(np.ones(3), 4)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_full_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        scores = rng.choice([0.1, 0.25, 0.5, 0.9], size=n)  # force ties
        exclude = set(int(x) for x in rng.choice(np.arange(1, n + 1),
                                                 size=n // 4, replace=False))
        targets = [t for t in range(1, n + 1) if t not in exclude]
        target = int(rng.choice(targets))
        assert ev.rank_target(scores, target, exclude) == \
            sort_oracle_rank(scores, target, exclude)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(77)
        scores = rng.standard_normal(30)
        transformed = np.exp(2.0 * scores) + 5
        for target in range(1, 31):
            assert ev.rank_target(scores, target) == ev.rank_target(transformed, target)


class TestComputeMetrics:
    def test_all_rank_one(self):
        assert ev.compute_metrics([1, 1, 1]) == (100.0, 100.0, 100.0)

    def test_single_rank_three(self):
        mrr, hr, ndcg = ev.compute_metrics([3])
        assert mrr == pytest.approx(100 / 3)
        assert hr == 100.0
        assert ndcg == pytest.approx(100 / math.log2(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.compute_metrics([])

    def test_matches_loop_oracle_bulk(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            ranks = rng.integers(1, 400, size=rng.integers(1, 50)).tolist()
            got = ev.compute_metrics(ranks)
            want = loop_oracle_metrics(ranks)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9

    @given(st.lists(st.integers(1, 500), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_hr_nondecreasing_in_k(self, ranks):
        values = [ev.hr_at_k(ranks, k) for k in (1, 5, 10, 20)]
        assert values == sorted(values)

    @given(st.lists(st.integers(1, 500), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, ranks):
        mrr, hr, ndcg = ev.compute_metrics(ranks)
        for v in (mrr, hr, ndcg):
            assert 0.0 <= v <= 100.0
        assert ndcg <= hr + 1e-12


class TestMetricsReport:
    def _report(self):
        return ev.MetricsReport(
            mode="fmoe", round_index=2,
            per_domain={
                "d0": ev.DomainMetrics(10.0, 20.0, 12.0, gate_weights=(0.5, 0.25, 0.25)),
                "d1": ev.DomainMetrics(30.0, 40.0, 25.0),
            })

    def test_avg_is_arithmetic_mean(self):
        rep = self._report()
        assert rep.avg.mrr == pytest.approx(20.0, abs=1e-9)
        assert rep.avg.hr_at_10 == pytest.approx(30.0, abs=1e-9)
        assert rep.avg.ndcg_at_10 == pytest.approx(18.5, abs=1e-9)

    def test_records_cover_domains_and_gate_weights(self):
        recs = self._report().records()
        domains = {r["domain"] for r in recs}
        assert domains == {"d0", "d1", "avg"}
        gates = [r for r in recs if r["metric"].startswith("gate_weight")]
        assert len(gates) == 3

    def test_records_carry_fused_and_branch_nll(self):
        rep = ev.MetricsReport(
            mode="fmoe", round_index=0, split="train",
            per_domain={
                "d0": ev.DomainMetrics(10.0, 20.0, 12.0, gate_weights=(0.6, 0.4),
                                       nll=4.0, branch_nll=(4.5, 4.1)),
                "d1": ev.DomainMetrics(30.0, 40.0, 25.0, nll=5.0),
            })
        values = {(r["domain"], r["metric"]): r["value"] for r in rep.records()}
        assert values[("d0", "branch_nll_0")] == 4.5
        assert values[("d0", "branch_nll_1")] == 4.1
        assert ("d1", "branch_nll_0") not in values
        assert values[("avg", "nll")] == pytest.approx(4.5)

    def test_render_table_contains_all_columns(self):
        table = ev.render_table([self._report()], ["d0", "d1"])
        assert "Avg" in table and "fmoe r2" in table
        assert "10.00" in table and "30.00" in table
