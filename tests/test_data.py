"""Preprocessing, split, adjacency, augmentation, and generator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoe import data
from fedmoe.errors import ConfigError, EmptyDatasetError, ParseError


def write_lines(tmp_path, lines, name="dom.txt"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


class TestParsing:
    def test_basic_file(self, tmp_path):
        p = write_lines(tmp_path, ["u1\ta b c", "u2\tc d"])
        rows = data.parse_domain_file(p)
        assert rows == [("u1", ["a", "b", "c"]), ("u2", ["c", "d"])]

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = write_lines(tmp_path, ["u1\ta b", "garbage-without-tab"])
        with pytest.raises(ParseError, match=":2:"):
            data.parse_domain_file(p)

    def test_duplicate_user_rejected(self, tmp_path):
        p = write_lines(tmp_path, ["u1\ta b", "u1\tc d"])
        with pytest.raises(ParseError, match="duplicate"):
            data.parse_domain_file(p)


class TestFiltering:
    def test_single_user_rare_items_empty_dataset(self, tmp_path):
        # 20 interactions spread over 12 items, every item under the floor
        items = ["a"] * 9 + [c for c in "bcdefghijkl"]
        p = write_lines(tmp_path, ["u1\t" + " ".join(items)])
        with pytest.raises(EmptyDatasetError):
            data.load_domain(p)

    def test_filter_is_fixed_point(self):
        rng = np.random.default_rng(5)
        rows = [
            (f"u{i}", [f"i{rng.integers(0, 40)}" for _ in range(rng.integers(3, 25))])
            for i in range(120)
        ]
        cfg = data.DataConfig()
        once = data.filter_sequences(rows, cfg)
        twice = data.filter_sequences(once, cfg)
        assert once == twice

    def test_filtered_lengths_inside_window(self):
        rng = np.random.default_rng(6)
        rows = [
            (f"u{i}", [f"i{rng.integers(0, 30)}" for _ in range(rng.integers(3, 30))])
            for i in range(150)
        ]
        cfg = data.DataConfig()
        for _, items in data.filter_sequences(rows, cfg):
            assert cfg.min_len <= len(items) <= cfg.max_len
            assert len(items) >= cfg.min_interactions

    def test_disabled_filters_keep_everything(self, tmp_path):
        p = write_lines(tmp_path, ["u1\ta b c", "u2\tb c a"])
        ds = data.load_domain(p, data.DataConfig(apply_filters=False))
        assert ds.num_items == 3
        assert {s.user_id for s in ds.train + ds.valid + ds.test} == {"u1", "u2"}


class TestSplit:
    def test_ten_interaction_user(self):
        train, valid, test = data.split_user(list(range(1, 11)))
        assert len(train) == 7  # 8 training interactions, 7 have a predecessor
        assert len(valid) == 1 and len(test) == 1
        assert valid[0] == 8 and test[0] == 9  # earlier withheld goes to valid

    def test_minimum_length_user_keeps_both_eval_targets(self):
        train, valid, test = data.split_user([5, 6, 7, 8])
        assert len(valid) == 1 and len(test) == 1
        assert len(train) == 1

    def test_splits_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(0)
        sequences = [
            (f"u{i}", [int(x) + 1 for x in rng.integers(0, 50, rng.integers(4, 17))])
            for i in range(200)
        ]
        for _, items in sequences:
            tr, va, te = data.split_user(items)
            combined = sorted(tr + va + te)
            assert combined == list(range(1, len(items)))  # every position once
            assert not (set(tr) & set(va)) and not (set(va) & set(te))

    def test_samples_are_left_padded(self):
        samples, _, _ = data.split_dataset([("u", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12])], t_max=16)
        first = samples[0]
        assert first.prefix.shape == (16,)
        assert first.prefix[-1] == 3 and first.prefix[:-1].sum() == 0
        assert first.target == 4

    def test_prefix_truncated_to_window(self):
        items = list(range(1, 30))
        s = data._sample("u", items, 25, t_max=8)
        assert list(s.prefix) == items[17:25]


class TestAdjacency:
    def test_chain_with_self_loops(self):
        adj = data.build_adjacency([[1, 2, 3]], num_items=3)
        dense = adj.toarray()
        np.testing.assert_allclose(dense[1], [0, 0.5, 0.5, 0])
        np.testing.assert_allclose(dense[2], [0, 0, 0.5, 0.5])
        np.testing.assert_allclose(dense[3], [0, 0, 0, 1.0])
        np.testing.assert_allclose(dense[0], 0)

    def test_no_sequences_gives_pure_self_loops(self):
        dense = data.build_adjacency([], num_items=4).toarray()
        np.testing.assert_allclose(dense[1:, 1:], np.eye(4))

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        seqs = [list(rng.integers(1, 21, size=rng.integers(2, 12))) for _ in range(30)]
        adj = data.build_adjacency(seqs, num_items=20)
        sums = np.asarray(adj.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums[1:], np.ones(20), atol=1e-12)
        assert sums[0] == 0

    def test_train_only_no_leakage(self, tmp_path):
        # items a..m are frequent; the pair (l, m) only ever occurs in the
        # withheld tail, so the adjacency must not contain that edge
        lines = []
        base = "a b c d e f g h i j".split()
        for i in range(12):
            lines.append(f"u{i}\t" + " ".join(base + ["l", "m"]))
        p = write_lines(tmp_path, lines)
        ds = data.load_domain(p)
        ids = ds.item_tokens
        if "l" in ids and "m" in ids:
            assert ds.adjacency[ids["l"], ids["m"]] == 0


class TestAugment:
    def test_single_item_unchanged(self):
        prefix = np.array([0, 0, 0, 7])
        out = data.augment(prefix, 0.6, np.random.default_rng(0))
        np.testing.assert_array_equal(out, prefix)

    def test_beta_zero_identity(self):
        prefix = np.array([0, 1, 2, 3, 4, 5])
        out = data.augment(prefix, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, prefix)

    def test_window_multiset_preserved_over_seeds(self):
        prefix = np.array([0, 0, 0, 1, 2, 3, 4, 5])
        outside_window_moves = 0
        for seed in range(1000):
            out = data.augment(prefix, 0.6, np.random.default_rng(seed))
            assert sorted(out[-5:]) == [1, 2, 3, 4, 5]  # multiset preserved
            np.testing.assert_array_equal(out[:3], 0)   # padding untouched
            # window is 3 of 5 items: at least 2 items always keep position
            if (out[-5:] != prefix[-5:]).sum() > 3:
                outside_window_moves += 1
        assert outside_window_moves == 0

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=16),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_augment_properties(self, items, beta, seed):
        t_max = 16
        prefix = np.zeros(t_max, dtype=np.int64)
        prefix[t_max - len(items):] = items
        out = data.augment(prefix, beta, np.random.default_rng(seed))
        assert sorted(out.tolist()) == sorted(prefix.tolist())
        np.testing.assert_array_equal(out[:t_max - len(items)], 0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 16),
           st.sampled_from([0.0, 0.2, 0.5, 0.6, 0.99, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_row_by_row_reference(self, seed, b, t_max, beta):
        gen = np.random.default_rng(seed)
        prefixes = np.zeros((b, t_max), dtype=np.int64)
        for row, n in zip(prefixes, gen.integers(0, t_max + 1, size=b)):
            row[t_max - n:] = gen.integers(1, 50, size=n)
        ref_rng, rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        expected = np.stack([data.augment(row, beta, ref_rng) for row in prefixes])
        np.testing.assert_array_equal(data.augment_batch(prefixes, beta, rng), expected)
        assert rng.random() == ref_rng.random()


class TestSynthetic:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            data.SyntheticSpec(num_clusters=1).validate()
        with pytest.raises(ConfigError):
            data.SyntheticSpec(min_len=9, max_len=4).validate()
        with pytest.raises(ConfigError):
            data.SyntheticSpec(correlation=1.5).validate()
        with pytest.raises(ConfigError):
            data.SyntheticSpec(num_domains=1).validate()

    def test_bookkeeping_matches_spec_with_filters_disabled(self):
        spec = data.SyntheticSpec(num_domains=3, items_per_domain=50,
                                  users_per_domain=200, seed=11)
        scenario = data.generate_synthetic(spec, data.DataConfig(apply_filters=False))
        assert len(scenario.domains) == 3
        for ds in scenario.domains:
            assert ds.num_items == 50
            users = {s.user_id for s in ds.train}
            assert len(users) == 200

    def test_vocabularies_disjoint(self):
        scenario = data.generate_synthetic(
            data.SyntheticSpec(items_per_domain=40, users_per_domain=150, seed=3))
        token_sets = [set(d.item_tokens) for d in scenario.domains]
        for i in range(len(token_sets)):
            for j in range(i + 1, len(token_sets)):
                assert not (token_sets[i] & token_sets[j])

    def test_same_seed_byte_identical_files(self, tmp_path):
        spec = data.SyntheticSpec(items_per_domain=30, users_per_domain=60, seed=9)
        m1 = data.write_scenario(spec, tmp_path / "a")
        m2 = data.write_scenario(spec, tmp_path / "b")
        for f1, f2 in zip(sorted(m1.parent.iterdir()), sorted(m2.parent.iterdir())):
            assert f1.read_bytes() == f2.read_bytes()

    def test_written_scenario_loads_like_generated(self, tmp_path):
        spec = data.SyntheticSpec(items_per_domain=40, users_per_domain=150, seed=5)
        manifest = data.write_scenario(spec, tmp_path)
        loaded = data.load_scenario(manifest)
        direct = data.generate_synthetic(spec)
        for a, b in zip(loaded.domains, direct.domains):
            assert a.num_items == b.num_items
            assert len(a.train) == len(b.train)
            np.testing.assert_array_equal(a.train_arrays()[0], b.train_arrays()[0])
            assert (a.adjacency != b.adjacency).nnz == 0

    def test_smoke_scale(self):
        scenario = data.generate_synthetic(
            data.SyntheticSpec(num_domains=3, items_per_domain=200, users_per_domain=500))
        for ds in scenario.domains:
            assert ds.num_items == 200
            assert len(ds.train) > 1000
            assert len(ds.valid) > 0 and len(ds.test) > 0


def test_domain_seed_keyed_rng_streams_reproducible():
    a = data.generate_raw_sequences(data.SyntheticSpec(users_per_domain=20, seed=1))
    b = data.generate_raw_sequences(data.SyntheticSpec(users_per_domain=20, seed=1))
    c = data.generate_raw_sequences(data.SyntheticSpec(users_per_domain=20, seed=2))
    assert a == b
    assert a != c
