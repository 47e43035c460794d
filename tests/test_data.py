"""Preprocessing, split, adjacency, augmentation, and generator tests.

The generator as a scalar loop over its draws, and the per-row filter and
remap, the per-sample split, the set-based adjacency and the row-by-row
augmentation of earlier releases, are kept below as reference
implementations; the array code must reproduce them exactly.
"""

import collections
import dataclasses
import hashlib
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scipy.sparse as sp

from fedmoe import data
from fedmoe.errors import ConfigError, EmptyDatasetError, ParseError

from helpers import build_adjacency, held_bytes, owner, split_held_arrays, traced_memory


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def reference_raw_sequences(spec):
    """The generator with one scalar call per draw, in its draw order."""
    spec.validate()
    root = np.random.SeedSequence([spec.seed, 0xDA7A])
    c, users, hi = spec.num_clusters, spec.users_per_domain, spec.max_len
    shared = data._peaked_chain(np.random.default_rng(root), c)
    scenario = {}
    for d, seed in enumerate(root.spawn(spec.num_domains)):
        domain_id = f"d{d}"
        rng = np.random.default_rng(seed)
        private = data._peaked_chain(rng, c)
        chain = spec.correlation * shared + (1.0 - spec.correlation) * private
        cdfs = [(row.cumsum() / row.cumsum()[-1]).tolist() for row in chain]
        clusters = np.arange(spec.items_per_domain) % c
        rng.shuffle(clusters)
        members = [np.flatnonzero(clusters == k) for k in range(c)]
        lengths = [int(rng.integers(spec.min_len, hi + 1)) for _ in range(users)]
        starts = [int(rng.integers(c)) for _ in range(users)]
        uniforms = [[rng.random() for _ in range(hi)] for _ in range(users)]
        paths = []
        for u in range(users):
            k, path = starts[u], []
            for t in range(lengths[u]):
                path.append(k)
                k = bisect_right(cdfs[k], uniforms[u][t])
            paths.append(path)
        scenario[domain_id] = [
            (f"{domain_id}:u{u}",
             [f"{domain_id}:i{members[k][int(rng.integers(len(members[k])))]}" for k in path])
            for u, path in enumerate(paths)]
    return scenario


@dataclasses.dataclass(frozen=True)
class Sample:
    user_id: str
    prefix: np.ndarray  # length t_max, left-padded with 0
    target: int


def reference_sample(user, items, pos, t_max):
    prefix = items[:pos][-t_max:]
    padded = np.zeros(t_max, dtype=np.int64)
    padded[t_max - len(prefix):] = prefix
    return Sample(user, padded, items[pos])


def withheld_count(n, ratio=0.2):
    """Interactions held out of one user's n: the latest share, at least
    one validation and one test target."""
    return min(n - 1, max(2, round(ratio * n)))


def reference_split_dataset(sequences, ratio=0.2, t_max=16):
    """One Sample object per sample, positions from a per-user loop."""
    train, valid, test = [], [], []
    for user, items in sequences:
        n = len(items)
        w = withheld_count(n, ratio)
        withheld = list(range(n - w, n))
        train.extend(reference_sample(user, items, p, t_max) for p in range(1, n - w))
        valid.extend(reference_sample(user, items, p, t_max) for p in withheld[0::2])
        test.extend(reference_sample(user, items, p, t_max) for p in withheld[1::2])
    return train, valid, test


def reference_filter_sequences(rows, cfg):
    """The rarity and length filter, one Python pass per round."""
    rows = [(u, list(items)) for u, items in rows]
    while True:
        counts = {}
        for _, items in rows:
            for it in items:
                counts[it] = counts.get(it, 0) + 1
        keep_items = {it for it, c in counts.items() if c >= cfg.min_interactions}
        out = []
        for user, items in rows:
            kept = [it for it in items if it in keep_items]
            n = len(kept)
            if n < cfg.min_interactions or n < cfg.min_len or n > cfg.max_len:
                continue
            out.append((user, kept))
        if out == rows:
            return out
        rows = out


def reference_remap_items(rows):
    """Dense 1..n ids in order of first appearance, from a dict."""
    mapping = {}
    remapped = []
    for user, items in rows:
        ids = []
        for it in items:
            if it not in mapping:
                mapping[it] = len(mapping) + 1
            ids.append(mapping[it])
        remapped.append((user, ids))
    return remapped, mapping


def reference_train_portions(sequences, ratio):
    return [items[:len(items) - withheld_count(len(items), ratio)]
            for _, items in sequences]


def reference_build_adjacency(train_sequences, num_items):
    """Edges gathered in a Python set, normalized by a diagonal product."""
    n = num_items + 1
    edges = {(i, i) for i in range(1, n)}
    for seq in train_sequences:
        edges.update(zip(seq, seq[1:]))
    edge_list = sorted(edges)
    rows = np.array([e[0] for e in edge_list], dtype=np.int64)
    cols = np.array([e[1] for e in edge_list], dtype=np.int64)
    mat = sp.csr_matrix((np.ones(len(edge_list)), (rows, cols)), shape=(n, n))
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    row_sums[row_sums == 0] = 1.0
    return (sp.diags(1.0 / row_sums) @ mat).tocsr()


def augment(prefix, beta, rng):
    """augment_batch's reference: one row at a time."""
    out = prefix.copy()
    nonzero = np.flatnonzero(prefix)
    n = len(nonzero)
    if n <= 1 or beta <= 0.0:
        return out
    window = int(round(beta * n))
    if window <= 1:
        return out
    start = int(rng.integers(0, n - window + 1))
    idx = nonzero[start:start + window]
    out[idx] = out[idx][rng.permutation(window)]
    return out


def augment_row(prefix, beta, rng):
    return data.augment_batch(prefix[None, :], beta, rng)[0]


def split_arrays(sequences, ratio=0.2, t_max=16):
    """The train, valid and test ``Split`` of (user, item ids) rows, cut as
    ``build_domain`` cuts them."""
    lengths = np.array([len(items) for _, items in sequences], dtype=np.int64)
    ids = np.array([it for _, items in sequences for it in items], dtype=np.int64)
    users = np.array([u for u, _ in sequences], dtype=str)
    return data._splits(ids, lengths, users, data.split_positions(lengths, ratio), t_max)


def positions_of(n, ratio=0.2):
    """(train, valid, test) positions of one user with n interactions."""
    return tuple(pos.tolist() for _, pos in data.split_positions([n], ratio))


def index_forms(n):
    """The ways callers index a split: the full range, slices, a shuffled
    index array and an empty one."""
    return [slice(None), slice(0, n // 2), slice(n // 3, None, 2), slice(n, n + 4),
            np.random.default_rng(0).permutation(n), np.arange(0)]


def assert_split_matches(split, samples, t_max, user_dtype=None):
    """The split's gathered prefixes, its targets and its gathered users, at
    every index form, equal the reference samples'. Each gather is a fresh
    array."""
    assert len(split) == len(samples)
    prefixes = (np.stack([s.prefix for s in samples]) if samples
                else np.zeros((0, t_max), np.int64))
    targets = np.array([s.target for s in samples], dtype=np.int64)
    users = np.array([s.user_id for s in samples], dtype=object)
    for index in index_forms(len(samples)):
        got = split.prefixes(index)
        assert got.shape == (len(targets[index]), t_max) and got.dtype == np.int64
        np.testing.assert_array_equal(got, prefixes[index])
        assert got.flags.writeable and not np.shares_memory(got, split.windows)
        assert split.targets[index].dtype == np.int64
        np.testing.assert_array_equal(split.targets[index], targets[index])
        got = split.names[split.rows[index]]
        assert got.tolist() == users[index].tolist()
        assert user_dtype is None or got.dtype == user_dtype


def assert_same_csr(a, b):
    for field in ("indptr", "indices", "data"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        np.testing.assert_array_equal(x, y, err_msg=field)
    assert a.shape == b.shape and type(a) is type(b)


def assert_same_domain(a, b):
    """Every array byte and dtype, the vocabulary in order, and the CSR."""
    assert (a.domain_id, a.num_items) == (b.domain_id, b.num_items)
    assert list(a.item_tokens.items()) == list(b.item_tokens.items())
    for name in ("train", "valid", "test"):
        for field in dataclasses.fields(data.Split):
            x, y = (getattr(getattr(d, name), field.name) for d in (a, b))
            assert x.dtype == y.dtype and x.shape == y.shape, (name, field.name)
            np.testing.assert_array_equal(x, y, err_msg=f"{name}.{field.name}")
    assert_same_csr(a.adjacency, b.adjacency)


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
        codes, lengths, _ = data.code_rows(rows)
        cfg = data.DataConfig()
        once = data.filter_codes(codes, lengths, cfg)
        twice = data.filter_codes(once[0], once[1], cfg)
        np.testing.assert_array_equal(twice[0], once[0])
        np.testing.assert_array_equal(twice[1], once[1])
        np.testing.assert_array_equal(twice[2], np.arange(len(once[1])))

    def test_filtered_lengths_inside_window(self):
        rng = np.random.default_rng(6)
        rows = [
            (f"u{i}", [f"i{rng.integers(0, 30)}" for _ in range(rng.integers(3, 30))])
            for i in range(150)
        ]
        cfg = data.DataConfig()
        _, lengths, _ = data.filter_codes(*data.code_rows(rows)[:2], cfg)
        assert len(lengths) > 0
        for n in lengths.tolist():
            assert cfg.min_len <= n <= cfg.max_len
            assert n >= cfg.min_interactions

    def test_disabled_filters_keep_everything(self, tmp_path):
        p = write_lines(tmp_path, ["u1\ta b c", "u2\tb c a"])
        ds = data.load_domain(p, data.DataConfig(apply_filters=False))
        assert ds.num_items == 3
        users = np.concatenate([s.names[s.rows] for s in (ds.train, ds.valid, ds.test)])
        assert set(users.tolist()) == {"u1", "u2"}

    def test_empty_split_keeps_the_window_width(self, tmp_path):
        # two interactions per user: one valid target each, nothing else
        p = write_lines(tmp_path, ["u1\ta b", "u2\tb a"])
        ds = data.load_domain(p, data.DataConfig(apply_filters=False, t_max=7))
        assert len(ds.train) == len(ds.test) == 0 and len(ds.valid) == 2
        for split in (ds.train, ds.test):
            for index in index_forms(0):
                assert split.prefixes(index).shape == (0, 7) and split.targets.shape == (0,)
                assert split.names[split.rows[index]].shape == (0,)


class TestSplit:
    def test_ten_interaction_user(self):
        train, valid, test = positions_of(10)
        assert len(train) == 7  # 8 training interactions, 7 have a predecessor
        assert len(valid) == 1 and len(test) == 1
        assert valid[0] == 8 and test[0] == 9  # earlier withheld goes to valid

    def test_minimum_length_user_keeps_both_eval_targets(self):
        train, valid, test = positions_of(4)
        assert len(valid) == 1 and len(test) == 1
        assert len(train) == 1

    def test_splits_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(0)
        sequences = [
            (f"u{i}", [int(x) + 1 for x in rng.integers(0, 50, rng.integers(4, 17))])
            for i in range(200)
        ]
        for _, items in sequences:
            tr, va, te = positions_of(len(items))
            combined = sorted(tr + va + te)
            assert combined == list(range(1, len(items)))  # every position once
            assert not (set(tr) & set(va)) and not (set(va) & set(te))

    def test_samples_are_left_padded(self):
        train, _, _ = split_arrays([("u", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12])], t_max=16)
        first = train.prefixes(slice(1))[0]
        assert first.shape == (16,)
        assert first[-1] == 3 and first[:-1].sum() == 0
        assert train.targets[0] == 4

    @pytest.mark.parametrize("ratio", [0.0, 0.05, 0.1, 0.125, 0.2, 0.25, 0.35, 0.5, 0.75, 0.9])
    def test_withheld_counts_match_the_scalar_count(self, ratio):
        # ratio * n lands on a half for many n here, where both round to even
        lengths = np.arange(1, 2000)
        np.testing.assert_array_equal(data.withheld_counts(lengths, ratio),
                                      [withheld_count(int(n), ratio) for n in lengths])

    def test_prefix_truncated_to_window(self):
        items = list(range(1, 30))
        # 29 items withhold 6: valid positions 23, 25, 27 and test 24, 26, 28
        _, valid, _ = split_arrays([("u", items)], t_max=8)
        assert list(valid.prefixes(slice(1, 2))[0]) == items[17:25]
        assert valid.targets[1] == items[25]


class TestAdjacency:
    def test_chain_with_self_loops(self):
        adj = build_adjacency([[1, 2, 3]], num_items=3)
        dense = adj.toarray()
        np.testing.assert_allclose(dense[1], [0, 0.5, 0.5, 0])
        np.testing.assert_allclose(dense[2], [0, 0, 0.5, 0.5])
        np.testing.assert_allclose(dense[3], [0, 0, 0, 1.0])
        np.testing.assert_allclose(dense[0], 0)

    def test_no_sequences_gives_pure_self_loops(self):
        dense = build_adjacency([], num_items=4).toarray()
        np.testing.assert_allclose(dense[1:, 1:], np.eye(4))

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        seqs = [list(rng.integers(1, 21, size=rng.integers(2, 12))) for _ in range(30)]
        adj = build_adjacency(seqs, num_items=20)
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
        out = augment_row(prefix, 0.6, np.random.default_rng(0))
        np.testing.assert_array_equal(out, prefix)

    def test_beta_zero_identity(self):
        prefix = np.array([0, 1, 2, 3, 4, 5])
        out = augment_row(prefix, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, prefix)

    def test_window_multiset_preserved_over_seeds(self):
        prefix = np.array([0, 0, 0, 1, 2, 3, 4, 5])
        outside_window_moves = 0
        for seed in range(1000):
            out = augment_row(prefix, 0.6, np.random.default_rng(seed))
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
        out = augment_row(prefix, beta, np.random.default_rng(seed))
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
        expected = np.stack([augment(row, beta, ref_rng) for row in prefixes])
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
        with pytest.raises(ConfigError, match="seed"):
            data.SyntheticSpec(seed=-1).validate()

    @pytest.mark.parametrize("users", [0, -3])
    def test_no_users_rejected_before_any_draw(self, users, made_generators):
        spec = data.SyntheticSpec(users_per_domain=users)
        with pytest.raises(ConfigError, match="users_per_domain"):
            data.generate_synthetic(spec, data.DataConfig(apply_filters=False))
        assert made_generators == []

    def test_bookkeeping_matches_spec_with_filters_disabled(self):
        spec = data.SyntheticSpec(num_domains=3, items_per_domain=50,
                                  users_per_domain=200, seed=11)
        scenario = data.generate_synthetic(spec, data.DataConfig(apply_filters=False))
        assert len(scenario.domains) == 3
        for ds in scenario.domains:
            assert ds.num_items == 50
            users = set(ds.train.names[ds.train.rows].tolist())
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
        # with filters on, rare items and short users drop out of the 40-item domains
        spec = data.SyntheticSpec(items_per_domain=40, users_per_domain=150, min_len=4,
                                  seed=5)
        manifest = data.write_scenario(spec, tmp_path)
        for filters in (True, False):
            cfg = data.DataConfig(apply_filters=filters)
            loaded, direct = data.load_scenario(manifest, cfg), data.generate_synthetic(spec, cfg)
            assert len(loaded.domains) == len(direct.domains) == 3
            for a, b in zip(loaded.domains, direct.domains):
                assert_same_domain(a, b)
                assert (a.num_items < 40) == filters

    def test_smoke_scale(self):
        scenario = data.generate_synthetic(
            data.SyntheticSpec(num_domains=3, items_per_domain=200, users_per_domain=500))
        for ds in scenario.domains:
            assert ds.num_items == 200
            assert len(ds.train) > 1000
            assert len(ds.valid) > 0 and len(ds.test) > 0

    def test_more_domains_leave_the_first_domains_draws(self):
        two = data.draw_domains(data.SyntheticSpec(num_domains=2, items_per_domain=40,
                                                   users_per_domain=60, correlation=0.5, seed=8))
        four = data.draw_domains(data.SyntheticSpec(num_domains=4, items_per_domain=40,
                                                    users_per_domain=60, correlation=0.5, seed=8))
        assert list(four) == ["d0", "d1", "d2", "d3"]
        for dom in ("d0", "d1"):
            for got, expected in zip(four[dom], two[dom]):
                np.testing.assert_array_equal(got, expected)

    def test_cluster_transitions_follow_the_chain(self):
        spec = data.SyntheticSpec(num_domains=2, items_per_domain=400, users_per_domain=5000,
                                  min_len=12, max_len=16, correlation=0.5, seed=31)
        c = spec.num_clusters
        # the chains and cluster assignments, made by the generator's set-up draws
        root = np.random.SeedSequence([spec.seed, 0xDA7A])
        shared = data._peaked_chain(np.random.default_rng(root), c)
        children = root.spawn(spec.num_domains)
        for (ids, lengths), seed in zip(data.draw_domains(spec).values(), children):
            rng = np.random.default_rng(seed)
            chain = (spec.correlation * shared
                     + (1.0 - spec.correlation) * data._peaked_chain(rng, c))
            assignment = np.arange(spec.items_per_domain) % c
            rng.shuffle(assignment)
            clusters = assignment[ids]
            same_user = np.repeat(np.arange(len(lengths)), lengths)
            follows = same_user[1:] == same_user[:-1]
            counts = np.zeros((c, c))
            np.add.at(counts, (clusters[:-1][follows], clusters[1:][follows]), 1)
            n = counts.sum(axis=1, keepdims=True)
            assert n.sum() == lengths.sum() - len(lengths) > 60000
            # five standard errors of a share out of n draws, at the widest: p(1 - p) <= 1/4
            bound = 5 * 0.5 / np.sqrt(n)
            assert (np.abs(counts / n - chain) <= bound).all(), np.abs(counts / n - chain).max()


def test_domain_seed_keyed_rng_streams_reproducible():
    a = data.generate_raw_sequences(data.SyntheticSpec(users_per_domain=20, seed=1))
    b = data.generate_raw_sequences(data.SyntheticSpec(users_per_domain=20, seed=1))
    c = data.generate_raw_sequences(data.SyntheticSpec(users_per_domain=20, seed=2))
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# the array code against the reference implementations
# ---------------------------------------------------------------------------

EQUALITY_SPECS = {
    "correlation 0": data.SyntheticSpec(num_domains=2, items_per_domain=40, users_per_domain=60,
                                        correlation=0.0, seed=21),
    "correlation 0.5": data.SyntheticSpec(num_domains=3, items_per_domain=40,
                                          users_per_domain=60, correlation=0.5, seed=22),
    "correlation 1": data.SyntheticSpec(num_domains=2, items_per_domain=40, users_per_domain=60,
                                        correlation=1.0, seed=23),
    # 60 items over 8 clusters: four clusters of 8 members, four of 7
    "60 items, 8 clusters": data.SyntheticSpec(num_domains=2, items_per_domain=60,
                                               users_per_domain=80, num_clusters=8,
                                               correlation=0.7, seed=24),
    "min_len == max_len": data.SyntheticSpec(num_domains=2, items_per_domain=30,
                                             users_per_domain=50, min_len=6, max_len=6,
                                             num_clusters=3, seed=25),
    "one-member clusters": data.SyntheticSpec(num_domains=2, items_per_domain=9,
                                              users_per_domain=30, min_len=2, max_len=9,
                                              num_clusters=5, correlation=0.3, seed=26),
}

# (t_max, eval_ratio, apply_filters); t_max 5 is shorter than every history
SPLIT_CONFIGS = [(16, 0.2, False), (5, 0.2, False), (16, 0.35, False), (5, 0.35, True)]


@pytest.fixture
def made_generators(monkeypatch):
    """Every Generator that np.random.default_rng makes, in order."""
    made = []
    real = np.random.default_rng

    def default_rng(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made


def assert_generator_matches_the_scalar_loop(spec, made_generators):
    """The scenario, and every generator's final state, of the array draws
    and of ``reference_raw_sequences``."""
    expected = reference_raw_sequences(spec)
    count = len(made_generators)
    got = data.generate_raw_sequences(spec)
    assert got == expected
    assert len(made_generators) == 2 * count == 2 * (1 + spec.num_domains)
    for ref_rng, rng in zip(made_generators[:count], made_generators[count:]):
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMatchesReference:
    @pytest.mark.parametrize("name", sorted(EQUALITY_SPECS))
    def test_generator_matches_the_scalar_loop(self, name, made_generators):
        assert_generator_matches_the_scalar_loop(EQUALITY_SPECS[name], made_generators)

    @given(st.data(), st.integers(2, 3), st.integers(2, 8), st.integers(1, 60),
           st.integers(1, 8), st.integers(0, 8), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_specs_match_the_scalar_loop(self, draw, domains, clusters, users,
                                                min_len, extra, correlation, seed):
        # items_per_domain may equal the cluster count: one-member clusters
        spec = data.SyntheticSpec(num_domains=domains, num_clusters=clusters,
                                  items_per_domain=draw.draw(st.integers(clusters, 80)),
                                  users_per_domain=users, min_len=min_len,
                                  max_len=min_len + extra, correlation=correlation, seed=seed)
        made = []
        real = np.random.default_rng
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "default_rng", lambda *a: made.append(real(*a)) or made[-1])
            assert_generator_matches_the_scalar_loop(spec, made)

    @pytest.mark.parametrize("t_max, ratio, filters", SPLIT_CONFIGS)
    @pytest.mark.parametrize("name", sorted(EQUALITY_SPECS))
    def test_splits_and_adjacency_match(self, name, t_max, ratio, filters):
        cfg = data.DataConfig(t_max=t_max, eval_ratio=ratio, apply_filters=filters,
                              min_interactions=2, min_len=2)
        for domain_id, rows in data.generate_raw_sequences(EQUALITY_SPECS[name]).items():
            assert_matches_reference(data.build_domain_dataset(domain_id, rows, cfg),
                                     reference_domain(domain_id, rows, cfg), cfg.t_max)

    def test_split_of_uneven_users(self):
        # lengths 1 and 2 give empty splits; long users are cut to t_max
        sequences = [(f"u{n}", list(range(1, n + 1))) for n in (1, 2, 3, 4, 9, 20, 31)]
        for t_max in (1, 4, 16):
            got = split_arrays(sequences, 0.3, t_max)
            for split, samples in zip(got, reference_split_dataset(sequences, 0.3, t_max)):
                assert_split_matches(split, samples, t_max)

    @pytest.mark.parametrize("seed", range(5))
    def test_adjacency_of_random_runs(self, seed):
        rng = np.random.default_rng(seed)
        seqs = [list(rng.integers(1, 31, size=rng.integers(0, 12))) for _ in range(40)]
        assert_same_csr(build_adjacency(seqs, 30), reference_build_adjacency(seqs, 30))

    def test_adjacency_without_runs(self):
        assert_same_csr(build_adjacency([], 4), reference_build_adjacency([], 4))


@dataclasses.dataclass
class ReferenceDomain:
    domain_id: str
    num_items: int
    splits: tuple  # train, valid and test, each a list of Sample
    user_dtype: np.dtype
    adjacency: sp.csr_matrix
    item_tokens: dict


def reference_domain(domain_id, rows, cfg):
    """``build_domain_dataset`` from the per-row references."""
    if cfg.apply_filters:
        rows = reference_filter_sequences(rows, cfg)
    if not rows:
        raise EmptyDatasetError(f"domain {domain_id!r}: no users survive preprocessing")
    remapped, mapping = reference_remap_items(rows)
    # every split's users take the width of the longest surviving user id
    width = np.array([u for u, _ in remapped], dtype=str).dtype
    splits = reference_split_dataset(remapped, cfg.eval_ratio, cfg.t_max)
    adjacency = reference_build_adjacency(reference_train_portions(remapped, cfg.eval_ratio),
                                          len(mapping))
    return ReferenceDomain(domain_id, len(mapping), splits, width, adjacency, mapping)


def assert_matches_reference(ds, ref, t_max):
    """Every split's gathers against the reference samples, the vocabulary
    in order, and the CSR."""
    assert (ds.domain_id, ds.num_items) == (ref.domain_id, ref.num_items)
    assert list(ds.item_tokens.items()) == list(ref.item_tokens.items())
    for split, samples in zip((ds.train, ds.valid, ds.test), ref.splits):
        assert_split_matches(split, samples, t_max, ref.user_dtype)
    assert_same_csr(ds.adjacency, ref.adjacency)


def assert_builds_like_reference(int_rows, cfg):
    """``build_domain`` on integer item codes, as the generator calls it,
    and ``build_domain_dataset`` on their tokens ``i{code}``, as a loaded
    file is built, against the per-row references. Returns the first
    build, or None when no user survives."""
    rows = [(u, [f"i{c}" for c in items]) for u, items in int_rows]
    codes = np.array([c for _, items in int_rows for c in items], dtype=np.int64)
    lengths = np.array([len(items) for _, items in int_rows], dtype=np.int64)
    builds = [lambda: data.build_domain("d", codes, lengths, cfg, lambda u: int_rows[u][0],
                                        "i{}".format),
              lambda: data.build_domain_dataset("d", rows, cfg)]
    try:
        expected = reference_domain("d", rows, cfg)
    except EmptyDatasetError as exc:
        for build in builds:
            with pytest.raises(EmptyDatasetError) as err:
                build()
            assert str(err.value) == str(exc)
        return None
    built = [build() for build in builds]
    for ds in built:
        assert_matches_reference(ds, expected, cfg.t_max)
    assert_same_domain(*built)
    return built[0]


# the user with the longest id survives the first pass, which drops the long
# user "b"; without b, items 1 and 2 are rare and the first user falls short
SECOND_PASS_ROWS = [("long-user-id", [1, 2, 7]), ("b", [1, 2, 1, 2, 1, 2]),
                    ("c", [7, 8, 7, 8]), ("d", [8, 7])]
SECOND_PASS_CONFIG = data.DataConfig(min_interactions=2, min_len=2, max_len=4, t_max=3)


class TestBuilderMatchesReference:
    @given(st.lists(st.tuples(st.text("ab", min_size=1, max_size=8),
                              st.lists(st.integers(0, 11), min_size=1, max_size=18)),
                    max_size=25, unique_by=lambda row: row[0]),
           st.builds(data.DataConfig, min_interactions=st.integers(1, 5),
                     min_len=st.integers(1, 5), max_len=st.integers(1, 16),
                     eval_ratio=st.sampled_from([0.2, 0.35, 0.5]), t_max=st.integers(1, 6),
                     apply_filters=st.booleans()))
    @example(SECOND_PASS_ROWS, SECOND_PASS_CONFIG)
    @example([("u1", [1, 2, 3]), ("u22", [3, 4, 5, 6])], data.DataConfig(min_interactions=3))
    @settings(max_examples=300, deadline=None)
    def test_random_rows(self, int_rows, cfg):
        assert_builds_like_reference(int_rows, cfg)

    def test_user_dropped_in_the_second_pass(self):
        # in the first pass every item of the first user occurs twice or more
        counts = collections.Counter(i for _, items in SECOND_PASS_ROWS for i in items)
        assert min(counts[i] for i in SECOND_PASS_ROWS[0][1]) >= 2
        ds = assert_builds_like_reference(SECOND_PASS_ROWS, SECOND_PASS_CONFIG)
        users = np.concatenate([s.names[s.rows] for s in (ds.train, ds.valid, ds.test)])
        assert set(users.tolist()) == {"c", "d"} and users.dtype == np.dtype("<U1")

    def test_every_user_filtered_out(self):
        rows = [("u1", [1, 2, 3]), ("u22", [3, 4, 5, 6])]
        assert assert_builds_like_reference(rows, data.DataConfig(min_interactions=3)) is None
        with pytest.raises(EmptyDatasetError, match="^domain 'd': no users survive"):
            data.build_domain_dataset("d", [(u, [str(i) for i in items]) for u, items in rows],
                                      data.DataConfig(min_interactions=3))


# SHA-256 over each written file's name and bytes, in name order
WRITTEN_SCENARIO_SHA256 = [
    (data.SyntheticSpec(items_per_domain=30, users_per_domain=60, seed=9),
     "63bc96fddb53160c91d53e66f41fcfe1002543d9494846f4af61b1e77da2c83e"),
    (data.SyntheticSpec(num_domains=2, items_per_domain=60, users_per_domain=40, min_len=3,
                        max_len=20, num_clusters=8, correlation=0.5, seed=3),
     "62314f8b3dcf9010613817a07b4d5c3e180f5b4687eb3fb59e792ce273800959"),
    (data.SyntheticSpec(num_domains=4, items_per_domain=17, users_per_domain=25, min_len=5,
                        max_len=5, num_clusters=3, correlation=0.0, seed=12345),
     "3aae2ebe7bf89a1d83bbd496b242bc4f385206128fda4712398b722fd2d81e35"),
    # the eval_catalog benchmark's scenario at seed 101
    (data.SyntheticSpec(num_domains=3, items_per_domain=1000, users_per_domain=2000,
                        min_len=10, max_len=16, num_clusters=8, correlation=1.0, seed=101),
     "8fb77873c438ce7d1dfa69402e43f85e34e07a90ec1a0a8d58bc26d90d21ab61"),
]


@pytest.mark.parametrize("spec, digest", WRITTEN_SCENARIO_SHA256,
                         ids=[f"spec{i}" for i in range(len(WRITTEN_SCENARIO_SHA256))])
def test_written_scenario_bytes_pinned(tmp_path, spec, digest):
    data.write_scenario(spec, tmp_path)
    h = hashlib.sha256()
    for f in sorted(tmp_path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    assert h.hexdigest() == digest


class TestSplitArrays:
    @pytest.fixture
    def ds(self):
        return data.generate_synthetic(
            data.SyntheticSpec(items_per_domain=30, users_per_domain=60, seed=9)).domains[0]

    def test_split_arrays_are_read_only(self, ds):
        for split in (ds.train, ds.valid, ds.test):
            for a in [getattr(split, f.name) for f in dataclasses.fields(split)] + [
                    owner(split.windows)]:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[-1]

    def test_accessors_return_the_stored_arrays(self, ds):
        """The three splits share one matrix and one user-name array;
        ``eval_split`` returns the stored split and a gather is a fresh copy."""
        for name in ("valid", "test"):
            assert ds.eval_split(name) is getattr(ds, name)
        for split in (ds.valid, ds.test):
            assert split.windows is ds.train.windows and split.names is ds.train.names
        batch = ds.train.prefixes(np.arange(4))
        assert not np.shares_memory(batch, ds.train.windows)
        batch[:] = -1
        assert (ds.train.prefixes(np.arange(4)) >= 0).all()

    @pytest.mark.parametrize("split", ["train", "tst", "adjacency", "", "VALID"])
    def test_eval_split_rejects_other_names(self, ds, split):
        with pytest.raises(ValueError, match=f"no evaluation split {split!r}"):
            ds.eval_split(split)


class TestSplitMemory:
    """A split holds sample indices into its domain's one item matrix, so a
    domain's memory grows with its interactions, not with samples x t_max."""

    @pytest.mark.parametrize("t_max", [4, 16])
    def test_no_split_holds_a_row_per_sample(self, t_max):
        scenario = data.generate_synthetic(
            data.SyntheticSpec(items_per_domain=40, users_per_domain=80, seed=4),
            data.DataConfig(t_max=t_max, apply_filters=False))
        users = 80  # every user survives without filters
        for ds in scenario.domains:
            assert len(ds.train) > users
            for split in (ds.train, ds.valid, ds.test):
                for a in split_held_arrays(split):
                    assert not (a.ndim == 2 and a.shape == (len(split), t_max)), a.shape
                    assert a.dtype.kind != "U" or a.shape == (users,), a.shape

    def test_retained_bytes_grow_with_interactions_not_windows(self):
        """Raising t_max from 4 to 64 adds 60 padding columns per user to
        the shared matrix and nothing per sample."""
        codes, lengths = data.draw_domains(data.SyntheticSpec(
            items_per_domain=40, users_per_domain=300, seed=6))["d0"]
        results = {}
        for t_max in (4, 64):
            cfg = data.DataConfig(t_max=t_max, apply_filters=False)
            results[t_max] = traced_memory(lambda: data.build_domain(
                "d0", codes, lengths, cfg, "u{}".format, "i{}".format))
        (small, small_kept, small_peak), (large, large_kept, large_peak) = results.values()
        samples = sum(len(s) for s in (large.train, large.valid, large.test))
        padding = 8 * len(lengths) * 60
        assert samples > 10 * len(lengths)
        assert large_kept - small_kept <= padding + 4096
        assert large_peak - small_peak <= padding + 4096
        assert (held_bytes(large.train, large.valid, large.test)
                - held_bytes(small.train, small.valid, small.test)) == padding
