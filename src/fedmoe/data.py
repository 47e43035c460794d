"""Dataset ingestion and preprocessing.

Canonical domain file: UTF-8 text, one user per line,
``user_id<TAB>item item item ...`` with space-separated raw item tokens
in time order. A scenario manifest (JSON) lists domain ids and file
paths. The synthetic generator writes the same format, so generated and
user-supplied scenarios go through one pipeline.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, EmptyDatasetError, ParseError


@dataclasses.dataclass(frozen=True)
class DataConfig:
    min_interactions: int = 10   # iterative user/item floor
    min_len: int = 4
    max_len: int = 16
    eval_ratio: float = 0.2
    t_max: int = 16
    apply_filters: bool = True


@dataclasses.dataclass(frozen=True)
class SequenceSample:
    user_id: str
    prefix: np.ndarray  # length t_max, left-padded with 0
    target: int


@dataclasses.dataclass
class DomainDataset:
    domain_id: str
    num_items: int  # item ids are 1..num_items, 0 is padding
    train: list[SequenceSample]
    valid: list[SequenceSample]
    test: list[SequenceSample]
    adjacency: sp.csr_matrix  # (num_items + 1)^2, row-normalized, row 0 empty
    item_tokens: dict[str, int] = dataclasses.field(default_factory=dict)
    _train_arrays: tuple | None = dataclasses.field(default=None, repr=False)

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (prefixes, targets) for minibatching."""
        if self._train_arrays is None:
            self._train_arrays = _stack(self.train)
        return self._train_arrays

    def eval_arrays(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        return _stack(getattr(self, split))


def _stack(samples: list[SequenceSample]) -> tuple[np.ndarray, np.ndarray]:
    prefixes = np.stack([s.prefix for s in samples]) if samples else np.zeros((0, 1), np.int64)
    targets = np.array([s.target for s in samples], dtype=np.int64)
    return prefixes, targets


@dataclasses.dataclass
class ScenarioSpec:
    domains: list[DomainDataset]
    seed: int

    def __post_init__(self):
        ids = [d.domain_id for d in self.domains]
        if len(ids) != len(set(ids)):
            raise ConfigError(f"duplicate domain ids: {ids}")
        if len(ids) < 2:
            raise ConfigError("a scenario needs at least 2 domains")
        seen: dict[str, str] = {}
        for d in self.domains:
            for token in d.item_tokens:
                if token in seen:
                    raise ConfigError(
                        f"item token {token!r} appears in both {seen[token]!r} and "
                        f"{d.domain_id!r}; vocabularies must be disjoint"
                    )
                seen[token] = d.domain_id

    @property
    def domain_ids(self) -> list[str]:
        return [d.domain_id for d in self.domains]


# ---------------------------------------------------------------------------
# parsing and filtering
# ---------------------------------------------------------------------------


def parse_domain_file(path) -> list[tuple[str, list[str]]]:
    rows: list[tuple[str, list[str]]] = []
    seen_users: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ParseError(path, line_no, "expected 'user<TAB>item item ...'")
            user, _, rest = line.partition("\t")
            items = rest.split()
            if not user or not items:
                raise ParseError(path, line_no, "missing user id or item list")
            if user in seen_users:
                raise ParseError(path, line_no, f"duplicate user id {user!r}")
            seen_users.add(user)
            rows.append((user, items))
    return rows


def filter_sequences(rows: list[tuple[str, list[str]]], cfg: DataConfig
                     ) -> list[tuple[str, list[str]]]:
    """Iterate rarity and length rules until nothing changes.

    Items with fewer than min_interactions occurrences are dropped from
    all sequences, users falling under the floor or outside the length
    window are dropped, and the pass repeats: the output is a fixed
    point of the filter.
    """
    rows = [(u, list(items)) for u, items in rows]
    while True:
        counts: dict[str, int] = {}
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


def remap_items(rows: list[tuple[str, list[str]]]
                ) -> tuple[list[tuple[str, list[int]]], dict[str, int]]:
    """Dense 1..n ids in order of first appearance."""
    mapping: dict[str, int] = {}
    remapped = []
    for user, items in rows:
        ids = []
        for it in items:
            if it not in mapping:
                mapping[it] = len(mapping) + 1
            ids.append(mapping[it])
        remapped.append((user, ids))
    return remapped, mapping


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def withheld_count(n: int, ratio: float = 0.2) -> int:
    """Interactions held out per user: the latest share, at least one
    validation and one test target."""
    return min(n - 1, max(2, round(ratio * n)))


def split_user(items: list[int], ratio: float = 0.2) -> tuple[list[int], list[int], list[int]]:
    """(train positions, valid positions, test positions) as indices into items."""
    n = len(items)
    w = withheld_count(n, ratio)
    withheld = list(range(n - w, n))
    valid = withheld[0::2]
    test = withheld[1::2]
    train = list(range(1, n - w))
    return train, valid, test


def _sample(user: str, items: list[int], pos: int, t_max: int) -> SequenceSample:
    prefix = items[:pos][-t_max:]
    padded = np.zeros(t_max, dtype=np.int64)
    padded[t_max - len(prefix):] = prefix
    return SequenceSample(user, padded, items[pos])


def split_dataset(sequences: list[tuple[str, list[int]]], ratio: float = 0.2,
                  t_max: int = 16) -> tuple[list[SequenceSample], list[SequenceSample], list[SequenceSample]]:
    """Latest-share split: the last interactions of each user alternate
    into validation (earlier) and test (later); every earlier position
    with at least one predecessor becomes a training sample."""
    train, valid, test = [], [], []
    for user, items in sequences:
        tr, va, te = split_user(items, ratio)
        train.extend(_sample(user, items, p, t_max) for p in tr)
        valid.extend(_sample(user, items, p, t_max) for p in va)
        test.extend(_sample(user, items, p, t_max) for p in te)
    return train, valid, test


def train_portions(sequences: list[tuple[str, list[int]]], ratio: float = 0.2
                   ) -> list[list[int]]:
    """The per-user item runs the adjacency may be built from."""
    portions = []
    for _, items in sequences:
        w = withheld_count(len(items), ratio)
        portions.append(items[:len(items) - w])
    return portions


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------


def build_adjacency(train_sequences: list[list[int]], num_items: int) -> sp.csr_matrix:
    """Directed next-item transitions from training runs only.

    Every item row gets a self loop, then rows are mean-normalized to
    sum to one. Row and column 0 (padding) stay empty.
    """
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


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def augment(prefix: np.ndarray, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Shuffle a contiguous window covering a beta share of the real items.

    Padding stays in place and the item multiset is preserved; the
    window start is uniform over valid offsets.
    """
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


def augment_batch(prefixes: np.ndarray, beta: float, rng: np.random.Generator) -> np.ndarray:
    """augment applied to every row of a (batch, T) matrix.

    The draws are augment's, one integers and one permutation call per
    shuffled row in row order, so the output and the rng's state match the
    row-by-row loop; item counts, windows and index sets are computed for
    the whole batch and the rows written by one fancy-index assignment.
    """
    out = prefixes.copy()
    if beta <= 0.0:
        return out
    present = prefixes != 0
    n = present.sum(axis=1)
    window = np.round(beta * n).astype(np.int64)
    shuffled = np.flatnonzero((n > 1) & (window > 1))
    if not shuffled.size:
        return out
    starts = np.empty(shuffled.size, dtype=np.int64)
    perms = []
    for j, i in enumerate(shuffled):
        w = int(window[i])
        starts[j] = rng.integers(0, int(n[i]) - w + 1)
        perms.append(rng.permutation(w))
    # positions of each row's items, in order, ahead of its padding
    order = np.argsort(~present, axis=1, kind="stable")
    w = window[shuffled]
    rows = np.repeat(shuffled, w)
    first = np.repeat(starts, w)
    offsets = np.arange(rows.size) - np.repeat(np.cumsum(w) - w, w)
    src = order[rows, first + np.concatenate(perms)]
    out[rows, order[rows, first + offsets]] = prefixes[rows, src]
    return out


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def build_domain_dataset(domain_id: str, rows: list[tuple[str, list[str]]],
                         cfg: DataConfig) -> DomainDataset:
    if cfg.apply_filters:
        rows = filter_sequences(rows, cfg)
    if not rows:
        raise EmptyDatasetError(f"domain {domain_id!r}: no users survive preprocessing")
    remapped, mapping = remap_items(rows)
    train, valid, test = split_dataset(remapped, cfg.eval_ratio, cfg.t_max)
    adjacency = build_adjacency(train_portions(remapped, cfg.eval_ratio), len(mapping))
    return DomainDataset(domain_id, len(mapping), train, valid, test, adjacency, mapping)


def load_domain(path, cfg: DataConfig | None = None, domain_id: str | None = None) -> DomainDataset:
    cfg = cfg or DataConfig()
    domain_id = domain_id or Path(path).stem
    return build_domain_dataset(domain_id, parse_domain_file(path), cfg)


def load_scenario(manifest_path, cfg: DataConfig | None = None, seed: int = 0) -> ScenarioSpec:
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    domains = []
    for entry in manifest["domains"]:
        path = Path(entry["path"])
        if not path.is_absolute():
            path = manifest_path.parent / path
        domains.append(load_domain(path, cfg, domain_id=entry["id"]))
    return ScenarioSpec(domains, seed=manifest.get("seed", seed))


# ---------------------------------------------------------------------------
# synthetic scenarios
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    """Cross-domain generator driven by one latent cluster chain.

    Each domain assigns its (disjoint) items to the shared clusters and
    walks a cluster-level Markov chain that interpolates between the
    shared dynamics and a private one: correlation 1.0 means all domains
    follow the same latent process, 0.0 means independent processes.
    """

    num_domains: int = 3
    items_per_domain: int = 200
    users_per_domain: int = 500
    min_len: int = 10
    max_len: int = 16
    num_clusters: int = 8
    correlation: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.num_domains < 2:
            raise ConfigError("synthetic scenario needs at least 2 domains")
        if self.num_clusters < 2:
            raise ConfigError("latent chain needs at least 2 clusters")
        if not 0.0 <= self.correlation <= 1.0:
            raise ConfigError("correlation must lie in [0, 1]")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError(f"bad length range [{self.min_len}, {self.max_len}]")
        if self.items_per_domain < self.num_clusters:
            raise ConfigError("need at least one item per cluster")


def _peaked_chain(rng: np.random.Generator, c: int) -> np.ndarray:
    """Row-stochastic matrix with one dominant successor per cluster."""
    q = rng.dirichlet(np.full(c, 0.3), size=c)
    favorite = rng.permutation(c)
    q = 0.25 * q
    q[np.arange(c), favorite] += 0.75
    return q


def generate_raw_sequences(spec: SyntheticSpec) -> dict[str, list[tuple[str, list[str]]]]:
    """Raw per-domain rows with globally disjoint item tokens."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    c = spec.num_clusters
    shared = _peaked_chain(rng, c)
    scenario: dict[str, list[tuple[str, list[str]]]] = {}
    for d in range(spec.num_domains):
        domain_id = f"d{d}"
        private = _peaked_chain(rng, c)
        chain = spec.correlation * shared + (1.0 - spec.correlation) * private
        clusters = np.arange(spec.items_per_domain) % c
        rng.shuffle(clusters)
        members = [np.flatnonzero(clusters == k) for k in range(c)]
        rows = []
        for u in range(spec.users_per_domain):
            length = int(rng.integers(spec.min_len, spec.max_len + 1))
            k = int(rng.integers(c))
            items = []
            for _ in range(length):
                item = int(rng.choice(members[k]))
                items.append(f"{domain_id}:i{item}")
                k = int(rng.choice(c, p=chain[k]))
            rows.append((f"{domain_id}:u{u}", items))
        scenario[domain_id] = rows
    return scenario


def generate_synthetic(spec: SyntheticSpec, cfg: DataConfig | None = None) -> ScenarioSpec:
    cfg = cfg or DataConfig()
    raw = generate_raw_sequences(spec)
    domains = [build_domain_dataset(dom, rows, cfg) for dom, rows in raw.items()]
    return ScenarioSpec(domains, seed=spec.seed)


def write_scenario(spec: SyntheticSpec, out_dir) -> Path:
    """Write canonical domain files plus a manifest; byte-identical for
    equal specs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = generate_raw_sequences(spec)
    entries = []
    for domain_id, rows in raw.items():
        fname = f"{domain_id}.txt"
        with open(out_dir / fname, "w", encoding="utf-8", newline="\n") as fh:
            for user, items in rows:
                fh.write(f"{user}\t{' '.join(items)}\n")
        entries.append({"id": domain_id, "path": fname})
    manifest = out_dir / "scenario.json"
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"seed": spec.seed, "domains": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
