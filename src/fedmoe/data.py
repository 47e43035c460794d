"""Dataset ingestion and preprocessing.

Canonical domain file: UTF-8 text, one user per line,
``user_id<TAB>item item item ...`` with space-separated raw item tokens
in time order. A scenario manifest (JSON) lists domain ids and file
paths. The synthetic generator writes the same format, so generated and
user-supplied scenarios go through one pipeline.

That pipeline works on integer arrays: a domain's item codes, flattened
in user order, and its users' lengths. A parsed file's tokens are coded
0, 1, ... by first appearance (``code_rows``); the generator hands over
the item ids it drew and makes no token for a dropped item. One builder
(``build_domain``) takes the arrays from there. It runs the rarity and
length filter as ``bincount`` passes to a fixed point, numbers the
surviving items 1..n by first appearance in one ``np.minimum.at`` pass,
and cuts each split (``Split``, three read-only arrays) by one fancy
index from a padded item matrix. The adjacency's edges are each training
target and the item before it, deduplicated by one sort over integer
codes. Strings are made only for surviving users and items.

The synthetic generator draws each domain from its own generator, in
arrays: every user's length, start cluster and chain uniforms at once,
the cluster chain stepped for all users one position at a time, and one
member draw per item (``draw_domains``).
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable
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
class Split:
    """One split's samples as read-only arrays, in user order and, within
    a user, in position order.

    ``prefixes`` is (n, t_max) int64: row i holds the items before the
    target, the latest t_max of them, left-padded with 0. ``targets`` is
    (n,) int64, the item at that position. ``users`` is (n,), the user id
    of each sample. ``len()`` is the sample count.
    """

    prefixes: np.ndarray
    targets: np.ndarray
    users: np.ndarray

    def __post_init__(self):
        for a in (self.prefixes, self.targets, self.users):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.targets)


@dataclasses.dataclass
class DomainDataset:
    """One domain's vocabulary, splits and training-run adjacency.

    Each split is a ``Split`` whose arrays are built once and cannot be
    written; ``train_arrays`` and ``eval_arrays`` return them, not copies.
    """

    domain_id: str
    num_items: int  # item ids are 1..num_items, 0 is padding
    train: Split
    valid: Split
    test: Split
    adjacency: sp.csr_matrix  # (num_items + 1)^2, row-normalized, row 0 empty
    item_tokens: dict[str, int] = dataclasses.field(default_factory=dict)

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(prefixes, targets) of the training split, for minibatching."""
        return self.train.prefixes, self.train.targets

    def eval_arrays(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """(prefixes, targets) of ``split``, "valid" or "test"."""
        s = getattr(self, split)
        return s.prefixes, s.targets


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


def code_rows(rows: list[tuple[str, list[str]]]
              ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Parsed rows as flat integer codes, numbered 0, 1, ... in order of
    first appearance, the rows' lengths, and the token of each code."""
    vocab: dict[str, int] = {}
    codes = [vocab.setdefault(it, len(vocab)) for _, items in rows for it in items]
    lengths = [len(items) for _, items in rows]
    return np.array(codes, dtype=np.int64), np.array(lengths, dtype=np.int64), list(vocab)


def filter_codes(codes: np.ndarray, lengths: np.ndarray, cfg: DataConfig
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate rarity and length rules until nothing changes.

    ``codes`` holds every user's item codes, flattened in user order, and
    ``lengths`` the users' counts. Items with fewer than min_interactions
    occurrences are dropped from all sequences, users falling under the
    floor or outside the length window are dropped, and the pass repeats:
    the output is a fixed point of the filter. Returns the surviving
    codes, the surviving users' lengths and their row indices.
    """
    user_of = np.repeat(np.arange(len(lengths)), lengths)
    alive = np.ones(len(codes), dtype=bool)
    users = np.ones(len(lengths), dtype=bool)
    vocab = int(codes.max(initial=-1)) + 1
    floor = max(cfg.min_interactions, cfg.min_len)
    while True:
        common = np.bincount(codes[alive], minlength=vocab) >= cfg.min_interactions
        kept = alive & common[codes]
        n = np.bincount(user_of[kept], minlength=len(lengths))
        ok = users & (n >= floor) & (n <= cfg.max_len)
        kept &= ok[user_of]
        # each pass only removes, so equal counts mean nothing changed
        if (np.count_nonzero(kept) == np.count_nonzero(alive)
                and np.count_nonzero(ok) == np.count_nonzero(users)):
            return codes[alive], n[users], np.flatnonzero(users)
        alive, users = kept, ok


def first_appearance(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in order of first appearance, and each entry's
    dense id 1..n in that order."""
    n = len(codes)
    vocab = int(codes.max(initial=-1)) + 1
    first = np.full(vocab, n)
    np.minimum.at(first, codes, np.arange(n))
    present = np.flatnonzero(first < n)
    order = present[np.argsort(first[present])]
    dense = np.zeros(vocab, dtype=np.int64)
    dense[order] = np.arange(1, len(order) + 1)
    return order, dense[codes]


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def withheld_counts(lengths: np.ndarray, ratio: float = 0.2) -> np.ndarray:
    """Interactions held out per user of each length: the latest share,
    rounded half to even, at least one validation and one test target."""
    return np.minimum(lengths - 1, np.maximum(2, np.round(ratio * lengths))).astype(np.int64)


def split_positions(lengths, ratio: float = 0.2
                    ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(user rows, positions) of the train, valid and test samples of users
    with these sequence lengths, each in user order then position order.

    A user's last ``withheld_counts`` positions alternate into valid
    (earlier) and test (later); every earlier position with at least one
    predecessor is a training sample.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    withheld = withheld_counts(lengths, ratio)
    first = lengths - withheld
    return (_runs(np.ones_like(first), first - 1, 1),
            _runs(first, (withheld + 1) // 2, 2),
            _runs(first + 1, withheld // 2, 2))


def _runs(start: np.ndarray, count: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Row r repeated count[r] times, with positions start[r] + step * j."""
    rows = np.repeat(np.arange(len(count)), count)
    offsets = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    return rows, np.repeat(start, count) + step * offsets


def _splits(ids: np.ndarray, lengths: np.ndarray, users: np.ndarray, positions, t_max: int
         ) -> tuple[Split, Split, Split]:
    """The splits at ``positions`` (``split_positions``) of the users'
    flattened item ids.

    The items go into one (users, t_max + longest) matrix, row u holding
    t_max zeros and then user u's items, zero-filled on the right. The
    prefix of position p is then the t_max-wide window at column p and
    its target column t_max + p, so each split is one fancy index.
    """
    longest = int(lengths.max(initial=0))
    matrix = np.zeros((len(lengths), t_max + longest), dtype=np.int64)
    matrix[:, t_max:][np.arange(longest) < lengths[:, None]] = ids
    windows = np.lib.stride_tricks.sliding_window_view(matrix, t_max, axis=1)
    return tuple(Split(windows[r, p], matrix[r, t_max + p], users[r]) for r, p in positions)


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------


def transition_adjacency(src: np.ndarray, dst: np.ndarray, num_items: int) -> sp.csr_matrix:
    """Directed next-item transitions src -> dst, from training runs only.

    Every item row gets a self loop, then rows are mean-normalized to
    sum to one. Row and column 0 (padding) stay empty. Within a row the
    columns run in descending order, the order earlier releases stored,
    so that sparse products sum in the same order.
    """
    n = num_items + 1
    loops = np.arange(1, n)
    src = np.concatenate([loops, src])
    dst = np.concatenate([loops, dst])
    # one code per edge, ordered by source row and then by descending column
    codes = np.sort(src * n + (n - 1 - dst))
    codes = codes[np.diff(codes, prepend=-1) != 0]
    rows = codes // n
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    data = 1.0 / counts[rows]
    return sp.csr_matrix((data, n - 1 - codes % n, indptr), shape=(n, n))


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def augment_batch(prefixes: np.ndarray, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Shuffle, in each row of a left-padded (batch, T) matrix, a contiguous
    window covering a beta share of the row's real items.

    Padding stays in place and each row's item multiset is preserved; a
    row with a window of at most one item is unchanged. The window start
    is uniform over valid offsets. The draws are one integers and one
    permutation call per shuffled row, in row order; item counts, windows
    and index sets are computed for the whole batch and the rows written
    by one fancy-index assignment.
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


def build_domain(domain_id: str, codes: np.ndarray, lengths: np.ndarray, cfg: DataConfig,
                 user_id: Callable[[int], str], item_token: Callable[[int], str]
                 ) -> DomainDataset:
    """A domain from its users' integer item codes, flattened in user
    order, and the users' lengths.

    Filters (``filter_codes``), gives the surviving items dense ids in
    order of first appearance, splits, and builds the adjacency from the
    training targets and the items before them. ``user_id(row)`` and
    ``item_token(code)`` name the surviving users and items, and are called
    for those only.
    """
    users = np.arange(len(lengths))
    if cfg.apply_filters:
        codes, lengths, users = filter_codes(codes, lengths, cfg)
    if not len(users):
        raise EmptyDatasetError(f"domain {domain_id!r}: no users survive preprocessing")
    order, ids = first_appearance(codes)
    positions = split_positions(lengths, cfg.eval_ratio)
    names = np.array([user_id(u) for u in users.tolist()], dtype=str)
    train, valid, test = _splits(ids, lengths, names, positions, cfg.t_max)
    rows, pos = positions[0]
    at = (np.cumsum(lengths) - lengths)[rows] + pos  # the training targets in ids
    adjacency = transition_adjacency(ids[at - 1], ids[at], len(order))
    item_tokens = dict(zip(map(item_token, order.tolist()), range(1, len(order) + 1)))
    return DomainDataset(domain_id, len(order), train, valid, test, adjacency, item_tokens)


def build_domain_dataset(domain_id: str, rows: list[tuple[str, list[str]]],
                         cfg: DataConfig) -> DomainDataset:
    """``build_domain`` of parsed rows, their tokens coded by first
    appearance."""
    codes, lengths, tokens = code_rows(rows)
    return build_domain(domain_id, codes, lengths, cfg, lambda u: rows[u][0],
                        tokens.__getitem__)


def load_domain(path, cfg: DataConfig | None = None, domain_id: str | None = None) -> DomainDataset:
    cfg = cfg or DataConfig()
    domain_id = domain_id or Path(path).stem
    return build_domain_dataset(domain_id, parse_domain_file(path), cfg)


def read_manifest(manifest_path) -> tuple[list[tuple[str, Path]], int | None]:
    """A scenario manifest's (domain id, file path) entries, relative paths
    taken from the manifest's directory, and its seed if it gives one.

    A manifest that is not a JSON object with a ``domains`` list of
    ``{"id", "path"}`` string entries raises ``ConfigError`` naming the
    manifest and the field.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{manifest_path}: not a JSON manifest: {exc}") from None
    domains = manifest.get("domains") if isinstance(manifest, dict) else None
    if not isinstance(domains, list):
        raise ConfigError(f"{manifest_path}: 'domains' must be a list of domain entries")
    entries = []
    for i, entry in enumerate(domains):
        for field in ("id", "path"):
            if not isinstance(entry, dict) or not isinstance(entry.get(field), str):
                raise ConfigError(f"{manifest_path}: domains[{i}] needs a string {field!r}")
        path = Path(entry["path"])
        entries.append((entry["id"], path if path.is_absolute() else manifest_path.parent / path))
    return entries, manifest.get("seed")


def load_scenario(manifest_path, cfg: DataConfig | None = None, seed: int = 0) -> ScenarioSpec:
    entries, manifest_seed = read_manifest(manifest_path)
    domains = [load_domain(path, cfg, domain_id=domain_id) for domain_id, path in entries]
    return ScenarioSpec(domains, seed=seed if manifest_seed is None else manifest_seed)


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

    @property
    def domain_ids(self) -> list[str]:
        return [f"d{d}" for d in range(self.num_domains)]

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
        if self.users_per_domain < 1:
            raise ConfigError(f"users_per_domain must be at least 1, got {self.users_per_domain}")
        if self.seed < 0:  # SeedSequence takes non-negative integers only
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


def _peaked_chain(rng: np.random.Generator, c: int) -> np.ndarray:
    """Row-stochastic matrix with one dominant successor per cluster."""
    q = rng.dirichlet(np.full(c, 0.3), size=c)
    favorite = rng.permutation(c)
    q = 0.25 * q
    q[np.arange(c), favorite] += 0.75
    return q


def draw_domains(spec: SyntheticSpec) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each domain's item ids 0..items_per_domain - 1, flattened in user
    order, and its users' lengths.

    The shared chain comes from the root seed sequence of (seed, 0xDA7A),
    and each domain draws from its own child of it, so a domain's draws do
    not depend on the domains after it. A domain draws, in this order: its
    private chain, a shuffle of the item clusters, every user's length,
    every user's start cluster, and a (users, max_len) array of uniforms.
    The next cluster is the count of entries of the chain row's CDF that
    are <= the position's uniform, stepped for all users at once. Last,
    one bounded integer per item, in user order and then position order,
    picks a member of its cluster, the cluster's items taken in item order.
    """
    spec.validate()
    root = np.random.SeedSequence([spec.seed, 0xDA7A])
    c, users, hi = spec.num_clusters, spec.users_per_domain, spec.max_len
    shared = _peaked_chain(np.random.default_rng(root), c)
    domains = {}
    for dom, seed in zip(spec.domain_ids, root.spawn(spec.num_domains)):
        rng = np.random.default_rng(seed)
        chain = spec.correlation * shared + (1.0 - spec.correlation) * _peaked_chain(rng, c)
        cdf = chain.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        assignment = np.arange(spec.items_per_domain) % c
        rng.shuffle(assignment)
        lengths = rng.integers(spec.min_len, hi + 1, size=users)
        k = rng.integers(c, size=users)
        uniforms = rng.random((users, hi))
        path = np.empty((users, hi), dtype=np.int64)
        for t in range(hi):
            path[:, t] = k
            k = np.count_nonzero(cdf[k] <= uniforms[:, t, None], axis=1)
        path = path[np.arange(hi) < lengths[:, None]]
        sizes = np.bincount(assignment, minlength=c)
        members = (np.cumsum(sizes) - sizes)[path] + rng.integers(sizes[path])
        domains[dom] = np.argsort(assignment, kind="stable")[members], lengths
    return domains


def generate_raw_sequences(spec: SyntheticSpec) -> dict[str, list[tuple[str, list[str]]]]:
    """Raw per-domain rows with globally disjoint item tokens: user u of
    domain d is ``d{d}:u{u}`` and item i ``d{d}:i{i}`` (``draw_domains``)."""
    scenario = {}
    for domain_id, (ids, lengths) in draw_domains(spec).items():
        tokens = np.array([f"{domain_id}:i{i}" for i in range(spec.items_per_domain)],
                          dtype=object)
        rows = np.split(tokens[ids], np.cumsum(lengths)[:-1])
        scenario[domain_id] = [(f"{domain_id}:u{u}", row.tolist()) for u, row in enumerate(rows)]
    return scenario


def generate_synthetic(spec: SyntheticSpec, cfg: DataConfig | None = None) -> ScenarioSpec:
    """The scenario ``load_scenario`` reads from ``write_scenario``'s files,
    built from the drawn ids; only surviving users and items are named."""
    cfg = cfg or DataConfig()
    domains = [build_domain(dom, ids, lengths, cfg, f"{dom}:u{{}}".format, f"{dom}:i{{}}".format)
               for dom, (ids, lengths) in draw_domains(spec).items()]
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
