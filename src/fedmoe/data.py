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

The synthetic generator makes the draws of one bounded integer and then
one uniform per item, the words ``Generator.choice`` consumed, so a seed
gives the same scenario bytes as in earlier releases. Those calls only
consume the 64-bit words of the generator's PCG64, which ``_Words``
fetches with ``random_raw``. ``integers(n)`` is numpy's 32-bit Lemire
multiply-and-reject draw over a half-word buffer (a word's low half now,
its high half at the next draw) and ``random()`` a whole word's top 53
bits over 2**53. Unless a product is rejected, a user's item j takes the
low half of a new word when H + j is even, H being 1 when the buffer is
full at the user's first item, and the kept high half otherwise, and its
uniform takes the next whole word: every item's words sit at positions
known once the user's length and start-cluster draws are made. One pass
over users makes those draws, and the chain and member draws then run
for all users at once in ``uint64`` arrays, one item position at a time.
Draws with no fixed position go through ``_Words`` one at a time: a user
whose draws hit a rejected product (a draw bounded by n rejects with a
chance below n / 2**32), and every user of a domain with a one-member
cluster, whose member draw takes nothing. Closing the source rewinds the
generator to where the scalar calls would have left it, buffer included;
numpy leaves a used half in the buffer's ``uinteger`` field, so that is
kept too.
"""

from __future__ import annotations

import dataclasses
import json
from bisect import bisect_right
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


def _rows(users: list[str], flat: list, lengths: np.ndarray) -> list[tuple[str, list]]:
    """Flat items cut back into one (user, items) row per length."""
    ends = np.cumsum(lengths).tolist()
    return [(u, flat[end - n:end]) for u, end, n in zip(users, ends, lengths.tolist())]


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


def filter_sequences(rows: list[tuple[str, list[str]]], cfg: DataConfig
                     ) -> list[tuple[str, list[str]]]:
    """``filter_codes`` on parsed rows."""
    codes, lengths, tokens = code_rows(rows)
    codes, lengths, users = filter_codes(codes, lengths, cfg)
    return _rows([rows[u][0] for u in users.tolist()], [tokens[c] for c in codes.tolist()],
                 lengths)


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


def remap_items(rows: list[tuple[str, list[str]]]
                ) -> tuple[list[tuple[str, list[int]]], dict[str, int]]:
    """Dense 1..n ids in order of first appearance."""
    codes, lengths, tokens = code_rows(rows)
    return (_rows([u for u, _ in rows], (codes + 1).tolist(), lengths),
            {token: i for i, token in enumerate(tokens, start=1)})


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def withheld_count(n: int, ratio: float = 0.2) -> int:
    """Interactions held out per user: the latest share, at least one
    validation and one test target."""
    return min(n - 1, max(2, round(ratio * n)))


def withheld_counts(lengths: np.ndarray, ratio: float = 0.2) -> np.ndarray:
    """``withheld_count`` of every length at once; both round half to even."""
    return np.minimum(lengths - 1, np.maximum(2, np.round(ratio * lengths))).astype(np.int64)


def split_positions(lengths, ratio: float = 0.2
                    ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(user rows, positions) of the train, valid and test samples of users
    with these sequence lengths, each in user order then position order.

    A user's last ``withheld_count`` positions alternate into valid
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


def split_dataset(sequences: list[tuple[str, list[int]]], ratio: float = 0.2,
                  t_max: int = 16) -> tuple[Split, Split, Split]:
    """Latest-share split (see ``split_positions``) as train, valid and
    test arrays."""
    lengths = np.array([len(items) for _, items in sequences], dtype=np.int64)
    ids = np.array([it for _, items in sequences for it in items], dtype=np.int64)
    users = np.array([u for u, _ in sequences], dtype=str)
    return _splits(ids, lengths, users, split_positions(lengths, ratio), t_max)


def train_portions(sequences: list[tuple[str, list[int]]], ratio: float = 0.2
                   ) -> list[list[int]]:
    """The per-user item runs the adjacency may be built from."""
    lengths = np.array([len(items) for _, items in sequences], dtype=np.int64)
    kept = (lengths - withheld_counts(lengths, ratio)).tolist()
    return [items[:n] for (_, items), n in zip(sequences, kept)]


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------


def build_adjacency(train_sequences: list[list[int]], num_items: int) -> sp.csr_matrix:
    """``transition_adjacency`` of the next-item transitions within these
    training runs."""
    flat = np.array([it for seq in train_sequences for it in seq], dtype=np.int64)
    run = np.repeat(np.arange(len(train_sequences)), [len(seq) for seq in train_sequences])
    follows = run[1:] == run[:-1]
    return transition_adjacency(flat[:-1][follows], flat[1:][follows], num_items)


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


def _choice_cdf(p: np.ndarray) -> list[float]:
    """The CDF that ``Generator.choice(len(p), p=p)`` searches, after its
    checks on p."""
    if np.isnan(p).any():
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(p.sum() - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class _Words:
    """A PCG64 generator's 64-bit words, fetched with ``random_raw``, and
    the numbers its scalar calls make from them.

    ``bounded(n)`` equals ``integers(n)`` for 1 <= n <= 2**32: numpy's
    32-bit Lemire draw over the generator's half-word buffer (a word's low
    half is used first and its high half kept for the next draw), with the
    rejection loop, and nothing drawn for n == 1. ``unit()`` equals
    ``random()``: the next whole word's top 53 bits, buffer untouched.
    ``ahead(n)`` shows at least n unused words for a caller that places
    draws itself, and ``skip`` moves past the words it used and sets the
    buffer. ``close()`` leaves the generator where those scalar calls would
    have.
    """

    CHUNK = 4096  # words per fetch for scalar draws, 32 KB

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        assert isinstance(self._bitgen, np.random.PCG64)
        self._opened = self._bitgen.state
        self.has_half, self.half = self._opened["has_uint32"], self._opened["uinteger"]
        self._raw = np.empty(0, dtype=np.uint64)
        self._next = 0     # the cursor in _raw
        self._dropped = 0  # words used before _raw[0]

    def ahead(self, n: int) -> np.ndarray:
        """The unused words from the cursor on, at least n of them."""
        have = len(self._raw) - self._next
        if have < n:
            fresh = self._bitgen.random_raw(max(n - have, self.CHUNK))
            self._dropped += self._next
            self._raw, self._next = np.concatenate([self._raw[self._next:], fresh]), 0
        return self._raw[self._next:]

    def skip(self, count: int, has_half: int, half: int) -> None:
        """Mark ``count`` words used and set the half-word buffer."""
        self._next += count
        self.has_half, self.half = has_half, half

    def _word(self) -> int:
        word = int(self.ahead(1)[0])
        self._next += 1
        return word

    def bounded(self, n: int) -> int:
        if n == 1:
            return 0
        while True:
            if self.has_half:
                self.has_half = 0
                m = self.half * n
            else:
                word = self._word()
                self.has_half, self.half = 1, word >> 32
                m = (word & 0xFFFFFFFF) * n
            # reject the low products that would bias the result
            if (m & 0xFFFFFFFF) >= n or (m & 0xFFFFFFFF) >= (1 << 32) % n:
                return m >> 32

    def unit(self) -> float:
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def close(self) -> None:
        """Rewind to the opening state, advance by the words used since,
        and set the half-word buffer; numpy keeps a used half as
        ``uinteger``."""
        bitgen = self._bitgen
        bitgen.state = self._opened
        bitgen.advance(self._dropped + self._next)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = self.has_half, self.half
        bitgen.state = state


@dataclasses.dataclass(frozen=True)
class _Clusters:
    """A domain's items grouped by cluster, and its chain: cluster k's
    members are ``order[offsets[k]:offsets[k] + sizes[k]]``, in item
    order, and ``cdf[k]`` is the CDF of its chain row."""

    order: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray  # uint64, the Lemire draws' bounds
    cdf: np.ndarray

    @classmethod
    def of(cls, assignment: np.ndarray, cdfs: list[list[float]]) -> "_Clusters":
        sizes = np.bincount(assignment, minlength=len(cdfs)).astype(np.uint64)
        return cls(np.argsort(assignment, kind="stable"),
                   (np.cumsum(sizes) - sizes).astype(np.int64), sizes, np.array(cdfs))


_LOW = 0xFFFFFFFF


def _placed_users(words: _Words, spec: SyntheticSpec, clusters: _Clusters, count: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``count`` users drawn by word position, stopping before the
    first one whose draws hit a rejected Lemire product; the cursor is
    left after the last user placed. Returns the placed users' item ids,
    flattened in user order, and their lengths.

    Every cluster must have at least two members, so that every member
    draw takes a half-word. One pass over users makes the length and
    start-cluster draws and notes where each user's items start: word P,
    with the half-word buffer full (H = 1) or empty. Item j's member draw
    then takes the low half of a new word when H + j is even, and
    otherwise the high half of the word fetched before it (word P - 1 for
    j = 0); its uniform takes the next whole word. With every position
    known, the chain and the member draws run for all users at once, one
    item position at a time.
    """
    lo, hi, c = spec.min_len, spec.max_len, spec.num_clusters
    span = hi - lo + 1
    span_threshold, c_threshold = (1 << 32) % span, (1 << 32) % c
    # a user takes at most one word for its first two draws and hi + hi / 2 for its
    # items; the rest covers reads at positions past the last user's length
    raw = words.ahead(count * (hi + (hi + 3) // 2) + 2 * hi + 2)
    p, h, half = 0, words.has_half, words.half
    starts, firsts = [], []  # per user: the cursor before its draws; (P, H, length, cluster)
    for _ in range(count):
        starts.append((p, h, half))
        if span > 1:  # a length draw and a cluster draw take one new word either way
            word = int(raw[p])
            p += 1
            x_len, x_c = (half, word & _LOW) if h else (word & _LOW, word >> 32)
            half = word >> 32
        elif h:  # only the cluster draw
            x_len, x_c, h = 0, half, 0
        else:
            word = int(raw[p])
            p += 1
            x_len, x_c, h, half = 0, word & _LOW, 1, word >> 32
        m_len, m_c = x_len * span, x_c * c
        if m_len & _LOW < span_threshold or m_c & _LOW < c_threshold:
            break
        length = lo + (m_len >> 32)
        firsts.append((p, h, length, m_c >> 32))
        fresh = (length + 1 - h) // 2  # items whose member draw takes a new word
        h ^= length & 1
        if fresh:  # the high half of the last new word
            half = int(raw[p + length + fresh - 3 + h]) >> 32
        p += length + fresh
    else:
        starts.append((p, h, half))
    first_p, first_h, lengths, k = np.array(firsts, dtype=np.int64).reshape(-1, 4).T
    j = np.arange(hi)
    even = (first_h[:, None] + j) % 2 == 0
    at = first_p[:, None] + j + (j + 1 - first_h[:, None]) // 2
    fetched = raw[np.where(even, at, at - 2 + (j == 0))]
    x = np.where(even, fetched & _LOW, fetched >> 32)
    uniform = (raw[at + even] >> 11) * (1.0 / 9007199254740992.0)
    path = np.empty((len(firsts), hi), dtype=np.int64)
    for t in range(hi):
        path[:, t] = k
        k = np.count_nonzero(clusters.cdf[k] <= uniform[:, t, None], axis=1)  # bisect_right
    m = x * clusters.sizes[path]
    thresholds = (1 << 32) % clusters.sizes
    active = j < lengths[:, None]
    rejected = np.flatnonzero(((m & _LOW < thresholds[path]) & active).any(axis=1))
    placed = int(rejected[0]) if rejected.size else len(firsts)
    members = clusters.offsets[path[:placed]] + (m[:placed] >> 32).astype(np.int64)
    ids, lengths = clusters.order[members[active[:placed]]], lengths[:placed]
    words.skip(*starts[placed])
    return ids, lengths


def _user_by_words(words: _Words, spec: SyntheticSpec, clusters: _Clusters) -> list[int]:
    """One user's item ids from the scalar draws."""
    length = spec.min_len + words.bounded(spec.max_len - spec.min_len + 1)
    k = words.bounded(spec.num_clusters)
    items = []
    for _ in range(length):
        member = words.bounded(int(clusters.sizes[k]))
        items.append(int(clusters.order[clusters.offsets[k] + member]))
        k = bisect_right(clusters.cdf[k], words.unit())
    return items


def _draw_users(words: _Words, spec: SyntheticSpec, clusters: _Clusters
                ) -> tuple[np.ndarray, np.ndarray]:
    """The item ids of a domain's users, flattened in user order, and the
    users' lengths.

    Users are placed by word position (``_placed_users``) up to one whose
    draws hit a rejected product; that user is drawn by ``words`` one draw
    at a time, and placing resumes after it. A one-member cluster's member
    draw takes no half-word, so no item position is fixed in advance: a
    domain that has one is drawn one draw at a time throughout.
    """
    users, done = spec.users_per_domain, 0
    ids, lengths = [], []
    while done < users:
        if clusters.sizes.min() > 1:
            placed_ids, placed_lengths = _placed_users(words, spec, clusters, users - done)
            ids.append(placed_ids)
            lengths.append(placed_lengths)
            done += len(placed_lengths)
            if done == users:
                break
        items = _user_by_words(words, spec, clusters)
        ids.append(np.array(items, dtype=np.int64))
        lengths.append([len(items)])
        done += 1
    return np.concatenate(ids), np.concatenate(lengths)


def draw_domains(spec: SyntheticSpec) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each domain's item ids 0..items_per_domain - 1, flattened in user
    order, and its users' lengths.

    Draw order: two chains' set-up draws per domain (the shared chain's
    first), a shuffle of the item clusters, then per user one bounded
    integer for the length and one for the start cluster, and per item one
    bounded integer ``integers(size_k)`` picking a member of cluster k
    followed by one uniform ``random()`` that picks the next cluster from
    the chain row's CDF. These are exactly the words that
    ``Generator.choice(members[k])`` and ``choice(c, p=chain[k])`` consume,
    so scenarios are byte-identical to those of earlier releases, which
    called ``choice`` per item.

    The set-up draws and the shuffle are numpy calls. A domain's user draws
    come from a ``_Words`` source opened after its shuffle and closed
    before the next domain draws. Users are placed by word position
    (``_placed_users``): a scalar pass over users makes the length and
    start-cluster draws and notes where each user's items start, and the
    chain and member draws then run for all users at once. The next
    cluster is the count of CDF entries <= the uniform, which is what
    ``bisect_right`` returns, and the member is the Lemire draw in
    ``uint64``. A user with a rejected product is drawn through ``_Words``
    one draw at a time and placing resumes after it; a domain with a
    one-member cluster, possible only with fewer than two items per
    cluster, is drawn that way throughout. On close the source sets the
    generator's state, buffer and stale ``uinteger`` included, to where the
    scalar calls would have left it, so every scenario and every later
    draw is unchanged.
    """
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    c = spec.num_clusters
    shared = _peaked_chain(rng, c)
    domains = {}
    for dom in spec.domain_ids:
        private = _peaked_chain(rng, c)
        chain = spec.correlation * shared + (1.0 - spec.correlation) * private
        cdfs = [_choice_cdf(row) for row in chain]
        assignment = np.arange(spec.items_per_domain) % c
        rng.shuffle(assignment)
        words = _Words(rng)
        domains[dom] = _draw_users(words, spec, _Clusters.of(assignment, cdfs))
        words.close()
    return domains


def generate_raw_sequences(spec: SyntheticSpec) -> dict[str, list[tuple[str, list[str]]]]:
    """Raw per-domain rows with globally disjoint item tokens: user u of
    domain d is ``d{d}:u{u}`` and item i ``d{d}:i{i}`` (``draw_domains``)."""
    scenario = {}
    for domain_id, (ids, lengths) in draw_domains(spec).items():
        tokens = np.array([f"{domain_id}:i{i}" for i in range(spec.items_per_domain)],
                          dtype=object)
        scenario[domain_id] = _rows([f"{domain_id}:u{u}" for u in range(len(lengths))],
                                    tokens[ids].tolist(), lengths)
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
