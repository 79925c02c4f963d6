"""Dataset ingestion: tab-separated rating and feature files, per-field
vocabularies with open-set truncation, entity feature encoding, and seeded
8:1:1 splits. All steps are deterministic given the input files and the seed.

File formats:
  ratings:  user<TAB>item<TAB>rating[<TAB>timestamp]
  features: entity<TAB>token1|token2|...          (token list may be empty)
  manifest: JSON declaring the ratings path, min_ratings, tag_top_t, and one
            entry per feature file: {field, owner, path, open}

Every data file is read whole by one reader, in text mode as UTF-8, so CRLF
and lone-CR line ends count as line ends; blank lines are skipped but keep
their place in the line numbers of error messages. The ratings are held as
columns (`Interactions`): the rating and timestamp columns are converted and
validated in bulk, and a bad file is reported at the first line that a
line-by-line parse would reject, with the same message.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError, ParseError
from .seeding import derive_seed

OWNERS = ("user", "item")
INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


@dataclass(frozen=True, eq=False)
class Interactions:
    """Rating events as columns, one row per event: dense user and item ids,
    ratings, and timestamps with a mask of the rows that have one (a
    3-column line has none, and its timestamp reads 0). The arrays are
    read-only, so splits and callers share them without copies."""

    users: np.ndarray          # (n,) int64
    items: np.ndarray          # (n,) int64
    ratings: np.ndarray        # (n,) float64
    timestamps: np.ndarray     # (n,) int64
    has_timestamp: np.ndarray  # (n,) bool

    def __post_init__(self):
        for column in self.columns():
            column.setflags(write=False)

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.users, self.items, self.ratings, self.timestamps,
                self.has_timestamp)

    def __len__(self) -> int:
        return self.users.shape[0]

    def take(self, rows: np.ndarray) -> "Interactions":
        """The events at `rows`, in that order."""
        return Interactions(*(column[rows] for column in self.columns()))


@dataclass(frozen=True)
class FieldSpec:
    """One feature file: field name, owning side, path, open/closed vocabulary."""

    name: str
    owner: str
    path: str
    open_vocab: bool = False

    def __post_init__(self):
        if self.owner not in OWNERS:
            raise ParseError(f"unknown owner {self.owner!r} for field {self.name!r}")


@dataclass
class DatasetManifest:
    ratings_path: str
    features: list[FieldSpec] = field(default_factory=list)
    min_ratings: int = 5
    tag_top_t: int = 50

    @classmethod
    def from_file(cls, path: str) -> "DatasetManifest":
        if not os.path.exists(path):
            raise IoError(f"dataset manifest not found: {path}")
        try:
            raw = json.loads(_read_text(path))
        except json.JSONDecodeError as e:
            raise ParseError(f"dataset manifest {path}: {e}") from e
        if not isinstance(raw, dict):
            raise ParseError(f"dataset manifest {path}: expected a JSON object")
        base = os.path.dirname(os.path.abspath(path))
        try:
            specs = [FieldSpec(name=f["field"], owner=f["owner"],
                               path=os.path.join(base, f["path"]),
                               open_vocab=bool(f.get("open", False)))
                     for f in raw.get("features", [])]
            return cls(ratings_path=os.path.join(base, raw["ratings"]),
                       features=specs,
                       min_ratings=int(raw.get("min_ratings", 5)),
                       tag_top_t=int(raw.get("tag_top_t", 50)))
        except (KeyError, TypeError) as e:
            raise ParseError(f"dataset manifest {path}: missing or invalid key {e}") from e

    def fields_for(self, owner: str) -> list[FieldSpec]:
        return [f for f in self.features if f.owner == owner]


class FeatureVocab:
    """Per-field token-to-index maps. Canonical field order is user fields then
    item fields, each in manifest order; every later encoding uses this order.
    Each field reserves one extra index (after its tokens) for unknowns."""

    def __init__(self, specs: list[FieldSpec], tokens: dict[str, dict[str, int]]):
        self.user_fields = [s.name for s in specs if s.owner == "user"]
        self.item_fields = [s.name for s in specs if s.owner == "item"]
        self.owner = {s.name: s.owner for s in specs}
        self.tokens = tokens

    @property
    def fields(self) -> list[str]:
        return self.user_fields + self.item_fields

    def fields_of(self, owner: str) -> list[str]:
        return self.user_fields if owner == "user" else self.item_fields

    def unknown_index(self, fname: str) -> int:
        return len(self.tokens[fname])

    def field_size(self, fname: str) -> int:
        """Number of embedding rows for the field: tokens plus the unknown slot."""
        return len(self.tokens[fname]) + 1

    def offsets(self) -> dict[str, int]:
        """Row offset of each field inside the shared embedding table."""
        out, acc = {}, 0
        for fname in self.fields:
            out[fname] = acc
            acc += self.field_size(fname)
        return out

    @property
    def total_rows(self) -> int:
        return sum(self.field_size(f) for f in self.fields)

    def encode_token(self, fname: str, token: str) -> int:
        return self.tokens[fname].get(token, self.unknown_index(fname))

    def to_dict(self) -> dict:
        return {"user_fields": list(self.user_fields),
                "item_fields": list(self.item_fields),
                "tokens": {f: dict(self.tokens[f]) for f in self.fields},
                "owner": dict(self.owner)}


@dataclass
class EntityFeatures:
    """Per-field category indices for one entity: exactly one slot per owned
    field, never empty (missing values fall back to the unknown index)."""

    entity_id: int
    slots: list[list[int]]


@dataclass
class DatasetSplit:
    train: Interactions
    validation: Interactions
    test: Interactions
    seed: int

    def select(self, name: str) -> Interactions:
        if name not in ("train", "validation", "test"):
            raise ValueError(f"unknown split selector {name!r}")
        return getattr(self, name)


@dataclass
class _Table:
    """The non-blank lines of a text file split on tabs, held flat: every
    field of the file in one list, and per row (non-blank line) the index of
    its first field, its number of fields and its 1-based line number."""

    fields: list[str]
    start: np.ndarray
    width: np.ndarray
    line: np.ndarray

    def __len__(self) -> int:
        return self.line.shape[0]

    def column(self, k: int, rows=slice(None)) -> list[str]:
        """Field k of the given rows (an index array or a slice)."""
        return list(map(self.fields.__getitem__, (self.start[rows] + k).tolist()))


def _read_text(path: str) -> str:
    """The whole of a UTF-8 text file, read in text mode, so CRLF and lone-CR
    line ends read as "\\n". A file that cannot be read is an IoError and
    one that is not UTF-8 a ParseError, each naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        raise IoError(f"file not found: {path}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte "
                         f"{e.start})") from None
    except OSError as e:
        raise IoError(f"cannot read {path}: {e.strerror or e}") from None


def _read_table(path: str) -> _Table:
    """Read a data file once and split it into a _Table. Lines are split on
    "\\n" alone, as iterating the file would split them; str.splitlines
    would also split on form feeds, vertical tabs and other separators. A
    tab or a newline is one byte in UTF-8, so their byte offsets locate the
    fields and the lines."""
    text = _read_text(path)
    fields = text.replace("\n", "\t").split("\t")
    raw = np.frombuffer(text.encode("utf-8"), np.uint8)
    sep = np.flatnonzero((raw == 9) | (raw == 10))  # the byte after each field but the last
    ends = np.flatnonzero(raw[sep] == 10)           # the last field of each line but the last
    first = np.concatenate(([0], ends + 1))         # the first field of each line
    width = np.diff(np.append(first, len(fields)))
    line_start = np.concatenate(([0], sep[ends] + 1))
    line_end = np.append(sep[ends], raw.size)
    nonblank = np.flatnonzero(line_end > line_start)
    return _Table(fields, first[nonblank], width[nonblank], nonblank + 1)


def _convert(convert, texts: list[str]) -> tuple[list, int]:
    """`convert` applied to `texts` up to the first one it rejects, and the
    index of that one (len(texts) if it rejects none)."""
    try:
        return list(map(convert, texts)), len(texts)
    except ValueError:
        values = []
        for text in texts:
            try:
                values.append(convert(text))
            except ValueError:
                break
        return values, len(values)


def _first(bad: np.ndarray, default: int) -> int:
    """Index of the first true entry of `bad`, or `default`."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else default


def _codes(keys: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct keys in first-appearance order, and each key's index
    among them."""
    index = {key: j for j, key in enumerate(dict.fromkeys(keys))}
    return list(index), np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))


def _dense_ids(names: list[str], code: np.ndarray) -> tuple[dict[str, int], np.ndarray]:
    """Renumber the codes of `names` 0, 1, ... in order of first appearance
    in `code`: the new id of each name that appears, and the new codes."""
    old, first = np.unique(code, return_index=True)
    order = old[np.argsort(first)]
    new = np.empty(len(names), dtype=np.int64)
    new[order] = np.arange(order.size)
    return {names[c]: j for j, c in enumerate(order.tolist())}, new[code]


def load_ratings(path: str, min_ratings: int = 5):
    """Parse a ratings file, drop users with fewer than min_ratings interactions
    (once, before any split), and index surviving users/items in
    first-appearance order. Returns (interactions, user_ids, item_ids).

    Ratings are parsed with float() and timestamps with int(), a column at a
    time. Each check runs over the rows before the first bad row found so
    far, in the order a line-by-line parse applies them, so the error names
    the first bad line and what a line-by-line parse would say of it."""
    table = _read_table(path)
    width = table.width
    n, error = _first((width < 3) | (width > 4), len(table)), None
    if n < len(table):
        error = f"expected 3 or 4 tab-separated fields, got {width[n]}"

    texts = table.column(2, slice(n))
    values, j = _convert(float, texts)
    if j < n:
        n, error = j, f"bad rating {texts[j]!r}"
    ratings = np.array(values, dtype=np.float64)
    j = _first(~((ratings >= 1.0) & (ratings <= 5.0)), n)  # NaN fails both
    if j < n:
        n, error = j, f"rating outside [1,5]: {texts[j]}"

    has_timestamp = width[:n] == 4
    stamp_rows = np.flatnonzero(has_timestamp)
    texts = table.column(3, stamp_rows)
    values, j = _convert(int, texts)
    if j < len(texts):
        n, error = int(stamp_rows[j]), f"bad timestamp {texts[j]!r}"
    if values and not INT64_MIN <= min(values) <= max(values) <= INT64_MAX:
        j = next(k for k, v in enumerate(values) if not INT64_MIN <= v <= INT64_MAX)
        n, error = int(stamp_rows[j]), f"timestamp outside the int64 range: {texts[j]}"
    if error is not None:
        raise ParseError(f"{path} line {table.line[n]}: {error}")
    timestamps = np.zeros(n, dtype=np.int64)
    timestamps[has_timestamp] = values

    user_names, user_code = _codes(table.column(0))
    keep = (np.bincount(user_code) >= min_ratings)[user_code]
    user_ids, users = _dense_ids(user_names, user_code[keep])
    item_names, item_code = _codes(table.column(1))
    item_ids, items = _dense_ids(item_names, item_code[keep])
    interactions = Interactions(users=users, items=items, ratings=ratings[keep],
                                timestamps=timestamps[keep],
                                has_timestamp=has_timestamp[keep])
    return interactions, user_ids, item_ids


def split_dataset(interactions: Interactions, seed: int,
                  by_time: bool = False) -> DatasetSplit:
    """Deterministic 8:1:1 split: seeded shuffle (or a stable timestamp sort
    with --split-by-time) followed by an 80/10/10 cut."""
    n = len(interactions)
    if n < 10:
        raise ValueError("dataset too small to split")
    if by_time:
        if not interactions.has_timestamp.all():
            raise ValueError("split by time requires timestamps on every interaction")
        order = np.argsort(interactions.timestamps, kind="stable")
    else:
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
    n_val = n // 10
    n_test = n // 10
    n_train = n - n_val - n_test
    return DatasetSplit(train=interactions.take(order[:n_train]),
                        validation=interactions.take(order[n_train:n_train + n_val]),
                        test=interactions.take(order[n_train + n_val:]),
                        seed=seed)


def parse_feature_file(path: str) -> dict[str, list[str]]:
    """entity<TAB>token1|token2|... per line; the token list may be empty.
    Later lines for the same entity extend its token list."""
    table = _read_table(path)
    j = _first(table.width != 2, len(table))
    if j < len(table):
        raise ParseError(f"{path} line {table.line[j]}: expected 2 tab-separated "
                         f"fields, got {table.width[j]}")
    out: dict[str, list[str]] = {}
    for entity, blob in zip(table.column(0), table.column(1)):
        tokens = [t for t in blob.split("|") if t != ""]
        out.setdefault(entity, []).extend(tokens)
    return out


def build_feature_vocab(specs: list[FieldSpec], tag_top_t: int,
                        population: dict[str, set] | None = None) -> FeatureVocab:
    """Index each field's tokens. Closed fields are indexed exhaustively in
    first-appearance order. Open fields keep only the tag_top_t most frequent
    tokens (frequency = number of distinct entities using the token, counted
    over the filtered population when given; ties broken lexicographically)."""
    tokens: dict[str, dict[str, int]] = {}
    for spec in specs:
        raw = parse_feature_file(spec.path)
        if spec.open_vocab:
            counts: Counter = Counter()
            for entity, toks in raw.items():
                if population is not None and entity not in population[spec.owner]:
                    continue
                counts.update(set(toks))
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            tokens[spec.name] = {tok: i for i, (tok, _) in enumerate(ranked[:tag_top_t])}
        else:
            index: dict[str, int] = {}
            for toks in raw.values():
                for tok in toks:
                    index.setdefault(tok, len(index))
            tokens[spec.name] = index
    return FeatureVocab(specs, tokens)


def encode_entity_features(raw_by_field: dict[str, dict[str, list[str]]],
                           vocab: FeatureVocab, id_map: dict[str, int],
                           owner: str) -> list[EntityFeatures]:
    """One EntityFeatures per entity with exactly one slot per owned field.
    Tokens outside a field's vocabulary are dropped; a slot with nothing
    retained (including entities absent from the file) holds the unknown
    index."""
    fields = vocab.fields_of(owner)
    table: list[EntityFeatures] = [None] * len(id_map)  # type: ignore[list-item]
    for raw_id, dense in id_map.items():
        slots = []
        for fname in fields:
            toks = raw_by_field.get(fname, {}).get(raw_id, [])
            kept = sorted({vocab.tokens[fname][t] for t in toks if t in vocab.tokens[fname]})
            slots.append(kept if kept else [vocab.unknown_index(fname)])
        table[dense] = EntityFeatures(entity_id=dense, slots=slots)
    return table


@dataclass
class PackedFeatures:
    """Vectorized view of one side's EntityFeatures: per field, padded global
    embedding-row indices with a validity mask, for batched mean pooling."""

    fields: list[str]
    index: list[np.ndarray]   # per field: (num_entities, width) int64
    mask: list[np.ndarray]    # per field: (num_entities, width) float64 in {0,1}
    counts: list[np.ndarray]  # per field: (num_entities,) float64, >= 1


def pack_features(entities: list[EntityFeatures], vocab: FeatureVocab,
                  owner: str) -> PackedFeatures:
    fields = vocab.fields_of(owner)
    offsets = vocab.offsets()
    n = len(entities)
    index, mask, counts = [], [], []
    for fi, fname in enumerate(fields):
        width = max((len(e.slots[fi]) for e in entities), default=1)
        idx = np.zeros((n, width), dtype=np.int64)
        msk = np.zeros((n, width), dtype=np.float64)
        for e in entities:
            vals = e.slots[fi]
            idx[e.entity_id, :len(vals)] = np.asarray(vals, dtype=np.int64) + offsets[fname]
            msk[e.entity_id, :len(vals)] = 1.0
        index.append(idx)
        mask.append(msk)
        counts.append(msk.sum(axis=1))
    return PackedFeatures(fields=fields, index=index, mask=mask, counts=counts)


@dataclass
class PreparedData:
    """Everything downstream of ingestion: vocabularies, encoded features,
    dense interactions, and the seeded split."""

    manifest: DatasetManifest
    vocab: FeatureVocab
    interactions: Interactions
    split: DatasetSplit
    user_ids: dict[str, int]
    item_ids: dict[str, int]
    user_features: list[EntityFeatures]
    item_features: list[EntityFeatures]
    user_packed: PackedFeatures
    item_packed: PackedFeatures

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def digest(self) -> str:
        """Content hash used to detect drift between a checkpoint and the data
        pipeline it was trained on."""
        h = hashlib.sha256()
        h.update(json.dumps(self.vocab.to_dict(), sort_keys=True,
                            separators=(",", ":")).encode())
        h.update(json.dumps({"users": self.num_users, "items": self.num_items,
                             "seed": self.split.seed},
                            sort_keys=True, separators=(",", ":")).encode())
        # One line per event, f"{user},{item},{rating!r},{timestamp}\n" with a
        # missing timestamp as None: checkpoints store this hash, so the text
        # must not change. User, item and rating texts are formatted once per
        # distinct value (a rating's by its bits) and gathered by index.
        x = self.interactions
        bits, which = np.unique(x.ratings.view(np.int64), return_inverse=True)
        stamps = x.timestamps.astype(object)
        stamps[~x.has_timestamp] = None
        text = np.empty((len(x), 5), dtype=object)
        text[:, 0] = np.array([f"{u}," for u in range(self.num_users)], dtype=object)[x.users]
        text[:, 1] = np.array([f"{i}," for i in range(self.num_items)], dtype=object)[x.items]
        text[:, 2] = np.array([f"{r!r}," for r in bits.view(np.float64).tolist()],
                              dtype=object)[which]
        text[:, 3] = list(map(str, stamps.tolist()))
        text[:, 4] = "\n"
        h.update("".join(text.ravel().tolist()).encode())
        return h.hexdigest()


def build_dataset(manifest: DatasetManifest, seed: int,
                  by_time: bool = False) -> PreparedData:
    """Run the full pipeline: load + filter ratings, build vocabularies over the
    filtered population, encode features, split."""
    interactions, user_ids, item_ids = load_ratings(manifest.ratings_path,
                                                    manifest.min_ratings)
    population = {"user": set(user_ids), "item": set(item_ids)}
    vocab = build_feature_vocab(manifest.features, manifest.tag_top_t, population)
    raw_user = {s.name: parse_feature_file(s.path) for s in manifest.fields_for("user")}
    raw_item = {s.name: parse_feature_file(s.path) for s in manifest.fields_for("item")}
    user_feats = encode_entity_features(raw_user, vocab, user_ids, "user")
    item_feats = encode_entity_features(raw_item, vocab, item_ids, "item")
    split = split_dataset(interactions, derive_seed(seed, "split"), by_time=by_time)
    return PreparedData(manifest=manifest, vocab=vocab, interactions=interactions,
                        split=split, user_ids=user_ids, item_ids=item_ids,
                        user_features=user_feats, item_features=item_feats,
                        user_packed=pack_features(user_feats, vocab, "user"),
                        item_packed=pack_features(item_feats, vocab, "item"))


def interactions_to_arrays(interactions: Interactions):
    """Column arrays (users, items, ratings) for batched model code: the
    record's own read-only columns, not copies."""
    return interactions.users, interactions.items, interactions.ratings
