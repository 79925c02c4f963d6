"""Dataset ingestion: tab-separated rating and feature files, per-field
vocabularies with open-set truncation, entity feature encoding, and seeded
8:1:1 splits. All steps are deterministic given the input files and the seed.

File formats:
  ratings:  user<TAB>item<TAB>rating[<TAB>timestamp]
  features: entity<TAB>token1|token2|...          (token list may be empty)
  manifest: JSON declaring the ratings path, min_ratings, tag_top_t, and one
            entry per feature file: {field, owner, path, open}, each field
            name a string used once

A JSON document (a manifest here, a run config in the CLI) is read by one
reader, `read_json_object`, and its values are checked by the JSON value
rule of `errors`.

Every data file is read by one reader, in text mode as UTF-8, so CRLF and
lone-CR line ends count as line ends, and a leading byte-order mark is
dropped; blank lines are skipped but keep their place in the line numbers of
error messages. The reader decodes the file once and locates its fields in
blocks of BLOCK_LINES lines by their bytes; a block splits its fields into
strings only when a text is needed, so set-up holds the field strings of a
block or two at a time at most, and none for a plain ratings file. The
ratings are held as columns (`Interactions`): each block's rating and
timestamp columns are converted and validated in bulk, and a bad file is
reported at the first line that a line-by-line parse would reject, with the
same message. A block whose numbers are all whole numbers in plain digits
is read from its bytes a digit place at a time, with the values float()
and int() give; any other block, so every bad one, is converted by float()
and int(). Id columns (users, items, a feature file's entities) are coded
in order of first appearance by one coder (`_IdCoder`), from the bytes
while the ids are plain decimal integers and from their texts once a block
holds another id; users and items then get dense ids in order of first
appearance among the kept ratings, found in one pass over the codes. The
features are columnar too: each feature file parses into one record
(`FeatureColumns`: entities, token counts, and the tokens as int64 codes
with the text of each code). A block's tokens are cut from its bytes and
coded by keys read from them, which makes one string per distinct token
per block and none per field or token. The vocabulary is counted on those
codes, and each side encoded straight into its packed tables
(`PackedFeatures`), a field at a time on arrays, with one text lookup per
distinct token and no object per entity.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import IoError, ParseError, ShapeError, is_json, json_value
from .seeding import derive_seed
from .tensor import sorted_distinct

OWNERS = ("user", "item")
INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
# Lines per block in which a data file is split into fields (_read_table).
BLOCK_LINES = 16384
# Bytes per chunk in which _block_ends counts a file's newlines.
NEWLINE_CHUNK = 1 << 16


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
        """The manifest at `path`, its paths relative to its directory. A
        missing key, a value of the wrong JSON kind or a field name used
        twice, or an owner other than "user" or "item", is a ParseError naming
        the manifest."""
        raw = read_json_object(path, "dataset manifest")
        base = os.path.dirname(os.path.abspath(path))
        try:
            specs = []
            for entry in json_value("features", raw.get("features", []), "list"):
                entry = json_value("feature", entry, "object")
                name = json_value("field", entry["field"], "string")
                if name in [spec.name for spec in specs]:
                    raise ValueError(f"field {name!r} is named twice")
                where = f"feature {name!r}: "
                specs.append(FieldSpec(
                    name, entry["owner"],
                    os.path.join(base, json_value(where + "path", entry["path"], "string")),
                    json_value(where + "open", entry.get("open", False), "bool")))
            return cls(os.path.join(base, json_value("ratings", raw["ratings"], "string")),
                       specs, json_value("min_ratings", raw.get("min_ratings", 5), "count"),
                       json_value("tag_top_t", raw.get("tag_top_t", 50), "count"))
        except KeyError as e:
            raise ParseError(f"dataset manifest {path}: missing or invalid key {e}") from e
        except (ValueError, ParseError) as e:
            raise ParseError(f"dataset manifest {path}: {e}") from e


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in the UTF-8 file at `path`. A missing or unreadable
    file is an IoError, and one that is not UTF-8, not JSON or not an object
    a ParseError, each naming `what` or the path."""
    if not os.path.exists(path):
        raise IoError(f"{what} not found: {path}")
    try:
        raw = json.loads(_read_text(path))
    except (ValueError, RecursionError) as e:  # bad JSON, a huge integer, deep nesting
        raise ParseError(f"{what} {path}: {e}") from e
    if not is_json(raw, "object"):
        raise ParseError(f"{what} {path}: expected a JSON object")
    return raw


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

    def to_dict(self) -> dict:
        return {"user_fields": list(self.user_fields),
                "item_fields": list(self.item_fields),
                "tokens": {f: dict(self.tokens[f]) for f in self.fields},
                "owner": dict(self.owner)}


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
    """The non-blank lines of a block of a text file split on tabs: the
    block's UTF-8 bytes `raw`, the byte bounds of its fields (field f is
    raw[bound[f] + 1:bound[f + 1]]), and per row (non-blank line) the index
    of its first field, its number of fields and its 1-based line number in
    the file. The fields as strings, `fields`, are split from the bytes only
    when a text is first asked for, so a block read from its bytes alone
    makes no string per field."""

    start: np.ndarray
    width: np.ndarray
    line: np.ndarray
    raw: np.ndarray    # (bytes,) uint8
    bound: np.ndarray  # (fields + 1,) int64

    def __len__(self) -> int:
        return self.line.shape[0]

    @functools.cached_property
    def fields(self) -> list[str]:
        """Every field of the block, in order, as a string."""
        return str(self.raw, "utf-8").replace("\n", "\t").split("\t")

    def column(self, k: int, rows=slice(None)) -> list[str]:
        """Field k of the given rows (an index array or a slice)."""
        return list(map(self.fields.__getitem__, (self.start[rows] + k).tolist()))

    def byte_bounds(self, k: int, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The first and past-the-end byte offsets in `raw` of field k of
        the given rows."""
        field = self.start[rows] + k
        return self.bound[field] + 1, self.bound[field + 1]


def _read_text(path: str) -> str:
    """The whole of a UTF-8 text file, read in text mode, so CRLF and lone-CR
    line ends read as "\\n", without a leading byte-order mark (U+FEFF),
    which is not part of the first line's text. A file that cannot be read
    is an IoError and one that is not UTF-8 a ParseError, each naming the
    path; the ParseError gives the bad byte's offset in the file, the mark
    counted."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().removeprefix("\ufeff")
    except FileNotFoundError:
        raise IoError(f"file not found: {path}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte "
                         f"{e.start})") from None
    except OSError as e:
        raise IoError(f"cannot read {path}: {e.strerror or e}") from None


def _read_table(path: str) -> Iterator[_Table]:
    """Read a data file once and yield its lines split on tabs, in blocks of
    BLOCK_LINES lines (blank lines count, and the last block may be short),
    each block a _Table. A block splits its fields into strings only when
    asked for a text; the caller's block stays alive while the next one is
    located, so at most two blocks' fields are held as strings at a time.
    Lines are split on "\\n" alone, as iterating the file would split
    them; str.splitlines would also split on form feeds, vertical tabs and
    other separators. A tab or a newline is one byte in UTF-8, so their byte
    offsets locate the blocks, the fields and the lines."""
    whole = np.frombuffer(_read_text(path).encode("utf-8"), np.uint8)
    lo = 0
    for block, hi in enumerate(_block_ends(whole)):
        raw = whole[lo:hi]
        bound = np.concatenate(([-1], np.flatnonzero((raw == 9) | (raw == 10)), [raw.size]))
        sep = bound[1:-1]                               # the byte after each field but the last
        ends = np.flatnonzero(raw[sep] == 10)           # the last field of each line but the last
        first = np.concatenate(([0], ends + 1))         # the first field of each line
        width = np.diff(np.append(first, bound.size - 1))
        nonblank = np.flatnonzero(bound[first + width] > bound[first] + 1)
        yield _Table(first[nonblank], width[nonblank],
                     block * BLOCK_LINES + nonblank + 1, raw, bound)
        lo = hi + 1


def _block_ends(whole: np.ndarray) -> list[int]:
    """The byte offset at which each of _read_table's blocks ends: the
    newline after every BLOCK_LINES-th line, then the end of the file. The
    newlines are counted a chunk of NEWLINE_CHUNK bytes at a time and
    located only in the chunks where a block ends; each block finds its own
    among its field separators."""
    ends, need = [], BLOCK_LINES        # need: newlines up to the next block end
    for lo in range(0, whole.size, NEWLINE_CHUNK):
        hits = whole[lo:lo + NEWLINE_CHUNK] == 10
        count = np.count_nonzero(hits)
        if count >= need:
            ends += (lo + np.flatnonzero(hits)[need - 1::BLOCK_LINES]).tolist()
        need = BLOCK_LINES - (count - need) % BLOCK_LINES
    return ends + [whole.size]


def _convert(convert, texts: list[str]) -> tuple[list, int]:
    """`convert` applied to `texts` up to the first one that is not an ASCII
    number text, and the index of that one (len(texts) if there is none). A
    text is not one if `convert` rejects it, or if it holds a character
    outside ASCII or an underscore, which float() and int() accept ("٣"
    reads as 3, "1_0" as 10). That check runs on all the texts joined, and
    only a hit looks for the first text it applies to."""
    joined = "".join(texts)
    if not joined.isascii() or "_" in joined:
        texts = texts[:next(j for j, text in enumerate(texts)
                            if not text.isascii() or "_" in text)]
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


def _codes(keys: list[str], index: dict[str, int]) -> np.ndarray:
    """Each key's index in `index`, after the keys it lacks join it, numbered
    on in order of first appearance. Fed the blocks of a column in file
    order, `index` numbers the column's distinct keys in that order."""
    fresh = dict.fromkeys(keys)
    if index:  # skipped for a first block, often the whole file
        fresh = [key for key in fresh if key not in index]
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))


class _IdCoder:
    """One id column, coded block by block in order of first appearance
    over the file: the first id is 0, the next new one 1, and so on.

    Digit form: while every block's ids are canonical decimal integers (1 to
    18 ASCII digits, no leading zero unless the id is "0"), none above the
    number of ids coded so far, this block's included, the ids are read
    from the block's bytes (_plain_numbers) and coded by an int64 table from
    id value to code. The table has one entry per value up to the largest,
    so never more than one per id coded. Text form: the first block that
    fails any of those tests hands the ids coded so far, in code order and
    written as decimals, to a _codes dict, which codes that block and every
    later one from their texts."""

    def __init__(self):
        self.table = np.empty(0, np.int64)  # id value -> code, -1 for none yet
        self.values = [np.empty(0, np.int64)]  # the digit form's ids, in code order
        self.count = 0                          # ... and their number
        self.index: dict[str, int] | None = None  # the text form's ids
        self.rows = 0

    def code(self, table: _Table, k: int) -> np.ndarray:
        """The codes of field k of the block's rows."""
        self.rows += len(table)
        if self.index is None:
            value = _digit_ids(table, k, self.rows)
            if value is not None:
                return self._number(value)
            self.index = dict(zip(self.names(), range(self.count)))
        return _codes(table.column(k), self.index)

    def names(self) -> list[str]:
        """The ids coded so far, as texts, in code order."""
        if self.index is not None:
            return list(self.index)
        text = np.column_stack([*_decimal_columns(np.concatenate(self.values)),
                                np.full(self.count, ord("\n"), np.uint8)])
        return str(text[text != 0], "ascii").split("\n")[:-1]

    def _number(self, value: np.ndarray) -> np.ndarray:
        """Code the id values of a block: the new ones join the table in
        order of first appearance, which a np.minimum.at pass over their
        positions, made in their own table entries, finds."""
        top = int(value.max(initial=-1)) + 1
        if top > self.table.size:
            self.table = np.concatenate([self.table, np.full(top - self.table.size, -1)])
        code = self.table[value]
        new = np.flatnonzero(code < 0)
        if new.size:
            fresh = value[new]
            self.table[fresh] = value.size
            np.minimum.at(self.table, fresh, new)
            fresh = fresh[self.table[fresh] == new]
            self.table[fresh] = np.arange(self.count, self.count + fresh.size)
            self.values.append(fresh)
            self.count += fresh.size
            code = self.table[value]
        return code


def _digit_ids(table: _Table, k: int, limit: int) -> np.ndarray | None:
    """The values of field k of the block's rows, if each is a canonical
    decimal integer no greater than `limit`; None if some is not."""
    begin, end = table.byte_bounds(k)
    value = _plain_numbers(table.raw, begin, end)
    if value is None or value.max(initial=0) > limit:
        return None
    if (table.raw[begin[end - begin > 1]] == 48).any():  # a leading zero
        return None
    return value


def _dense_ids(names: list[str], code: np.ndarray) -> tuple[dict[str, int], np.ndarray]:
    """Renumber the codes of `names` 0, 1, ... in order of first appearance
    in `code`: the new id of each name that appears, and the new codes.
    One np.minimum.at pass finds each code's first position, and marking
    those positions lists the codes in that order, with no sort."""
    n = code.size
    first = np.full(len(names), n, dtype=np.int64)
    np.minimum.at(first, code, np.arange(n))
    is_first = np.zeros(n, dtype=bool)
    is_first[first[first < n]] = True
    order = code[is_first]
    new = np.empty(len(names), dtype=np.int64)
    new[order] = np.arange(order.size)
    return {names[c]: j for j, c in enumerate(order.tolist())}, new[code]


def load_ratings(path: str, min_ratings: int = 5):
    """Parse a ratings file, drop users with fewer than min_ratings interactions
    (once, before any split), and index surviving users/items in
    first-appearance order. Returns (interactions, user_ids, item_ids).

    The file is parsed a block of lines at a time (_read_table): each block
    is checked and its user and item ids coded (_IdCoder) before the next is
    located. A block of plain numbers and ids is read from its bytes alone
    and makes no field strings; otherwise the field strings of at most two
    blocks are alive. None outlives the loop, so the file's bytes are freed
    before the blocks' columns are joined. The filter and the dense ids run
    on those columns as on one table."""
    user_coder, item_coder = _IdCoder(), _IdCoder()
    blocks = [(*_rating_block(path, table), user_coder.code(table, 0),
               item_coder.code(table, 1)) for table in _read_table(path)]
    ratings, timestamps, has_timestamp, user_code, item_code = map(np.concatenate,
                                                                   zip(*blocks))
    keep = (np.bincount(user_code) >= min_ratings)[user_code]
    user_ids, users = _dense_ids(user_coder.names(), user_code[keep])
    item_ids, items = _dense_ids(item_coder.names(), item_code[keep])
    interactions = Interactions(users=users, items=items, ratings=ratings[keep],
                                timestamps=timestamps[keep],
                                has_timestamp=has_timestamp[keep])
    return interactions, user_ids, item_ids


def _plain_numbers(raw: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The whole numbers written in the texts raw[begin:end], as an int64
    array, if every text is 1 to 18 ASCII digits, which cannot overflow
    int64; None if some text is not. The texts are read right-aligned, one
    byte place at a time: each place is an O(rows) gather and multiply-add,
    the places before a shorter text read as leading zeros, and the first
    place holding a byte that is not a digit ends the read."""
    size = end - begin
    number = np.zeros(size.size, np.int64)
    if not size.size:
        return number
    longest, shortest = int(size.max()), int(size.min())
    if shortest < 1 or longest > 18:
        return None
    at = end - longest
    for place in range(longest):
        digit = raw.take(at, mode="clip") - np.uint8(48)  # a byte below "0" wraps above 9
        at += 1
        if place < longest - shortest:
            digit[size < longest - place] = 0
        if digit.max() > 9:
            return None
        number *= 10
        number += digit
    return number


def _plain_block(table: _Table) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The ratings, timestamps and has-timestamp flags of a block whose
    lines all have 3 or 4 fields, every rating and timestamp 1 to 18 ASCII
    digits and every rating in [1,5], read from the block's bytes; None for
    any other block. A whole rating in [1,5] is an exact double, the value
    float() gives."""
    width = table.width
    if not np.all((width == 3) | (width == 4)):
        return None
    ratings = _plain_numbers(table.raw, *table.byte_bounds(2))
    if ratings is None or not np.all((ratings >= 1) & (ratings <= 5)):
        return None
    has_timestamp = width == 4
    stamps = _plain_numbers(table.raw, *table.byte_bounds(3, has_timestamp))
    if stamps is None:
        return None
    timestamps = np.zeros(len(table), dtype=np.int64)
    timestamps[has_timestamp] = stamps
    return ratings.astype(np.float64), timestamps, has_timestamp


def _rating_block(path: str, table: _Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ratings, timestamps and has-timestamp flags of one block of a
    ratings file, or a ParseError naming its first bad line. Every block
    before it is clean, so that line is the file's first bad line.

    A block of whole numbers in plain digits is read from its bytes
    (_plain_block), with the values float() and int() give. Any other
    block, and so every bad one, takes the text path: ratings are parsed
    with float() and timestamps with int(), a column at a time, from ASCII
    text without underscores only: "٣" or "1_0" is a bad rating or
    timestamp, although float() and int() read them. Each check runs over
    the rows before the first bad row found so far, in the order a
    line-by-line parse applies them, so the error names the first bad line
    and what a line-by-line parse would say of it."""
    plain = _plain_block(table)
    if plain is not None:
        return plain
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
    return ratings, timestamps, has_timestamp


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


@dataclass(frozen=True, eq=False)
class FeatureColumns:
    """One feature file as columns: the distinct entities in order of first
    appearance, each one's count of non-empty tokens, and those tokens as
    int64 codes in one flat array, entity after entity, with the text of
    each code. An entity's tokens are those of all its lines, in file order;
    tokens are coded in order of first appearance in the file."""

    entities: list[str]
    lengths: np.ndarray  # (len(entities),) int64
    codes: np.ndarray    # (lengths.sum(),) int64
    names: list[str]     # the token texts, in code order


def parse_feature_file(path: str) -> FeatureColumns:
    """entity<TAB>token1|token2|... per line; the token list may be empty,
    and empty tokens (as in "a||b") are dropped. An entity on several lines
    gets the tokens of all of them, in file order, at the place of its first
    line. The file is read a block of lines at a time (_read_table), and its
    entities are coded in order of first appearance (_IdCoder), from the
    bytes while they are plain decimal integers. A block's tokens are cut
    from its bytes (_token_pieces) and coded from them (_token_codes), which
    makes one string per distinct token of the block and none per field."""
    coder, entity, code, index = _IdCoder(), [], [], {}
    for table in _read_table(path):
        j = _first(table.width != 2, len(table))
        if j < len(table):
            raise ParseError(f"{path} line {table.line[j]}: expected 2 tab-separated "
                             f"fields, got {table.width[j]}")
        row, begin, end = _token_pieces(table)
        entity.append(coder.code(table, 0)[row])
        code.append(_token_codes(table.raw, begin, end, index))
    entity, code, entities = np.concatenate(entity), np.concatenate(code), coder.names()
    lengths = np.bincount(entity, minlength=len(entities))
    if len(entities) < coder.rows:
        # Some entity is on several lines: a stable sort by entity gathers
        # its tokens, in file order, to the place of its first line.
        code = code[np.argsort(entity, kind="stable")]
    return FeatureColumns(entities, lengths, code, list(index))


def _token_pieces(table: _Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row, first byte and past-the-end byte in `raw` of each non-empty
    token of the block, in file order. A row's pieces lie between the start
    of its token column, each "|" and its end: the k-th piece start after
    a stable merge of the starts and the "|"s pairs with the k-th piece end,
    and the row of a piece is the number of column starts up to it. A "|"
    of an entity column makes the piece (p + 1, p), which drops out with
    the empty ones, so it separates nothing."""
    begin, end = table.byte_bounds(1)
    pipe = np.flatnonzero(table.raw == 124)
    first = np.concatenate((begin, pipe + 1))
    order = np.argsort(first, kind="stable")  # a merge of two sorted runs
    first, last = first[order], np.sort(np.concatenate((pipe, end)), kind="stable")
    row = np.cumsum(order < len(table)) - 1
    kept = last > first
    return row[kept], first[kept], last[kept]


# _WORD_MASKS[k] keeps the first k bytes of a little-endian 8-byte word.
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def _token_codes(raw: np.ndarray, begin: np.ndarray, end: np.ndarray,
                 index: dict[str, int]) -> np.ndarray:
    """The code in `index` (text -> code) of each token raw[begin:end], the
    block's new tokens joining it in order of first appearance. Fed a
    file's blocks in order, `index` numbers its tokens in that order.

    Each token is keyed by its bytes: its first 8 as one little-endian word,
    read through a 1-byte-stride view of the block padded by 8 bytes and
    masked to the token's length, and each further 8 folded in through the
    inverse codes (np.unique) of the key so far and of the word. Without NUL
    bytes in the block the last non-zero byte marks a token's length; with
    them the length joins the key too, as "a" and "a\\0" read the same
    words. Equal keys are equal bytes, so the inverse codes of the keys
    group the tokens, one token of each group makes the only string of
    that text in the block, and _dense_ids numbers the groups in order of
    first appearance before `index` gives them their codes."""
    size = end - begin
    words = np.ndarray(raw.size + 1, "<u8", strides=(1,),
                       buffer=np.concatenate((raw, np.zeros(8, np.uint8))))
    key = words[begin] & _WORD_MASKS[np.minimum(size, 8)]
    further = [words.take(begin + at, mode="clip") & _WORD_MASKS[np.clip(size - at, 0, 8)]
               for at in range(8, int(size.max(initial=0)), 8)]
    for word in further + ([size] if 0 in raw else []):
        key = _inverse(key) * size.size + _inverse(word)
    group = _inverse(key)
    some = np.empty(int(group.max(initial=-1)) + 1, np.int64)
    some[group] = np.arange(group.size)  # one token of each group; they are the same text
    local, code = _dense_ids([str(raw[begin[j]:end[j]], "utf-8") for j in some.tolist()],
                             group)
    return np.array([index.setdefault(text, len(index)) for text in local], np.int64)[code]


def _inverse(key: np.ndarray) -> np.ndarray:
    """Each key's index among the sorted distinct keys."""
    return np.unique(key, return_inverse=True)[1]


def build_feature_vocab(specs: list[FieldSpec], tag_top_t: int,
                        population: dict[str, set] | None = None) -> FeatureVocab:
    """Index each field's tokens. Closed fields are indexed exhaustively in
    first-appearance order (the entity after entity order of
    FeatureColumns.codes, _dense_ids). Open fields keep only the tag_top_t
    most frequent tokens (frequency = number of distinct entities using the
    token, counted over the filtered population when given; ties broken
    lexicographically). Both run on the file's token codes as one array: an
    open field counts each (entity, code) pair once, after one sort of
    their keys, and ranks only the texts of the codes it counted."""
    tokens: dict[str, dict[str, int]] = {}
    for spec in specs:
        columns = parse_feature_file(spec.path)
        names, code = columns.names, columns.codes
        if not spec.open_vocab:
            tokens[spec.name] = _dense_ids(names, code)[0]
            continue
        n = len(columns.entities)
        entity = np.repeat(np.arange(n), columns.lengths)
        if population is not None:
            member = np.fromiter(map(population[spec.owner].__contains__,
                                     columns.entities), bool, n)[entity]
            code, entity = code[member], entity[member]
        # one key per distinct (entity, token) pair, so an entity counts once
        pairs = sorted_distinct(entity * len(names) + code)
        users = np.bincount(pairs % max(len(names), 1), minlength=len(names)).tolist()
        ranked = sorted(np.flatnonzero(users).tolist(), key=lambda j: (-users[j], names[j]))
        tokens[spec.name] = {names[j]: i for i, j in enumerate(ranked[:tag_top_t])}
    return FeatureVocab(specs, tokens)


@dataclass
class PackedFeatures:
    """One side's features, as the model reads them for batched mean pooling:
    two (num_entities, T) tables, one column block per field in field order.
    Field f owns columns bounds[f]:bounds[f+1], as many as its widest slot.
    `rows` holds the global embedding row of each token (0 on padding), and
    `weights` its mean-pooling weight: 1/c on each of a slot's c tokens (the
    division mask / count, done once here) and 0 on its padding. A side with
    no fields has (num_entities, 0) tables. A batch gathers each table once
    per side; the zero weights mark the padding that the embedding gradient
    leaves out (see scatter_add_rows for why that keeps its bits)."""

    rows: np.ndarray     # (num_entities, T) int64
    weights: np.ndarray  # (num_entities, T) float64
    bounds: list[int]    # (F+1,) field column bounds


def encode_entity_features(columns_by_field: dict[str, FeatureColumns],
                           vocab: FeatureVocab, id_map: dict[str, int],
                           owner: str) -> PackedFeatures:
    """Encode and pack the entities of `id_map` (raw id -> dense id) field by
    field, from each field's parsed file. Tokens outside a field's vocabulary
    and entities outside `id_map` are dropped; a slot with nothing retained
    (including entities absent from the file) holds the unknown index. A
    field's token texts are looked up in its vocabulary once each, in code
    order, and its tokens' indices gathered from those by code. Each field
    is then one sort of the keys entity * size + index of its known tokens
    and its empty slots' unknown index, which orders and de-duplicates every
    slot at once."""
    n = len(id_map)
    sizes, indices = [], []
    for fname in vocab.fields_of(owner):
        columns = columns_by_field[fname]
        size, unknown = vocab.field_size(fname), vocab.unknown_index(fname)
        dense = np.fromiter(map(id_map.get, columns.entities, repeat(-1)), np.int64,
                            len(columns.entities))
        lookup = np.fromiter(map(vocab.tokens[fname].get, columns.names, repeat(unknown)),
                             np.int64, len(columns.names))
        index = lookup[columns.codes]
        entity = np.repeat(dense, columns.lengths)
        known = (entity >= 0) & (index != unknown)
        entity, index = entity[known], index[known]
        empty = np.ones(n, dtype=bool)
        empty[entity] = False
        keys = sorted_distinct(np.concatenate([entity * size + index,
                                               np.flatnonzero(empty) * size + unknown]))
        entity, index = np.divmod(keys, size)
        sizes.append(np.bincount(entity, minlength=n))
        indices.append(index)
    return pack_features(n, sizes, indices, vocab, owner)


def pack_features(num_entities: int, sizes: list[np.ndarray], indices: list[np.ndarray],
                  vocab: FeatureVocab, owner: str) -> PackedFeatures:
    """Pack one side's slots, given per field in the vocabulary's order:
    entity e's slot in field f holds sizes[f][e] indices, and the slots lie
    one after another in dense-id order in indices[f]. One fancy assignment
    per table and field puts a slot's k-th index in its entity's row, k
    columns into the field's block. Every slot must hold at least one index,
    each in [0, size) of its field: a ShapeError naming the field rejects any
    other, since an empty slot would pool to a zero vector and an index
    outside would pool another field's row, or wrap to the table's end."""
    fields = vocab.fields_of(owner)
    offsets = vocab.offsets()
    n = num_entities
    if len(sizes) != len(fields) or len(indices) != len(fields):
        raise ShapeError(f"encoded features hold {len(sizes)} fields, "
                         f"the {owner} side has {len(fields)}")
    bounds = [0]
    for counts in sizes:
        bounds.append(bounds[-1] + (int(counts.max()) if n else 1))
    rows = np.zeros((n, bounds[-1]), dtype=np.int64)
    weights = np.zeros((n, bounds[-1]), dtype=np.float64)
    for fi, fname in enumerate(fields):
        counts, index = sizes[fi], indices[fi]
        if counts.shape != (n,) or index.shape != (int(counts.sum()),):
            raise ShapeError(f"encoded slots of field {fname!r} do not match "
                             f"{n} entities")
        lo = bounds[fi]
        entity = np.repeat(np.arange(n), counts)
        column = np.arange(lo, lo + index.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows[entity, column] = index + offsets[fname]
        weights[entity, column] = 1.0
        cols = slice(lo, bounds[fi + 1])
        block = weights[:, cols]
        filled = block.sum(axis=1)
        if not filled.all():
            raise ShapeError(f"empty feature slot in field {fname!r}")
        local = rows[:, cols] - offsets[fname]
        if ((local < 0) | (local >= vocab.field_size(fname)))[block > 0].any():
            raise ShapeError(f"feature index out of range for field {fname!r}")
        block /= filled[:, None]
    return PackedFeatures(rows=rows, weights=weights, bounds=bounds)


_BILLION = np.uint64(10 ** 9)


def _decimal_columns(values: np.ndarray) -> list[np.ndarray]:
    """The decimal text of each int64 value as uint8 columns, left to right:
    a sign column ('-' or NUL) if any value is negative, then one column per
    digit of the longest text, with NUL in place of leading zeros. Without
    the NULs each row reads as str() writes the value. The digits come nine
    at a time from uint32 chunks, whose division by 10 is several times
    faster than uint64's."""
    negative = values < 0
    magnitude = values.view(np.uint64)
    if negative.any():
        magnitude = np.where(negative, -magnitude, magnitude)  # -2**63 -> 2**63
    digits = len(str(int(magnitude.max(initial=0))))
    columns, rest = [], magnitude
    for start in range(0, digits, 9):
        high = rest // _BILLION
        chunk = (rest - high * _BILLION).astype(np.uint32)
        for place in range(start, min(start + 9, digits)):
            tens = chunk // np.uint32(10)
            column = (chunk - tens * np.uint32(10)).astype(np.uint8) + np.uint8(ord("0"))
            if place:
                column *= magnitude >= np.uint64(10 ** place)
            columns.append(column)
            chunk = tens
        rest = high
    if negative.any():
        columns.append(negative * np.uint8(ord("-")))
    return columns[::-1]


@dataclass
class PreparedData:
    """Everything downstream of ingestion: vocabularies, each side's packed
    features, dense interactions, and the seeded split."""

    manifest: DatasetManifest
    vocab: FeatureVocab
    interactions: Interactions
    split: DatasetSplit
    user_ids: dict[str, int]
    item_ids: dict[str, int]
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
        pipeline it was trained on: the sha256 of the vocabulary's canonical
        JSON, then {"items", "seed", "users"} as canonical JSON, then one line
        per event, f"{user},{item},{rating!r},{timestamp}\\n" with a missing
        timestamp as None. Checkpoints store this hash, so the text must not
        change.

        The lines are built as one (n, W) byte matrix, a column per byte
        place, and hashed once: the ids and timestamps are written as digits
        by integer arithmetic, each distinct rating (by its bits) is
        formatted once and gathered by index, and every column is padded
        with NUL, which the text never holds, so dropping the NULs leaves the
        lines."""
        h = hashlib.sha256()
        h.update(json.dumps(self.vocab.to_dict(), sort_keys=True,
                            separators=(",", ":")).encode())
        h.update(json.dumps({"users": self.num_users, "items": self.num_items,
                             "seed": self.split.seed},
                            sort_keys=True, separators=(",", ":")).encode())
        x = self.interactions
        n = len(x)
        bits = x.ratings.view(np.int64)
        distinct = sorted_distinct(bits)
        texts = np.array([f"{r!r}," for r in distinct.view(np.float64).tolist()], dtype="S")
        ratings = texts[np.searchsorted(distinct, bits)].view(np.uint8)
        ratings = ratings.reshape(n, texts.itemsize)
        has = x.has_timestamp
        stamps = _decimal_columns(np.where(has, x.timestamps, 0))
        if not has.all():
            stamps = [np.zeros(n, np.uint8)] * (4 - len(stamps)) + stamps
            stamps = [np.where(has, column, byte) for column, byte
                      in zip(stamps, b"None".rjust(len(stamps), b"\0"))]
        comma, newline = np.full(n, ord(","), np.uint8), np.full(n, ord("\n"), np.uint8)
        text = np.column_stack([*_decimal_columns(x.users), comma,
                                *_decimal_columns(x.items), comma, ratings,
                                *stamps, newline])
        h.update(text[text != 0])
        return h.hexdigest()


def build_dataset(manifest: DatasetManifest, seed: int,
                  by_time: bool = False) -> PreparedData:
    """Run the full pipeline: load + filter ratings, build vocabularies over the
    filtered population, encode features, split. A split refused (too few
    ratings left, or a missing timestamp) is a ValueError naming the ratings
    file, its min_ratings and the ratings kept."""
    interactions, user_ids, item_ids = load_ratings(manifest.ratings_path,
                                                    manifest.min_ratings)
    population = {"user": set(user_ids), "item": set(item_ids)}
    vocab = build_feature_vocab(manifest.features, manifest.tag_top_t, population)
    columns = {s.name: parse_feature_file(s.path) for s in manifest.features}
    user_packed = encode_entity_features(columns, vocab, user_ids, "user")
    item_packed = encode_entity_features(columns, vocab, item_ids, "item")
    try:
        split = split_dataset(interactions, derive_seed(seed, "split"), by_time=by_time)
    except ValueError as e:
        raise ValueError(f"{manifest.ratings_path} with min_ratings {manifest.min_ratings}: "
                         f"{e} ({len(interactions)} ratings kept)") from None
    return PreparedData(manifest=manifest, vocab=vocab, interactions=interactions,
                        split=split, user_ids=user_ids, item_ids=item_ids,
                        user_packed=user_packed, item_packed=item_packed)


def interactions_to_arrays(interactions: Interactions):
    """Column arrays (users, items, ratings) for batched model code: the
    record's own read-only columns, not copies."""
    return interactions.users, interactions.items, interactions.ratings
