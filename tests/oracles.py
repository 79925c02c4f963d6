"""Reference implementations that the tests compare the package against: one
attention head on one sequence, a single-row softmax, top-k selection by a
stable sort, dense ids by np.unique, and the feature pipeline entity by
entity (a line-by-line parse into a dict and a token order, vocabulary,
slots and packed tables). The package itself runs the batched forms (all
heads as one tensor axis, softmax_rows, top_k_mask_rows, a minimum.at pass
over the codes, feature records of token codes cut from the bytes, and
per-field column arrays)."""

import math
from collections import Counter

import numpy as np

from sain.data import FeatureColumns, FeatureVocab, PackedFeatures
from sain.errors import ParseError
from sain.tensor import softmax_rows, top_k_mask_rows


def softmax_row(logits) -> np.ndarray:
    """Softmax of a single logit vector, max-subtracted for overflow safety."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty logits")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logit")
    e = np.exp(z - z.max())
    return e / e.sum()


def top_k_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken by the smaller index,
    returned in ascending index order. k larger than the length clamps."""
    if k < 1:
        raise ValueError("k must be positive")
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty scores")
    k = min(k, s.size)
    # Stable sort on negated scores: equal scores keep ascending index order.
    order = np.argsort(-s, kind="stable")[:k]
    return np.sort(order)


def attention_head(x: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
                   k: int, renormalize: bool = True):
    """Single-sequence attention head, the per-head reference for the
    all-heads path. Returns (outputs (S,dh), pre-top-K attention matrix,
    post-top-K weight matrix)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    S = x.shape[0]
    dh = wq.shape[1]
    qh, kh, vh = x @ wq, x @ wk, x @ wv
    logits = (qh @ kh.T) / math.sqrt(dh)
    alpha = softmax_rows(logits)
    mask = top_k_mask_rows(alpha, min(k, S))
    selected = alpha * mask
    ahat = selected / selected.sum(axis=-1, keepdims=True) if renormalize else selected
    return ahat @ vh, alpha, ahat


def head_outputs(trace) -> np.ndarray:
    """The (B,S,d) attention output before batch norm, heads side by side in
    head order, rebuilt from a trace's post-top-K weights and values."""
    out = trace.alpha_topk @ trace.v                 # (B,H,S,dh)
    B, H, S, dh = out.shape
    return out.transpose(0, 2, 1, 3).reshape(B, S, H * dh)


def scores(trace) -> np.ndarray:
    """(B,3) columns of a trace's scores: content, preference, combined."""
    return np.stack([trace.score_content, trace.score_preference,
                     trace.score_combined], axis=1)


def dense_ids(names, code):
    """data._dense_ids by np.unique, which sorts every code: the names whose
    codes appear renumbered 0, 1, ... in order of first appearance, and the
    new codes."""
    old, first = np.unique(code, return_index=True)
    order = old[np.argsort(first)]
    new = np.empty(len(names), dtype=np.int64)
    new[order] = np.arange(order.size)
    return {names[c]: j for j, c in enumerate(order.tolist())}, new[code]


def feature_dict(path) -> dict:
    """parse_feature_file line by line, as a dict from each entity, in order
    of first appearance, to its non-empty tokens in file order; a line
    without exactly two tab-separated fields raises the same ParseError. A
    leading byte-order mark is not part of the first line."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().removeprefix("\ufeff").split("\n")
    out = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{path} line {lineno}: expected 2 tab-separated "
                             f"fields, got {len(parts)}")
        out.setdefault(parts[0], []).extend(t for t in parts[1].split("|") if t != "")
    return out


def feature_names(path) -> list:
    """The distinct non-empty tokens of a well-formed feature file in order
    of first appearance, line by line: the texts of parse_feature_file's
    codes, in code order."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().removeprefix("\ufeff").split("\n")
    return list(dict.fromkeys(t for line in lines if line
                              for t in line.split("\t")[1].split("|") if t != ""))


def feature_columns(mapping) -> FeatureColumns:
    """The record parse_feature_file gives for a file whose entities, in
    order, each on one line, have the token lists of `mapping`."""
    flat = [t for tokens in mapping.values() for t in tokens]
    names = list(dict.fromkeys(flat))
    code = {t: j for j, t in enumerate(names)}
    return FeatureColumns(list(mapping),
                          np.array([len(t) for t in mapping.values()], dtype=np.int64),
                          np.array([code[t] for t in flat], dtype=np.int64), names)


def columns_dict(columns: FeatureColumns) -> dict:
    """A parse_feature_file record as feature_dict gives it: each entity, in
    order, with the texts of its token codes."""
    tokens = [columns.names[c] for c in columns.codes.tolist()]
    ends = np.cumsum(columns.lengths).tolist()
    return {entity: tokens[end - n:end] for entity, n, end
            in zip(columns.entities, columns.lengths.tolist(), ends)}


def feature_vocab(specs, tag_top_t: int, population=None) -> FeatureVocab:
    """build_feature_vocab token by token: closed fields index every token in
    first-appearance order; open fields keep the tag_top_t tokens used by
    the most distinct (population) entities, ties broken by the token."""
    tokens = {}
    for spec in specs:
        raw = feature_dict(spec.path)
        if spec.open_vocab:
            counts = Counter()
            for entity, toks in raw.items():
                if population is not None and entity not in population[spec.owner]:
                    continue
                counts.update(set(toks))
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            tokens[spec.name] = {tok: i for i, (tok, _) in enumerate(ranked[:tag_top_t])}
        else:
            index = {}
            for toks in raw.values():
                for tok in toks:
                    index.setdefault(tok, len(index))
            tokens[spec.name] = index
    return FeatureVocab(specs, tokens)


def entity_slots(raw_by_field, vocab: FeatureVocab, id_map, owner: str) -> list:
    """encode_entity_features entity by entity: per dense id, one slot per
    owned field holding the sorted, de-duplicated known indices of its
    tokens, or the unknown index when none is known."""
    slots = [None] * len(id_map)
    for raw_id, dense in id_map.items():
        entity = []
        for fname in vocab.fields_of(owner):
            toks = raw_by_field.get(fname, {}).get(raw_id, [])
            kept = sorted({vocab.tokens[fname][t] for t in toks if t in vocab.tokens[fname]})
            entity.append(kept if kept else [vocab.unknown_index(fname)])
        slots[dense] = entity
    return slots


def packed_tables(slots, vocab: FeatureVocab, owner: str):
    """pack_features slot by slot, for well-formed slots: the (n, T) rows and
    weights tables and the field column bounds."""
    fields = vocab.fields_of(owner)
    offsets = vocab.offsets()
    bounds = [0]
    for fi in range(len(fields)):
        bounds.append(bounds[-1] + max((len(e[fi]) for e in slots), default=1))
    rows = np.zeros((len(slots), bounds[-1]), dtype=np.int64)
    weights = np.zeros((len(slots), bounds[-1]), dtype=np.float64)
    for fi, fname in enumerate(fields):
        lo = bounds[fi]
        for eid, entity in enumerate(slots):
            hi = lo + len(entity[fi])
            rows[eid, lo:hi] = np.asarray(entity[fi], dtype=np.int64) + offsets[fname]
            weights[eid, lo:hi] = 1.0
        block = weights[:, lo:bounds[fi + 1]]
        block /= block.sum(axis=1)[:, None]
    return rows, weights, bounds


def encoded(slots, num_fields: int | None = None) -> tuple:
    """pack_features' (num_entities, sizes, indices) for per-entity slots (per
    entity, one index list per field); num_fields is needed only when there
    are no entities."""
    if num_fields is None:
        num_fields = len(slots[0])
    return (len(slots),
            [np.array([len(e[f]) for e in slots], dtype=np.int64) for f in range(num_fields)],
            [np.array([i for e in slots for i in e[f]], dtype=np.int64)
             for f in range(num_fields)])


def slots_of(packed: PackedFeatures, vocab: FeatureVocab, owner: str) -> list:
    """The per-entity slots of one side's packed tables, as entity_slots lists
    them: in each field's column block, the rows less the field's offset
    where the weight is above 0. Packing puts a slot's k-th index k columns
    into the block, so this reads back exactly the slots packed."""
    offsets = vocab.offsets()
    spans = [(lo, hi, offsets[f]) for lo, hi, f
             in zip(packed.bounds, packed.bounds[1:], vocab.fields_of(owner))]
    return [[(rows[lo:hi][weights[lo:hi] > 0] - offset).tolist()
             for lo, hi, offset in spans]
            for rows, weights in zip(packed.rows, packed.weights)]
