"""Deterministic binary checkpoints.

Layout: 8-byte magic, little-endian u64 header length, canonical JSON header
(sorted keys, no whitespace), raw float64 little-endian array payload in
header-declared order, and a trailing sha256 of everything before it. The
format contains no timestamps and no environment data, so saving the same
state twice yields identical bytes, and save -> load -> save round-trips
byte-exactly. The trailing digest turns silent corruption into a parse error.
Loading refuses a payload value that is NaN or infinite, and what would not
save again to the same bytes: a header whose `format` is not the integer 1,
an array outside the tensor/, stat/, adam_m/ and adam_v/ sections or named
twice, moments without an optimizer header, and optimizer rates that are not
finite JSON numbers.

The optimizer state travels in one form: the `adam` dict that
ParamSet.optimizer_state() returns and the ParamSet constructor takes. Its
step counts go into the header (as a name -> int map, which the canonical
JSON writes in sorted-key order) and its moments into the payload, after the
tensors and statistics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError, ParseError, is_json

MAGIC = b"SAINCKP1"
FORMAT = 1
SECTIONS = ("tensor", "stat", "adam_m", "adam_v")


@dataclass
class Checkpoint:
    """Decoded checkpoint: model kind, config/layout dictionaries, named arrays
    (tensors in registry order, then auxiliary stats), optional optimizer
    state, and a metadata object (seed, dataset digest, epoch, ...)."""

    kind: str
    config: dict
    layout: dict
    tensors: dict[str, np.ndarray]
    stats: dict[str, np.ndarray] = field(default_factory=dict)
    adam: dict | None = None          # {"beta1","beta2","eps","t":{name:int},
                                      #  "m":{name:arr},"v":{name:arr}}
    meta: dict = field(default_factory=dict)


def _layout(ckpt: Checkpoint) -> tuple[bytes, list[np.ndarray]]:
    """The canonical JSON header and the arrays of the payload, in order."""
    arrays: list[tuple[str, np.ndarray]] = []
    for name, arr in ckpt.tensors.items():
        arrays.append((f"tensor/{name}", arr))
    for name, arr in ckpt.stats.items():
        arrays.append((f"stat/{name}", arr))
    adam_header = None
    if ckpt.adam is not None:
        for name in ckpt.tensors:
            arrays.append((f"adam_m/{name}", ckpt.adam["m"][name]))
            arrays.append((f"adam_v/{name}", ckpt.adam["v"][name]))
        adam_header = {"beta1": ckpt.adam["beta1"], "beta2": ckpt.adam["beta2"],
                       "eps": ckpt.adam["eps"],
                       "t": {k: int(v) for k, v in ckpt.adam["t"].items()}}
    header = {
        "format": FORMAT,
        "kind": ckpt.kind,
        "config": ckpt.config,
        "layout": ckpt.layout,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "adam": adam_header,
        "meta": ckpt.meta,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return head, [a for _, a in arrays]


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Stream the checkpoint into `path + ".tmp"` through one running sha256,
    then rename it over `path`. Each array's own buffer is written; only an
    array that is not C-contiguous little-endian float64 is copied first."""
    head, arrays = _layout(ckpt)
    digest = hashlib.sha256()
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        def write(chunk) -> None:
            digest.update(chunk)
            f.write(chunk)

        write(MAGIC + len(head).to_bytes(8, "little") + head)
        for arr in arrays:
            write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1))
        f.write(digest.digest())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    """Decode and verify a checkpoint. The file is read into one writable
    buffer, and the returned arrays are views into it, so the payload is
    not copied again. The buffer starts at the offset that puts the payload
    on an 8-byte boundary, so numpy reads its float64 values with aligned
    loads."""
    if not os.path.exists(path):
        raise IoError(f"checkpoint not found: {path}")
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        start = f.read(len(MAGIC) + 8)
        pad = -(len(start) + int.from_bytes(start[len(MAGIC):], "little")) % 8
        f.seek(0)
        view = memoryview(np.empty(pad + size, np.uint8))[pad:]
        read = f.readinto(view)
    if read != len(view):
        raise ParseError(f"checkpoint changed while being read: {path}")
    if len(view) < len(MAGIC) + 8 + 32 or view[:len(MAGIC)] != MAGIC:
        raise ParseError(f"not a checkpoint file: {path}")
    if hashlib.sha256(view[:-32]).digest() != view[-32:]:
        raise ParseError(f"checkpoint checksum mismatch: {path}")
    head_len = int.from_bytes(view[len(MAGIC):len(MAGIC) + 8], "little")
    head_start = len(MAGIC) + 8
    try:
        header = json.loads(bytes(view[head_start:head_start + head_len]).decode())
    except (ValueError, RecursionError) as e:  # not UTF-8 or JSON, or too deep
        raise ParseError(f"checkpoint header unreadable: {path}: {e}") from e
    if not (is_json(header, "object") and is_json(header.get("kind"), "string")
            and is_json(header.get("arrays"), "list")
            and is_json(header.get("config"), "object")
            and is_json(header.get("layout"), "object")):
        raise ParseError(f"checkpoint header lacks kind, config, layout or "
                         f"arrays: {path}")
    if not (is_json(header.get("format"), "integer") and header["format"] == FORMAT):
        raise ParseError(f"checkpoint format must be {FORMAT}, got "
                         f"{header.get('format')!r}: {path}")

    # One pass over the payload sorts each array into its section by the
    # prefix of its name; re-saving writes only these, so any other array,
    # or a second array of one name, is refused rather than dropped.
    body = view[head_start + head_len:-32]
    pos = 0
    sections: dict[str, dict[str, np.ndarray]] = {s: {} for s in SECTIONS}
    for entry in header["arrays"]:
        if not (is_json(entry, "object") and is_json(entry.get("name"), "string")):
            raise ParseError(f"checkpoint array entry malformed: {path}")
        name, shape = entry["name"], entry.get("shape")
        if not (is_json(shape, "list") and all(is_json(n, "count") for n in shape)):
            raise ParseError(f"checkpoint array {name!r} has a malformed shape "
                             f"{shape!r}: {path}")
        section, slash, key = name.partition("/")
        if not slash or section not in sections or key in sections[section]:
            raise ParseError(f"checkpoint array {name!r} is named twice or lies "
                             f"outside the sections {SECTIONS}: {path}")
        nbytes = math.prod(shape) * 8
        if pos + nbytes > len(body):
            raise ParseError(f"checkpoint payload truncated: {path}")
        sections[section][key] = np.frombuffer(body[pos:pos + nbytes], "<f8").reshape(shape)
        pos += nbytes
    if pos != len(body):
        raise ParseError(f"checkpoint payload has trailing bytes: {path}")
    # Training never saves a NaN or an infinity (it stops with a divergence
    # error first), and a model holding one scores NaN. min and max pass NaN
    # on, so two reductions over the payload find either, with no temporary.
    payload = np.frombuffer(body, "<f8")
    if payload.size and not (math.isfinite(payload.min()) and math.isfinite(payload.max())):
        name = next(f"{section}/{key}" for section in SECTIONS
                    for key, arr in sections[section].items() if not np.isfinite(arr).all())
        raise ParseError(f"checkpoint array {name!r} holds a value that is not "
                         f"finite: {path}")

    adam, ah = None, header.get("adam")
    if ah is not None:
        # Exact JSON kinds: int() and float() would read 3.7 as step 3 and
        # "0.9" or true as a number. Python's json reads NaN and Infinity.
        if not (is_json(ah, "object") and is_json(ah.get("t"), "object")
                and all(is_json(ah.get(k), "number") and math.isfinite(ah[k])
                        for k in ("beta1", "beta2", "eps"))
                and all(is_json(t, "integer") for t in ah["t"].values())):
            raise ParseError(f"checkpoint optimizer header malformed: {path}")
        adam = {**{k: float(ah[k]) for k in ("beta1", "beta2", "eps")},
                "t": dict(ah["t"]), "m": sections["adam_m"], "v": sections["adam_v"]}
    elif sections["adam_m"] or sections["adam_v"]:
        raise ParseError(f"checkpoint has optimizer moments but no optimizer "
                         f"header: {path}")
    meta = header.get("meta", {})
    if not is_json(meta, "object"):
        raise ParseError(f"checkpoint meta is not a JSON object: {path}")
    return Checkpoint(kind=header["kind"], config=header["config"],
                      layout=header["layout"], tensors=sections["tensor"],
                      stats=sections["stat"], adam=adam, meta=meta)

