"""Deterministic binary checkpoints.

Layout: 8-byte magic, little-endian u64 header length, canonical JSON header
(sorted keys, no whitespace), raw float64 little-endian array payload in
header-declared order, and a trailing sha256 of everything before it. The
format contains no timestamps and no environment data, so saving the same
state twice yields identical bytes, and save -> load -> save round-trips
byte-exactly. The trailing digest turns silent corruption into a parse error.

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

from .errors import IoError, ParseError

MAGIC = b"SAINCKP1"


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
        "format": 1,
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


def _shape(entry, path: str) -> tuple[str, tuple[int, ...]]:
    """Name and shape of one header array entry, or a ParseError."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ParseError(f"checkpoint array entry malformed: {path}")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise ParseError(f"checkpoint array {entry['name']!r} has a malformed "
                         f"shape {shape!r}: {path}")
    return entry["name"], tuple(shape)


def load_checkpoint(path: str) -> Checkpoint:
    """Decode and verify a checkpoint. The file is read into one writable
    buffer, and the returned arrays are views into it, so the payload is
    not copied again."""
    if not os.path.exists(path):
        raise IoError(f"checkpoint not found: {path}")
    with open(path, "rb") as f:
        data = bytearray(os.fstat(f.fileno()).st_size)
        read = f.readinto(data)
    if read != len(data):
        raise ParseError(f"checkpoint changed while being read: {path}")
    if len(data) < len(MAGIC) + 8 + 32 or data[:len(MAGIC)] != MAGIC:
        raise ParseError(f"not a checkpoint file: {path}")
    view = memoryview(data)
    if hashlib.sha256(view[:-32]).digest() != data[-32:]:
        raise ParseError(f"checkpoint checksum mismatch: {path}")
    head_len = int.from_bytes(data[len(MAGIC):len(MAGIC) + 8], "little")
    head_start = len(MAGIC) + 8
    try:
        header = json.loads(bytes(view[head_start:head_start + head_len]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"checkpoint header unreadable: {path}: {e}") from e
    if not (isinstance(header, dict) and isinstance(header.get("kind"), str)
            and isinstance(header.get("arrays"), list)
            and isinstance(header.get("config"), dict)
            and isinstance(header.get("layout"), dict)):
        raise ParseError(f"checkpoint header lacks kind, config, layout or "
                         f"arrays: {path}")

    body = view[head_start + head_len:-32]
    pos = 0
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        name, shape = _shape(entry, path)
        nbytes = math.prod(shape) * 8
        if pos + nbytes > len(body):
            raise ParseError(f"checkpoint payload truncated: {path}")
        arrays[name] = np.frombuffer(body[pos:pos + nbytes], dtype="<f8").reshape(shape)
        pos += nbytes
    if pos != len(body):
        raise ParseError(f"checkpoint payload has trailing bytes: {path}")

    tensors = {n[len("tensor/"):]: a for n, a in arrays.items() if n.startswith("tensor/")}
    stats = {n[len("stat/"):]: a for n, a in arrays.items() if n.startswith("stat/")}
    adam = None
    if header.get("adam") is not None:
        try:
            ah = header["adam"]
            numbers = [ah["beta1"], ah["beta2"], ah["eps"]]
            steps = ah["t"].values()
        except (KeyError, TypeError, AttributeError) as e:
            raise ParseError(f"checkpoint optimizer header malformed: {path}: "
                             f"{e!r}") from e
        # Exact JSON types: int() and float() would read 3.7 as step 3 and
        # "0.9" or true as a number (a bool's type is not int).
        if not (all(type(x) in (int, float) for x in numbers)
                and all(type(t) is int for t in steps)):
            raise ParseError(f"checkpoint optimizer header malformed: {path}")
        adam = {"beta1": float(ah["beta1"]), "beta2": float(ah["beta2"]),
                "eps": float(ah["eps"]), "t": dict(ah["t"]),
                "m": {n[len("adam_m/"):]: a for n, a in arrays.items()
                      if n.startswith("adam_m/")},
                "v": {n[len("adam_v/"):]: a for n, a in arrays.items()
                      if n.startswith("adam_v/")}}
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(f"checkpoint meta is not a JSON object: {path}")
    return Checkpoint(kind=header["kind"], config=header["config"],
                      layout=header["layout"], tensors=tensors, stats=stats,
                      adam=adam, meta=meta)

