"""Checkpoint container tests: byte-exact round trips, checksum enforcement,
and malformed-input rejection. The streamed writer is checked against the
in-memory encoder it replaced, kept here as the byte oracle."""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from sain import training
from sain.checkpoint import (MAGIC, Checkpoint, adam_states_from_header,
                             adam_states_to_header, load_checkpoint,
                             save_checkpoint)
from sain.errors import IoError, ParseError
from sain.model import ModelConfig
from sain.tensor import AdamState


def _encode(ckpt: Checkpoint) -> bytes:
    """The whole checkpoint file, built in memory as the writer once did."""
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
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
    blob = MAGIC + len(head).to_bytes(8, "little") + head + body
    return blob + hashlib.sha256(blob).digest()


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _sample(with_adam=True):
    rng = np.random.default_rng(60)
    tensors = {"alpha": rng.normal(size=(3, 4)), "beta": rng.normal(size=5)}
    adam = None
    if with_adam:
        states = {k: AdamState(m=rng.normal(size=v.shape),
                               v=np.abs(rng.normal(size=v.shape)), t=7)
                  for k, v in tensors.items()}
        adam = adam_states_to_header(states)
    return Checkpoint(kind="sain", config={"embed_dim": 4},
                      layout={"num_users": 3}, tensors=tensors,
                      stats={"bn_mean": rng.normal(size=4)}, adam=adam,
                      meta={"seed": 11, "dataset_digest": "abc"})


def _rewrite(path, blob):
    data = blob + hashlib.sha256(blob).digest()
    with open(path, "wb") as f:
        f.write(data)


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        a = str(tmp_path / "a.ckpt")
        b = str(tmp_path / "b.ckpt")
        save_checkpoint(a, _sample())
        save_checkpoint(b, load_checkpoint(a))
        with open(a, "rb") as f:
            bytes_a = f.read()
        with open(b, "rb") as f:
            bytes_b = f.read()
        assert bytes_a == bytes_b

    def test_contents_survive(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        original = _sample()
        save_checkpoint(path, original)
        loaded = load_checkpoint(path)
        assert loaded.kind == "sain"
        assert loaded.config == original.config
        assert loaded.layout == original.layout
        assert loaded.meta == original.meta
        for k in original.tensors:
            np.testing.assert_array_equal(loaded.tensors[k], original.tensors[k])
        np.testing.assert_array_equal(loaded.stats["bn_mean"],
                                      original.stats["bn_mean"])

    def test_adam_states_survive(self, tmp_path):
        path = str(tmp_path / "d.ckpt")
        original = _sample(with_adam=True)
        save_checkpoint(path, original)
        loaded = load_checkpoint(path)
        states = adam_states_from_header(loaded.adam)
        assert states["alpha"].t == 7
        assert states["alpha"].beta1 == 0.9 and states["alpha"].eps == 1e-8
        np.testing.assert_array_equal(states["beta"].m, original.adam["m"]["beta"])
        np.testing.assert_array_equal(states["beta"].v, original.adam["v"]["beta"])

    def test_no_adam_round_trips_as_none(self, tmp_path):
        path = str(tmp_path / "e.ckpt")
        save_checkpoint(path, _sample(with_adam=False))
        assert load_checkpoint(path).adam is None

    def test_repeated_saves_are_identical(self, tmp_path):
        a = str(tmp_path / "a.ckpt")
        b = str(tmp_path / "b.ckpt")
        save_checkpoint(a, _sample())
        save_checkpoint(b, _sample())
        with open(a, "rb") as f:
            bytes_a = f.read()
        with open(b, "rb") as f:
            bytes_b = f.read()
        assert bytes_a == bytes_b


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as f:
            f.write(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(ParseError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = str(tmp_path / "f.ckpt")
        save_checkpoint(path, _sample())
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[-40] ^= 0xFF  # inside the payload, before the trailing digest
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(ParseError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file_fails_checksum(self, tmp_path):
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(path, _sample())
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[:-5])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_short_payload_with_valid_digest(self, tmp_path):
        # Recompute the digest over a shortened blob: the checksum passes but
        # the declared arrays no longer fit.
        path = str(tmp_path / "h.ckpt")
        save_checkpoint(path, _sample())
        with open(path, "rb") as f:
            blob = f.read()[:-32]
        _rewrite(path, blob[:-8])
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_payload_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "i.ckpt")
        save_checkpoint(path, _sample())
        with open(path, "rb") as f:
            blob = f.read()[:-32]
        _rewrite(path, blob + b"\0" * 8)
        with pytest.raises(ParseError, match="trailing"):
            load_checkpoint(path)

    def test_magic_prefix_is_stable(self, tmp_path):
        path = str(tmp_path / "j.ckpt")
        save_checkpoint(path, _sample())
        with open(path, "rb") as f:
            assert f.read(8) == MAGIC


def _with_header(path, edit):
    """Save the sample, let `edit` change its decoded header in place, and
    re-seal the file with a correct digest."""
    save_checkpoint(path, _sample())
    with open(path, "rb") as f:
        blob = f.read()[:-32]
    n = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    header = json.loads(blob[start:start + n])
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    _rewrite(path, MAGIC + len(head).to_bytes(8, "little") + head + blob[start + n:])


def _set_shape(value):
    def edit(h):
        h["arrays"][0]["shape"] = value
    return edit


class TestMalformedHeader:
    """The digest is valid in every case, so only the header checks stand
    between these files and a KeyError or reshape traceback."""

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("arrays"), "lacks"),
        (lambda h: h.pop("kind"), "lacks"),
        (lambda h: h.pop("layout"), "lacks"),
        (lambda h: h.update(kind=7), "lacks"),
        (lambda h: h.update(arrays={"tensor/alpha": [3, 4]}), "lacks"),
        (_set_shape("3x4"), "malformed shape"),
        (_set_shape([3, -4]), "malformed shape"),
        (_set_shape([3.0, 4]), "malformed shape"),
        (_set_shape([True, 4]), "malformed shape"),
        (_set_shape(None), "malformed shape"),
        (lambda h: h["arrays"].__setitem__(0, "tensor/alpha"), "entry malformed"),
        (lambda h: h["arrays"][0].pop("name"), "entry malformed"),
        (lambda h: h["adam"].pop("t"), "optimizer header"),
        (lambda h: h["adam"].update(beta1="x"), "optimizer header"),
        (lambda h: h["adam"].update(t=[7, 7]), "optimizer header")],
        ids=["no-arrays", "no-kind", "no-layout", "kind-not-text", "arrays-not-list",
             "shape-text", "shape-negative", "shape-float", "shape-bool", "shape-null",
             "entry-not-object", "entry-no-name", "adam-no-t", "adam-beta-text",
             "adam-t-list"])
    def test_is_a_parse_error(self, tmp_path, edit, message):
        path = str(tmp_path / "k.ckpt")
        _with_header(path, edit)
        with pytest.raises(ParseError, match=message):
            load_checkpoint(path)

    def test_unedited_header_still_loads(self, tmp_path):
        path = str(tmp_path / "l.ckpt")
        _with_header(path, lambda h: None)
        assert load_checkpoint(path).kind == "sain"

    def test_header_that_is_not_an_object(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        head = b"[1,2]"
        _rewrite(path, MAGIC + len(head).to_bytes(8, "little") + head)
        with pytest.raises(ParseError, match="lacks"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def trained_models(prepared):
    """One short SAIN run and one short BiasedMF run on the fixture."""
    tcfg = training.TrainConfig(max_epochs=1, batch_size=64, seed=2)
    sain = training.train_sain(prepared, ModelConfig(embed_dim=8, num_heads=2,
                                                     top_k=2), tcfg)
    mf = training.train_biasedmf(prepared, 4, tcfg)
    return {"sain": sain, "biasedmf": mf}


class TestStreamedWriter:
    @pytest.mark.parametrize("kind", ["sain", "biasedmf"])
    @pytest.mark.parametrize("with_adam", [True, False], ids=["adam", "no-adam"])
    def test_model_bytes_equal_the_in_memory_encoding(self, tmp_path, monkeypatch,
                                                      trained_models, kind, with_adam):
        result = trained_models[kind]
        saved = []

        def capture(path, ckpt):
            saved.append(ckpt)
            save_checkpoint(path, ckpt)

        monkeypatch.setattr(training, "save_checkpoint", capture)
        path = str(tmp_path / "model.ckpt")
        training.save_model(path, kind, result.params,
                            result.adam if with_adam else None, {"seed": 2})
        assert _read(path) == _encode(saved[0])
        assert (load_checkpoint(path).adam is None) != with_adam
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_sample_bytes_equal_the_in_memory_encoding(self, tmp_path):
        for with_adam in (True, False):
            path = str(tmp_path / "s.ckpt")
            save_checkpoint(path, _sample(with_adam))
            assert _read(path) == _encode(_sample(with_adam))

    def test_arrays_of_any_layout_are_written_as_little_endian_float64(self, tmp_path):
        rng = np.random.default_rng(61)
        tensors = {"strided": rng.normal(size=(4, 6))[:, ::2],
                   "transposed": rng.normal(size=(3, 5)).T,
                   "big_endian": rng.normal(size=7).astype(">f8"),
                   "single": rng.normal(size=7).astype(np.float32),
                   "integer": np.arange(5), "scalar": np.array(2.5),
                   "empty": np.zeros((0, 3))}
        ckpt = Checkpoint(kind="sain", config={}, layout={}, tensors=tensors)
        path = str(tmp_path / "odd.ckpt")
        save_checkpoint(path, ckpt)
        assert _read(path) == _encode(ckpt)
        loaded = load_checkpoint(path)
        for name, arr in tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], arr)
            assert loaded.tensors[name].shape == arr.shape

    def test_saving_allocates_no_copy_of_the_payload(self, tmp_path):
        # 8 MB of tensors and moments; the in-memory encoder peaked at about
        # three times that.
        rng = np.random.default_rng(62)
        tensors = {"table": rng.normal(size=(1024, 256)), "bias": rng.normal(size=256)}
        adam = adam_states_to_header({k: AdamState(m=np.zeros_like(v),
                                                   v=np.ones_like(v), t=3)
                                      for k, v in tensors.items()})
        ckpt = Checkpoint(kind="biasedmf", config={}, layout={}, tensors=tensors,
                          adam=adam)
        tracemalloc.start()
        try:
            save_checkpoint(str(tmp_path / "big.ckpt"), ckpt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
