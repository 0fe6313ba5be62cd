"""Versioned binary checkpoints with an integrity digest.

Layout: magic, format version, canonical-JSON config, vocabulary table,
parameter tensors as little-endian float64 in declared order, and a
trailing sha256 over everything before it. The v1 config also stores
three values the model fixes: the layer counts, 1 (encoder) and 2
(decoder), and the decode cap, 64. A bad digest, truncation, or text that
is not UTF-8 or JSON is corruption; a digest-valid file whose config
``ModelConfig`` rejects or stores other fixed values, whose vocabulary
holds a token twice, or whose config, vocabulary and tensor shapes
disagree is a version problem.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct

import numpy as np

from ..errors import ConfigError, CorruptCheckpoint, ShapeError, VersionError
from ..fileio import atomic_write_bytes
from .model import MAX_DECODE_LENGTH, ModelConfig, Seq2SeqModel, parameter_shapes
from .vocab import RESERVED_TOKENS, Vocabulary

MAGIC = b"VSQM"
FORMAT_VERSION = 1
# v1 stores the values the model fixes
_FIXED = {"encoder_layers": 1, "decoder_layers": 2, "max_decode_length": MAX_DECODE_LENGTH}


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CorruptCheckpoint("unexpected end of checkpoint")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpoint(f"string is not valid UTF-8: {exc}") from None


def save_model(model: Seq2SeqModel, path: str) -> None:
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    config_json = json.dumps(
        dataclasses.asdict(model.config) | _FIXED, sort_keys=True, separators=(",", ":")
    )
    chunks.append(_pack_str(config_json))
    vocab = model.vocabulary.index_to_token
    chunks.append(struct.pack("<I", len(vocab)))
    chunks.extend(_pack_str(t) for t in vocab)
    names = list(parameter_shapes(model.config, model.vocabulary.size()))
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        tensor = np.ascontiguousarray(model.params[name], dtype="<f8")
        chunks.append(_pack_str(name))
        chunks.append(struct.pack("<I", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(tensor.tobytes())
    body = b"".join(chunks)
    atomic_write_bytes(path, body + hashlib.sha256(body).digest())


def _config(text: str) -> ModelConfig:
    """The stored config, checked as strictly as one built in code."""
    try:
        fields = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise CorruptCheckpoint(f"config is not valid JSON: {exc}") from None
    names = {f.name for f in dataclasses.fields(ModelConfig)}
    if not isinstance(fields, dict) or set(fields) != names | set(_FIXED):
        raise VersionError("checkpoint config schema does not match")
    for name, fixed in _FIXED.items():
        value = fields.pop(name)
        if type(value) is not int or value != fixed:
            raise VersionError(f"checkpoint config {name} must be {fixed}, got {value!r}")
    try:
        return ModelConfig(**fields)
    except ConfigError as exc:
        raise VersionError(f"checkpoint config is invalid: {exc}") from None


def load_model(path: str) -> Seq2SeqModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 4 + 32:
        raise CorruptCheckpoint("checkpoint too short")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCheckpoint("digest mismatch")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CorruptCheckpoint("bad magic")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported checkpoint format version {version}")
    config = _config(r.string())
    n_tokens = r.u32()
    tokens = tuple(r.string() for _ in range(n_tokens))
    if tokens[: len(RESERVED_TOKENS)] != RESERVED_TOKENS:
        raise VersionError("vocabulary reserved entries do not match")
    if len(set(tokens)) != len(tokens):
        raise VersionError("vocabulary holds a token twice")
    n_params = r.u32()
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        name = r.string()
        ndim = r.u32()
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        # exact, so a huge shape reads past the end instead of wrapping
        data = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8")
        params[name] = data.reshape(shape).astype(np.float64)
    if r.pos != len(body):
        raise CorruptCheckpoint("trailing bytes after parameters")
    try:
        model = Seq2SeqModel(config, Vocabulary(tokens), params)
    except ShapeError as exc:
        raise VersionError(f"stored tensors do not match the stored config: {exc}") from None
    for name, tensor in model.params.items():
        if not np.isfinite(tensor).all():
            raise CorruptCheckpoint(f"{name} contains non-finite values")
    return model
