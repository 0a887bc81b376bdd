"""Binary model checkpoints.

Layout (all integers little-endian):

    magic          4 bytes  b"EVGC"
    version        uint32
    header_len     uint32
    header         UTF-8 JSON: {"config": {...}, "n_global": int}
    tensor_count   uint32
    per tensor:    name_len uint16, name UTF-8,
                   rows uint64, cols uint64, rows*cols float64 values
    registry_len   uint32
    per entry:     raw_id uint64, dense_id uint64

Values are stored as raw little-endian float64, so a save/load round trip
is bit-exact. Anything structurally off (bad magic, unknown version,
truncation, trailing bytes, name mismatches) raises CheckpointError;
tensor shapes that contradict the header's config raise ShapeError.
"""
from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .gcn import param_spec
from .model import GcnChain, ModelConfig

MAGIC = b"EVGC"
VERSION = 1

Array = np.ndarray


def save_checkpoint(model: GcnChain) -> bytes:
    header = json.dumps(
        {"config": dataclasses.asdict(model.config), "n_global": model.n_global},
        sort_keys=True,
    ).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(header))
    out += header
    tensors = model.param_arrays()
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<QQ", arr.shape[0], arr.shape[1])
        out += arr.astype("<f8").tobytes()
    out += struct.pack("<I", len(model.registry))
    for raw_id, dense_id in model.registry.items():
        out += struct.pack("<QQ", raw_id, dense_id)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(data: bytes) -> GcnChain:
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (header_len,) = r.unpack("<I")
    try:
        header = json.loads(r.take(header_len).decode("utf-8"))
        config = ModelConfig(**header["config"])
        n_global = int(header["n_global"])
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc

    (tensor_count,) = r.unpack("<I")
    tensors: dict[str, Array] = {}
    for _ in range(tensor_count):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8")
        rows_, cols = r.unpack("<QQ")
        raw = r.take(rows_ * cols * 8)
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(rows_, cols).copy()
    (registry_len,) = r.unpack("<I")
    registry: dict[int, int] = {}
    for _ in range(registry_len):
        raw_id, dense_id = r.unpack("<QQ")
        registry[raw_id] = dense_id
    if r.pos != len(data):
        raise CheckpointError(f"{len(data) - r.pos} trailing bytes after checkpoint")

    return _assemble(config, n_global, tensors, registry)


def _assemble(config: ModelConfig, n_global: int, tensors: dict[str, Array],
              registry: dict[int, int]) -> GcnChain:
    if set(tensors) != set(param_spec(config, n_global)):
        raise CheckpointError("checkpoint tensors do not match the header config")
    return GcnChain.from_arrays(config, n_global, tensors, registry)


def write_checkpoint(model: GcnChain, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(save_checkpoint(model))
    return path


def read_checkpoint(path: str | Path) -> GcnChain:
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    return load_checkpoint(data)
