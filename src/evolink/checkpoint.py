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
is bit-exact. Anything structurally off raises CheckpointError: bad magic,
an unknown version, truncation, trailing bytes, a tensor name that is not
UTF-8, a missing, unexpected or repeated tensor, non-finite values, or a
registry that is not empty and does not map raw ids one to one onto
0..n_global-1. Tensor shapes that contradict the header's config raise
ShapeError. Each stored shape is checked before its values are read, so a
corrupt length field cannot make the reader allocate more than the blob
holds.
"""
from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ShapeError
from .eventio import read_file
from .gcn import param_spec
from .model import GcnChain, ModelConfig

MAGIC = b"EVGC"
VERSION = 1

Array = np.ndarray


def save_checkpoint(model: GcnChain) -> bytes:
    if model.models != 1:
        raise ShapeError(f"save_checkpoint: a checkpoint holds one model, got a stack of "
                         f"{model.models}; save each model on its own")
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
        n_global = header["n_global"]
        if not isinstance(n_global, int) or isinstance(n_global, bool):
            raise CheckpointError(f"n_global must be an integer, got {n_global!r}")
        spec = param_spec(config, n_global)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc

    (tensor_count,) = r.unpack("<I")
    if tensor_count != len(spec):
        raise CheckpointError(f"checkpoint tensors do not match the header config: "
                              f"{tensor_count} stored, {len(spec)} expected")
    tensors: dict[str, Array] = {}
    for _ in range(tensor_count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("a checkpoint tensor name is not UTF-8") from None
        if name not in spec or name in tensors:
            raise CheckpointError(f"checkpoint tensors do not match the header config: "
                                  f"{'repeated' if name in tensors else 'unexpected'} {name!r}")
        shape = r.unpack("<QQ")
        if shape != spec[name]:
            raise ShapeError(f"leaf {name!r}: the checkpoint has {shape}, "
                             f"the config requires {spec[name]}")
        values = np.frombuffer(r.take(shape[0] * shape[1] * 8), dtype="<f8")
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"non-finite values in checkpoint tensor {name!r}")
        tensors[name] = values.reshape(shape).copy()
    (registry_len,) = r.unpack("<I")
    registry: dict[int, int] = {}
    for _ in range(registry_len):
        raw_id, dense_id = r.unpack("<QQ")
        if raw_id in registry:
            raise CheckpointError(f"raw node id {raw_id} registered twice")
        registry[raw_id] = dense_id
    if registry and not (len(registry) == n_global == len(set(registry.values()))
                         and max(registry.values()) == n_global - 1):
        raise CheckpointError(f"the checkpoint registry does not map {n_global} raw ids "
                              f"one to one onto dense ids 0..{n_global - 1}")
    if r.pos != len(data):
        raise CheckpointError(f"{len(data) - r.pos} trailing bytes after checkpoint")
    return GcnChain.from_arrays(config, n_global, tensors, registry)


def write_checkpoint(model: GcnChain, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(save_checkpoint(model))
    return path


def read_checkpoint(path: str | Path) -> GcnChain:
    return load_checkpoint(read_file(Path(path), "checkpoint", CheckpointError, binary=True))
