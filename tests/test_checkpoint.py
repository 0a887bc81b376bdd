"""Checkpoint format tests.

``craft`` rebuilds checkpoint bytes from the documented layout, standalone
from the writer, so these tests double as a check that the format note in
the module docstring is accurate.
"""
import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolink.checkpoint import (
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    write_checkpoint,
)
from evolink.errors import CheckpointError, ShapeError
from evolink.graphs import SnapshotGraph
from evolink.model import GcnChain, ModelConfig
from evolink.training import train_teacher


def small_config(**overrides):
    base = dict(window=1, heads=2, hidden_dim=4, embed_dim=2, seed=3)
    base.update(overrides)
    return ModelConfig(**base)


def craft(config, n_global, tensors, registry):
    """Assemble checkpoint bytes following the documented layout.

    ``tensors`` and ``registry`` are dicts, or lists of pairs when a test
    needs a repeated name or raw id.
    """
    tensors = list(tensors.items()) if isinstance(tensors, dict) else tensors
    registry = list(registry.items()) if isinstance(registry, dict) else registry
    header = json.dumps({"config": dataclasses.asdict(config),
                         "n_global": n_global}, sort_keys=True).encode()
    out = bytearray(b"EVGC")
    out += struct.pack("<I", 1)
    out += struct.pack("<I", len(header))
    out += header
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors:
        enc = name.encode()
        out += struct.pack("<H", len(enc))
        out += enc
        out += struct.pack("<QQ", *arr.shape)
        out += arr.astype("<f8").tobytes()
    out += struct.pack("<I", len(registry))
    for raw_id, dense_id in registry:
        out += struct.pack("<QQ", raw_id, dense_id)
    return bytes(out)


def assert_same_model(a, b):
    assert a.config == b.config
    assert a.n_global == b.n_global
    assert a.registry == b.registry
    pa, pb = a.param_arrays(), b.param_arrays()
    assert list(pa) == list(pb)
    for name in pa:
        assert pa[name].tobytes() == pb[name].tobytes()


def test_round_trip_bit_exact_random_instances():
    rng = np.random.default_rng(0)
    for i in range(6):
        cfg = ModelConfig(window=int(rng.integers(1, 4)),
                          heads=int(rng.integers(1, 4)),
                          hidden_dim=int(rng.integers(2, 7)),
                          embed_dim=2, seed=i)
        n = int(rng.integers(3, 12))
        registry = {100 + j: j for j in range(n)}
        model = GcnChain.init(cfg, n, registry)
        # adversarial values must survive: denormals, huge, negative zero
        model.w1_first.value[0, 0] = 5e-324
        model.w1_first.value[0, 1] = -0.0
        model.w2[0].value[0, 0] = 1e308
        again = load_checkpoint(save_checkpoint(model))
        assert_same_model(model, again)


def test_round_trip_of_trained_model(tmp_path):
    window = [SnapshotGraph(index=k, nodes=(0, 1, 2, 3),
                            edges=((0, 1, 0.8), (1, 2, 0.4), (2, 3, 0.6)))
              for k in range(2)]
    cfg = small_config(heads=1, epochs=10, lr=1e-2, role="teacher")
    model, _, _ = train_teacher(window, cfg, 4, registry={7: 0, 8: 1, 9: 2, 11: 3})
    path = write_checkpoint(model, tmp_path / "m.ckpt")
    assert_same_model(model, read_checkpoint(path))


def test_crafted_bytes_load_like_saved_bytes():
    cfg = small_config()
    model = GcnChain.init(cfg, 5, {2: 0, 4: 1, 6: 2, 8: 3, 10: 4})
    crafted = craft(cfg, 5, model.param_arrays(), model.registry)
    assert crafted == save_checkpoint(model)
    assert_same_model(model, load_checkpoint(crafted))


def test_bad_magic():
    data = save_checkpoint(GcnChain.init(small_config(), 3))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(b"NOPE" + data[4:])


def test_unsupported_version():
    data = bytearray(save_checkpoint(GcnChain.init(small_config(), 3)))
    data[4:8] = struct.pack("<I", 99)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bytes(data))


def test_truncation_detected_everywhere():
    data = save_checkpoint(GcnChain.init(small_config(), 3))
    for cut in (2, 7, 11, len(data) // 2, len(data) - 1):
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(data[:cut])


def test_trailing_bytes_rejected():
    data = save_checkpoint(GcnChain.init(small_config(), 3))
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(data + b"\x00")


def test_corrupt_header_rejected():
    model = GcnChain.init(small_config(), 3)
    data = bytearray(save_checkpoint(model))
    # clobber the first header byte ('{' of the JSON object)
    data[12] = ord("#")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(bytes(data))


def test_tensor_name_mismatch_rejected():
    data = save_checkpoint(GcnChain.init(small_config(), 3))
    with pytest.raises(CheckpointError, match="do not match"):
        load_checkpoint(data.replace(b"w2/0", b"w9/0", 1))


def test_wrong_tensor_shape_rejected():
    cfg = small_config()
    model = GcnChain.init(cfg, 5)
    tensors = model.param_arrays()
    tensors["w1/0"] = np.zeros((5, 3))  # config requires (5, 4)
    with pytest.raises(ShapeError, match="w1/0"):
        load_checkpoint(craft(cfg, 5, tensors, {}))


def test_header_config_validated():
    model = GcnChain.init(small_config(), 3)
    blob = craft(small_config(), 3, model.param_arrays(), {})
    poisoned = blob.replace(b'"heads": 2', b'"heads": 0')
    with pytest.raises(CheckpointError):
        load_checkpoint(poisoned)


@pytest.mark.parametrize("n_global", [3.0, 3.9, True, "3", None])
def test_header_node_count_must_be_an_integer(n_global):
    tensors = GcnChain.init(small_config(), 3).param_arrays()
    with pytest.raises(CheckpointError, match="n_global"):
        load_checkpoint(craft(small_config(), n_global, tensors, {}))


def test_tensor_name_that_is_not_utf8_rejected():
    data = save_checkpoint(GcnChain.init(small_config(), 3))
    at = data.index(b"w2/0")
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(data[:at] + b"\xff" + data[at + 1:])


def test_repeated_tensor_record_rejected():
    cfg = small_config()
    records = list(GcnChain.init(cfg, 3).param_arrays().items())
    twice = records + [(records[1][0], np.zeros_like(records[1][1]))]
    with pytest.raises(CheckpointError, match="do not match"):
        load_checkpoint(craft(cfg, 3, twice, {}))  # one record too many
    in_place = records[:2] + [(records[1][0], records[2][1])] + records[3:]
    with pytest.raises(CheckpointError, match="repeated 'w2/0'"):
        load_checkpoint(craft(cfg, 3, in_place, {}))  # the count still fits


def test_registry_must_map_onto_the_dense_ids():
    cfg = small_config()
    tensors = GcnChain.init(cfg, 3).param_arrays()
    with pytest.raises(CheckpointError, match="raw node id 7"):
        load_checkpoint(craft(cfg, 3, tensors, [(7, 0), (8, 1), (7, 2)]))
    for pairs in ([(7, 0), (8, 0), (9, 2)], [(7, 0), (8, 1), (9, 3)], [(7, 0), (8, 1)],
                  [(6, 0), (7, 1), (8, 2), (9, 3)]):
        with pytest.raises(CheckpointError, match="one to one"):
            load_checkpoint(craft(cfg, 3, tensors, pairs))
    assert load_checkpoint(craft(cfg, 3, tensors, [(9, 2), (7, 0), (8, 1)])).registry == {
        9: 2, 7: 0, 8: 1}


def test_non_finite_tensor_value_rejected():
    cfg = small_config()
    tensors = GcnChain.init(cfg, 3).param_arrays()
    tensors["w2/1"][1, 0] = np.inf
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(craft(cfg, 3, tensors, {}))


FUZZ_BLOB = save_checkpoint(GcnChain.init(small_config(), 3, {5: 0, 9: 1, 2: 2}))


def length_fields(blob):
    """(offset, struct format) of every length and count field of a
    well-formed blob, found by walking the documented layout."""
    (header_len,) = struct.unpack_from("<I", blob, 8)
    fields = [(8, "<I"), (12 + header_len, "<I")]
    (count,) = struct.unpack_from("<I", blob, 12 + header_len)
    pos = 16 + header_len
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        fields.append((pos, "<H"))
        pos += 2 + name_len
        rows, cols = struct.unpack_from("<QQ", blob, pos)
        fields += [(pos, "<Q"), (pos + 8, "<Q")]
        pos += 16 + 8 * rows * cols
    return fields + [(pos, "<I")]


FUZZ_FIELDS = length_fields(FUZZ_BLOB)


@st.composite
def corrupted(draw):
    blob = bytearray(FUZZ_BLOB)
    kind = draw(st.sampled_from(["flip", "truncate", "field"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    else:
        offset, fmt = draw(st.sampled_from(FUZZ_FIELDS))
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        value = draw(st.one_of(st.integers(0, 64), st.integers(0, top)))
        struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


@settings(max_examples=400, deadline=None)
@given(corrupted())
def test_corrupted_blobs_raise_only_checkpoint_or_shape_errors(blob):
    """Byte flips, truncations and edited length or count fields either
    load or raise CheckpointError or ShapeError, and the reader never
    allocates much beyond the blob it was given."""
    tracemalloc.start()
    try:
        load_checkpoint(blob)
    except (CheckpointError, ShapeError):
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 64 * len(FUZZ_BLOB) + 2 ** 16
