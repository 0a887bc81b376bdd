"""Event directory, run config, and report file tests.

Snapshot CSVs write weights with repr, so export -> load is an exact
float round trip, not an approximate one.
"""
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import evolink
from evolink import eventio
from evolink.errors import ConfigError, EventFormatError, EvolinkError
from evolink.eventio import (
    RunConfig,
    export_event,
    load_event,
    load_raw_event,
    load_run_config,
    resolve_event,
    write_report,
    write_rows_csv,
    write_trace,
)
from evolink.evaluation import run_evaluation
from evolink.graphs import RawEvent, normalize_weights
from evolink.model import ModelConfig, student_defaults
from evolink.simulate import SimConfig, simulate_event
from evolink.training import TrainingTrace


def small_raw(seed=0):
    return simulate_event(SimConfig(offices=2, viewers=12, snapshots=3, seed=seed))


def write_lines(tmp_path, lines, fname="snapshot_000.csv"):
    (tmp_path / fname).write_text("\n".join(lines) + "\n")
    manifest = {"name": "t", "num_snapshots": 1, "files": [fname]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


# -- event directories -------------------------------------------------------

def test_export_load_round_trip_is_exact(tmp_path):
    raw = small_raw()
    manifest = export_event(raw, tmp_path / "ev")
    assert load_raw_event(manifest) == raw
    # directory path works too
    assert load_raw_event(tmp_path / "ev") == raw


def test_export_writes_numpy_scalars_as_plain_numbers(tmp_path):
    """Ids and weights held as numpy scalars export as the numbers they
    hold, so the event loads back equal to the one exported."""
    raw = RawEvent(name="np", snapshots=(((np.int64(1), np.int64(2), np.float64(0.5)),
                                          (np.int32(3), np.uint8(1), np.float32(0.25))),))
    export_event(raw, tmp_path)
    assert (tmp_path / "snapshot_000.csv").read_text() == "1,2,0.5\n3,1,0.25\n"
    loaded = load_raw_event(tmp_path)
    assert loaded == raw
    assert repr(loaded) == "RawEvent(name='np', snapshots=(((1, 2, 0.5), (3, 1, 0.25)),))"


def test_load_event_matches_in_memory_normalization(tmp_path):
    raw = small_raw(seed=4)
    export_event(raw, tmp_path / "ev")
    assert load_event(tmp_path / "ev") == normalize_weights(raw)


def test_blank_lines_ignored(tmp_path):
    path = write_lines(tmp_path, ["0,1,5.0", "", "  ", "1,2,7.5"])
    raw = load_raw_event(path)
    assert raw.snapshots == (((0, 1, 5.0), (1, 2, 7.5)),)


def test_empty_and_blank_snapshot_files_load_without_warnings(tmp_path):
    """An empty file and a blank-only one are snapshots without edges."""
    (tmp_path / "a.csv").write_text("0,1,5.0\n")
    (tmp_path / "b.csv").write_text("")
    (tmp_path / "c.csv").write_text("\n\n")
    (tmp_path / "d.csv").write_text(" \n\t\n")
    path = write_manifest(tmp_path, {"name": "x", "num_snapshots": 4,
                                     "files": ["a.csv", "b.csv", "c.csv", "d.csv"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = load_raw_event(path)
        event = load_event(path)
    assert raw.snapshots == (((0, 1, 5.0),), (), (), ())
    assert [(g.n, g.edges) for g in event.snapshots] == [(2, ((0, 1, 0.5),)), (0, ()),
                                                         (0, ()), (0, ())]


def test_missing_manifest(tmp_path):
    with pytest.raises(EventFormatError):
        load_raw_event(tmp_path / "nowhere")


def test_invalid_manifest_json(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text("{not json")
    with pytest.raises(EventFormatError, match="invalid JSON"):
        load_raw_event(p)


def test_manifest_missing_key(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps({"name": "x", "files": []}))
    with pytest.raises(EventFormatError, match="num_snapshots"):
        load_raw_event(p)


def test_manifest_file_count_mismatch(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps({"name": "x", "num_snapshots": 2,
                             "files": ["snapshot_000.csv"]}))
    with pytest.raises(EventFormatError, match="files listed"):
        load_raw_event(p)


def test_missing_snapshot_file(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps({"name": "x", "num_snapshots": 1,
                             "files": ["gone.csv"]}))
    with pytest.raises(EventFormatError, match="gone.csv"):
        load_raw_event(p)


@pytest.mark.parametrize("line,fragment", [
    ("0,1", "expected"),
    ("0,1,2,3", "expected"),
    ("a,1,5.0", "unparseable"),
    ("0,b,5.0", "unparseable"),
    ("0,1,gigabit", "unparseable"),
    ("-1,2,5.0", "negative node id"),
    ("3,3,5.0", "self-loop"),
    ("0,1,0.0", "positive"),
    ("0,1,-2.0", "positive"),
    ("0,1,inf", "positive"),
    ("0,1,nan", "positive"),
])
def test_bad_edge_lines_carry_location(tmp_path, line, fragment):
    path = write_lines(tmp_path, ["0,9,5.0", line])
    with pytest.raises(EventFormatError, match=fragment) as exc:
        load_raw_event(path)
    assert "snapshot_000.csv:2" in str(exc.value)


def test_duplicate_edge_detected_across_orientations(tmp_path):
    path = write_lines(tmp_path, ["0,1,5.0", "1,0,6.0"])
    with pytest.raises(EventFormatError, match="duplicate"):
        load_raw_event(path)



def write_manifest(tmp_path, manifest) -> Path:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("manifest,fragment", [
    (7, "JSON object"),
    ([], "JSON object"),
    ({"name": "x", "num_snapshots": 1, "files": 5}, "list of file names"),
    ({"name": "x", "num_snapshots": 1, "files": "s.csv"}, "list of file names"),
    ({"name": "x", "num_snapshots": 1, "files": [3]}, "list of file names"),
    ({"name": "x", "num_snapshots": 1.0, "files": ["s.csv"]}, "integer"),
    ({"name": "x", "num_snapshots": "1", "files": ["s.csv"]}, "integer"),
    ({"name": "x", "num_snapshots": True, "files": ["s.csv"]}, "integer"),
    ({"name": None, "num_snapshots": 1, "files": ["s.csv"]}, "name must be a string, got None"),
    ({"name": 5, "num_snapshots": 1, "files": ["s.csv"]}, "name must be a string, got 5"),
    ({"name": [1], "num_snapshots": 1, "files": ["s.csv"]}, "name must be a string"),
    ({"name": {"a": 1}, "num_snapshots": 1, "files": ["s.csv"]}, "name must be a string"),
])
def test_malformed_manifest_rejected(tmp_path, manifest, fragment):
    (tmp_path / "s.csv").write_text("0,1,5.0\n")
    with pytest.raises(EventFormatError, match=fragment):
        load_raw_event(write_manifest(tmp_path, manifest))


@pytest.mark.parametrize("fname", ["snapshots", "", "."])
def test_listed_file_that_is_a_directory(tmp_path, fname):
    (tmp_path / "snapshots").mkdir()
    path = write_manifest(tmp_path, {"name": "x", "num_snapshots": 1, "files": [fname]})
    with pytest.raises(EventFormatError, match="cannot read snapshot file"):
        load_raw_event(path)


def test_listed_file_name_with_a_nul_byte(tmp_path):
    path = write_manifest(tmp_path, {"name": "x", "num_snapshots": 1, "files": ["s\x00.csv"]})
    with pytest.raises(EventFormatError, match="cannot open snapshot file"):
        load_raw_event(path)


def test_files_that_are_not_utf8(tmp_path):
    (tmp_path / "s.csv").write_bytes(b"\xff\xfe0,1,5.0\n")
    path = write_manifest(tmp_path, {"name": "x", "num_snapshots": 1, "files": ["s.csv"]})
    with pytest.raises(EventFormatError, match="s.csv: snapshot file is not UTF-8"):
        load_raw_event(path)
    path.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(EventFormatError, match="manifest is not UTF-8"):
        load_raw_event(path)


def test_deeply_nested_manifest_rejected(tmp_path):
    (tmp_path / "manifest.json").write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(EventFormatError, match="invalid JSON"):
        load_raw_event(tmp_path)


VALID_MANIFEST = {"name": "fuzz", "num_snapshots": 1, "files": ["s.csv"]}

# File names hold no path separator, so every listed name resolves inside
# the fuzzed event directory ("", "." and ".." are directories).
file_names = st.sampled_from(["s.csv", "sub", "", ".", "..", "absent.csv", "s\x00"]) | \
    st.text(alphabet="s.csv\x00\ud800 ", max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                              max_size=3),
    max_leaves=6)
manifest_objects = st.fixed_dictionaries({}, optional={
    "name": json_values,
    "num_snapshots": st.integers(-1, 3) | json_values,
    "files": st.lists(file_names, max_size=3) | json_values,
})
manifest_bytes = st.one_of(
    st.just(json.dumps(VALID_MANIFEST).encode()),
    (manifest_objects | json_values).map(lambda obj: json.dumps(obj).encode()),
    st.binary(max_size=48))

csv_fields = st.sampled_from(["0", "1", "2", "-1", "12", "5.0", "0.0", "1e400", "5e-324", "nan",
                              "-inf", "1_0", "x", " 3 ", "", "\u0663", "9" * 5000])
csv_text = st.lists(st.lists(csv_fields, max_size=4).map(",".join), max_size=6).map(
    lambda lines: "\n".join(lines).encode())
csv_bytes = st.one_of(
    csv_text,
    st.tuples(csv_text, st.binary(min_size=1, max_size=4), st.integers(0, 64)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]),
    st.binary(max_size=64))


@settings(max_examples=300, deadline=None)
@given(manifest=manifest_bytes, csv=csv_bytes)
def test_fuzzed_event_directories_raise_only_evolink_errors(manifest, csv):
    """Whatever the manifest and snapshot bytes, loading either gives an
    event or raises an ``EvolinkError``, never a raw Python exception."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "sub").mkdir()
        (root / "s.csv").write_bytes(csv)
        (root / "manifest.json").write_bytes(manifest)
        try:
            load_event(root)
        except EvolinkError:
            pass


def mostly(common, rare):
    """``common``, or ``rare`` when a drawn digit is 0."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else common)


# Snapshot files of plain characters, which the vectorized parse reads:
# rows of mostly well-formed fields, with ids that repeat, are negative,
# or lie at or beyond 64 bits, and weights that underflow or overflow.
plain_ids = mostly(st.integers(0, 40).map(str), st.sampled_from([
    "-1", "-0", "+3", "007", "", "1e3", "5.0", "9223372036854775807", "9223372036854775808",
    "9" * 25]))
plain_weights = mostly(st.sampled_from(["5.0", ".5", "5.", "1E5", "2", "+3.5", "0.25", "5e-324"]),
                       st.sampled_from(["0.0", "-2.5", "1e400", "1e-400", "", ".", "e5", "1e+"]))
plain_csv = st.lists(mostly(st.tuples(plain_ids, plain_ids, plain_weights).map(",".join),
                            st.sampled_from(["", "0,1", "0,1,2,3"])), max_size=8).map(
    lambda lines: "\n".join(lines).encode())


def outcome(read):
    """What ``read()`` returns, or the message of the EvolinkError it raises."""
    try:
        return read()
    except EvolinkError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(csv=csv_bytes | plain_csv)
def test_vectorized_parse_reads_what_the_line_loop_reads(csv):
    """Loading a snapshot file gives the event that the line loop reads
    from it, with the same Python types, or the loop's error message; and
    ``load_event`` gives what ``normalize_weights`` makes of that event."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "s.csv").write_bytes(csv)
        path = write_manifest(root, VALID_MANIFEST)

        def looped():
            text = eventio.read_file(root / "s.csv", "snapshot file")
            return RawEvent("fuzz", (tuple(eventio._parse_lines(root / "s.csv", text)),))

        loaded, reference = outcome(lambda: load_raw_event(path)), outcome(looped)
        assert loaded == reference and repr(loaded) == repr(reference)
        if isinstance(reference, RawEvent):
            assert outcome(lambda: load_event(path)) == \
                outcome(lambda: normalize_weights(reference))


# -- run configs --------------------------------------------------------------

def make_config_blob(**extra):
    blob = {
        "teacher": {"window": 1, "heads": 1, "hidden_dim": 6, "embed_dim": 3,
                    "epochs": 5, "lr": 0.01},
        "student": {"heads": 1, "hidden_dim": 4, "embed_dim": 2,
                    "epochs": 5, "lr": 0.01, "gamma": 0.5},
        "data": {"simulate": {"offices": 2, "viewers": 12, "snapshots": 3,
                              "seed": 1}},
        "trials": 2,
        "seed": 7,
    }
    blob.update(extra)
    return blob


def write_config(tmp_path, blob, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(blob))
    return p


def test_load_run_config_round_trip(tmp_path):
    cfg = load_run_config(write_config(tmp_path, make_config_blob(out="o", k=1)))
    assert cfg.teacher.role == "teacher" and cfg.teacher.hidden_dim == 6
    assert cfg.student.role == "student" and cfg.student.gamma == 0.5
    # student window defaults to the teacher's
    assert cfg.student.window == 1
    assert cfg.sim == SimConfig(offices=2, viewers=12, snapshots=3, seed=1)
    assert cfg.manifest is None
    assert (cfg.trials, cfg.seed, cfg.k) == (2, 7, 1)
    assert str(cfg.out_dir) == "o"


def test_manifest_paths_resolve_relative_to_config(tmp_path):
    export_event(small_raw(), tmp_path / "ev")
    blob = make_config_blob(data={"manifest": "ev/manifest.json"})
    cfg = load_run_config(write_config(tmp_path, blob))
    assert cfg.manifest == tmp_path / "ev/manifest.json"
    event = resolve_event(cfg)
    assert event == normalize_weights(small_raw())


def test_resolve_event_simulated():
    cfg = RunConfig(teacher=ModelConfig(role="teacher"),
                    student=ModelConfig(role="student"),
                    sim=SimConfig(offices=2, viewers=12, snapshots=3, seed=1))
    event = resolve_event(cfg)
    assert event.n_global == 12


@pytest.mark.parametrize("name,value", [("trials", "3"), ("trials", 2.5), ("trials", True),
                                        ("seed", 1.5), ("k", "x"), ("k", None)])
def test_run_config_refuses_counts_that_are_not_integers(name, value):
    """Built directly, not from a file: a mistyped count is a ConfigError
    naming it, not a TypeError from comparing it. ``k`` may be None."""
    def build():
        return RunConfig(teacher=ModelConfig(role="teacher"), student=ModelConfig(role="student"),
                         sim=SimConfig(offices=2, viewers=12, snapshots=3, seed=1), **{name: value})
    if value is None:
        assert build().k is None
    else:
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value!r}"):
            build()


@pytest.mark.parametrize("cls,name,kind", [
    pytest.param(cls, f.name, "a real number" if f.type == "float" else "an integer",
                 id=f"{cls.__name__}-{f.name}")
    for cls in (ModelConfig, SimConfig, RunConfig) for f in fields(cls)
    if f.type in ("int", "int | None", "float")])
def test_every_numeric_config_field_refuses_a_bool(cls, name, kind):
    """``True`` is an int to Python, but no config takes it for a number."""
    base = {"teacher": ModelConfig(), "student": ModelConfig(role="student"),
            "sim": SimConfig()} if cls is RunConfig else {}
    with pytest.raises(ConfigError, match=f"^{name} must be {kind}, got True$"):
        cls(**base, **{name: True})


@pytest.mark.parametrize("mutate,fragment", [
    (lambda b: b.update(data={}), "exactly one"),
    (lambda b: b.update(data={"manifest": "m", "simulate": {}}), "both"),
    (lambda b: b.update(teacher=[1, 2]), "must be an object"),
    (lambda b: b["teacher"].update(hidden=99), "unexpected keyword"),
    (lambda b: b.update(scorer="cosine"), "scorer"),
    (lambda b: b.update(trials=0), "trials"),
    (lambda b: b["student"].update(window=3), "same window"),
    (lambda b: b.update(trails=3), "unknown key 'trails' in the run config"),
    (lambda b: b["data"].update(path="ev"), "unknown key 'path' in data"),
    (lambda b: b.update(k="six"), "k must be an integer, got 'six'"),
    (lambda b: b.update(k=True), "k must be an integer, got True"),
    (lambda b: b.update(trials="3"), "trials must be an integer, got '3'"),
    (lambda b: b.update(trials=2.0), "trials must be an integer, got 2.0"),
    (lambda b: b.update(trials=True), "trials must be an integer, got True"),
    (lambda b: b.update(seed=False), "seed must be an integer, got False"),
    (lambda b: b["teacher"].update(window="3"), "teacher: window must be an integer, got '3'"),
    (lambda b: b["student"].update(lr=0), "student: lr must be positive"),
    (lambda b: b["data"]["simulate"].update(seed=-1), "data.simulate: seed must be >= 0"),
    # A top-level value has no section between the file and the message.
    (lambda b: b.update(seed=-1), "run.json: seed must be >= 0"),
    (lambda b: b.update(scorer=None), "or both, got None$"),
    (lambda b: b.update(data={"manifest": 5}), "data: manifest must be a path, got 5"),
    (lambda b: b["data"].update(simulate=[1]), "data.simulate: must be an object"),
])
def test_run_config_validation(tmp_path, mutate, fragment):
    """Every refusal is a ConfigError that starts with the config's path
    and names the section at fault."""
    blob = make_config_blob()
    mutate(blob)
    path = write_config(tmp_path, blob)
    with pytest.raises(ConfigError, match=fragment) as info:
        load_run_config(path)
    assert str(info.value).startswith(f"{path}: ")


def test_omitted_student_keys_take_student_defaults(tmp_path):
    blob = {"data": {"simulate": {"viewers": 40}}}
    cfg = load_run_config(write_config(tmp_path, blob))
    assert cfg.student == student_defaults(window=3)
    partial = make_config_blob(student={"gamma": 0.3})
    cfg = load_run_config(write_config(tmp_path, partial, "partial.json"))
    assert cfg.student == student_defaults(window=1, gamma=0.3)


def test_run_config_must_be_an_object(tmp_path):
    with pytest.raises(ConfigError, match="JSON object"):
        load_run_config(write_config(tmp_path, [1, 2]))


def test_run_config_missing_or_bad_file(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="no run config"):
        load_run_config(tmp_path / "absent.json")
    p = tmp_path / "broken.json"
    p.write_text("]")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(p)
    p.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(p)
    p.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError, match="run config is not UTF-8"):
        load_run_config(p)
    with pytest.raises(ConfigError, match="cannot read run config"):
        load_run_config(tmp_path)
    with pytest.raises(ConfigError, match="cannot read run config"):
        load_run_config(p / "run.json")  # a path through a file
    with pytest.raises(ConfigError, match="cannot open run config"):
        load_run_config(tmp_path / "run\x00.json")

    def refused(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_text", refused)
    with pytest.raises(ConfigError, match="cannot read run config .*: Permission denied"):
        load_run_config(write_config(tmp_path, make_config_blob()))


# -- reports and traces -------------------------------------------------------

def tiny_report():
    event = normalize_weights(small_raw(seed=2))
    teacher = ModelConfig(window=1, heads=1, hidden_dim=6, embed_dim=3,
                          epochs=4, lr=1e-2, role="teacher")
    student = ModelConfig(window=1, heads=1, hidden_dim=4, embed_dim=2,
                          epochs=4, lr=1e-2, role="student")
    return run_evaluation(event, 1, teacher, student, trials=2, seed=0)


def test_write_report_quarantines_meta(tmp_path):
    report = tiny_report()
    j1, c1 = write_report(report, tmp_path / "a")
    j2, c2 = write_report(report, tmp_path / "b")
    b1, b2 = json.loads(j1.read_text()), json.loads(j2.read_text())
    assert set(b1) == {"meta", "report"}
    assert b1["report"] == b2["report"]
    assert "created_utc" in b1["meta"] and "host" in b1["meta"]
    assert b1["meta"]["python"] == platform.python_version()
    assert b1["meta"]["numpy"] == np.__version__
    assert b1["meta"]["scipy"] == scipy.__version__
    assert b1["meta"]["evolink"] == evolink.__version__
    assert c1.read_text() == c2.read_text()


def test_report_meta_records_the_blas_build():
    """``meta`` names the BLAS that numpy was built with, its version, and
    the thread count of the loaded OpenBLAS, which the training bits depend
    on; here a process pinned to one thread reads 1."""
    code = "import json; from evolink.eventio import _meta; print(json.dumps(_meta()))"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(evolink.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    meta = json.loads(out)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (meta["blas"], meta["blas_version"]) == (blas["name"], blas["version"])
    if "openblas" in blas["name"]:
        assert meta["blas_threads"] == 1
    else:
        assert meta["blas_threads"] is None or meta["blas_threads"] >= 1


def test_report_csv_round_trips_floats(tmp_path):
    report = tiny_report()
    _, csv_path = write_report(report, tmp_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,model,metric,value"
    assert len(lines) == 1 + 4 * len(report.trials)
    first = lines[1].split(",")
    assert first[:3] == ["0", "teacher", "rmse"]
    assert float(first[3]) == report.trials[0].teacher_rmse


def test_write_trace_round_trips(tmp_path):
    trace = TrainingTrace(losses=[0.5, 0.25, 0.125], seconds=[0.01, 0.02, 0.03])
    path = write_trace(trace, tmp_path / "deep" / "trace.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss,seconds"
    assert len(lines) == 4
    assert [float(l.split(",")[1]) for l in lines[1:]] == trace.losses


def test_write_rows_csv(tmp_path):
    path = write_rows_csv(tmp_path / "rows.csv", ["a", "b"],
                          [(1, 0.1), (2, 0.2)])
    lines = path.read_text().splitlines()
    assert lines == ["a,b", "1,0.1", "2,0.2"]
