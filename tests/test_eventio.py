"""Event directory, run config, and report file tests.

Snapshot CSVs write weights with repr, so export -> load is an exact
float round trip, not an approximate one.
"""
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import evolink
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


def test_load_event_matches_in_memory_normalization(tmp_path):
    raw = small_raw(seed=4)
    export_event(raw, tmp_path / "ev")
    assert load_event(tmp_path / "ev") == normalize_weights(raw)


def test_blank_lines_ignored(tmp_path):
    path = write_lines(tmp_path, ["0,1,5.0", "", "  ", "1,2,7.5"])
    raw = load_raw_event(path)
    assert raw.snapshots == (((0, 1, 5.0), (1, 2, 7.5)),)


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
    (lambda b: b.update(k="six"), "'k' must be an integer or null, got 'six'"),
    (lambda b: b.update(k=True), "'k' must be an integer or null, got True"),
    (lambda b: b.update(trials="3"), "'trials' must be an integer, got '3'"),
    (lambda b: b.update(trials=2.0), "'trials' must be an integer, got 2.0"),
    (lambda b: b.update(trials=True), "'trials' must be an integer, got True"),
    (lambda b: b.update(seed=False), "'seed' must be an integer, got False"),
])
def test_run_config_validation(tmp_path, mutate, fragment):
    blob = make_config_blob()
    mutate(blob)
    with pytest.raises(ConfigError, match=fragment):
        load_run_config(write_config(tmp_path, blob))


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


def test_run_config_missing_or_bad_file(tmp_path):
    with pytest.raises(ConfigError, match="no run config"):
        load_run_config(tmp_path / "absent.json")
    p = tmp_path / "broken.json"
    p.write_text("]")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(p)


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
