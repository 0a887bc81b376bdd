"""End-to-end command tests, driven in-process through cli.main."""
import json

import pytest

from evolink import evaluation
from evolink.checkpoint import read_checkpoint
from evolink.cli import main
from evolink.eventio import load_event
from evolink.training import train_teacher


def write_config(tmp_path, **extra):
    blob = {
        "teacher": {"window": 1, "heads": 1, "hidden_dim": 6, "embed_dim": 3,
                    "epochs": 6, "lr": 0.01},
        "student": {"heads": 1, "hidden_dim": 4, "embed_dim": 2,
                    "epochs": 6, "lr": 0.01, "gamma": 0.5},
        "data": {"simulate": {"offices": 2, "viewers": 14, "snapshots": 4,
                              "seed": 1}},
        "out": str(tmp_path / "out"),
        "trials": 2,
        "seed": 5,
    }
    blob.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(blob))
    return path


def test_simulate_writes_loadable_event(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "wrote event" in out
    event = load_event(tmp_path / "out")
    assert len(event) == 4
    assert event.n_global == 14


def test_train_teacher_writes_checkpoint_and_trace(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train-teacher", str(cfg)]) == 0
    model = read_checkpoint(tmp_path / "out" / "teacher.ckpt")
    assert model.config.role == "teacher"
    assert model.n_global == 14
    trace_lines = (tmp_path / "out" / "teacher_trace.csv").read_text().splitlines()
    assert len(trace_lines) == 1 + 6  # header + epochs
    assert "final loss" in capsys.readouterr().out


def test_train_teacher_warm_start(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train-teacher", str(cfg)]) == 0
    ckpt = str(tmp_path / "out" / "teacher.ckpt")
    assert main(["train-teacher", str(cfg), "--init-checkpoint", ckpt]) == 0


def test_distill_uses_teacher_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train-teacher", str(cfg)]) == 0
    assert main(["distill", str(cfg), "--gamma", "0.8"]) == 0
    student = read_checkpoint(tmp_path / "out" / "student.ckpt")
    assert student.config.role == "student"
    assert student.config.gamma == 0.8
    assert (tmp_path / "out" / "student_trace.csv").exists()
    assert "gamma=0.8" in capsys.readouterr().out


# Another event whose checkpoints fit the default config's shapes or not:
# the same 14 viewers drawn from another seed (same n_global, another
# registry), and 12 viewers (another n_global).
OTHER_EVENTS = [{"offices": 2, "viewers": 14, "snapshots": 4, "seed": 2},
                {"offices": 2, "viewers": 12, "snapshots": 4, "seed": 1}]


def other_event_teacher(tmp_path, simulate):
    """A teacher checkpoint trained on another event."""
    other = tmp_path / "other"
    other.mkdir()
    cfg = write_config(other, data={"simulate": simulate})
    assert main(["train-teacher", str(cfg)]) == 0
    return str(other / "out" / "teacher.ckpt")


@pytest.mark.parametrize("simulate", OTHER_EVENTS, ids=["registry", "n_global"])
def test_warm_start_from_another_event_exits_one(tmp_path, capsys, simulate):
    ckpt = other_event_teacher(tmp_path, simulate)
    cfg = write_config(tmp_path)
    capsys.readouterr()
    assert main(["train-teacher", str(cfg), "--init-checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "another event" in err
    assert not (tmp_path / "out" / "teacher.ckpt").exists()


@pytest.mark.parametrize("simulate", OTHER_EVENTS, ids=["registry", "n_global"])
def test_distill_from_another_event_exits_one(tmp_path, capsys, simulate):
    ckpt = other_event_teacher(tmp_path, simulate)
    cfg = write_config(tmp_path)
    capsys.readouterr()
    assert main(["distill", str(cfg), "--teacher", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "another event" in err
    assert not (tmp_path / "out" / "student.ckpt").exists()


def test_distill_without_teacher_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["distill", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_writes_report_pair(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["evaluate", str(cfg)]) == 0
    blob = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(blob) == {"meta", "report"}
    assert blob["report"]["scorer"] == "dot"
    assert len(blob["report"]["trials"]) == 2
    assert (tmp_path / "out" / "report.csv").exists()
    assert "teacher rmse" in capsys.readouterr().out


def test_evaluate_payload_reproducible_bytes(tmp_path):
    cfg = write_config(tmp_path)
    payloads = []
    for sub in ("a", "b"):
        assert main(["evaluate", str(cfg), "--out", str(tmp_path / sub)]) == 0
        blob = json.loads((tmp_path / sub / "report.json").read_text())
        payloads.append(json.dumps(blob["report"], sort_keys=True).encode())
    assert payloads[0] == payloads[1]


def test_evaluate_seed_override_changes_payload(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["evaluate", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["evaluate", str(cfg), "--out", str(tmp_path / "b"),
                 "--seed", "6"]) == 0
    a = json.loads((tmp_path / "a" / "report.json").read_text())["report"]
    b = json.loads((tmp_path / "b" / "report.json").read_text())["report"]
    assert a != b


def test_evaluate_both_scorers(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=1)
    assert main(["evaluate", str(cfg), "--scorer", "both"]) == 0
    for scorer in ("dot", "mlp"):
        blob = json.loads((tmp_path / "out" / f"report_{scorer}.json").read_text())
        assert blob["report"]["scorer"] == scorer


def test_mlp_report_records_the_negative_shortfall(tmp_path):
    """The 14-viewer event's window leaves only 12 non-links for 66 links,
    so each MLP scorer trains on 12 negatives, and the report says so."""
    cfg = write_config(tmp_path)
    assert main(["evaluate", str(cfg), "--scorer", "mlp"]) == 0
    trials = json.loads((tmp_path / "out" / "report.json").read_text())["report"]["trials"]
    for trial in trials:
        assert (trial["mlp_positives"], trial["teacher_mlp_negatives"],
                trial["student_mlp_negatives"]) == (66, 12, 12)


def test_evaluate_both_trains_once_and_matches_single_scorer_runs(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, trials=1)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return train_teacher(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train_teacher", counting)
    assert main(["evaluate", str(cfg), "--scorer", "both", "--out", str(tmp_path / "both")]) == 0
    assert len(calls) == 1
    for scorer in ("dot", "mlp"):
        out = tmp_path / scorer
        assert main(["evaluate", str(cfg), "--scorer", scorer, "--out", str(out)]) == 0
        alone = json.loads((out / "report.json").read_text())["report"]
        both = json.loads((tmp_path / "both" / f"report_{scorer}.json").read_text())["report"]
        assert both == alone
    assert len(calls) == 3


def test_sweep_gamma_writes_nine_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=1)
    assert main(["sweep-gamma", str(cfg)]) == 0
    lines = (tmp_path / "out" / "gamma_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("gamma,")
    assert len(lines) == 10
    assert [l.split(",")[0] for l in lines[1:]] == [
        "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"]
    assert "<-- best" in capsys.readouterr().out


def test_sweep_hparam_single_axis(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=1)
    assert main(["sweep-hparam", str(cfg), "--axis", "l"]) == 0
    lines = (tmp_path / "out" / "hparam_sweep_l.csv").read_text().splitlines()
    # k defaults to 2 on a 4-snapshot event, so only windows 1 and 2 fit
    assert [l.split(",")[1] for l in lines[1:]] == ["1", "2"]


def test_errors_exit_one_with_message(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["evaluate", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err

    cfg = write_config(tmp_path)
    assert main(["evaluate", str(cfg), "--k", "99"]) == 1
    assert "out of range" in capsys.readouterr().err

    manifest_cfg = write_config(tmp_path, data={"manifest": "nowhere/manifest.json"})
    assert main(["simulate", str(manifest_cfg)]) == 1
    assert "data.simulate" in capsys.readouterr().err


def test_non_integer_model_field_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, teacher={"window": 1, "heads": 2.5, "hidden_dim": 6,
                                          "embed_dim": 3, "epochs": 6, "lr": 0.01})
    assert main(["train-teacher", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "heads must be an integer" in err


@pytest.mark.parametrize("where", ["run", "teacher"])
def test_negative_seed_exits_one(tmp_path, capsys, where):
    if where == "run":
        cfg = write_config(tmp_path, seed=-1)
    else:
        cfg = write_config(tmp_path, teacher={"window": 1, "heads": 1, "hidden_dim": 6,
                                              "embed_dim": 3, "epochs": 6, "lr": 0.01,
                                              "seed": -1})
    assert main(["train-teacher", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0" in err


@pytest.mark.parametrize("manifest,csv,fragment", [
    (b"7", b"0,1,5.0\n", "JSON object"),
    (b'{"name": "x", "num_snapshots": 1, "files": 5}', b"0,1,5.0\n", "list of file names"),
    (b'{"name": "x", "num_snapshots": 1, "files": ["s.csv"]}', b"\xff0,1,5.0\n", "not UTF-8"),
], ids=["not-an-object", "files-not-a-list", "csv-not-utf8"])
def test_evaluate_on_a_malformed_event_exits_one(tmp_path, capsys, manifest, csv, fragment):
    event = tmp_path / "event"
    event.mkdir()
    (event / "manifest.json").write_bytes(manifest)
    (event / "s.csv").write_bytes(csv)
    cfg = write_config(tmp_path, data={"manifest": "event"})
    assert main(["evaluate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
