"""End-to-end command tests, driven in-process through cli.main."""
import json
from fractions import Fraction

import pytest

from evolink import cli, evaluation
from evolink.checkpoint import read_checkpoint
from evolink.cli import main
from evolink.evaluation import EvalReport, GammaSweepRow, HparamSweepRow, TrialRecord
from evolink.eventio import load_event, write_report, write_trace
from evolink.model import ModelConfig
from evolink.training import TrainingTrace, train_teacher


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


# Floats whose repr another formatting would change: a long mantissa, an
# exponent, a trailing ".0".
AWKWARD = (0.1, 1 / 3, 1e-05, 0.30000000000000004, 1e16, 2.0)


def fixed_report() -> EvalReport:
    fixed = dict(teacher_seed=1, student_seed=2, split_seed=3, baseline_rmse=0.5,
                 n_validation=2, n_test=8)
    trials = (TrialRecord(0, teacher_rmse=0.1, teacher_mae=1 / 3, student_rmse=1e-05,
                          student_mae=2.0, **fixed),
              TrialRecord(1, teacher_rmse=0.30000000000000004, teacher_mae=1e16,
                          student_rmse=0.25, student_mae=123.456, **fixed))
    stats = {f"{model}_{metric}_{kind}": 0.0 for model in ("teacher", "student")
             for metric in ("rmse", "mae") for kind in ("mean", "std")}
    return EvalReport(event="e", k=1, scorer="dot", teacher_config=ModelConfig(role="teacher"),
                      student_config=ModelConfig(role="student"), trials=trials, **stats,
                      baseline_rmse_mean=0.5, param_count_teacher=400, param_count_student=100,
                      compression_ratio=Fraction(1, 4), compression="25:100",
                      n_links_total=10, n_links_scoreable=10, split_seeds=(3, 3))


def test_writers_emit_these_bytes(tmp_path, monkeypatch, capsys):
    """The trace, report and sweep CSVs, byte for byte: every float as its
    repr, seconds to six places, CRLF line ends."""
    trace = TrainingTrace(losses=[0.5, 1 / 3, 1e-20], seconds=[0.01, 1.5, 1234.5678901])
    assert write_trace(trace, tmp_path / "trace.csv").read_bytes() == (
        b"epoch,loss,seconds\r\n0,0.5,0.010000\r\n"
        b"1,0.3333333333333333,1.500000\r\n2,1e-20,1234.567890\r\n")
    _, report_csv = write_report(fixed_report(), tmp_path / "report")
    assert report_csv.read_bytes() == (
        b"trial,model,metric,value\r\n"
        b"0,teacher,rmse,0.1\r\n0,teacher,mae,0.3333333333333333\r\n"
        b"0,student,rmse,1e-05\r\n0,student,mae,2.0\r\n"
        b"1,teacher,rmse,0.30000000000000004\r\n1,teacher,mae,1e+16\r\n"
        b"1,student,rmse,0.25\r\n1,student,mae,123.456\r\n")

    def fake_gamma(event, k, teacher, student, *, trials, seed):
        return [GammaSweepRow(0.1, *AWKWARD[1:]), GammaSweepRow(0.9, 0.25, 0.0, 0.5, 2.0, 1e16)]

    def fake_hparam(event, k, teacher, student, axis, *, trials, seed):
        row = HparamSweepRow(axis, 16, *AWKWARD[:4], 1234, 56)
        return {"d": [row], "l": [], "h": [row, HparamSweepRow(axis, 2, *AWKWARD[2:], 7, 8)]}[axis]

    monkeypatch.setattr(cli, "sweep_gamma", fake_gamma)
    monkeypatch.setattr(cli, "sweep_hparam", fake_hparam)
    cfg = write_config(tmp_path)
    assert main(["sweep-gamma", str(cfg)]) == 0
    assert main(["sweep-hparam", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "gamma_sweep.csv").read_bytes() == (
        b"gamma,student_rmse_mean,student_rmse_std,student_mae_mean,student_mae_std,"
        b"teacher_rmse_mean\r\n"
        b"0.1,0.3333333333333333,1e-05,0.30000000000000004,1e+16,2.0\r\n"
        b"0.9,0.25,0.0,0.5,2.0,1e+16\r\n")
    header = (b"axis,value,teacher_rmse_mean,teacher_rmse_std,student_rmse_mean,"
              b"student_rmse_std,param_count_teacher,param_count_student\r\n")
    row = b"16,0.1,0.3333333333333333,1e-05,0.30000000000000004,1234,56\r\n"
    assert (out / "hparam_sweep_d.csv").read_bytes() == header + b"d," + row
    assert (out / "hparam_sweep_l.csv").read_bytes() == header
    assert (out / "hparam_sweep_h.csv").read_bytes() == (
        header + b"h," + row + b"h,2,1e-05,0.30000000000000004,1e+16,2.0,7,8\r\n")


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


@pytest.mark.parametrize("command", ["simulate", "train-teacher", "evaluate"])
@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_an_unwritable_out_exits_one_naming_it(tmp_path, capsys, command, under):
    """An ``--out`` that is a file, or lies under one, is one ``error:``
    line naming the path, not a traceback."""
    cfg = write_config(tmp_path)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert main([command, str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and err.count("\n") == 1


def test_simulate_refuses_a_seed_it_would_ignore(tmp_path, capsys):
    """The simulator reads ``data.simulate.seed``, so ``simulate`` takes no
    ``--seed``: argparse refuses it with exit 2, as any flag a command lacks."""
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["simulate", str(cfg), "--seed", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-teacher", "distill", "evaluate", "sweep-gamma",
                                     "sweep-hparam"])
def test_every_command_that_takes_k_says_what_it_is(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "final window snapshot" in capsys.readouterr().out


def test_non_integer_model_field_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, teacher={"window": 1, "heads": 2.5, "hidden_dim": 6,
                                          "embed_dim": 3, "epochs": 6, "lr": 0.01})
    assert main(["train-teacher", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "heads must be an integer" in err


@pytest.mark.parametrize("simulate,fragment", [
    ({"viewers": 80.5}, "viewers must be an integer"),
    ({"intra_bw": [1, 2, 3]}, "intra_bw needs a positive finite mean"),
    ({"seed": -1}, "seed must be >= 0"),
], ids=["float-viewers", "three-bandwidths", "negative-seed"])
def test_bad_simulation_config_exits_one_without_a_traceback(tmp_path, capsys, simulate,
                                                             fragment):
    cfg = write_config(tmp_path, data={"simulate": {"offices": 2, "viewers": 14, **simulate}})
    assert main(["simulate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err and "Traceback" not in err


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
