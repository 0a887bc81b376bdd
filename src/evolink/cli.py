"""Command line front end.

Every command takes a JSON run config plus a few overrides and writes its
artifacts under the config's output directory. A single seed drives all
run randomness; rerunning a command with the same inputs and seed
reproduces the numeric outputs exactly.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

from .checkpoint import read_checkpoint, write_checkpoint
from .errors import ConfigError, EvolinkError
from .evaluation import (
    SCORERS,
    SWEEP_AXES,
    GammaSweepRow,
    HparamSweepRow,
    derive_seed,
    evaluate_scorers,
    sweep_gamma,
    sweep_hparam,
)
from .eventio import (
    RunConfig,
    export_event,
    load_run_config,
    resolve_event,
    write_report,
    write_rows_csv,
    write_trace,
)
from .graphs import EventSequence, build_window
from .simulate import describe_event, simulate_event
from .training import DistillationBundle, check_same_event, distill_student, train_teacher

TEACHER_TAG = 1
STUDENT_TAG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evolink",
        description="Evolving-graph embeddings with teacher/student distillation "
                    "for next-snapshot link-weight prediction.")
    sub = parser.add_subparsers(dest="command", required=True)
    # The config overrides that several commands take, each defined once.
    overrides = {
        "--seed": dict(type=int, help="override the run seed"),
        "--out": dict(dest="out_dir", metavar="OUT", type=Path,
                      help="override the output directory"),
        "--k": dict(type=int, help="final window snapshot "
                                   "(default: next-to-last usable snapshot)"),
        "--trials": dict(type=int, help="override the number of trials"),
    }

    def command(name: str, text: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to a JSON run config")
        for flag in flags:
            p.add_argument(flag, default=None, **overrides[flag])
        return p

    command("simulate", "synthesize an event and write it to disk", "--out")
    run = ("--seed", "--out", "--k")  # what every command but simulate takes

    p = command("train-teacher", "fit the full-size model on one window", *run)
    p.add_argument("--init-checkpoint", default=None,
                   help="warm-start from a previous teacher checkpoint")

    p = command("distill", "train a compressed student from a teacher", *run)
    p.add_argument("--gamma", type=float, default=None,
                   help="override the student's loss blend weight")
    p.add_argument("--teacher", default=None,
                   help="teacher checkpoint path (default: <out>/teacher.ckpt)")

    p = command("evaluate", "run the trial-averaged prediction protocol", *run, "--trials")
    p.add_argument("--scorer", choices=[*SCORERS, "both"], default=None)

    command("sweep-gamma", "student error across blend weights", *run, "--trials")

    p = command("sweep-hparam", "teacher error across capacity axes", *run, "--trials")
    p.add_argument("--axis", choices=[*SWEEP_AXES, "all"], default="all")
    return parser


def _load(args) -> RunConfig:
    cfg = load_run_config(args.config)
    for name in ("seed", "out_dir", "trials", "scorer", "k"):
        if getattr(args, name, None) is not None:
            cfg = replace(cfg, **{name: getattr(args, name)})
    return cfg


def _load_event(args) -> tuple[RunConfig, EventSequence, int]:
    """The run config, its event, and the final window snapshot ``k``."""
    cfg = _load(args)
    event = resolve_event(cfg)
    # The protocol needs snapshot k+1 for targets, so the default final
    # training snapshot is the next-to-last one.
    k = cfg.k if cfg.k is not None else len(event) - 2
    if not 0 <= k < len(event):
        raise ConfigError(f"k={k} out of range for {len(event)} snapshots")
    return cfg, event, k


def _write_sweep(path: Path, row_type: type, rows: list) -> Path:
    """A sweep's rows as CSV, one column per field of ``row_type``."""
    return write_rows_csv(path, [f.name for f in fields(row_type)], [astuple(r) for r in rows])


def _write_fit(out_dir: Path, role: str, chain, trace, summary: str) -> None:
    """Write a fit's chain and trace as ``<role>.ckpt`` and ``<role>_trace.csv``
    under ``out_dir``, then print ``summary`` and the lines that name them."""
    ckpt = write_checkpoint(chain, Path(out_dir) / f"{role}.ckpt")
    trace_path = write_trace(trace, Path(out_dir) / f"{role}_trace.csv")
    print(summary)
    print(f"  final loss {trace.losses[-1]:.6f} after {len(trace.losses)} epochs")
    print(f"  checkpoint {ckpt}")
    print(f"  trace      {trace_path}")


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    if cfg.sim is None:
        raise ConfigError("simulate needs a run config with a data.simulate section")
    raw = simulate_event(cfg.sim)
    manifest = export_event(raw, cfg.out_dir)
    print(f"wrote event {raw.name!r} to {manifest}")
    for k, n, e in describe_event(raw):
        print(f"  snapshot {k}: {n} nodes, {e} links")
    return 0


def _cmd_train_teacher(args) -> int:
    cfg, event, k = _load_event(args)
    window = build_window(event, k, cfg.teacher.window)
    teacher_cfg = replace(cfg.teacher, seed=derive_seed(cfg.seed, TEACHER_TAG))
    init_from = None
    if args.init_checkpoint is not None:
        init_from = read_checkpoint(args.init_checkpoint)
    model, trace, _ = train_teacher(window, teacher_cfg, event.n_global,
                                    event.registry, init_from=init_from)
    _write_fit(cfg.out_dir, "teacher", model, trace,
               f"trained teacher on window {k - cfg.teacher.window}..{k} of {event.name!r}")
    return 0


def _cmd_distill(args) -> int:
    cfg, event, k = _load_event(args)
    window = build_window(event, k, cfg.teacher.window)
    teacher_path = Path(args.teacher) if args.teacher else Path(cfg.out_dir) / "teacher.ckpt"
    teacher = read_checkpoint(teacher_path)
    check_same_event(teacher, event.n_global, event.registry, f"the teacher {teacher_path}")
    student_cfg = replace(cfg.student, seed=derive_seed(cfg.seed, STUDENT_TAG))
    if args.gamma is not None:
        student_cfg = replace(student_cfg, gamma=args.gamma)
    bundle = DistillationBundle(teacher=teacher,
                                teacher_embeddings=teacher.embeddings(window),
                                student_config=student_cfg)
    student, trace = distill_student(bundle, window, event.n_global, event.registry)
    _write_fit(cfg.out_dir, "student", student, trace,
               f"distilled student (gamma={student_cfg.gamma}) from {teacher_path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg, event, k = _load_event(args)
    scorers = SCORERS if cfg.scorer == "both" else (cfg.scorer,)
    reports = evaluate_scorers(event, k, cfg.teacher, cfg.student, scorers=scorers,
                               trials=cfg.trials, seed=cfg.seed)
    for scorer, report in reports.items():
        stem = "report" if len(scorers) == 1 else f"report_{scorer}"
        json_path, csv_path = write_report(report, cfg.out_dir, stem=stem)
        print(f"[{scorer}] teacher rmse {report.teacher_rmse_mean:.4f} "
              f"(+-{report.teacher_rmse_std:.4f}), student rmse "
              f"{report.student_rmse_mean:.4f} (+-{report.student_rmse_std:.4f}), "
              f"baseline {report.baseline_rmse_mean:.4f}")
        print(f"  sizes {report.param_count_student}/{report.param_count_teacher} "
              f"params ({report.compression}); wrote {json_path} and {csv_path}")
    return 0


def _cmd_sweep_gamma(args) -> int:
    cfg, event, k = _load_event(args)
    rows = sweep_gamma(event, k, cfg.teacher, cfg.student,
                       trials=cfg.trials, seed=cfg.seed)
    path = _write_sweep(Path(cfg.out_dir) / "gamma_sweep.csv", GammaSweepRow, rows)
    best = min(rows, key=lambda r: r.student_rmse_mean)
    for r in rows:
        marker = "  <-- best" if r is best else ""
        print(f"gamma {r.gamma:.1f}: student rmse {r.student_rmse_mean:.4f} "
              f"(+-{r.student_rmse_std:.4f}){marker}")
    print(f"wrote {path}")
    return 0


def _cmd_sweep_hparam(args) -> int:
    cfg, event, k = _load_event(args)
    axes = list(SWEEP_AXES) if args.axis == "all" else [args.axis]
    for axis in axes:
        rows = sweep_hparam(event, k, cfg.teacher, cfg.student, axis,
                            trials=cfg.trials, seed=cfg.seed)
        path = _write_sweep(Path(cfg.out_dir) / f"hparam_sweep_{axis}.csv",
                            HparamSweepRow, rows)
        for r in rows:
            print(f"{axis}={r.value}: teacher rmse {r.teacher_rmse_mean:.4f}, "
                  f"student rmse {r.student_rmse_mean:.4f}")
        print(f"wrote {path}")
    return 0


COMMANDS = {
    "simulate": _cmd_simulate,
    "train-teacher": _cmd_train_teacher,
    "distill": _cmd_distill,
    "evaluate": _cmd_evaluate,
    "sweep-gamma": _cmd_sweep_gamma,
    "sweep-hparam": _cmd_sweep_hparam,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except EvolinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
