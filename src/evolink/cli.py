"""Command line front end.

Every command takes a JSON run config plus a few overrides and writes its
artifacts under the config's output directory. A single seed drives all
run randomness; rerunning a command with the same inputs and seed
reproduces the numeric outputs exactly.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .checkpoint import read_checkpoint, write_checkpoint
from .errors import ConfigError, EvolinkError
from .evaluation import SCORERS, derive_seed, evaluate_scorers, sweep_gamma, sweep_hparam
from .eventio import (
    RunConfig,
    export_event,
    load_run_config,
    resolve_event,
    write_report,
    write_rows_csv,
    write_trace,
)
from .graphs import build_window
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

    def common(p):
        p.add_argument("config", help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p = sub.add_parser("simulate", help="synthesize an event and write it to disk")
    common(p)

    p = sub.add_parser("train-teacher", help="fit the full-size model on one window")
    common(p)
    p.add_argument("--k", type=int, default=None, help="final window snapshot "
                   "(default: next-to-last usable snapshot)")
    p.add_argument("--init-checkpoint", default=None,
                   help="warm-start from a previous teacher checkpoint")

    p = sub.add_parser("distill", help="train a compressed student from a teacher")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None,
                   help="override the student's loss blend weight")
    p.add_argument("--teacher", default=None,
                   help="teacher checkpoint path (default: <out>/teacher.ckpt)")

    p = sub.add_parser("evaluate", help="run the trial-averaged prediction protocol")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--scorer", choices=["dot", "mlp", "both"], default=None)

    p = sub.add_parser("sweep-gamma", help="student error across blend weights")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("sweep-hparam", help="teacher error across capacity axes")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--axis", choices=["d", "l", "h", "all"], default="all")
    return parser


def _load(args) -> RunConfig:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=Path(args.out))
    for name in ("trials", "scorer"):
        value = getattr(args, name, None)
        if value is not None:
            cfg = replace(cfg, **{name: value})
    if getattr(args, "k", None) is not None:
        cfg = replace(cfg, k=args.k)
    return cfg


def _pick_k(cfg: RunConfig, num_snapshots: int) -> int:
    # The protocol needs snapshot k+1 for targets, so the default final
    # training snapshot is the next-to-last one.
    k = cfg.k if cfg.k is not None else num_snapshots - 2
    if not 0 <= k < num_snapshots:
        raise ConfigError(f"k={k} out of range for {num_snapshots} snapshots")
    return k


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
    cfg = _load(args)
    event = resolve_event(cfg)
    k = _pick_k(cfg, len(event))
    window = build_window(event, k, cfg.teacher.window)
    teacher_cfg = replace(cfg.teacher, seed=derive_seed(cfg.seed, TEACHER_TAG))
    init_from = None
    if args.init_checkpoint is not None:
        init_from = read_checkpoint(args.init_checkpoint)
    model, trace, _ = train_teacher(window, teacher_cfg, event.n_global,
                                    event.registry, init_from=init_from)
    ckpt = write_checkpoint(model, Path(cfg.out_dir) / "teacher.ckpt")
    trace_path = write_trace(trace, Path(cfg.out_dir) / "teacher_trace.csv")
    print(f"trained teacher on window {k - cfg.teacher.window}..{k} of {event.name!r}")
    print(f"  final loss {trace.losses[-1]:.6f} after {len(trace.losses)} epochs")
    print(f"  checkpoint {ckpt}")
    print(f"  trace      {trace_path}")
    return 0


def _cmd_distill(args) -> int:
    cfg = _load(args)
    event = resolve_event(cfg)
    k = _pick_k(cfg, len(event))
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
    ckpt = write_checkpoint(student, Path(cfg.out_dir) / "student.ckpt")
    trace_path = write_trace(trace, Path(cfg.out_dir) / "student_trace.csv")
    print(f"distilled student (gamma={student_cfg.gamma}) from {teacher_path}")
    print(f"  final loss {trace.losses[-1]:.6f} after {len(trace.losses)} epochs")
    print(f"  checkpoint {ckpt}")
    print(f"  trace      {trace_path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load(args)
    event = resolve_event(cfg)
    k = _pick_k(cfg, len(event))
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
    cfg = _load(args)
    event = resolve_event(cfg)
    k = _pick_k(cfg, len(event))
    rows = sweep_gamma(event, k, cfg.teacher, cfg.student,
                       trials=cfg.trials, seed=cfg.seed)
    path = write_rows_csv(
        Path(cfg.out_dir) / "gamma_sweep.csv",
        ["gamma", "student_rmse_mean", "student_rmse_std",
         "student_mae_mean", "student_mae_std", "teacher_rmse_mean"],
        [(r.gamma, r.student_rmse_mean, r.student_rmse_std,
          r.student_mae_mean, r.student_mae_std, r.teacher_rmse_mean) for r in rows])
    best = min(rows, key=lambda r: r.student_rmse_mean)
    for r in rows:
        marker = "  <-- best" if r is best else ""
        print(f"gamma {r.gamma:.1f}: student rmse {r.student_rmse_mean:.4f} "
              f"(+-{r.student_rmse_std:.4f}){marker}")
    print(f"wrote {path}")
    return 0


def _cmd_sweep_hparam(args) -> int:
    cfg = _load(args)
    event = resolve_event(cfg)
    k = _pick_k(cfg, len(event))
    axes = ["d", "l", "h"] if args.axis == "all" else [args.axis]
    for axis in axes:
        rows = sweep_hparam(event, k, cfg.teacher, cfg.student, axis,
                            trials=cfg.trials, seed=cfg.seed)
        path = write_rows_csv(
            Path(cfg.out_dir) / f"hparam_sweep_{axis}.csv",
            ["axis", "value", "teacher_rmse_mean", "teacher_rmse_std",
             "student_rmse_mean", "student_rmse_std",
             "param_count_teacher", "param_count_student"],
            [(r.axis, r.value, r.teacher_rmse_mean, r.teacher_rmse_std,
              r.student_rmse_mean, r.student_rmse_std,
              r.param_count_teacher, r.param_count_student) for r in rows])
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


if __name__ == "__main__":
    sys.exit(main())
