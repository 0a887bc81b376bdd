"""On-disk formats: event directories, run configs, reports, traces.

An event directory holds a ``manifest.json`` plus one CSV per snapshot
(lines of ``u,v,weight`` with raw ids and raw positive weights). Loading
normalizes through the shared registry/weight pipeline, so exporting a
simulated event and loading it back yields the identical normalized
event. Reports are JSON with every number under ``report`` and anything
time- or host-dependent quarantined under ``meta``.
"""
from __future__ import annotations

import csv
import json
import math
import platform
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, EventFormatError
from .evaluation import EvalReport
from .graphs import EventSequence, RawEvent, normalize_weights
from .model import ModelConfig, student_defaults
from .simulate import SimConfig
from .training import TrainingTrace

SNAPSHOT_SECONDS = 600
MANIFEST_NAME = "manifest.json"


def export_event(raw: RawEvent, out_dir: str | Path,
                 snapshot_seconds: int = SNAPSHOT_SECONDS,
                 weight_unit: str = "mbps") -> Path:
    """Write an event directory; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for k, edges in enumerate(raw.snapshots):
        fname = f"snapshot_{k:03d}.csv"
        files.append(fname)
        with open(out / fname, "w", newline="") as fh:
            for u, v, w in edges:
                fh.write(f"{u},{v},{w!r}\n")
    manifest = {
        "name": raw.name,
        "num_snapshots": len(raw.snapshots),
        "snapshot_seconds": snapshot_seconds,
        "weight_unit": weight_unit,
        "files": files,
    }
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _read_text(path: Path, what: str) -> str:
    """A UTF-8 text file, or an ``EventFormatError`` naming ``what`` failed."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise EventFormatError(f"no {what} at {path}") from None
    except UnicodeDecodeError as exc:
        raise EventFormatError(f"{path}: {what} is not UTF-8 text ({exc.reason} at "
                               f"byte {exc.start})") from None
    except ValueError as exc:  # a NUL or an unencodable character in the name
        raise EventFormatError(f"cannot open {what} {path!r}: {exc}") from None
    except OSError as exc:
        raise EventFormatError(f"cannot read {what} {path}: {exc.strerror}") from None


def load_raw_event(manifest_path: str | Path) -> RawEvent:
    """Parse an event directory without normalizing.

    Anything wrong with the manifest or a snapshot file raises
    ``EventFormatError`` naming the file (and line) at fault.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    try:
        manifest = json.loads(_read_text(manifest_path, "manifest"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise EventFormatError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise EventFormatError(f"{manifest_path}: a manifest must be a JSON object")
    for key in ("name", "num_snapshots", "files"):
        if key not in manifest:
            raise EventFormatError(f"{manifest_path}: missing key {key!r}")
    files, count = manifest["files"], manifest["num_snapshots"]
    if not isinstance(count, int) or isinstance(count, bool):
        raise EventFormatError(f"{manifest_path}: num_snapshots must be an integer, "
                               f"got {count!r}")
    if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
        raise EventFormatError(f"{manifest_path}: files must be a list of file names")
    if len(files) != count:
        raise EventFormatError(f"{manifest_path}: {len(files)} files listed for "
                               f"{count} snapshots")
    snapshots = []
    for fname in files:
        fpath = manifest_path.parent / fname
        lines = _read_text(fpath, "snapshot file").splitlines()
        edges = []
        seen: set[tuple[int, int]] = set()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise EventFormatError(f"{fpath}:{lineno}: expected 'u,v,weight', "
                                       f"got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2])
            except ValueError:
                raise EventFormatError(f"{fpath}:{lineno}: unparseable edge "
                                       f"{line!r}") from None
            if u < 0 or v < 0:
                raise EventFormatError(f"{fpath}:{lineno}: negative node id")
            if u == v:
                raise EventFormatError(f"{fpath}:{lineno}: self-loop on node {u}")
            if not (math.isfinite(w) and w > 0):
                raise EventFormatError(f"{fpath}:{lineno}: weight must be a positive "
                                       f"finite number, got {parts[2]!r}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise EventFormatError(f"{fpath}:{lineno}: duplicate edge {key}")
            seen.add(key)
            edges.append((u, v, w))
        snapshots.append(tuple(edges))
    return RawEvent(name=str(manifest["name"]), snapshots=tuple(snapshots))


def load_event(manifest_path: str | Path) -> EventSequence:
    """Parse and normalize an event directory."""
    return normalize_weights(load_raw_event(manifest_path))


@dataclass(frozen=True)
class RunConfig:
    """One experiment description, loadable from JSON.

    ``data`` must give either a manifest path or an inline simulation
    config. The run seed feeds every derived model/split seed; simulated
    data keeps its own seed so the dataset stays fixed across runs.
    """

    teacher: ModelConfig
    student: ModelConfig
    manifest: Path | None = None
    sim: SimConfig | None = None
    out_dir: Path = Path("runs/out")
    scorer: str = "dot"
    trials: int = 5
    k: int | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.manifest is None) == (self.sim is None):
            raise ConfigError("data must give exactly one of 'manifest' or 'simulate'")
        if self.scorer not in ("dot", "mlp", "both"):
            raise ConfigError(f"scorer must be dot, mlp, or both, got {self.scorer!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.teacher.window != self.student.window:
            raise ConfigError("teacher and student must span the same window")


RUN_KEYS = ("teacher", "student", "data", "out", "scorer", "trials", "k", "seed")
DATA_KEYS = ("manifest", "simulate")


def load_run_config(path: str | Path) -> RunConfig:
    """Parse a JSON run config; unknown keys and mistyped counts are errors.
    Omitted model keys take the teacher or student defaults; the student's
    window defaults to the teacher's."""
    path = Path(path)
    try:
        blob = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"no run config at {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None

    def check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
        for key in obj:
            if key not in allowed:
                raise ConfigError(f"{path}: unknown key {key!r} in {where}; "
                                  f"expected one of {', '.join(allowed)}")

    def section(name) -> dict:
        value = blob.get(name, {})
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: section {name!r} must be an object")
        return dict(value)

    def integer(name, default, nullable=False):
        value = blob.get(name, default)
        if value is None and nullable:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            kind = "an integer or null" if nullable else "an integer"
            raise ConfigError(f"{path}: {name!r} must be {kind}, got {value!r}")
        return value

    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: a run config must be a JSON object")
    check_keys(blob, RUN_KEYS, "the run config")
    try:
        teacher = ModelConfig(role="teacher", **section("teacher"))
        student_fields = section("student")
        student_fields.setdefault("window", teacher.window)
        student = student_defaults(**{**student_fields, "role": "student"})
        data = section("data")
        check_keys(data, DATA_KEYS, "data")
        manifest = data.get("manifest")
        sim_fields = data.get("simulate")
        sim = None
        if sim_fields is not None:
            if not isinstance(sim_fields, dict):
                raise ConfigError(f"{path}: data.simulate must be an object")
            sim = SimConfig(**sim_fields)
        if manifest is not None and sim is not None:
            raise ConfigError(f"{path}: data gives both a manifest and a simulation")
        return RunConfig(
            teacher=teacher,
            student=student,
            manifest=Path(path.parent / manifest) if manifest is not None else None,
            sim=sim,
            out_dir=Path(blob.get("out", "runs/out")),
            scorer=str(blob.get("scorer", "dot")),
            trials=integer("trials", 5),
            k=integer("k", None, nullable=True),
            seed=integer("seed", 0),
        )
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def resolve_event(cfg: RunConfig) -> EventSequence:
    """The run's dataset: loaded from disk or synthesized in memory."""
    if cfg.manifest is not None:
        return load_event(cfg.manifest)
    from .simulate import simulate_event

    return normalize_weights(simulate_event(cfg.sim))


def _meta() -> dict:
    """Facts of the run that the report payload must not depend on. Training
    bits depend on the numpy build's exp, so the versions are recorded."""
    return {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "host": platform.node(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "evolink": __version__,
    }


def write_report(report: EvalReport, out_dir: str | Path,
                 stem: str = "report") -> tuple[Path, Path]:
    """Write ``<stem>.json`` and ``<stem>.csv``; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{stem}.json"
    payload = {"meta": _meta(), "report": report.to_payload()}
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    csv_path = out / f"{stem}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "model", "metric", "value"])
        for row in report.csv_rows():
            writer.writerow([row[0], row[1], row[2], repr(row[3])])
    return json_path, csv_path


def write_trace(trace: TrainingTrace, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "seconds"])
        for epoch, (loss, secs) in enumerate(zip(trace.losses, trace.seconds)):
            writer.writerow([epoch, repr(loss), f"{secs:.6f}"])
    return path


def write_rows_csv(path: str | Path, header: list[str], rows: list[tuple]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return path
