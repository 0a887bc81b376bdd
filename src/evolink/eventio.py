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
import ctypes
import functools
import io
import json
import math
import platform
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, EventFormatError, EvolinkError, check_numbers
from .evaluation import SCORERS, EvalReport
from .graphs import EventSequence, RawEvent, normalize_edges, normalize_weights
from .model import ModelConfig, student_defaults
from .simulate import SimConfig, simulate_event
from .training import TrainingTrace

SNAPSHOT_SECONDS = 600
WEIGHT_UNIT = "mbps"
MANIFEST_NAME = "manifest.json"


def export_event(raw: RawEvent, out_dir: str | Path) -> Path:
    """Write an event directory; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for k, edges in enumerate(raw.snapshots):
        fname = f"snapshot_{k:03d}.csv"
        files.append(fname)
        with open(out / fname, "w", newline="") as fh:
            for u, v, w in edges:
                fh.write(f"{int(u)},{int(v)},{float(w)!r}\n")
    manifest = {
        "name": raw.name,
        "num_snapshots": len(raw.snapshots),
        "snapshot_seconds": SNAPSHOT_SECONDS,
        "weight_unit": WEIGHT_UNIT,
        "files": files,
    }
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def read_file(path: Path, what: str, error: type[EvolinkError] = EventFormatError,
              binary: bool = False) -> str | bytes:
    """The UTF-8 text of ``path``, or its bytes if ``binary``. Any failure
    (a missing file, a directory, no permission, a bad name, bytes that
    are not UTF-8) raises ``error`` naming ``what`` and the path."""
    try:
        return path.read_bytes() if binary else path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"no {what} at {path}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} is not UTF-8 text ({exc.reason} at "
                    f"byte {exc.start})") from None
    except ValueError as exc:  # a NUL or an unencodable character in the name
        raise error(f"cannot open {what} {path!r}: {exc}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None


# A snapshot file's rows; the line loop's keep their ids as Python ints,
# which need not fit in 64 bits.
_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
_LOOP_ROW = np.dtype([("u", object), ("v", object), ("w", np.float64)])
# On text of these characters alone, np.loadtxt reads the lines and values
# that the line loop reads and rejects the fields int() and float() reject.
_PLAIN = b"0123456789+-.eE,\n"


def _read_snapshot(fpath: Path) -> np.ndarray:
    """A snapshot file's rows. A non-blank file of plain characters is parsed
    in one pass and checked as arrays; any other file, and one that fails a
    check, goes through the line loop, which names the first bad line."""
    text = read_file(fpath, "snapshot file")
    if text.isascii() and text.strip() and not text.encode().translate(None, _PLAIN):
        try:
            rows = np.loadtxt(io.StringIO(text), _ROW, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            rows = None
        if rows is not None:
            u, v, w = rows["u"], rows["v"], rows["w"]
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            if (((lo >= 0) & (lo != hi)).all() and ((w > 0) & (w < math.inf)).all()
                    and not ((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])).any()):
                return rows
    return np.array(_parse_lines(fpath, text), dtype=_LOOP_ROW)


def _parse_lines(fpath: Path, text: str) -> list[tuple[int, int, float]]:
    """The edges of a snapshot file's text, read line by line."""
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise EventFormatError(f"{fpath}:{lineno}: expected 'u,v,weight', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise EventFormatError(f"{fpath}:{lineno}: unparseable edge {line!r}") from None
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
    return edges


def load_raw_event(manifest_path: str | Path) -> RawEvent:
    """Parse an event directory without normalizing.

    Anything wrong with the manifest or a snapshot file raises
    ``EventFormatError`` naming the file (and line) at fault.
    """
    name, tables = _read_event(manifest_path)
    return RawEvent(name=name, snapshots=tuple(tuple(t.tolist()) for t in tables))


def load_event(manifest_path: str | Path) -> EventSequence:
    """Parse and normalize an event directory, as ``load_raw_event`` then
    ``normalize_weights`` would, without building the edge tuples."""
    name, tables = _read_event(manifest_path)
    return normalize_edges(name, list(map(len, tables)),
                           np.concatenate([np.empty(0, _ROW), *tables]))


def _read_event(manifest_path: str | Path) -> tuple[str, list[np.ndarray]]:
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    try:
        manifest = json.loads(read_file(manifest_path, "manifest"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise EventFormatError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise EventFormatError(f"{manifest_path}: a manifest must be a JSON object")
    for key in ("name", "num_snapshots", "files"):
        if key not in manifest:
            raise EventFormatError(f"{manifest_path}: missing key {key!r}")
    name, files, count = manifest["name"], manifest["files"], manifest["num_snapshots"]
    if not isinstance(name, str):
        raise EventFormatError(f"{manifest_path}: name must be a string, got {name!r}")
    if not isinstance(count, int) or isinstance(count, bool):
        raise EventFormatError(f"{manifest_path}: num_snapshots must be an integer, "
                               f"got {count!r}")
    if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
        raise EventFormatError(f"{manifest_path}: files must be a list of file names")
    if len(files) != count:
        raise EventFormatError(f"{manifest_path}: {len(files)} files listed for "
                               f"{count} snapshots")
    return name, [_read_snapshot(manifest_path.parent / fname) for fname in files]


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
            raise ConfigError("data must give exactly one of 'manifest' or 'simulate', got "
                              + ("neither" if self.sim is None else "both"))
        if self.scorer not in (*SCORERS, "both"):
            raise ConfigError(f"scorer must be {', '.join(SCORERS)}, or both, "
                              f"got {self.scorer!r}")
        check_numbers(self, {"trials": 1, "seed": 0, **({} if self.k is None else {"k": None})},
                      {})
        if self.teacher.window != self.student.window:
            raise ConfigError("teacher and student must span the same window")


RUN_KEYS = ("teacher", "student", "data", "out", "scorer", "trials", "k", "seed")
DATA_KEYS = ("manifest", "simulate")


def load_run_config(path: str | Path) -> RunConfig:
    """Parse a JSON run config, checking its keys and sections; the config
    classes check every value, and each error names the file and section.
    Omitted model keys take the role's defaults, the student's window the teacher's."""
    path = Path(path)
    try:
        blob = json.loads(read_file(path, "run config", ConfigError))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None

    def check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
        for key in obj:
            if key not in allowed:
                raise ConfigError(f"{path}: unknown key {key!r} in {where}; "
                                  f"expected one of {', '.join(allowed)}")

    def section(obj: dict, name: str) -> dict:
        value = obj.get(name, {})
        if not isinstance(value, dict):
            raise ConfigError(f"must be an object, got {value!r}")
        return value

    def build(where: str, make):
        try:
            return make()
        except (ConfigError, TypeError) as exc:  # a section or a value that is refused
            raise ConfigError(f"{path}: {where}{exc}") from None

    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: a run config must be a JSON object")
    check_keys(blob, RUN_KEYS, "the run config")
    teacher = build("teacher: ", lambda: ModelConfig(role="teacher", **section(blob, "teacher")))
    student = build("student: ", lambda: student_defaults(
        **{"window": teacher.window, **section(blob, "student"), "role": "student"}))
    data = build("data: ", lambda: section(blob, "data"))
    check_keys(data, DATA_KEYS, "data")
    sim = None
    if data.get("simulate") is not None:
        sim = build("data.simulate: ", lambda: SimConfig(**section(data, "simulate")))
    manifest = data.get("manifest")
    if manifest is not None:
        if not isinstance(manifest, str):
            raise ConfigError(f"{path}: data: manifest must be a path, got {manifest!r}")
        manifest = path.parent / manifest
    # Only the keys the config gives: RunConfig holds the defaults.
    given = {name: blob[name] for name in ("scorer", "trials", "k", "seed") if name in blob}
    if "out" in blob:
        given["out_dir"] = build("out: ", lambda: Path(blob["out"]))
    return build("", lambda: RunConfig(teacher=teacher, student=student, manifest=manifest,
                                       sim=sim, **given))


def resolve_event(cfg: RunConfig) -> EventSequence:
    """The run's dataset: loaded from disk or synthesized in memory."""
    if cfg.manifest is not None:
        return load_event(cfg.manifest)
    return normalize_weights(simulate_event(cfg.sim))


@functools.cache
def _blas_thread_getter():
    """The loaded OpenBLAS's thread-count function, or None where the loaded
    libraries cannot be listed or none exposes one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    getter = _blas_thread_getter()
    return None if getter is None else int(getter())


def _meta() -> dict:
    """Facts of the run that the report payload must not depend on. Training
    bits depend on the numpy build's exp and on the BLAS build and its thread
    count, so those are recorded."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds without the dict report
        blas = {}
    return {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "host": platform.node(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
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
    csv_path = write_rows_csv(out / f"{stem}.csv", ["trial", "model", "metric", "value"],
                              report.csv_rows())
    return json_path, csv_path


def write_trace(trace: TrainingTrace, path: str | Path) -> Path:
    return write_rows_csv(path, ["epoch", "loss", "seconds"],
                          [(epoch, loss, f"{secs:.6f}")
                           for epoch, (loss, secs) in enumerate(zip(trace.losses, trace.seconds))])


def write_rows_csv(path: str | Path, header: list[str], rows: list[tuple]) -> Path:
    """Write ``header`` and ``rows`` as CSV, each float as its ``repr``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return path
