"""Run one evolink benchmark workload and print its result.

    python3 benchmarks/run.py --workload desk-eval [--seed 0] [--seconds 30] [--trace 0]

Workloads: desk-eval, viewers-1000, cli-pipeline (see README.md). The run
sets the event up several times, ``setup_s`` being the median, then
repeats identical rounds of the workload's body until ``--seconds`` would
be exceeded (at least one round). With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
rounds alternate untraced and traced and it holds the per-layer figures
and the tracing overhead. The full record of the run (machine facts,
every sample, failed checks, spans) goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
END_TO_END = {
    "setup_s": "s", "wall_s": "s",
    "teacher_epoch_ms": "ms", "student_epoch_ms": "ms",
    "teacher_infer_ms": "ms", "student_infer_ms": "ms",
    "peak_rss_mb": "MB", "teacher_rmse": "1", "student_rmse": "1",
}
OVERHEAD = "trace.overhead_pct"


def per_layer_unit(name: str) -> str:
    if name == OVERHEAD:
        return "%"
    for suffix, unit in ((".ms_per_epoch", "ms"), (".mb_per_epoch", "MB"),
                         (".bytes", "bytes"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def fastest(values) -> float:
    """The low order statistic every timing reports: its fastest sample.

    On a shared host a sample can only be slowed down by other tenants,
    never sped up, and the fastest of many short samples taken across a
    run moves far less between runs than their median does.
    """
    if not values:
        raise ValueError("no samples")
    return min(values)


def wall_time(samples: dict[str, list[float]]) -> float:
    """``wall_s``: the fastest body, or, where the body's parts are timed
    apart (``wall_s/<part>``), the sum of each part's fastest."""
    if "wall_s" in samples:
        return fastest(samples["wall_s"])
    parts = [vals for key, vals in samples.items() if key.startswith("wall_s/")]
    if not parts:
        raise KeyError("wall_s")
    return sum(fastest(vals) for vals in parts)


def pooled(rounds) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for rec in rounds:
        for key, vals in rec.samples.items():
            samples.setdefault(key, []).extend(vals)
    return samples


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
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
                return int(getter())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds without the dict report
        deps = {}
    blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": blas_threads()}


@contextlib.contextmanager
def traced(tracer, phase: str):
    """Install the wrappers and open a phase span, when there is a tracer."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.span(phase):
            yield
    finally:
        tracer.uninstall()


def measure(workload, seconds: float, tracer) -> dict:
    """``workload.SETUPS`` set-ups, then whole rounds until ``seconds``
    would be exceeded. A traced run alternates untraced and traced rounds,
    at least one each.

    The set-ups all come first: after a round has trained a model at 1000
    viewers the same set-up runs up to twice as slow in the same process,
    which no user starting the program meets."""
    from workloads import Round

    setup_s = []

    def set_up():
        t0 = time.perf_counter()
        with traced(tracer, tracing.SETUP):
            ready = workload.setup()
        setup_s.append(time.perf_counter() - t0)
        return ready

    for _ in range(workload.SETUPS):
        ready = set_up()
    workload.prepare(ready)

    rounds, durations, is_traced = [], [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(rounds) % 2 == 1
        rec = Round(workload.OPS, tracer if trace_this else None)
        t0 = time.perf_counter()
        with traced(tracer if trace_this else None, tracing.ROUND):
            try:
                workload.round(ready, rec)
            except Exception:  # a round is the unit of failure; keep going
                text = traceback.format_exc()
                print(text, file=sys.stderr)
                rec.crash(text.strip().splitlines()[-1])
        durations.append(time.perf_counter() - t0)
        rounds.append(rec)
        is_traced.append(trace_this)
        done = time.perf_counter() - start
        if ((tracer is None or len(rounds) >= 2)
                and done + statistics.median(durations) > seconds):
            break
    return {"setup_s": setup_s, "rounds": rounds, "round_s": durations,
            "traced": is_traced}


def summarize(run: dict, tracer) -> dict:
    rounds = run["rounds"]
    samples = pooled(r for r, t in zip(rounds, run["traced"]) if not t)
    if tracer is not None:
        figures = tracing.layer_figures(tracer.spans)
        traced = pooled(r for r, t in zip(rounds, run["traced"]) if t)
        figures[OVERHEAD] = 100.0 * (wall_time(traced) / wall_time(samples) - 1.0)
        return {name: {"value": value, "unit": per_layer_unit(name)}
                for name, value in figures.items()}
    values = rounds[-1].values
    metrics = {
        "setup_s": statistics.median(run["setup_s"]),
        "wall_s": wall_time(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "teacher_rmse": values["teacher_rmse"],
        "student_rmse": values["student_rmse"],
    }
    for role in ("teacher", "student"):
        metrics[f"{role}_epoch_ms"] = 1e3 * fastest(samples[f"{role}_epoch_s"])
        metrics[f"{role}_infer_ms"] = 1e3 * fastest(samples[f"{role}_infer_s"])
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk-eval", "viewers-1000", "cli-pipeline"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import evolink
    except ImportError as exc:
        print(f"error: cannot import evolink from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(evolink.__file__).resolve().parent != (src / "evolink").resolve():
        print(f"error: evolink resolved to {evolink.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / f"{args.workload}-work")
    tracer = tracing.Tracer() if args.trace else None
    run = measure(workload, args.seconds, tracer)
    rounds = run["rounds"]
    try:
        metrics = summarize(run, tracer)
    except (KeyError, ValueError, RuntimeError) as exc:
        print(f"error: a metric has no value ({exc!r}); see the failures above",
              file=sys.stderr)
        return 1
    result = {"correct": not any(r.wrong for r in rounds),
              "attempted": sum(len(r.failures) for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "result": result,
        "setup_s": run["setup_s"], "round_s": run["round_s"], "round_traced": run["traced"],
        "samples": [dict(r.samples) for r in rounds],
        "gradients": [r.gradients for r in rounds],
        "failures": [{op: msgs for op, msgs in r.failures.items() if msgs} for r in rounds],
    }
    if tracer is not None:
        record["absent"] = tracer.absent
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.counts] for s in tracer.spans]
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    if tracer is not None and tracer.absent:
        print(f"absent bindings: {', '.join(tracer.absent)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
