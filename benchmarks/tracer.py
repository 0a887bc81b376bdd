"""Spans around the package's layer boundaries, for the traced run only.

The package binds most cross-module names with ``from .x import y``, so a
wrapper has to replace the name in every module that calls through it
(``evolink.model.evolve_weights``, ``evolink.training.backward``, ...).
Each wrapper records a span (name, start, end, parent) in memory; the
per-layer figures are computed from the spans after the run. Nothing in
the package is edited, and an untraced run installs no wrapper at all.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path

FIT = "training._fit"
SETUP = "phase.setup"
ROUND = "phase.round"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Calls nest strictly (one thread), so the children of a span never
    overlap and their durations simply add up.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _fit_counts(trace) -> dict:
    return {"epochs": len(trace.seconds), "epoch_s": float(sum(trace.seconds))}


def _file_bytes(path) -> dict:
    return {"file_bytes": Path(path).stat().st_size}


# Layer name -> the bindings it is reached through, as "module:attribute".
# An attribute path may end in [key] to name an entry of a dict.
LAYERS: list[tuple[str, tuple[str, ...], object]] = [
    ("graphs.adjacency", ("evolink.graphs:SnapshotGraph.adjacency",), None),
    ("graphs.normalize_adjacency", ("evolink.model:normalize_adjacency",
                                    "evolink.training:normalize_adjacency"), None),
    ("graphs.normalize_weights", ("evolink.graphs:normalize_weights",
                                  "evolink.eventio:normalize_weights"), None),
    ("graphs.unobserved_links", ("evolink.graphs:unobserved_links",
                                 "evolink.evaluation:unobserved_links"), None),
    ("attention.evolve_weights", ("evolink.model:evolve_weights",), None),
    ("gcn.gcn_forward", ("evolink.model:gcn_forward",), None),
    ("model.forward", ("evolink.model:GcnChain.forward",), None),
    (FIT, ("evolink.training:_fit",), _fit_counts),
    ("tape.backward", ("evolink.training:backward", "evolink.evaluation:backward"), None),
    ("optim.step", ("evolink.optim:Adam.step",), None),
    ("simulate.simulate_event", ("evolink.simulate:simulate_event",
                                 "evolink.cli:simulate_event"), None),
    ("training.train_teacher", ("evolink.training:train_teacher",
                                "evolink.evaluation:train_teacher",
                                "evolink.cli:train_teacher"), None),
    ("training.distill_student", ("evolink.training:distill_student",
                                  "evolink.evaluation:distill_student",
                                  "evolink.cli:distill_student"), None),
    ("evaluation.train_mlp_scorer", ("evolink.evaluation:train_mlp_scorer",), None),
    ("evaluation.score", ("evolink.evaluation:score_dot",
                          "evolink.evaluation:score_mlp"), None),
    ("eventio.export_event", ("evolink.eventio:export_event",
                              "evolink.cli:export_event"), None),
    ("eventio.load_event", ("evolink.eventio:load_event",), None),
    ("eventio.load_run_config", ("evolink.eventio:load_run_config",
                                 "evolink.cli:load_run_config"), None),
    ("eventio.write_report", ("evolink.eventio:write_report",
                              "evolink.cli:write_report"), None),
    ("eventio.write_trace", ("evolink.eventio:write_trace",
                             "evolink.cli:write_trace"), None),
    ("checkpoint.write", ("evolink.checkpoint:write_checkpoint",
                          "evolink.cli:write_checkpoint"), _file_bytes),
    ("checkpoint.read", ("evolink.checkpoint:read_checkpoint",
                         "evolink.cli:read_checkpoint"), None),
] + [(f"cli.{c}", (f"evolink.cli:COMMANDS[{c}]",), None)
     for c in ("simulate", "train-teacher", "distill", "evaluate")]

TENSOR_INIT = "evolink.tape:Tensor.__init__"


def _resolve(target: str):
    """(owner, key, current value) for a "module:attr.path[key]" target;
    raises LookupError when any part of it no longer exists."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    key = None
    if path.endswith("]"):
        path, key = path[:-1].split("[")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(target)
    if key is None:
        key = parts[-1]
        if not hasattr(owner, key):
            raise LookupError(target)
        return owner, key, getattr(owner, key)
    owner = getattr(owner, parts[-1], None)
    if not isinstance(owner, dict) or key not in owner:
        raise LookupError(target)
    return owner, key, owner[key]


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Collects spans while installed; keeps them in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.enabled = True
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                tracer.spans[idx].counts.update(on_result(result))
            return result

        return wrapper

    def _count_tensors(self, init):
        tracer = self

        def counting_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            if tracer.enabled and tracer._stack:
                c = tracer.spans[tracer._stack[-1]].counts
                c["tensors"] = c.get("tensors", 0) + 1
                c["tensor_bytes"] = c.get("tensor_bytes", 0) + tensor.value.nbytes

        return counting_init

    def install(self, layers=LAYERS) -> None:
        """Wrap every binding of every layer; record those that are gone."""
        targets = [(t, name, hook) for name, ts, hook in layers for t in ts]
        targets.append((TENSOR_INIT, None, None))
        for target, name, hook in targets:
            try:
                owner, key, original = _resolve(target)
            except LookupError:
                if target not in self.absent:
                    self.absent.append(target)
                continue
            if name is None:
                replacement = self._count_tensors(original)
            else:
                replacement = self._wrap(name, original, hook)
            _assign(owner, key, replacement)
            self._undo.append((owner, key, original))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self) -> None:
        while self._undo:
            _assign(*self._undo.pop())


# --------------------------------------------------------------- figures

PER_EPOCH_SELF = ("graphs.adjacency", "attention.evolve_weights", "gcn.gcn_forward",
                  "tape.backward", "optim.step")
PER_EPOCH_INCLUSIVE = ("model.forward",)
CALLS_PER_EPOCH = ("graphs.adjacency", "attention.evolve_weights")
TOTAL_CALLS = ("graphs.normalize_adjacency", "training.train_teacher",
               "training.distill_student", "evaluation.train_mlp_scorer")
TOTAL_SECONDS = ("graphs.normalize_adjacency", "simulate.simulate_event",
                 "graphs.normalize_weights", "graphs.unobserved_links",
                 "training.train_teacher", "training.distill_student",
                 "evaluation.train_mlp_scorer", "evaluation.score",
                 "eventio.export_event", "eventio.load_event", "eventio.load_run_config",
                 "eventio.write_report", "eventio.write_trace",
                 "checkpoint.write", "checkpoint.read",
                 "cli.simulate", "cli.train-teacher", "cli.distill", "cli.evaluate")


def layer_figures(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from the spans of one traced run.

    ``*_per_epoch`` figures divide what the fits did (their set-up before
    the first epoch included) by their epochs, teacher and student alike. Totals (``.calls``, ``.s``, ``.bytes``)
    are the cost of one set-up plus one round: spans under ``phase.setup``
    count 1/(number of set-ups), spans under ``phase.round`` 1/(number of
    traced rounds). ``.ms_per_epoch`` is self time except for
    ``model.forward``, which includes what the forward pass calls; ``.s``
    is inclusive time.
    """
    selfs = self_times(spans)
    n = len(spans)
    phase = [""] * n
    in_fit = [False] * n
    for i, s in enumerate(spans):
        if s.parent < 0:
            phase[i] = s.name
        else:
            phase[i] = phase[s.parent]
            in_fit[i] = in_fit[s.parent] or spans[s.parent].name == FIT
    n_phase = {SETUP: 0, ROUND: 0}
    for i, s in enumerate(spans):
        if s.parent < 0 and s.name in n_phase:
            n_phase[s.name] += 1
    weight = [1.0 / n_phase[p] if n_phase.get(p) else 0.0 for p in phase]

    epochs = sum(s.counts.get("epochs", 0) for s in spans if s.name == FIT)
    epoch_s = sum(s.counts.get("epoch_s", 0.0) for s in spans if s.name == FIT)
    per_epoch = 1.0 / epochs if epochs else 0.0
    fig: dict[str, float] = {}
    for layer in CALLS_PER_EPOCH:
        fig[f"{layer}.calls_per_epoch"] = per_epoch * sum(
            1 for i, s in enumerate(spans) if s.name == layer and in_fit[i])
    for layer in PER_EPOCH_SELF:
        fig[f"{layer}.ms_per_epoch"] = 1e3 * per_epoch * sum(
            selfs[i] for i, s in enumerate(spans) if s.name == layer and in_fit[i])
    for layer in PER_EPOCH_INCLUSIVE:
        fig[f"{layer}.ms_per_epoch"] = 1e3 * per_epoch * sum(
            s.end - s.start for i, s in enumerate(spans) if s.name == layer and in_fit[i])
    # The loss is what an epoch spends outside every traced call made in
    # it; the adjacency rebuilds before the epoch loop are not epoch time.
    traced_in_epochs = sum(s.end - s.start for s in spans
                           if s.parent >= 0 and spans[s.parent].name == FIT
                           and s.name != "graphs.normalize_adjacency")
    fig["training.loss.ms_per_epoch"] = 1e3 * per_epoch * (epoch_s - traced_in_epochs)
    nodes = sum(s.counts.get("tensors", 0) for i, s in enumerate(spans)
                if in_fit[i] or s.name == FIT)
    nbytes = sum(s.counts.get("tensor_bytes", 0) for i, s in enumerate(spans)
                 if in_fit[i] or s.name == FIT)
    fig["tape.nodes_per_epoch"] = per_epoch * nodes
    fig["tape.mb_per_epoch"] = per_epoch * nbytes / 1e6
    for layer in TOTAL_CALLS:
        fig[f"{layer}.calls"] = sum(weight[i] for i, s in enumerate(spans) if s.name == layer)
    for layer in TOTAL_SECONDS:
        fig[f"{layer}.s"] = sum(weight[i] * (s.end - s.start)
                                for i, s in enumerate(spans) if s.name == layer)
    fig["checkpoint.bytes"] = sum(weight[i] * s.counts.get("file_bytes", 0)
                                  for i, s in enumerate(spans) if s.name == "checkpoint.write")
    fig["training.epochs"] = sum(weight[i] * s.counts.get("epochs", 0)
                                 for i, s in enumerate(spans) if s.name == FIT)
    return fig
