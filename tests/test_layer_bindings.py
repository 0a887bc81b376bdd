"""The benchmark's per-layer figures reach the package through named
bindings (``benchmarks/tracer.py`` ``LAYERS``); a binding that no longer
resolves makes its figure read 0. This guard fails when a refactor moves
a name the tracer wraps.
"""
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

# Neither module imports normalize_adjacency any more: each snapshot caches
# its normalized adjacency (SnapshotGraph.normalized_adjacency).
KNOWN_ABSENT = {"evolink.model:normalize_adjacency", "evolink.training:normalize_adjacency"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracer = load_tracer()
    absent = set()
    for _, targets, _ in tracer.LAYERS:
        for target in targets:
            try:
                tracer._resolve(target)
            except LookupError:
                absent.add(target)
    assert absent <= KNOWN_ABSENT, f"unresolved: {sorted(absent - KNOWN_ABSENT)}"
