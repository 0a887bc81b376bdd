"""Training-loop tests: reproducibility, warm starts, the distillation
boundary where gamma = 1 collapses onto plain reconstruction training, and
the cost of a fit: adjacency builds and peak memory."""
import tracemalloc

import numpy as np
import pytest

from evolink.errors import ConfigError, NumericError, TrainingDivergedError
from evolink.gcn import Embeddings
from evolink.graphs import SnapshotGraph, build_window, normalize_weights
from evolink.model import (GcnChain, ModelConfig, reconstruction_loss, student_defaults,
                           teacher_defaults)
from evolink.simulate import SimConfig, simulate_event
from evolink.training import DistillationBundle, distill_student, train_teacher

N = 8


def make_window(window=1, seed=0):
    """Snapshots over nodes 0..7: two clusters plus a drifting bridge."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(window + 1):
        edges = [(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.85),
                 (4, 5, 0.9), (5, 6, 0.8), (4, 6, 0.85),
                 (2, 4, float(rng.uniform(0.1, 0.3))),
                 (3, 7, float(rng.uniform(0.4, 0.6)))]
        out.append(SnapshotGraph(index=k, nodes=tuple(range(N)),
                                 edges=tuple(sorted(edges))))
    return out


def tiny_teacher(**overrides):
    base = dict(window=1, heads=1, hidden_dim=6, embed_dim=3,
                epochs=40, lr=5e-2, seed=0, role="teacher")
    base.update(overrides)
    return ModelConfig(**base)


def tiny_student(**overrides):
    base = dict(window=1, heads=1, hidden_dim=4, embed_dim=2,
                epochs=30, lr=5e-2, seed=1, role="student", gamma=0.5)
    base.update(overrides)
    return ModelConfig(**base)


def test_teacher_training_is_deterministic():
    window = make_window()
    a = train_teacher(window, tiny_teacher(), N)
    b = train_teacher(window, tiny_teacher(), N)
    assert a[1].param_digest == b[1].param_digest
    assert a[1].losses == b[1].losses
    np.testing.assert_array_equal(a[2].z, b[2].z)


def test_teacher_loss_decreases():
    window = make_window()
    _, trace, _ = train_teacher(window, tiny_teacher(epochs=80), N)
    assert len(trace.losses) == 80
    assert trace.losses[-1] < trace.losses[0]
    assert all(s >= 0 for s in trace.seconds)


def test_trace_digest_matches_model():
    window = make_window()
    chain, trace, _ = train_teacher(window, tiny_teacher(), N)
    assert trace.param_digest == chain.param_digest()


def test_embeddings_are_post_update_inference():
    window = make_window()
    chain, _, emb = train_teacher(window, tiny_teacher(), N)
    again = chain.embeddings(window)
    np.testing.assert_array_equal(emb.z, again.z)
    assert emb.ids == window[-1].nodes


def test_warm_start_resumes_from_trained_parameters():
    window = make_window()
    first, _, _ = train_teacher(window, tiny_teacher(epochs=5), N)
    _, warm_trace, _ = train_teacher(window, tiny_teacher(epochs=1), N,
                                     init_from=first)
    resumed = reconstruction_loss(first.forward(window)[-1], window[-1]).value
    assert warm_trace.losses[0] == resumed


def test_warm_start_shape_mismatch_rejected():
    window = make_window()
    other = GcnChain.init(tiny_teacher(hidden_dim=8, embed_dim=3), N)
    with pytest.raises(ConfigError):
        train_teacher(window, tiny_teacher(), N, init_from=other)


def test_teacher_role_and_window_validation():
    window = make_window()
    with pytest.raises(ConfigError):
        train_teacher(window, tiny_student(), N)
    with pytest.raises(ConfigError):
        train_teacher(window[:1], tiny_teacher(), N)


def test_nan_parameters_fail_fast_with_trace():
    window = make_window()
    poisoned = GcnChain.init(tiny_teacher(), N)
    poisoned.w2[-1].value[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError) as exc:
        train_teacher(window, tiny_teacher(), N, init_from=poisoned)
    assert exc.value.trace is not None
    assert exc.value.trace.losses == []


def test_nan_first_layer_caught_by_attention_guard():
    window = make_window()
    poisoned = GcnChain.init(tiny_teacher(), N)
    poisoned.w1_first.value[0, 0] = np.nan
    with pytest.raises(NumericError):
        train_teacher(window, tiny_teacher(), N, init_from=poisoned)


def make_bundle(window, student_cfg, teacher_cfg=None):
    teacher, _, emb = train_teacher(window, teacher_cfg or tiny_teacher(), N)
    return DistillationBundle(teacher=teacher, teacher_embeddings=emb,
                              student_config=student_cfg)


def test_distillation_is_deterministic_and_learns():
    window = make_window()
    bundle = make_bundle(window, tiny_student(epochs=60))
    s1, t1 = distill_student(bundle, window, N)
    s2, t2 = distill_student(bundle, window, N)
    assert s1.param_digest() == s2.param_digest()
    assert t1.losses == t2.losses
    assert t1.losses[-1] < t1.losses[0]


def test_distillation_leaves_teacher_untouched():
    window = make_window()
    bundle = make_bundle(window, tiny_student())
    before = bundle.teacher.param_digest()
    distill_student(bundle, window, N)
    assert bundle.teacher.param_digest() == before


def test_gamma_one_reproduces_reconstruction_training_exactly():
    window = make_window()
    student_cfg = tiny_student(gamma=1.0, epochs=25, seed=4)
    bundle = make_bundle(window, student_cfg)
    student, strace = distill_student(bundle, window, N)

    # same shapes, seed, schedule: only the role label differs
    twin_cfg = ModelConfig(window=student_cfg.window, heads=student_cfg.heads,
                           hidden_dim=student_cfg.hidden_dim,
                           embed_dim=student_cfg.embed_dim,
                           lr=student_cfg.lr, epochs=student_cfg.epochs,
                           seed=student_cfg.seed, role="teacher")
    twin, ttrace, _ = train_teacher(window, twin_cfg, N)
    assert student.param_digest() == twin.param_digest()
    assert strace.losses == ttrace.losses


def test_gamma_changes_the_fit():
    window = make_window()
    lo = distill_student(make_bundle(window, tiny_student(gamma=0.1)), window, N)
    hi = distill_student(make_bundle(window, tiny_student(gamma=0.9)), window, N)
    assert lo[0].param_digest() != hi[0].param_digest()


def test_distillation_validation():
    window = make_window()
    teacher, _, emb = train_teacher(window, tiny_teacher(), N)
    with pytest.raises(ConfigError):
        distill_student(DistillationBundle(teacher, emb, tiny_teacher()),
                        window, N)
    with pytest.raises(ConfigError):
        distill_student(DistillationBundle(teacher, emb, tiny_student(window=2)),
                        window, N)
    with pytest.raises(ConfigError):
        distill_student(DistillationBundle(teacher, emb, tiny_student()),
                        window[:1], N)
    shifted = Embeddings(z=emb.z, ids=tuple(i + 1 for i in emb.ids))
    with pytest.raises(ConfigError):
        distill_student(DistillationBundle(teacher, shifted, tiny_student()),
                        window, N)


def test_registry_carried_onto_trained_models():
    window = make_window()
    registry = {u: u for u in range(N)}
    teacher, _, emb = train_teacher(window, tiny_teacher(), N, registry=registry)
    assert teacher.registry == registry
    bundle = DistillationBundle(teacher, emb, tiny_student())
    student, _ = distill_student(bundle, window, N, registry=registry)
    assert student.registry == registry


def count_adjacency_builds(monkeypatch):
    calls = []
    build = SnapshotGraph.adjacency

    def counting(g):
        calls.append(g.index)
        return build(g)

    monkeypatch.setattr(SnapshotGraph, "adjacency", counting)
    return calls


def test_each_snapshot_adjacency_is_built_once_per_fit(monkeypatch):
    window = make_window(window=3)
    calls = count_adjacency_builds(monkeypatch)
    builds = {}
    for epochs in (1, 5):
        calls.clear()
        teacher, _, emb = train_teacher(window, tiny_teacher(window=3, heads=2,
                                                             epochs=epochs), N)
        builds["teacher", epochs] = len(calls)
        calls.clear()
        distill_student(DistillationBundle(teacher, emb, tiny_student(window=3, epochs=epochs)),
                        window, N)
        builds["student", epochs] = len(calls)
    # One build per snapshot: the teacher's final embeddings reuse its fit's.
    assert builds["teacher", 1] == builds["teacher", 5] == len(window)
    assert builds["student", 1] == builds["student", 5] == len(window)
    calls.clear()
    teacher.embeddings(window)
    assert len(calls) <= len(window)


def test_fit_peak_memory_is_bounded():
    """Peak traced memory of a 3-epoch fit at 320 viewers (n = 302), in
    units of one n x n float64 array. Constants take no gradient, interior
    gradients are released once passed on, and an epoch's tape is released
    before the next forward pass: the teacher peaks near 50 units and the
    student near 26, against 155 and 75 when every tape node kept a
    gradient until the next epoch."""
    event = normalize_weights(simulate_event(SimConfig(
        offices=4, viewers=320, snapshots=8, arrival="front_loaded", seed=0)))
    window = build_window(event, 6, 3)
    unit = window[-1].n ** 2 * 8

    def peak(fit):
        tracemalloc.start()
        try:
            result = fit()
            return result, tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    (teacher, _, emb), teacher_peak = peak(lambda: train_teacher(
        window, teacher_defaults(epochs=3), event.n_global))
    bundle = DistillationBundle(teacher, emb, student_defaults(epochs=3))
    _, student_peak = peak(lambda: distill_student(bundle, window, event.n_global))
    assert teacher_peak <= 80
    assert student_peak <= 45
