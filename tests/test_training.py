"""Training-loop tests: reproducibility, warm starts, the distillation
boundary where gamma = 1 collapses onto plain reconstruction training, and
the cost of a fit: edge-array builds, peak memory and what the tape holds."""
import tracemalloc

import numpy as np
import pytest

from evolink import graphs
from evolink.errors import ConfigError, NumericError, TrainingDivergedError
from evolink.gcn import Embeddings
from evolink.graphs import SnapshotGraph, build_window, normalize_weights
from evolink.model import (GcnChain, ModelConfig, WindowData, reconstruction_loss,
                           student_defaults, teacher_defaults)
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


def count_edge_array_builds(monkeypatch):
    calls = []
    build = graphs._edge_arrays

    def counting(g):
        calls.append(g.index)
        return build(g)

    monkeypatch.setattr(graphs, "_edge_arrays", counting)
    return calls


def test_each_snapshot_adjacency_is_built_once_per_fit(monkeypatch):
    """A snapshot's edge arrays are built on first use and kept: once per
    snapshot, not per epoch, and not again for the student or for repeated
    inference."""
    calls = count_edge_array_builds(monkeypatch)
    for epochs in (1, 5):
        window = make_window(window=3)
        calls.clear()
        teacher, _, emb = train_teacher(window, tiny_teacher(window=3, heads=2,
                                                             epochs=epochs), N)
        assert sorted(calls) == [g.index for g in window]
        distill_student(DistillationBundle(teacher, emb, tiny_student(window=3, epochs=epochs)),
                        window, N)
        teacher.embeddings(window)
        teacher.embeddings(window)
        assert sorted(calls) == [g.index for g in window]


@pytest.fixture(scope="module")
def viewers_320():
    """The window ending at snapshot 6 of a 320-viewer event (n = 302)."""
    event = normalize_weights(simulate_event(SimConfig(
        offices=4, viewers=320, snapshots=8, arrival="front_loaded", seed=0)))
    return event, build_window(event, 6, 3)


def test_fit_peak_memory_is_bounded(viewers_320):
    """Peak traced memory of a 3-epoch fit and of one inference at 320
    viewers (n = 302), in units of one n x n float64 array. Attention and
    propagation run over neighbour lists, so only the loss holds n x n
    arrays: the teacher fit peaks near 14 units, the student fit near 10
    and an inference near 2.5, against 49, 26 and 11 with dense attention.
    Fits peaked near 155 and 75 when every tape node also kept a gradient
    until the next epoch."""
    event, window = viewers_320
    unit = window[-1].n ** 2 * 8

    def peak(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    (teacher, _, emb), teacher_peak = peak(lambda: train_teacher(
        window, teacher_defaults(epochs=3), event.n_global))
    bundle = DistillationBundle(teacher, emb, student_defaults(epochs=3))
    _, student_peak = peak(lambda: distill_student(bundle, window, event.n_global))
    _, inference_peak = peak(lambda: teacher.embeddings(window))
    assert teacher_peak <= 24
    assert student_peak <= 14
    assert inference_peak <= 4


def test_no_n_by_n_value_is_recorded_outside_the_loss(viewers_320):
    """Walk the tape of one teacher forward pass plus its loss: no value a
    tape node holds, nor any array its backward keeps, is (n, n) for a
    window snapshot's n, except inside the loss op itself."""
    event, window = viewers_320
    chain = GcnChain.init(teacher_defaults(), event.n_global)
    data = WindowData.build(window)
    loss = reconstruction_loss(chain.forward(data)[-1], data)
    sizes = {g.n for g in window}
    seen, stack, kept = set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
        if t is loss:
            continue
        kept.append(t.value)
        cells = t._backward.__closure__ if t._backward is not None else None
        kept += [c.cell_contents for c in cells or ()
                 if isinstance(c.cell_contents, np.ndarray)]
    square = [a.shape for a in kept
              if a.ndim == 2 and a.shape[0] in sizes and a.shape[1] in sizes]
    assert len(seen) > 50
    assert square == []


def test_window_data_grows_with_edges_not_with_n_squared(viewers_320):
    """Every WindowData array but the loss target has one entry per edge
    direction and node at most."""
    _, window = viewers_320
    data = WindowData.build(window)
    for g, a_hat, features in zip(window, data.a_hats, data.features):
        entries = 2 * len(g.edges) + g.n
        assert entries < g.n ** 2 / 10
        assert a_hat.nnz == entries
        for arr in (a_hat.data, a_hat.indices, a_hat.indptr, features.ids):
            assert len(arr) <= entries + 1
    for g, inputs in zip(window[1:], data.attention):
        entries = 2 * len(g.edges) + g.n
        edges = inputs.edges
        for arr in (inputs.ids, edges.indptr, edges.rows, edges.cols, edges.weights,
                    edges.transpose):
            assert arr.size <= entries + 1
    assert data.target.shape == (data.n, data.n)
