"""Tests of the benchmark's own machinery: the order statistic, span self
times, the layer figures, and checks that must reject wrong values.

    PYTHONPATH=src python -m pytest benchmarks/test_benchmark.py -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from evolink import graphs, training  # noqa: E402
from evolink.gcn import count_params  # noqa: E402
from evolink.model import GcnChain, teacher_defaults  # noqa: E402
from evolink.simulate import SimConfig, simulate_event  # noqa: E402


def test_order_statistic_is_the_fastest_sample():
    assert run.fastest([5.0, 1.0, 3.0]) == 1.0
    assert run.fastest([0.7]) == 0.7
    assert run.fastest(list(range(100, 0, -1))) == 1
    with pytest.raises(ValueError):
        run.fastest([])


def test_wall_time_sums_the_fastest_of_each_timed_part():
    assert run.wall_time({"wall_s": [3.0, 2.0], "teacher_epoch_s": [0.1]}) == 2.0
    assert run.wall_time({"wall_s/a": [3.0, 1.0], "wall_s/b": [2.0, 5.0],
                          "teacher_epoch_s": [0.1]}) == 3.0
    with pytest.raises(KeyError):
        run.wall_time({"teacher_epoch_s": [0.1]})


def span(name, start, end, parent, **counts):
    return tracing.Span(name, start, end, parent, dict(counts))


def test_self_time_subtracts_direct_children_only():
    spans = [span("root", 0.0, 10.0, -1),
             span("a", 1.0, 4.0, 0),
             span("a.child", 2.0, 3.0, 1),
             span("b", 5.0, 9.0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_figures_split_an_epoch_into_its_parts():
    fit = tracing.FIT
    spans = [span(tracing.ROUND, 0.0, 1.0, -1),
             span(fit, 0.0, 1.0, 0, epochs=2, epoch_s=0.8, tensors=10, tensor_bytes=4e6),
             span("graphs.normalize_adjacency", 0.0, 0.1, 1),
             span("model.forward", 0.1, 0.4, 1),
             span("attention.evolve_weights", 0.1, 0.3, 3),
             span("graphs.adjacency", 0.1, 0.15, 4),
             span("tape.backward", 0.4, 0.6, 1),
             span("graphs.adjacency", 0.6, 0.62, 1)]
    fig = tracing.layer_figures(spans)
    assert fig["graphs.adjacency.calls_per_epoch"] == 1.0
    assert fig["attention.evolve_weights.ms_per_epoch"] == pytest.approx(75.0)
    assert fig["model.forward.ms_per_epoch"] == pytest.approx(150.0)
    # 0.8 s of epochs minus forward, backward and the loss target rebuild.
    assert fig["training.loss.ms_per_epoch"] == pytest.approx(1e3 * (0.8 - 0.3 - 0.2 - 0.02) / 2)
    assert fig["tape.nodes_per_epoch"] == 5.0
    assert fig["tape.mb_per_epoch"] == 2.0
    assert fig["graphs.normalize_adjacency.calls"] == 1.0


def test_tracer_reports_a_missing_binding_and_restores_the_rest():
    original = graphs.SnapshotGraph.adjacency
    tr = tracing.Tracer()
    tr.install(layers=[("graphs.adjacency", ("evolink.graphs:SnapshotGraph.adjacency",), None),
                       ("gone", ("evolink.graphs:no_such_function",
                                 "evolink.cli:COMMANDS[no-such-command]"), None)])
    try:
        g = graphs.SnapshotGraph(index=0, nodes=(0, 1), edges=((0, 1, 0.5),))
        with tr.span(tracing.ROUND):
            g.adjacency()
            with tr.paused():
                g.adjacency()
    finally:
        tr.uninstall()
    assert graphs.SnapshotGraph.adjacency is original
    assert "evolink.graphs:no_such_function" in tr.absent
    assert "evolink.cli:COMMANDS[no-such-command]" in tr.absent
    assert [s.name for s in tr.spans] == [tracing.ROUND, "graphs.adjacency"]


@pytest.fixture(scope="module")
def small():
    event = graphs.normalize_weights(simulate_event(SimConfig(offices=2, viewers=14,
                                                              snapshots=4, seed=1)))
    window = graphs.build_window(event, 2, 1)
    cfg = teacher_defaults(window=1, heads=2, hidden_dim=4, embed_dim=2)
    return event, window, GcnChain.init(cfg, event.n_global)


def gradient_check_rejects_wrong_gradients(chain, window, loss_of_z):
    """The directional check passes the analytic gradients of every checked
    block and rejects each one negated, dropped or scaled by 1.05."""
    names = workloads.checked_blocks(chain, np.random.default_rng(0))
    loss, grads = workloads.block_gradients(chain, window, loss_of_z, names)
    assert checks.gradients_agree(
        workloads.check_gradients(chain, window, loss_of_z, loss, grads))
    for name in names:
        for wrong in (-grads[name], 0.0 * grads[name], 1.05 * grads[name]):
            bad = dict(grads, **{name: wrong})
            assert not checks.gradients_agree(
                workloads.check_gradients(chain, window, loss_of_z, loss, bad)), name
    return names


def test_gradient_check_rejects_a_perturbed_gradient(small):
    _, window, chain = small
    gradient_check_rejects_wrong_gradients(chain, window, workloads.recon_loss(window[-1]))


def test_gradient_check_can_fail_at_1000_viewers():
    """At 1000 viewers the attention scoring vector's gradient is about
    1e-9, below the rounding noise of a coordinate-wise difference; the
    check along the block's gradient must still reject it negated."""
    wl = workloads.Viewers1000(0, None)
    ready = wl.setup()
    chain, _, _ = training.train_teacher(ready.window, wl.teacher_cfg, ready.event.n_global,
                                         ready.event.registry)
    names = gradient_check_rejects_wrong_gradients(chain, ready.window,
                                                   workloads.recon_loss(ready.window[-1]))
    assert any(name.endswith("/score") for name in names)


def test_split_check_rejects_a_leaked_test_link(small):
    event, window, _ = small
    links = checks.scoreable_links(event, 2, 1)
    assert checks.disjoint_from_window(links, window)
    u, v, w = window[0].edges[0]
    assert not checks.disjoint_from_window(links + ((u, v, w),), window)
    assert not checks.disjoint_from_window(links + ((v, u, w),), window)


def test_param_count_check_rejects_a_wrong_count(small):
    event, _, chain = small
    cfg = chain.config
    size = sum(t.value.size for t in chain.trainable().values())
    assert checks.param_count_ok(size, cfg, event.n_global)
    assert checks.param_count_ok(count_params(cfg, event.n_global), cfg, event.n_global)
    assert not checks.param_count_ok(size + 1, cfg, event.n_global)
    assert not checks.param_count_ok(size - cfg.hidden_dim, cfg, event.n_global)


def test_score_and_attention_checks_reject_wrong_values(small):
    _, window, _ = small
    mask = checks.neighbourhood_mask(window[-1])
    alpha = mask / mask.sum(axis=1, keepdims=True)
    assert checks.attention_rows_ok(alpha, mask)
    leaked = alpha.copy()
    i, j = np.argwhere(~mask)[0]
    leaked[i, j] = 1e-9
    assert not checks.attention_rows_ok(leaked, mask)
    assert checks.scores_agree([0.25, 0.5], [0.25, 0.5])
    assert not checks.scores_agree([0.25, 0.5], [0.25, 0.5 + 1e-9])


class Drifting:
    """A model whose embeddings change a little on every call."""

    def __init__(self, chain):
        self.chain, self.calls = chain, 0

    def embeddings(self, window):
        self.calls += 1
        emb = self.chain.embeddings(window)
        emb.z[0, 0] += 1e-12 * self.calls
        return emb


def test_inference_timing_rejects_a_non_repeatable_model(small):
    event, window, chain = small
    links = checks.scoreable_links(event, 2, 1)
    rec = workloads.Round(("t", "s"))
    workloads.time_inference(rec, {"teacher": ("t", chain), "student": ("s", chain)},
                             window, links, 3)
    assert not rec.wrong
    assert len(rec.samples["teacher_infer_s"]) == len(rec.samples["student_infer_s"]) == 3
    workloads.time_inference(rec, {"teacher": ("t", chain), "student": ("s", Drifting(chain))},
                             window, links, 3)
    assert rec.wrong and rec.failures["s"] and not rec.failures["t"]


def test_round_counts_each_failed_operation_once():
    rec = workloads.Round(("a", "b", "c"))
    rec.check(True, "fine")
    rec.check(False, "bad a", "a")
    rec.check(False, "bad a again", "a")
    assert rec.failed == 1 and rec.wrong
    rec.check(False, "bad everywhere")
    assert rec.failed == 3


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    figures = tracing.layer_figures([])
    figures[run.OVERHEAD] = 0.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in figures}
