"""Acceptance gates: ten end-to-end checks covering gradient correctness,
forward oracles, attention stochasticity, parameter accounting, desk-scale
learning and distillation quality, the gamma sweep, protocol hygiene, CLI
determinism, and persistence.

Every test prints one ``criterion NN: PASS/FAIL`` verdict line (visible
with ``pytest -s`` or in the tail of a failing run). The two desk-scale
training gates share a single evaluation run through a module fixture, so
the whole file stays a few minutes of wall clock.
"""
import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from evolink import cli
from evolink.attention import AttentionHead, Transition, attention_coefficients, evolve_weights
from evolink.checkpoint import load_checkpoint, save_checkpoint
from evolink.evaluation import (GAMMA_GRID, VALIDATION_SHARE, compression_label,
                                derive_seed, run_evaluation, split_links, sweep_gamma)
from evolink.eventio import export_event, load_raw_event
from evolink.gcn import count_params, gcn_forward
from evolink.graphs import SnapshotGraph, build_window, normalize_weights, unobserved_links
from evolink.model import (GcnChain, ModelConfig, distillation_loss, reconstruction_loss,
                           student_defaults, teacher_defaults)
from evolink.simulate import SimConfig, simulate_event
from evolink.tape import Tensor, backward
from evolink.training import train_teacher


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_graph(rng, n, p):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, float(rng.uniform(0.05, 0.95))))
    return SnapshotGraph(index=0, nodes=tuple(range(n)), edges=tuple(edges))


# ---------------------------------------------------------------- oracles
# Independent scalar re-implementations of every forward equation. Pure
# python loops, no shared code with the library beyond numpy primitives.

def positions(g):
    """Node id -> row in the snapshot's matrices, which follow the sorted nodes."""
    return {u: i for i, u in enumerate(g.nodes)}


def oracle_norm(g):
    n = g.n
    pos = positions(g)
    a = [[0.0] * n for _ in range(n)]
    for u, v, w in g.edges:
        a[pos[u]][pos[v]] = w
        a[pos[v]][pos[u]] = w
    for i in range(n):
        a[i][i] += 1.0
    deg = [sum(row) for row in a]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = a[i][j] / math.sqrt(deg[i] * deg[j])
    return out


def oracle_gcn(a_hat, x, w1, w2):
    n, f = len(x), len(x[0])
    d1, d2 = len(w1[0]), len(w2[0])
    xw = [[sum(x[i][k] * w1[k][j] for k in range(f)) for j in range(d1)]
          for i in range(n)]
    h_pre = [[sum(a_hat[i][k] * xw[k][j] for k in range(n)) for j in range(d1)]
             for i in range(n)]
    h = [[max(v, 0.0) for v in row] for row in h_pre]
    ah = [[sum(a_hat[i][k] * h[k][j] for k in range(n)) for j in range(d1)]
          for i in range(n)]
    return np.array([[sum(ah[i][k] * w2[k][j] for k in range(d1)) for j in range(d2)]
                     for i in range(n)])


def oracle_coefficients(g, head, w_prev):
    n = g.n
    pos = positions(g)
    t = head.transform.value
    a_vec = head.score_vec.value[:, 0]
    d1 = t.shape[0]
    proj = {u: [sum(t[r][c] * w_prev[u][c] for c in range(d1)) for r in range(d1)]
            for u in g.nodes}
    adj = {u: {} for u in g.nodes}
    for u, v, w in g.edges:
        adj[u][v] = w
        adj[v][u] = w
    alpha = np.zeros((n, n))
    for u in g.nodes:
        neigh = sorted(adj[u]) if adj[u] else [u]
        weight = {v: (adj[u][v] if adj[u] else 1.0) for v in neigh}
        scores = {}
        for v in neigh:
            cat = proj[u] + proj[v]
            raw = sum(a_vec[i] * cat[i] for i in range(2 * d1))
            scores[v] = expit(weight[v] * raw)
        m = max(scores.values())
        exp = {v: np.exp(s - m) for v, s in scores.items()}
        total = sum(exp.values())
        for v in neigh:
            alpha[pos[u], pos[v]] = exp[v] / total
    return alpha


def oracle_evolved(g, transition, w_prev):
    out = w_prev.copy()
    pos = positions(g)
    accum = np.zeros((g.n, w_prev.shape[1]))
    for head in transition.heads:
        alpha = oracle_coefficients(g, head, w_prev)
        proj = w_prev[list(g.nodes)] @ head.transform.value.T
        accum += alpha @ proj
    accum /= len(transition.heads)
    mixed = np.where(accum > 0, accum, np.expm1(accum))
    for u in g.nodes:
        out[u] = mixed[pos[u]]
    return out


def oracle_recon(z, g):
    n = g.n
    pos = positions(g)
    target = [[0.0] * n for _ in range(n)]
    for u, v, w in g.edges:
        target[pos[u]][pos[v]] = w
        target[pos[v]][pos[u]] = w
    total = 0.0
    for i in range(n):
        for j in range(n):
            s = 1.0 / (1.0 + math.exp(-sum(z[i][k] * z[j][k] for k in range(len(z[i])))))
            total += (s - target[i][j]) ** 2
    return math.sqrt(total / (n * n))


# ----------------------------------------------------------- shared state

DESK_EVENT = SimConfig(offices=4, viewers=80, snapshots=8,
                       arrival="front_loaded", seed=3)
DESK_K = 6


@pytest.fixture(scope="module")
def desk_event():
    return normalize_weights(simulate_event(DESK_EVENT))


@pytest.fixture(scope="module")
def desk_report(desk_event):
    t0 = time.perf_counter()
    report = run_evaluation(desk_event, DESK_K, teacher_defaults(),
                            student_defaults(), trials=5, seed=0)
    return report, time.perf_counter() - t0


class OracleSweep:
    """Results of the 100-instance oracle comparison, shared by two gates."""

    def __init__(self):
        rng = np.random.default_rng(2026)
        self.deltas = {"normalized_adjacency": 0.0, "gcn_forward": 0.0,
                       "attention_coefficients": 0.0, "evolve_weights": 0.0,
                       "reconstruction_loss": 0.0}
        self.rowsum_err = 0.0
        self.single_rows = 0
        self.single_exact = True
        self.instances = 0
        t0 = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(2, 21))
            g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.7)))
            n_global = n + int(rng.integers(0, 4))
            d1 = int(rng.integers(2, 7))
            d2 = int(rng.integers(1, d1 + 1))

            a_hat = g.normalized_adjacency.toarray()
            self._track("normalized_adjacency", a_hat, oracle_norm(g))

            w1 = rng.normal(size=(n_global, d1))
            w2 = rng.normal(size=(d1, d2))
            z = gcn_forward(g.normalized_adjacency, g.node_ids, Tensor(w1), Tensor(w2)).value
            x_onehot = [[1.0 if c == u else 0.0 for c in range(n_global)]
                        for u in g.nodes]
            self._track("gcn_forward", z,
                        oracle_gcn(a_hat.tolist(), x_onehot, w1.tolist(), w2.tolist()))

            head = AttentionHead(transform=Tensor(rng.normal(size=(d1, d1))),
                                 score_vec=Tensor(rng.normal(size=(2 * d1, 1))))
            w_prev = rng.normal(size=(n_global, d1))
            alpha = attention_coefficients(g, head, Tensor(w_prev)).value
            self._track("attention_coefficients", alpha,
                        oracle_coefficients(g, head, w_prev))
            self._stochasticity(g, alpha)

            transition = Transition(heads=[head, AttentionHead(
                transform=Tensor(rng.normal(size=(d1, d1))),
                score_vec=Tensor(rng.normal(size=(2 * d1, 1))))])
            evolved = evolve_weights(g, transition, Tensor(w_prev)).value
            self._track("evolve_weights", evolved,
                        oracle_evolved(g, transition, w_prev))

            z_emb = rng.normal(size=(n, d2))
            got = float(reconstruction_loss(Tensor(z_emb), g).value)
            self._track("reconstruction_loss", np.array([got]),
                        np.array([oracle_recon(z_emb.tolist(), g)]))
            self.instances += 1
        self.elapsed = time.perf_counter() - t0

    def _track(self, name, got, expect):
        self.deltas[name] = max(self.deltas[name], float(np.max(np.abs(got - expect))))

    def _stochasticity(self, g, alpha):
        self.rowsum_err = max(self.rowsum_err,
                              float(np.max(np.abs(alpha.sum(axis=1) - 1.0))))
        degree = {u: 0 for u in g.nodes}
        for u, v, _ in g.edges:
            degree[u] += 1
            degree[v] += 1
        pos = positions(g)
        adj = {u: [] for u in g.nodes}
        for u, v, _ in g.edges:
            adj[u].append(v)
            adj[v].append(u)
        for u in g.nodes:
            if degree[u] == 1:
                self.single_rows += 1
                if alpha[pos[u], pos[adj[u][0]]] != 1.0:
                    self.single_exact = False


@pytest.fixture(scope="module")
def oracle_sweep():
    return OracleSweep()


# -------------------------------------------------------------- criteria

def test_criterion_01_reverse_mode_matches_finite_differences():
    """Analytic gradients of both losses agree with central differences.

    Per coordinate: |analytic - fd| <= 1e-4 * max(|analytic|, |fd|) + 1e-9.
    The absolute floor covers coordinates whose true gradient sits below
    the fd roundoff noise (~5e-12 here); agreement on every such
    coordinate is far inside the floor. Output-layer leaves of earlier
    snapshots never reach the final-snapshot loss, so their gradient is
    legitimately None and checked as zero.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n, l = 12, 3
    cfg = ModelConfig(window=l, heads=2, hidden_dim=8, embed_dim=4,
                      seed=11, role="teacher")
    window = [replace(random_graph(rng, n, p=0.45), index=i) for i in range(l + 1)]
    z_teacher = rng.normal(size=(n, cfg.embed_dim))

    def losses(chain):
        zs = chain.forward(window)
        return {"teacher": reconstruction_loss(zs[-1], window[-1]),
                "distill": distillation_loss(zs[-1], z_teacher, window[-1], 0.5)}

    step = 1e-5
    worst = 0.0
    checked = 0
    violations = []
    for loss_name in ("teacher", "distill"):
        chain = GcnChain.init(cfg, n_global=n)
        loss = losses(chain)[loss_name]
        backward(loss)
        analytic = {name: (np.zeros_like(t.value) if t.grad is None else t.grad.copy())
                    for name, t in chain.trainable().items()}
        for name, tensor in chain.trainable().items():
            flat = tensor.value.reshape(-1)
            grad = analytic[name].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = float(losses(chain)[loss_name].value)
                flat[idx] = orig - step
                down = float(losses(chain)[loss_name].value)
                flat[idx] = orig
                fd = (up - down) / (2.0 * step)
                a = grad[idx]
                gap = abs(a - fd)
                bound = 1e-4 * max(abs(a), abs(fd)) + 1e-9
                worst = max(worst, gap)
                checked += 1
                if gap > bound:
                    violations.append((loss_name, name, idx, a, fd))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 30.0
    verdict(1, ok, f"{checked} coordinates across 2 losses, max |a-fd| {worst:.2e}, "
                   f"{len(violations)} violations, {elapsed:.1f}s")
    assert not violations, violations[:5]
    assert elapsed < 30.0


def test_criterion_02_forward_equations_match_scalar_oracles(oracle_sweep):
    s = oracle_sweep
    ok = (s.instances >= 100 and s.elapsed < 60.0
          and all(d < 1e-10 for d in s.deltas.values()))
    detail = ", ".join(f"{k} {v:.1e}" for k, v in s.deltas.items())
    verdict(2, ok, f"{s.instances} instances, max deltas: {detail}, {s.elapsed:.1f}s")
    assert s.instances >= 100
    for name, delta in s.deltas.items():
        assert delta < 1e-10, name
    assert s.elapsed < 60.0


def test_criterion_03_attention_rows_are_stochastic(oracle_sweep):
    s = oracle_sweep
    ok = s.rowsum_err <= 1e-9 and s.single_rows > 0 and s.single_exact
    verdict(3, ok, f"max |rowsum-1| {s.rowsum_err:.1e} over {s.instances} instances, "
                   f"{s.single_rows} single-neighbor rows all exactly 1.0: {s.single_exact}")
    assert s.rowsum_err <= 1e-9
    assert s.single_rows > 0
    assert s.single_exact


def test_criterion_04_parameter_accounting():
    mismatches = []
    for l in range(1, 6):
        for h in range(1, 6):
            cfg = ModelConfig(window=l, heads=h, hidden_dim=6, embed_dim=3,
                              seed=l * 10 + h, role="teacher")
            chain = GcnChain.init(cfg, n_global=9)
            enumerated = sum(t.value.size for t in chain.trainable().values())
            if enumerated != count_params(cfg, 9):
                mismatches.append((l, h, enumerated, count_params(cfg, 9)))

    teacher = count_params(teacher_defaults(), 200)
    student = count_params(student_defaults(), 200)
    ratio = Fraction(student, teacher)
    ok = (not mismatches and ratio == Fraction(41, 380)
          and compression_label(ratio) == "11:100"
          and compression_label(0.133 / 0.918) == "15:100")
    verdict(4, ok, f"25 grid points, student/teacher {student}/{teacher} = {ratio}, "
                   f"labels {compression_label(ratio)} and "
                   f"{compression_label(0.133 / 0.918)}")
    assert not mismatches, mismatches
    assert ratio == Fraction(41, 380)
    assert compression_label(ratio) == "11:100"
    assert compression_label(0.133 / 0.918) == "15:100"


def test_criterion_05_desk_scale_learning(desk_event, desk_report):
    report, eval_elapsed = desk_report
    t0 = time.perf_counter()
    window = build_window(desk_event, DESK_K, teacher_defaults().window)
    cfg = replace(teacher_defaults(), seed=derive_seed(0, 0, 0))
    _, trace, _ = train_teacher(window, cfg, desk_event.n_global, desk_event.registry)
    elapsed = eval_elapsed + (time.perf_counter() - t0)

    margin = 1.0 - report.teacher_rmse_mean / report.baseline_rmse_mean
    trend_ok = trace.losses[-1] < trace.losses[0]
    ok = margin >= 0.20 and trend_ok and elapsed < 300.0
    verdict(5, ok, f"teacher rmse {report.teacher_rmse_mean:.4f} vs baseline "
                   f"{report.baseline_rmse_mean:.4f} ({margin:+.1%} margin), "
                   f"loss {trace.losses[0]:.4f} -> {trace.losses[-1]:.4f}, "
                   f"{elapsed:.0f}s")
    assert margin >= 0.20
    assert trend_ok
    assert elapsed < 300.0


def test_criterion_06_distillation_keeps_quality_at_a_fraction_of_the_size(desk_report):
    report, _ = desk_report
    ratio = report.student_rmse_mean / report.teacher_rmse_mean
    size_ok = report.param_count_teacher >= 5 * report.param_count_student
    direction = "beats" if ratio < 1.0 else "trails"
    ok = ratio <= 1.05 and size_ok
    verdict(6, ok, f"student/teacher rmse {ratio:.3f} (student {direction} teacher), "
                   f"params {report.param_count_student}/{report.param_count_teacher} "
                   f"({report.compression})")
    assert ratio <= 1.05
    assert size_ok


def test_criterion_07_gamma_sweep_prefers_an_interior_blend(desk_event):
    t0 = time.perf_counter()
    interior = []
    for seed in range(5):
        rows = sweep_gamma(desk_event, DESK_K, teacher_defaults(),
                           student_defaults(), trials=3, seed=seed)
        assert [r.gamma for r in rows] == list(GAMMA_GRID)
        best = min(rows, key=lambda r: r.student_rmse_mean)
        interior.append(best.gamma not in (GAMMA_GRID[0], GAMMA_GRID[-1]))
    elapsed = time.perf_counter() - t0
    hits = sum(interior)
    ok = hits >= 4 and elapsed < 1800.0
    verdict(7, ok, f"interior argmin in {hits}/5 sweep seeds, {elapsed:.0f}s")
    assert hits >= 4
    assert elapsed < 1800.0


def test_criterion_08_protocol_hygiene(desk_report):
    arrivals = ("front_loaded", "burst", "gradual")
    k, span = 3, 1
    for i in range(50):
        cfg = SimConfig(offices=2 + i % 3, viewers=24 + (i % 4) * 8,
                        snapshots=5, arrival=arrivals[i % 3],
                        rewire_prob=0.1 * (i % 2), seed=i)
        event = normalize_weights(simulate_event(cfg))
        links = unobserved_links(event, k, span)
        validation, test = split_links(links, derive_seed(1000, i))

        assert not validation.pairs() & test.pairs(), f"event {i}: overlap"
        assert sorted(validation.links + test.links) == sorted(links.links), \
            f"event {i}: split not exhaustive"
        assert len(validation) == round(VALIDATION_SHARE * len(links))

        window_pairs = set()
        for g in build_window(event, k, span):
            window_pairs |= {(u, v) for u, v, _ in g.edges}
        assert not test.pairs() & window_pairs, f"event {i}: test leaks into window"
        assert not validation.pairs() & window_pairs, f"event {i}: validation leaks"

    report, _ = desk_report
    indexes = [t.index for t in report.trials]
    mean_again = float(np.mean([t.teacher_rmse for t in report.trials]))
    five_ok = (indexes == [0, 1, 2, 3, 4]
               and abs(mean_again - report.teacher_rmse_mean) < 1e-12)
    verdict(8, five_ok, "50 events: splits disjoint, exhaustive, leak-free; "
                        f"5-trial report averages exactly {len(report.trials)} records")
    assert five_ok


def test_criterion_09_cli_evaluation_is_byte_reproducible(tmp_path):
    config = {
        "data": {"simulate": {"offices": 2, "viewers": 14, "snapshots": 4, "seed": 1}},
        "teacher": {"window": 1, "heads": 1, "hidden_dim": 6, "embed_dim": 3,
                    "epochs": 6, "lr": 0.01},
        "student": {"window": 1, "heads": 1, "hidden_dim": 4, "embed_dim": 2,
                    "epochs": 6, "lr": 0.01, "gamma": 0.5},
        "trials": 2,
        "seed": 5,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    payloads = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli.main(["evaluate", str(cfg_path), "--out", str(out), "--k", "2"]) == 0
        blob = json.loads((out / "report.json").read_text())
        assert set(blob) == {"meta", "report"}
        payloads.append(json.dumps(blob["report"], sort_keys=True))
    ok = payloads[0] == payloads[1]
    verdict(9, ok, f"two runs, {len(payloads[0])} payload bytes, identical: {ok}")
    assert ok


def test_criterion_10_persistence_round_trips_are_bit_exact(tmp_path):
    rng = np.random.default_rng(99)
    for i in range(10):
        d1 = int(rng.integers(3, 9))
        cfg = ModelConfig(window=int(rng.integers(0, 4)), heads=int(rng.integers(1, 4)),
                          hidden_dim=d1, embed_dim=int(rng.integers(1, d1 + 1)),
                          seed=i, role="teacher")
        registry = {100 + j: j for j in range(int(rng.integers(5, 31)))}
        model = GcnChain.init(cfg, n_global=len(registry), registry=registry)
        blob = save_checkpoint(model)
        again = load_checkpoint(blob)
        assert save_checkpoint(again) == blob, f"model {i}: bytes drifted"
        for name, arr in model.param_arrays().items():
            assert np.array_equal(arr, again.param_arrays()[name]), f"model {i}: {name}"
        assert again.registry == registry

    arrivals = ("front_loaded", "burst", "gradual")
    for i in range(10):
        cfg = SimConfig(offices=2 + i % 2, viewers=16 + i, snapshots=4,
                        arrival=arrivals[i % 3], seed=200 + i)
        raw = simulate_event(cfg)
        first = tmp_path / f"event_{i}_a"
        second = tmp_path / f"event_{i}_b"
        export_event(raw, first)
        loaded = load_raw_event(first)
        assert loaded == raw, f"event {i}: raw mismatch"
        export_event(loaded, second)
        for f in sorted(first.iterdir()):
            assert (second / f.name).read_bytes() == f.read_bytes(), \
                f"event {i}: {f.name} drifted"
        assert normalize_weights(loaded) == normalize_weights(raw)

    verdict(10, True, "10 checkpoint and 10 event round trips bit-exact")
