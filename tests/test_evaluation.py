"""Evaluation protocol tests.

A small handcrafted event (raw ids, raw weights) drives the end-to-end
checks, so every expected count is known in advance: snapshot 2 carries
exactly ten links never seen in the window over snapshots 0..1.
"""
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolink.errors import ConfigError, EvolinkError, InsufficientLinksError
from evolink.evaluation import (
    GAMMA_GRID,
    MlpScorer,
    compression_label,
    constant_baseline,
    derive_seed,
    metrics,
    run_evaluation,
    score_dot,
    score_mlp,
    split_links,
    sweep_gamma,
    sweep_hparam,
    train_mlp_scorer,
)
from evolink.gcn import Embeddings, count_params
from evolink.graphs import LinkSet, RawEvent, SnapshotGraph, normalize_weights
from evolink.model import ModelConfig


def linkset(n):
    return LinkSet(links=tuple((i, i + 1000, 0.5) for i in range(n)))


def raw_to_event(name, snaps):
    return normalize_weights(RawEvent(name=name, snapshots=tuple(
        tuple(snap) for snap in snaps)))


def make_event(new_links=10):
    """Three snapshots on raw ids 0..9; snapshot 2 adds ``new_links``
    pairs absent from snapshots 0 and 1."""
    path = [(i, i + 1, 10.0 + 3.0 * i) for i in range(9)]
    snap0 = path
    snap1 = path + [(0, 2, 25.0), (1, 3, 40.0)]
    fresh = [(0, 3, 55.0), (2, 5, 60.0), (4, 7, 32.0), (6, 9, 18.0),
             (1, 8, 71.0), (3, 6, 44.0), (2, 9, 12.0), (0, 5, 90.0),
             (5, 8, 27.0), (4, 9, 63.0)][:new_links]
    snap2 = snap1 + fresh
    return raw_to_event("toy", [snap0, snap1, snap2])


def tiny_teacher(**overrides):
    base = dict(window=1, heads=1, hidden_dim=6, embed_dim=3,
                epochs=8, lr=1e-2, seed=0, role="teacher")
    base.update(overrides)
    return ModelConfig(**base)


def tiny_student(**overrides):
    base = dict(window=1, heads=1, hidden_dim=4, embed_dim=2,
                epochs=8, lr=1e-2, seed=0, role="student", gamma=0.5)
    base.update(overrides)
    return ModelConfig(**base)


# -- seeds and splits --------------------------------------------------------

def test_derive_seed_deterministic_and_mixed():
    assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
    seen = {derive_seed(s, t, j) for s in range(3) for t in range(3)
            for j in range(3)}
    assert len(seen) == 27
    assert all(0 <= s < 2 ** 32 for s in seen)


@pytest.mark.parametrize("n,n_val", [(5, 1), (6, 1), (10, 2), (17, 3), (23, 5)])
def test_split_sizes(n, n_val):
    val, test = split_links(linkset(n), seed=0)
    assert len(val) == n_val
    assert len(test) == n - n_val


def test_split_disjoint_and_exhaustive():
    links = linkset(13)
    val, test = split_links(links, seed=7)
    assert not (val.pairs() & test.pairs())
    assert sorted(val.links + test.links) == sorted(links.links)


def test_split_deterministic_per_seed():
    links = linkset(23)
    a = split_links(links, seed=11)
    b = split_links(links, seed=11)
    c = split_links(links, seed=12)
    assert a == b
    assert a != c


def test_split_too_small():
    with pytest.raises(InsufficientLinksError):
        split_links(linkset(4), seed=0)


# -- scorers -----------------------------------------------------------------

def test_score_dot_hits_known_sigmoid():
    # dot = ln 9 so the sigmoid is exactly 9/10
    z = np.zeros((2, 3))
    z[0, 0] = np.log(9.0)
    z[1, 0] = 1.0
    emb = Embeddings(z=z, ids=(3, 7))
    assert abs(score_dot(emb, 3, 7) - 0.9) < 1e-12
    assert score_dot(emb, 3, 7) == score_dot(emb, 7, 3)


def test_score_dot_uses_global_ids():
    rng = np.random.default_rng(0)
    emb = Embeddings(z=rng.normal(size=(3, 4)), ids=(2, 5, 9))
    want = float(1.0 / (1.0 + np.exp(-(emb.z[1] @ emb.z[2]))))
    assert abs(score_dot(emb, 5, 9) - want) < 1e-12
    with pytest.raises(KeyError):
        score_dot(emb, 0, 5)


def test_mlp_scorer_properties():
    rng = np.random.default_rng(1)
    emb = Embeddings(z=rng.normal(0, 0.8, size=(6, 4)), ids=tuple(range(6)))
    window = [SnapshotGraph(index=0, nodes=tuple(range(6)),
                            edges=((0, 1, 0.9), (1, 2, 0.7), (3, 4, 0.2),
                                   (2, 5, 0.5)))]
    scorer = train_mlp_scorer(emb, window, seed=3, epochs=30)
    again = train_mlp_scorer(emb, window, seed=3, epochs=30)
    for field in ("w_hidden", "b_hidden", "w_out", "b_out"):
        np.testing.assert_array_equal(getattr(scorer, field), getattr(again, field))
    s = score_mlp(emb, scorer, 0, 3)
    assert s == score_mlp(emb, scorer, 3, 0)
    assert 0.0 < s < 1.0
    assert scorer.w_hidden.shape == (4, 2)
    assert (scorer.n_positives, scorer.n_negatives) == (4, 4)


@pytest.mark.parametrize("missing,negatives", [((), 0), (((0, 4),), 1), (((0, 4), (1, 3)), 2)])
def test_mlp_scorer_records_a_negative_shortfall(missing, negatives):
    """On a window that is complete but for ``missing`` pairs, only those
    pairs can be negatives: the scorer trains on them and counts them."""
    rng = np.random.default_rng(4)
    emb = Embeddings(z=rng.normal(0, 0.8, size=(5, 4)), ids=tuple(range(5)))
    edges = tuple((u, v, 0.6) for u in range(5) for v in range(u + 1, 5)
                  if (u, v) not in missing)
    window = [SnapshotGraph(index=0, nodes=tuple(range(5)), edges=edges)]
    scorer = train_mlp_scorer(emb, window, seed=1, epochs=5)
    assert (scorer.n_positives, scorer.n_negatives) == (10 - len(missing), negatives)
    assert np.all(np.isfinite(scorer.w_out))


def scorer_digest(scorer):
    h = hashlib.sha256()
    for a in (scorer.w_hidden, scorer.b_hidden, scorer.w_out, scorer.b_out):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(f"{scorer.n_positives},{scorer.n_negatives}".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed,digest", [(0, "3e6e0f7ce359de4f"), (5, "8cec27202e380c19")])
def test_mlp_scorer_draws_are_pinned_where_non_links_remain(seed, digest):
    """With non-links to spare, the sampler makes the same draws as it
    always has: the untrained scorer (its initial weights come from the
    same generator after the negatives) matches a golden digest."""
    rng = np.random.default_rng(7)
    ids = tuple(range(3, 63, 2))
    emb = Embeddings(z=rng.normal(0, 0.8, size=(len(ids), 8)), ids=ids)
    pairs = sorted({tuple(sorted(p)) for p in rng.choice(ids, size=(60, 2)).tolist()
                    if p[0] != p[1]})
    window = [SnapshotGraph(index=k, nodes=ids,
                            edges=tuple((u, v, 0.3 + 0.1 * k) for u, v in pairs[k::2]))
              for k in range(2)]
    scorer = train_mlp_scorer(emb, window, seed=seed, epochs=0)
    assert (scorer.n_positives, scorer.n_negatives) == (57, 57)
    assert scorer_digest(scorer) == digest


def test_mlp_scorer_stops_drawing_when_non_links_run_out(monkeypatch):
    """A window with one non-link among ten pairs stops sampling once it
    has drawn that one, not after 200 draws per positive."""
    draws = []
    real = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.gen = real(seed)

        def integers(self, *args, **kwargs):
            draws.append(1)
            return self.gen.integers(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.gen, name)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    emb = Embeddings(z=real(4).normal(0, 0.8, size=(5, 4)), ids=tuple(range(5)))
    edges = tuple((u, v, 0.6) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 4))
    scorer = train_mlp_scorer(emb, [SnapshotGraph(index=0, nodes=tuple(range(5)), edges=edges)],
                              seed=1, epochs=0)
    assert (scorer.n_positives, scorer.n_negatives) == (9, 1)
    assert len(draws) < 100


def test_mlp_scorer_requires_training_and_positives():
    rng = np.random.default_rng(2)
    emb = Embeddings(z=rng.normal(size=(2, 4)), ids=(10, 11))
    with pytest.raises(ConfigError):
        score_mlp(emb, None, 10, 11)
    window = [SnapshotGraph(index=0, nodes=(0, 1), edges=((0, 1, 0.5),))]
    with pytest.raises(InsufficientLinksError):
        train_mlp_scorer(emb, window, seed=0)


# -- metrics and baseline ----------------------------------------------------

def test_metrics_known_values():
    rmse, mae = metrics([0.5, 0.5], [0.0, 1.0])
    assert rmse == 0.5
    assert mae == 0.5
    assert metrics([0.3, 0.7], [0.3, 0.7]) == (0.0, 0.0)


@given(st.lists(st.floats(-1, 1), min_size=1, max_size=30),
       st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_rmse_dominates_mae(truths, seed):
    preds = np.random.default_rng(seed).uniform(-1, 1, size=len(truths))
    rmse, mae = metrics(preds, truths)
    assert rmse >= mae - 1e-12


def test_metrics_validation():
    with pytest.raises(EvolinkError):
        metrics([0.1], [0.1, 0.2])
    with pytest.raises(EvolinkError):
        metrics([], [])
    with pytest.raises(EvolinkError):
        metrics([[0.1]], [[0.1]])


def test_constant_baseline_mean_over_occurrences():
    w0 = SnapshotGraph(index=0, nodes=(0, 1), edges=((0, 1, 0.2),))
    w1 = SnapshotGraph(index=1, nodes=(0, 1, 2),
                       edges=((0, 1, 0.4), (1, 2, 0.6)))
    assert abs(constant_baseline([w0, w1]) - 0.4) < 1e-15
    empty = SnapshotGraph(index=0, nodes=(0,), edges=())
    with pytest.raises(EvolinkError):
        constant_baseline([empty])


@pytest.mark.parametrize("ratio,label", [
    (Fraction(15, 100), "15:100"),
    (Fraction(41, 380), "11:100"),
    (Fraction(1, 5), "20:100"),
    (Fraction(3, 2), "150:100"),
    (0.3, "30:100"),
    (0.151, "16:100"),
    (1.0, "100:100"),
])
def test_compression_label(ratio, label):
    assert compression_label(ratio) == label


def test_compression_label_rejects_negative():
    with pytest.raises(EvolinkError):
        compression_label(-0.1)


# -- full protocol -----------------------------------------------------------

def test_run_evaluation_bookkeeping():
    event = make_event()
    report = run_evaluation(event, 1, tiny_teacher(), tiny_student(),
                            trials=2, seed=0)
    assert report.event == "toy"
    assert report.k == 1 and report.scorer == "dot"
    assert report.n_links_total == 10
    assert report.n_links_scoreable == 10
    assert len(report.trials) == 2
    assert len(report.split_seeds) == 2
    for t in report.trials:
        assert t.n_validation == 2 and t.n_test == 8
        assert 0.0 <= t.teacher_rmse and 0.0 <= t.student_rmse
    assert report.param_count_teacher == count_params(tiny_teacher(), 10)
    assert report.param_count_student == count_params(tiny_student(), 10)
    assert report.compression_ratio == Fraction(report.param_count_student,
                                                report.param_count_teacher)
    assert report.compression == compression_label(report.compression_ratio)
    assert report.teacher_rmse_mean == pytest.approx(
        np.mean([t.teacher_rmse for t in report.trials]))


def test_run_evaluation_payload_deterministic():
    event = make_event()
    a = run_evaluation(event, 1, tiny_teacher(), tiny_student(),
                       trials=2, seed=3).to_payload()
    b = run_evaluation(event, 1, tiny_teacher(), tiny_student(),
                       trials=2, seed=3).to_payload()
    assert a == b
    c = run_evaluation(event, 1, tiny_teacher(), tiny_student(),
                       trials=2, seed=4).to_payload()
    assert a != c


def test_equal_trial_seeds_collapse_variance():
    event = make_event()
    report = run_evaluation(event, 1, tiny_teacher(), tiny_student(),
                            trials=2, trial_seeds=[9, 9])
    assert report.trials[0].teacher_rmse == report.trials[1].teacher_rmse
    assert report.trials[0].student_rmse == report.trials[1].student_rmse
    assert report.teacher_rmse_std == 0.0
    assert report.student_rmse_std == 0.0


def test_run_evaluation_mlp_path():
    event = make_event()
    report = run_evaluation(event, 1, tiny_teacher(), tiny_student(),
                            trials=1, scorer="mlp", seed=0)
    assert report.scorer == "mlp"
    assert np.isfinite(report.teacher_rmse_mean)
    assert np.isfinite(report.student_rmse_mean)
    trial = report.to_payload()["trials"][0]
    assert [trial[key] for key in ("mlp_positives", "teacher_mlp_negatives",
                                   "student_mlp_negatives")] == [11, 11, 11]


def test_dot_report_trials_carry_no_mlp_counts():
    report = run_evaluation(make_event(), 1, tiny_teacher(), tiny_student(),
                            trials=1, scorer="dot", seed=0)
    assert report.trials[0].mlp_positives is None
    assert sorted(report.to_payload()["trials"][0]) == sorted(
        ["index", "teacher_seed", "student_seed", "split_seed", "teacher_rmse",
         "teacher_mae", "student_rmse", "student_mae", "baseline_rmse",
         "n_validation", "n_test"])


def test_run_evaluation_validation():
    event = make_event()
    with pytest.raises(ConfigError):
        run_evaluation(event, 1, tiny_teacher(), tiny_student(), scorer="cosine")
    with pytest.raises(ConfigError):
        run_evaluation(event, 1, tiny_teacher(), tiny_student(), trials=0)
    with pytest.raises(ConfigError):
        run_evaluation(event, 1, tiny_teacher(), tiny_student(),
                       trials=2, trial_seeds=[1])
    with pytest.raises(ConfigError):
        run_evaluation(event, 1, tiny_teacher(), tiny_student(window=2))


def test_run_evaluation_needs_enough_new_links():
    event = make_event(new_links=3)
    with pytest.raises(InsufficientLinksError):
        run_evaluation(event, 1, tiny_teacher(), tiny_student(), trials=1)


def test_sweep_gamma_rows():
    event = make_event()
    rows = sweep_gamma(event, 1, tiny_teacher(), tiny_student(),
                       trials=1, seed=0, gammas=(0.2, 0.8))
    again = sweep_gamma(event, 1, tiny_teacher(), tiny_student(),
                        trials=1, seed=0, gammas=(0.2, 0.8))
    assert rows == again
    assert [r.gamma for r in rows] == [0.2, 0.8]
    # one trial: no spread, shared teacher
    assert all(r.student_rmse_std == 0.0 for r in rows)
    assert rows[0].teacher_rmse_mean == rows[1].teacher_rmse_mean
    assert rows[0].student_rmse_mean != rows[1].student_rmse_mean


def test_sweep_gamma_rejects_no_trials():
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        sweep_gamma(make_event(), 1, tiny_teacher(), tiny_student(), trials=0)


def test_gamma_grid_is_the_nine_tenths():
    assert GAMMA_GRID == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def test_sweep_hparam_skips_underflowing_windows():
    event = make_event()  # three snapshots: only window=1 fits at k=1
    rows = sweep_hparam(event, 1, tiny_teacher(epochs=2),
                        tiny_student(epochs=2), "l", trials=1)
    assert [r.value for r in rows] == [1]
    assert rows[0].axis == "l"


def test_sweep_hparam_heads_axis_counts_params():
    event = make_event()
    rows = sweep_hparam(event, 1, tiny_teacher(epochs=2),
                        tiny_student(epochs=2), "h", trials=1)
    assert [r.value for r in rows] == [1, 2, 3, 4, 5]
    counts = [r.param_count_teacher for r in rows]
    assert counts == sorted(counts) and len(set(counts)) == 5
    assert len({r.param_count_student for r in rows}) == 1


def test_sweep_hparam_unknown_axis():
    with pytest.raises(ConfigError):
        sweep_hparam(make_event(), 1, tiny_teacher(), tiny_student(), "q")
