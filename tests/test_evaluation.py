"""Evaluation protocol tests.

A small handcrafted event (raw ids, raw weights) drives the end-to-end
checks, so every expected count is known in advance: snapshot 2 carries
exactly ten links never seen in the window over snapshots 0..1.
"""
import hashlib
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolink.errors import ConfigError, EvolinkError, InsufficientLinksError, ShapeError
from evolink.evaluation import (
    GAMMA_GRID,
    GammaSweepRow,
    MlpScorer,
    _sample_negatives,
    compression_label,
    constant_baseline,
    derive_seed,
    evaluate_scorers,
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
from evolink.training import distill_students


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


def pinned_window(width):
    """Embeddings of width ``width`` for 30 ids and a two-snapshot window
    over some of their pairs, with non-links to spare."""
    rng = np.random.default_rng(7)
    ids = tuple(range(3, 63, 2))
    emb = Embeddings(z=rng.normal(0, 0.8, size=(len(ids), width)), ids=ids)
    pairs = sorted({tuple(sorted(p)) for p in rng.choice(ids, size=(60, 2)).tolist()
                    if p[0] != p[1]})
    window = [SnapshotGraph(index=k, nodes=ids,
                            edges=tuple((u, v, 0.3 + 0.1 * k) for u, v in pairs[k::2]))
              for k in range(2)]
    return emb, window


@pytest.mark.parametrize("seed,digest", [(0, "3e6e0f7ce359de4f"), (5, "8cec27202e380c19")])
def test_mlp_scorer_draws_are_pinned_where_non_links_remain(seed, digest):
    """With non-links to spare, the sampler makes the same draws as it
    always has: the untrained scorer (its initial weights come from the
    same generator after the negatives) matches a golden digest."""
    emb, window = pinned_window(8)
    scorer = train_mlp_scorer(emb, window, seed=seed, epochs=0)
    assert (scorer.n_positives, scorer.n_negatives) == (57, 57)
    assert scorer_digest(scorer) == digest


@pytest.mark.parametrize("width,seed,positives,digest", [(8, 0, 57, "84d5353854f7c2dc"),
                                                         (4, 5, 51, "630cc448d3a6fb19")])
def test_trained_mlp_scorer_is_pinned(width, seed, positives, digest):
    """A default 200-epoch fit keeps the bits it has always had."""
    emb, window = pinned_window(width)
    scorer = train_mlp_scorer(emb, window, seed=seed)
    assert (scorer.n_positives, scorer.n_negatives) == (positives, positives)
    assert scorer_digest(scorer) == digest


def per_attempt_negatives(rng, ids, links, wanted, max_attempts):
    """The sampler as one two-position draw per attempt: the pairs, the
    attempts, and how many attempts drew a self-pair, a link or an earlier
    negative."""
    taken = set(links)
    pairs = []
    attempts = 0
    rejected = {"self": 0, "link": 0, "repeat": 0}
    while len(pairs) < wanted and attempts < max_attempts:
        attempts += 1
        i, j = rng.integers(0, len(ids), size=2)
        if i == j:
            rejected["self"] += 1
            continue
        u, v = (ids[i], ids[j]) if ids[i] < ids[j] else (ids[j], ids[i])
        if (u, v) in taken:
            rejected["link" if (u, v) in links else "repeat"] += 1
            continue
        taken.add((u, v))
        pairs.append((u, v))
    return pairs, attempts, rejected


def dense_window():
    """Twelve ids with 46 of their 66 pairs linked, so every one of the 20
    non-links is wanted."""
    rng = np.random.default_rng(11)
    ids = tuple(range(12))
    pairs = [(u, v) for u in ids for v in ids if u < v]
    linked = sorted(rng.choice(len(pairs), size=46, replace=False))
    emb = Embeddings(z=rng.normal(0, 0.8, size=(12, 4)), ids=ids)
    return emb, [SnapshotGraph(index=0, nodes=ids,
                               edges=tuple((*pairs[i], 0.5) for i in linked))]


class Confined:
    """A generator whose integer draws reach only the first two positions.
    No real window uses up its attempts (P positives leave a non-link
    within far fewer than 200 P draws), but with the first two ids linked
    every draw of this one fails."""

    def __init__(self, seed):
        # default_rng's generator, built without default_rng, which the
        # test replaces with this class.
        self.gen = np.random.Generator(np.random.PCG64(seed))

    def integers(self, low, high, size):
        return self.gen.integers(low, 2, size=size)

    def __getattr__(self, name):
        return getattr(self.gen, name)


@pytest.mark.parametrize("case", ["crosses-batches", "rejects-self-and-repeats",
                                  "uses-up-attempts"])
def test_batched_negative_draws_match_one_draw_per_attempt(case, monkeypatch):
    """Drawing the attempts in batches gives the pairs, the attempt count,
    the generator state and so the untrained scorer of one draw per
    attempt."""
    make = np.random.default_rng
    if case == "crosses-batches":
        (emb, window), seed = dense_window(), 0
    elif case == "rejects-self-and-repeats":
        (emb, window), seed = pinned_window(8), 2
    else:
        (emb, window), seed, make = dense_window(), 3, Confined
        assert (emb.ids[0], emb.ids[1]) in {(u, v) for u, v, _ in window[0].edges}
    links = {(u, v): w for g in window for u, v, w in g.edges}
    n, positives = len(emb.ids), len(links)
    wanted = min(positives, n * (n - 1) // 2 - positives)
    oracle = make(seed)
    want, attempts, rejected = per_attempt_negatives(oracle, emb.ids, links, wanted,
                                                     200 * positives)
    batched = make(seed)
    got, got_attempts = _sample_negatives(batched, emb.ids, links, wanted, 200 * positives)
    assert [(emb.ids[i], emb.ids[j]) for i, j in got] == want
    assert got_attempts == attempts
    assert batched.bit_generator.state == oracle.bit_generator.state
    if case == "crosses-batches":
        assert len(want) == wanted and attempts > 2 * wanted  # past the first batch
    elif case == "rejects-self-and-repeats":
        assert len(want) == wanted and all(rejected.values())
    else:
        assert not want and attempts == 200 * positives

    # The parent's untrained scorer: the initial weights follow the draws.
    d = emb.z.shape[1]
    r = 1.0 / np.sqrt(d)
    w_hidden = oracle.uniform(-r, r, size=(d, (d + 1) // 2))
    w_out = oracle.uniform(-r, r, size=((d + 1) // 2, 1))
    expected = MlpScorer(w_hidden=w_hidden, b_hidden=np.zeros((1, w_hidden.shape[1])),
                         w_out=w_out, b_out=np.zeros((1, 1)),
                         n_positives=positives, n_negatives=len(want))
    monkeypatch.setattr(np.random, "default_rng", make)
    scorer = train_mlp_scorer(emb, window, seed=seed, epochs=0)
    assert scorer_digest(scorer) == scorer_digest(expected)


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


@pytest.mark.parametrize("kwargs,fragment", [
    ({"lr": -1.0}, "lr must be positive and finite, got -1.0"),
    ({"lr": 0.0}, "lr must be positive and finite"),
    ({"lr": float("nan")}, "lr must be positive and finite"),
    ({"lr": float("inf")}, "lr must be positive and finite"),
    ({"lr": "0.1"}, "lr must be a real number"),
    ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
    ({"epochs": True}, "epochs must be an integer, got True"),
    ({"epochs": -1}, "epochs must be >= 0"),
])
def test_mlp_scorer_refuses_a_bad_rate_or_epoch_count(kwargs, fragment):
    emb, window = pinned_window(8)
    with pytest.raises(ConfigError, match=fragment):
        train_mlp_scorer(emb, window, seed=0, **kwargs)


def test_score_mlp_refuses_embeddings_of_another_width():
    emb, window = pinned_window(8)
    scorer = train_mlp_scorer(emb, window, seed=0, epochs=1)
    narrow = Embeddings(z=emb.z[:, :4].copy(), ids=emb.ids)
    with pytest.raises(ShapeError, match="width 8.*width 4"):
        score_mlp(narrow, scorer, emb.ids[0], emb.ids[1])


def test_train_mlp_scorer_refuses_negative_epochs():
    emb, window = pinned_window(4)
    with pytest.raises(ConfigError, match="epochs"):
        train_mlp_scorer(emb, window, seed=0, epochs=-4)


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
    """Two fits of one seed in one process give equal trial records: no
    state leaks from one fit into the next."""
    event = make_event()
    first, second = (run_evaluation(event, 1, tiny_teacher(), tiny_student(),
                                    trials=1, seed=9).trials[0] for _ in range(2))
    assert first == second


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


def test_sweep_gamma_rows_are_the_one_at_a_time_rows(monkeypatch):
    """The sweep trains a trial's students as one stacked fit; its rows,
    boundary gammas included, equal those of one ``distill_student`` per
    gamma bit for bit."""
    from evolink import evaluation, training
    event = make_event()
    gammas = (0.0, 0.3, 1.0)
    kwargs = dict(trials=2, seed=4, gammas=gammas)
    stacked = sweep_gamma(event, 1, tiny_teacher(), tiny_student(), **kwargs)

    def one_at_a_time(bundles, window, n_global, registry=None):
        return [training.distill_student(b, window, n_global, registry) for b in bundles]

    monkeypatch.setattr(evaluation, "distill_students", one_at_a_time)
    assert sweep_gamma(event, 1, tiny_teacher(), tiny_student(), **kwargs) == stacked


def test_sweep_gamma_rows_are_the_evaluation_numbers():
    """A one-trial sweep row at gamma g holds, bit for bit, the student and
    teacher numbers that ``run_evaluation`` reports at the same seed with
    the student at g: the sweep runs the protocol's own trial loop."""
    event = make_event()
    rows = sweep_gamma(event, 1, tiny_teacher(), tiny_student(), trials=1, seed=6,
                       gammas=(0.3, 1.0))
    for row in rows:
        report = run_evaluation(event, 1, tiny_teacher(), tiny_student(gamma=row.gamma),
                                trials=1, seed=6)
        numbers = {f.name: getattr(report, f.name) for f in fields(row) if f.name != "gamma"}
        assert repr(row) == repr(GammaSweepRow(gamma=row.gamma, **numbers))
    assert [row.gamma for row in rows] == [0.3, 1.0]


@pytest.mark.parametrize("name,value", [("trials", 2.5), ("trials", True), ("trials", "2"),
                                        ("seed", -1), ("seed", 1.5), ("seed", True)],
                         ids=["2.5", "True", "2", "seed=-1", "seed=1.5", "seed=True"])
@pytest.mark.parametrize("call", [
    lambda event, kw: run_evaluation(event, 1, tiny_teacher(), tiny_student(), **kw),
    lambda event, kw: evaluate_scorers(event, 1, tiny_teacher(), tiny_student(),
                                       scorers=("dot",), **kw),
    lambda event, kw: sweep_gamma(event, 1, tiny_teacher(), tiny_student(), **kw),
    lambda event, kw: sweep_hparam(event, 1, tiny_teacher(), tiny_student(), "l", **kw),
], ids=["run_evaluation", "evaluate_scorers", "sweep_gamma", "sweep_hparam"])
def test_a_trial_count_that_is_not_an_integer_is_refused(call, name, value, monkeypatch):
    """A trial count that is not an integer, or a seed that is not a
    non-negative integer, is a ConfigError naming it before any training."""
    from evolink import evaluation

    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(evaluation, "train_teacher", no_training)
    with pytest.raises(ConfigError, match=f"^{name} must be ") as info:
        call(make_event(), {name: value})
    if name == "trials":
        assert str(info.value) == f"trials must be an integer, got {value!r}"


def test_sweep_gamma_rejects_no_trials():
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        sweep_gamma(make_event(), 1, tiny_teacher(), tiny_student(), trials=0)


@pytest.mark.parametrize("call", [
    lambda event: sweep_gamma(event, 1, tiny_teacher(), tiny_student(), trials=1, gammas=()),
    lambda event: sweep_gamma(event, 1, tiny_teacher(), tiny_student(), trials=1,
                              gammas=(0.5, 0.5)),
    lambda event: evaluate_scorers(event, 1, tiny_teacher(), tiny_student(),
                                   scorers=("dot", "dot"), trials=1),
    lambda event: evaluate_scorers(event, 1, tiny_teacher(), tiny_student(),
                                   scorers=(), trials=1),
    lambda event: distill_students([], None, event.n_global),
    lambda event: sweep_gamma(event, 1, tiny_teacher(window=1), tiny_student(window=2),
                              trials=1, gammas=(0.5,)),
], ids=["no-gammas", "repeated-gamma", "repeated-scorer", "no-scorers", "no-bundles",
        "sweep-window-mismatch"])
def test_empty_or_repeated_lists_are_refused_before_training(call, monkeypatch):
    from evolink import evaluation

    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(evaluation, "train_teacher", no_training)
    with pytest.raises(ConfigError):
        call(make_event())


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
