"""Next-snapshot link-weight prediction protocol.

The targets for snapshot ``k + 1`` are its links that never appeared in
the training window ``k - window .. k``. They are split 20/80 into a
validation part (reserved for hyperparameter choices) and a test part,
scored from the final-snapshot embeddings either by a sigmoid dot product
or by a small trained MLP over Hadamard pair features, and summarized as
MAE/RMSE averaged over independently seeded trials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.special import expit

from .errors import (
    ConfigError,
    EvolinkError,
    InsufficientLinksError,
    OutOfRangeError,
    WindowUnderflowError,
)
from .gcn import Embeddings, count_params
from .graphs import EventSequence, LinkSet, SnapshotGraph, build_window, unobserved_links
from .model import ModelConfig
from .optim import Adam
from .tape import Tensor, add, backward, matmul, mean, param, relu, sigmoid, square, sub
from .training import DistillationBundle, distill_student, train_teacher

Array = np.ndarray

VALIDATION_SHARE = 0.2
MIN_SPLIT_LINKS = 5
NEGATIVE_TARGET = 0.05

GAMMA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
EMBED_GRID = (16, 32, 64, 128, 256)
WINDOW_GRID = (1, 2, 3, 4, 5)
HEAD_GRID = (1, 2, 3, 4, 5)
SCORERS = ("dot", "mlp")


def derive_seed(*entropy: int) -> int:
    """Deterministic, well-mixed 32-bit seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def split_links(links: LinkSet, seed: int) -> tuple[LinkSet, LinkSet]:
    """Shuffle and split links into (validation, test).

    The validation part takes ``round(0.2 * |links|)`` entries, the test
    part the rest. Fewer than 5 links cannot be split meaningfully.
    """
    n = len(links)
    if n < MIN_SPLIT_LINKS:
        raise InsufficientLinksError(f"only {n} links, need at least {MIN_SPLIT_LINKS}")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [links.links[i] for i in order]
    n_val = round(VALIDATION_SHARE * n)
    validation = LinkSet(links=tuple(sorted(shuffled[:n_val])))
    test = LinkSet(links=tuple(sorted(shuffled[n_val:])))
    return validation, test


def score_dot(emb: Embeddings, u: int, v: int) -> float:
    """Sigmoid of the embedding dot product; symmetric in (u, v)."""
    # One scalar per call: scipy's expit takes a fraction of a microsecond
    # on it, the tape's array sigmoid several microseconds.
    return float(expit(float(emb.row(u) @ emb.row(v))))


@dataclass(frozen=True)
class MlpScorer:
    """Small trained decoder over Hadamard pair features.

    One ReLU hidden layer of ceil(embed/2) units and a sigmoid output.
    ``n_positives`` and ``n_negatives`` count the pairs it was trained on.
    """

    w_hidden: Array
    b_hidden: Array
    w_out: Array
    b_out: Array
    n_positives: int
    n_negatives: int


def _mlp_dims(embed_dim: int) -> int:
    return math.ceil(embed_dim / 2)


def train_mlp_scorer(emb: Embeddings, window: list[SnapshotGraph], seed: int,
                     lr: float = 1e-3, epochs: int = 200) -> MlpScorer:
    """Fit the decoder on the window's observed links plus sampled non-links.

    Positive pairs take the weight of their latest window occurrence; an
    equal number of seeded non-link pairs (absent from every window
    snapshot, both endpoints embedded) takes the low target 0.05. A dense
    window can run out of non-links before that number is reached; the
    scorer then trains on all of them and records how many.
    """
    pos_weight: dict[tuple[int, int], float] = {}
    for g in window:
        for u, v, w in g.edges:
            pos_weight[(u, v)] = w
    known = set(emb.ids)
    positives = [(u, v, w) for (u, v), w in sorted(pos_weight.items())
                 if u in known and v in known]
    if not positives:
        raise InsufficientLinksError("no window links with embedded endpoints")
    rng = np.random.default_rng(seed)
    ids = list(emb.ids)
    taken = set(pos_weight)
    negatives: list[tuple[int, int, float]] = []
    # Every pair of embedded nodes that is not a positive is a non-link.
    wanted = min(len(positives), len(ids) * (len(ids) - 1) // 2 - len(positives))
    attempts = 0
    while len(negatives) < wanted and attempts < 200 * len(positives):
        attempts += 1
        i, j = rng.integers(0, len(ids), size=2)
        if i == j:
            continue
        u, v = (ids[i], ids[j]) if ids[i] < ids[j] else (ids[j], ids[i])
        if (u, v) in taken:
            continue
        taken.add((u, v))
        negatives.append((u, v, NEGATIVE_TARGET))
    samples = positives + negatives
    feats = np.stack([emb.row(u) * emb.row(v) for u, v, _ in samples])
    targets = np.array([[w] for _, _, w in samples])

    d = emb.z.shape[1]
    hidden = _mlp_dims(d)
    r = 1.0 / np.sqrt(d)
    params = {
        "w_hidden": param(rng.uniform(-r, r, size=(d, hidden)), "w_hidden"),
        "b_hidden": param(np.zeros((1, hidden)), "b_hidden"),
        "w_out": param(rng.uniform(-r, r, size=(hidden, 1)), "w_out"),
        "b_out": param(np.zeros((1, 1)), "b_out"),
    }
    x = Tensor(feats)
    y = Tensor(targets)
    opt = Adam(params, lr=lr)
    for _ in range(epochs):
        h = relu(add(matmul(x, params["w_hidden"]), params["b_hidden"]))
        pred = sigmoid(add(matmul(h, params["w_out"]), params["b_out"]))
        loss = mean(square(sub(pred, y)))
        backward(loss)
        opt.step()
    return MlpScorer(w_hidden=params["w_hidden"].value.copy(),
                     b_hidden=params["b_hidden"].value.copy(),
                     w_out=params["w_out"].value.copy(),
                     b_out=params["b_out"].value.copy(),
                     n_positives=len(positives), n_negatives=len(negatives))


def score_mlp(emb: Embeddings, scorer: MlpScorer, u: int, v: int) -> float:
    """Decoder score for a pair; symmetric because the feature is Hadamard."""
    if scorer is None:
        raise ConfigError("score_mlp needs a trained scorer")
    f = emb.row(u) * emb.row(v)
    h = np.maximum(f @ scorer.w_hidden + scorer.b_hidden, 0.0)
    # scipy's expit, as in score_dot: one scalar per call.
    return float(expit(h @ scorer.w_out + scorer.b_out)[0, 0])


def metrics(predictions, truths) -> tuple[float, float]:
    """(rmse, mae) over aligned prediction/truth sequences."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise EvolinkError(f"metrics need matching 1-d inputs, got {p.shape} and {t.shape}")
    if p.size == 0:
        raise EvolinkError("metrics of an empty prediction set")
    err = p - t
    return float(np.sqrt(np.mean(err * err))), float(np.mean(np.abs(err)))


def constant_baseline(window: list[SnapshotGraph]) -> float:
    """Mean weight over every edge occurrence in the window.

    The weakest sensible predictor: score every candidate pair with this
    single constant.
    """
    weights = [w for g in window for _, _, w in g.edges]
    if not weights:
        raise EvolinkError("window with no edges has no baseline")
    return float(np.mean(weights))


def compression_label(ratio) -> str:
    """Present a student/teacher size ratio as an ``x:100`` label.

    The percentage is rounded up, so the label never understates the
    student's relative size.
    """
    if isinstance(ratio, Fraction):
        x = -((-100 * ratio.numerator) // ratio.denominator)
    else:
        r = float(ratio)
        if r < 0:
            raise EvolinkError(f"negative ratio {r}")
        # Tolerate float fuzz just below integer percentages.
        x = math.ceil(r * 100.0 - 1e-9)
    return f"{x}:100"


@dataclass(frozen=True)
class TrialRecord:
    index: int
    teacher_seed: int
    student_seed: int
    split_seed: int
    teacher_rmse: float
    teacher_mae: float
    student_rmse: float
    student_mae: float
    baseline_rmse: float
    n_validation: int
    n_test: int
    # Pairs the trial's MLP scorers trained on (mlp reports only): the
    # window's links, which both scorers share, and the non-links sampled
    # for each. Fewer negatives than positives means the window ran short.
    mlp_positives: int | None = None
    teacher_mlp_negatives: int | None = None
    student_mlp_negatives: int | None = None


@dataclass(frozen=True)
class EvalReport:
    """Averaged protocol results for one (event, k, scorer) evaluation."""

    event: str
    k: int
    scorer: str
    teacher_config: ModelConfig
    student_config: ModelConfig
    trials: tuple[TrialRecord, ...]
    teacher_rmse_mean: float
    teacher_rmse_std: float
    teacher_mae_mean: float
    teacher_mae_std: float
    student_rmse_mean: float
    student_rmse_std: float
    student_mae_mean: float
    student_mae_std: float
    baseline_rmse_mean: float
    param_count_teacher: int
    param_count_student: int
    compression_ratio: Fraction
    compression: str
    n_links_total: int
    n_links_scoreable: int
    split_seeds: tuple[int, ...]

    def to_payload(self) -> dict:
        """JSON-ready dict of every numeric result (no timestamps)."""
        from dataclasses import asdict

        return {
            "event": self.event,
            "k": self.k,
            "scorer": self.scorer,
            "teacher_config": asdict(self.teacher_config),
            "student_config": asdict(self.student_config),
            "teacher": {"rmse_mean": self.teacher_rmse_mean,
                        "rmse_std": self.teacher_rmse_std,
                        "mae_mean": self.teacher_mae_mean,
                        "mae_std": self.teacher_mae_std,
                        "param_count": self.param_count_teacher},
            "student": {"rmse_mean": self.student_rmse_mean,
                        "rmse_std": self.student_rmse_std,
                        "mae_mean": self.student_mae_mean,
                        "mae_std": self.student_mae_std,
                        "param_count": self.param_count_student},
            "baseline_rmse_mean": self.baseline_rmse_mean,
            "compression_ratio": f"{self.compression_ratio.numerator}/"
                                 f"{self.compression_ratio.denominator}",
            "compression": self.compression,
            "n_links_total": self.n_links_total,
            "n_links_scoreable": self.n_links_scoreable,
            "split_seeds": list(self.split_seeds),
            # A field a scorer does not fill (None) is left out of its trials.
            "trials": [{key: value for key, value in asdict(t).items() if value is not None}
                       for t in self.trials],
        }

    def csv_rows(self) -> list[tuple]:
        rows = []
        for t in self.trials:
            rows.append((t.index, "teacher", "rmse", t.teacher_rmse))
            rows.append((t.index, "teacher", "mae", t.teacher_mae))
            rows.append((t.index, "student", "rmse", t.student_rmse))
            rows.append((t.index, "student", "mae", t.student_mae))
        return rows


def _score_links(emb: Embeddings, links: LinkSet,
                 scorer: MlpScorer | None) -> tuple[list[float], list[float]]:
    """Predictions (dot scorer when ``scorer`` is None) and truths of ``links``."""
    preds = [score_dot(emb, u, v) if scorer is None else score_mlp(emb, scorer, u, v)
             for u, v, _ in links.links]
    return preds, [w for _, _, w in links.links]


def _mean_std(values) -> tuple[float, float]:
    arr = np.array(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _prepare(event: EventSequence, k: int, window_len: int
             ) -> tuple[list[SnapshotGraph], LinkSet, LinkSet, float]:
    """The window, its unobserved links, the scoreable ones, the baseline.

    Links touching nodes without an embedding (absent from snapshot ``k``)
    cannot be scored and are dropped before splitting.
    """
    window = build_window(event, k, window_len)
    links = unobserved_links(event, k, window_len)
    final_nodes = set(window[-1].nodes)
    scoreable = LinkSet(links=tuple(l for l in links.links
                                    if l[0] in final_nodes and l[1] in final_nodes))
    if len(scoreable) < MIN_SPLIT_LINKS:
        raise InsufficientLinksError(
            f"only {len(scoreable)} scoreable unobserved links at snapshot {k + 1}")
    return window, links, scoreable, constant_baseline(window)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")


def _trial_seeds(*entropy: int) -> tuple[int, int, int]:
    """Teacher, student and split seeds of the trial drawn from ``entropy``."""
    return derive_seed(*entropy, 0), derive_seed(*entropy, 1), derive_seed(*entropy, 2)


def run_evaluation(event: EventSequence, k: int, teacher_cfg: ModelConfig,
                   student_cfg: ModelConfig, *, trials: int = 5,
                   scorer: str = "dot", seed: int = 0,
                   trial_seeds: list[int] | None = None) -> EvalReport:
    """Full protocol with one scorer; see :func:`evaluate_scorers`."""
    return evaluate_scorers(event, k, teacher_cfg, student_cfg, scorers=(scorer,),
                            trials=trials, seed=seed, trial_seeds=trial_seeds)[scorer]


def evaluate_scorers(event: EventSequence, k: int, teacher_cfg: ModelConfig,
                     student_cfg: ModelConfig, *, scorers: tuple[str, ...],
                     trials: int = 5, seed: int = 0,
                     trial_seeds: list[int] | None = None) -> dict[str, EvalReport]:
    """Full protocol: per trial, train teacher, distill student, score.

    Each trial is trained once and its test split scored by every scorer
    in ``scorers``; the result holds one report per scorer. Trials draw
    their model and split seeds from ``seed`` and the trial index by
    default; pass explicit ``trial_seeds`` to pin them (equal entries
    reproduce identical trials).
    """
    for scorer in scorers:
        if scorer not in SCORERS:
            raise ConfigError(f"unknown scorer {scorer!r}")
    _check_trials(trials)
    if trial_seeds is not None and len(trial_seeds) != trials:
        raise ConfigError(f"{len(trial_seeds)} trial seeds for {trials} trials")
    if teacher_cfg.window != student_cfg.window:
        raise ConfigError("teacher and student must span the same window")

    window, links, scoreable, baseline = _prepare(event, k, teacher_cfg.window)
    n_global = event.n_global
    records: dict[str, list[TrialRecord]] = {scorer: [] for scorer in scorers}
    for t in range(trials):
        entropy = (trial_seeds[t],) if trial_seeds is not None else (seed, t)
        t_seed, s_seed, split_seed = _trial_seeds(*entropy)
        teacher, _, t_emb = train_teacher(window, replace(teacher_cfg, seed=t_seed),
                                          n_global, event.registry)
        bundle = DistillationBundle(teacher=teacher, teacher_embeddings=t_emb,
                                    student_config=replace(student_cfg, seed=s_seed))
        student, _ = distill_student(bundle, window, n_global, event.registry)
        s_emb = student.embeddings(window)

        _, test = split_links(scoreable, split_seed)
        for scorer in scorers:
            t_scorer = s_scorer = None
            samples = {}
            if scorer == "mlp":
                t_scorer = train_mlp_scorer(t_emb, window, derive_seed(*entropy, 3))
                s_scorer = train_mlp_scorer(s_emb, window, derive_seed(*entropy, 4))
                samples = dict(mlp_positives=t_scorer.n_positives,
                               teacher_mlp_negatives=t_scorer.n_negatives,
                               student_mlp_negatives=s_scorer.n_negatives)
            t_preds, truths = _score_links(t_emb, test, t_scorer)
            s_preds, _ = _score_links(s_emb, test, s_scorer)
            t_rmse, t_mae = metrics(t_preds, truths)
            s_rmse, s_mae = metrics(s_preds, truths)
            b_rmse, _ = metrics([baseline] * len(truths), truths)
            records[scorer].append(TrialRecord(
                index=t, teacher_seed=t_seed, student_seed=s_seed, split_seed=split_seed,
                teacher_rmse=t_rmse, teacher_mae=t_mae,
                student_rmse=s_rmse, student_mae=s_mae,
                baseline_rmse=b_rmse,
                n_validation=len(scoreable) - len(test), n_test=len(test), **samples))

    n_teacher = count_params(teacher_cfg, n_global)
    n_student = count_params(student_cfg, n_global)
    ratio = Fraction(n_student, n_teacher)
    reports = {}
    for scorer, recs in records.items():
        stats = {}
        for key in ("teacher_rmse", "teacher_mae", "student_rmse", "student_mae"):
            values = [getattr(r, key) for r in recs]
            stats[f"{key}_mean"], stats[f"{key}_std"] = _mean_std(values)
        reports[scorer] = EvalReport(
            event=event.name, k=k, scorer=scorer,
            teacher_config=teacher_cfg, student_config=student_cfg,
            trials=tuple(recs), **stats,
            baseline_rmse_mean=float(np.mean([r.baseline_rmse for r in recs])),
            param_count_teacher=n_teacher, param_count_student=n_student,
            compression_ratio=ratio, compression=compression_label(ratio),
            n_links_total=len(links), n_links_scoreable=len(scoreable),
            split_seeds=tuple(r.split_seed for r in recs),
        )
    return reports


@dataclass(frozen=True)
class GammaSweepRow:
    gamma: float
    student_rmse_mean: float
    student_rmse_std: float
    student_mae_mean: float
    student_mae_std: float
    teacher_rmse_mean: float


def sweep_gamma(event: EventSequence, k: int, teacher_cfg: ModelConfig,
                student_cfg: ModelConfig, *, trials: int = 5, seed: int = 0,
                gammas: tuple[float, ...] = GAMMA_GRID) -> list[GammaSweepRow]:
    """Student test RMSE per blend weight, trial-averaged.

    Each trial trains one teacher and reuses it (same soft targets, same
    student init, same test split) across every gamma, so the sweep
    isolates the blend weight. Scoring uses the dot scorer.
    """
    _check_trials(trials)
    window, _, scoreable, _ = _prepare(event, k, teacher_cfg.window)
    n_global = event.n_global

    per_gamma: dict[float, list[tuple[float, float]]] = {g: [] for g in gammas}
    teacher_rmses: list[float] = []
    for t in range(trials):
        t_seed, s_seed, split_seed = _trial_seeds(seed, t)
        teacher, _, t_emb = train_teacher(window, replace(teacher_cfg, seed=t_seed),
                                          n_global, event.registry)
        _, test = split_links(scoreable, split_seed)
        t_preds, truths = _score_links(t_emb, test, None)
        teacher_rmses.append(metrics(t_preds, truths)[0])
        for gamma in gammas:
            cfg = replace(student_cfg, gamma=gamma, seed=s_seed)
            bundle = DistillationBundle(teacher=teacher, teacher_embeddings=t_emb,
                                        student_config=cfg)
            student, _ = distill_student(bundle, window, n_global, event.registry)
            s_preds, _ = _score_links(student.embeddings(window), test, None)
            per_gamma[gamma].append(metrics(s_preds, truths))

    teacher_mean = float(np.mean(teacher_rmses))
    rows = []
    for gamma in gammas:
        rmse_mean, rmse_std = _mean_std([r for r, _ in per_gamma[gamma]])
        mae_mean, mae_std = _mean_std([m for _, m in per_gamma[gamma]])
        rows.append(GammaSweepRow(gamma=gamma, student_rmse_mean=rmse_mean,
                                  student_rmse_std=rmse_std, student_mae_mean=mae_mean,
                                  student_mae_std=mae_std, teacher_rmse_mean=teacher_mean))
    return rows


@dataclass(frozen=True)
class HparamSweepRow:
    axis: str
    value: int
    teacher_rmse_mean: float
    teacher_rmse_std: float
    student_rmse_mean: float
    student_rmse_std: float
    param_count_teacher: int
    param_count_student: int


def sweep_hparam(event: EventSequence, k: int, teacher_cfg: ModelConfig,
                 student_cfg: ModelConfig, axis: str, *, trials: int = 5,
                 seed: int = 0) -> list[HparamSweepRow]:
    """Vary one architecture axis of the teacher, holding the rest.

    ``d`` sweeps the embedding width (hidden stays at twice the embedding),
    ``l`` the window span (teacher and student together, since they must
    match), ``h`` the teacher's head count. Values that do not fit the
    event (window reaching before snapshot 0) are skipped.
    """
    if axis == "d":
        values = EMBED_GRID

        def make(value):
            return (replace(teacher_cfg, embed_dim=value, hidden_dim=2 * value),
                    student_cfg)
    elif axis == "l":
        values = WINDOW_GRID

        def make(value):
            return (replace(teacher_cfg, window=value),
                    replace(student_cfg, window=value))
    elif axis == "h":
        values = HEAD_GRID

        def make(value):
            return (replace(teacher_cfg, heads=value), student_cfg)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")

    axis_ord = {"d": 0, "l": 1, "h": 2}[axis]
    rows = []
    for value in values:
        t_cfg, s_cfg = make(value)
        try:
            report = run_evaluation(event, k, t_cfg, s_cfg, trials=trials,
                                    scorer="dot",
                                    seed=derive_seed(seed, axis_ord, value))
        except (WindowUnderflowError, OutOfRangeError, InsufficientLinksError):
            continue
        rows.append(HparamSweepRow(
            axis=axis, value=value,
            teacher_rmse_mean=report.teacher_rmse_mean,
            teacher_rmse_std=report.teacher_rmse_std,
            student_rmse_mean=report.student_rmse_mean,
            student_rmse_std=report.student_rmse_std,
            param_count_teacher=report.param_count_teacher,
            param_count_student=report.param_count_student))
    return rows
