"""The benchmark's workloads: set-up, one measured round, and its checks.

A workload's ``setup()`` makes the event ready and is timed for
``setup_s``; ``prepare()`` makes the benchmark's own reference values
(untimed); ``round()`` runs the measured body once and checks every
output. Every round of a run does the same work on the same inputs, so
the share of failed operations does not depend on how many rounds fit.
Package functions are called through their modules (``training.train_teacher``)
so that the traced run sees the benchmark's own calls too.
"""
from __future__ import annotations

import contextlib
import csv
import json
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from evolink import attention, checkpoint, cli, evaluation, eventio, graphs, simulate, tape, training
from evolink.model import distillation_loss, reconstruction_loss, student_defaults, teacher_defaults

def derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


class Round:
    """What one round measured, and which of its operations failed."""

    def __init__(self, ops: tuple[str, ...], tracer=None):
        self.tracer = tracer
        self.failures: dict[str, list[str]] = {op: [] for op in ops}
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.gradients: list[list] = []
        self.wrong = False

    def check(self, ok: bool, what: str, *ops: str) -> None:
        """Record a failed check against ``ops`` (every operation if none)."""
        if ok:
            return
        self.wrong = True
        for op in ops or self.failures:
            self.failures[op].append(what)

    def checking(self):
        """Context for the benchmark's own checking work, which a traced
        round leaves out of the layer figures."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def crash(self, text: str) -> None:
        for msgs in self.failures.values():
            msgs.append(text)

    @property
    def failed(self) -> int:
        return sum(1 for msgs in self.failures.values() if msgs)


@dataclass
class Ready:
    """An event made ready for training and scoring."""

    event: graphs.EventSequence
    window: list
    scoreable: tuple


def make_ready(event, k: int, length: int) -> Ready:
    window = graphs.build_window(event, k, length)
    links = graphs.unobserved_links(event, k, length)
    present = set(window[-1].nodes)
    scoreable = tuple(l for l in links.links if l[0] in present and l[1] in present)
    return Ready(event, window, scoreable)


def checked_blocks(chain, rng) -> list[str]:
    """The first layer, the output layer and the scoring vector of one
    head, drawn with ``rng``, of the last transition."""
    cfg = chain.config
    names = ["w1/0", f"w2/{cfg.window}"]
    if cfg.window:
        names.append(f"attn/{cfg.window - 1}/{int(rng.integers(cfg.heads))}/score")
    return names


def block_gradients(chain, window, loss_of_z, names) -> tuple[float, dict]:
    """The loss and the analytic gradients of ``names`` from one backward pass."""
    loss = loss_of_z(chain.forward(window)[-1])
    tape.backward(loss)
    leaves = chain.trainable()
    return float(loss.value), {name: leaves[name].grad.copy() for name in names}


def check_gradients(chain, window, loss_of_z, loss: float,
                    grads: dict) -> list[tuple[float, float, float]]:
    return checks.directional_differences(
        lambda: float(loss_of_z(chain.forward(window)[-1]).value), chain.trainable(),
        grads, loss)


def check_model(rec: Round, op: str, chain, window, loss_of_z, rng) -> None:
    """Parameter count, gradient and attention checks on a trained model."""
    with rec.checking():
        _check_model(rec, op, chain, window, loss_of_z, rng)


def _check_model(rec: Round, op: str, chain, window, loss_of_z, rng) -> None:
    leaves = chain.trainable()
    size = sum(t.value.size for t in leaves.values())
    rec.check(checks.param_count_ok(size, chain.config, chain.n_global),
              f"{op}: {size} trainable scalars differ from the closed form", op)

    loss, grads = block_gradients(chain, window, loss_of_z, checked_blocks(chain, rng))
    checked = check_gradients(chain, window, loss_of_z, loss, grads)
    rec.gradients += [[op, name, *c] for name, c in zip(grads, checked)]
    rec.check(checks.gradients_agree(checked),
              f"{op}: gradient norms vs directional differences {checked}", op)

    if chain.config.window:
        w = chain.w1_first
        for i in range(1, len(window) - 1):
            w = attention.evolve_weights(window[i], chain.transitions[i - 1], w)
        mask = checks.neighbourhood_mask(window[-1])
        for j, head in enumerate(chain.transitions[-1].heads):
            alpha = attention.attention_coefficients(window[-1], head, w).value
            rec.check(checks.attention_rows_ok(alpha, mask),
                      f"{op}: attention rows of head {j} are not neighbourhood "
                      "distributions", op)


def check_retrained(rec: Round, first: dict, role: str, chain, *ops: str) -> None:
    """Every fit of ``role`` in a run uses the same seeds, so it must give
    the parameters of the run's first fit."""
    digest = chain.param_digest()
    first.setdefault(role, digest)
    rec.check(digest == first[role], f"the same seeds trained a different {role}", *ops)


def infer(chain, window, links):
    """One online inference: final-snapshot embeddings plus a dot score
    for every link. Returns them and the seconds it took."""
    t0 = time.perf_counter()
    emb = chain.embeddings(window)
    preds = [evaluation.score_dot(emb, u, v) for u, v, _ in links]
    return emb, preds, time.perf_counter() - t0


def time_inference(rec: Round, models: dict, window, links, pairs: int):
    """One warm-up inference per role, then ``pairs`` timed inferences of
    each, the roles taking turns so that their samples fall at the same
    moments. ``models`` maps a role to (operation, chain). Returns each
    role's (embeddings, scores) and the seconds the calls took."""
    t_start = time.perf_counter()
    first = {role: infer(chain, window, links)[:2] for role, (_, chain) in models.items()}
    for _ in range(pairs):
        for role, (op, chain) in models.items():
            emb, preds, elapsed = infer(chain, window, links)
            rec.samples[f"{role}_infer_s"].append(elapsed)
            rec.check(np.array_equal(emb.z, first[role][0].z) and preds == first[role][1],
                      f"{op}: repeated inference is not bit-identical", op)
    body = time.perf_counter() - t_start
    for role, (op, _) in models.items():
        emb, preds = first[role]
        rec.check(checks.scores_agree(checks.dot_scores(emb.z, emb.ids, links), preds),
                  f"{op}: dot scores differ from sigmoid(z_u . z_v)", op)
    return first, body


def check_trial_split(rec: Round, op: str, ready: Ready, split_seed: int, n_test: int,
                      n_validation: int, baseline: float) -> None:
    """The trial's test links: their count, their disjointness from the
    window, and the baseline RMSE on them."""
    _, test = evaluation.split_links(graphs.LinkSet(ready.scoreable), split_seed)
    ours = checks.baseline_rmse(ready.window, test.links)
    rec.check(len(test) == n_test and n_test + n_validation == len(ready.scoreable),
              f"{op}: split sizes {n_validation}+{n_test} for {len(ready.scoreable)} links", op)
    rec.check(checks.disjoint_from_window(test.links, ready.window),
              f"{op}: a test link is a window pair", op)
    rec.check(checks.close(ours, baseline),
              f"{op}: baseline rmse {baseline} vs {ours} recomputed", op)


def check_sizes(rec: Round, n_teacher: int, n_student: int, t_cfg, s_cfg, n_global: int,
                *ops: str) -> None:
    rec.check(checks.param_count_ok(n_teacher, t_cfg, n_global)
              and checks.param_count_ok(n_student, s_cfg, n_global),
              f"reported sizes {n_teacher}/{n_student} differ from the closed form", *ops)


def distill_loss(teacher_emb, g, gamma):
    return lambda z: distillation_loss(z, teacher_emb, g, gamma)


def recon_loss(g):
    return lambda z: reconstruction_loss(z, g)


class DeskEval:
    """The acceptance gates' desk event through the library API."""

    name = "desk-eval"
    SIM = simulate.SimConfig(offices=4, viewers=80, snapshots=8, arrival="front_loaded", seed=3)
    K = 6
    SETUPS = 15
    # The gates' evaluation: the first two trials of the gates' own
    # evaluation (run seed 0) at default schedules, where gates 5 and 6 are
    # established. It runs once, before the measured rounds, and every
    # round checks its report.
    TRIALS = 2
    EVAL_SEED = 0
    # A round is SLICES slices. Each slice times SHORT_EVALS 2-trial
    # evaluations on short schedules for wall_s, trains an extra teacher
    # and student seeded from --seed for the epoch times, and times
    # INFER_PAIRS inferences of each. Short samples taken all through the
    # run find the quiet moments of a shared host (see README.md).
    SLICES = 6
    SHORT_EVALS = 2
    SHORT_TEACHER_EPOCHS = 2
    SHORT_STUDENT_EPOCHS = 4
    EXTRA_TEACHER_EPOCHS = 8
    EXTRA_STUDENT_EPOCHS = 14
    # The first epochs of every fit pay for allocation and cache warm-up.
    WARMUP_EPOCHS = 2
    INFER_PAIRS = 8
    OPS = tuple(f"trial-{t}" for t in range(TRIALS))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.teacher_cfg = teacher_defaults()
        self.student_cfg = student_defaults()
        self.first: dict[str, str] = {}

    def setup(self) -> Ready:
        event = graphs.normalize_weights(simulate.simulate_event(self.SIM))
        return make_ready(event, self.K, self.teacher_cfg.window)

    def prepare(self, ready: Ready) -> None:
        self.scoreable = checks.scoreable_links(ready.event, self.K, self.teacher_cfg.window)
        self.report = evaluation.run_evaluation(ready.event, self.K, self.teacher_cfg,
                                                self.student_cfg, trials=self.TRIALS,
                                                seed=self.EVAL_SEED)

    def _slice(self, ready: Ready, rec: Round):
        """The short evaluations, then the extra teacher and student: train
        both and time their inference. Returns the reports and the models."""
        event, window = ready.event, ready.window
        shorts = []
        for _ in range(self.SHORT_EVALS):
            t0 = time.perf_counter()
            shorts.append(evaluation.run_evaluation(
                event, self.K, replace(self.teacher_cfg, epochs=self.SHORT_TEACHER_EPOCHS),
                replace(self.student_cfg, epochs=self.SHORT_STUDENT_EPOCHS),
                trials=self.TRIALS, seed=self.EVAL_SEED))
            rec.samples["wall_s"].append(time.perf_counter() - t0)

        t_cfg = replace(self.teacher_cfg, seed=derived_seed(self.seed, 0),
                        epochs=self.EXTRA_TEACHER_EPOCHS)
        s_cfg = replace(self.student_cfg, seed=derived_seed(self.seed, 1),
                        epochs=self.EXTRA_STUDENT_EPOCHS)
        teacher, t_trace, t_emb = training.train_teacher(window, t_cfg, event.n_global,
                                                         event.registry)
        rec.samples["teacher_epoch_s"] += t_trace.seconds[self.WARMUP_EPOCHS:]
        bundle = training.DistillationBundle(teacher, t_emb, s_cfg)
        student, s_trace = training.distill_student(bundle, window, event.n_global,
                                                    event.registry)
        rec.samples["student_epoch_s"] += s_trace.seconds[self.WARMUP_EPOCHS:]
        scores, _ = time_inference(rec, {"teacher": ("trial-0", teacher),
                                         "student": ("trial-0", student)},
                                   window, ready.scoreable, self.INFER_PAIRS)
        rec.check(np.array_equal(scores["teacher"][0].z, t_emb.z),
                  "teacher embeddings after training differ from a later inference")
        check_retrained(rec, self.first, "teacher", teacher)
        check_retrained(rec, self.first, "student", student)
        return shorts, teacher, t_emb, student, s_cfg

    def round(self, ready: Ready, rec: Round) -> None:
        event, window, report = ready.event, ready.window, self.report
        shorts = []
        for _ in range(self.SLICES):
            reports, teacher, t_emb, student, s_cfg = self._slice(ready, rec)
            shorts += reports
        rec.values["teacher_rmse"] = report.teacher_rmse_mean
        rec.values["student_rmse"] = report.student_rmse_mean

        rec.check(ready.scoreable == self.scoreable
                  and report.n_links_scoreable == len(self.scoreable),
                  f"{report.n_links_scoreable} scoreable links, {len(self.scoreable)} recomputed")
        for op, trial in zip(self.OPS, report.trials):
            check_trial_split(rec, op, ready, trial.split_seed, trial.n_test,
                              trial.n_validation, trial.baseline_rmse)
        rec.check(all(r == shorts[0] for r in shorts[1:]),
                  "the same short evaluation gave different reports")
        rec.check(shorts[0].split_seeds == report.split_seeds
                  and shorts[0].baseline_rmse_mean == report.baseline_rmse_mean,
                  "the short evaluation split the links differently")
        margin = 1.0 - report.teacher_rmse_mean / report.baseline_rmse_mean
        rec.check(margin >= 0.20, f"gate 5: teacher beats the baseline by {margin:.1%}")
        rec.check(report.student_rmse_mean <= 1.05 * report.teacher_rmse_mean
                  and report.param_count_teacher >= 5 * report.param_count_student,
                  f"gate 6: student/teacher rmse "
                  f"{report.student_rmse_mean / report.teacher_rmse_mean:.3f} at "
                  f"{report.param_count_student}/{report.param_count_teacher} parameters")
        check_sizes(rec, report.param_count_teacher, report.param_count_student,
                    self.teacher_cfg, self.student_cfg, event.n_global)
        rng = np.random.default_rng([self.seed, 7])
        check_model(rec, "trial-0", teacher, window, recon_loss(window[-1]), rng)
        check_model(rec, "trial-0", student, window,
                    distill_loss(t_emb, window[-1], s_cfg.gamma), rng)


class Viewers1000:
    """A 1000-viewer event: short training schedules, then online inference."""

    name = "viewers-1000"
    SIM = simulate.SimConfig(offices=4, viewers=1000, snapshots=8, arrival="front_loaded",
                             seed=0)
    K = 6
    SETUPS = 2
    TEACHER_EPOCHS = 4
    STUDENT_EPOCHS = 7
    # The first epoch of a fit pays for allocating its arrays.
    WARMUP_EPOCHS = 1
    INFER_PAIRS = 5
    PASSES = 3
    OPS = ("teacher-fit", "student-fit", "teacher-inference", "student-inference")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.teacher_cfg = teacher_defaults(epochs=self.TEACHER_EPOCHS,
                                            seed=derived_seed(seed, 0))
        self.student_cfg = student_defaults(epochs=self.STUDENT_EPOCHS,
                                            seed=derived_seed(seed, 1))
        self.first: dict[str, str] = {}

    def setup(self) -> Ready:
        event = graphs.normalize_weights(simulate.simulate_event(self.SIM))
        return make_ready(event, self.K, self.teacher_cfg.window)

    def prepare(self, ready: Ready) -> None:
        self.scoreable = checks.scoreable_links(ready.event, self.K, self.teacher_cfg.window)
        _, self.test = evaluation.split_links(graphs.LinkSet(self.scoreable),
                                              derived_seed(self.seed, 2))

    def _pass(self, ready: Ready, rec: Round):
        """Train the teacher and the student, then time online inference.
        Adds one wall_s sample; returns both models and their test scores."""
        event, window = ready.event, ready.window
        t0 = time.perf_counter()
        teacher, t_trace, t_emb = training.train_teacher(window, self.teacher_cfg,
                                                         event.n_global, event.registry)
        bundle = training.DistillationBundle(teacher, t_emb, self.student_cfg)
        student, s_trace = training.distill_student(bundle, window, event.n_global,
                                                    event.registry)
        body = time.perf_counter() - t0
        rec.samples["teacher_epoch_s"] += t_trace.seconds[self.WARMUP_EPOCHS:]
        rec.samples["student_epoch_s"] += s_trace.seconds[self.WARMUP_EPOCHS:]
        scores, seconds = time_inference(rec, {"teacher": ("teacher-inference", teacher),
                                               "student": ("student-inference", student)},
                                         window, ready.scoreable, self.INFER_PAIRS)
        rec.samples["wall_s"].append(body + seconds)
        check_retrained(rec, self.first, "teacher", teacher, "teacher-fit")
        check_retrained(rec, self.first, "student", student, "student-fit")
        return teacher, t_emb, student, scores

    def round(self, ready: Ready, rec: Round) -> None:
        # Identical passes, the checks after the first.
        teacher, t_emb, student, scores = self._pass(ready, rec)
        window = ready.window
        rng = np.random.default_rng([self.seed, 7])
        check_model(rec, "teacher-fit", teacher, window, recon_loss(window[-1]), rng)
        check_model(rec, "student-fit", student, window,
                    distill_loss(t_emb, window[-1], self.student_cfg.gamma), rng)
        rec.check(ready.scoreable == self.scoreable,
                  "the scoreable links differ from the recomputed ones")
        truths = [w for _, _, w in self.test.links]
        for role, op in (("teacher", "teacher-inference"), ("student", "student-inference")):
            emb, preds = scores[role]
            by_pair = {(u, v): p for (u, v, _), p in zip(ready.scoreable, preds)}
            value, _ = evaluation.metrics([by_pair[(u, v)] for u, v, _ in self.test.links],
                                          truths)
            ours = checks.rmse(checks.dot_scores(emb.z, emb.ids, self.test.links), truths)
            rec.check(checks.close(value, ours, 1e-9),
                      f"{op}: test rmse {value} vs {ours} recomputed", op)
            rec.check(checks.disjoint_from_window(self.test.links, window),
                      f"{op}: a test link is a window pair", op)
            rec.values[f"{role}_rmse"] = value
        rec.check(checks.close(evaluation.constant_baseline(window),
                               float(np.mean([w for g in window for _, _, w in g.edges]))),
                  "the constant baseline differs from the mean window weight",
                  "teacher-inference", "student-inference")
        for _ in range(self.PASSES - 1):
            self._pass(ready, rec)


class CliPipeline:
    """simulate, train-teacher, distill and evaluate through evolink.cli.main."""

    name = "cli-pipeline"
    SIM = {"offices": 4, "viewers": 320, "snapshots": 8, "arrival": "front_loaded", "seed": 0}
    TEACHER = {"window": 3, "heads": 3, "hidden_dim": 32, "embed_dim": 16,
               "lr": 1e-3, "epochs": 12, "gamma": 0.5, "seed": 0}
    # Every student key is spelled out: a partial section is filled from
    # the teacher-sized defaults (see CHANGES.md).
    STUDENT = {"window": 3, "heads": 1, "hidden_dim": 8, "embed_dim": 4,
               "lr": 2e-3, "epochs": 24, "gamma": 0.5, "seed": 0}
    TRIALS = 1
    SETUPS = 5
    WARMUP_EPOCHS = 2
    K = 6  # the CLI's default: two before the last of 8 snapshots
    # Inference runs twice a round on the written checkpoints: after
    # distill and after evaluate.
    INFER_PAIRS = 8
    OPS = ("train-teacher", "distill", "evaluate")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        models = {"teacher": self.TEACHER, "student": self.STUDENT, "seed": seed}
        self.sim_config = self.dir / "simulate.json"
        self.sim_config.write_text(json.dumps(
            {"data": {"simulate": self.SIM}, "out": str(self.dir / "event"), **models}))
        self.run_dir = self.dir / "run"
        self.run_config = self.dir / "run.json"
        self.run_config.write_text(json.dumps(
            {"data": {"manifest": "event/manifest.json"}, "out": str(self.run_dir),
             "trials": self.TRIALS, "scorer": "both", **models}))

    def _cli(self, *argv: str) -> int:
        with open(self.dir / "cli.log", "a") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            return cli.main(list(argv))

    def setup(self) -> Ready:
        rc = self._cli("simulate", str(self.sim_config))
        if rc != 0:
            raise RuntimeError(f"evolink simulate returned {rc}")
        event = eventio.load_event(self.dir / "event")
        return make_ready(event, self.K, self.TEACHER["window"])

    def prepare(self, ready: Ready) -> None:
        self.in_memory = graphs.normalize_weights(
            simulate.simulate_event(simulate.SimConfig(**self.SIM)))
        self.n_scoreable = self._count_scoreable_from_csv()

    def _count_scoreable_from_csv(self) -> int:
        """Scoreable links of snapshot k+1 counted on the raw CSV ids."""
        event_dir = self.dir / "event"
        files = json.loads((event_dir / "manifest.json").read_text())["files"]
        snaps = []
        for name in files:
            with open(event_dir / name, newline="") as fh:
                snaps.append([(int(r[0]), int(r[1])) for r in csv.reader(fh) if r])
        lo = self.K - self.TEACHER["window"]
        seen = {(min(u, v), max(u, v)) for s in snaps[lo:self.K + 1] for u, v in s}
        present = {x for pair in snaps[self.K] for x in pair}
        return sum(1 for u, v in snaps[self.K + 1]
                   if (min(u, v), max(u, v)) not in seen and u in present and v in present)

    def _command(self, rec: Round, op: str, *args: str) -> None:
        """Run one CLI command, its wall time a sample of ``wall_s/<op>``."""
        t0 = time.perf_counter()
        rc = self._cli(op, *args)
        rec.samples[f"wall_s/{op}"].append(time.perf_counter() - t0)
        rec.check(rc == 0, f"{op} returned {rc}", op)

    def _infer(self, rec: Round, ready: Ready):
        """Read both checkpoints back and time their inference."""
        teacher = checkpoint.read_checkpoint(self.run_dir / "teacher.ckpt")
        student = checkpoint.read_checkpoint(self.run_dir / "student.ckpt")
        scores, _ = time_inference(rec, {"teacher": ("train-teacher", teacher),
                                         "student": ("distill", student)},
                                   ready.window, ready.scoreable, self.INFER_PAIRS)
        return teacher, student, scores

    def round(self, ready: Ready, rec: Round) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        config = str(self.run_config)
        self._command(rec, "train-teacher", config)
        self._command(rec, "distill", config)
        teacher, student, scores = self._infer(rec, ready)
        self._command(rec, "evaluate", config, "--scorer", "both")
        self._infer(rec, ready)

        rec.check(ready.event == self.in_memory,
                  "the loaded export differs from the in-memory event")
        event, window = ready.event, ready.window
        for role, op in (("teacher", "train-teacher"), ("student", "distill")):
            with open(self.run_dir / f"{role}_trace.csv", newline="") as fh:
                seconds = [float(r["seconds"]) for r in csv.DictReader(fh)]
            rec.samples[f"{role}_epoch_s"] += seconds[self.WARMUP_EPOCHS:]
            blob = (self.run_dir / f"{role}.ckpt").read_bytes()
            rec.check(checkpoint.save_checkpoint(checkpoint.load_checkpoint(blob)) == blob,
                      f"{op}: checkpoint does not round-trip bit-exactly", op)
        spelled = {k: getattr(student.config, k) for k in self.STUDENT if k != "seed"}
        rec.check(spelled == {k: v for k, v in self.STUDENT.items() if k != "seed"},
                  f"distill: student config {student.config} is not the run config's", "distill")
        t_emb = scores["teacher"][0]
        rng = np.random.default_rng([self.seed, 7])
        check_model(rec, "train-teacher", teacher, window, recon_loss(window[-1]), rng)
        check_model(rec, "distill", student, window,
                    distill_loss(t_emb, window[-1], student.config.gamma), rng)

        dot = json.loads((self.run_dir / "report_dot.json").read_text())["report"]
        mlp = json.loads((self.run_dir / "report_mlp.json").read_text())["report"]
        rec.values["teacher_rmse"] = dot["teacher"]["rmse_mean"]
        rec.values["student_rmse"] = dot["student"]["rmse_mean"]
        rec.check(dot["n_links_scoreable"] == self.n_scoreable == len(ready.scoreable),
                  f"evaluate: {dot['n_links_scoreable']} scoreable links, "
                  f"{self.n_scoreable} counted in the CSVs", "evaluate")
        same = ("event", "k", "teacher_config", "student_config", "baseline_rmse_mean",
                "split_seeds", "n_links_total", "n_links_scoreable")
        seeds = ("index", "teacher_seed", "student_seed", "split_seed", "baseline_rmse")
        rec.check(all(dot[key] == mlp[key] for key in same)
                  and [[t[s] for s in seeds] for t in dot["trials"]]
                  == [[t[s] for s in seeds] for t in mlp["trials"]],
                  "evaluate: the dot and mlp reports disagree on seeds, configs or baseline",
                  "evaluate")
        check_sizes(rec, dot["teacher"]["param_count"], dot["student"]["param_count"],
                    teacher.config, student.config, event.n_global, "evaluate")
        for trial in dot["trials"]:
            check_trial_split(rec, "evaluate", ready, trial["split_seed"], trial["n_test"],
                              trial["n_validation"], trial["baseline_rmse"])


WORKLOADS = {w.name: w for w in (DeskEval, Viewers1000, CliPipeline)}
