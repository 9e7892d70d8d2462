"""The training loop: cross-view pseudo-labeling, loss assembly, updates.

One step executes, in order: MC-dropout statistics on both views, per-sample
mutual information, cross-view filtering through the teacher's threshold
(view 1's accepted pseudo-labels supervise student 2 and vice versa),
embedding attacks and the adversarial entropy term, the supervised term, one
SGD step per student on the weighted total, then the teacher meta-update.
The meta-gradient is taken from the pre-step student parameters through a
virtual update by default, reusing the step's adversarial-entropy gradient;
``meta_after_step`` flips it to the post-step parameters, where that
gradient is recomputed.

Every random draw derives from (config seed, purpose tag, epoch, step, view),
so a run is a pure function of (config, dataset).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import (
    TEST,
    UNLABELED,
    VALIDATION,
    BatchIterator,
    BatchPlan,
    TwoViewDataset,
    _read_exact,
)
from .errors import FormatError, InvalidInputError, NonFiniteError
from .generator import PerturbConfig, pgd_perturb_batch
from .numerics import entropy_rows, softmax_rows
from .student import (
    Gradients,
    OptimizerState,
    StudentParams,
    cosine_lr,
    draw_keeps,
    forward_batch,
    fresh_optimizer,
    hidden_layer,
    init_student,
    loss_and_grads,
    mc_forward_batch,
    sgd_step,
)
from .teacher import (
    MetaBatch,
    StrategyHistory,
    TeacherStrategy,
    init_strategy,
    meta_grad,
    should_stop,
    stability_score,
    teacher_step,
)
from .uncertainty import batch_statistics, confidence_filter, impurity, mi_filter

# Purpose tags for per-step RNG substreams.
_RNG_INIT = 10
_RNG_MC = 3
_RNG_PERTURB = 4
_RNG_KEEP_SUP = 5
_RNG_KEEP_UNSUP = 6
_RNG_KEEP_ADV = 7


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    steps_per_epoch: int = 0  # 0 = one full pass over the unlabeled rows
    labeled_batch: int = 64
    unlabeled_ratio: int = 7
    lr: float = 0.03
    momentum: float = 0.9
    mc_passes: int = 5
    hidden: int = 32
    dropout: float = 0.1
    weight_norm_bound: float = 0.0  # 0 disables the projection
    unsup_enabled: bool = True
    adv_enabled: bool = True
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    filter_mode: str = "mi"  # mi | confidence | mi_conf | none
    filter_direction: str = "above"
    tau_conf: float = 0.95
    teacher_enabled: bool = True
    tau_init: float = 0.05
    lambda_u_init: float = 0.5
    lambda_adv_init: float = 0.5
    eta_teacher: float = 0.01
    gate_temperature: float = 0.01
    teacher_update_every: int = 1
    meta_after_step: bool = False
    stability_stop: bool = False
    stop_epsilon: float = 1e-4
    stop_patience: int = 5
    stability_window: int = 10
    ea_stop: bool = False
    delta_entropy: float = 1e-3
    delta_agreement: float = 1e-3
    ea_window: int = 5
    eval_attack_steps: int = 10
    eval_attack_step_frac: float = 0.25
    seed: int = 1
    tie_view_rng: bool = False  # determinism harness: share rng across views
    balanced_labeled: bool = False  # per-class labeled batch draws

    def __post_init__(self):
        if self.epochs < 0 or self.labeled_batch < 1 or self.unlabeled_ratio < 1:
            raise InvalidInputError("invalid epoch or batch settings")
        if self.steps_per_epoch < 0:
            raise InvalidInputError("steps_per_epoch must be >= 0 (0 = one full pass)")
        if self.teacher_update_every < 1:
            raise InvalidInputError("teacher_update_every must be >= 1")
        if self.unsup_enabled:
            need = 2 if self.filter_mode in ("mi", "mi_conf") else 1
            if self.mc_passes < need:
                raise InvalidInputError(
                    f"filter_mode {self.filter_mode!r} needs at least {need} MC passes"
                )
        if self.filter_mode not in ("mi", "confidence", "mi_conf", "none"):
            raise InvalidInputError(f"unknown filter_mode {self.filter_mode!r}")
        if self.filter_direction not in ("above", "below"):
            raise InvalidInputError(f"unknown filter_direction {self.filter_direction!r}")


@dataclass
class StepCounters:
    """Operation counts per step, mirroring the per-iteration cost formula."""

    student_train_passes: int = 0
    mi_passes_per_view: int = 0
    perturb_passes_per_view: int = 0
    validation_passes: int = 0
    flops: float = 0.0
    baseline_flops: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class StepReport:
    epoch: int
    step: int
    loss_sup: float
    loss_unsup: float
    loss_adv: float
    loss_total: float
    tau_mi: float
    lambda_u: float
    lambda_adv: float
    accepted: tuple[int, int]
    mask_rate: tuple[float, float]
    impurity: tuple[float, float]
    zero_accepted: tuple[bool, bool]
    agreement: float
    mean_entropy: float
    meta_grad_inf: float
    counters: StepCounters


@dataclass
class TrainerState:
    students: tuple[StudentParams, StudentParams]
    opts: tuple[OptimizerState, OptimizerState]
    teacher: TeacherStrategy
    global_step: int = 0


class ConvergenceMonitor:
    """Per-epoch mean predictive entropy and cross-view agreement traces.

    Declares convergence when every epoch-over-epoch delta inside the window
    stays below its threshold; epochs without unlabeled statistics (NaN)
    never qualify.
    """

    def __init__(self, delta_entropy: float, delta_agreement: float, window: int):
        if window < 1:
            raise InvalidInputError("window must be >= 1")
        self.delta_entropy = delta_entropy
        self.delta_agreement = delta_agreement
        self.window = window
        self.entropy_trace: list[float] = []
        self.agreement_trace: list[float] = []

    def push(self, mean_entropy: float, agreement: float) -> None:
        if not math.isnan(agreement) and not 0.0 <= agreement <= 1.0:
            raise InvalidInputError("agreement must lie in [0, 1]")
        self.entropy_trace.append(mean_entropy)
        self.agreement_trace.append(agreement)

    def converged(self) -> bool:
        if len(self.entropy_trace) < self.window + 1:
            return False
        h = np.asarray(self.entropy_trace[-(self.window + 1):])
        a = np.asarray(self.agreement_trace[-(self.window + 1):])
        if np.any(np.isnan(h)) or np.any(np.isnan(a)):
            return False
        return bool(
            np.all(np.abs(np.diff(h)) < self.delta_entropy)
            and np.all(np.abs(np.diff(a)) < self.delta_agreement)
        )


def _view_key(cfg: TrainConfig, view: int) -> int:
    """The view entry of a seed; 0 for both views under ``tie_view_rng``."""
    return 0 if cfg.tie_view_rng else view


def _rng(cfg: TrainConfig, tag: int, epoch: int, step: int, view: int) -> np.random.Generator:
    key = [cfg.seed, tag, epoch, step, _view_key(cfg, view)]
    return np.random.default_rng(np.random.SeedSequence(key))


def _seed(cfg: TrainConfig, tag: int, epoch: int, step: int, view: int) -> int:
    return int(_rng(cfg, tag, epoch, step, view).integers(0, 2**63 - 1))


def _keeps(
    cfg: TrainConfig, tag: int, epoch: int, step: int, view: int, n: int
) -> np.ndarray | None:
    """Dropout keeps for n rows of one (step, view, term); None without dropout."""
    if cfg.dropout <= 0.0:
        return None
    return draw_keeps(_rng(cfg, tag, epoch, step, view), (n, cfg.hidden), cfg.dropout)


def init_state(cfg: TrainConfig, ds: TwoViewDataset, total_steps: int) -> TrainerState:
    dims = (ds.view1.shape[1], ds.view2.shape[1])
    classes = ds.n_classes
    if classes < 2:
        raise InvalidInputError("dataset must carry at least two labeled classes")
    students = []
    opts = []
    for view in (0, 1):
        key = [cfg.seed, _RNG_INIT, _view_key(cfg, view)]
        seed = int(np.random.default_rng(np.random.SeedSequence(key)).integers(0, 2**31 - 1))
        params = init_student(dims[view], cfg.hidden, classes, cfg.dropout, seed)
        bound = cfg.weight_norm_bound if cfg.weight_norm_bound > 0 else None
        opts.append(fresh_optimizer(params, cfg.lr, cfg.momentum, total_steps, bound))
        students.append(params)
    teacher = init_strategy(
        cfg.tau_init,
        cfg.lambda_u_init,
        cfg.lambda_adv_init,
        lr_teacher=cfg.eta_teacher,
        gate_temperature=cfg.gate_temperature,
    )
    return TrainerState(students=tuple(students), opts=tuple(opts), teacher=teacher)


def _apply_filter(cfg: TrainConfig, stats, tau: float) -> tuple[np.ndarray, float]:
    n = len(stats)
    if cfg.filter_mode == "mi":
        return mi_filter(stats, tau, cfg.filter_direction)
    if cfg.filter_mode == "confidence":
        accepted = confidence_filter(stats, cfg.tau_conf)
    elif cfg.filter_mode == "mi_conf":
        # Composed filter: the MI gate and the confidence gate must both pass.
        mi_acc, _ = mi_filter(stats, tau, cfg.filter_direction)
        accepted = np.intersect1d(mi_acc, confidence_filter(stats, cfg.tau_conf))
    else:
        accepted = np.arange(n)
    return accepted, (1.0 - accepted.size / n) if n else 0.0


def _gate_inputs(cfg: TrainConfig, stats, accepted: np.ndarray) -> tuple[np.ndarray, float]:
    """(MI values, gate sign) fed to the teacher's soft gate.

    In MI modes the real values flow, so the threshold gets a gradient with
    the sign of the configured acceptance direction; confidence-rejected rows
    of the composed mode and the non-MI modes are saturated to reproduce the
    hard accepted set with an exactly vanishing threshold derivative.
    """
    sign = 1.0 if cfg.filter_direction == "above" else -1.0
    if cfg.filter_mode == "mi":
        return stats.mi, sign
    if cfg.filter_mode == "mi_conf":
        values = stats.mi.copy()
        conf_ok = np.zeros(len(stats), dtype=bool)
        conf_ok[confidence_filter(stats, cfg.tau_conf)] = True
        values[~conf_ok] = -sign * 1e6
        return values, sign
    synth = np.full(len(stats), -1e6)
    synth[accepted] = 1e6
    return synth, 1.0


def train_step(
    state: TrainerState,
    cfg: TrainConfig,
    ds: TwoViewDataset,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    epoch: int,
    step: int,
) -> tuple[TrainerState, StepReport]:
    lab_rows, unl_rows, val_rows = rows
    s = state.students
    views_l = ds.views(lab_rows)
    y_l = ds.labels[lab_rows]
    views_u = ds.views(unl_rows)
    y_u_private = ds.labels[unl_rows]
    views_v = ds.views(val_rows)
    y_v = ds.labels[val_rows]
    n_u = unl_rows.size
    counters = StepCounters()
    p_mac = [s[0].d_in * s[0].d_h + s[0].d_h * s[0].n_classes,
             s[1].d_in * s[1].d_h + s[1].d_h * s[1].n_classes]

    tau, lu_m, la_m = state.teacher.mapped()
    lam_u = lu_m if cfg.unsup_enabled else 0.0
    lam_adv = la_m if cfg.adv_enabled else 0.0
    use_unsup = cfg.unsup_enabled and n_u > 0
    use_adv = cfg.adv_enabled and n_u > 0

    # One dropout-free hidden layer per view on the unlabeled batch serves the
    # MC passes, the attack's first objective and the teacher's soft gate.
    layers_u = [None, None]
    if use_unsup or use_adv:
        layers_u = [hidden_layer(s[view], views_u[view]) for view in (0, 1)]

    # (1)-(3) MC dropout, per-sample MI, cross-view filtering.
    stats = [None, None]
    accepted = [np.array([], dtype=np.int64)] * 2
    mask_rates = [0.0, 0.0]
    if use_unsup:
        for view in (0, 1):
            probs = mc_forward_batch(
                s[view], layers_u[view], cfg.mc_passes, _seed(cfg, _RNG_MC, epoch, step, view)
            )
            stats[view] = batch_statistics(probs)
            counters.mi_passes_per_view = cfg.mc_passes * n_u
            counters.flops += 2 * p_mac[view] * cfg.mc_passes * n_u
        for view in (0, 1):
            accepted[view], mask_rates[view] = _apply_filter(cfg, stats[view], tau)

    # (4) embedding attacks and the adversarial inputs.
    x_adv = [None, None]
    if use_adv:
        for view in (0, 1):
            delta = pgd_perturb_batch(
                s[view], layers_u[view], cfg.perturb, _rng(cfg, _RNG_PERTURB, epoch, step, view)
            )
            x_adv[view] = views_u[view] + delta
            counters.perturb_passes_per_view = cfg.perturb.steps * n_u
            counters.flops += 6 * p_mac[view] * cfg.perturb.steps * n_u

    # (5) loss assembly. Dropout keeps are drawn per (step, view, term); the
    # unsup keeps cover the whole unlabeled batch so the teacher's soft path
    # sees the identical masks.
    loss_sup = loss_unsup = loss_adv = 0.0
    grads_total: list[Gradients] = []
    keep_unsup_full = [None, None]
    keep_adv = [None, None]
    zero_accepted = [False, False]
    meta_batches = []
    for view in (0, 1):
        other = 1 - view
        l_sup, g_sup = loss_and_grads(
            s[view],
            views_l[view],
            y_l,
            "ce",
            _keeps(cfg, _RNG_KEEP_SUP, epoch, step, view, lab_rows.size),
        )
        loss_sup += l_sup
        g_total = g_sup
        train_rows = lab_rows.size

        if use_unsup:
            keep_unsup_full[view] = _keeps(cfg, _RNG_KEEP_UNSUP, epoch, step, view, n_u)
            acc = accepted[other]  # pseudo-labels sourced from the other view
            if acc.size:
                keep = keep_unsup_full[view][acc] if keep_unsup_full[view] is not None else None
                # Masked expectation over the unlabeled batch: the accepted
                # fraction scales the term, so sparse early acceptance keeps
                # the pseudo-label pressure conservative.
                l_u, g_u = loss_and_grads(
                    s[view],
                    views_u[view][acc],
                    stats[other].pseudo_label[acc],
                    "ce",
                    keep,
                )
                frac = acc.size / n_u
                loss_unsup += l_u * frac
                g_total = g_total.plus(g_u, lam_u * frac)
                train_rows += acc.size
            else:
                zero_accepted[view] = True

        adv_grad = None
        if use_adv:
            keep_adv[view] = _keeps(cfg, _RNG_KEEP_ADV, epoch, step, view, n_u)
            l_a, g_a = loss_and_grads(s[view], x_adv[view], None, "entropy", keep_adv[view])
            adv_grad = (s[view], g_a)
            loss_adv += l_a
            g_total = g_total.plus(g_a, lam_adv)
            train_rows += n_u

        grads_total.append(g_total)
        counters.flops += 6 * p_mac[view] * train_rows

        if use_unsup:
            gate_values, gate_sign = _gate_inputs(cfg, stats[other], accepted[other])
            meta_batches.append(
                MetaBatch(
                    x_unsup=layers_u[view],
                    pseudo_from_other=stats[other].pseudo_label,
                    mi_from_other=gate_values,
                    keep_unsup=keep_unsup_full[view],
                    x_adv=x_adv[view],
                    keep_adv=keep_adv[view],
                    x_val=views_v[view],
                    y_val=y_v,
                    gate_sign=gate_sign,
                    adv_grad=adv_grad,
                )
            )

    counters.student_train_passes = 2
    loss_total = loss_sup + lam_u * loss_unsup + lam_adv * loss_adv
    if not math.isfinite(loss_total):
        raise NonFiniteError("loss_total", epoch, step)

    # (7a) meta-gradient from the pre-step students (default ordering).
    lr_now = cosine_lr(cfg.lr, state.opts[0].step, state.opts[0].total_steps)
    teacher_due = (
        cfg.teacher_enabled
        and use_unsup
        and val_rows.size > 0
        and state.global_step % cfg.teacher_update_every == 0
    )
    meta_g = np.zeros(3)
    if teacher_due and not cfg.meta_after_step:
        meta_g = meta_grad(state.teacher, s, tuple(meta_batches), lr_now)

    # (6) student updates.
    new_students = []
    new_opts = []
    for view in (0, 1):
        p2, o2 = sgd_step(s[view], grads_total[view], state.opts[view])
        new_students.append(p2)
        new_opts.append(o2)

    # (7b) teacher update, after the students per the loop ordering.
    new_teacher = state.teacher
    if teacher_due:
        if cfg.meta_after_step:
            meta_g = meta_grad(state.teacher, tuple(new_students), tuple(meta_batches), lr_now)
        if not np.isfinite(meta_g).all():
            raise NonFiniteError("meta-gradient", epoch, step)
        new_teacher = teacher_step(state.teacher, meta_g)
        counters.validation_passes = 1
        for view in (0, 1):
            counters.flops += 2 * 6 * p_mac[view] * n_u + 6 * p_mac[view] * val_rows.size

    # Reference cost: a supervised step over the same data budget, counting
    # each consumed unlabeled row twice (the two-pass convention of standard
    # SSL baselines). For a supervised-only configuration this is the step's
    # own cost, so the ratio is exactly 1.
    n_u_used = n_u if (use_unsup or use_adv) else 0
    counters.baseline_flops = sum(
        6 * p_mac[v] * (lab_rows.size + 2 * n_u_used) for v in (0, 1)
    )

    if use_unsup:
        agreement = float((stats[0].pseudo_label == stats[1].pseudo_label).mean())
        mean_entropy = float(
            np.concatenate([stats[0].predictive_entropy, stats[1].predictive_entropy]).mean()
        )
        imp = tuple(
            impurity(stats[v].pseudo_label, accepted[v], y_u_private) for v in (0, 1)
        )
        acc_counts = (int(accepted[0].size), int(accepted[1].size))
    else:
        agreement = float("nan")
        mean_entropy = float("nan")
        imp = (float("nan"), float("nan"))
        acc_counts = (0, 0)

    report = StepReport(
        epoch=epoch,
        step=step,
        loss_sup=float(loss_sup),
        loss_unsup=float(loss_unsup),
        loss_adv=float(loss_adv),
        loss_total=float(loss_total),
        tau_mi=tau,
        lambda_u=lam_u,
        lambda_adv=lam_adv,
        accepted=acc_counts,
        mask_rate=(mask_rates[0], mask_rates[1]),
        impurity=imp,
        zero_accepted=(zero_accepted[0], zero_accepted[1]),
        agreement=agreement,
        mean_entropy=mean_entropy,
        meta_grad_inf=float(np.abs(meta_g).max()),
        counters=counters,
    )
    new_state = TrainerState(
        students=tuple(new_students),
        opts=tuple(new_opts),
        teacher=new_teacher,
        global_step=state.global_step + 1,
    )
    return new_state, report


def evaluate(
    students: tuple[StudentParams, StudentParams],
    ds: TwoViewDataset,
    split: int = TEST,
    attack: PerturbConfig | None = None,
) -> dict:
    """Deterministic evaluation of the two-student ensemble on one split.

    The prediction is the argmax of the mean of the two evaluation-mode
    distributions. Robust accuracy counts a sample only if both the clean and
    the attacked ensemble predictions are correct, so it can never exceed the
    clean accuracy.
    """
    rows = ds.indices(split)
    if rows.size == 0:
        raise InvalidInputError(f"split {split} is empty")
    x1, x2 = ds.views(rows)
    y = ds.labels[rows]
    # The clean pass and the attack's first objective share each hidden layer.
    h1, h2 = hidden_layer(students[0], x1), hidden_layer(students[1], x2)
    p1 = softmax_rows(forward_batch(students[0], h1)[0])
    p2 = softmax_rows(forward_batch(students[1], h2)[0])
    ens = 0.5 * (p1 + p2)
    pred = np.argmax(ens, axis=1)
    known = y >= 0
    accuracy = float((pred[known] == y[known]).mean()) if known.any() else float("nan")
    out = {
        "accuracy": accuracy,
        "agreement": float((np.argmax(p1, axis=1) == np.argmax(p2, axis=1)).mean()),
        "mean_entropy": float(entropy_rows(ens).mean()),
        "n": int(rows.size),
    }
    if attack is not None:
        d1 = pgd_perturb_batch(students[0], h1, attack)
        d2 = pgd_perturb_batch(students[1], h2, attack)
        p1a = softmax_rows(forward_batch(students[0], x1 + d1)[0])
        p2a = softmax_rows(forward_batch(students[1], x2 + d2)[0])
        pred_a = np.argmax(0.5 * (p1a + p2a), axis=1)
        robust = (pred[known] == y[known]) & (pred_a[known] == y[known])
        out["pgd_robust_accuracy"] = float(robust.mean()) if known.any() else float("nan")
    return out


def eval_attack_config(cfg: TrainConfig) -> PerturbConfig:
    """The documented robustness attack: PGD at the training budget."""
    eps = cfg.perturb.epsilon
    return PerturbConfig(
        epsilon=eps,
        gamma=0.0,
        steps=cfg.eval_attack_steps,
        step_size=eps * cfg.eval_attack_step_frac,
    )


def bin_error_histogram(
    students: tuple[StudentParams, StudentParams],
    ds: TwoViewDataset,
    bins: int = 5,
) -> list[dict]:
    """Pseudo-label mismatch rates across equal-width confidence bins.

    Uses the unlabeled rows' private labels; a bin with no samples reports a
    None rate rather than zero.
    """
    if bins < 2:
        raise InvalidInputError("need at least 2 bins")
    rows = ds.indices(UNLABELED)
    rows = rows[ds.labels[rows] >= 0]
    if rows.size == 0:
        raise InvalidInputError("no unlabeled rows with private labels")
    x1, x2 = ds.views(rows)
    y = ds.labels[rows]
    ens = 0.5 * (
        softmax_rows(forward_batch(students[0], x1)[0])
        + softmax_rows(forward_batch(students[1], x2)[0])
    )
    conf = ens.max(axis=1)
    pseudo = np.argmax(ens, axis=1)
    idx = np.minimum((conf * bins).astype(int), bins - 1)
    out = []
    for b in range(bins):
        members = idx == b
        count = int(members.sum())
        rate = float((pseudo[members] != y[members]).mean()) if count else None
        out.append(
            {"lo": b / bins, "hi": (b + 1) / bins, "count": count, "mismatch_rate": rate}
        )
    assert sum(row["count"] for row in out) == rows.size
    return out


@dataclass
class TrainingReport:
    config: TrainConfig
    epoch_rows: list[dict]
    step_reports: list[StepReport]
    stop_reason: str
    final_eval: dict
    students: tuple[StudentParams, StudentParams]
    teacher: TeacherStrategy
    total_steps: int


def _nanmean(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.nanmean(arr)) if arr.size and not np.all(np.isnan(arr)) else float("nan")


def run_training(cfg: TrainConfig, ds: TwoViewDataset) -> TrainingReport:
    iterator = BatchIterator(
        ds,
        BatchPlan(cfg.labeled_batch, cfg.unlabeled_ratio, cfg.seed, cfg.balanced_labeled),
    )
    steps_per_epoch = cfg.steps_per_epoch or iterator.steps_per_epoch
    total_steps = max(cfg.epochs * steps_per_epoch, 1)
    state = init_state(cfg, ds, total_steps)
    history = StrategyHistory(window=cfg.stability_window)
    scores: list[float] = []
    monitor = ConvergenceMonitor(cfg.delta_entropy, cfg.delta_agreement, cfg.ea_window)
    epoch_rows: list[dict] = []
    step_reports: list[StepReport] = []
    stop_reason = "epochs_exhausted" if cfg.epochs > 0 else "no_epochs"
    has_validation = ds.indices(VALIDATION).size > 0

    for epoch in range(cfg.epochs):
        for step in range(steps_per_epoch):
            rows = iterator.next_batch()
            state, report = train_step(state, cfg, ds, rows, epoch, step)
            step_reports.append(report)
        epoch_steps = step_reports[-steps_per_epoch:]
        history.push(state.teacher.mapped())
        if len(history) >= 2:
            scores.append(stability_score(history))
        mean_h = _nanmean([r.mean_entropy for r in epoch_steps])
        mean_a = _nanmean([r.agreement for r in epoch_steps])
        monitor.push(mean_h, mean_a)
        val_metrics = (
            evaluate(state.students, ds, VALIDATION) if has_validation else {"accuracy": float("nan")}
        )
        tau, lam_u, lam_adv = state.teacher.mapped()
        epoch_rows.append(
            {
                "epoch": epoch,
                "loss_sup": _nanmean([r.loss_sup for r in epoch_steps]),
                "loss_unsup": _nanmean([r.loss_unsup for r in epoch_steps]),
                "loss_adv": _nanmean([r.loss_adv for r in epoch_steps]),
                "tau_mi": tau,
                "lambda_u": lam_u if cfg.unsup_enabled else 0.0,
                "lambda_adv": lam_adv if cfg.adv_enabled else 0.0,
                "accuracy": val_metrics["accuracy"],
                "mask_rate": _nanmean([np.mean(r.mask_rate) for r in epoch_steps]),
                "impurity": _nanmean([_nanmean(r.impurity) for r in epoch_steps]),
                "mean_entropy": mean_h,
                "agreement": mean_a,
                "stability_score": scores[-1] if scores else float("nan"),
            }
        )
        if cfg.stability_stop and should_stop(scores, cfg.stop_epsilon, cfg.stop_patience):
            stop_reason = "teacher_stability"
            break
        if cfg.ea_stop and monitor.converged():
            stop_reason = "entropy_agreement"
            break

    # The last update is checked by no later loss.
    final = [p.vector for p in state.students] + [state.teacher.z]
    if step_reports and not all(np.isfinite(v).all() for v in final):
        raise NonFiniteError("parameters", step_reports[-1].epoch, step_reports[-1].step)

    eval_split = TEST if ds.indices(TEST).size else VALIDATION
    if ds.indices(eval_split).size:
        final_eval = evaluate(state.students, ds, eval_split, eval_attack_config(cfg))
        final_eval["split"] = {TEST: "test", VALIDATION: "validation"}[eval_split]
    else:
        final_eval = {}
    return TrainingReport(
        config=cfg,
        epoch_rows=epoch_rows,
        step_reports=step_reports,
        stop_reason=stop_reason,
        final_eval=final_eval,
        students=state.students,
        teacher=state.teacher,
        total_steps=state.global_step,
    )


def cost_summary(reports: list[StepReport], cfg: TrainConfig) -> dict:
    """Aggregate counters and the cost ratio against the supervised reference."""
    if not reports:
        raise InvalidInputError("need at least one recorded step")
    total = StepCounters()
    for r in reports:
        total.student_train_passes += r.counters.student_train_passes
        total.mi_passes_per_view += r.counters.mi_passes_per_view
        total.perturb_passes_per_view += r.counters.perturb_passes_per_view
        total.validation_passes += r.counters.validation_passes
        total.flops += r.counters.flops
        total.baseline_flops += r.counters.baseline_flops
    n = len(reports)
    return {
        "steps": n,
        "per_step": {
            "student_train_passes": total.student_train_passes / n,
            "mi_passes_per_view": total.mi_passes_per_view / n,
            "perturb_passes_per_view": total.perturb_passes_per_view / n,
            "validation_passes": total.validation_passes / n,
            "flops": total.flops / n,
        },
        "totals": total.as_dict(),
        "ratio_vs_supervised": total.flops / total.baseline_flops
        if total.baseline_flops
        else float("nan"),
        "mc_passes_config": cfg.mc_passes,
        "perturb_steps_config": cfg.perturb.steps,
    }


# ---------------------------------------------------------------------------
# Model container ("TRCM"): both students plus the raw teacher vector.

MODEL_MAGIC = b"TRCM"
MODEL_VERSION = 1


def save_model(path, students: tuple[StudentParams, StudentParams], teacher: TeacherStrategy):
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<H", MODEL_VERSION))
        for p in students:
            fh.write(struct.pack("<IIId", p.d_in, p.d_h, p.n_classes, p.dropout_rate))
            fh.write(np.ascontiguousarray(p.vector, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(teacher.z, dtype="<f8").tobytes())
        fh.write(struct.pack("<dd", teacher.lr_teacher, teacher.gate_temperature))


def load_model(path) -> tuple[tuple[StudentParams, StudentParams], TeacherStrategy]:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, 0)
        if magic != MODEL_MAGIC:
            raise FormatError(path, 0, f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, path, 4))
        if version != MODEL_VERSION:
            raise FormatError(path, 4, f"unsupported version {version}")
        offset = 6
        students = []
        for _ in range(2):
            header = _read_exact(fh, 20, path, offset)
            d_in, d_h, n_classes, dropout = struct.unpack("<IIId", header)
            offset += 20
            count = 8 * (d_in * d_h + d_h + d_h * n_classes + n_classes)
            vector = np.frombuffer(_read_exact(fh, count, path, offset), dtype="<f8").copy()
            students.append(StudentParams(vector, (d_in, d_h, n_classes), dropout))
            offset += count
        z = np.frombuffer(_read_exact(fh, 24, path, offset), dtype="<f8").copy()
        offset += 24
        lr_teacher, temperature = struct.unpack("<dd", _read_exact(fh, 16, path, offset))
        offset += 16
        if fh.read(1):
            raise FormatError(path, offset, "trailing bytes after payload")
    teacher = TeacherStrategy(z=z, lr_teacher=lr_teacher, gate_temperature=temperature)
    return (students[0], students[1]), teacher


# ---------------------------------------------------------------------------
# Report serialization.

CURVE_COLUMNS = [
    "epoch",
    "loss_sup",
    "loss_unsup",
    "loss_adv",
    "tau_mi",
    "lambda_u",
    "lambda_adv",
    "accuracy",
    "mask_rate",
    "impurity",
    "mean_entropy",
    "agreement",
]


def write_curves_csv(path, epoch_rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CURVE_COLUMNS) + "\n")
        for row in epoch_rows:
            fh.write(",".join(repr(row[c]) if c != "epoch" else str(row[c]) for c in CURVE_COLUMNS) + "\n")


def write_strategy_trace_csv(path, epoch_rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,tau_mi,lambda_u,lambda_adv\n")
        for row in epoch_rows:
            fh.write(
                f"{row['epoch']},{row['tau_mi']!r},{row['lambda_u']!r},{row['lambda_adv']!r}\n"
            )


def report_payload(report: TrainingReport, ds: TwoViewDataset | None = None) -> dict:
    """JSON-ready summary of one run. Contains no wall-clock fields so that
    identical (config, seed) runs serialize bit-identically."""
    payload = {
        "seed": report.config.seed,
        "stop_reason": report.stop_reason,
        "epochs_run": len(report.epoch_rows),
        "total_steps": report.total_steps,
        "final_eval": report.final_eval,
        "final_strategy": dict(
            zip(("tau_mi", "lambda_u", "lambda_adv"), report.teacher.mapped())
        ),
        "cost": cost_summary(report.step_reports, report.config)
        if report.step_reports
        else {},
        "epochs": report.epoch_rows,
    }
    if ds is not None:
        rows = ds.indices(UNLABELED)
        if rows.size and np.any(ds.labels[rows] >= 0):
            payload["confidence_bins"] = bin_error_histogram(report.students, ds, bins=5)
    return payload


def dump_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
