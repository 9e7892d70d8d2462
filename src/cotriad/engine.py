"""The training loop: cross-view pseudo-labeling, loss assembly, updates.

One step executes, in order: MC-dropout statistics on both views, per-sample
mutual information, cross-view filtering through the teacher's threshold
(view 1's accepted pseudo-labels supervise student 2 and vice versa),
embedding attacks and the adversarial entropy term, the supervised term, one
SGD step per student on the weighted total, then the teacher meta-update.
The meta-gradient is taken through a virtual update of the pre-step
students, reusing the step's adversarial-entropy gradient.

Every random draw derives from (config seed, purpose tag, epoch, step, view),
so a run is a pure function of (config, dataset).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .data import (
    SPLIT_NAMES,
    TEST,
    UNLABELED,
    VALIDATION,
    BatchIterator,
    TwoViewDataset,
    _read_exact,
)
from .errors import BoundError, FormatError, InvalidInputError, NonFiniteError
from .generator import PerturbConfig, pgd_perturb_batch
from .numerics import entropy_rows, softmax_rows, stream
from .settings import check_fields, setting
from .student import (
    StudentParams,
    cosine_lr,
    draw_keeps,
    forward_batch,
    hidden_layer,
    init_student,
    loss_and_grads,
    mc_forward_batch,
    sgd_step,
)
from .teacher import (
    MIN_LR_TEACHER,
    MIN_TEMPERATURE,
    MetaBatch,
    TeacherStrategy,
    init_strategy,
    meta_grad,
    should_stop,
    stability_score,
    teacher_step,
)
from .uncertainty import apply_filter, batch_statistics, impurity

# Purpose tags for per-step RNG substreams.
_RNG_INIT = 10
_RNG_MC = 3
_RNG_PERTURB = 4
_RNG_KEEP_SUP = 5
_RNG_KEEP_UNSUP = 6
_RNG_KEEP_ADV = 7

EVAL_ATTACK_STEPS = 10


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = setting("train.epochs", 30, "training epochs", ">= 0")
    labeled_batch: int = setting("train.labeled_batch", 64, "labeled batch size", ">= 1")
    unlabeled_ratio: int = setting("train.mu", 7, "unlabeled-to-labeled batch ratio", ">= 1")
    lr: float = setting("train.eta", 0.03, "student base learning rate", "> 0")
    momentum: float = setting("train.momentum", 0.9, "SGD momentum", "[0, 1)")
    mc_passes: int = setting(
        "train.mc_passes", 5, "MC dropout passes per uncertainty estimate", ">= 0")
    hidden: int = setting("train.hidden", 32, "student hidden width", ">= 1")
    dropout: float = setting("train.dropout", 0.1, "student hidden dropout rate", "[0, 1)")
    weight_norm_bound: float = setting(
        "train.weight_norm", 0.0, "L2 ball radius for weights, 0 = off", ">= 0 (0 = off)")
    unsup_enabled: bool = setting("train.unsup_enabled", True, "cross-view pseudo-label term")
    adv_enabled: bool = setting("train.adv_enabled", True, "adversarial entropy term")
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    filter_mode: str = setting(
        "filter.mode", "mi", "mi | confidence | mi_conf | none", "mi | confidence | mi_conf | none")
    filter_direction: str = setting(
        "filter.direction", "above", "accept above or below the MI threshold", "above | below")
    tau_conf: float = setting(
        "filter.tau_conf", 0.95, "confidence threshold for the baseline filter", "(0, 1]")
    teacher_enabled: bool = setting("teacher.enabled", True, "meta-learned teacher updates")
    tau_init: float = setting("teacher.tau_init", 0.05, "initial MI threshold", "(0, 1)")
    lambda_u_init: float = setting(
        "teacher.lambda_u_init", 0.5, "initial unsupervised weight", "(0, 1)")
    lambda_adv_init: float = setting(
        "teacher.lambda_adv_init", 0.5, "initial adversarial weight", "(0, 1)")
    eta_teacher: float = setting(
        "teacher.eta_t", 0.01, "teacher meta learning rate", f">= {MIN_LR_TEACHER}")
    gate_temperature: float = setting(
        "teacher.temperature", 0.01, "soft acceptance gate temperature",
        f">= {MIN_TEMPERATURE!r} (the smallest normal float)")
    teacher_update_every: int = setting(
        "teacher.update_every", 1, "meta-update period in steps", ">= 1")
    stop_epsilon: float = setting("stop.epsilon", 0.0, "stability score threshold", ">= 0 (0 = off)")
    stop_patience: int = setting("stop.patience", 5, "consecutive epochs below threshold", ">= 1")
    stability_window: int = setting("stop.window", 10, "stability variance window", ">= 2")
    delta_entropy: float = setting("stop.delta_h", 0.0, "entropy delta threshold", ">= 0 (0 = off)")
    delta_agreement: float = setting("stop.delta_a", 0.0, "agreement delta threshold", ">= 0 (0 = off)")
    seed: int = 1

    def __post_init__(self):
        check_fields(self)
        need = 2 if self.filter_mode in ("mi", "mi_conf") else 1
        if self.unsup_enabled and self.mc_passes < need:
            rule = f"{{0}} must be >= {need} with {{1}} = {self.filter_mode}"
            raise BoundError(rule, "mc_passes", "filter_mode")
        if self.lambda_u_init + self.lambda_adv_init > 1.0:
            raise BoundError("{1} + {0} must not exceed 1", "lambda_adv_init", "lambda_u_init")

    def weights(self, mapped) -> tuple[float, float, float]:
        """A mapped teacher triple with the weight of each disabled term set to 0."""
        tau, lam_u, lam_adv = mapped
        return tau, lam_u if self.unsup_enabled else 0.0, lam_adv if self.adv_enabled else 0.0


@dataclass
class StepCounters:
    """Operation counts per step, mirroring the per-iteration cost formula."""

    student_train_passes: int = 0
    mi_passes_per_view: int = 0
    perturb_passes_per_view: int = 0
    validation_passes: int = 0
    flops: float = 0.0
    baseline_flops: float = 0.0


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
    """The loop's state: the students, their SGD velocities, the teacher, and
    the step count that drives the cosine rate and the teacher's period."""

    students: tuple[StudentParams, StudentParams]
    velocities: tuple[np.ndarray, np.ndarray]
    teacher: TeacherStrategy
    total_steps: int
    step: int = 0


def converged(epoch_rows: list[dict], delta_h: float, delta_a: float, patience: int) -> bool:
    """True when every epoch-over-epoch change of ``mean_entropy`` and
    ``agreement`` in the last ``patience + 1`` rows stays below its threshold;
    a NaN change (an epoch without unlabeled statistics) never does."""
    last = epoch_rows[-(patience + 1):]
    return all(
        should_stop(np.abs(np.diff([row[key] for row in last])), delta, patience)
        for key, delta in (("mean_entropy", delta_h), ("agreement", delta_a))
    )


def _rng(cfg: TrainConfig, tag: int, epoch: int, step: int, view: int) -> np.random.Generator:
    return stream(cfg.seed, tag, epoch, step, view)


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
    for view in (0, 1):
        seed = int(stream(cfg.seed, _RNG_INIT, view).integers(0, 2**31 - 1))
        students.append(init_student(dims[view], cfg.hidden, classes, cfg.dropout, seed))
    teacher = init_strategy(
        cfg.tau_init,
        cfg.lambda_u_init,
        cfg.lambda_adv_init,
        lr_teacher=cfg.eta_teacher,
        gate_temperature=cfg.gate_temperature,
    )
    velocities = tuple(np.zeros_like(p.vector) for p in students)
    return TrainerState(tuple(students), velocities, teacher, total_steps)


@dataclass
class StepParts:
    """What one step builds from its rows, before any update. A disabled
    term has weight 0 in ``mapped`` and no hidden ``layers`` (unless the other
    term runs), MC ``stats`` or ``meta_batches``."""

    mapped: tuple[float, float, float]
    layers: list
    stats: list
    accepted: list
    mask_rates: list
    losses: tuple[float, float, float]
    grads: list
    meta_batches: tuple


def assemble_step(
    students: tuple[StudentParams, StudentParams],
    teacher: TeacherStrategy,
    cfg: TrainConfig,
    ds: TwoViewDataset,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    mc_seed,
    attack_rng,
    keeps,
) -> StepParts:
    """MC statistics, filter, attack, loss gradients and meta-batches of one step.

    ``rows`` are the (labeled, unlabeled, validation) rows. ``mc_seed(view)``
    and ``attack_rng(view)`` give each view's MC seed and attack stream, and
    ``keeps(tag, view, n)`` the dropout keeps of one (view, term) on n rows,
    None in evaluation mode. Each is called only when its term draws from it
    (``pgd_perturb_batch`` calls ``attack_rng`` only at gamma > 0), and each
    must give a fresh draw per (purpose, view), so the order of the calls
    does not matter. View 0's generator block runs before view 1's, both in
    the caller.
    """
    lab_rows, unl_rows, val_rows = rows
    s = students
    views_l = ds.views(lab_rows)
    y_l = ds.labels[lab_rows]
    n_u = unl_rows.size

    tau, lam_u, lam_adv = cfg.weights(teacher.mapped())

    # Gather only the rows a term reads.
    if cfg.unsup_enabled or cfg.adv_enabled:
        views_u = ds.views(unl_rows)
    if cfg.unsup_enabled:
        views_v = ds.views(val_rows)
        y_v = ds.labels[val_rows]

    def generator_block(view: int):
        layer = view_stats = gate = view_x_adv = None
        view_accepted, mask_rate = np.array([], dtype=np.int64), 0.0
        # One dropout-free hidden layer on the unlabeled batch serves the MC
        # passes, the attack's first objective and the teacher's soft gate.
        if cfg.unsup_enabled or cfg.adv_enabled:
            layer = hidden_layer(s[view], views_u[view])
        # (1)-(3) MC dropout, per-sample MI, filtering.
        if cfg.unsup_enabled:
            probs = mc_forward_batch(s[view], layer, cfg.mc_passes, mc_seed(view))
            view_stats = batch_statistics(probs)
            view_accepted, mask_rate, gate = apply_filter(cfg, view_stats, tau)
        # (4) the embedding attack and the adversarial inputs.
        if cfg.adv_enabled:
            delta = pgd_perturb_batch(s[view], layer, cfg.perturb, lambda: attack_rng(view))
            view_x_adv = views_u[view] + delta
        return layer, view_stats, view_accepted, mask_rate, gate, view_x_adv

    layers, stats, accepted, mask_rates, gates, x_adv = map(
        list, zip(generator_block(0), generator_block(1)))

    # (5) loss assembly. Dropout keeps are drawn per (view, term); the unsup
    # keeps cover the whole unlabeled batch so the teacher's soft path sees
    # the identical masks.
    loss_sup = loss_unsup = loss_adv = 0.0
    grads: list[np.ndarray] = []
    meta_batches = []
    for view in (0, 1):
        other = 1 - view
        l_sup, g_total = loss_and_grads(
            s[view], views_l[view], y_l, "ce", keeps(_RNG_KEEP_SUP, view, lab_rows.size)
        )
        loss_sup += l_sup

        keep_unsup = None
        if cfg.unsup_enabled:
            keep_unsup = keeps(_RNG_KEEP_UNSUP, view, n_u)
            acc = accepted[other]  # pseudo-labels sourced from the other view
            if acc.size:
                # Masked expectation over the unlabeled batch: the accepted
                # fraction scales the term, so sparse early acceptance keeps
                # the pseudo-label pressure conservative.
                l_u, g_u = loss_and_grads(
                    s[view],
                    views_u[view][acc],
                    stats[other].pseudo_label[acc],
                    "ce",
                    keep_unsup[acc] if keep_unsup is not None else None,
                )
                frac = acc.size / n_u
                loss_unsup += l_u * frac
                g_total = g_total + lam_u * frac * g_u

        g_a = None
        if cfg.adv_enabled:
            l_a, g_a = loss_and_grads(
                s[view], x_adv[view], None, "entropy", keeps(_RNG_KEEP_ADV, view, n_u))
            loss_adv += l_a
            g_total = g_total + lam_adv * g_a
        grads.append(g_total)

        if cfg.unsup_enabled:
            gate_values, gate_sign = gates[other]
            meta_batches.append(
                MetaBatch(
                    x_unsup=layers[view],
                    pseudo_from_other=stats[other].pseudo_label,
                    mi_from_other=gate_values,
                    keep_unsup=keep_unsup,
                    adv_grad=g_a,
                    x_val=views_v[view],
                    y_val=y_v,
                    gate_sign=gate_sign,
                )
            )

    losses = (loss_sup, loss_unsup, loss_adv)
    return StepParts((tau, lam_u, lam_adv), layers, stats, accepted, mask_rates, losses, grads,
                     tuple(meta_batches))


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
    parts = assemble_step(
        s, state.teacher, cfg, ds, rows,
        mc_seed=lambda view: int(_rng(cfg, _RNG_MC, epoch, step, view).integers(0, 2**63 - 1)),
        attack_rng=lambda view: _rng(cfg, _RNG_PERTURB, epoch, step, view),
        keeps=lambda tag, view, n: _keeps(cfg, tag, epoch, step, view, n),
    )
    tau, lam_u, lam_adv = parts.mapped
    loss_sup, loss_unsup, loss_adv = parts.losses
    loss_total = loss_sup + lam_u * loss_unsup + lam_adv * loss_adv
    if not math.isfinite(loss_total):
        raise NonFiniteError("loss_total", epoch, step)

    # (6) student updates, then (7) the teacher's meta-update, taken at the
    # pre-step students. One cosine rate drives all three.
    lr_now = cosine_lr(cfg.lr, state.step, state.total_steps)
    new_students, new_velocities = zip(*(
        sgd_step(s[v], parts.grads[v], state.velocities[v], lr_now, cfg.momentum,
                 cfg.weight_norm_bound)
        for v in (0, 1)
    ))
    due = cfg.teacher_enabled and cfg.unsup_enabled and state.step % cfg.teacher_update_every == 0
    meta_g = np.zeros(3)
    new_teacher = state.teacher
    if due:
        meta_g = meta_grad(state.teacher, s, parts.meta_batches, lr_now)
        if not np.isfinite(meta_g).all():
            raise NonFiniteError("meta-gradient", epoch, step)
        new_teacher = teacher_step(state.teacher, meta_g)

    # Analytic FLOPs. A student pass over one row costs p_mac multiply-adds:
    # 2 p_mac FLOPs forward only (the MC passes), 6 p_mac forward and backward
    # (the attack steps; the labeled, accepted and attacked training rows; the
    # meta-update's two unlabeled passes and its validation pass).
    n_l, n_u, n_v = lab_rows.size, unl_rows.size, val_rows.size
    n_mc = cfg.mc_passes * n_u if cfg.unsup_enabled else 0
    n_attack = cfg.perturb.steps * n_u if cfg.adv_enabled else 0
    n_adv = n_u if cfg.adv_enabled else 0
    p_mac = [p.d_in * p.d_h + p.d_h * p.n_classes for p in s]
    flops = sum(
        p_mac[v] * (2 * n_mc + 6 * n_attack + 6 * (n_l + parts.accepted[1 - v].size + n_adv)
                    + due * (12 * n_u + 6 * n_v))
        for v in (0, 1)
    )
    # Reference cost: a supervised step over the same data budget, counting
    # each consumed unlabeled row twice (the two-pass convention of standard
    # SSL baselines). For a supervised-only configuration this is the step's
    # own cost, so the ratio is exactly 1.
    n_u_used = n_u if (cfg.unsup_enabled or cfg.adv_enabled) else 0
    counters = StepCounters(
        student_train_passes=2,
        mi_passes_per_view=n_mc,
        perturb_passes_per_view=n_attack,
        validation_passes=int(due),
        flops=float(flops),
        baseline_flops=sum(6 * p_mac[v] * (n_l + 2 * n_u_used) for v in (0, 1)),
    )

    stats, accepted = parts.stats, parts.accepted
    if cfg.unsup_enabled:
        agreement = float((stats[0].pseudo_label == stats[1].pseudo_label).mean())
        mean_entropy = float(
            np.concatenate([stats[0].predictive_entropy, stats[1].predictive_entropy]).mean()
        )
        y_u_private = ds.labels[unl_rows]
        imp = tuple(
            impurity(stats[v].pseudo_label, accepted[v], y_u_private) for v in (0, 1)
        )
    else:
        agreement = float("nan")
        mean_entropy = float("nan")
        imp = (float("nan"), float("nan"))

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
        accepted=(int(accepted[0].size), int(accepted[1].size)),
        mask_rate=(parts.mask_rates[0], parts.mask_rates[1]),
        impurity=imp,
        zero_accepted=tuple(cfg.unsup_enabled and not accepted[1 - v].size for v in (0, 1)),
        agreement=agreement,
        mean_entropy=mean_entropy,
        meta_grad_inf=float(np.abs(meta_g).max()),
        counters=counters,
    )
    return TrainerState(
        new_students, new_velocities, new_teacher, state.total_steps, state.step + 1
    ), report


def _ensemble(students, x1, x2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each student's evaluation-mode distribution on its view, and their mean."""
    p1 = softmax_rows(forward_batch(students[0], x1)[0])
    p2 = softmax_rows(forward_batch(students[1], x2)[0])
    return p1, p2, 0.5 * (p1 + p2)


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
    p1, p2, ens = _ensemble(students, h1, h2)
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
        pred_a = np.argmax(_ensemble(students, x1 + d1, x2 + d2)[2], axis=1)
        robust = (pred[known] == y[known]) & (pred_a[known] == y[known])
        out["pgd_robust_accuracy"] = float(robust.mean()) if known.any() else float("nan")
    return out


def eval_split(ds: TwoViewDataset) -> int:
    """The split a finished run is evaluated on: test, or validation when
    there are no test rows."""
    return TEST if ds.indices(TEST).size else VALIDATION


def eval_attack_config(cfg: TrainConfig) -> PerturbConfig:
    """The documented robustness attack: EVAL_ATTACK_STEPS steps of
    epsilon / 4 at the training budget epsilon."""
    eps = cfg.perturb.epsilon
    return PerturbConfig(epsilon=eps, gamma=0.0, steps=EVAL_ATTACK_STEPS, step_size=eps * 0.25)


def bin_error_histogram(
    students: tuple[StudentParams, StudentParams],
    ds: TwoViewDataset,
) -> list[dict]:
    """Pseudo-label mismatch rates across five equal-width confidence bins.

    Uses the unlabeled rows' private labels; a bin with no samples reports a
    None rate rather than zero.
    """
    bins = 5
    rows = ds.indices(UNLABELED)
    rows = rows[ds.labels[rows] >= 0]
    if rows.size == 0:
        raise InvalidInputError("no unlabeled rows with private labels")
    x1, x2 = ds.views(rows)
    y = ds.labels[rows]
    ens = _ensemble(students, x1, x2)[2]
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
        ds, cfg.labeled_batch, cfg.labeled_batch * cfg.unlabeled_ratio, cfg.seed
    )
    total_steps = max(cfg.epochs * iterator.steps_per_epoch, 1)
    state = init_state(cfg, ds, total_steps)
    trace: list[tuple[float, float, float]] = []  # the teacher's mapped triple per epoch
    epoch_rows: list[dict] = []
    step_reports: list[StepReport] = []
    stop_reason = "epochs_exhausted" if cfg.epochs > 0 else "no_epochs"

    for epoch in range(cfg.epochs):
        for step in range(iterator.steps_per_epoch):
            rows = iterator.next_batch()
            state, report = train_step(state, cfg, ds, rows, epoch, step)
            step_reports.append(report)
        epoch_steps = step_reports[-iterator.steps_per_epoch:]
        trace.append(state.teacher.mapped())
        val_metrics = evaluate(state.students, ds, VALIDATION)
        tau, lam_u, lam_adv = cfg.weights(trace[-1])
        epoch_rows.append(
            {
                "epoch": epoch,
                "loss_sup": _nanmean([r.loss_sup for r in epoch_steps]),
                "loss_unsup": _nanmean([r.loss_unsup for r in epoch_steps]),
                "loss_adv": _nanmean([r.loss_adv for r in epoch_steps]),
                "tau_mi": tau,
                "lambda_u": lam_u,
                "lambda_adv": lam_adv,
                "accuracy": val_metrics["accuracy"],
                "mask_rate": _nanmean([np.mean(r.mask_rate) for r in epoch_steps]),
                "impurity": _nanmean([_nanmean(r.impurity) for r in epoch_steps]),
                "mean_entropy": _nanmean([r.mean_entropy for r in epoch_steps]),
                "agreement": _nanmean([r.agreement for r in epoch_steps]),
                "stability_score": stability_score(trace[-cfg.stability_window:])
                if len(trace) >= 2 else float("nan"),
            }
        )
        # Epoch 0 has no stability score. A threshold of 0 never fires: no
        # score or |change| is below it.
        if should_stop(
            [row["stability_score"] for row in epoch_rows[1:]], cfg.stop_epsilon, cfg.stop_patience
        ):
            stop_reason = "teacher_stability"
            break
        if converged(epoch_rows, cfg.delta_entropy, cfg.delta_agreement, cfg.stop_patience):
            stop_reason = "entropy_agreement"
            break

    # The last update is checked by no later loss.
    final = [p.vector for p in state.students] + [state.teacher.z]
    if step_reports and not all(np.isfinite(v).all() for v in final):
        raise NonFiniteError("parameters", step_reports[-1].epoch, step_reports[-1].step)

    split = eval_split(ds)
    final_eval = evaluate(state.students, ds, split, eval_attack_config(cfg))
    final_eval["split"] = SPLIT_NAMES[split]
    return TrainingReport(
        config=cfg,
        epoch_rows=epoch_rows,
        step_reports=step_reports,
        stop_reason=stop_reason,
        final_eval=final_eval,
        students=state.students,
        teacher=state.teacher,
        total_steps=state.step,
    )


def cost_summary(reports: list[StepReport], cfg: TrainConfig) -> dict:
    """Aggregate counters and the cost ratio against the supervised reference."""
    if not reports:
        raise InvalidInputError("need at least one recorded step")
    # Each total starts from its field's default, so a float counter totals
    # to a float even when every step recorded an int.
    totals = {
        f.name: sum((getattr(r.counters, f.name) for r in reports), f.default)
        for f in fields(StepCounters)
    }
    n = len(reports)
    return {
        "steps": n,
        "per_step": {k: v / n for k, v in totals.items() if k != "baseline_flops"},
        "totals": totals,
        "ratio_vs_supervised": totals["flops"] / totals["baseline_flops"]
        if totals["baseline_flops"]
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
            raise FormatError(path, f"bad magic {magic!r}, expected {MODEL_MAGIC!r}", offset=0)
        (version,) = struct.unpack("<H", _read_exact(fh, 2, path, 4))
        if version != MODEL_VERSION:
            raise FormatError(path, f"unsupported version {version}", offset=4)
        offset = 6
        students = []
        for _ in range(2):
            header = _read_exact(fh, 20, path, offset)
            d_in, d_h, n_classes, dropout = struct.unpack("<IIId", header)
            if students and n_classes != students[0].n_classes:
                raise FormatError(path, f"student 1 has {n_classes} classes, "
                                  f"student 0 has {students[0].n_classes}", offset=offset + 8)
            offset += 20
            count = 8 * (d_in * d_h + d_h + d_h * n_classes + n_classes)
            vector = np.frombuffer(_read_exact(fh, count, path, offset), dtype="<f8").copy()
            try:
                students.append(StudentParams(vector, (d_in, d_h, n_classes), dropout))
            except InvalidInputError as exc:  # the dropout, the header's last field
                raise FormatError(path, str(exc), offset=offset - 8) from None
            offset += count
        # The teacher is z (3 doubles), the learning rate, the temperature.
        z = np.frombuffer(_read_exact(fh, 24, path, offset), dtype="<f8").copy()
        lr_teacher, temperature = struct.unpack("<dd", _read_exact(fh, 16, path, offset + 24))
        try:
            teacher = TeacherStrategy(z=z, lr_teacher=lr_teacher, gate_temperature=temperature)
        except BoundError as exc:
            at = {"strategy vector": 0, "teacher learning rate": 24, "gate temperature": 32}
            raise FormatError(path, str(exc), offset=offset + at[exc.names[0]]) from None
        offset += 40
        if fh.read(1):
            raise FormatError(path, "trailing bytes after payload", offset=offset)
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


STRATEGY_COLUMNS = ["epoch", "tau_mi", "lambda_u", "lambda_adv"]


def write_csv(path, rows: list[dict], columns: list[str]) -> None:
    """A header line, then one line per row: the epoch as ``str``, every
    other column as ``repr``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = (str(row[c]) if c == "epoch" else repr(row[c]) for c in columns)
            fh.write(",".join(cells) + "\n")


def report_payload(report: TrainingReport, ds: TwoViewDataset) -> dict:
    """JSON-ready summary of one run. Contains no wall-clock fields so that
    identical (config, seed) runs serialize bit-identically."""
    payload = {
        "seed": report.config.seed,
        "stop_reason": report.stop_reason,
        "epochs_run": len(report.epoch_rows),
        "total_steps": report.total_steps,
        "final_eval": report.final_eval,
        "final_strategy": dict(zip(
            ("tau_mi", "lambda_u", "lambda_adv"), report.config.weights(report.teacher.mapped())
        )),
        "cost": cost_summary(report.step_reports, report.config)
        if report.step_reports
        else {},
        "epochs": report.epoch_rows,
    }
    if np.any(ds.labels[ds.indices(UNLABELED)] >= 0):
        payload["confidence_bins"] = bin_error_histogram(report.students, ds)
    return payload


def dump_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
