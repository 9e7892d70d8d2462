"""Meta-learned strategy controlling the MI threshold and loss weights.

The raw strategy is an unconstrained 3-vector z. Sigmoids bound each mapped
coordinate to [0, 1]; when the two loss weights sum past 1 they are rescaled
back onto the simplex boundary, so the mapped triple always satisfies
unsup_weight + adv_weight <= 1.

The meta-gradient differentiates a held-out supervised loss through a one-step
virtual student update

    params' = params - eta * grad(unsup_weight * L_unsup_soft + adv_weight * L_adv)

where L_unsup_soft replaces the hard MI filter with a differentiable sigmoid
gate, giving the threshold a gradient path. The starting parameters are
treated as constants (single-step unroll), so the chain rule below is exact
for this objective; the virtual update never touches the real students.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import InsufficientHistoryError, InvalidInputError
from .student import (
    Gradients,
    HiddenLayer,
    StudentParams,
    loss_and_grads,
    weighted_ce_grads,
)

# The smallest gate temperature: below the smallest normal float, the soft
# gate's threshold derivative w(1 - w) / temperature can overflow.
MIN_TEMPERATURE = sys.float_info.min


def _check_temperature(temperature: float) -> None:
    if not temperature >= MIN_TEMPERATURE:
        raise InvalidInputError(
            f"gate temperature must be >= {MIN_TEMPERATURE!r}, got {temperature!r}")


def _logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise InvalidInputError("mapped initial values must lie strictly in (0, 1)")
    return math.log(p / (1.0 - p))


def sigmoid(v):
    return expit(np.asarray(v, dtype=np.float64))


@dataclass(frozen=True)
class TeacherStrategy:
    """Raw strategy vector plus its update hyperparameters."""

    z: np.ndarray  # (3,) raw values behind (mi_threshold, unsup_weight, adv_weight)
    lr_teacher: float = 0.01
    gate_temperature: float = 0.01

    def __post_init__(self):
        _check_temperature(self.gate_temperature)

    def mapped(self) -> tuple[float, float, float]:
        return map_strategy(self.z)


def init_strategy(
    mi_threshold: float = 0.05,
    unsup_weight: float = 0.5,
    adv_weight: float = 0.5,
    lr_teacher: float = 0.01,
    gate_temperature: float = 0.01,
) -> TeacherStrategy:
    """Strategy whose mapped triple equals the given conservative values."""
    z = np.array([_logit(mi_threshold), _logit(unsup_weight), _logit(adv_weight)])
    return TeacherStrategy(z=z, lr_teacher=lr_teacher, gate_temperature=gate_temperature)


def map_strategy(z: np.ndarray) -> tuple[float, float, float]:
    """(mi_threshold, unsup_weight, adv_weight) under box and simplex constraints."""
    zv = np.asarray(z, dtype=np.float64)
    if zv.shape != (3,) or not np.all(np.isfinite(zv)):
        raise InvalidInputError("strategy vector must be a finite 3-vector")
    s = sigmoid(zv)
    tau, lu, la = float(s[0]), float(s[1]), float(s[2])
    total = lu + la
    if total > 1.0:
        lu, la = lu / total, la / total
    return tau, lu, la


def map_strategy_jacobian(z: np.ndarray) -> np.ndarray:
    """3x3 Jacobian d(mapped)/dz. One-sided on the rescale boundary."""
    zv = np.asarray(z, dtype=np.float64)
    s = sigmoid(zv)
    ds = s * (1.0 - s)
    jac = np.zeros((3, 3))
    jac[0, 0] = ds[0]
    total = s[1] + s[2]
    if total > 1.0:
        jac[1, 1] = ds[1] * s[2] / total**2
        jac[1, 2] = -ds[2] * s[1] / total**2
        jac[2, 1] = -ds[1] * s[2] / total**2
        jac[2, 2] = ds[2] * s[1] / total**2
    else:
        jac[1, 1] = ds[1]
        jac[2, 2] = ds[2]
    return jac


def soft_gate(mi, threshold: float, temperature: float):
    """Differentiable acceptance weight in [0, 1].

    sigmoid((mi - threshold) / temperature); converges pointwise to the hard
    accept-above filter as temperature -> 0.
    """
    _check_temperature(temperature)
    return sigmoid((np.asarray(mi, dtype=np.float64) - threshold) / temperature)


@dataclass(frozen=True)
class MetaBatch:
    """Frozen per-step inputs for one student's side of the meta-gradient.

    All stochastic ingredients (dropout keeps, pseudo-labels, the
    adversarial gradient, source-view MI values) are sampled once by the
    caller, so the unrolled objective is a deterministic function of the
    strategy vector. ``gate_sign`` selects the acceptance direction the soft
    gate surrogates: +1 accepts above the threshold, -1 below. ``x_unsup``
    may be the caller's hidden layer on that view.
    """

    x_unsup: np.ndarray | HiddenLayer  # (n_u, d) view of this student
    pseudo_from_other: np.ndarray  # (n_u,) pseudo-labels from the other view
    mi_from_other: np.ndarray  # (n_u,) MI of the pseudo-label source
    keep_unsup: np.ndarray | None  # dropout keeps for the unsup pass
    adv_grad: Gradients | None  # B at the student's own params, None disables the term
    x_val: np.ndarray  # (n_v, d) validation inputs for this view
    y_val: np.ndarray  # (n_v,)
    gate_sign: float = 1.0


def soft_unsup_grads(
    params: StudentParams,
    batch: MetaBatch,
    mi_threshold: float,
    temperature: float,
) -> tuple[Gradients, Gradients]:
    """Gradients of the gate-weighted cross-view loss and their threshold derivative.

    The loss is the masked expectation over the unlabeled batch,
    (1/n) * sum_i gate_i * CE_i, matching the hard loss's normalization; with
    a = d gate / d threshold the derivative of the gradient in the threshold
    is simply the a-weighted CE gradient, so no per-sample storage is needed.
    Returns (grads, d_grads_d_threshold).
    """
    n = batch.pseudo_from_other.shape[0]
    sign = batch.gate_sign
    w = soft_gate(sign * batch.mi_from_other, sign * mi_threshold, temperature)
    a = -sign * w * (1.0 - w) / temperature
    grads_w, grads_a = weighted_ce_grads(
        params,
        batch.x_unsup,
        batch.pseudo_from_other,
        np.stack([w / n, a / n]),
        batch.keep_unsup,
    )
    return grads_w, grads_a


def _unroll(
    params: StudentParams,
    batch: MetaBatch,
    mapped: tuple[float, float, float],
    temperature: float,
    eta_student: float,
) -> tuple[StudentParams, Gradients, Gradients]:
    """The virtual update and its ingredients.

    Returns (params', A, dA/dtau) with params' = params - eta * (lu*A + la*B),
    B being ``batch.adv_grad``.
    """
    tau, lu, la = mapped
    g_unsup, dA_dtau = soft_unsup_grads(params, batch, tau, temperature)
    step = lu * g_unsup.vector
    if batch.adv_grad is not None:
        step = step + la * batch.adv_grad.vector
    return params.with_vector(params.vector - eta_student * step), g_unsup, dA_dtau


def unrolled_validation_loss(
    z: np.ndarray,
    students: tuple[StudentParams, ...],
    batches: tuple[MetaBatch, ...],
    eta_student: float,
    temperature: float,
) -> float:
    """Validation CE after the virtual update, as a function of the raw strategy."""
    mapped = map_strategy(z)
    total = 0.0
    for params, batch in zip(students, batches):
        updated = _unroll(params, batch, mapped, temperature, eta_student)[0]
        loss, _ = loss_and_grads(updated, batch.x_val, batch.y_val, "ce")
        total += loss
    return total


def meta_grad(
    strategy: TeacherStrategy,
    students: tuple[StudentParams, ...],
    batches: tuple[MetaBatch, ...],
    eta_student: float,
) -> np.ndarray:
    """Exact gradient of the unrolled validation loss w.r.t. the raw strategy.

    For each student, with A = grad of the soft unsup loss and B
    (``batch.adv_grad``) = grad of the adversarial entropy loss at the frozen
    starting parameters,

        params'             = params - eta * (lu * A + la * B)
        d loss / d lu       = -eta * <A, grad_val(params')>
        d loss / d la       = -eta * <B, grad_val(params')>
        d loss / d tau      = -eta * lu * <dA/dtau, grad_val(params')>

    and dA/dtau follows from differentiating the gate-weighted mean. The
    result is mapped back through the strategy Jacobian. Real students are
    never mutated.
    """
    for batch in batches:
        if batch.x_val.shape[0] == 0:
            raise InvalidInputError("validation batch must be nonempty")
    mapped = map_strategy(strategy.z)
    lu = mapped[1]
    d_mapped = np.zeros(3)
    for params, batch in zip(students, batches):
        updated, g_unsup, dA_dtau = _unroll(
            params, batch, mapped, strategy.gate_temperature, eta_student
        )
        _, g_val = loss_and_grads(updated, batch.x_val, batch.y_val, "ce")
        d_mapped[0] += -eta_student * lu * dA_dtau.dot(g_val)
        d_mapped[1] += -eta_student * g_unsup.dot(g_val)
        if batch.adv_grad is not None:
            d_mapped[2] += -eta_student * batch.adv_grad.dot(g_val)
    return map_strategy_jacobian(strategy.z).T @ d_mapped


def teacher_step(strategy: TeacherStrategy, grad: np.ndarray) -> TeacherStrategy:
    """Gradient-descent update on the raw vector; constraints hold by mapping."""
    g = np.asarray(grad, dtype=np.float64)
    return replace(strategy, z=strategy.z - strategy.lr_teacher * g)


def stability_score(trace) -> float:
    """Sum of the three population variances over a trace of mapped triples,
    one per epoch; the caller passes the window it scores."""
    if len(trace) < 2:
        raise InsufficientHistoryError("stability score needs >= 2 recorded epochs")
    vals = np.array(trace, dtype=np.float64)
    # Shift by the first entry: variance is shift-invariant and this makes
    # the score exactly zero on constant traces.
    return float((vals - vals[0]).var(axis=0, ddof=0).sum())


def should_stop(scores, eps_stop: float, patience: int) -> bool:
    """True iff the last `patience` scores all fall below eps_stop."""
    if patience < 1:
        raise InvalidInputError("patience must be >= 1")
    s = list(scores)
    if len(s) < patience:
        return False
    return all(v < eps_stop for v in s[-patience:])
