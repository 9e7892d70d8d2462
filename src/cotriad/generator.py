"""Entropy-guided perturbations in embedding space under an L-infinity budget.

The attack is non-parametric: it ascends the per-sample objective

    H(f(x + delta)) + gamma * MI(f(x + delta))

inside the box ||delta||_inf <= epsilon. A single step takes the classic
sign-gradient form; multi-step ascent follows raw projected gradient steps,
whose stationary points satisfy delta = P_eps(delta + step_size * grad). The
MI term is not differentiable through mask resampling, so when gamma > 0 the
dropout masks are frozen once per ascent step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundError, InvalidInputError
from .settings import check_fields, setting
from .student import (
    HiddenLayer,
    StudentParams,
    draw_keeps,
    hidden_layer,
    input_entropy_grad,
    input_mi_grad,
)

BUDGET_TOL = 1e-12


@dataclass(frozen=True)
class PerturbConfig:
    """Attack settings. steps=1 with step_size=epsilon is single-step FGSM."""

    epsilon: float = setting("perturb.epsilon", 1.0, "L-infinity attack budget", "> 0")
    gamma: float = setting(
        "perturb.gamma", 0.0, "disagreement weight in the attack objective", ">= 0")
    steps: int = setting("perturb.steps", 1, "attack steps; 1 = single-step sign attack", ">= 1")
    step_size: float = setting(
        "perturb.step_size", 0.0, "attack step size, 0 = epsilon", ">= 0 (0 = epsilon)")
    mi_passes: int = setting(
        "perturb.mi_passes", 5, "MC passes inside the attack when gamma > 0", ">= 1")

    def __post_init__(self):
        check_fields(self)
        if self.gamma > 0 and self.mi_passes < 2:
            raise BoundError("{0} must be >= 2 when {1} > 0", "mi_passes", "gamma")

    @property
    def effective_step(self) -> float:
        return self.step_size or self.epsilon


def project_linf(delta: np.ndarray, epsilon: float) -> np.ndarray:
    """Coordinatewise clamp onto the L-infinity ball; idempotent.

    This is the exact Euclidean projection: the box constraint separates per
    coordinate, and each 1-d projection is a clamp.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    return np.clip(np.asarray(delta, dtype=np.float64), -epsilon, epsilon)


def _objective_and_grad(
    params: StudentParams,
    x_pert: np.ndarray | HiddenLayer,
    cfg: PerturbConfig,
    keeps: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    layer = hidden_layer(params, x_pert)  # one layer serves both terms
    values, grad = input_entropy_grad(params, layer)
    if cfg.gamma > 0.0:
        mi, mi_grad = input_mi_grad(params, layer, keeps)
        values = values + cfg.gamma * mi
        grad = grad + cfg.gamma * mi_grad
    return values, grad


def pgd_perturb_batch(
    params: StudentParams,
    x: np.ndarray | HiddenLayer,
    cfg: PerturbConfig,
    stream: Callable[[], np.random.Generator] | None = None,
) -> np.ndarray:
    """Attack every row of a batch and return the perturbation delta.

    Rows are independent of each other. An attack at gamma > 0 calls
    ``stream()`` once for the generator of its dropout masks; at gamma = 0
    nothing draws, so ``stream`` is never called and may be None. The first
    objective is evaluated at ``x`` itself, so a hidden layer of ``params``
    on ``x`` is reused. A single step is the classic sign move,
    delta = P_eps(step_size * sign(grad)) with sign(0) = 0. Multi-step ascent
    applies raw projected gradient steps with a per-sample monotone safeguard:
    a candidate that lowers the objective is rejected and that sample's step
    is halved, so each iteration still costs exactly one
    objective-and-gradient evaluation. ``fixed_point_residual``
    measures how far the result is from a fixed point of the ascent map.
    """
    layer = hidden_layer(params, x)
    x = layer.x
    n = x.shape[0]

    rng = None
    if cfg.gamma > 0.0:
        if stream is None:
            raise InvalidInputError("gamma > 0 requires a stream for the dropout masks")
        rng = stream()

    def draw():
        if rng is None:
            return None
        return draw_keeps(rng, (cfg.mi_passes, n, params.d_h), params.dropout_rate)

    keeps = draw()
    values, grad = _objective_and_grad(params, layer, cfg, keeps)
    if cfg.steps == 1:
        return project_linf(cfg.effective_step * np.sign(grad), cfg.epsilon)
    eps, nominal = cfg.epsilon, cfg.effective_step
    delta = np.zeros_like(x)
    steps = np.full(n, nominal)
    armijo = 1e-4
    for _ in range(cfg.steps):
        keeps = draw()
        # P_eps(delta + steps * grad), in one fresh buffer per iteration: an
        # accepted candidate becomes delta, which the caller may keep.
        cand = np.multiply(steps[:, None], grad)
        np.add(delta, cand, out=cand)
        np.clip(cand, -eps, eps, out=cand)
        cand_values, cand_grad = _objective_and_grad(params, x + cand, cfg, keeps)
        # Sufficient-increase test; plain non-decrease admits accepted
        # oscillation across ridges with vanishing gain.
        moved = np.subtract(cand, delta)
        moved *= grad
        gain = armijo * moved.sum(axis=1)
        ok = cand_values >= values + gain
        # Double the step on success, up to the nominal one; halve it on
        # failure. When every row succeeds, the np.where path below selects
        # every candidate entry, so adopting the candidate arrays is the same.
        if ok.all():
            delta, values, grad = cand, cand_values, cand_grad
            steps = np.minimum(2.0 * steps, nominal)
        else:
            delta = np.where(ok[:, None], cand, delta)
            values = np.where(ok, cand_values, values)
            grad = np.where(ok[:, None], cand_grad, grad)
            steps = np.where(ok, np.minimum(2.0 * steps, nominal), 0.5 * steps)
    return delta


def fixed_point_residual(
    params: StudentParams,
    x: np.ndarray,
    delta: np.ndarray,
    cfg: PerturbConfig,
) -> np.ndarray:
    """Per-row L-infinity distance of delta from its own projected-ascent image.

    ``x`` and ``delta`` are (n, d) batches. The image is one ascent step at
    the nominal step size, P_eps(delta + step_size * grad), measured with the
    pure entropy objective (the gamma=0 ascent map), so the value is
    deterministic. A row's residual is 0 iff its delta already satisfies the
    fixed-point condition of the constrained ascent.
    """
    d = np.asarray(delta, dtype=np.float64)
    if d.ndim != 2:
        raise InvalidInputError(f"delta must be an (n, d) batch, got shape {d.shape}")
    if np.abs(d).max(initial=0.0) > cfg.epsilon + BUDGET_TOL:
        raise InvalidInputError("delta violates the perturbation budget")
    _, grad = input_entropy_grad(params, np.asarray(x, dtype=np.float64) + d)
    image = np.clip(d + cfg.effective_step * grad, -cfg.epsilon, cfg.epsilon)
    return np.abs(d - image).max(axis=1)
