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

import numpy as np

from .errors import InvalidInputError
from .student import StudentParams, draw_keeps, input_entropy_grad, input_mi_grad

BUDGET_TOL = 1e-12


@dataclass(frozen=True)
class PerturbConfig:
    """Attack settings. steps=1 with step_size=epsilon is single-step FGSM."""

    epsilon: float = 1.0
    gamma: float = 0.0
    steps: int = 1
    step_size: float | None = None
    mi_passes: int = 5

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidInputError("epsilon must be positive")
        if self.gamma < 0:
            raise InvalidInputError("gamma must be nonnegative")
        if self.steps < 1:
            raise InvalidInputError("steps must be >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise InvalidInputError("step_size must be positive")
        if self.gamma > 0 and self.mi_passes < 2:
            raise InvalidInputError("mi_passes must be >= 2 when gamma > 0")

    @property
    def effective_step(self) -> float:
        return self.epsilon if self.step_size is None else self.step_size


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
    x_pert: np.ndarray,
    cfg: PerturbConfig,
    keeps: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    values, grad = input_entropy_grad(params, x_pert)
    if cfg.gamma > 0.0:
        mi, mi_grad = input_mi_grad(params, x_pert, keeps)
        values = values + cfg.gamma * mi
        grad = grad + cfg.gamma * mi_grad
    return values, grad


def pgd_perturb_batch(
    params: StudentParams,
    x: np.ndarray,
    cfg: PerturbConfig,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Attack every row of a batch; rows are independent of each other.

    Returns (delta, objective_values, residuals, zero_grad_flags). A single
    step is the classic sign move, delta = P_eps(step_size * sign(grad)) with
    sign(0) = 0. Multi-step ascent applies raw projected gradient steps with a
    per-sample monotone safeguard: a candidate that lowers the objective is
    rejected and that sample's step is halved, so each iteration still costs
    exactly one objective-and-gradient evaluation. The residual is the
    L-infinity distance between the final iterate and one more projected
    ascent image of it at the nominal step size, i.e. 0 exactly at a fixed
    point of the update map.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    n = x.shape[0]

    def draw():
        if cfg.gamma <= 0.0:
            return None
        if rng is None:
            raise InvalidInputError("gamma > 0 requires an rng for the dropout masks")
        return draw_keeps(rng, (cfg.mi_passes, n, params.d_h), params.dropout_rate)

    keeps = draw()
    delta = np.zeros_like(x)
    values, grad = _objective_and_grad(params, x + delta, cfg, keeps)
    if cfg.steps == 1:
        delta = project_linf(cfg.effective_step * np.sign(grad), cfg.epsilon)
    else:
        steps = np.full(n, cfg.effective_step)
        armijo = 1e-4
        for _ in range(cfg.steps):
            keeps = draw()
            cand = np.clip(delta + steps[:, None] * grad, -cfg.epsilon, cfg.epsilon)
            cand_values, cand_grad = _objective_and_grad(params, x + cand, cfg, keeps)
            # Sufficient-increase test; plain non-decrease admits accepted
            # oscillation across ridges with vanishing gain.
            gain = armijo * ((cand - delta) * grad).sum(axis=1)
            ok = cand_values >= values + gain
            delta = np.where(ok[:, None], cand, delta)
            values = np.where(ok, cand_values, values)
            grad = np.where(ok[:, None], cand_grad, grad)
            # Halve on failure, recover toward the nominal step on success.
            steps = np.where(
                ok, np.minimum(2.0 * steps, cfg.effective_step), 0.5 * steps
            )
    values, grad = _objective_and_grad(params, x + delta, cfg, keeps)
    image = np.clip(delta + cfg.effective_step * grad, -cfg.epsilon, cfg.epsilon)
    residuals = np.abs(delta - image).max(axis=1)
    zero_grad = np.all(grad == 0.0, axis=1)
    return delta, values, residuals, zero_grad


def fixed_point_residual(
    params: StudentParams,
    x: np.ndarray,
    delta: np.ndarray,
    cfg: PerturbConfig,
) -> float:
    """Distance of delta from its own projected-ascent image.

    Measured with the pure entropy objective (the gamma=0 ascent map), so the
    value is deterministic. Zero iff delta already satisfies the equilibrium
    fixed-point condition of the constrained ascent.
    """
    d = np.asarray(delta, dtype=np.float64)
    if np.abs(d).max() > cfg.epsilon + BUDGET_TOL:
        raise InvalidInputError("delta violates the perturbation budget")
    x_pert = (np.asarray(x, dtype=np.float64) + d)[None, :]
    _, grad = input_entropy_grad(params, x_pert)
    image = np.clip(d + cfg.effective_step * grad[0], -cfg.epsilon, cfg.epsilon)
    return float(np.abs(d - image).max())
