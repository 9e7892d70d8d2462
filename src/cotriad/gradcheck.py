"""Finite-difference certification suites for every analytic gradient path.

Each suite draws toy-sized random instances with seeded RNG, compares the
analytic gradients against ``numerics.finite_diff_grad``, and reports the
worst normalized deviation, where a deviation is normalized by
(atol + rtol * |reference|) so that a result <= 1 means the suite passes.
A NaN deviation is the worst: it fails its suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import finite_diff_grad
from .student import draw_keeps, init_student, input_entropy_grad, loss_and_grads
from .teacher import MetaBatch, TeacherStrategy, meta_grad, sigmoid, unrolled_validation_loss

TOY = dict(d_in=3, d_h=4, n_classes=3)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    instances: int
    max_ratio: float  # worst |analytic - fd| / (atol + rtol |fd|); <= 1 passes
    rtol: float
    atol: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0


def _ratio(analytic: np.ndarray, reference: np.ndarray, rtol: float, atol: float) -> float:
    return float(np.max(np.abs(analytic - reference) / (atol + rtol * np.abs(reference))))


def student_gradient_suite(n_instances: int = 100) -> SuiteResult:
    """Cross-entropy and entropy losses, with and without dropout masks."""
    rng = np.random.default_rng(0)
    rtol, atol = 1e-5, 1e-8
    ratios = []
    for trial in range(n_instances):
        dropout = 0.0 if trial % 2 == 0 else 0.4
        params = init_student(**TOY, dropout_rate=dropout, seed=1000 + trial)
        x = rng.normal(size=(4, TOY["d_in"]))
        y = rng.integers(0, TOY["n_classes"], size=4)
        keep = draw_keeps(rng, (4, TOY["d_h"]), dropout) if dropout else None
        kind = "ce" if trial % 3 else "entropy"
        _, grads = loss_and_grads(params, x, y, kind, keep)

        def f(vec):
            loss, _ = loss_and_grads(params.with_vector(vec), x, y, kind, keep)
            return loss

        fd = finite_diff_grad(f, params.vector, h=1e-5)
        ratios.append(_ratio(grads, fd, rtol, atol))
    return SuiteResult("student", n_instances, float(np.max(ratios)), rtol, atol)


def generator_gradient_suite(n_instances: int = 100) -> SuiteResult:
    """Entropy ascent objective gradients with respect to the embedding."""
    rng = np.random.default_rng(1)
    rtol, atol = 1e-5, 1e-8
    ratios = []
    for trial in range(n_instances):
        params = init_student(**TOY, dropout_rate=0.0, seed=2000 + trial)
        x = rng.normal(size=TOY["d_in"])
        _, grad = input_entropy_grad(params, x[None, :])

        def f(v):
            values, _ = input_entropy_grad(params, v[None, :])
            return float(values[0])

        fd = finite_diff_grad(f, x, h=1e-6)
        ratios.append(_ratio(grad[0], fd, rtol, atol))
    return SuiteResult("generator", n_instances, float(np.max(ratios)), rtol, atol)


def _random_meta_instance(seed: int):
    rng = np.random.default_rng(seed)
    students, batches = [], []
    for view in range(2):
        dropout = 0.0 if seed % 2 == 0 else 0.3
        params = init_student(**TOY, dropout_rate=dropout, seed=3000 + 7 * seed + view)
        n_u, n_v = 8, 8
        keep_u = draw_keeps(rng, (n_u, TOY["d_h"]), dropout) if dropout else None
        keep_a = draw_keeps(rng, (n_u, TOY["d_h"]), dropout) if dropout else None
        x_u = rng.normal(size=(n_u, TOY["d_in"]))
        batches.append(
            MetaBatch(
                x_unsup=x_u,
                pseudo_from_other=rng.integers(0, TOY["n_classes"], size=n_u),
                mi_from_other=rng.random(n_u) * 0.3,
                keep_unsup=keep_u,
                # Noise drawn after the MI values: the draw order fixes every instance.
                adv_grad=loss_and_grads(
                    params, x_u + rng.normal(scale=0.2, size=x_u.shape), None, "entropy", keep_a
                )[1],
                x_val=rng.normal(size=(n_v, TOY["d_in"])),
                y_val=rng.integers(0, TOY["n_classes"], size=n_v),
                gate_sign=1.0 if seed % 3 else -1.0,
            )
        )
        students.append(params)
    # Keep the raw vector away from the measure-zero rescale boundary where
    # the mapping is only one-sided differentiable.
    while True:
        z = rng.normal(scale=1.5, size=3)
        s = sigmoid(z)
        if abs(s[1] + s[2] - 1.0) > 1e-3:
            break
    strategy = TeacherStrategy(z=z, gate_temperature=0.05)
    return strategy, tuple(students), tuple(batches)


def meta_gradient_suite(n_instances: int = 100) -> SuiteResult:
    """One-step unrolled teacher meta-gradients under frozen stochasticity."""
    rtol, atol = 1e-4, 1e-8
    ratios = []
    eta = 0.05
    for trial in range(n_instances):
        strategy, students, batches = _random_meta_instance(20_000 + trial)
        analytic = meta_grad(strategy, students, batches, eta)
        fd = finite_diff_grad(
            lambda z: unrolled_validation_loss(
                z, students, batches, eta, strategy.gate_temperature
            ),
            strategy.z,
            h=1e-5,
        )
        ratios.append(_ratio(analytic, fd, rtol, atol))
    return SuiteResult("meta", n_instances, float(np.max(ratios)), rtol, atol)


def run_all(n_instances: int = 100) -> list[SuiteResult]:
    return [
        student_gradient_suite(n_instances),
        generator_gradient_suite(n_instances),
        meta_gradient_suite(n_instances),
    ]
