"""Equilibrium diagnostics over discretized strategy spaces.

The three players are scored as: teacher by held-out ensemble accuracy,
students by their weighted unsupervised-plus-adversarial cost on a fixed
probe batch, generator by the mean predictive entropy it induces at its
perturbed points. Nash residuals measure the best unilateral improvement any
player can find on a finite deviation grid (students deviate through a fixed
retraining budget, which stands in for an exact argmin over weights). The
Stackelberg residuals are the first-order stationarity measures of a finished
run: the teacher's meta-gradient, the students' total-loss gradient, and the
generator's projected-ascent fixed-point gap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .data import LABELED, UNLABELED, VALIDATION, TwoViewDataset
from .engine import TrainConfig, assemble_step, evaluate, run_training
from .errors import InvalidInputError
from .generator import PerturbConfig, fixed_point_residual, pgd_perturb_batch
from .numerics import entropy_rows, softmax_rows, stream
from .student import StudentParams, forward_batch, loss_and_grads, mc_forward_batch
from .teacher import TeacherStrategy, meta_grad
from .uncertainty import apply_filter, batch_statistics


@dataclass(frozen=True)
class GameProfile:
    """One joint strategy: teacher triple, student weights, attack config."""

    teacher_point: tuple[float, float, float]
    students: Any
    generator_cfg: Any


def _scan(game, profile: GameProfile):
    """Every payoff a report reads, each scored once.

    Returns the profile's (teacher, students, generator) payoffs and, for
    each player in that order, the payoffs of its deviations: the teacher
    grid, the students' retrained deviations and the generator grid.
    """
    t, s, g = profile.teacher_point, profile.students, profile.generator_cfg
    payoffs = (game.payoff_teacher(t, s, g), game.payoff_students(t, s, g),
               game.payoff_generator(t, s, g))
    deviations = (
        [game.payoff_teacher(cand, s, g) for cand in game.teacher_points],
        [game.payoff_students(t, cand, g) for cand in game.student_deviations(t, g)],
        [game.payoff_generator(t, s, cand) for cand in game.generator_points],
    )
    return payoffs, deviations


def _residuals(payoffs, deviations) -> tuple[float, float, float]:
    """Clamped best unilateral improvements over a scan.

    ``max`` and ``min`` keep the incumbent unless a deviation is strictly
    better, so ties (and a NaN incumbent) give 0.
    """
    (rt, rs, rg), (dev_t, dev_s, dev_g) = payoffs, deviations
    return (
        max(0.0, max([rt, *dev_t]) - rt),
        max(0.0, rs - min([rs, *dev_s])),
        max(0.0, max([rg, *dev_g]) - rg),
    )


def nash_residual(game, profile: GameProfile) -> tuple[float, float, float]:
    """Clamped unilateral improvements (teacher, students, generator).

    All three are nonnegative; a profile is a grid-Nash point exactly when
    every residual is within tolerance. ``game`` is any object with the
    payoff and deviation interface of ``TrainedTriadicGame``.
    """
    return _residuals(*_scan(game, profile))


# ---------------------------------------------------------------------------
# The trained game: payoffs measured on a dataset, students retrained.


# The seed of every probe draw: the probe permutation, the MC passes and the
# attack streams of the payoffs and of the Stackelberg residuals.
PROBE_SEED = 0


def probe_rows(ds: TwoViewDataset, probe_size: int) -> np.ndarray:
    """The probe batch: the first ``probe_size`` unlabeled rows of a
    permutation seeded by ``PROBE_SEED``, sorted."""
    unl = ds.indices(UNLABELED)
    if unl.size == 0:
        raise InvalidInputError("need unlabeled probe rows")
    return np.sort(np.random.default_rng(PROBE_SEED).permutation(unl)[:probe_size])


@dataclass(frozen=True)
class StudentBudget:
    """Deterministic best-response operator: retrain for a fixed budget."""

    epochs: int
    seed: int


def default_teacher_grid() -> list[tuple[float, float, float]]:
    """The teacher's deviations: the (tau, lambda_u, lambda_adv) points of a
    grid that lie on the weight simplex, 44 of them."""
    return [(t, lu, la) for t in (0.01, 0.05, 0.1, 0.2) for lu in (0.0, 0.25, 0.5, 0.75)
            for la in (0.0, 0.25, 0.5) if lu + la <= 1.0]


class TrainedTriadicGame:
    """Operational payoffs around one training setup.

    The student response retrains both students from the budget's seed with
    the teacher frozen at the candidate triple and the candidate attack
    config; payoffs are measured on the validation split (teacher) and on a
    fixed probe batch of unlabeled rows (students, generator).

    Each payoff combines ingredients that the game computes once and keeps
    for its lifetime, keyed only on what they depend on: the validation
    accuracy and the probe MC statistics on the students, the mean attacked
    entropy per view on the students and the attack config. An attack at
    gamma > 0 draws its masks from a fresh ``stream(PROBE_SEED, view)``, so
    every payoff and residual is a pure function of its arguments.
    """

    def __init__(
        self,
        ds: TwoViewDataset,
        base_cfg: TrainConfig,
        teacher_points: list[tuple[float, float, float]] | None = None,
        generator_points: list[PerturbConfig] | None = None,
        budgets: list[StudentBudget] | None = None,
        probe_size: int = 256,
    ):
        self.ds = ds
        self.base_cfg = base_cfg
        self.teacher_points = list(teacher_points or default_teacher_grid())
        self.generator_points = list(generator_points or [base_cfg.perturb])
        self.budgets = list(budgets or [StudentBudget(epochs=base_cfg.epochs, seed=base_cfg.seed)])
        if any(lam_u + lam_adv > 1.0 + 1e-12 for _, lam_u, lam_adv in self.teacher_points):
            raise InvalidInputError("teacher grid point violates the weight simplex")
        self.probe_rows = probe_rows(ds, probe_size)
        # Payoff ingredients by what they depend on: students by identity
        # (StudentParams is an immutable value), attack configs by value.
        self._ingredients: dict = {}

    # -- payoff ingredients, each computed once per game and key

    def _memo(self, key, compute):
        """The ingredient under ``key``, computed on first use."""
        if key not in self._ingredients:
            self._ingredients[key] = compute()
        return self._ingredients[key]

    def _probe_stats(self, s) -> list:
        """MC statistics of each student on its view of the probe."""
        s = tuple(s)

        def compute():
            passes = self.base_cfg.mc_passes
            return [
                batch_statistics(mc_forward_batch(s[view], x, passes, seed=PROBE_SEED + view))
                for view, x in enumerate(self.ds.views(self.probe_rows))
            ]

        return self._memo(("mc", s), compute)

    def _attacked_entropy(self, s, g: PerturbConfig) -> list[float]:
        """Mean evaluation-mode entropy of each student on its attacked probe view."""
        s = tuple(s)

        def compute():
            out = []
            for view, x in enumerate(self.ds.views(self.probe_rows)):
                delta = pgd_perturb_batch(s[view], x, g, lambda: stream(PROBE_SEED, view))
                logits, _ = forward_batch(s[view], x + delta)
                out.append(float(entropy_rows(softmax_rows(logits)).mean()))
            return out

        return self._memo(("attack", s, g), compute)

    # -- payoffs

    def payoff_teacher(self, t, s, g) -> float:
        """Ensemble accuracy of ``s`` on the validation split.

        It ignores ``t`` and ``g``: the students are not retrained for a
        candidate teacher point. So every point of the teacher grid scores
        the same, and the teacher's Nash residual of a trained game is 0 by
        construction.
        """
        s = tuple(s)
        return self._memo(("accuracy", s), lambda: evaluate(s, self.ds, VALIDATION)["accuracy"])

    def payoff_students(self, t, s, g) -> float:
        """Weighted cost lambda_u * L_unsup + lambda_adv * L_adv on the probe.

        L_unsup takes the pseudo-labels that the run's ``filter.mode``
        accepts at ``tau``. A run trained without the unsup or the
        adversarial term has no L_unsup or L_adv, like its retraining, so
        that term's weight counts as 0 here.
        """
        tau, lam_u, lam_adv = self.base_cfg.weights(t)
        stats = self._probe_stats(s) if lam_u > 0 else None
        entropy = self._attacked_entropy(s, g) if lam_adv > 0 else None
        x = self.ds.views(self.probe_rows)
        n = self.probe_rows.size
        cost = 0.0
        for view in (0, 1):
            other = 1 - view
            if lam_u > 0:
                accepted = apply_filter(self.base_cfg, stats[other], tau)[0]
                if accepted.size:
                    # A row subset is not a row slice of the full-probe pass
                    # (the rounding trap), so this loss is computed per call.
                    loss, _ = loss_and_grads(
                        s[view], x[view][accepted], stats[other].pseudo_label[accepted], "ce"
                    )
                    cost += lam_u * loss * (accepted.size / n)
            if lam_adv > 0:
                cost += lam_adv * entropy[view]
        return cost

    def payoff_generator(self, t, s, g) -> float:
        """Mean perturbed predictive entropy over the probe, averaged on views."""
        return sum(self._attacked_entropy(s, g)) / 2.0

    # -- student response operator

    def _retrain_cfg(self, t, g, budget: StudentBudget) -> TrainConfig:
        tau, lam_u, lam_adv = t
        lam_u_init = min(max(lam_u, 1e-6), 1 - 1e-6)
        lam_adv_init = min(max(lam_adv, 1e-6), 1 - 1e-6)
        # map_strategy's rescaled pair can sum to 1 + 1 ulp; TrainConfig rejects that.
        if lam_u_init + lam_adv_init > 1.0:
            lam_adv_init = 1.0 - lam_u_init
        return replace(
            self.base_cfg,
            epochs=budget.epochs,
            seed=budget.seed,
            teacher_enabled=False,
            tau_init=min(max(tau, 1e-6), 1 - 1e-6),
            lambda_u_init=lam_u_init,
            lambda_adv_init=lam_adv_init,
            unsup_enabled=self.base_cfg.unsup_enabled and lam_u > 0,
            adv_enabled=self.base_cfg.adv_enabled and lam_adv > 0,
            perturb=g,
        )

    def respond_students(self, t, g):
        report = run_training(self._retrain_cfg(t, g, self.budgets[0]), self.ds)
        return report.students

    def student_deviations(self, t, g) -> list:
        return [
            run_training(self._retrain_cfg(t, g, budget), self.ds).students
            for budget in self.budgets
        ]


# ---------------------------------------------------------------------------
# First-order Stackelberg residuals of a finished run.


@dataclass(frozen=True)
class StackelbergResiduals:
    teacher: float
    students: float
    generator: float

    def as_dict(self) -> dict:
        return {"teacher": self.teacher, "students": self.students, "generator": self.generator}


def stackelberg_residual(
    students: tuple[StudentParams, StudentParams],
    teacher: TeacherStrategy,
    ds: TwoViewDataset,
    cfg: TrainConfig,
    probe_size: int = 256,
) -> StackelbergResiduals:
    """The three stationarity gaps at the final state of a run.

    Teacher and students: the training step's objective (``assemble_step``)
    on all labeled rows, the probe and all validation rows, in evaluation
    mode (stationarity is about the expected loss, not one dropout draw).
    Teacher: infinity norm of the meta-gradient probed at the base learning
    rate; 0.0 when the unsup term is off, as ``train_step`` then applies no
    meta-gradient. Students: infinity norm of the total-loss gradient.
    Generator: mean fixed-point residual of a long diagnostic ascent against
    the final students.
    """
    lab, val = ds.indices(LABELED), ds.indices(VALIDATION)
    if lab.size == 0 or val.size == 0:
        raise InvalidInputError("need labeled and validation rows")
    probe = probe_rows(ds, probe_size)
    parts = assemble_step(
        students, teacher, cfg, ds, (lab, probe, val),
        mc_seed=lambda view: PROBE_SEED + view,
        attack_rng=lambda view: stream(PROBE_SEED, view),
        keeps=lambda tag, view, n: None,
    )
    student_res = max(float(np.abs(g).max()) for g in parts.grads)
    teacher_res = 0.0
    if parts.meta_batches:
        teacher_res = float(np.abs(meta_grad(teacher, students, parts.meta_batches, cfg.lr)).max())

    # Generator stationarity: long diagnostic ascent, small relative step.
    attack = PerturbConfig(
        epsilon=cfg.perturb.epsilon,
        gamma=0.0,
        steps=50,
        step_size=cfg.perturb.epsilon / 10.0,
    )
    gen_res = 0.0
    for view, x in enumerate(ds.views(probe)):
        layer = parts.layers[view] if parts.layers[view] is not None else x
        delta = pgd_perturb_batch(students[view], layer, attack)
        gen_res += float(fixed_point_residual(students[view], x, delta, attack).mean())
    return StackelbergResiduals(
        teacher=teacher_res, students=student_res, generator=gen_res / 2.0
    )


def equilibrium_report(
    game: TrainedTriadicGame,
    profile: GameProfile,
    tolerance: float = 1e-2,
    stackelberg: StackelbergResiduals | None = None,
) -> dict:
    """JSON-ready summary: payoffs, grids, residuals, and the verdict."""
    payoffs, deviations = _scan(game, profile)
    rt, rs, rg = payoffs
    res_t, res_s, res_g = _residuals(payoffs, deviations)
    payload = {
        "teacher_point": list(profile.teacher_point),
        "generator_config": {
            "epsilon": profile.generator_cfg.epsilon,
            "gamma": profile.generator_cfg.gamma,
            "steps": profile.generator_cfg.steps,
            "step_size": profile.generator_cfg.effective_step,
        },
        "teacher_grid": [
            {"point": list(cand), "payoff": payoff}
            for cand, payoff in zip(game.teacher_points, deviations[0])
        ],
        "generator_grid": [
            {
                "epsilon": cand.epsilon,
                "steps": cand.steps,
                "step_size": cand.effective_step,
                "payoff": payoff,
            }
            for cand, payoff in zip(game.generator_points, deviations[2])
        ],
        "payoffs": {"teacher": rt, "students": rs, "generator": rg},
        "nash_residuals": {"teacher": res_t, "students": res_s, "generator": res_g},
        "tolerance": tolerance,
    }
    if stackelberg is not None:
        payload["stackelberg_residuals"] = stackelberg.as_dict()
    # The clamped residuals read 0 at a NaN incumbent, so finiteness is checked first.
    finite = nonfinite_quantity(payload) is None
    payload["grid_nash"] = bool(finite and max(res_t, res_s, res_g) <= tolerance)
    return payload


def nonfinite_quantity(payload: dict) -> str | None:
    """The first non-finite payoff or residual of a report, as ``group.role``."""
    groups = ("payoffs", "nash_residuals", "stackelberg_residuals")
    bad = (f"{g}.{r}" for g in groups for r, v in payload.get(g, {}).items() if not np.isfinite(v))
    return next(bad, None)
