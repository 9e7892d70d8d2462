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
from typing import Any, Protocol

import numpy as np

from .data import LABELED, UNLABELED, VALIDATION, TwoViewDataset
from .engine import TrainConfig, evaluate, run_training
from .errors import InvalidInputError
from .generator import PerturbConfig, fixed_point_residual, pgd_perturb_batch
from .numerics import entropy_rows, softmax_rows
from .student import (
    StudentParams,
    forward_batch,
    hidden_layer,
    loss_and_grads,
    mc_forward_batch,
)
from .teacher import MetaBatch, TeacherStrategy, meta_grad
from .uncertainty import batch_statistics, mi_filter


@dataclass(frozen=True)
class GameProfile:
    """One joint strategy: teacher triple, student weights, attack config.

    ``payoffs`` caches (R_teacher, R_students, R_generator) once computed.
    """

    teacher_point: tuple[float, float, float]
    students: Any
    generator_cfg: Any
    payoffs: tuple[float, float, float] | None = None


class TriadicGame(Protocol):
    teacher_points: list
    generator_points: list

    def payoff_teacher(self, t, s, g) -> float: ...

    def payoff_students(self, t, s, g) -> float: ...

    def payoff_generator(self, t, s, g) -> float: ...

    def respond_students(self, t, g): ...

    def student_deviations(self, t, g) -> list: ...


class TabularTriadicGame:
    """Finite game given by explicit payoff tables; the test oracle's form.

    Tables are dicts keyed by (teacher_point, student_point, generator_point).
    """

    def __init__(self, teacher_points, student_points, generator_points,
                 table_teacher, table_students, table_generator):
        self.teacher_points = list(teacher_points)
        self.student_points = list(student_points)
        self.generator_points = list(generator_points)
        self._rt = table_teacher
        self._rs = table_students
        self._rg = table_generator

    def payoff_teacher(self, t, s, g) -> float:
        return float(self._rt[(t, s, g)])

    def payoff_students(self, t, s, g) -> float:
        return float(self._rs[(t, s, g)])

    def payoff_generator(self, t, s, g) -> float:
        return float(self._rg[(t, s, g)])

    def respond_students(self, t, g):
        best, best_cost = None, None
        for s in self.student_points:
            cost = self.payoff_students(t, s, g)
            if best_cost is None or cost < best_cost:
                best, best_cost = s, cost
        return best

    def student_deviations(self, t, g) -> list:
        return list(self.student_points)


def compute_payoffs(game: TriadicGame, profile: GameProfile) -> tuple[float, float, float]:
    if profile.payoffs is not None:
        return profile.payoffs
    t, s, g = profile.teacher_point, profile.students, profile.generator_cfg
    return (
        game.payoff_teacher(t, s, g),
        game.payoff_students(t, s, g),
        game.payoff_generator(t, s, g),
    )


def with_payoffs(game: TriadicGame, profile: GameProfile) -> GameProfile:
    """The same profile with its payoff triple filled in."""
    return replace(profile, payoffs=compute_payoffs(game, profile))


def best_response(game: TriadicGame, player: str, profile: GameProfile):
    """Best unilateral deviation for one player, ties kept at the incumbent.

    Teacher and generator scan their grids for a strictly better payoff; the
    students' response is the retraining operator (argmin over the recorded
    deviation budgets). Deterministic: grid order decides among fresh ties.
    """
    t, s, g = profile.teacher_point, profile.students, profile.generator_cfg
    if player == "teacher":
        best, best_val = t, game.payoff_teacher(t, s, g)
        for cand in game.teacher_points:
            val = game.payoff_teacher(cand, s, g)
            if val > best_val:
                best, best_val = cand, val
        return best, best_val
    if player == "generator":
        best, best_val = g, game.payoff_generator(t, s, g)
        for cand in game.generator_points:
            val = game.payoff_generator(t, s, cand)
            if val > best_val:
                best, best_val = cand, val
        return best, best_val
    if player == "students":
        best, best_val = s, game.payoff_students(t, s, g)
        for cand in game.student_deviations(t, g):
            val = game.payoff_students(t, cand, g)
            if val < best_val:
                best, best_val = cand, val
        return best, best_val
    raise InvalidInputError(f"unknown player {player!r}")


def nash_residual(game: TriadicGame, profile: GameProfile) -> tuple[float, float, float]:
    """Clamped unilateral improvements (teacher, students, generator).

    All three are nonnegative; a profile is a grid-Nash point exactly when
    every residual is within tolerance.
    """
    rt, rs, rg = compute_payoffs(game, profile)
    _, best_t = best_response(game, "teacher", profile)
    _, best_s = best_response(game, "students", profile)
    _, best_g = best_response(game, "generator", profile)
    return (
        max(0.0, best_t - rt),
        max(0.0, rs - best_s),
        max(0.0, best_g - rg),
    )


def alternating_best_response(
    game: TriadicGame,
    profile: GameProfile,
    max_rounds: int = 10,
    tol: float = 0.0,
) -> tuple[GameProfile, int, tuple[float, float, float]]:
    """Cyclic best-response dynamics: teacher, then students, then generator.

    Returns the final profile, the number of completed rounds, and its Nash
    residuals. Stops as soon as every residual is within tolerance.
    """
    current = replace(profile, payoffs=None)
    for round_index in range(1, max_rounds + 1):
        t, _ = best_response(game, "teacher", current)
        current = replace(current, teacher_point=t, payoffs=None)
        s = game.respond_students(current.teacher_point, current.generator_cfg)
        current = replace(current, students=s, payoffs=None)
        g, _ = best_response(game, "generator", current)
        current = replace(current, generator_cfg=g, payoffs=None)
        residuals = nash_residual(game, current)
        if all(r <= tol for r in residuals):
            return current, round_index, residuals
    return current, max_rounds, nash_residual(game, current)


# ---------------------------------------------------------------------------
# The trained game: payoffs measured on a dataset, students retrained.


def _attack_rng(probe_seed: int, view: int) -> np.random.Generator:
    """Dropout-mask stream for an attack on one view's probe (drawn only at gamma > 0).

    A fresh stream per call keeps every payoff and residual a pure function
    of its arguments.
    """
    return np.random.default_rng(np.random.SeedSequence([probe_seed, view]))


@dataclass(frozen=True)
class StudentBudget:
    """Deterministic best-response operator: retrain for a fixed budget."""

    epochs: int
    seed: int


@dataclass(frozen=True)
class StrategyGrid:
    """Finite strategy spaces the residuals are measured over."""

    teacher_points: tuple[tuple[float, float, float], ...]
    generator_configs: tuple[PerturbConfig, ...]
    student_budgets: tuple[StudentBudget, ...]

    def __post_init__(self):
        if not (self.teacher_points and self.generator_configs and self.student_budgets):
            raise InvalidInputError("strategy grids must be nonempty")
        for _, lam_u, lam_adv in self.teacher_points:
            if lam_u + lam_adv > 1.0 + 1e-12:
                raise InvalidInputError("teacher grid point violates the weight simplex")


def default_teacher_grid() -> list[tuple[float, float, float]]:
    grid = []
    for tau in (0.01, 0.05, 0.1, 0.2):
        for lam_u in (0.0, 0.25, 0.5, 0.75):
            for lam_adv in (0.0, 0.25, 0.5):
                if lam_u + lam_adv <= 1.0:
                    grid.append((tau, lam_u, lam_adv))
    return grid


class TrainedTriadicGame:
    """Operational payoffs around one training setup.

    The student response retrains both students from the budget's seed with
    the teacher frozen at the candidate triple and the candidate attack
    config; payoffs are measured on the validation split (teacher) and on a
    fixed probe batch of unlabeled rows (students, generator).

    Each payoff combines ingredients that the game computes once and keeps
    for its lifetime, keyed only on what they depend on: the validation
    accuracy and the probe MC statistics on the students, the mean attacked
    entropy per view on the students and the attack config.
    """

    def __init__(
        self,
        ds: TwoViewDataset,
        base_cfg: TrainConfig,
        grid: StrategyGrid | None = None,
        teacher_points: list[tuple[float, float, float]] | None = None,
        generator_points: list[PerturbConfig] | None = None,
        budgets: list[StudentBudget] | None = None,
        probe_size: int = 256,
        probe_seed: int = 0,
        mc_passes: int = 5,
    ):
        self.ds = ds
        self.base_cfg = base_cfg
        grid = grid or StrategyGrid(
            teacher_points=tuple(teacher_points or default_teacher_grid()),
            generator_configs=tuple(generator_points or [base_cfg.perturb]),
            student_budgets=tuple(
                budgets or [StudentBudget(epochs=base_cfg.epochs, seed=base_cfg.seed)]
            ),
        )
        self.grid = grid
        self.teacher_points = list(grid.teacher_points)
        self.generator_points = list(grid.generator_configs)
        self.budgets = list(grid.student_budgets)
        self.mc_passes = mc_passes
        unl = ds.indices(UNLABELED)
        if unl.size == 0:
            raise InvalidInputError("trained game needs unlabeled probe rows")
        order = np.random.default_rng(probe_seed).permutation(unl)
        self.probe_rows = np.sort(order[: min(probe_size, unl.size)])
        self.probe_seed = probe_seed
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
            return [
                batch_statistics(
                    mc_forward_batch(s[view], x, self.mc_passes, seed=self.probe_seed + view)
                )
                for view, x in enumerate(self.ds.views(self.probe_rows))
            ]

        return self._memo(("mc", s), compute)

    def _attacked_entropy(self, s, g: PerturbConfig) -> list[float]:
        """Mean evaluation-mode entropy of each student on its attacked probe view."""
        s = tuple(s)

        def compute():
            out = []
            for view, x in enumerate(self.ds.views(self.probe_rows)):
                delta = pgd_perturb_batch(s[view], x, g, _attack_rng(self.probe_seed, view))
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
        """Weighted cost lambda_u * L_unsup + lambda_adv * L_adv on the probe."""
        tau, lam_u, lam_adv = t
        stats = self._probe_stats(s) if lam_u > 0 else None
        entropy = self._attacked_entropy(s, g) if lam_adv > 0 else None
        x = self.ds.views(self.probe_rows)
        n = self.probe_rows.size
        cost = 0.0
        for view in (0, 1):
            other = 1 - view
            if lam_u > 0:
                accepted, _ = mi_filter(stats[other], tau, self.base_cfg.filter_direction)
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
        return replace(
            self.base_cfg,
            epochs=budget.epochs,
            seed=budget.seed,
            teacher_enabled=False,
            tau_init=min(max(tau, 1e-6), 1 - 1e-6),
            lambda_u_init=min(max(lam_u, 1e-6), 1 - 1e-6),
            lambda_adv_init=min(max(lam_adv, 1e-6), 1 - 1e-6),
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
    probe_seed: int = 0,
    diag_attack: PerturbConfig | None = None,
) -> StackelbergResiduals:
    """The three stationarity gaps at the final state of a run.

    Teacher: infinity norm of the meta-gradient probed at the base learning
    rate. It is 0.0 when the unsup term is off: ``train_step`` then applies
    no meta-gradient, and MC, the filter and the unsup terms are skipped.
    Students: infinity norm of the total-loss gradient, with losses in
    evaluation mode (the stationarity notion is about the expected loss, not
    one dropout draw). Generator: mean fixed-point residual of a long
    diagnostic ascent against the final students.
    """
    unl = ds.indices(UNLABELED)
    lab = ds.indices(LABELED)
    val = ds.indices(VALIDATION)
    if unl.size == 0 or lab.size == 0 or val.size == 0:
        raise InvalidInputError("need labeled, unlabeled and validation rows")
    order = np.random.default_rng(probe_seed).permutation(unl)
    probe = np.sort(order[: min(probe_size, unl.size)])
    x_u = ds.views(probe)
    x_l = ds.views(lab)
    y_l = ds.labels[lab]
    x_v = ds.views(val)
    y_v = ds.labels[val]
    # One hidden layer per view on the probe serves MC, both attacks and the
    # teacher's soft gate.
    layers = [hidden_layer(students[view], x_u[view]) for view in (0, 1)]

    tau, lam_u, lam_adv = teacher.mapped()
    if not cfg.adv_enabled:
        lam_adv = 0.0

    stats = [None, None]
    if cfg.unsup_enabled:
        for view in (0, 1):
            probs = mc_forward_batch(
                students[view], layers[view], cfg.mc_passes, seed=probe_seed + view
            )
            stats[view] = batch_statistics(probs)

    x_adv = [None, None]
    if cfg.adv_enabled:
        for view in (0, 1):
            delta = pgd_perturb_batch(
                students[view], layers[view], cfg.perturb, _attack_rng(probe_seed, view)
            )
            x_adv[view] = x_u[view] + delta

    # Student stationarity: gradient of the weighted total loss.
    student_res = 0.0
    batches = []
    n = probe.size
    for view in (0, 1):
        other = 1 - view
        _, g_sup = loss_and_grads(students[view], x_l[view], y_l, "ce")
        g_total = g_sup
        if cfg.unsup_enabled:
            accepted, _ = mi_filter(stats[other], tau, cfg.filter_direction)
            if accepted.size and lam_u > 0:
                _, g_u = loss_and_grads(
                    students[view],
                    x_u[view][accepted],
                    stats[other].pseudo_label[accepted],
                    "ce",
                )
                g_total = g_total.plus(g_u, lam_u * accepted.size / n)
        adv_grad = None
        if lam_adv > 0 and x_adv[view] is not None:
            _, g_a = loss_and_grads(students[view], x_adv[view], None, "entropy")
            g_total = g_total.plus(g_a, lam_adv)
            adv_grad = (students[view], g_a)
        student_res = max(student_res, g_total.inf_norm())
        if cfg.unsup_enabled:
            batches.append(
                MetaBatch(
                    x_unsup=layers[view],
                    pseudo_from_other=stats[other].pseudo_label,
                    mi_from_other=stats[other].mi,
                    keep_unsup=None,
                    x_adv=x_adv[view],
                    keep_adv=None,
                    x_val=x_v[view],
                    y_val=y_v,
                    gate_sign=1.0 if cfg.filter_direction == "above" else -1.0,
                    adv_grad=adv_grad,
                )
            )

    # Teacher stationarity: meta-gradient at the base learning rate.
    teacher_res = 0.0
    if cfg.unsup_enabled:
        teacher_res = float(np.abs(meta_grad(teacher, students, tuple(batches), cfg.lr)).max())

    # Generator stationarity: long diagnostic ascent, small relative step.
    attack = diag_attack or PerturbConfig(
        epsilon=cfg.perturb.epsilon,
        gamma=0.0,
        steps=50,
        step_size=cfg.perturb.epsilon / 10.0,
    )
    gen_res = 0.0
    for view in (0, 1):
        delta = pgd_perturb_batch(
            students[view], layers[view], attack, _attack_rng(probe_seed, view)
        )
        gen_res += float(fixed_point_residual(students[view], x_u[view], delta, attack).mean())
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
    rt, rs, rg = compute_payoffs(game, profile)
    res_t, res_s, res_g = nash_residual(game, profile)
    t, s, g = profile.teacher_point, profile.students, profile.generator_cfg
    payload = {
        "teacher_point": list(profile.teacher_point),
        "generator_config": {
            "epsilon": profile.generator_cfg.epsilon,
            "gamma": profile.generator_cfg.gamma,
            "steps": profile.generator_cfg.steps,
            "step_size": profile.generator_cfg.effective_step,
        },
        "teacher_grid": [
            {"point": list(cand), "payoff": game.payoff_teacher(cand, s, g)}
            for cand in game.teacher_points
        ],
        "generator_grid": [
            {
                "epsilon": cand.epsilon,
                "steps": cand.steps,
                "step_size": cand.effective_step,
                "payoff": game.payoff_generator(t, s, cand),
            }
            for cand in game.generator_points
        ],
        "payoffs": {"teacher": rt, "students": rs, "generator": rg},
        "nash_residuals": {"teacher": res_t, "students": res_s, "generator": res_g},
        "tolerance": tolerance,
        "grid_nash": bool(max(res_t, res_s, res_g) <= tolerance),
    }
    if stackelberg is not None:
        payload["stackelberg_residuals"] = stackelberg.as_dict()
    return payload
