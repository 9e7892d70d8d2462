"""The toy-game oracle: a finite triadic game given by explicit payoff tables,
the best-response search that ``nash_residual`` is checked against, and the
cyclic best-response dynamics that only this game exercises."""

from dataclasses import replace

from cotriad.errors import InvalidInputError
from cotriad.game import GameProfile, nash_residual


def compute_payoffs(game, profile: GameProfile) -> tuple[float, float, float]:
    t, s, g = profile.teacher_point, profile.students, profile.generator_cfg
    return (
        game.payoff_teacher(t, s, g),
        game.payoff_students(t, s, g),
        game.payoff_generator(t, s, g),
    )


def best_response(game, player: str, profile: GameProfile):
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


def best_response_residuals(game, profile: GameProfile) -> tuple[float, float, float]:
    """The Nash residuals built from ``best_response``: the oracle of ``nash_residual``."""
    rt, rs, rg = compute_payoffs(game, profile)
    _, best_t = best_response(game, "teacher", profile)
    _, best_s = best_response(game, "students", profile)
    _, best_g = best_response(game, "generator", profile)
    return (
        max(0.0, best_t - rt),
        max(0.0, rs - best_s),
        max(0.0, best_g - rg),
    )


class TabularTriadicGame:
    """Finite game given by explicit payoff tables.

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


def toy_game():
    """2 x 2 x 1 game with a unique pure Nash point at (T2, S1, G1).

    Teacher prefers T2 against S1; S1 is the students' best (cost-minimizing)
    reply everywhere; the single generator point is trivially optimal.
    """
    teachers = ["T1", "T2"]
    students = ["S1", "S2"]
    generators = ["G1"]
    rt = {("T1", "S1", "G1"): 0.60, ("T2", "S1", "G1"): 0.80,
          ("T1", "S2", "G1"): 0.70, ("T2", "S2", "G1"): 0.50}
    rs = {("T1", "S1", "G1"): 0.20, ("T1", "S2", "G1"): 0.90,
          ("T2", "S1", "G1"): 0.10, ("T2", "S2", "G1"): 0.70}
    rg = {key: 1.0 for key in rt}
    return TabularTriadicGame(teachers, students, generators, rt, rs, rg)


def alternating_best_response(
    game,
    profile: GameProfile,
    max_rounds: int = 10,
    tol: float = 0.0,
) -> tuple[GameProfile, int, tuple[float, float, float]]:
    """Cyclic best-response dynamics: teacher, then students, then generator.

    Returns the final profile, the number of completed rounds, and its Nash
    residuals. Stops as soon as every residual is within tolerance.
    """
    current = profile
    for round_index in range(1, max_rounds + 1):
        t, _ = best_response(game, "teacher", current)
        current = replace(current, teacher_point=t)
        s = game.respond_students(current.teacher_point, current.generator_cfg)
        current = replace(current, students=s)
        g, _ = best_response(game, "generator", current)
        current = replace(current, generator_cfg=g)
        residuals = nash_residual(game, current)
        if all(r <= tol for r in residuals):
            return current, round_index, residuals
    return current, max_rounds, nash_residual(game, current)
