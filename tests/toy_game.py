"""The toy-game oracle: a finite triadic game given by explicit payoff tables."""


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
