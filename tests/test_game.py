"""Equilibrium machinery: tabular oracle games and trained-run diagnostics."""

import collections
import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriad import engine as engine_module
from cotriad import game as game_module
from cotriad.config import parse_config
from cotriad.data import LABELED, VALIDATION, gen_synthetic_two_view, split_by_counts
from cotriad.engine import TrainConfig, _apply_filter, run_training
from cotriad.errors import InvalidInputError
from cotriad.game import (
    GameProfile,
    StudentBudget,
    TrainedTriadicGame,
    default_teacher_grid,
    equilibrium_report,
    nash_residual,
    probe_rows,
    stackelberg_residual,
)
from cotriad.generator import PerturbConfig, pgd_perturb_batch
from cotriad.student import loss_and_grads, mc_forward_batch
from cotriad.teacher import MetaBatch, map_strategy, meta_grad
from cotriad.uncertainty import batch_statistics
from toy_game import (
    TabularTriadicGame,
    alternating_best_response,
    best_response,
    best_response_residuals,
    compute_payoffs,
    toy_game,
)


def enumerate_nash(game):
    """Brute-force oracle: all profiles whose unilateral deviations never help."""
    out = []
    for t, s, g in itertools.product(
        game.teacher_points, game.student_points, game.generator_points
    ):
        ok_t = all(
            game.payoff_teacher(t2, s, g) <= game.payoff_teacher(t, s, g)
            for t2 in game.teacher_points
        )
        ok_s = all(
            game.payoff_students(t, s2, g) >= game.payoff_students(t, s, g)
            for s2 in game.student_points
        )
        ok_g = all(
            game.payoff_generator(t, s, g2) <= game.payoff_generator(t, s, g)
            for g2 in game.generator_points
        )
        if ok_t and ok_s and ok_g:
            out.append((t, s, g))
    return out


class TestTabularGame:
    def test_single_point_grid_returns_that_point(self):
        game = toy_game()
        profile = GameProfile("T1", "S1", "G1")
        point, _ = best_response(game, "generator", profile)
        assert point == "G1"

    def test_dominant_teacher_point_found(self):
        game = toy_game()
        profile = GameProfile("T1", "S1", "G1")
        point, payoff = best_response(game, "teacher", profile)
        assert point == "T2"
        assert payoff == pytest.approx(0.80)

    def test_tie_breaks_toward_incumbent(self):
        teachers = ["A", "B"]
        rt = {("A", "S", "G"): 0.5, ("B", "S", "G"): 0.5}
        rs = {("A", "S", "G"): 0.0, ("B", "S", "G"): 0.0}
        rg = dict(rs)
        game = TabularTriadicGame(teachers, ["S"], ["G"], rt, rs, rg)
        point, _ = best_response(game, "teacher", GameProfile("B", "S", "G"))
        assert point == "B"

    def test_repeated_invocation_identical(self):
        game = toy_game()
        profile = GameProfile("T1", "S2", "G1")
        first = best_response(game, "students", profile)
        second = best_response(game, "students", profile)
        assert first == second

    def test_residuals_match_hand_computation(self):
        game = toy_game()
        # At (T1, S2, G1): teacher deviation T1->T1/T2 best is 0.70 (T1), so
        # res_T = 0; students can move 0.90 -> 0.20, res_S = 0.70; generator 0.
        res = nash_residual(game, GameProfile("T1", "S2", "G1"))
        assert res == pytest.approx((0.0, 0.70, 0.0))
        # At (T1, S1, G1): teacher gains 0.80 - 0.60 via T2; students are
        # already at their minimum cost given T1.
        res = nash_residual(game, GameProfile("T1", "S1", "G1"))
        assert res == pytest.approx((0.20, 0.0, 0.0))

    def test_nash_point_matches_enumeration(self):
        game = toy_game()
        nash_set = enumerate_nash(game)
        assert nash_set == [("T2", "S1", "G1")]
        for t, s, g in itertools.product(
            game.teacher_points, game.student_points, game.generator_points
        ):
            res = nash_residual(game, GameProfile(t, s, g))
            is_nash = max(res) == 0.0
            assert is_nash == ((t, s, g) in nash_set)

    def test_alternating_best_response_converges(self):
        game = toy_game()
        final, rounds, residuals = alternating_best_response(
            game, GameProfile("T1", "S2", "G1"), max_rounds=10, tol=0.0
        )
        assert rounds <= 10
        assert (final.teacher_point, final.students, final.generator_cfg) == (
            "T2",
            "S1",
            "G1",
        )
        assert max(residuals) == 0.0

    def test_residual_nonnegative_and_monotone_under_grid_growth(self):
        game = toy_game()
        profile = GameProfile("T2", "S1", "G1")
        base = nash_residual(game, profile)
        assert min(base) >= 0.0
        # Add a dominating teacher point: the teacher residual cannot shrink.
        rt = dict(game._rt)
        rs = dict(game._rs)
        rg = dict(game._rg)
        for s in game.student_points:
            rt[("T3", s, "G1")] = 0.95
            rs[("T3", s, "G1")] = rs[("T1", s, "G1")]
            rg[("T3", s, "G1")] = 1.0
        bigger = TabularTriadicGame(
            game.teacher_points + ["T3"], game.student_points, game.generator_points,
            rt, rs, rg,
        )
        grown = nash_residual(bigger, profile)
        assert grown[0] >= base[0]
        assert grown[0] == pytest.approx(0.15)

    def test_unknown_player_rejected(self):
        with pytest.raises(InvalidInputError):
            best_response(toy_game(), "referee", GameProfile("T1", "S1", "G1"))

    # A small payoff set, so deviations often tie with the incumbent.
    PAYOFF = st.sampled_from([0.0, 0.5, 1.0, math.inf, -math.inf, math.nan])

    @settings(max_examples=300, deadline=None)
    @given(sizes=st.tuples(*[st.integers(0, 4)] * 3), data=st.data())
    def test_nash_residual_matches_best_response_oracle(self, sizes, data):
        # Grid points "T0", "T1", ...; the incumbent "T" is off the grid.
        grids = [[f"{player}{i}" for i in range(n)] for player, n in zip("TSG", sizes)]
        profile = GameProfile("T", "S", "G")
        keys = list(itertools.product(*([player, *grid] for player, grid in zip("TSG", grids))))
        payoffs = st.lists(self.PAYOFF, min_size=len(keys), max_size=len(keys))
        tables = [dict(zip(keys, data.draw(payoffs))) for _ in range(3)]
        game = TabularTriadicGame(*grids, *tables)
        assert nash_residual(game, profile) == best_response_residuals(game, profile)


class TestStrategyGrid:
    """The game's strategy grids: an empty list falls back to its default, and
    every teacher point must lie on the weight simplex."""

    def test_rejects_simplex_violations(self):
        with pytest.raises(InvalidInputError, match="simplex"):
            TrainedTriadicGame(
                small_task(), small_cfg(), teacher_points=[(0.05, 0.8, 0.7)], probe_size=32
            )

    def test_trained_game_validates_its_lists(self):
        ds = small_task()
        cfg = small_cfg()
        budget = StudentBudget(epochs=1, seed=3)
        game = TrainedTriadicGame(
            ds, cfg, teacher_points=[(0.05, 0.5, 0.25)], budgets=[budget], probe_size=32
        )
        assert game.teacher_points == [(0.05, 0.5, 0.25)]
        assert game.generator_points == [cfg.perturb] and game.budgets == [budget]
        empty = TrainedTriadicGame(
            ds, cfg, teacher_points=[], generator_points=[], budgets=[], probe_size=32
        )
        assert empty.teacher_points == default_teacher_grid()
        assert empty.generator_points == [cfg.perturb]
        assert empty.budgets == [StudentBudget(epochs=cfg.epochs, seed=cfg.seed)]
        with pytest.raises(InvalidInputError):
            TrainedTriadicGame(ds, cfg, teacher_points=[(0.05, 0.8, 0.7)], probe_size=32)


def small_task(seed=5):
    ds = gen_synthetic_two_view(420, 3, 6, 6, 0.35, seed=seed)
    return split_by_counts(ds, 30, 6, 60, seed=seed)


def small_cfg(**kw):
    base = dict(
        epochs=3,
        labeled_batch=8,
        unlabeled_ratio=3,
        lr=0.05,
        hidden=8,
        mc_passes=3,
        dropout=0.2,
        filter_direction="below",
        perturb=PerturbConfig(epsilon=0.2, steps=1),
        seed=9,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainedGame:
    def test_payoffs_deterministic_and_bounded(self):
        ds = small_task()
        cfg = small_cfg()
        rep = run_training(cfg, ds)
        game = TrainedTriadicGame(
            ds, cfg,
            teacher_points=[(0.05, 0.5, 0.25)],
            generator_points=[cfg.perturb],
            budgets=[StudentBudget(epochs=1, seed=3)],
            probe_size=64,
        )
        profile = GameProfile(rep.teacher.mapped(), rep.students, cfg.perturb)
        first = compute_payoffs(game, profile)
        second = compute_payoffs(game, profile)
        assert first == second
        assert 0.0 <= first[0] <= 1.0

    def test_zero_perturbation_generator_payoff_is_clean_entropy(self):
        ds = small_task()
        cfg = small_cfg()
        rep = run_training(cfg, ds)
        game = TrainedTriadicGame(ds, cfg, probe_size=64)
        # A tiny-budget attack cannot move the entropy away from clean.
        tiny = PerturbConfig(epsilon=1e-12, steps=1)
        val = game.payoff_generator(rep.teacher.mapped(), rep.students, tiny)
        from cotriad.numerics import entropy_rows, softmax_rows
        from cotriad.student import forward_batch

        x1, x2 = ds.views(game.probe_rows)
        clean = 0.5 * (
            entropy_rows(softmax_rows(forward_batch(rep.students[0], x1)[0])).mean()
            + entropy_rows(softmax_rows(forward_batch(rep.students[1], x2)[0])).mean()
        )
        assert val == pytest.approx(float(clean), abs=1e-6)

    def test_generator_best_response_scans_grid(self):
        ds = small_task()
        cfg = small_cfg()
        rep = run_training(cfg, ds)
        grid = [
            PerturbConfig(epsilon=1e-12, steps=1),
            PerturbConfig(epsilon=0.3, steps=3, step_size=0.1),
        ]
        game = TrainedTriadicGame(ds, cfg, generator_points=grid, probe_size=64)
        profile = GameProfile(rep.teacher.mapped(), rep.students, grid[0])
        point, payoff = best_response(game, "generator", profile)
        # The real attack strictly raises entropy over the null attack.
        assert point is grid[1]
        res = nash_residual(game, GameProfile(rep.teacher.mapped(), rep.students, grid[1]))
        assert res[2] == 0.0

    @pytest.mark.parametrize(
        "attack, expected",
        [
            (None, 0.933615133337578),
            (
                PerturbConfig(epsilon=0.2, gamma=0.5, steps=2, step_size=0.1, mi_passes=3),
                0.8277367381293699,
            ),
        ],
    )
    def test_generator_payoff_runs_no_mc_pass(self, attack, expected, monkeypatch):
        # The generator's payoff needs no MC statistics. Expected values were
        # recorded before the unused MC pass was removed, on the platform
        # TestGoldenDigest in test_engine.py names.
        ds = small_task()
        cfg = small_cfg()
        rep = run_training(cfg, ds)
        game = TrainedTriadicGame(ds, cfg, probe_size=64)

        def no_mc(*args, **kwargs):
            raise AssertionError("payoff_generator ran an MC pass")

        monkeypatch.setattr(game_module, "mc_forward_batch", no_mc)
        payoff = game.payoff_generator(rep.teacher.mapped(), rep.students, attack or cfg.perturb)
        assert payoff == expected

    def test_default_teacher_grid_satisfies_simplex(self):
        for tau, lam_u, lam_adv in default_teacher_grid():
            assert 0.0 <= tau <= 1.0
            assert lam_u + lam_adv <= 1.0

    def test_config_default_grid_is_the_default_teacher_grid(self):
        assert parse_config(None).teacher_grid() == default_teacher_grid()

    def test_equilibrium_report_shape(self):
        ds = small_task()
        cfg = small_cfg()
        rep = run_training(cfg, ds)
        game = TrainedTriadicGame(
            ds, cfg,
            teacher_points=[rep.teacher.mapped()],
            generator_points=[cfg.perturb],
            budgets=[StudentBudget(epochs=1, seed=3)],
            probe_size=48,
        )
        profile = GameProfile(rep.teacher.mapped(), rep.students, cfg.perturb)
        payload = equilibrium_report(game, profile, tolerance=10.0)
        assert payload["grid_nash"] is True
        assert set(payload["nash_residuals"]) == {"teacher", "students", "generator"}


class TestPayoffCache:
    """Each payoff ingredient is computed once per game and key."""

    # sha256 of the sorted-key JSON of equilibrium_report (with Stackelberg
    # residuals) for the game below, and payoff_students at STUDENT_POINTS x
    # the generator grid, on the platform TestGoldenDigest in test_engine.py
    # names. The payoffs were recorded before the ingredients were cached,
    # when the game's MC passes were its own argument (default 5), so they
    # are checked on a 5-pass config. The digest was recorded when the game
    # began to read them from the run's config (3 passes here); the parent
    # code gave the same digest when passed the run's 3.
    REPORT_DIGEST = "8146224e6a2b70ef763fa0bd05f78aed0dd59f9e23da9d331bcc33fe90c05783"
    STUDENT_POINTS = [
        (0.05, 0.0, 0.0), (0.05, 0.5, 0.0), (0.05, 0.0, 0.5), (0.2, 0.25, 0.5), (0.01, 0.75, 0.25)
    ]
    STUDENT_PAYOFFS = [
        0.0, 0.0,
        0.43376935049409215, 0.43376935049409215,
        0.933615133337578, 0.8277367381293699,
        1.2756629791285374, 1.1697845839203294,
        0.8041694805067241, 0.7512302829026201,
    ]

    @staticmethod
    def _setup():
        ds = small_task()
        cfg = small_cfg()
        rep = run_training(cfg, ds)
        # One gamma = 0 and one gamma > 0 attack; the first is the run's own.
        grid = [
            cfg.perturb,
            PerturbConfig(epsilon=0.2, gamma=0.5, steps=2, step_size=0.1, mi_passes=3),
        ]
        return ds, cfg, rep, grid

    @staticmethod
    def _game(ds, cfg, grid):
        return TrainedTriadicGame(
            ds, cfg,
            generator_points=grid,
            budgets=[StudentBudget(epochs=1, seed=3)],
            probe_size=64,
        )

    @staticmethod
    def _count(monkeypatch):
        """Counters of game.evaluate, mc_forward_batch and pgd_perturb_batch.

        Keys: the students' identities; the params' identity; the params'
        identity and the attack config.
        """
        calls = {name: collections.Counter() for name in ("evaluate", "mc", "pgd")}

        def counted(name, fn, key):
            def wrapper(*args, **kwargs):
                calls[name][key(*args)] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(game_module, "evaluate", counted(
            "evaluate", game_module.evaluate, lambda s, *rest: tuple(map(id, s))))
        monkeypatch.setattr(game_module, "mc_forward_batch", counted(
            "mc", game_module.mc_forward_batch, lambda p, *rest: id(p)))
        monkeypatch.setattr(game_module, "pgd_perturb_batch", counted(
            "pgd", game_module.pgd_perturb_batch, lambda p, x, g, *rest: (id(p), g)))
        return calls

    def test_report_and_student_payoffs_are_unchanged(self):
        ds, cfg, rep, grid = self._setup()
        game = self._game(ds, cfg, grid)
        profile = GameProfile(rep.teacher.mapped(), rep.students, cfg.perturb)
        res = stackelberg_residual(rep.students, rep.teacher, ds, cfg, probe_size=64)
        payload = equilibrium_report(game, profile, 1e-2, res)
        blob = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.REPORT_DIGEST
        game = self._game(ds, dataclasses.replace(cfg, mc_passes=5), grid)
        payoffs = [
            game.payoff_students(t, rep.students, g) for t in self.STUDENT_POINTS for g in grid
        ]
        assert payoffs == self.STUDENT_PAYOFFS

    def test_one_computation_per_key_during_a_report(self, monkeypatch):
        ds, cfg, rep, grid = self._setup()
        game = self._game(ds, cfg, grid)
        profile = GameProfile(rep.teacher.mapped(), rep.students, cfg.perturb)
        calls = self._count(monkeypatch)
        equilibrium_report(game, profile)
        # The teacher's payoff is scored on the diagnosed students only.
        assert calls["evaluate"] == {tuple(map(id, rep.students)): 1}
        # MC on both views of the diagnosed students and of the one
        # retrained deviation; attacks on both views for every generator
        # point against the diagnosed students and for the profile's
        # attack against the deviation.
        assert set(calls["mc"].values()) == {1} and len(calls["mc"]) == 4
        assert all(calls["mc"][id(p)] == 1 for p in rep.students)
        assert set(calls["pgd"].values()) == {1} and len(calls["pgd"]) == 6
        assert all(calls["pgd"][(id(p), g)] == 1 for p in rep.students for g in grid)

    def test_report_scores_each_strategy_once(self, monkeypatch):
        ds, cfg, rep, grid = self._setup()
        game = self._game(ds, cfg, grid)
        profile = GameProfile(rep.teacher.mapped(), rep.students, cfg.perturb)
        calls = collections.Counter()
        names = ("payoff_teacher", "payoff_students", "payoff_generator", "student_deviations")
        for name in names:
            def counted(*args, name=name, method=getattr(game, name)):
                calls[name] += 1
                return method(*args)
            monkeypatch.setattr(game, name, counted)
        equilibrium_report(game, profile)
        # Once for the profile and once per grid point or retrained deviation.
        assert calls == {
            "payoff_teacher": 1 + len(game.teacher_points),
            "payoff_students": 1 + len(game.budgets),
            "payoff_generator": 1 + len(grid),
            "student_deviations": 1,
        }

    def test_keys_follow_identity_and_lifetime_is_the_game(self, monkeypatch):
        ds, cfg, rep, grid = self._setup()
        game = self._game(ds, cfg, grid)
        t, s, g = rep.teacher.mapped(), rep.students, grid[1]
        first = (game.payoff_teacher(t, s, g), game.payoff_students(t, s, g),
                 game.payoff_generator(t, s, g))
        calls = self._count(monkeypatch)
        # A list of the same students is the same key: nothing is recomputed.
        as_list = list(s)
        assert (game.payoff_teacher(t, as_list, g), game.payoff_students(t, as_list, g),
                game.payoff_generator(t, as_list, g)) == first
        assert not any(calls.values())
        # An equal-weights copy is a separate entry with an equal payoff.
        copy = tuple(p.with_vector(p.vector.copy()) for p in s)
        assert (game.payoff_teacher(t, copy, g), game.payoff_students(t, copy, g),
                game.payoff_generator(t, copy, g)) == first
        assert calls["evaluate"] == {tuple(map(id, copy)): 1}
        assert set(calls["mc"]) == {id(p) for p in copy}
        assert set(calls["pgd"]) == {(id(p), g) for p in copy}
        # A second game starts empty and recomputes everything.
        other = self._game(ds, cfg, grid)
        assert (other.payoff_teacher(t, s, g), other.payoff_students(t, s, g),
                other.payoff_generator(t, s, g)) == first
        assert calls["evaluate"][tuple(map(id, s))] == 1
        assert all(calls["mc"][id(p)] == 1 for p in s)
        assert all(calls["pgd"][(id(p), g)] == 1 for p in s)

    def test_students_payoff_without_unsup_weight_runs_no_mc_pass(self, monkeypatch):
        ds, cfg, rep, grid = self._setup()
        game = self._game(ds, cfg, grid)

        def no_mc(*args, **kwargs):
            raise AssertionError("payoff_students ran an MC pass at lambda_u = 0")

        monkeypatch.setattr(game_module, "mc_forward_batch", no_mc)
        t = self.STUDENT_POINTS[2]
        assert game.payoff_students(t, rep.students, grid[0]) == self.STUDENT_PAYOFFS[4]

    def test_students_payoff_of_an_adv_off_run_has_no_adv_term(self):
        # Like its retraining, a run trained without the adversarial term
        # scores lambda_adv as 0.
        ds, cfg, rep, grid = self._setup()
        game = self._game(ds, dataclasses.replace(cfg, adv_enabled=False), grid)
        for tau, lam_u, lam_adv in self.STUDENT_POINTS:
            for g in grid:
                off = game.payoff_students((tau, lam_u, 0.0), rep.students, g)
                assert game.payoff_students((tau, lam_u, lam_adv), rep.students, g) == off
        assert game.payoff_students((0.05, 0.0, 0.5), rep.students, grid[0]) == 0.0


class TestStackelbergResiduals:
    def test_definitions_and_ordering(self):
        ds = small_task()
        cfg = small_cfg(epochs=6)
        rep = run_training(cfg, ds)
        trained = stackelberg_residual(rep.students, rep.teacher, ds, cfg, probe_size=96)
        assert trained.teacher >= 0 and trained.students >= 0 and trained.generator >= 0
        # Untrained models sit far from stationarity on the same task/seed.
        from cotriad.engine import init_state

        fresh = init_state(cfg, ds, total_steps=10)
        untrained = stackelberg_residual(fresh.students, fresh.teacher, ds, cfg, probe_size=96)
        assert untrained.students > trained.students

    def test_unsup_off_skips_mc_and_reports_zero_teacher_residual(self, monkeypatch):
        # Without the unsup term train_step applies no meta-gradient, so the
        # teacher sits still by construction; mc_passes = 0 is then valid.
        ds = small_task()
        cfg = small_cfg(unsup_enabled=False, mc_passes=0, epochs=1)
        rep = run_training(cfg, ds)

        def no_mc(*args, **kwargs):
            raise AssertionError("stackelberg_residual ran an MC pass")

        monkeypatch.setattr(engine_module, "mc_forward_batch", no_mc)
        res = stackelberg_residual(rep.students, rep.teacher, ds, cfg, probe_size=64)
        assert res.teacher == 0.0
        assert res.students > 0.0 and res.generator >= 0.0

    def test_eta_zero_run_reports_meta_gradient_magnitude(self):
        ds = small_task()
        cfg = small_cfg(eta_teacher=0.0, epochs=2)
        rep = run_training(cfg, ds)
        res = stackelberg_residual(rep.students, rep.teacher, ds, cfg, probe_size=64)
        assert np.isfinite(res.teacher)


def probe_filter_oracle(students, ds, cfg, tau, probe_size):
    """MC statistics on each view of the probe and the run's filter of each."""
    probe = probe_rows(ds, probe_size)
    x_u = ds.views(probe)
    stats = [
        batch_statistics(mc_forward_batch(students[v], x_u[v], cfg.mc_passes, seed=v))
        for v in (0, 1)
    ]
    return probe, x_u, stats, [_apply_filter(cfg, stats[v], tau) for v in (0, 1)]


def residual_oracle(students, teacher, ds, cfg, probe_size):
    """The teacher and students residuals written out: the training objective
    with the run's filter, in evaluation mode, on all labeled rows, the probe
    and all validation rows (both terms on)."""
    tau, lam_u, lam_adv = teacher.mapped()
    probe, x_u, stats, filtered = probe_filter_oracle(students, ds, cfg, tau, probe_size)
    lab, val = ds.indices(LABELED), ds.indices(VALIDATION)
    x_l, x_v = ds.views(lab), ds.views(val)
    students_res = 0.0
    batches = []
    for view in (0, 1):
        other = 1 - view
        rng = np.random.default_rng(np.random.SeedSequence([0, view]))
        x_adv = x_u[view] + pgd_perturb_batch(students[view], x_u[view], cfg.perturb, rng)
        accepted, _, (gate, sign) = filtered[other]
        _, grad = loss_and_grads(students[view], x_l[view], ds.labels[lab], "ce")
        if accepted.size:
            pseudo = stats[other].pseudo_label[accepted]
            _, g_u = loss_and_grads(students[view], x_u[view][accepted], pseudo, "ce")
            grad = grad.plus(g_u, lam_u * (accepted.size / probe.size))
        _, g_adv = loss_and_grads(students[view], x_adv, None, "entropy")
        grad = grad.plus(g_adv, lam_adv)
        students_res = max(students_res, grad.inf_norm())
        batches.append(MetaBatch(
            x_unsup=x_u[view], pseudo_from_other=stats[other].pseudo_label,
            mi_from_other=gate, keep_unsup=None, adv_grad=g_adv,
            x_val=x_v[view], y_val=ds.labels[val], gate_sign=sign,
        ))
    teacher_res = float(np.abs(meta_grad(teacher, students, tuple(batches), cfg.lr)).max())
    return teacher_res, students_res


def unsup_payoff_oracle(students, ds, cfg, t, probe_size):
    """payoff_students at lambda_adv = 0, written out with the run's filter."""
    tau, lam_u, _ = t
    probe, x_u, stats, filtered = probe_filter_oracle(students, ds, cfg, tau, probe_size)
    cost = 0.0
    for view in (0, 1):
        accepted = filtered[1 - view][0]
        if accepted.size:
            pseudo = stats[1 - view].pseudo_label[accepted]
            loss, _ = loss_and_grads(students[view], x_u[view][accepted], pseudo, "ce")
            cost += lam_u * loss * (accepted.size / probe.size)
    return cost


class TestDiagnosticsFilterLikeTraining:
    """The residuals and the students' payoff filter with the run's filter.mode."""

    @pytest.mark.parametrize("mode", ["mi", "mi_conf", "confidence", "none"])
    def test_residuals_and_students_payoff_match_the_oracle(self, mode):
        ds = small_task()
        cfg = small_cfg(filter_mode=mode, tau_conf=0.6, mc_passes=5)
        rep = run_training(cfg, ds)
        res = stackelberg_residual(rep.students, rep.teacher, ds, cfg, probe_size=64)
        assert (res.teacher, res.students) == residual_oracle(
            rep.students, rep.teacher, ds, cfg, 64
        )
        game = TrainedTriadicGame(ds, cfg, probe_size=64)
        t = (rep.teacher.mapped()[0], 0.5, 0.0)
        payoff = game.payoff_students(t, rep.students, cfg.perturb)
        assert payoff > 0.0
        assert payoff == unsup_payoff_oracle(rep.students, ds, cfg, t, 64)


class TestRetrainConfig:
    """Every teacher point the game can score builds a retraining config."""

    BUDGET = StudentBudget(epochs=1, seed=3)

    @pytest.fixture(scope="class")
    def game(self):
        return TrainedTriadicGame(small_task(), small_cfg(), budgets=[self.BUDGET], probe_size=32)

    def test_weights_summing_to_one_ulp_above_one_retrain(self, game):
        # A pair map_strategy returned on an equilibrium benchmark run.
        lam_u, lam_adv = 0.49996828790166675, 0.5000317120983334
        assert lam_u + lam_adv > 1.0
        retrained = game.respond_students((0.05, lam_u, lam_adv), small_cfg().perturb)
        assert len(retrained) == 2

    # Any finite z, weighted toward the range where both weights are near 1/2.
    FINITE = st.one_of(st.floats(-40.0, 40.0), st.floats(allow_nan=False, allow_infinity=False))

    @settings(max_examples=200, deadline=None)
    @given(z=st.lists(FINITE, min_size=3, max_size=3))
    def test_every_mapped_strategy_builds_a_config(self, game, z):
        cfg = game._retrain_cfg(map_strategy(np.array(z)), small_cfg().perturb, self.BUDGET)
        assert cfg.lambda_u_init + cfg.lambda_adv_init <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        tau=st.floats(0.0, 1.0),
        lam_u=st.floats(0.0, 1.0),
        share=st.floats(0.0, 1.0),
        slack=st.floats(0.0, 1e-12),
    )
    def test_every_grid_point_builds_a_config(self, game, tau, lam_u, share, slack):
        # The game admits teacher points with lambda_u + lambda_adv up to 1 + 1e-12.
        t = (tau, lam_u, share * (1.0 - lam_u) + slack)
        TrainedTriadicGame(game.ds, game.base_cfg, teacher_points=[t], probe_size=32)
        cfg = game._retrain_cfg(t, small_cfg().perturb, self.BUDGET)
        assert cfg.lambda_u_init + cfg.lambda_adv_init <= 1.0
