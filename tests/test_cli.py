"""Config grammar, override precedence, subcommands, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cotriad.cli import main
from cotriad.config import SCHEMA, echo_overrides, parse_config
from cotriad.engine import TrainConfig
from cotriad.errors import ConfigError
from cotriad.generator import PerturbConfig


def _entry_type(decl):
    if isinstance(decl.default, list):
        return type(decl.default[0]) if decl.default else float
    return type(decl.default)


def _outside(decl) -> list:
    """Values just outside a key's declared bound, one per open side."""
    spec, kind = decl.bound, _entry_type(decl)

    def below(x):
        return int(x) - 1 if kind is int else math.nextafter(x, -math.inf)

    def above(x):
        return int(x) + 1 if kind is int else math.nextafter(x, math.inf)

    if "|" in spec:
        return ["bogus"]
    if spec[0] in "([":
        lo, hi = (float(v) for v in spec[1:-1].split(","))
        return [below(lo) if spec[0] == "[" else lo, above(hi) if spec[-1] == "]" else hi]
    op, num = spec.split()[:2]
    return [float(num) if op == ">" else below(float(num))]


def _inside(decl, cap=None):
    """A strategy for values that keep a key's declared bound, at most ``cap``
    where the bound has no upper end."""
    spec, kind = decl.bound, _entry_type(decl)
    if spec is None:
        entry = st.booleans() if kind is bool else st.text("abc_/.", max_size=6)
    elif "|" in spec:
        entry = st.sampled_from(spec.split(" | "))
    elif spec[0] in "([":
        lo, hi = (float(v) for v in spec[1:-1].split(","))
        entry = st.floats(lo, hi, exclude_min=spec[0] == "(", exclude_max=spec[-1] == ")")
    else:
        op, num = spec.split()[:2]
        if kind is int:
            entry = st.integers(int(num) + (op == ">"), cap or int(num) + 600)
        else:
            entry = st.floats(float(num), cap or 1e6, exclude_min=op == ">")
    return st.lists(entry, max_size=3) if isinstance(decl.default, list) else entry


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


class TestParseConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        cfg = parse_config(p)
        assert cfg["train.mc_passes"] == 5
        assert cfg["perturb.epsilon"] == 1.0
        assert cfg["train.mu"] == 7
        assert cfg["train.eta"] == 0.03
        assert cfg["teacher.eta_t"] == 0.01
        assert cfg["teacher.tau_init"] == 0.05
        assert cfg["teacher.lambda_u_init"] == 0.5
        assert cfg["teacher.lambda_adv_init"] == 0.5

    def test_every_key_has_default_and_doc(self):
        for key, decl in SCHEMA.items():
            assert decl.key == key and decl.help, key
            assert decl.default is not None, key

    def test_one_declaration_per_key(self):
        # The defaults of the keys are the defaults of the fields they set.
        for seed in (1, 7):
            assert parse_config(None).train_config(seed) == TrainConfig(seed=seed)
        for cls in (TrainConfig, PerturbConfig):
            for f in dataclasses.fields(cls):
                keys = [k for k, d in SCHEMA.items() if f.metadata.get("setting") is d]
                assert len(keys) == (f.name not in ("seed", "perturb")), f.name

    @pytest.mark.parametrize("key", sorted(k for k, d in SCHEMA.items() if d.bound))
    def test_value_just_outside_its_bound_is_rejected(self, key):
        for value in _outside(SCHEMA[key]):
            with pytest.raises(ConfigError) as err:
                parse_config(None, [(key, str(value))])
            assert str(err.value).startswith(f"{key} must"), (value, str(err.value))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rebuilt_from_echo_equals_the_original(self, data):
        keys = data.draw(st.lists(st.sampled_from(sorted(SCHEMA)), max_size=4, unique=True))
        overrides = [(k, _text(data.draw(_inside(SCHEMA[k]), label=k))) for k in keys]
        try:
            cfg = parse_config(None, overrides)
        except ConfigError:
            assume(False)  # a rule between keys
        # cmd_equilibrium's path: the echo goes through report.json.
        echo = json.loads(json.dumps(cfg.echo()))
        rebuilt = parse_config(None, echo_overrides(echo))
        assert rebuilt.values == cfg.values
        assert rebuilt.train_config(3) == cfg.train_config(3)

    def test_readme_ini_block_shows_the_declared_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        p = tmp_path / "readme.cfg"
        p.write_text(block)
        cfg = parse_config(p)
        keys = [ln.split("=")[0].strip() for ln in block.splitlines() if "=" in ln.split("#")[0]]
        assert len(keys) > 10
        for key in keys:
            assert cfg[key] == SCHEMA[key].default, key

    def test_every_key_appears_in_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert [key for key in SCHEMA if key not in readme] == []

    def test_file_values_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\ntrain.epochs = 7\nperturb.epsilon = 0.5  # inline\n")
        cfg = parse_config(p)
        assert cfg["train.epochs"] == 7
        assert cfg["perturb.epsilon"] == 0.5

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("teacher.eta_t = 0.5\n")
        cfg = parse_config(p, overrides=[("teacher.eta_t", "0")])
        assert cfg["teacher.eta_t"] == 0.0

    def test_unknown_key_cites_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.epochs = 3\nnot.a.key = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert err.value.line == 2

    def test_malformed_line_cites_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.epochs = 3\nwhat is this\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert err.value.line == 2

    def test_type_mismatch_cites_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("\ntrain.epochs = soon\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert err.value.line == 2

    def test_weight_simplex_violation_cites_assignment(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("teacher.lambda_u_init = 0.8\nteacher.lambda_adv_init = 0.7\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert err.value.line == 2

    def test_seed_list_parsing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.seeds = 4, 5, 6\n")
        assert parse_config(p)["train.seeds"] == [4, 5, 6]

    def test_echo_contains_every_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.epochs = 2\n")
        echo = parse_config(p).echo()
        assert set(echo) == set(SCHEMA)
        assert echo["train.epochs"] == 2


TINY = """
data.n = 420
data.classes = 3
data.d1 = 6
data.d2 = 6
data.view_noise = 0.4
data.n_labeled = 30
data.n_validation = 6
data.n_test = 60
data.seed = 5
train.epochs = 1
train.labeled_batch = 8
train.mu = 3
train.hidden = 8
train.mc_passes = 3
train.seeds = 1
perturb.epsilon = 0.2
"""


# One bad value per case, each failing its key's bound or a rule between keys.
BAD_VALUES = [
    ("perturb.steps", "0", "perturb.steps must be >= 1"),
    ("perturb.gamma", "-1", "perturb.gamma must be >= 0"),
    ("train.labeled_batch", "0", "train.labeled_batch must be >= 1"),
    ("train.dropout", "1.0", "train.dropout must lie in [0, 1)"),
    ("train.dropout", "-0.1", "train.dropout must lie in [0, 1)"),
    ("train.momentum", "2", "train.momentum must lie in [0, 1)"),
    ("train.eta", "0", "train.eta must be > 0"),
    ("train.epochs", "-1", "train.epochs must be >= 0"),
    ("train.mu", "0", "train.mu must be >= 1"),
    ("teacher.temperature", "0", "teacher.temperature must be >= 2.2250738585072014e-308"),
    # The gate's threshold derivative w(1 - w) / temperature overflows below.
    ("teacher.temperature", "5e-324", "teacher.temperature must be >= 2.2250738585072014e-308"),
    ("stop.window", "1", "stop.window must be >= 2"),
    ("stop.ea_window", "0", "stop.ea_window must be >= 1"),
    ("eval.attack_steps", "0", "eval.attack_steps must be >= 1"),
    ("eval.attack_step_frac", "0", "eval.attack_step_frac must be > 0"),
    ("data.classes", "1", "data.classes must be >= 2"),
    ("data.n", "2", "data.n must be > data.n_labeled + data.n_test"),
    ("data.view_noise", "-1", "data.view_noise must be >= 0"),
    ("data.label_noise", "-0.5", "data.label_noise must lie in [0, 1]"),
    ("data.n_validation", "0", "data.n_validation must be >= 1"),
    ("data.n_labeled", "1", "data.n_labeled must be >= 2"),
    ("data.n_labeled", "6", "data.n_labeled must be > data.n_validation"),
    ("data.n_validation", "2", "data.n_validation must be >= data.classes"),
    ("teacher.eta_t", "-1", "teacher.eta_t must be >= 0"),
    ("train.weight_norm", "-1", "train.weight_norm must be >= 0 (0 = off)"),
    ("data.n_test", "-1", "data.n_test must be >= 0"),
    ("filter.tau_conf", "0", "filter.tau_conf must lie in (0, 1]"),
    ("filter.tau_conf", "1.5", "filter.tau_conf must lie in (0, 1]"),
    ("stop.patience", "0", "stop.patience must be >= 1"),
    ("train.seeds", "1,1", "train.seeds must list at least one seed, each once"),
    ("game.probe_size", "0", "game.probe_size must be >= 1"),
    ("game.budget_epochs", "-1", "game.budget_epochs must be >= 0"),
    ("game.tolerance", "-1", "game.tolerance must be >= 0"),
    ("game.epsilon_grid", "-1", "game.epsilon_grid must be > 0"),
    ("game.tau_grid", "2", "game.tau_grid must lie in [0, 1]"),
    ("game.lambda_u_grid", "-1", "game.lambda_u_grid must lie in [0, 1]"),
]


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY)
    return p


class TestCommands:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_gradcheck_exits_zero(self):
        assert main(["gradcheck", "--instances", "3"]) == 0

    def test_train_writes_artifacts(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [1]
        assert (out / "curves_seed1.csv").exists()
        assert (out / "strategy_trace_seed1.csv").exists()
        assert (out / "model_seed1.trcm").exists()
        assert report["config"]["perturb.epsilon"] == 0.2

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_flag_override_applies(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["train", "--config", str(tiny_cfg), "--out", str(out), "--teacher.eta_t", "0"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["teacher.eta_t"] == 0.0
        # a frozen teacher keeps the initial mapped strategy all run
        strategy = report["runs"][0]["final_strategy"]
        assert strategy["tau_mi"] == pytest.approx(0.05)

    def test_train_determinism_bit_identical(self, tiny_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(tiny_cfg), "--out", str(out1)])
        main(["train", "--config", str(tiny_cfg), "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "model_seed1.trcm").read_bytes() == (out2 / "model_seed1.trcm").read_bytes()

    def test_synth_data_then_train_reproduces_in_memory_run(self, tiny_cfg, tmp_path):
        mem_out = tmp_path / "mem"
        main(["train", "--config", str(tiny_cfg), "--out", str(mem_out)])
        files = tmp_path / "files"
        assert main(["synth-data", "--config", str(tiny_cfg), "--out", str(files)]) == 0
        file_out = tmp_path / "file_run"
        code = main([
            "train", "--config", str(tiny_cfg), "--out", str(file_out),
            "--data.source", "files",
            "--data.view1", str(files / "view1.trco"),
            "--data.view2", str(files / "view2.trco"),
            "--data.labels", str(files / "labels.trcl"),
        ])
        assert code == 0
        a = json.loads((mem_out / "report.json").read_text())
        b = json.loads((file_out / "report.json").read_text())
        assert a["runs"] == b["runs"]
        assert (mem_out / "model_seed1.trcm").read_bytes() == (
            file_out / "model_seed1.trcm"
        ).read_bytes()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("data.n_validation", "2",
             "data.n_validation must be >= 3, the classes among the labeled rows"),
            ("data.n_test", "500", "data.n_labeled + data.n_test must be <= 420, the labeled rows"),
            # Every synthetic row is labeled, so this split leaves no unlabeled row.
            ("data.n_test", "390", "data.n_labeled + data.n_test must be < 420, "
             "the labeled rows, so some stay unlabeled"),
        ],
    )
    def test_files_mode_split_rules_name_the_key_and_line(
        self, tiny_cfg, tmp_path, capsys, key, value, message
    ):
        # Parsing cannot see a file's classes or labeled rows; building the
        # dataset checks them and names the key at fault, on the last line.
        files = tmp_path / "files"
        assert main(["synth-data", "--config", str(tiny_cfg), "--out", str(files)]) == 0
        cfg = tmp_path / "files.cfg"
        cfg.write_text(
            tiny_cfg.read_text()
            + "data.source = files\n"
            + "".join(
                f"data.{name} = {files / file}\n"
                for name, file in (("view1", "view1.trco"), ("view2", "view2.trco"),
                                   ("labels", "labels.trcl"))
            )
            + f"{key} = {value}\n"
        )
        line = len(cfg.read_text().splitlines())
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"line {line}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_synth_data_csv_matches_binary(self, tiny_cfg, tmp_path):
        b = tmp_path / "bin"
        c = tmp_path / "csv"
        main(["synth-data", "--config", str(tiny_cfg), "--out", str(b)])
        main(["synth-data", "--config", str(tiny_cfg), "--out", str(c), "--format", "csv"])
        from cotriad.data import load_embedding_file
        import numpy as np

        ds_b = load_embedding_file(b / "view1.trco", b / "view2.trco", b / "labels.trcl")
        ds_c = load_embedding_file(c / "view1.csv", c / "view2.csv", c / "labels.csv")
        np.testing.assert_array_equal(ds_b.view1, ds_c.view1)
        np.testing.assert_array_equal(ds_b.view2, ds_c.view2)
        np.testing.assert_array_equal(ds_b.labels, ds_c.labels)

    def test_eval_on_saved_model(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out", str(out)])
        capsys.readouterr()
        code = main(["eval", "--model", str(out / "model_seed1.trcm"), "--config", str(tiny_cfg)])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "accuracy" in metrics and "pgd_robust_accuracy" in metrics

    def test_equilibrium_on_run_dir(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out", str(out)])
        code = main([
            "equilibrium", "--run", str(out),
            "--game.probe_size", "32", "--game.budget_epochs", "1",
            "--game.tau_grid", "0.05", "--game.lambda_u_grid", "0.5",
            "--game.lambda_adv_grid", "0.25",
        ])
        assert code == 0
        payload = json.loads((out / "equilibrium_report.json").read_text())
        assert set(payload["nash_residuals"]) == {"teacher", "students", "generator"}
        assert "stackelberg_residuals" in payload

    def test_equilibrium_on_run_trained_with_gamma(self, tiny_cfg, tmp_path, capsys):
        # gamma > 0 attacks draw dropout masks; the diagnostics derive them
        # from the probe seed.
        out = tmp_path / "run"
        gamma = ["--perturb.gamma", "0.5", "--perturb.mi_passes", "3"]
        assert main(["train", "--config", str(tiny_cfg), "--out", str(out)] + gamma) == 0
        args = [
            "equilibrium", "--run", str(out),
            "--game.probe_size", "32", "--game.budget_epochs", "1",
            "--game.tau_grid", "0.05", "--game.lambda_u_grid", "0.5",
            "--game.lambda_adv_grid", "0.25",
        ]
        assert main(args) == 0
        first = (out / "equilibrium_report.json").read_bytes()
        payload = json.loads(first)
        assert payload["generator_config"]["gamma"] == 0.5
        residuals = list(payload["stackelberg_residuals"].values())
        assert all(math.isfinite(r) for r in residuals)
        assert main(args) == 0
        assert (out / "equilibrium_report.json").read_bytes() == first

    def test_equilibrium_on_run_trained_without_unsup_term(self, tiny_cfg, tmp_path, capsys):
        # mc_passes = 0 is valid without the unsup term; the diagnostics run
        # no MC pass and report a teacher residual of 0, since training
        # applies no meta-gradient in this configuration.
        out = tmp_path / "run"
        off = ["--train.unsup_enabled", "false", "--train.mc_passes", "0"]
        assert main(["train", "--config", str(tiny_cfg), "--out", str(out)] + off) == 0
        code = main([
            "equilibrium", "--run", str(out),
            "--game.probe_size", "32", "--game.budget_epochs", "1",
            "--game.tau_grid", "0.05", "--game.lambda_u_grid", "0.5",
            "--game.lambda_adv_grid", "0.25",
        ])
        assert code == 0
        payload = json.loads((out / "equilibrium_report.json").read_text())
        assert payload["stackelberg_residuals"]["teacher"] == 0.0
        assert math.isfinite(payload["stackelberg_residuals"]["students"])

    def test_equilibrium_uses_the_runs_attack_and_mc_estimate(self, tiny_cfg, tmp_path, capsys):
        # One report, one MC estimate and one attack config: the generator
        # grid holds the incumbent's attack, and the students' payoff uses
        # train.mc_passes (3 here), as stackelberg_residual does.
        from cotriad.engine import load_model
        from cotriad.game import StudentBudget, TrainedTriadicGame

        out = tmp_path / "run"
        attack = ["--perturb.step_size", "0.1", "--perturb.steps", "2"]
        assert main(["train", "--config", str(tiny_cfg), "--out", str(out)] + attack) == 0
        grids = [
            "--game.probe_size", "32", "--game.budget_epochs", "1",
            "--game.tau_grid", "0.05", "--game.lambda_u_grid", "0.5",
            "--game.lambda_adv_grid", "0.25",
        ]
        assert main(["equilibrium", "--run", str(out)] + grids) == 0
        payload = json.loads((out / "equilibrium_report.json").read_text())
        incumbent = payload["generator_config"]
        assert (incumbent["epsilon"], incumbent["steps"], incumbent["step_size"]) == (0.2, 2, 0.1)
        assert [(g["epsilon"], g["steps"], g["step_size"]) for g in payload["generator_grid"]] == [
            (0.2, 2, 0.1)
        ]

        cfg = parse_config(tiny_cfg, [("perturb.step_size", "0.1"), ("perturb.steps", "2")])
        train_cfg = cfg.train_config(1)
        students, teacher = load_model(out / "model_seed1.trcm")

        def students_payoff(mc_passes):
            game = TrainedTriadicGame(
                cfg.build_dataset(), dataclasses.replace(train_cfg, mc_passes=mc_passes),
                teacher_points=[(0.05, 0.5, 0.25)],
                budgets=[StudentBudget(epochs=1, seed=97)], probe_size=32,
            )
            return game.payoff_students(teacher.mapped(), students, train_cfg.perturb)

        assert payload["payoffs"]["students"] == students_payoff(3)
        assert payload["payoffs"]["students"] != students_payoff(5)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param(
                [("train.hidden", "0")],
                "train.hidden must be >= 1",
                id="train.hidden-0",
            ),
            pytest.param(
                [("perturb.step_size", "-1")],
                "perturb.step_size must be >= 0 (0 = epsilon)",
                id="perturb.step_size--1",
            ),
            pytest.param(
                [("teacher.update_every", "0")],
                "teacher.update_every must be >= 1",
                id="teacher.update_every-0-teacher.update_every must be >= 1",
            ),
            pytest.param(
                [("train.steps_per_epoch", "-2")],
                "train.steps_per_epoch must be >= 0",
                id="train.steps_per_epoch--2-train.steps_per_epoch must be >= 0",
            ),
            pytest.param(
                [("filter.mode", "mi_conf"), ("train.mc_passes", "1")],
                "train.mc_passes must be >= 2 with filter.mode = mi_conf",
                id="mi_conf-one-pass",
            ),
            pytest.param(
                [("filter.mode", "confidence"), ("train.mc_passes", "0")],
                "train.mc_passes must be >= 1 with filter.mode = confidence",
                id="confidence-zero-passes",
            ),
            pytest.param(
                [("perturb.gamma", "0.5"), ("perturb.mi_passes", "1")],
                "perturb.mi_passes must be >= 2 when perturb.gamma > 0",
                id="gamma-one-mi-pass",
            ),
        ]
        + [
            pytest.param([(key, value)], message, id=f"{key}-{value}")
            for key, value, message in BAD_VALUES
        ],
    )
    def test_degenerate_schedule_rejected_at_parse_time(
        self, tiny_cfg, tmp_path, capsys, overrides, message
    ):
        # The last override is the key the error names, on the last line.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(tiny_cfg.read_text() + "".join(f"{k} = {v}\n" for k, v in overrides))
        line = len(cfg.read_text().splitlines())
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: {message}" in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            ["--teacher.eta_t", "0"],
            ["--perturb.step_size", "0"],
            ["--train.weight_norm", "0"],
            ["--train.steps_per_epoch", "0"],
            ["--train.epochs", "0"],
            ["--data.n_test", "0"],
            ["--train.unsup_enabled", "false", "--train.mc_passes", "0"],
        ],
        ids=lambda o: " ".join(o[::2]).replace("--", ""),
    )
    def test_zero_that_means_off_or_default_still_runs(self, tiny_cfg, tmp_path, overrides):
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_cfg), "--out", str(out)] + overrides) == 0
        assert (out / "report.json").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param(
                ["--teacher.enabled", "false"],
                "non-finite loss_total at epoch 0, step 1",
                id="teacher-off",
            ),
            pytest.param([], "non-finite meta-gradient at epoch 0, step 0", id="teacher-on"),
        ],
    )
    def test_diverged_run_names_epoch_step_and_quantity(
        self, tiny_cfg, tmp_path, capsys, overrides, message
    ):
        out = tmp_path / "run"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["train", "--config", str(tiny_cfg), "--out", str(out), "--train.eta", "1e200"]
                + overrides
            )
        assert code == 1
        # numpy's overflow warnings would print above the error line.
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "report.json").exists()

    def test_removed_balanced_batch_key_is_unknown(self, tiny_cfg, tmp_path, capsys):
        # train.balanced_labeled is gone: as a flag, and in the config echo
        # of a run directory written while it existed.
        out = tmp_path / "run"
        capsys.readouterr()
        flag = ["--train.balanced_labeled", "true"]
        assert main(["train", "--config", str(tiny_cfg), "--out", str(out)] + flag) == 2
        assert "unknown key 'train.balanced_labeled'" in capsys.readouterr().err
        assert main(["train", "--config", str(tiny_cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report["config"]["train.balanced_labeled"] = False
        (out / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["equilibrium", "--run", str(out)]) == 2
        assert "unknown key 'train.balanced_labeled'" in capsys.readouterr().err

    def test_cost_command(self, tiny_cfg, capsys):
        assert main(["cost", "--config", str(tiny_cfg)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["per_step"]["student_train_passes"] == 2.0

    def test_plain_curve_files_written(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out", str(out)])
        assert (out / "curves.csv").read_bytes() == (out / "curves_seed1.csv").read_bytes()
        assert (out / "strategy_trace.csv").exists()

    def test_rerun_from_echo_reproduces_report(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out", str(out)])
        echo = json.loads((out / "report.json").read_text())["config"]
        echo_cfg = tmp_path / "echo.cfg"
        lines = []
        for key, value in echo.items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        echo_cfg.write_text("\n".join(lines) + "\n")
        out2 = tmp_path / "rerun"
        assert main(["train", "--config", str(echo_cfg), "--out", str(out2)]) == 0
        assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# The sweep's task: TINY with 74 unlabeled rows, a 1-epoch retraining and a
# 32-row probe, so that all four commands take well under a second.
SWEEP_CFG = """
data.n = 150
data.classes = 3
data.d1 = 6
data.d2 = 6
data.view_noise = 0.4
data.n_labeled = 30
data.n_validation = 6
data.n_test = 40
data.seed = 5
train.epochs = 1
train.labeled_batch = 8
train.mu = 3
train.hidden = 8
train.mc_passes = 3
train.seeds = 1
perturb.epsilon = 0.2
game.budget_epochs = 1
game.probe_size = 32
"""

# Upper caps on the keys that set how much work a run does; every other
# value is drawn from its key's whole declared bound.
SWEEP_CAPS = {
    "data.n": 150, "data.classes": 4, "data.d1": 8, "data.d2": 8, "data.n_labeled": 40,
    "data.n_validation": 8, "data.n_test": 60, "train.epochs": 2, "train.steps_per_epoch": 3,
    "train.labeled_batch": 16, "train.mu": 4, "train.mc_passes": 4, "train.hidden": 8,
    "perturb.steps": 3, "perturb.mi_passes": 4, "eval.attack_steps": 3,
    "game.budget_epochs": 2, "game.probe_size": 64,
}

# Files mode reads files from disk; the files-mode tests of TestCommands
# cover its keys.
SWEPT_KEYS = sorted(set(SCHEMA) - {"data.source", "data.view1", "data.view2", "data.labels"})

SWEEP_OVERRIDES = st.lists(st.sampled_from(SWEPT_KEYS), max_size=6, unique=True).flatmap(
    lambda keys: st.tuples(*(
        _inside(SCHEMA[k], SWEEP_CAPS.get(k)).map(lambda v, k=k: (k, _text(v))) for k in keys
    ))
)


def _ran(code: int, err: str) -> bool:
    """True for exit 0, False for a run that stopped on a non-finite value
    and said so in one error line; anything else fails the test."""
    if code == 1 and err.startswith("error: non-finite ") and err.count("\n") == 1:
        return False
    assert code == 0, err
    return True


class TestConfigSweep:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(overrides=SWEEP_OVERRIDES)
    @example(overrides=(("perturb.gamma", "0.5"), ("perturb.steps", "2")))
    def test_every_drawn_config_runs_or_fails_at_parse_time(self, tmp_path_factory, overrides):
        # train -> equilibrium -> eval -> cost. A config error comes from
        # train and names a drawn key.
        root = tmp_path_factory.mktemp("sweep")
        cfg, run = root / "sweep.cfg", root / "run"
        cfg.write_text(SWEEP_CFG)
        flags = [tok for key, value in overrides for tok in (f"--{key}", value)]

        def run_cli(argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                return main(argv), err.getvalue()

        code, err = run_cli(["train", "--config", str(cfg), "--out", str(run)] + flags)
        if code == 2:
            assert err.startswith("config error:"), err
            assert any(key in err for key, _ in overrides), err
            return
        if not _ran(code, err):
            return
        seed = json.loads((run / "report.json").read_text())["seeds"][0]
        model = run / f"model_seed{seed}.trcm"
        for argv in (
            ["equilibrium", "--run", str(run)],
            ["eval", "--model", str(model), "--config", str(cfg)] + flags,
            ["cost", "--config", str(cfg)] + flags,
        ):
            if not _ran(*run_cli(argv)):
                return
