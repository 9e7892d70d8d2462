"""Config grammar, override precedence, subcommands, exit codes."""

import json
import math

import pytest

from cotriad.cli import main
from cotriad.config import SCHEMA, parse_config
from cotriad.errors import ConfigError


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
        for key, (parser, default, doc) in SCHEMA.items():
            assert doc, key
            assert default is not None or key.startswith("data."), key

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
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
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_names_epoch_step_and_quantity(
        self, tiny_cfg, tmp_path, capsys, overrides, message
    ):
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(
            ["train", "--config", str(tiny_cfg), "--out", str(out), "--train.eta", "1e200"]
            + overrides
        )
        assert code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {message}"
        ]
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

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
