"""Command-line front end.

Subcommands: train, eval, equilibrium, gradcheck, synth-data, cost. Exit
codes: 0 success, 1 check failure or a diverged (non-finite) run, 2
configuration or usage error, or a path that cannot be used. Every config
key is an option ``--section.key VALUE`` of the subcommands that read a
config (all but gradcheck), and overrides the config file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import engine, gradcheck
from .config import SCHEMA, parse_config
from .data import write_embeddings, write_labels, write_labels_csv, write_matrix_csv
from .engine import (
    CURVE_COLUMNS,
    STRATEGY_COLUMNS,
    dump_json,
    eval_attack_config,
    eval_split,
    evaluate,
    load_model,
    run_training,
    save_model,
    write_csv,
)
from .errors import ConfigError, FormatError, InvalidInputError, NonFiniteError
from .game import (
    GameProfile,
    StudentBudget,
    TrainedTriadicGame,
    equilibrium_report,
    nonfinite_quantity,
    stackelberg_residual,
)


def _overrides(args) -> list[tuple[str, str]]:
    """The config keys given on the command line, in the order given."""
    return [(key, value) for key, value in vars(args).items() if key in SCHEMA]


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_fits(path, students, ds) -> None:
    """A ``FormatError`` naming the model at ``path`` unless each student
    takes its view's width and the model has a class for every label."""
    for i, (p, x) in enumerate(zip(students, (ds.view1, ds.view2))):
        if p.d_in != x.shape[1]:
            raise FormatError(path, f"student {i} takes {p.d_in} inputs, "
                              f"but its view has {x.shape[1]} columns")
    if students[0].n_classes < ds.n_classes:
        raise FormatError(path, f"the model has {students[0].n_classes} classes, "
                          f"but the dataset's labels need {ds.n_classes}")


def cmd_train(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    ds = cfg.build_dataset()
    out = _out_dir(args.out)
    per_seed = []
    for index, seed in enumerate(cfg["train.seeds"]):
        report = run_training(cfg.train_config(seed), ds)
        per_seed.append(engine.report_payload(report, ds))
        save_model(out / f"model_seed{seed}.trcm", report.students, report.teacher)
        for name, columns in (("curves", CURVE_COLUMNS), ("strategy_trace", STRATEGY_COLUMNS)):
            write_csv(out / f"{name}_seed{seed}.csv", report.epoch_rows, columns)
            if index == 0:
                write_csv(out / f"{name}.csv", report.epoch_rows, columns)
    metrics = {}
    for key in ("accuracy", "pgd_robust_accuracy", "agreement", "mean_entropy"):
        arr = np.asarray([p["final_eval"][key] for p in per_seed], dtype=np.float64)
        metrics[key] = {"mean": float(arr.mean()), "sd": float(arr.std(ddof=0))}
    dump_json(
        out / "report.json",
        {"config": cfg.echo(), "seeds": cfg["train.seeds"], "runs": per_seed, "aggregate": metrics},
    )
    print(f"wrote {out / 'report.json'}")
    for key, stats in metrics.items():
        print(f"  {key}: {stats['mean']:.4f} +/- {stats['sd']:.4f}")
    return 0


def cmd_eval(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    # A bad model is reported before any dataset work.
    students, _ = load_model(args.model)
    ds = cfg.build_dataset()
    _check_fits(args.model, students, ds)
    seed0 = cfg["train.seeds"][0]
    metrics = evaluate(students, ds, eval_split(ds), eval_attack_config(cfg.train_config(seed0)))
    print(json.dumps(metrics, indent=2, sort_keys=True))
    if args.out:
        dump_json(_out_dir(args.out) / "eval.json", {"config": cfg.echo(), "metrics": metrics})
    return 0


def cmd_equilibrium(args) -> int:
    run_dir = Path(args.run)
    report_path = run_dir / "report.json"
    if not report_path.exists():
        raise ConfigError(f"{report_path} not found; point --run at a train output directory")
    cfg = parse_config(None, _overrides(args), report=report_path)
    seed = cfg["train.seeds"][0]
    # A bad model is reported before any dataset work.
    model = run_dir / f"model_seed{seed}.trcm"
    students, teacher = load_model(model)
    ds = cfg.build_dataset()
    _check_fits(model, students, ds)
    train_cfg = cfg.train_config(seed)
    eps_grid = cfg["game.epsilon_grid"] or [cfg["perturb.epsilon"]]
    # The run's own attack at each budget, so the incumbent is on its grid;
    # the game takes the run's MC passes and filter from train_cfg.
    generator_points = [replace(train_cfg.perturb, epsilon=e) for e in eps_grid]
    game = TrainedTriadicGame(
        ds,
        train_cfg,
        generator_points=generator_points,
        budgets=[StudentBudget(epochs=cfg["game.budget_epochs"], seed=cfg["game.budget_seed"])],
        probe_size=cfg["game.probe_size"],
    )
    profile = GameProfile(teacher.mapped(), students, train_cfg.perturb)
    residuals = stackelberg_residual(
        students, teacher, ds, train_cfg, probe_size=cfg["game.probe_size"]
    )
    payload = equilibrium_report(game, profile, cfg["game.tolerance"], residuals)
    out = _out_dir(args.out or args.run)
    dump_json(out / "equilibrium_report.json", payload)
    print(json.dumps(payload["nash_residuals"], indent=2, sort_keys=True))
    print(json.dumps(payload["stackelberg_residuals"], indent=2, sort_keys=True))
    quantity = nonfinite_quantity(payload)
    if quantity:
        print(f"error: non-finite {quantity} in the equilibrium report", file=sys.stderr)
    return 1 if quantity else 0


def cmd_gradcheck(args) -> int:
    failures = 0
    for result in gradcheck.run_all(args.instances):
        status = "ok" if result.passed else "FAIL"
        print(
            f"{result.name}: {result.instances} instances, "
            f"max normalized deviation {result.max_ratio:.6f} "
            f"(rtol {result.rtol}, atol {result.atol}) ... {status}"
        )
        failures += 0 if result.passed else 1
    return 1 if failures else 0


def cmd_synth_data(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    if cfg["data.source"] != "synthetic":
        raise ConfigError("synth-data requires data.source = synthetic")
    ds = cfg.synthetic_dataset()
    out = _out_dir(args.out)
    if args.format == "binary":
        write_embeddings(out / "view1.trco", ds.view1)
        write_embeddings(out / "view2.trco", ds.view2)
        write_labels(out / "labels.trcl", ds.labels)
        names = ["view1.trco", "view2.trco", "labels.trcl"]
    else:
        write_matrix_csv(out / "view1.csv", ds.view1)
        write_matrix_csv(out / "view2.csv", ds.view2)
        write_labels_csv(out / "labels.csv", ds.labels)
        names = ["view1.csv", "view2.csv", "labels.csv"]
    print(f"wrote {', '.join(str(out / n) for n in names)} ({len(ds)} rows)")
    return 0


def cmd_cost(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    ds = cfg.build_dataset()
    seed = cfg["train.seeds"][0]
    probe_cfg = replace(cfg.train_config(seed), epochs=1)
    report = run_training(probe_cfg, ds)
    summary = engine.cost_summary(report.step_reports, probe_cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _add_keys(parser: argparse.ArgumentParser) -> None:
    """Register every config key as an option ``--section.key VALUE`` of ``parser``;
    the usage line names them by one pattern, so a usage error stays short."""
    usage = parser.format_usage().removeprefix("usage: ").rstrip()
    parser.usage = f"{usage} [--section.key VALUE ...]"
    keys = parser.add_argument_group("config keys", "each overrides the config file")
    for key, decl in SCHEMA.items():
        keys.add_argument(f"--{key}", default=argparse.SUPPRESS, metavar="VALUE", help=decl.help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotriad",
        description="Triadic co-training on two-view embeddings with equilibrium diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        # No prefix abbreviations: --train.epoch must not set train.epochs.
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    train = command("train", cmd_train, "run training over the configured seeds")
    train.add_argument("--config", default=None, help="flat key = value config file")
    train.add_argument("--out", required=True, help="output directory")

    ev = command("eval", cmd_eval, "evaluate a saved model container")
    ev.add_argument("--model", required=True)
    ev.add_argument("--config", default=None)
    ev.add_argument("--out", default=None)

    eq = command("equilibrium", cmd_equilibrium, "equilibrium diagnostics on a run directory")
    eq.add_argument("--run", required=True, help="directory produced by train")
    eq.add_argument("--out", default=None)

    gc = command("gradcheck", cmd_gradcheck, "finite-difference gradient certification")
    gc.add_argument("--instances", type=int, default=100)

    sd = command("synth-data", cmd_synth_data, "write the synthetic dataset to files")
    sd.add_argument("--config", default=None)
    sd.add_argument("--out", required=True)
    sd.add_argument("--format", choices=("binary", "csv"), default="binary")

    cost = command("cost", cmd_cost, "measured per-step cost counters for a config")
    cost.add_argument("--config", default=None)

    for p in (train, ev, eq, sd, cost):
        _add_keys(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gradcheck" and args.instances < 1:
        parser.error(f"argument --instances: must be >= 1, got {args.instances}")
    try:
        # A diverging run overflows before the non-finite guard sees it; the
        # guard's one error line reports it, so numpy's warnings stay silent.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, InvalidInputError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
