"""Command-line front end.

Subcommands: train, eval, equilibrium, gradcheck, synth-data, cost. Exit
codes: 0 success, 1 check failure or a diverged (non-finite) run, 2
configuration or usage error. Any
``--section.key value`` pair after a subcommand overrides the config file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import engine, gradcheck
from .config import parse_config
from .data import write_embeddings, write_labels, write_labels_csv, write_matrix_csv
from .engine import (
    dump_json,
    eval_attack_config,
    evaluate,
    load_model,
    run_training,
    save_model,
    write_curves_csv,
    write_strategy_trace_csv,
)
from .errors import ConfigError, FormatError, InvalidInputError, NonFiniteError
from .game import (
    GameProfile,
    StudentBudget,
    TrainedTriadicGame,
    equilibrium_report,
    nash_residual,
    stackelberg_residual,
)
from .generator import PerturbConfig


def _split_overrides(tokens: list[str]) -> list[tuple[str, str]]:
    """Turn leftover ``--section.key value`` tokens into override pairs."""
    out = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--") or "." not in tok:
            raise ConfigError(f"unrecognized argument {tok!r}")
        if "=" in tok:
            key, value = tok[2:].split("=", 1)
            out.append((key, value))
            i += 1
            continue
        if i + 1 >= len(tokens):
            raise ConfigError(f"flag {tok!r} needs a value")
        out.append((tok[2:], tokens[i + 1]))
        i += 2
    return out


def _load(args):
    overrides = _split_overrides(args.overrides)
    return parse_config(args.config, overrides)


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    cfg = _load(args)
    ds = cfg.build_dataset()
    out = _out_dir(args.out)
    per_seed = []
    for index, seed in enumerate(cfg["train.seeds"]):
        report = run_training(cfg.train_config(seed), ds)
        per_seed.append(engine.report_payload(report, ds))
        write_curves_csv(out / f"curves_seed{seed}.csv", report.epoch_rows)
        write_strategy_trace_csv(out / f"strategy_trace_seed{seed}.csv", report.epoch_rows)
        save_model(out / f"model_seed{seed}.trcm", report.students, report.teacher)
        if index == 0:
            write_curves_csv(out / "curves.csv", report.epoch_rows)
            write_strategy_trace_csv(out / "strategy_trace.csv", report.epoch_rows)
    metrics = {}
    for key in ("accuracy", "pgd_robust_accuracy", "agreement", "mean_entropy"):
        vals = [p["final_eval"].get(key) for p in per_seed if key in p["final_eval"]]
        if vals:
            arr = np.asarray(vals, dtype=np.float64)
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
    cfg = _load(args)
    ds = cfg.build_dataset()
    students, _ = load_model(args.model)
    from .data import TEST, VALIDATION

    split = TEST if ds.indices(TEST).size else VALIDATION
    seed0 = cfg["train.seeds"][0]
    metrics = evaluate(students, ds, split, eval_attack_config(cfg.train_config(seed0)))
    print(json.dumps(metrics, indent=2, sort_keys=True))
    if args.out:
        dump_json(_out_dir(args.out) / "eval.json", {"config": cfg.echo(), "metrics": metrics})
    return 0


def cmd_equilibrium(args) -> int:
    run_dir = Path(args.run)
    report_path = run_dir / "report.json"
    if not report_path.exists():
        raise ConfigError(f"{report_path} not found; point --run at a train output directory")
    stored = json.loads(report_path.read_text(encoding="utf-8"))
    overrides = [(k, str(v) if not isinstance(v, list) else ",".join(map(str, v)))
                 for k, v in stored["config"].items()]
    cfg = parse_config(None, overrides + _split_overrides(args.overrides))
    ds = cfg.build_dataset()
    seed = cfg["train.seeds"][0]
    students, teacher = load_model(run_dir / f"model_seed{seed}.trcm")
    train_cfg = cfg.train_config(seed)
    eps_grid = cfg["game.epsilon_grid"] or [cfg["perturb.epsilon"]]
    generator_points = [
        PerturbConfig(epsilon=e, gamma=cfg["perturb.gamma"], steps=cfg["perturb.steps"],
                      step_size=None, mi_passes=cfg["perturb.mi_passes"])
        for e in eps_grid
    ]
    game = TrainedTriadicGame(
        ds,
        train_cfg,
        teacher_points=cfg.teacher_grid(),
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
    return 0


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
    cfg = _load(args)
    if cfg["data.source"] != "synthetic":
        raise ConfigError("synth-data requires data.source = synthetic")
    from .data import gen_synthetic_two_view

    ds = gen_synthetic_two_view(
        n=cfg["data.n"],
        classes=cfg["data.classes"],
        d1=cfg["data.d1"],
        d2=cfg["data.d2"],
        view_noise=cfg["data.view_noise"],
        label_noise=cfg["data.label_noise"],
        seed=cfg["data.seed"],
    )
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
    cfg = _load(args)
    ds = cfg.build_dataset()
    seed = cfg["train.seeds"][0]
    probe_cfg = cfg.train_config(seed)
    from dataclasses import replace

    probe_cfg = replace(probe_cfg, epochs=1)
    report = run_training(probe_cfg, ds)
    summary = engine.cost_summary(report.step_reports, probe_cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotriad",
        description="Triadic co-training on two-view embeddings with equilibrium diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run training over the configured seeds")
    train.add_argument("--config", default=None, help="flat key = value config file")
    train.add_argument("--out", required=True, help="output directory")

    ev = sub.add_parser("eval", help="evaluate a saved model container")
    ev.add_argument("--model", required=True)
    ev.add_argument("--config", default=None)
    ev.add_argument("--out", default=None)

    eq = sub.add_parser("equilibrium", help="equilibrium diagnostics on a run directory")
    eq.add_argument("--run", required=True, help="directory produced by train")
    eq.add_argument("--out", default=None)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient certification")
    gc.add_argument("--instances", type=int, default=100)

    sd = sub.add_parser("synth-data", help="write the synthetic dataset to files")
    sd.add_argument("--config", default=None)
    sd.add_argument("--out", required=True)
    sd.add_argument("--format", choices=("binary", "csv"), default="binary")

    cost = sub.add_parser("cost", help="measured per-step cost counters for a config")
    cost.add_argument("--config", default=None)
    return parser


_HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "equilibrium": cmd_equilibrium,
    "gradcheck": cmd_gradcheck,
    "synth-data": cmd_synth_data,
    "cost": cmd_cost,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # Leftover tokens are config overrides of the form --section.key value;
    # commands without config access refuse them.
    if args.command in ("gradcheck",) and extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.overrides = list(extra)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, InvalidInputError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
