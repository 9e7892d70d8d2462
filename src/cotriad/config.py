"""Run configuration: a flat ``section.key = value`` file plus flag overrides.

Unknown keys are hard errors, every key has a documented default, and errors
carry the line they came from. The resolved configuration is echoed into
every report so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .data import TwoViewDataset, gen_synthetic_two_view, load_embedding_file, split_by_counts
from .engine import TrainConfig
from .errors import ConfigError
from .generator import PerturbConfig


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


# key -> (parser, default, help)
SCHEMA: dict[str, tuple] = {
    "data.source": (str, "synthetic", "synthetic | files"),
    "data.n": (int, 2540, "total synthetic rows"),
    "data.classes": (int, 4, "number of classes"),
    "data.d1": (int, 16, "view-1 embedding dimension"),
    "data.d2": (int, 16, "view-2 embedding dimension"),
    "data.view_noise": (float, 0.6, "per-coordinate Gaussian view noise"),
    "data.label_noise": (float, 0.0, "fraction of labels flipped"),
    "data.seed": (int, 7, "dataset generation + split seed"),
    "data.n_labeled": (int, 40, "labeled budget (validation included)"),
    "data.n_validation": (int, 4, "validation rows, taken from the labeled budget"),
    "data.n_test": (int, 500, "held-out test rows"),
    "data.view1": (str, "", "view-1 embeddings path (files mode)"),
    "data.view2": (str, "", "view-2 embeddings path (files mode)"),
    "data.labels": (str, "", "labels path (files mode)"),
    "train.epochs": (int, 30, "training epochs"),
    "train.steps_per_epoch": (int, 0, "0 = one full unlabeled pass"),
    "train.labeled_batch": (int, 64, "labeled batch size"),
    "train.mu": (int, 7, "unlabeled-to-labeled batch ratio"),
    "train.eta": (float, 0.03, "student base learning rate"),
    "train.momentum": (float, 0.9, "SGD momentum"),
    "train.mc_passes": (int, 5, "MC dropout passes per uncertainty estimate"),
    "train.hidden": (int, 32, "student hidden width"),
    "train.dropout": (float, 0.1, "student hidden dropout rate"),
    "train.weight_norm": (float, 0.0, "L2 ball radius for weights, 0 = off"),
    "train.unsup_enabled": (_parse_bool, True, "cross-view pseudo-label term"),
    "train.adv_enabled": (_parse_bool, True, "adversarial entropy term"),
    "train.seeds": (_parse_int_list, [1, 2, 3], "training seeds, comma separated"),
    "train.tie_view_rng": (_parse_bool, False, "share per-view rng substreams"),
    "train.balanced_labeled": (_parse_bool, False, "per-class labeled batch sampling"),
    "perturb.epsilon": (float, 1.0, "L-infinity attack budget"),
    "perturb.gamma": (float, 0.0, "disagreement weight in the attack objective"),
    "perturb.steps": (int, 1, "attack steps; 1 = single-step sign attack"),
    "perturb.step_size": (float, 0.0, "attack step size, 0 = epsilon"),
    "perturb.mi_passes": (int, 5, "MC passes inside the attack when gamma > 0"),
    "teacher.enabled": (_parse_bool, True, "meta-learned teacher updates"),
    "teacher.tau_init": (float, 0.05, "initial MI threshold"),
    "teacher.lambda_u_init": (float, 0.5, "initial unsupervised weight"),
    "teacher.lambda_adv_init": (float, 0.5, "initial adversarial weight"),
    "teacher.eta_t": (float, 0.01, "teacher meta learning rate"),
    "teacher.temperature": (float, 0.01, "soft acceptance gate temperature"),
    "teacher.update_every": (int, 1, "meta-update period in steps"),
    "teacher.meta_after_step": (_parse_bool, False, "meta-gradient from post-step students"),
    "filter.mode": (str, "mi", "mi | confidence | mi_conf | none"),
    "filter.direction": (str, "above", "accept above or below the MI threshold"),
    "filter.tau_conf": (float, 0.95, "confidence threshold for the baseline filter"),
    "stop.stability_enabled": (_parse_bool, False, "teacher-stability early stop"),
    "stop.epsilon": (float, 1e-4, "stability score threshold"),
    "stop.patience": (int, 5, "consecutive epochs below threshold"),
    "stop.window": (int, 10, "stability variance window"),
    "stop.ea_enabled": (_parse_bool, False, "entropy/agreement early stop"),
    "stop.delta_h": (float, 1e-3, "entropy delta threshold"),
    "stop.delta_a": (float, 1e-3, "agreement delta threshold"),
    "stop.ea_window": (int, 5, "entropy/agreement window"),
    "eval.attack_steps": (int, 10, "robustness evaluation attack steps"),
    "eval.attack_step_frac": (float, 0.25, "attack step size as a fraction of epsilon"),
    "game.tau_grid": (_parse_float_list, [0.01, 0.05, 0.1, 0.2], "teacher deviation thresholds"),
    "game.lambda_u_grid": (_parse_float_list, [0.0, 0.25, 0.5, 0.75], "teacher deviation unsup weights"),
    "game.lambda_adv_grid": (_parse_float_list, [0.0, 0.25, 0.5], "teacher deviation adv weights"),
    "game.epsilon_grid": (_parse_float_list, [], "generator deviation budgets, empty = training epsilon"),
    "game.budget_epochs": (int, 2, "student best-response retraining epochs"),
    "game.budget_seed": (int, 97, "student best-response retraining seed"),
    "game.probe_size": (int, 256, "probe batch rows for payoffs"),
    "game.tolerance": (float, 1e-2, "grid-Nash residual tolerance"),
}


@dataclass
class RunConfig:
    """Fully resolved configuration with provenance for error messages."""

    values: dict = field(default_factory=dict)
    origin: dict = field(default_factory=dict)  # key -> line number or "flag"

    def __getitem__(self, key: str):
        return self.values[key]

    def _fail(self, key: str, message: str):
        line = self.origin.get(key)
        raise ConfigError(message, line if isinstance(line, int) else None)

    def validate(self):
        v = self.values
        if v["data.source"] not in ("synthetic", "files"):
            self._fail("data.source", f"data.source must be synthetic or files, got {v['data.source']!r}")
        if v["data.source"] == "files":
            for key in ("data.view1", "data.view2", "data.labels"):
                if not v[key]:
                    self._fail(key, f"{key} is required when data.source = files")
        if v["teacher.lambda_u_init"] + v["teacher.lambda_adv_init"] > 1.0:
            self._fail(
                "teacher.lambda_adv_init",
                "teacher.lambda_u_init + teacher.lambda_adv_init must not exceed 1",
            )
        for key in ("teacher.tau_init", "teacher.lambda_u_init", "teacher.lambda_adv_init"):
            if not 0.0 < v[key] < 1.0:
                self._fail(key, f"{key} must lie strictly in (0, 1)")
        if v["filter.mode"] not in ("mi", "confidence", "mi_conf", "none"):
            self._fail("filter.mode", f"unknown filter.mode {v['filter.mode']!r}")
        if v["filter.direction"] not in ("above", "below"):
            self._fail("filter.direction", f"unknown filter.direction {v['filter.direction']!r}")
        if v["perturb.epsilon"] <= 0:
            self._fail("perturb.epsilon", "perturb.epsilon must be positive")
        if v["perturb.step_size"] < 0:
            self._fail("perturb.step_size", "perturb.step_size must be >= 0 (0 = epsilon)")
        if v["train.hidden"] < 1:
            self._fail("train.hidden", "train.hidden must be >= 1")
        if v["perturb.gamma"] > 0 and v["perturb.mi_passes"] < 2:
            self._fail("perturb.mi_passes", "perturb.mi_passes must be >= 2 when perturb.gamma > 0")
        if v["train.unsup_enabled"]:
            need = 2 if v["filter.mode"] in ("mi", "mi_conf") else 1
            if v["train.mc_passes"] < need:
                self._fail(
                    "train.mc_passes",
                    f"train.mc_passes must be >= {need} with filter.mode = {v['filter.mode']}",
                )
        if v["train.steps_per_epoch"] < 0:
            self._fail(
                "train.steps_per_epoch",
                "train.steps_per_epoch must be >= 0 (0 = one full unlabeled pass)",
            )
        if v["teacher.update_every"] < 1:
            self._fail("teacher.update_every", "teacher.update_every must be >= 1")
        if not v["train.seeds"]:
            self._fail("train.seeds", "train.seeds must list at least one seed")
        for t, lu, la in self.teacher_grid():
            if lu + la > 1.0:
                self._fail("game.lambda_adv_grid", "teacher grid point violates the weight simplex")

    # -- builders

    def perturb_config(self) -> PerturbConfig:
        v = self.values
        step = v["perturb.step_size"] if v["perturb.step_size"] > 0 else None
        return PerturbConfig(
            epsilon=v["perturb.epsilon"],
            gamma=v["perturb.gamma"],
            steps=v["perturb.steps"],
            step_size=step,
            mi_passes=v["perturb.mi_passes"],
        )

    def train_config(self, seed: int) -> TrainConfig:
        v = self.values
        return TrainConfig(
            epochs=v["train.epochs"],
            steps_per_epoch=v["train.steps_per_epoch"],
            labeled_batch=v["train.labeled_batch"],
            unlabeled_ratio=v["train.mu"],
            lr=v["train.eta"],
            momentum=v["train.momentum"],
            mc_passes=v["train.mc_passes"],
            hidden=v["train.hidden"],
            dropout=v["train.dropout"],
            weight_norm_bound=v["train.weight_norm"],
            unsup_enabled=v["train.unsup_enabled"],
            adv_enabled=v["train.adv_enabled"],
            perturb=self.perturb_config(),
            filter_mode=v["filter.mode"],
            filter_direction=v["filter.direction"],
            tau_conf=v["filter.tau_conf"],
            teacher_enabled=v["teacher.enabled"],
            tau_init=v["teacher.tau_init"],
            lambda_u_init=v["teacher.lambda_u_init"],
            lambda_adv_init=v["teacher.lambda_adv_init"],
            eta_teacher=v["teacher.eta_t"],
            gate_temperature=v["teacher.temperature"],
            teacher_update_every=v["teacher.update_every"],
            meta_after_step=v["teacher.meta_after_step"],
            stability_stop=v["stop.stability_enabled"],
            stop_epsilon=v["stop.epsilon"],
            stop_patience=v["stop.patience"],
            stability_window=v["stop.window"],
            ea_stop=v["stop.ea_enabled"],
            delta_entropy=v["stop.delta_h"],
            delta_agreement=v["stop.delta_a"],
            ea_window=v["stop.ea_window"],
            eval_attack_steps=v["eval.attack_steps"],
            eval_attack_step_frac=v["eval.attack_step_frac"],
            seed=seed,
            tie_view_rng=v["train.tie_view_rng"],
            balanced_labeled=v["train.balanced_labeled"],
        )

    def build_dataset(self) -> TwoViewDataset:
        v = self.values
        if v["data.source"] == "synthetic":
            ds = gen_synthetic_two_view(
                n=v["data.n"],
                classes=v["data.classes"],
                d1=v["data.d1"],
                d2=v["data.d2"],
                view_noise=v["data.view_noise"],
                label_noise=v["data.label_noise"],
                seed=v["data.seed"],
            )
        else:
            ds = load_embedding_file(v["data.view1"], v["data.view2"], v["data.labels"])
        return split_by_counts(
            ds,
            n_labeled=v["data.n_labeled"],
            n_validation=v["data.n_validation"],
            n_test=v["data.n_test"],
            seed=v["data.seed"],
        )

    def teacher_grid(self) -> list[tuple[float, float, float]]:
        v = self.values
        return [
            (tau, lu, la)
            for tau in v["game.tau_grid"]
            for lu in v["game.lambda_u_grid"]
            for la in v["game.lambda_adv_grid"]
            if lu + la <= 1.0
        ]

    def echo(self) -> dict:
        out = {}
        for key in sorted(self.values):
            val = self.values[key]
            out[key] = list(val) if isinstance(val, list) else val
        return out


def _apply(config: RunConfig, key: str, raw: str, origin):
    if key not in SCHEMA:
        raise ConfigError(f"unknown key {key!r}", origin if isinstance(origin, int) else None)
    parser = SCHEMA[key][0]
    try:
        config.values[key] = parser(raw.strip()) if isinstance(raw, str) else raw
    except (ValueError, TypeError) as exc:
        raise ConfigError(
            f"bad value for {key}: {exc}", origin if isinstance(origin, int) else None
        ) from exc
    config.origin[key] = origin


def parse_config(path=None, overrides: list[tuple[str, str]] | None = None) -> RunConfig:
    """Resolve defaults, then the file, then flag overrides, then validate."""
    config = RunConfig()
    for key, (_, default, _) in SCHEMA.items():
        config.values[key] = default
        config.origin[key] = "default"
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"expected 'key = value', got {line.rstrip()!r}", lineno)
            key, raw = body.split("=", 1)
            _apply(config, key.strip(), raw, lineno)
    for key, raw in overrides or []:
        _apply(config, key, raw, "flag")
    config.validate()
    return config
