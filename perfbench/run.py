"""Benchmark of cotriad: four workloads on the acceptance task.

Run from the repository root, for example

    python3 perfbench/run.py --workload full-fgsm --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` interleaves
untraced and traced repeats of the same work and prints the per-layer
metrics and the tracing overhead. Human-readable lines (environment, one
digest line per repeat, a metric table) come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. README.md in this directory says
why each workload exists and which end-to-end metric each layer metric
should move.
"""

import os

# BLAS and OpenMP read their thread counts once, when numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("full-fgsm", "pgd10-frozen", "supervised", "equilibrium")
# Training epochs per repeat; for `equilibrium`, of the run it diagnoses.
EPOCHS = {"full-fgsm": 20, "pgd10-frozen": 10, "supervised": 40, "equilibrium": 10}
# Each run derives this many tasks from --seed; repeats cycle through them,
# and the accuracies are their mean. One set-up repeat builds one task.
TASKS = 8

# The `cotriad equilibrium` defaults, with a three-point generator grid.
EPS_GRID = (0.125, 0.25, 0.5)
BUDGET_EPOCHS = 2
BUDGET_SEED = 97
PROBE_SIZE = 256
TOLERANCE = 1e-2

END_TO_END = {
    "setup_s": "s",
    "step_ms": "ms",
    "equilibrium_s": "s",
    "test_accuracy": "fraction",
    "robust_accuracy": "fraction",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.train_step.p50_ms": "ms",
    "engine.train_step.p95_ms": "ms",
    "engine.train_step.count": "count",
    "engine.train_step.self_ms": "ms",
    "engine.evaluate.ms": "ms",
    "data.next_batch.us": "us",
    "student.forward_batch.calls_per_step": "count",
    "student.gelu.elems_per_step": "count",
    "student.mc_forward_batch.ms_per_step": "ms",
    "student.loss_and_grads.ms_per_step": "ms",
    "student.sgd_step.ms_per_step": "ms",
    "uncertainty.batch_statistics.ms_per_step": "ms",
    "uncertainty.accept_ratio": "fraction",
    "generator.pgd_perturb_batch.ms_per_step": "ms",
    "generator.objective_evals_per_call": "count",
    "teacher.meta_grad.ms_per_step": "ms",
    "teacher.meta_grad.share": "fraction",
    "teacher.meta_grad_inf.p50": "1",
    "teacher.displacement": "1",
    "game.payoff.calls": "count",
    "game.payoff.unique_ratio": "fraction",
    "game.respond.ms": "ms",
    "game.stackelberg_residual.ms": "ms",
    "trace.overhead_pct": "%",
}

# Host-speed reference: the times behind setup_s, step_ms and equilibrium_s
# are scaled by REFERENCE_NOMINAL_S / (the reference kernel's wall time). A
# measured repeat uses the mean of the references run just before and just
# after it: one 20 ms sample is noisy (quartile spread 27%) next to a
# 2-second repeat. On a shared 2-vCPU VM whose speed changed by up to 2x for
# minutes at a time, scaling cut the quartile spread of 10-second median step
# times from 27% to 4%. The kernel is the benchmark's own code, so no change
# to cotriad can move it.
REFERENCE_NOMINAL_S = 0.02
REFERENCE_ROUNDS = 50
# Fresh-interpreter imports timed per set-up repeat, each scaled by its own
# reference. One import is about as noisy as the reference (quartile spread
# 23% against 27% on the VM above), and set-up has only one repeat per task;
# in an 8-minute series, medians of 16 scaled imports spread 7% against 12%
# for medians of 8.
IMPORTS_PER_SETUP = 2

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cotriad; print(time.perf_counter() - t)"
)


def import_cotriad() -> None:
    """Import cotriad from the checkout's src/; exit 1 if it is not there."""
    if not (SRC / "cotriad" / "__init__.py").is_file():
        raise SystemExit(f"cotriad sources not found under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cotriad  # noqa: F401


def child_import_seconds() -> float:
    """Wall time of `import cotriad` in a fresh interpreter, scaled by the
    reference run just before it."""
    scale = REFERENCE_NOMINAL_S / reference_seconds()
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip()) * scale


def reference_seconds() -> float:
    """Wall time of a fixed kernel with the workloads' mix of work.

    Small matmuls, erf, and per-call SeedSequence generators, as in a
    training step; nothing from cotriad.
    """
    from scipy.special import erf

    rng = np.random.default_rng(0)
    x = rng.standard_normal((448, 16))
    w = rng.standard_normal((16, 32))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ROUNDS):
        acc += float(erf(x @ w).sum())
        acc += np.random.default_rng(np.random.SeedSequence([1, i])).random()
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed


# ---------------------------------------------------------------------------
# Inputs, all derived from --seed.


def derive_seeds(seed: int) -> list[tuple[int, int]]:
    """(dataset seed, training seed) of each task."""
    return [
        tuple(int(v) for v in child.generate_state(2))
        for child in np.random.SeedSequence(seed).spawn(TASKS)
    ]


def build_task(ds_seed: int):
    """The acceptance task: 2540 rows split 40 labeled / 4 validation / 500 test."""
    from cotriad.data import gen_synthetic_two_view, split_by_counts

    ds = gen_synthetic_two_view(2540, 4, 16, 16, view_noise=0.6, seed=ds_seed)
    return split_by_counts(ds, n_labeled=40, n_validation=4, n_test=500, seed=ds_seed)


def train_config(workload: str, seed: int, epochs: int):
    from cotriad.engine import TrainConfig
    from cotriad.generator import PerturbConfig

    if workload == "supervised":
        return TrainConfig(
            epochs=epochs, lr=0.1, dropout=0.3, seed=seed,
            unsup_enabled=False, adv_enabled=False, teacher_enabled=False,
        )
    cfg = TrainConfig(
        epochs=epochs, lr=0.1, dropout=0.3, seed=seed,
        filter_mode="mi_conf", filter_direction="below", tau_conf=0.9,
        perturb=PerturbConfig(epsilon=0.25, steps=1),
    )
    if workload == "pgd10-frozen":
        cfg = replace(
            cfg,
            perturb=PerturbConfig(epsilon=0.25, steps=10, step_size=0.25 / 4),
            teacher_enabled=False,
        )
    return cfg


# ---------------------------------------------------------------------------
# Output checks.


def run_digest(students, teacher) -> str:
    """sha256 over both students' w1/b1/w2/b2 bytes and the teacher vector z."""
    h = hashlib.sha256()
    for p in students:
        for a in (p.w1, p.b1, p.w2, p.b2):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(teacher.z, dtype=np.float64).tobytes())
    return h.hexdigest()


def run_problems(report) -> list[str]:
    problems = []
    arrays = [a for p in report.students for a in (p.w1, p.b1, p.w2, p.b2)]
    if not all(np.isfinite(a).all() for a in arrays + [report.teacher.z]):
        problems.append("non-finite parameter")
    losses = [
        v for r in report.step_reports
        for v in (r.loss_sup, r.loss_unsup, r.loss_adv, r.loss_total)
    ]
    if not np.isfinite(losses).all():
        problems.append("non-finite loss")
    for key in ("accuracy", "pgd_robust_accuracy"):
        value = report.final_eval.get(key)
        if value is None or not 0.0 <= value <= 1.0:
            problems.append(f"final_eval[{key!r}] = {value}")
    return problems


def residual_problems(named: dict) -> list[str]:
    return [f"non-finite {k} = {v}" for k, v in named.items() if not math.isfinite(v)]


# ---------------------------------------------------------------------------
# Units of measured work. A unit returns its digest, its problems and its
# end-to-end values; the window repeats the units of the tasks in turn.


@dataclass
class Unit:
    task: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)
    traced: bool = False
    seconds: float = 0.0
    scale: float = 1.0  # REFERENCE_NOMINAL_S / reference time around this repeat

    def scaled(self, key: str) -> float:
        return self.values[key] * self.scale


def training_unit(cfg, ds) -> Unit:
    from cotriad import engine, game

    t0 = time.perf_counter()
    report = engine.run_training(cfg, ds)
    wall = time.perf_counter() - t0
    t1 = time.perf_counter()
    res = game.stackelberg_residual(report.students, report.teacher, ds, cfg, probe_size=PROBE_SIZE)
    diag = time.perf_counter() - t1
    return Unit(
        digest=run_digest(report.students, report.teacher),
        problems=run_problems(report) + residual_problems(res.as_dict()),
        values={
            "step_ms": 1000.0 * wall / report.total_steps,
            "equilibrium_s": diag,
            "test_accuracy": report.final_eval["accuracy"],
            "robust_accuracy": report.final_eval["pgd_robust_accuracy"],
        },
        reports=[report],
    )


def equilibrium_unit(cfg, ds, diagnosed) -> Unit:
    """What `cotriad equilibrium` computes for a finished run."""
    from cotriad import game
    from cotriad.generator import PerturbConfig

    # Time the students' best-response retraining for step_ms.
    retrains = []
    inner = game.run_training

    def timed_run_training(rcfg, rds):
        t = time.perf_counter()
        report = inner(rcfg, rds)
        retrains.append((time.perf_counter() - t, report.total_steps))
        return report

    game.run_training = timed_run_training
    try:
        t0 = time.perf_counter()
        trained = game.TrainedTriadicGame(
            ds,
            cfg,
            teacher_points=game.default_teacher_grid(),
            generator_points=[
                PerturbConfig(epsilon=e, gamma=cfg.perturb.gamma, steps=cfg.perturb.steps,
                              mi_passes=cfg.perturb.mi_passes)
                for e in EPS_GRID
            ],
            budgets=[game.StudentBudget(epochs=BUDGET_EPOCHS, seed=BUDGET_SEED)],
            probe_size=PROBE_SIZE,
        )
        profile = game.GameProfile(diagnosed.teacher.mapped(), diagnosed.students, cfg.perturb)
        residuals = game.stackelberg_residual(
            diagnosed.students, diagnosed.teacher, ds, cfg, probe_size=PROBE_SIZE
        )
        payload = game.equilibrium_report(trained, profile, TOLERANCE, residuals)
        wall = time.perf_counter() - t0
    finally:
        game.run_training = inner
    named = {f"payoff.{k}": v for k, v in payload["payoffs"].items()}
    named.update({f"nash.{k}": v for k, v in payload["nash_residuals"].items()})
    named.update({f"stackelberg.{k}": v for k, v in payload["stackelberg_residuals"].items()})
    # The digest covers the diagnosed run and everything the report says.
    blob = run_digest(diagnosed.students, diagnosed.teacher) + json.dumps(payload, sort_keys=True)
    return Unit(
        digest=hashlib.sha256(blob.encode()).hexdigest(),
        problems=run_problems(diagnosed) + residual_problems(named),
        values={
            "step_ms": 1000.0 * sum(w for w, _ in retrains) / sum(n for _, n in retrains),
            "equilibrium_s": wall,
            "test_accuracy": diagnosed.final_eval["accuracy"],
            "robust_accuracy": diagnosed.final_eval["pgd_robust_accuracy"],
        },
        reports=[diagnosed],
    )


def run_window(unit_fns: list, seconds: float, tracer_factory=None) -> list[Unit]:
    """Repeat the tasks' units in turn until ``seconds`` are spent.

    Every task runs at least once. With a ``tracer_factory`` (trace mode),
    each task runs untraced and then traced, so every task runs both ways
    and the window ends after a traced repeat. Each digest must equal the
    first (untraced) digest of its task.
    """
    units: list[Unit] = []
    references: list[float] = []
    first: dict[int, str] = {}
    ways = 2 if tracer_factory else 1
    minimum = len(unit_fns) * ways
    deadline = time.perf_counter() + seconds
    while True:
        task = (len(units) // ways) % len(unit_fns)
        traced = len(units) % ways == 1
        references.append(reference_seconds())
        t0 = time.perf_counter()
        try:
            unit = tracer_factory(unit_fns[task]) if traced else unit_fns[task]()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            unit = Unit(problems=["raised"])
        unit.task = task
        unit.traced = traced
        if not traced:
            unit.reports = []  # only the traced repeats feed the layer metrics
        unit.seconds = time.perf_counter() - t0
        reference = first.setdefault(task, unit.digest)
        if unit.digest != reference:
            unit.problems.append(f"digest differs from the task's first ({reference[:16]})")
        units.append(unit)
        print(
            f"repeat {len(units) - 1} task {task} {'traced' if traced else 'untraced'} "
            f"digest={unit.digest} reference_s={references[-1]!r} "
            + " ".join(f"{k}={v!r}" for k, v in unit.values.items())
            + (f" FAILED: {'; '.join(unit.problems)}" if unit.problems else " ok"),
            flush=True,
        )
        typical = statistics.median(u.seconds for u in units)
        done = len(units) >= minimum and len(units) % ways == 0
        if done and time.perf_counter() + typical > deadline:
            break
    references.append(reference_seconds())
    for unit, before, after in zip(units, references, references[1:]):
        unit.scale = REFERENCE_NOMINAL_S / ((before + after) / 2)
    return units


# ---------------------------------------------------------------------------
# Tracing plan: every public function of the measured layers, wrapped at
# every name its callers look it up by.


def _elements(u, *args, **kwargs):
    return int(np.size(u))


def install_layers(tracer: spans.Tracer, payoff_keys: list) -> None:
    from cotriad import data, engine, game, generator, student, teacher, uncertainty

    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "cotriad" or name.startswith("cotriad.")) and m is not None]

    functions = [
        ("engine.run_training", engine.run_training, None),
        ("engine.train_step", engine.train_step, None),
        ("engine.evaluate", engine.evaluate, None),
        ("student.forward_batch", student.forward_batch, None),
        ("student.mc_forward_batch", student.mc_forward_batch, None),
        ("student.loss_and_grads", student.loss_and_grads, None),
        ("student.sgd_step", student.sgd_step, None),
        ("student.input_entropy_grad", student.input_entropy_grad, None),
        ("student.gelu", student.gelu, _elements),
        ("student.gelu_prime", student.gelu_prime, _elements),
        ("uncertainty.batch_statistics", uncertainty.batch_statistics, None),
        ("generator.pgd_perturb_batch", generator.pgd_perturb_batch, None),
        ("teacher.meta_grad", teacher.meta_grad, None),
        ("game.stackelberg_residual", game.stackelberg_residual, None),
        ("game.equilibrium_report", game.equilibrium_report, None),
    ]
    for name, fn, work in functions:
        tracer.wrap_function(name, fn, modules, work=work)

    tracer.wrap_method("data.next_batch", data.BatchIterator, "next_batch")

    def payoff_hook(player):
        def hook(game_self, t, s, g):
            params = b"".join(
                np.ascontiguousarray(a).tobytes() for p in s for a in (p.w1, p.b1, p.w2, p.b2)
            )
            payoff_keys.append((tracer.root(), player, tuple(t), hashlib.sha1(params).digest(), g))
        return hook

    for player in ("teacher", "students", "generator"):
        tracer.wrap_method("game.payoff", game.TrainedTriadicGame, f"payoff_{player}",
                           payoff_hook(player))
    for attr in ("respond_students", "student_deviations"):
        tracer.wrap_method("game.respond", game.TrainedTriadicGame, attr)


def traced_call(tracer, payoff_keys):
    def call(unit_fn):
        install_layers(tracer, payoff_keys)
        try:
            with tracer.span("bench.repeat"):
                return unit_fn()
        finally:
            tracer.uninstall()

    return call


def layer_metrics(
    workload: str, units: list[Unit], tracer, payoff_keys: list, n_unlabeled: int
) -> dict:
    from cotriad.teacher import init_strategy

    traced = [u for u in units if u.traced and not u.problems]
    untraced = [u for u in units if not u.traced and not u.problems]
    all_spans = tracer.spans
    selfs = spans.self_times(all_spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(all_spans):
        by_name.setdefault(s[spans.NAME], []).append(i)

    def dur(i):
        return all_spans[i][spans.END] - all_spans[i][spans.START]

    # Per-step metrics count only the calls made inside run_training.
    in_training = [False] * len(all_spans)
    for i, s in enumerate(all_spans):
        p = s[spans.PARENT]
        in_training[i] = p >= 0 and (all_spans[p][spans.NAME] == "engine.run_training" or in_training[p])

    def total(name, training_only=False):
        return sum(dur(i) for i in by_name.get(name, []) if in_training[i] or not training_only)

    def count(name, training_only=False):
        return sum(1 for i in by_name.get(name, []) if in_training[i] or not training_only)

    def work(name):
        return sum(all_spans[i][spans.WORK] for i in by_name.get(name, []) if in_training[i])

    steps = by_name.get("engine.train_step", [])
    n_steps = max(len(steps), 1)
    n_units = max(len(traced), 1)
    step_durs = sorted(dur(i) for i in steps)
    cuts = statistics.quantiles(step_durs, n=20) if len(step_durs) >= 2 else [0.0] * 19
    step_set = set(steps)
    meta_in_step = sum(
        dur(i) for i in by_name.get("teacher.meta_grad", [])
        if all_spans[i][spans.PARENT] in step_set
    )
    calls = len(payoff_keys)

    reports = [r for u in traced for r in u.reports]
    scored = accepted = 0
    meta_inf = []
    displacement = []
    for report in reports:
        cfg = report.config
        z0 = init_strategy(cfg.tau_init, cfg.lambda_u_init, cfg.lambda_adv_init,
                           cfg.eta_teacher, cfg.gate_temperature).z
        displacement.append(float(np.linalg.norm(report.teacher.z - z0)))
        meta_inf += [r.meta_grad_inf for r in report.step_reports if r.meta_grad_inf > 0.0]
        if cfg.unsup_enabled:
            # Each epoch scores every unlabeled row once in each view.
            scored += 2 * n_unlabeled * len(report.epoch_rows)
            accepted += sum(sum(r.accepted) for r in report.step_reports)

    key = "equilibrium_s" if workload == "equilibrium" else "step_ms"
    base = statistics.median(u.scaled(key) for u in untraced) if untraced else float("nan")
    with_trace = statistics.median(u.scaled(key) for u in traced) if traced else float("nan")

    return {
        "engine.train_step.p50_ms": 1e3 * cuts[9],
        "engine.train_step.p95_ms": 1e3 * cuts[18],
        "engine.train_step.count": len(steps),
        "engine.train_step.self_ms": 1e3 * statistics.median(selfs[i] for i in steps) if steps else 0.0,
        "engine.evaluate.ms": 1e3 * total("engine.evaluate") / n_units,
        "data.next_batch.us": 1e6 * statistics.median(dur(i) for i in by_name["data.next_batch"])
        if count("data.next_batch") else 0.0,
        "student.forward_batch.calls_per_step": count("student.forward_batch", True) / n_steps,
        "student.gelu.elems_per_step": (work("student.gelu") + work("student.gelu_prime")) / n_steps,
        "student.mc_forward_batch.ms_per_step": 1e3 * total("student.mc_forward_batch", True) / n_steps,
        "student.loss_and_grads.ms_per_step": 1e3 * total("student.loss_and_grads", True) / n_steps,
        "student.sgd_step.ms_per_step": 1e3 * total("student.sgd_step", True) / n_steps,
        "uncertainty.batch_statistics.ms_per_step": 1e3 * total("uncertainty.batch_statistics", True) / n_steps,
        "uncertainty.accept_ratio": accepted / scored if scored else 0.0,
        "generator.pgd_perturb_batch.ms_per_step": 1e3 * total("generator.pgd_perturb_batch", True) / n_steps,
        "generator.objective_evals_per_call": count("student.input_entropy_grad", True)
        / max(count("generator.pgd_perturb_batch", True), 1),
        "teacher.meta_grad.ms_per_step": 1e3 * total("teacher.meta_grad", True) / n_steps,
        "teacher.meta_grad.share": meta_in_step / total("engine.train_step") if steps else 0.0,
        "teacher.meta_grad_inf.p50": statistics.median(meta_inf) if meta_inf else 0.0,
        "teacher.displacement": statistics.median(displacement) if displacement else 0.0,
        "game.payoff.calls": calls / n_units,
        "game.payoff.unique_ratio": len(set(payoff_keys)) / calls if calls else 0.0,
        "game.respond.ms": 1e3 * total("game.respond") / n_units,
        "game.stackelberg_residual.ms": 1e3 * total("game.stackelberg_residual") / n_units,
        "trace.overhead_pct": 100.0 * (with_trace / base - 1.0),
    }


# ---------------------------------------------------------------------------
# Command line.


def setup(workload: str, seed: int, epochs: int) -> tuple[list, float]:
    """Build the tasks; returns ([(cfg, ds, diagnosed run or None)], setup_s).

    One set-up repeat is a fresh-interpreter import (the mean of
    IMPORTS_PER_SETUP), one task's dataset and split, and for `equilibrium`
    also the training run it diagnoses. setup_s is the median over the
    repeats of their scaled times.
    """
    from cotriad import engine

    tasks = []
    seconds = []
    for ds_seed, train_seed in derive_seeds(seed):
        import_s = statistics.fmean(child_import_seconds() for _ in range(IMPORTS_PER_SETUP))
        scale = REFERENCE_NOMINAL_S / reference_seconds()
        t0 = time.perf_counter()
        cfg = train_config(workload, train_seed, epochs)
        ds = build_task(ds_seed)
        diagnosed = engine.run_training(cfg, ds) if workload == "equilibrium" else None
        build_s = time.perf_counter() - t0
        seconds.append(import_s + build_s * scale)
        tasks.append((cfg, ds, diagnosed))
        print(f"setup task {len(tasks) - 1} import_s={import_s!r} build_s={build_s!r} scale={scale!r}"
              + (f" diagnosed digest={run_digest(diagnosed.students, diagnosed.teacher)}"
                 if diagnosed else ""), flush=True)
    return tasks, statistics.median(seconds)


def _number(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    epochs = EPOCHS[args.workload]

    import_cotriad()
    print(
        f"env: nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
        + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
        + f" python={sys.version.split()[0]} numpy={np.__version__}"
    )
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} epochs={epochs}")

    tasks, setup_s = setup(args.workload, args.seed, epochs)
    if args.workload == "equilibrium":
        unit_fns = [functools.partial(equilibrium_unit, cfg, ds, run) for cfg, ds, run in tasks]
    else:
        unit_fns = [functools.partial(training_unit, cfg, ds) for cfg, ds, _ in tasks]

    tracer = spans.Tracer() if args.trace else None
    payoff_keys: list = []
    factory = traced_call(tracer, payoff_keys) if args.trace else None
    units = run_window(unit_fns, args.seconds, factory)

    failed = sum(1 for u in units if u.problems)
    good = [u for u in units if not u.problems]
    if args.trace:
        from cotriad.data import UNLABELED

        n_unlabeled = int(tasks[0][1].indices(UNLABELED).size)
        metrics = layer_metrics(args.workload, units, tracer, payoff_keys, n_unlabeled)
        units_of = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv", tracer.spans)
    else:
        metrics = {
            k: statistics.median(u.scaled(k) for u in good) if good else float("nan")
            for k in ("step_ms", "equilibrium_s")
        }
        # Each task's accuracies repeat exactly; report their mean over tasks.
        per_task = {u.task: u.values for u in good}
        for k in ("test_accuracy", "robust_accuracy"):
            metrics[k] = (
                statistics.fmean(v[k] for v in per_task.values())
                if len(per_task) == len(tasks) else float("nan")
            )
        raw = {k: statistics.median(u.values[k] for u in good) for k in ("step_ms", "equilibrium_s")}
        print("unscaled medians: " + " ".join(f"{k}={v!r}" for k, v in raw.items()))
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units_of = END_TO_END

    for name, unit in units_of.items():
        print(f"{name:44s} {metrics[name]!r:>24} {unit}")
    print(f"{'failed_share':44s} {failed / len(units)!r:>24} fraction "
          f"({failed} of {len(units)} runs)")
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": _number(metrics[k]), "unit": u} for k, u in units_of.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
