"""Tests of the benchmark harness itself: `python -m pytest perfbench`."""

import json
import sys

import pytest

import run
import spans

run.import_cotriad()


def _bindings():
    """Every attribute of every cotriad module and of the wrapped classes."""
    from cotriad.data import BatchIterator
    from cotriad.game import TrainedTriadicGame

    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "cotriad"]
    owners += [BatchIterator, TrainedTriadicGame]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _unchanged(before):
    after = _bindings()
    return after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys, monkeypatch):
    monkeypatch.setitem(run.EPOCHS, workload, 1)
    before = _bindings()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
    assert any(line.startswith("failed_share") for line in lines)
    assert _unchanged(before)


def test_install_wraps_every_lookup_name_and_uninstall_restores_it():
    from cotriad import engine, game, student, teacher

    before = _bindings()
    tracer = spans.Tracer()
    run.install_layers(tracer, [])
    try:
        assert engine.train_step is not before[(id(engine), "train_step")]
        for module in (student, engine, game):
            assert module.forward_batch is not before[(id(student), "forward_batch")]
        for module in (teacher, engine, game):
            assert module.meta_grad is not before[(id(teacher), "meta_grad")]
        assert game.TrainedTriadicGame.payoff_students.__wrapped__ is before[
            (id(game.TrainedTriadicGame), "payoff_students")
        ]
    finally:
        tracer.uninstall()
    assert _unchanged(before)


def test_self_time_on_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.child", 6.0, 7.0, 2, 0],
        ["b.late", 8.5, 9.5, 2, 0],  # ends after its parent: only 0.5 s is covered
        ["other_root", 20.0, 21.0, -1, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.5, 1.0, 1.0, 1.0])


def test_tracer_records_nested_spans_with_parents():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    outer_calls = tracer.wrapper("outer", lambda x: traced_inner(x) * 2)
    traced_inner = tracer.wrapper("inner", inner, work=lambda x: x)
    with tracer.span("root"):
        assert outer_calls(4) == 10
    assert [(s[spans.NAME], s[spans.PARENT], s[spans.WORK]) for s in tracer.spans] == [
        ("root", -1, 0), ("outer", 0, 0), ("inner", 1, 4),
    ]
    assert [s[spans.END] - s[spans.START] for s in tracer.spans] == [5.0, 3.0, 1.0]


@pytest.mark.parametrize("factory, digests, order, failed", [
    # Each task untraced, then traced; task 1's traced digest differs.
    (lambda fn: fn(), "aabc", [(0, False), (0, True), (1, False), (1, True)], [0, 0, 0, 1]),
    (None, "ab", [(0, False), (1, False)], [0, 0]),
])
def test_window_order_and_digest_check(factory, digests, order, failed):
    it = iter(digests)
    units = run.run_window([lambda: run.Unit(digest=next(it))] * 2, seconds=0.0,
                           tracer_factory=factory)
    assert [(u.task, u.traced) for u in units] == order
    assert [int(bool(u.problems)) for u in units] == failed
