"""Recompute every pinned value in goldens.json and print old -> new.

Run from the repository root after a change that moves rounding on purpose:

    python tests/regen_goldens.py           # print the changed values
    python tests/regen_goldens.py --write   # and rewrite goldens.json

Without ``--write`` it exits 1 when any value moved, so "no pin moved" is
its exit status.

The printed table is Markdown, for the change's entry in CHANGES.md. Each
value comes from the helper that its checking test calls, so a rewritten
file passes those tests on this platform. The tier-1 suite never runs this
script; it takes about as long as the pinned tests themselves.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cotriad.game import stackelberg_residual  # noqa: E402
from goldens import GOLDENS, PATH  # noqa: E402
from test_cli import TestCommands  # noqa: E402
from test_engine import TestGoldenDigest, TestModelContainer, TestReportBytes  # noqa: E402
from test_game import TestPayoffCache, TestTrainedGame  # noqa: E402


def recompute() -> dict:
    """Every pinned value, keyed and ordered as in goldens.json."""
    ds, cfg, rep = TestGoldenDigest._run()
    report_digest, student_payoffs = TestPayoffCache._pinned()
    code, gradcheck_stdout = TestCommands._gradcheck_stdout()
    if code != 0:
        raise SystemExit("cotriad gradcheck failed:\n" + "\n".join(gradcheck_stdout))
    with tempfile.TemporaryDirectory() as tmp:
        report_json = TestReportBytes._digest(*TestReportBytes._run(), tmp)
        golden_trcm = TestModelContainer._golden_digest(tmp)
    return {
        "GOLDEN": TestGoldenDigest._digest(rep),
        "VARIANTS": {
            name: TestGoldenDigest._digest(TestGoldenDigest._run(**changes)[2])
            for name, changes in sorted(TestGoldenDigest.VARIANTS.items())
        },
        "ROBUST_ACCURACY": rep.final_eval["pgd_robust_accuracy"],
        "STACKELBERG": stackelberg_residual(rep.students, rep.teacher, ds, cfg).as_dict(),
        "STACKELBERG_MI": {d: TestGoldenDigest._mi_residuals(d) for d in ("below", "above")},
        "REPORT_JSON": report_json,
        "GOLDEN_TRCM": golden_trcm,
        "REPORT_DIGEST": report_digest,
        "STUDENT_PAYOFFS": student_payoffs,
        "GENERATOR_PAYOFFS": {
            name: TestTrainedGame._generator_payoff(name)
            for name in TestTrainedGame.GENERATOR_ATTACKS
        },
        "GRADCHECK_STDOUT": gradcheck_stdout,
    }


def leaves(value, path=""):
    """(dotted path, scalar) for every scalar inside ``value``."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from leaves(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite goldens.json")
    args = parser.parse_args(argv)
    new = recompute()
    old = dict(leaves(GOLDENS))
    rows = [(key, old.get(key), value) for key, value in leaves(new) if old.get(key) != value]
    print("| value | old | new |")
    print("|---|---|---|")
    for key, before, after in rows:
        print(f"| `{key}` | `{before!r}` | `{after!r}` |")
    print(f"{len(rows)} of {len(old)} values changed")
    if args.write:
        PATH.write_text(json.dumps(new, indent=2) + "\n")
        print(f"wrote {PATH}")
    return 1 if rows and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
