"""Settings declared once: config key, default, parser, help text and bound.

A bound is ``">= 1"`` or ``"> 0"`` (text after the number is a note), an
interval such as ``"[0, 1)"``, or choices such as ``"above | below"``; every
entry of a list value must keep it.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Any, Callable, NamedTuple

from .errors import BoundError


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _holds(spec: str, value) -> bool:
    if "|" in spec:
        return value in spec.split(" | ")
    if spec[0] in "([":
        lo, hi = (float(v) for v in spec[1:-1].split(","))
        above = lo < value if spec[0] == "(" else lo <= value
        return above and (value < hi if spec[-1] == ")" else value <= hi)
    op, num = spec.split()[:2]
    return value > float(num) if op == ">" else value >= float(num)


class Setting(NamedTuple):
    key: str
    default: Any
    help: str
    bound: str | None
    parse: Callable[[str], Any]

    def check(self, value, name: str) -> None:
        """Raise ``BoundError`` citing ``name`` if ``value`` breaks the bound."""
        values = value if isinstance(value, list) else [value]
        if self.bound and value is not None and not all(_holds(self.bound, v) for v in values):
            verb = "be one of" if "|" in self.bound else "lie in" if self.bound[0] in "([" else "be"
            raise BoundError(f"{{0}} must {verb} {self.bound}", name)


def declare(key: str, default, help: str, bound: str | None = None) -> Setting:
    """A key's declaration; the parser follows the default's type, per entry for a list."""
    if isinstance(default, list):
        kind = type(default[0]) if default else float
        parse = lambda text: [kind(v) for v in text.split(",") if v.strip()]  # noqa: E731
    else:
        parse = {bool: parse_bool, int: int, float: float, str: str}[type(default)]
    return Setting(key, default, help, bound, parse)


def setting(key: str, default, help: str, bound: str | None = None):
    """The dataclass field that config key ``key`` sets."""
    return field(default=default, metadata={"setting": declare(key, default, help, bound)})


def settings_of(cls) -> dict[str, Setting]:
    """Field name -> declaration, for the fields of ``cls`` that a key sets."""
    return {f.name: f.metadata["setting"] for f in fields(cls) if "setting" in f.metadata}


def check_fields(obj) -> None:
    """Raise ``BoundError`` naming the first field of ``obj`` outside its bound."""
    for name, decl in settings_of(type(obj)).items():
        decl.check(getattr(obj, name), name)
