"""Violation reports shared by the exhaustive and the sampled checkers."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


class StructureError(ValueError):
    """A value breaks its structural invariants (distinct from an axiom violation)."""


class FormatError(ValueError):
    """A JSON document does not match the documented schema."""


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an axiom or validity check.

    ``violations`` holds (tag, witness) pairs and the report passes exactly
    when it is empty.  Witnesses hold raw values (ints, Fractions, tuples,
    words); :meth:`to_json` formats them through :func:`jsonable`.
    """

    violations: tuple[tuple[str, object], ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {"axiom": tag, "witness": jsonable(wit)}
                for tag, wit in self.violations
            ],
        }


class Collector:
    """Accumulates violations; keeps one witness per tag unless verbose."""

    def __init__(self, verbose: bool = False):
        self.verbose = verbose
        self._items: list[tuple[str, object]] = []
        self._seen: set[str] = set()

    def add(self, tag: str, witness: object) -> None:
        if self.verbose or tag not in self._seen:
            self._items.append((tag, witness))
            self._seen.add(tag)

    def report(self) -> AxiomReport:
        return AxiomReport(tuple(self._items))


def jsonable(value):
    """The witness formatter: Fractions become ``"p/q"``, tuples and lists
    become lists, dict keys strings, and any other object its ``repr``.
    ``int`` items of a tuple or list are kept without a call."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [v if type(v) is int else jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def violation_line(tag: str, witness) -> str:
    """``tag: witness <JSON>``: the one printed form of a violation, its
    witness formatted by :func:`jsonable` and dumped with sorted keys."""
    return f"{tag}: witness {json.dumps(jsonable(witness), sort_keys=True)}"
