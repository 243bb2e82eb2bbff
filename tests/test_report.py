from collections import OrderedDict, defaultdict, namedtuple
from enum import IntEnum
from fractions import Fraction

import pytest

from fibrous import Word
from fibrous.report import jsonable


def reference_jsonable(value):
    """The witness formatter as a plain ``isinstance`` chain."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def typed(value):
    """``value`` with the exact type of every leaf and key made visible."""
    if type(value) is list:
        return ["list", [typed(v) for v in value]]
    if type(value) is dict:
        return ["dict", [((type(k), k), typed(v)) for k, v in value.items()]]
    return (type(value), value)


class Color(IntEnum):
    RED = 1


class Name(str):
    pass


Pair = namedtuple("Pair", "index point")

VALUES = {
    "true": True,
    "none": None,
    "int": -7,
    "str": "x",
    "int-enum": Color.RED,
    "str-subclass": Name("p"),
    "namedtuple": Pair(2, Fraction(3, 4)),
    "ordered-dict": OrderedDict([(1, Fraction(1, 2)), ("b", (0, 2))]),
    "default-dict": defaultdict(list, {Color.RED: [None, False]}),
    "fraction": Fraction(-5, 3),
    "whole-fraction": Fraction(4),
    "word": Word((0,), (2, 0)),
    "float": 0.5,
    "nested": {
        "seed": 0,
        "a": (3, Fraction(1, 3)),
        "w": [Word((), (2,)), Pair(Color.RED, Name("q"))],
        Fraction(1, 2): {(1, 2): OrderedDict(k=[True, (None,)])},
    },
    # the witness shapes the sampled checkers report
    "broken-padic-3-F3": {"seed": 0, "round": 5, "a": (1, -7584), "y": -7584,
                          "delta": (0, -7584), "z": 5986},
    "metric-q-F6": {"seed": 42, "round": 17, "a": (2, Fraction(-3, 4)),
                    "a2": (3, Fraction(-3, 4)), "meet": (6, Fraction(-3, 4)), "z": Fraction(1, 8)},
    "cantor-F3": {"seed": 1, "round": 3, "a": (4, Word((2,), (0, 2))), "y": Word((), (2, 0)),
                  "delta": (2, Word((), (2, 0))), "z": Word((0, 0), (2,))},
}


@pytest.mark.parametrize("name", VALUES)
def test_jsonable_matches_the_isinstance_chain(name):
    value = VALUES[name]
    assert typed(jsonable(value)) == typed(reference_jsonable(value))
