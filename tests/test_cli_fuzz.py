"""Mutated JSON documents fed to every subcommand that reads one.

Each example starts from valid input files for one command, mutates one of
them (a dropped key or element, a value of another type, an out-of-range or
boolean entry, a repeated row or object key, truncated text) and runs
``main``: it must return 0, 1 or 2 and print no traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrous import (
    FiniteTopology,
    functor_G_mor,
    functor_G_obj,
    identity_morphism,
    morphism_to_json,
    preorder_to_json,
    topology_to_json,
)
from fibrous.cli import main

CHAIN = FiniteTopology(3, (0b000, 0b001, 0b011, 0b111))
_G = functor_G_obj(CHAIN)
CARRIER = preorder_to_json(_G.X, _G.w)
TOPOLOGY = topology_to_json(CHAIN)
IDENTITY = morphism_to_json(identity_morphism(_G.X))
CONSTANT = morphism_to_json(functor_G_mor((0, 0, 0), _G, _G))

# argv before the files, and the valid documents the files hold
COMMANDS = {
    "check": ([], [CARRIER]),
    "to-top": ([], [CARRIER]),
    "from-top": ([], [TOPOLOGY]),
    "equiv": ([], [CARRIER, preorder_to_json(_G.X)]),
    "umap": ([], [CARRIER]),
    "compose": ([], [CARRIER, CARRIER, CARRIER, IDENTITY, CONSTANT]),
    "roundtrip": (["--mode", "gf"], [CARRIER]),
}

ODD_VALUES = st.sampled_from(
    [None, True, False, -1, 0, 1, 2, 3, 12, 65537, 2**70, -(2**70), 1.0, 0.5,
     float("inf"), "", "0", [], {}, [[]], [[0, 0, 0]], [True]]
)


def _paths(node, path=()):
    """Every position in a JSON value, as a tuple of keys and indices."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, (*path, i))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_text(draw, doc):
    doc = json.loads(json.dumps(doc))
    inner = [p for p in _paths(doc) if p]
    # top-level entries are drawn as often as everything nested in them
    position = st.one_of(st.sampled_from([(key,) for key in doc]), st.sampled_from(inner))
    kind = draw(st.sampled_from(["drop", "replace", "repeat", "repeat-key", "truncate"]))
    if kind == "drop":
        path = draw(position)
        del _parent(doc, path)[path[-1]]
    elif kind == "replace":
        path = draw(st.one_of(st.just(()), position))
        value = draw(ODD_VALUES)
        if path:
            _parent(doc, path)[path[-1]] = value
        else:
            doc = value
    elif kind == "repeat":
        path = draw(st.sampled_from([p for p in inner if isinstance(_parent(doc, p), list)]))
        row = _parent(doc, path)[path[-1]]
        _parent(doc, path).insert(path[-1], json.loads(json.dumps(row)))
    text = json.dumps(doc)
    if kind == "repeat-key":
        key = draw(st.sampled_from(sorted(doc)))
        value = draw(st.one_of(st.just(doc[key]), ODD_VALUES))
        text = f"{text[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}"
    elif kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_json_exits_cleanly(command, workdir, data):
    flags, docs = COMMANDS[command]
    target = data.draw(st.integers(0, len(docs) - 1), label="file")
    paths = []
    for i, doc in enumerate(docs):
        text = data.draw(mutated_text(doc), label="text") if i == target else json.dumps(doc)
        path = workdir / f"{command}-{i}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *flags, *paths])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
