"""``cli.main`` pauses Python's cyclic garbage collector while a command
runs.  It must put the collector back as it found it on every exit, and no
command may leave cyclic garbage, which a paused collector would not free."""

import gc
import json
from pathlib import Path

import pytest

import fibrous.cli as cli
from fibrous import (
    FiniteTopology,
    functor_G_mor,
    functor_G_obj,
    morphism_to_json,
    preorder_to_json,
    topology_to_json,
)
from fibrous.lazy import INSTANCE_NAMES, MODULUS_NAMES

SIERPINSKI = FiniteTopology(2, (0, 2, 3))


@pytest.fixture
def files(tmp_path):
    """Small input files, by name: a topology and its G-image, the bare
    carrier, a morphism, and inputs that fail or do not parse."""
    gi = functor_G_obj(SIERPINSKI)
    corrupted = preorder_to_json(gi.X, gi.w)
    corrupted["d"] = [[a, b, 1 if (a, b) == (1, 1) else t] for a, b, t in corrupted["d"]]
    docs = {
        "T": topology_to_json(SIERPINSKI),
        "G": preorder_to_json(gi.X, gi.w),
        "B": preorder_to_json(gi.X),
        "M": morphism_to_json(functor_G_mor((1, 1), gi, gi)),
        "D": preorder_to_json(functor_G_obj(FiniteTopology(2, (0, 1, 2, 3))).X),
        "NOT_TOP": {"nB": 2, "opens": [[0], [1]]},
        "CORRUPTED": corrupted,
        "BAD_S": {**preorder_to_json(gi.X, gi.w), "s": [0, 5]},
        "HALF": {"nB": 1, "nA": 1},
    }
    out = {}
    for name, doc in docs.items():
        out[name] = tmp_path / f"{name}.json"
        out[name].write_text(json.dumps(doc), encoding="utf-8")
    out["NESTED"] = tmp_path / "nested.json"
    out["NESTED"].write_text("[" * 100_000, encoding="utf-8")
    out["MISSING"] = tmp_path / "missing.json"
    return {name: str(path) for name, path in out.items()}


# (expected exit code, argv); a capitalized argument names one of ``files``
COMMANDS = [
    (0, ["check", "G", "--json"]),
    (0, ["check", "B", "--verbose"]),
    (0, ["to-top", "G"]),
    (0, ["from-top", "T", "--json"]),
    (0, ["umap", "G", "--json"]),
    (0, ["equiv", "G", "G"]),
    (0, ["compose", "G", "G", "G", "M", "M", "--json"]),
    (0, ["roundtrip", "--mode", "fg", "--all-n", "4"]),
    (0, ["roundtrip", "--mode", "fg", "T", "--json"]),
    (0, ["roundtrip", "--mode", "gf", "--random", "5"]),
    (0, ["roundtrip", "--mode", "gf", "G", "--json"]),
    (0, ["enum-top", "4", "--json"]),
    (0, ["enum-top", "3", "--verbose"]),
    *[
        (0, ["sample", name.replace("<p>", "3").replace("<d>", "2"), "--samples", "50"])
        for name in INSTANCE_NAMES
    ],
    *[
        (1 if name.endswith("-bad") else 0, ["modulus-check", name, "--samples", "50"])
        for name in MODULUS_NAMES
    ],
    (1, ["check", "CORRUPTED", "--verbose", "--json"]),
    (1, ["to-top", "CORRUPTED"]),
    (1, ["from-top", "NOT_TOP", "--verbose"]),
    (1, ["equiv", "G", "D"]),
    (1, ["modulus-check", "q-double-bad", "--samples", "2000", "--verbose"]),
    (2, ["check", "MISSING"]),
    (2, ["check", "NESTED"]),
    (2, ["check", "HALF"]),
    (2, ["to-top", "B"]),
    (2, ["umap", "BAD_S"]),
    (2, ["from-top", "G"]),
    (2, ["roundtrip", "--mode", "fg", "--all-n", "7"]),
    (2, ["roundtrip", "--mode", "gf"]),
    (2, ["sample", "no-such-instance"]),
]


@pytest.fixture
def collector_state():
    """Restore the collector's state after a test that changes it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _argv(argv, files):
    return [files.get(a, a) for a in argv]


def test_no_command_leaves_cyclic_garbage(files, collector_state, capsys):
    cli.build_parser()
    gc.collect()
    gc.disable()
    for code, argv in COMMANDS:
        assert cli.main(_argv(argv, files)) == code, argv
        capsys.readouterr()
        assert gc.collect() == 0, argv


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "code, argv, checks",
    [
        (0, ["check", "G"], 1),
        (1, ["check", "CORRUPTED"], 1),
        (2, ["check", "HALF"], 0),
        (2, ["check", "BAD_S"], 1),
        (2, ["check"], 0),
        (0, ["--help"], 0),
        (None, ["check", "G"], 1),
    ],
    ids=["exit-0", "exit-1", "format-error", "structure-error", "usage-error", "help", "raises"],
)
def test_main_restores_collector_state(
    enabled, code, argv, checks, files, collector_state, monkeypatch, capsys
):
    """``checks`` is how many times the handler reaches ``check_axioms``,
    which records whether the collector runs there; with ``code`` None it
    raises an exception that ``main`` does not handle."""
    seen = []
    original = cli.check_axioms

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        if code is None:
            raise RuntimeError("unexpected")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "check_axioms", watched)
    (gc.enable if enabled else gc.disable)()
    if code is None:
        with pytest.raises(RuntimeError, match="unexpected"):
            cli.main(_argv(argv, files))
    else:
        assert cli.main(_argv(argv, files)) == code
    assert gc.isenabled() is enabled
    assert seen == [False] * checks
    capsys.readouterr()


def test_library_modules_leave_the_collector_alone():
    src = Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "cli.py":
            text = path.read_text(encoding="utf-8")
            assert "import gc" not in text and "gc." not in text, path.name
