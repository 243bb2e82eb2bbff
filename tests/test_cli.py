import json

import pytest

from fibrous import (
    FiniteTopology,
    broken_metric_q,
    functor_G_mor,
    functor_G_obj,
    identity_morphism,
    morphism_to_json,
    preorder_to_json,
    topology_to_json,
)
from fibrous.cli import main

SIERPINSKI = FiniteTopology(2, (0, 2, 3))


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def sierpinski_top(tmp_path):
    return write(tmp_path, "sierpinski.json", topology_to_json(SIERPINSKI))


@pytest.fixture
def sierpinski_g(tmp_path):
    gi = functor_G_obj(SIERPINSKI)
    return write(tmp_path, "sierpinski-g.json", preorder_to_json(gi.X, gi.w))


def test_from_top_then_check_passes(tmp_path, sierpinski_top, capsys):
    assert main(["from-top", sierpinski_top, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    fixture = write(tmp_path, "g.json", payload)
    assert main(["check", fixture]) == 0
    out = capsys.readouterr().out
    assert "F1-F6: pass" in out


def test_check_without_witness_reports_f1_f3(tmp_path, capsys):
    gi = functor_G_obj(SIERPINSKI)
    fixture = write(tmp_path, "bare.json", preorder_to_json(gi.X))
    assert main(["check", fixture]) == 0
    assert "F1-F3: pass" in capsys.readouterr().out


def test_check_corrupted_exits_one(tmp_path, capsys):
    gi = functor_G_obj(SIERPINSKI)
    obj = preorder_to_json(gi.X, gi.w)
    obj["d"] = [[a, b, (1 if (a, b) == (1, 1) else t)] for a, b, t in obj["d"]]
    fixture = write(tmp_path, "bad.json", obj)
    assert main(["check", fixture, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    assert report["violations"][0]["axiom"] == "F1"


def test_to_top_recovers_topology(tmp_path, sierpinski_g, capsys):
    assert main(["to-top", sierpinski_g, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == topology_to_json(SIERPINSKI)
    assert main(["to-top", sierpinski_g, "--algorithm", "brute", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == topology_to_json(SIERPINSKI)


def test_to_top_requires_witness(tmp_path, capsys):
    gi = functor_G_obj(SIERPINSKI)
    fixture = write(tmp_path, "bare.json", preorder_to_json(gi.X))
    assert main(["to-top", fixture]) == 2
    assert "required" in capsys.readouterr().err


def test_equiv_self_and_absent(tmp_path, sierpinski_g, capsys):
    assert main(["equiv", sierpinski_g, sierpinski_g, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["witness"]["phi"] == [0, 1, 2]
    gd = functor_G_obj(FiniteTopology(2, (0, 1, 2, 3)))
    gi = functor_G_obj(FiniteTopology(2, (0, 3)))
    da = write(tmp_path, "d.json", preorder_to_json(gd.X, gd.w))
    ia = write(tmp_path, "i.json", preorder_to_json(gi.X, gi.w))
    assert main(["equiv", da, ia]) == 1
    assert "no equivalence witness" in capsys.readouterr().out


def test_umap_present_and_absent(tmp_path, sierpinski_g, capsys):
    assert main(["umap", sierpinski_g, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["u"] == [1, 0]
    assert report["R0"] == [[0, 1], [1]]
    from fibrous import FinFibrousPreorder

    no_minimum = FinFibrousPreorder(
        3,
        4,
        (0, 0, 1, 2),
        (0b011, 0b101, 0b010, 0b100),
        {(0, 0): 0, (0, 1): 2, (1, 0): 1, (1, 2): 3, (2, 1): 2, (3, 2): 3},
    )
    fixture = write(tmp_path, "nomin.json", preorder_to_json(no_minimum))
    assert main(["umap", fixture]) == 1


def test_compose_cli(tmp_path, capsys):
    gs = functor_G_obj(SIERPINSKI)
    const1 = functor_G_mor((1, 1), SIERPINSKI, SIERPINSKI)
    xfile = write(tmp_path, "x.json", preorder_to_json(gs.X, gs.w))
    mfile = write(tmp_path, "m.json", morphism_to_json(const1))
    code = main(["compose", xfile, xfile, xfile, mfile, mfile])
    assert code == 0
    composed = json.loads(capsys.readouterr().out)
    assert composed["f"] == [1, 1]


def test_compose_rejects_non_integer_lifting(tmp_path, capsys):
    point = functor_G_obj(FiniteTopology(1, (0, 1)))
    xfile = write(tmp_path, "x.json", preorder_to_json(point.X, point.w))
    m = morphism_to_json(identity_morphism(point.X))
    assert m["fstar"] == [[0, 0, 0]]
    m["fstar"] = [[0, 0, "a"]]
    mfile = write(tmp_path, "m.json", m)
    code = main(["compose", xfile, xfile, xfile, mfile, mfile])
    assert code == 2
    err = capsys.readouterr().err
    assert '"fstar" must be a list' in err and "Traceback" not in err


def test_check_rejects_boolean_sizes(tmp_path, capsys):
    obj = {"nB": True, "nA": True, "p": [0], "R": [[0]], "d": [[0, 0, 0]], "s": [0], "m": [[0, 0, 0]]}
    assert main(["check", write(tmp_path, "bool.json", obj)]) == 2
    assert '"nB" and "nA" must be integers' in capsys.readouterr().err


ONE = {"nB": 1, "nA": 1, "p": [0], "R": [[0]], "d": [[0, 0, 0]]}
ONE_ID = {"f": [0], "fstar": [[0, 0, 0]]}


@pytest.mark.parametrize(
    "command, docs",
    [
        ("check", [{**ONE, "d": [[0, 0, 0], [0, 0, 0]]}]),
        ("to-top", [{**ONE, "s": [0], "m": [[0, 0, 0], [0, 0, 0]]}]),
        ("compose", [ONE, ONE, ONE, {**ONE_ID, "fstar": [[0, 0, 0], [0, 0, 0]]}, ONE_ID]),
        ("check", [{"nB": 2, "nA": 2, "p": [0, 1], "R": [[0, 1], [True]],
                    "d": [[0, 0, 0], [0, 1, 1], [1, 1, 1]]}]),
        ("from-top", [{"nB": 2, "opens": [[], [0, 1], [True]]}]),
    ],
    ids=["d-repeated-key", "m-repeated-key", "fstar-repeated-key", "R-boolean", "opens-boolean"],
)
def test_repeated_keys_and_boolean_points_exit_two(command, docs, tmp_path, capsys):
    paths = [write(tmp_path, f"{i}.json", doc) for i, doc in enumerate(docs)]
    assert main([command, *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("check", {**ONE, "nB": 2**70}),
        ("umap", {**ONE, "nB": 65537}),
        ("from-top", {"nB": 2**70, "opens": [[]]}),
    ],
)
def test_oversized_base_exits_two(command, doc, tmp_path, capsys):
    assert main([command, write(tmp_path, "big.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f'error: "nB" is {doc["nB"]}, above the limit of 65536 points\n'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "metric-q", "--samples", "-5"], "non-negative integer"),
        (["modulus-check", "q-double", "--samples", "-3"], "non-negative integer"),
        (["roundtrip", "--mode", "gf", "--random", "-2"], "non-negative integer"),
        (["roundtrip", "--mode", "gf", "G", "--random", "3"], "error: gf mode takes an input file or --random, not both"),
        (["roundtrip", "--mode", "gf", "--all-n", "2"], "error: --all-n applies to fg mode only"),
        (["roundtrip", "--mode", "fg", "T", "--all-n", "2"], "error: fg mode takes an input file or --all-n, not both"),
        (["roundtrip", "--mode", "fg", "--random", "3"], "error: --random applies to gf mode only"),
    ],
    ids=["argv0", "argv1", "argv2", "gf-file-and-random", "gf-all-n", "fg-file-and-all-n", "fg-random"],
)
def test_negative_counts_exit_two(argv, message, sierpinski_top, sierpinski_g, capsys):
    argv = [{"G": sierpinski_g, "T": sierpinski_top}.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["check", "G"], ["to-top", "G"], ["roundtrip", "--mode", "gf", "G"]],
    ids=["check", "to-top", "roundtrip-gf"],
)
def test_witness_is_validated_once(argv, sierpinski_g, monkeypatch, capsys):
    import fibrous.core as core

    calls = []
    original = core.validate_witness

    def counted(X, w):
        calls.append(w)
        return original(X, w)

    monkeypatch.setattr(core, "validate_witness", counted)
    assert main([a if a != "G" else sierpinski_g for a in argv]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command, files",
    [
        ("check", "B"),
        ("to-top", "B"),
        ("umap", "B"),
        ("equiv", "BG"),
        ("equiv", "GB"),
        ("compose", "GBGMM"),
        ("roundtrip --mode gf", "B"),
    ],
)
def test_malformed_witness_exits_two(command, files, tmp_path, sierpinski_g, capsys):
    gi = functor_G_obj(SIERPINSKI)
    bad = write(tmp_path, "bad.json", {**preorder_to_json(gi.X, gi.w), "s": [0, 5]})
    m = write(tmp_path, "m.json", morphism_to_json(identity_morphism(gi.X)))
    paths = {"B": bad, "G": sierpinski_g, "M": m}
    assert main([*command.split(), *(paths[f] for f in files)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: s[1]=5 out of range\n"


def test_roundtrip_fg_all_n(capsys):
    assert main(["roundtrip", "--mode", "fg", "--all-n", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 4 and report["failures"] == []


@pytest.mark.parametrize("count, seed", [("3", "5"), ("0", "0")])
def test_roundtrip_gf_random_prints_seed(count, seed, capsys):
    assert main(["roundtrip", "--mode", "gf", "--random", count, "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert f"seed: {seed}" in out and f"{count} verified" in out


def test_roundtrip_gf_file(tmp_path, sierpinski_g, capsys):
    assert main(["roundtrip", "--mode", "gf", sierpinski_g, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 1
    assert report["witnesses"][0]["phi"] == [0, 1, 2]


def test_enum_top(capsys):
    assert main(["enum-top", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 4
    assert {"nB": 2, "opens": [[], [1], [0, 1]]} in report["topologies"]


def test_sample_prints_seed_and_count(capsys):
    assert main(["sample", "padic:3", "--samples", "400", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "seed: 42" in out
    assert "no violations in 400 samples" in out


def test_sample_witness_out_on_failure(tmp_path, capsys, monkeypatch):
    import fibrous.cli as cli

    monkeypatch.setattr(cli, "named_instance", lambda name: broken_metric_q())
    out_file = tmp_path / "witness.json"
    code = main(
        ["sample", "metric-q", "--samples", "3000", "--seed", "0",
         "--witness-out", str(out_file), "--json"]
    )
    assert code == 1
    replay = json.loads(out_file.read_text())
    assert replay["seed"] == 0
    assert "round" in replay["witness"]


def test_modulus_check_cli(capsys):
    assert main(["modulus-check", "q-double", "--samples", "300"]) == 0
    assert main(["modulus-check", "q-double-bad", "--samples", "4000"]) == 1
    out = capsys.readouterr().out
    assert "falsified" in out


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"nB": 2,', encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_deeply_nested_json_exits_two(from_stdin, tmp_path, monkeypatch, capsys):
    import io

    text = "[" * 100_000 + "]" * 100_000
    if from_stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        path = "-"
    else:
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


def test_schema_error_exits_two(tmp_path, capsys):
    fixture = write(tmp_path, "half.json", {"nB": 1, "nA": 1})
    assert main(["check", fixture]) == 2
    assert "missing key" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert main(["no-such-verb"]) == 2
    assert main(["sample"]) == 2
    assert main(["roundtrip", "--mode", "fg"]) == 2  # needs input or --all-n
    capsys.readouterr()


def test_base_size_mismatch_exits_two(tmp_path, sierpinski_g, capsys):
    one = functor_G_obj(FiniteTopology(1, (0, 1)))
    other = write(tmp_path, "one.json", preorder_to_json(one.X, one.w))
    assert main(["equiv", sierpinski_g, other]) == 2
    assert "base sizes differ" in capsys.readouterr().err


def test_oversized_brute_exits_two(tmp_path, sierpinski_g, capsys):
    assert main(["to-top", sierpinski_g, "--algorithm", "brute", "--brute-limit", "1"]) == 2
    assert "brute algorithm limited" in capsys.readouterr().err


def test_stdin_input(monkeypatch, capsys):
    import io

    gi = functor_G_obj(SIERPINSKI)
    text = json.dumps(preorder_to_json(gi.X, gi.w))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["check", "-"]) == 0
    assert "F1-F6: pass" in capsys.readouterr().out


def test_repeated_main_calls_match_fresh_processes(tmp_path, sierpinski_top, sierpinski_g, monkeypatch, capsys):
    """``main`` reuses one parser; no call may see state left by an earlier one."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fibrous

    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(fibrous.__file__).parents[1])}
    G, T = sierpinski_g, sierpinski_top
    witness = tmp_path / "witness.json"
    sequence = [
        ["check", G, "--verbose", "--json"],
        ["check", G],
        ["from-top", T, "--json"],
        ["to-top", G, "--verbose"],
        ["roundtrip", "--mode", "fg", T, "--verbose"],
        ["umap", G],
        ["check"],
        ["equiv", G, G, "--json"],
        ["sample", "padic:3", "--samples", "50", "--witness-out", str(witness), "--verbose"],
        ["sample", "padic:3", "--samples", "50", "--json"],
        ["roundtrip", "--mode", "gf", "--random", "0"],
        ["roundtrip", "--mode", "gf", "--random", "2", "--seed", "7", "--json"],
        ["roundtrip", "--mode", "fg", "--all-n", "2"],
        ["sample", "no-such-instance"],
        ["modulus-check", "q-double-bad", "--samples", "2000", "--json"],
        ["--help"],
        ["roundtrip", "--help"],
        ["enum-top", "2", "--verbose"],
        ["enum-top", "2"],
    ]
    for argv in sequence:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "fibrous.cli", *argv],
            capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=60,
        )
        assert (captured.out, captured.err, code) == (fresh.stdout, fresh.stderr, fresh.returncode), argv
    assert not witness.exists()


def test_json_reports_are_byte_identical(capsys, sierpinski_g):
    assert main(["sample", "cantor", "--samples", "200", "--seed", "1", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "cantor", "--samples", "200", "--seed", "1", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["check", sierpinski_g, "--json"]) == 0
    a = capsys.readouterr().out
    assert main(["check", sierpinski_g, "--json"]) == 0
    b = capsys.readouterr().out
    assert a == b
