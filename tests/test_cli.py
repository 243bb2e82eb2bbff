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
    const1 = functor_G_mor((1, 1), gs, gs)
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


# Small instances for the pinned-output test.  G is the carrier of the
# Sierpinski space with its witness, B the same carrier bare; BAD breaks F1 at
# (1, 1), BAD2 at (1, 1) and (2, 1).  T1 is the one-point topology, TBAD
# fails every topology axiom but the intersection of its two opens.  D and I
# are the bare carriers of the discrete and indiscrete topologies on two
# points, NOMIN a carrier without a fiber-minimum section.  M lifts the
# constant map 1 on the Sierpinski space; MBAD lifts (0, 0) into the wrong
# fiber.
PINNED_G = {
    "nB": 2, "nA": 3, "p": [1, 0, 1], "R": [[1], [0, 1], [0, 1]],
    "d": [[0, 1, 0], [1, 0, 1], [1, 1, 2], [2, 0, 1], [2, 1, 2]],
    "s": [1, 2], "m": [[0, 0, 0], [0, 2, 0], [1, 1, 1], [2, 0, 0], [2, 2, 2]],
}
PINNED_BAD = {**PINNED_G, "d": [[0, 1, 0], [1, 0, 1], [1, 1, 1], [2, 0, 1], [2, 1, 2]]}
PINNED_FILES = {
    "G": PINNED_G,
    "BAD": PINNED_BAD,
    "BAD2": {**PINNED_BAD, "d": [[0, 1, 0], [1, 0, 1], [1, 1, 1], [2, 0, 1], [2, 1, 1]]},
    "BADBARE": {k: PINNED_BAD[k] for k in ("nB", "nA", "p", "R", "d")},
    "T1": {"nB": 1, "opens": [[], [0]]},
    "TBAD": {"nB": 2, "opens": [[0], [1]]},
    "D": {"nB": 2, "nA": 4, "p": [0, 1, 0, 1], "R": [[0], [1], [0, 1], [0, 1]],
          "d": [[0, 0, 0], [1, 1, 1], [2, 0, 2], [2, 1, 3], [3, 0, 2], [3, 1, 3]]},
    "I": {"nB": 2, "nA": 2, "p": [0, 1], "R": [[0, 1], [0, 1]],
          "d": [[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 1]]},
    "NOMIN": {"nB": 3, "nA": 4, "p": [0, 0, 1, 2], "R": [[0, 1], [0, 2], [1], [2]],
              "d": [[0, 0, 0], [0, 1, 2], [1, 0, 1], [1, 2, 3], [2, 1, 2], [3, 2, 3]]},
    "M": {"f": [1, 1], "fstar": [[0, 0, 1], [0, 1, 2], [2, 0, 1], [2, 1, 2]]},
    "MBAD": {"f": [1, 1], "fstar": [[0, 0, 0], [0, 1, 2], [2, 0, 1], [2, 1, 2]]},
}


@pytest.mark.parametrize("argv, code, stdout", [
    pytest.param(["check", "G"], 0, 'F1-F6: pass\n', id="check-G"),
    pytest.param(["check", "G", "--json"], 0, (
        '{"axioms": "F1-F6", "command": "check", "passed": true, "violations": []}\n'
    ), id="check-G-json"),
    pytest.param(["check", "BAD"], 1, 'F1-F6: fail\n  F1: witness [1, 1]\n', id="check-BAD"),
    pytest.param(["check", "BAD", "--json"], 1, (
        '{"axioms": "F1-F6", "command": "check", "passed": false, "violations": [{"axiom": "F1", "witness": [1, 1]}]}\n'
    ), id="check-BAD-json"),
    pytest.param(["check", "BAD2", "--verbose", "--json"], 1, (
        '{"axioms": "F1-F6", "command": "check", "passed": false, "violations": [{"axiom": "F1", "witness": [1, 1]}, {"axiom": "F1", "witness": [2, 1]}]}\n'
    ), id="check-BAD2-verbose-json"),
    pytest.param(["to-top", "G"], 0, 'topology on 2 points, 3 open sets:\n  []\n  [1]\n  [0, 1]\n', id="to-top-G"),
    pytest.param(["to-top", "G", "--json"], 0, '{"nB": 2, "opens": [[], [1], [0, 1]]}\n', id="to-top-G-json"),
    pytest.param(["to-top", "BAD"], 1, 'F1-F6: fail\n  F1: witness [1, 1]\n', id="to-top-BAD"),
    pytest.param(["to-top", "BAD", "--json"], 1, (
        '{"command": "to-top", "passed": false, "violations": [{"axiom": "F1", "witness": [1, 1]}]}\n'
    ), id="to-top-BAD-json"),
    pytest.param(["from-top", "T1"], 0, (
        '{\n  "R": [\n    [\n      0\n    ]\n  ],\n  "d": [\n    [\n'
        '      0,\n      0,\n      0\n    ]\n  ],\n  "m": [\n    [\n'
        '      0,\n      0,\n      0\n    ]\n  ],\n  "nA": 1,\n  "nB": 1,\n'
        '  "p": [\n    0\n  ],\n  "s": [\n    0\n  ]\n}\n'
    ), id="from-top-T1"),
    pytest.param(["from-top", "T1", "--json"], 0, (
        '{"R": [[0]], "d": [[0, 0, 0]], "m": [[0, 0, 0]], "nA": 1, "nB": 1, "p": [0], "s": [0]}\n'
    ), id="from-top-T1-json"),
    pytest.param(["from-top", "TBAD"], 1, (
        'topology axioms: fail\n  empty: witness []\n'
        '  full: witness [[0, 1]]\n  union: witness [[0], [1]]\n'
        '  intersection: witness [[0], [1]]\n'
    ), id="from-top-TBAD"),
    pytest.param(["from-top", "TBAD", "--json"], 1, (
        '{"command": "from-top", "passed": false, "violations": [{"axiom": "empty", "witness": []}, {"axiom": "full", "witness": [[0, 1]]}, {"axiom": "union", "witness": [[0], [1]]}, {"axiom": "intersection", "witness": [[0], [1]]}]}\n'
    ), id="from-top-TBAD-json"),
    pytest.param(["umap", "G"], 0, 'u: [1, 0]\nR0[0]: [0, 1]\nR0[1]: [1]\n', id="umap-G"),
    pytest.param(["umap", "G", "--json"], 0, '{"R0": [[0, 1], [1]], "command": "umap", "u": [1, 0]}\n', id="umap-G-json"),
    pytest.param(["umap", "BADBARE"], 1, 'F1-F3: fail\n  F1: witness [1, 1]\n', id="umap-BADBARE"),
    pytest.param(["umap", "BADBARE", "--json"], 1, (
        '{"command": "umap", "passed": false, "violations": [{"axiom": "F1", "witness": [1, 1]}]}\n'
    ), id="umap-BADBARE-json"),
    pytest.param(["umap", "NOMIN"], 1, 'no fiber-minimum section exists\n', id="umap-NOMIN"),
    pytest.param(["umap", "NOMIN", "--json"], 1, '{"R0": null, "command": "umap", "u": null}\n', id="umap-NOMIN-json"),
    pytest.param(["equiv", "G", "G"], 0, 'phi: [0, 1, 2]\ngamma: [0, 1, 2]\n', id="equiv-G-G"),
    pytest.param(["equiv", "G", "G", "--json"], 0, (
        '{"command": "equiv", "witness": {"gamma": [0, 1, 2], "phi": [0, 1, 2]}}\n'
    ), id="equiv-G-G-json"),
    pytest.param(["equiv", "D", "I"], 1, 'no equivalence witness exists\n', id="equiv-D-I"),
    pytest.param(["equiv", "D", "I", "--json"], 1, '{"command": "equiv", "witness": null}\n', id="equiv-D-I-json"),
    pytest.param(["compose", "G", "G", "G", "M", "M"], 0, (
        '{"f": [1, 1], "fstar": [[0, 0, 1], [0, 1, 2], [2, 0, 1], [2, 1, 2]]}\n'
    ), id="compose-G-G-G-M-M"),
    pytest.param(["compose", "G", "G", "G", "M", "M", "--json"], 0, (
        '{"f": [1, 1], "fstar": [[0, 0, 1], [0, 1, 2], [2, 0, 1], [2, 1, 2]]}\n'
    ), id="compose-G-G-G-M-M-json"),
    pytest.param(["compose", "G", "G", "G", "MBAD", "M"], 1, 'input morphisms fail verification\n  M1: witness [0, 0]\n', id="compose-G-G-G-MBAD-M"),
    pytest.param(["compose", "G", "G", "G", "MBAD", "M", "--json"], 1, (
        '{"command": "compose", "first": {"passed": false, "violations": [{"axiom": "M1", "witness": [0, 0]}]}, "passed": false, "second": {"passed": true, "violations": []}}\n'
    ), id="compose-G-G-G-MBAD-M-json"),
    pytest.param(["compose", "G", "G", "G", "M", "MBAD"], 1, 'input morphisms fail verification\n  M1: witness [0, 0]\n', id="compose-G-G-G-M-MBAD"),
    pytest.param(["compose", "G", "G", "G", "M", "MBAD", "--json"], 1, (
        '{"command": "compose", "first": {"passed": true, "violations": []}, "passed": false, "second": {"passed": false, "violations": [{"axiom": "M1", "witness": [0, 0]}]}}\n'
    ), id="compose-G-G-G-M-MBAD-json"),
    pytest.param(["roundtrip", "--mode", "gf", "G"], 0, 'seed: 0\ngf round-trip: 1 verified witness(es)\n', id="roundtrip-mode-gf-G"),
    pytest.param(["roundtrip", "--mode", "gf", "G", "--json"], 0, (
        '{"checked": 1, "command": "roundtrip", "mode": "gf", "seed": 0, "witnesses": [{"gamma": [0, 1, 0], "phi": [0, 1, 2]}]}\n'
    ), id="roundtrip-mode-gf-G-json"),
    pytest.param(["roundtrip", "--mode", "gf", "BAD"], 1, 'F1-F6: fail\n  F1: witness [1, 1]\n', id="roundtrip-mode-gf-BAD"),
    pytest.param(["roundtrip", "--mode", "gf", "BAD", "--json"], 1, (
        '{"command": "roundtrip", "mode": "gf", "passed": false, "violations": [{"axiom": "F1", "witness": [1, 1]}]}\n'
    ), id="roundtrip-mode-gf-BAD-json"),
    pytest.param(["roundtrip", "--mode", "gf", "BAD2", "--verbose", "--json"], 1, (
        '{"command": "roundtrip", "mode": "gf", "passed": false, "violations": [{"axiom": "F1", "witness": [1, 1]}, {"axiom": "F1", "witness": [2, 1]}]}\n'
    ), id="roundtrip-mode-gf-BAD2-verbose-json"),
    pytest.param(["roundtrip", "--mode", "gf", "--random", "2", "--seed", "3"], 0, 'seed: 3\ngf round-trip: 2 verified witness(es)\n', id="roundtrip-mode-gf-random-2-seed-3"),
    pytest.param(["roundtrip", "--mode", "gf", "--random", "2", "--seed", "3", "--json"], 0, (
        '{"checked": 2, "command": "roundtrip", "mode": "gf", "seed": 3, "witnesses": 2}\n'
    ), id="roundtrip-mode-gf-random-2-seed-3-json"),

])
def test_pinned_output(argv, code, stdout, tmp_path, capsys):
    """Prose and --json output of the pass and fail branches, word for word."""
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in PINNED_FILES.items()}
    assert main([paths.get(a, a) for a in argv]) == code
    assert capsys.readouterr() == (stdout, "")


def _broken_discrete():
    """G of the discrete topology on three points with three ``d`` rows and
    three ``m`` rows sent to the element over the same point whose
    neighborhood is the whole base: F3 fails at three keys, F6 at three."""
    gi = functor_G_obj(FiniteTopology(3, tuple(range(8))))
    obj = preorder_to_json(gi.X, gi.w)
    p, R = obj["p"], obj["R"]
    full = {p[a]: a for a in range(obj["nA"]) if len(R[a]) == 3}
    small = [k for k, (a, _, _) in enumerate(obj["d"]) if len(R[a]) < 3]
    for k in (small[0], small[len(small) // 2], small[-1]):
        a, y, _ = obj["d"][k]
        obj["d"][k] = [a, y, full[y]]
    small = [k for k, (a, a2, _) in enumerate(obj["m"]) if len(set(R[a]) & set(R[a2])) < 3]
    for k in (small[0], small[len(small) // 2], small[-1]):
        a, a2, _ = obj["m"][k]
        obj["m"][k] = [a, a2, full[p[a]]]
    return obj


@pytest.mark.parametrize("name", ["G", "BAD", "BAD2", "BROKEN"])
def test_row_order_does_not_change_output(name, tmp_path, capsys):
    """Rows of d, m and fstar may come in any order: every report lists its
    witnesses in key order, so shuffled files print the sorted file's bytes."""
    import random

    docs = {**PINNED_FILES, "BROKEN": _broken_discrete()}
    runs = [
        ["check", name, "--verbose", "--json"],
        ["to-top", name, "--json"],
        ["roundtrip", "--mode", "gf", name, "--json"],
        ["umap", name, "--json"],
        ["compose", "G", "G", "G", "M", "M"],
        ["compose", "G", "G", "G", "MBAD", "M", "--verbose", "--json"],
    ]

    def outputs(docs):
        paths = {k: write(tmp_path, f"{k}.json", docs[k]) for k in (name, "G", "M", "MBAD")}
        return [(main([paths.get(a, a) for a in argv]), capsys.readouterr()) for argv in runs]

    expected = outputs(docs)
    if name == "BROKEN":
        assert [v["axiom"] for v in json.loads(expected[0][1].out)["violations"]] == ["F3"] * 3 + ["F6"] * 3
    rng = random.Random(name)
    for _ in range(3):
        shuffled = {}
        for k, doc in docs.items():
            doc = dict(doc)
            for key in ("d", "m", "fstar"):
                if key in doc:
                    doc[key] = rng.sample(doc[key], len(doc[key]))
            shuffled[k] = doc
        assert outputs(shuffled) == expected


PINNED_M = PINNED_FILES["M"]


@pytest.mark.parametrize("doc, message", [
    pytest.param({**PINNED_G, "d": {}}, '"d" must be a list of [int, int, int] triples', id="d-not-list"),
    pytest.param({**PINNED_G, "d": [[0, 1, 0], [1, 0]]}, '"d" must be a list of [int, int, int] triples',
                 id="d-row-length-2"),
    pytest.param({**PINNED_G, "d": [[0, 1, 0], [1, 0.0, 1]]}, '"d" must be a list of [int, int, int] triples',
                 id="d-float"),
    pytest.param({**PINNED_G, "d": [[0, 1, 0], [1, 0, True]]}, '"d" must be a list of [int, int, int] triples',
                 id="d-true"),
    pytest.param({**PINNED_G, "m": [[0, 0, 0], [0, 2, 0.5]]}, '"m" must be a list of [int, int, int] triples',
                 id="m-float"),
    pytest.param({**PINNED_G, "m": [[0, 0, 0], [True, 2, 0]]}, '"m" must be a list of [int, int, int] triples',
                 id="m-true"),
    pytest.param({**PINNED_M, "fstar": [[0, 0, 1.0]]}, '"fstar" must be a list of [int, int, int] triples',
                 id="fstar-float"),
    pytest.param({**PINNED_M, "fstar": [[0, 0, 1], [0, True, 2]]},
                 '"fstar" must be a list of [int, int, int] triples', id="fstar-true"),
    pytest.param({**PINNED_G, "p": [1, 0, True]}, '"p" must be a list of integers', id="p-true"),
    pytest.param({**PINNED_G, "s": [True, 2]}, '"s" must be a list of integers', id="s-true"),
    pytest.param({**PINNED_M, "f": [1, True]}, '"f" must be a list of integers', id="f-true"),
    pytest.param({**PINNED_G, "R": [[1], [0, 1], [0, 1.0]]}, '"R" must be a list of point lists', id="R-float"),
    pytest.param({**PINNED_G, "d": [[2, 1, 2], [0, 1, 0], [2, 1, 2], [1, 0, 1], [1, 0, 1], [1, 1, 2], [2, 0, 1]]},
                 '"d" repeats the key [2, 1]', id="d-repeated-key"),
    pytest.param({**PINNED_G, "d": [[0, 1, 0], [1, 0, 1], [2, 0, 1], [2, 1, 2]]},
                 "d table must cover exactly the related pairs (missing [(1, 1)], extra [])", id="d-missing"),
    pytest.param({**PINNED_G, "m": [*PINNED_G["m"], [0, 1, 0]]},
                 "m table must cover exactly the same-fiber pairs (missing [], extra [(0, 1)])", id="m-extra"),
    pytest.param({**PINNED_G, "m": [[0, 0, 0], [2, 2, 2]]},
                 "m table must cover exactly the same-fiber pairs (missing [(0, 2), (1, 1), (2, 0)], extra [])",
                 id="m-missing-three"),
    pytest.param({**PINNED_M, "fstar": [[0, 0, 1], [2, 1, 2], [1, 0, 0], [1, 1, 1]]},
                 "fstar table must cover exactly the fiber product"
                 " (missing [(0, 1), (2, 0)], extra [(1, 0), (1, 1)])", id="fstar-missing-and-extra"),
    pytest.param({**PINNED_G, "d": [[0, 1, 0], [1, 0, 1], [1, 1, 3], [2, 0, 1], [2, 1, 2]]},
                 "d[(1, 1)]=3 out of range", id="d-out-of-range"),
    pytest.param({**PINNED_G, "d": [[2, 1, 9], [0, 1, 0], [1, 0, -1], [1, 1, 2], [2, 0, 1]]},
                 "d[(2, 1)]=9 out of range", id="d-first-bad-row"),
    pytest.param({**PINNED_G, "m": [[0, 0, -1], [0, 2, 0], [1, 1, 1], [2, 0, 0], [2, 2, 2]]},
                 "m[(0, 0)]=-1 out of range", id="m-negative"),
    pytest.param({**PINNED_M, "fstar": [[0, 0, 1], [0, 1, 2], [2, 0, -4], [2, 1, 3]]},
                 "fstar[(2, 0)]=-4 out of range", id="fstar-negative"),
    pytest.param({**PINNED_G, "s": [1, 2, 0]}, "s has 3 entries, expected 2", id="s-long"),
    pytest.param({**PINNED_M, "f": [1]}, "f has 1 entries, expected 2", id="f-short"),
    pytest.param({**PINNED_M, "f": [1, 2]}, "f[1]=2 out of range", id="f-out-of-range"),
])
def test_pinned_rejection(doc, message, tmp_path, capsys):
    """Reader and table-domain messages for malformed files, word for word.
    A morphism file goes in as the first morphism of ``compose``, any other
    file as the input of ``check``."""
    path = write(tmp_path, "doc.json", doc)
    if "f" in doc:
        g = write(tmp_path, "g.json", PINNED_G)
        argv = ["compose", g, g, g, path, write(tmp_path, "m.json", PINNED_M)]
    else:
        argv = ["check", path]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
        (["roundtrip", "--mode", "gf", "--random", "2", "--algorithm", "brute"],
         "unrecognized arguments: --algorithm"),
        (["roundtrip", "--mode", "fg", "--all-n", "2", "--seed", "5"], "error: --seed applies to gf mode only"),
        (["enum-top", "-1"], "argument n: expected a non-negative integer, got '-1'"),
        (["roundtrip", "--mode", "fg", "--all-n", "-1"], "argument --all-n: expected a non-negative integer, got '-1'"),
    ],
    ids=[
        "argv0", "argv1", "argv2", "gf-file-and-random", "gf-all-n", "fg-file-and-all-n", "fg-random",
        "gf-algorithm", "fg-seed", "enum-top-negative", "fg-all-n-negative",
    ],
)
def test_negative_counts_exit_two(argv, message, sierpinski_top, sierpinski_g, capsys):
    argv = [{"G": sierpinski_g, "T": sierpinski_top}.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["enum-top", "7"], ["roundtrip", "--mode", "fg", "--all-n", "7"]],
    ids=["enum-top", "roundtrip-fg"],
)
def test_enumeration_limit_exits_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: enumeration supports at most 6 points\n")


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


def test_removed_brute_flags_exit_two(sierpinski_g, capsys):
    assert main(["to-top", sierpinski_g, "--algorithm", "brute"]) == 2
    assert "unrecognized arguments: --algorithm brute" in capsys.readouterr().err
    assert main(["to-top", sierpinski_g, "--brute-limit", "5"]) == 2
    assert "--brute-limit" in capsys.readouterr().err


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
