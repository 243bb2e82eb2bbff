"""Seeded inputs and expected outcomes of the four benchmark workloads.

A workload is a list of commands that the benchmark runs in a closed loop,
pass after pass.  A command is one ``cli.main`` call or, for the two lazy
mutants that have no CLI name, one library call serialized the way the CLI
serializes ``sample``.  Each command carries the exit code it must return, a
check of its JSON stdout, and the units of work it adds to the workload's
throughput.

Expected outputs are computed here, independently of the package wherever the
computation is short: Alexandrov topologies of preorders, carriers of (open
set, point) pairs, liftings of continuous maps, minimal neighborhoods and
union closures.  Only the ``random_spatial_preorder`` carriers, which the
workload names explicitly, come from the package itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

WORKLOADS = ("lazy-sample", "finite-large", "finite-many", "violations")

SAMPLE_INSTANCES = (
    "metric-q",
    "metric-q2",
    "padic:3",
    "cantor",
    "tangent-disk",
    "tangent-disk:strict-paper",
    "normed-q:2",
    "indexed-metric",
    "natural-metric",
)
PASSING_MODULI = ("padic3-shift", "padic3-scale", "q-double")

# Sizes per workload.  "min" is the smallest size at which every check is
# still meaningful.  The broken-metric-q round count does not shrink: that
# mutant is caught only a few times per 10k rounds (its first catch came as
# late as round 14,039 over seeds 0-59), and its expected verdict is "fail"
# on every seed.
SIZES = {
    "full": {
        "lazy_rounds": 300,
        "large_discrete_points": 7,
        "large_preorder_points": 9,
        "large_preorder_elements": (440, 480),
        "large_preorder_pairs": (25_000, 30_000),
        "many_carriers": 24,
        "many_all_n": 4,
        "many_gf_random": 12,
        "many_compose": 12,
        "broken_metric_rounds": 30_000,
        "broken_padic_rounds": 5_000,
        "modulus_bad_rounds": 2_000,
        "corrupt_carriers": 8,
    },
    "min": {
        "lazy_rounds": 50,
        "large_discrete_points": 4,
        "large_preorder_points": 5,
        "large_preorder_elements": (20, 200),
        "large_preorder_pairs": (0, 10_000),
        "many_carriers": 2,
        "many_all_n": 3,
        "many_gf_random": 2,
        "many_compose": 2,
        "broken_metric_rounds": 30_000,
        "broken_padic_rounds": 500,
        "modulus_bad_rounds": 500,
        "corrupt_carriers": 1,
    },
}

TOPOLOGY_COUNTS = {3: 29, 4: 355}


@dataclass(frozen=True)
class Command:
    """One command of a workload.

    ``run`` performs it, printing to ``sys.stdout``, and returns the exit
    code.  ``check`` receives the parsed stdout and the raw text and returns
    a problem description or ``None``.  ``work`` counts the units of work in
    the parsed stdout.  ``instance`` names the lazy instance or modulus, for
    the per-instance oracle counts of the traced run.
    """

    label: str
    run: Callable[[], int]
    exit: int
    check: Callable[[dict, str], str | None]
    work: Callable[[dict], int]
    rounds: int = 0
    instance: str = ""


def _const(n: int) -> Callable[[dict], int]:
    return lambda obj: n


def _equals(expected: dict) -> Callable[[dict, str], str | None]:
    def check(obj, text):
        if obj != expected:
            return f"output differs from the expected {json.dumps(expected)[:200]}"
        return None

    return check


def _violation_count(obj: dict) -> int:
    return len(obj.get("violations", ()))


def _cli(program, label, argv, exit, check, work, rounds=0, instance=""):
    argv = list(argv)
    return Command(label, lambda: program.main(argv), exit, check, work, rounds, instance)


# ---------------------------------------------------------------------------
# finite spaces built by the benchmark itself

def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def random_preorder(rng: Random, n: int, p: float) -> list[int]:
    """Up-set of each point under a random reflexive transitive relation."""
    up = [1 << x | sum(1 << y for y in range(n) if rng.random() < p) for x in range(n)]
    for k in range(n):
        for x in range(n):
            if up[x] >> k & 1:
                up[x] |= up[k]
    return up


def union_closure(rows) -> list[int]:
    """All unions of subfamilies of ``rows``, the empty union included, ascending."""
    closed = {0}
    for r in rows:
        closed |= {c | r for c in closed}
    return sorted(closed)


def alexandrov_opens(up: list[int]) -> list[int]:
    """The up-sets of a preorder, ascending: its Alexandrov topology, whose
    opens are the unions of the points' up-sets."""
    return union_closure(up)


@dataclass(frozen=True)
class Carrier:
    """Carrier of (open set, point) pairs of a topology, as JSON and labels."""

    nB: int
    opens: list[int]
    labels: list[tuple[int, int]]
    index: dict[tuple[int, int], int]
    fibers: list[list[int]]
    theta: list[int]
    obj: dict

    @property
    def nA(self) -> int:
        return len(self.labels)

    def topology_json(self) -> dict:
        return {"nB": self.nB, "opens": [_bits(u) for u in self.opens]}


def carrier_of(nB: int, opens: list[int]) -> Carrier:
    labels = [(u, x) for u in opens for x in _bits(u)]
    index = {lab: i for i, lab in enumerate(labels)}
    fibers = [[] for _ in range(nB)]
    for i, (_, x) in enumerate(labels):
        fibers[x].append(i)
    full = (1 << nB) - 1
    theta = []
    for x in range(nB):
        acc = full
        for u in opens:
            if u >> x & 1:
                acc &= u
        theta.append(acc)
    obj = {
        "nB": nB,
        "nA": len(labels),
        "p": [x for _, x in labels],
        "R": [_bits(u) for u, _ in labels],
        "d": [[i, y, index[u, y]] for i, (u, _) in enumerate(labels) for y in _bits(u)],
        "s": [index[full, x] for x in range(nB)],
        "m": [
            [i, j, index[u & labels[j][0], x]]
            for i, (u, x) in enumerate(labels)
            for j in fibers[x]
        ],
    }
    return Carrier(nB, opens, labels, index, fibers, theta, obj)


def basis_carrier_json(c: Carrier) -> dict:
    """One element per point, with the point's minimal open neighborhood."""
    n = c.nB
    return {
        "nB": n,
        "nA": n,
        "p": list(range(n)),
        "R": [_bits(t) for t in c.theta],
        "d": [[x, y, y] for x in range(n) for y in _bits(c.theta[x])],
        "s": list(range(n)),
        "m": [[x, x, x] for x in range(n)],
    }


def _write(path: Path, obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    path.write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# workloads

def lazy_sample(program, seed: int, workdir: Path, size: dict) -> list[Command]:
    rng = Random(f"lazy-sample:{seed}")
    n = size["lazy_rounds"]
    cmds = []
    for inst in SAMPLE_INSTANCES:
        s = rng.randrange(10**6)
        expected = {
            "command": "sample", "instance": inst, "samples": n, "seed": s,
            "passed": True, "violations": [],
        }
        cmds.append(_cli(
            program, f"sample:{inst}",
            ["sample", inst, "--samples", str(n), "--seed", str(s), "--json"],
            0, _equals(expected), _const(n), n, inst,
        ))
    for name in PASSING_MODULI:
        s = rng.randrange(10**6)
        expected = {
            "command": "modulus-check", "name": name, "samples": n, "seed": s,
            "passed": True, "violations": [],
        }
        cmds.append(_cli(
            program, f"modulus-check:{name}",
            ["modulus-check", name, "--samples", str(n), "--seed", str(s), "--json"],
            0, _equals(expected), _const(n), n, name,
        ))
    return cmds


def _preorder_carrier(rng: Random, n: int, p: float, elements: tuple[int, int], pairs: tuple[int, int]) -> Carrier:
    # Rejection sampling keeps the element count and the same-fiber pair
    # count (the size of "m"), and with them the command costs, close to the
    # same values on every seed.
    while True:
        up = random_preorder(rng, n, p)
        opens = alexandrov_opens(up)
        fibers = [sum(u >> x & 1 for u in opens) for x in range(n)]
        if (elements[0] <= sum(fibers) <= elements[1]
                and pairs[0] <= sum(f * f for f in fibers) <= pairs[1]):
            return carrier_of(n, opens)


def _gf_gamma(c: Carrier) -> list[int]:
    # least element over the point whose neighborhood fits inside the open
    return [
        next(a for a in c.fibers[x] if c.labels[a][0] & ~u == 0)
        for u, x in c.labels
    ]


def _pipeline(program, c: Carrier, tag: str, workdir: Path) -> list[Command]:
    top, g, b = (workdir / f"{tag}-{kind}.json" for kind in ("top", "g", "b"))
    _write(top, c.topology_json())
    g_text = _write(g, c.obj)
    _write(b, basis_carrier_json(c))
    nA, nB = c.nA, c.nB
    minimal = [c.index[c.theta[x], x] for x in range(nB)]

    def from_top_check(obj, text):
        return None if text == g_text + "\n" else "carrier differs from the one built by the benchmark"

    return [
        _cli(program, f"from-top:{tag}", ["from-top", str(top), "--json"], 0,
             from_top_check, _const(nA)),
        _cli(program, f"check:{tag}", ["check", str(g), "--json"], 0,
             _equals({"axioms": "F1-F6", "command": "check", "passed": True, "violations": []}),
             _const(nA)),
        _cli(program, f"to-top:{tag}", ["to-top", str(g), "--json"], 0,
             _equals(c.topology_json()), _const(nA)),
        _cli(program, f"roundtrip-gf:{tag}", ["roundtrip", "--mode", "gf", str(g), "--json"], 0,
             _equals({
                 "checked": 1, "command": "roundtrip", "mode": "gf", "seed": 0,
                 "witnesses": [{"phi": list(range(nA)), "gamma": _gf_gamma(c)}],
             }),
             _const(2 * nA)),
        _cli(program, f"umap:{tag}", ["umap", str(g), "--json"], 0,
             _equals({"command": "umap", "u": minimal, "R0": [_bits(t) for t in c.theta]}),
             _const(nA)),
        _cli(program, f"equiv:{tag}", ["equiv", str(g), str(b), "--json"], 0,
             _equals({"command": "equiv", "witness": {"phi": [x for _, x in c.labels], "gamma": minimal}}),
             _const(nA + nB)),
    ]


def finite_large(program, seed: int, workdir: Path, size: dict) -> list[Command]:
    rng = Random(f"finite-large:{seed}")
    n = size["large_discrete_points"]
    discrete = carrier_of(n, list(range(1 << n)))
    uneven = _preorder_carrier(
        rng, size["large_preorder_points"], 0.08, size["large_preorder_elements"], size["large_preorder_pairs"]
    )
    return _pipeline(program, discrete, "discrete", workdir) + _pipeline(program, uneven, "preorder", workdir)


def _fiber_minimum(nB: int, p, R):
    u = []
    for x in range(nB):
        fiber = [a for a in range(len(p)) if p[a] == x]
        meet = -1
        for a in fiber:
            meet &= R[a]
        least = next((a for a in fiber if R[a] == meet), None)
        if least is None:
            return None
        u.append(least)
    return u


def _preimage(f: list[int], u: int) -> int:
    return sum(1 << y for y, fy in enumerate(f) if u >> fy & 1)


def _continuous_map(rng: Random, src: Carrier, dst: Carrier) -> list[int]:
    opens = set(src.opens)
    for _ in range(50):
        f = [rng.randrange(dst.nB) for _ in range(src.nB)]
        if all(_preimage(f, u) in opens for u in dst.opens):
            return f
    return [rng.randrange(dst.nB)] * src.nB  # constant maps are continuous


def _lift(f: list[int], src: Carrier, dst: Carrier) -> dict:
    """Lifting of ``f`` to the carriers: ((U', x'), y) goes to (f^-1 U', y)."""
    fstar = [
        [i, y, src.index[_preimage(f, u), y]]
        for i, (u, x) in enumerate(dst.labels)
        for y in range(src.nB)
        if f[y] == x
    ]
    return {"f": list(f), "fstar": fstar}


def finite_many(program, seed: int, workdir: Path, size: dict) -> list[Command]:
    rng = Random(f"finite-many:{seed}")
    cmds = []
    for k in range(size["many_carriers"]):
        X, w = program.random_spatial_preorder(rng.randrange(10**6))
        path = workdir / f"spatial-{k}.json"
        _write(path, program.preorder_to_json(X, w))
        u = _fiber_minimum(X.nB, X.p, X.R)
        umap = (
            {"command": "umap", "u": None, "R0": None} if u is None
            else {"command": "umap", "u": u, "R0": [_bits(X.R[a]) for a in u]}
        )
        opens = union_closure(X.R)
        cmds += [
            _cli(program, f"check:{k}", ["check", str(path), "--json"], 0,
                 _equals({"axioms": "F1-F6", "command": "check", "passed": True, "violations": []}),
                 _const(1)),
            _cli(program, f"to-top:{k}", ["to-top", str(path), "--json"], 0,
                 _equals({"nB": X.nB, "opens": [_bits(o) for o in opens]}), _const(1)),
            _cli(program, f"umap:{k}", ["umap", str(path), "--json"], 0 if u is not None else 1,
                 _equals(umap), _const(1)),
        ]
    n = size["many_all_n"]
    count = TOPOLOGY_COUNTS[n]
    cmds.append(_cli(
        program, "roundtrip-fg", ["roundtrip", "--mode", "fg", "--all-n", str(n), "--json"], 0,
        _equals({"checked": count, "command": "roundtrip", "failures": [], "mode": "fg"}),
        _const(count),
    ))
    k, s = size["many_gf_random"], rng.randrange(10**6)
    cmds.append(_cli(
        program, "roundtrip-gf-random",
        ["roundtrip", "--mode", "gf", "--random", str(k), "--seed", str(s), "--json"], 0,
        _equals({"checked": k, "command": "roundtrip", "mode": "gf", "seed": s, "witnesses": k}),
        _const(k),
    ))

    def enum_check(obj, text):
        tops = obj.get("topologies", [])
        distinct = {json.dumps(t, sort_keys=True) for t in tops}
        if obj.get("count") != count or len(tops) != count or len(distinct) != count:
            return f"expected {count} distinct topologies"
        return None

    cmds.append(_cli(program, "enum-top", ["enum-top", str(n), "--json"], 0, enum_check, _const(count)))
    for k in range(size["many_compose"]):
        spaces = []
        for _ in range(3):
            nB = rng.randint(1, 3)
            spaces.append(carrier_of(nB, alexandrov_opens(random_preorder(rng, nB, 0.4))))
        f = _continuous_map(rng, spaces[0], spaces[1])
        g = _continuous_map(rng, spaces[1], spaces[2])
        paths = [workdir / f"compose-{k}-{name}.json" for name in ("X", "Y", "Z", "f", "g")]
        for path, obj in zip(paths, [c.obj for c in spaces] + [_lift(f, spaces[0], spaces[1]), _lift(g, spaces[1], spaces[2])]):
            _write(path, obj)
        expected = _lift([g[y] for y in f], spaces[0], spaces[2])
        cmds.append(_cli(program, f"compose:{k}", ["compose", *map(str, paths)], 0,
                         _equals(expected), _const(1)))
    return cmds


def _serialized_sample(program, make_oracle, name: str, rounds: int, seed: int):
    """The ``sample --json --verbose`` report of a mutant, built by a library call."""

    def run():
        rep = program.sample_check(make_oracle(), rounds, seed, verbose=True)
        obj = {"command": "sample", "instance": name, "samples": rounds, "seed": seed, **rep.to_json()}
        print(json.dumps(obj, sort_keys=True))
        return 0 if rep.passed else 1

    return run


def _caught(axioms: set[str], seed: int):
    def check(obj, text):
        found = obj.get("violations", [])
        if obj.get("passed") is not False or not found:
            return "the mutant was not caught"
        if any(v["axiom"] not in axioms or v["witness"].get("seed") != seed for v in found):
            return "a witness names another axiom or seed"
        return None

    return check


def _corrupt(rng: Random, c: Carrier, count: int):
    """Redirect refinements of non-full neighborhoods to the full-set element
    over the same point, which breaks F3 and nothing else."""
    full = (1 << c.nB) - 1
    eligible = [(a, y) for a, (u, _) in enumerate(c.labels) if u != full for y in _bits(u)]
    pairs = sorted(rng.sample(eligible, min(count, len(eligible))))
    obj = dict(c.obj)
    targets = {pair: c.index[full, pair[1]] for pair in pairs}
    obj["d"] = [[a, y, targets.get((a, y), t)] for a, y, t in c.obj["d"]]
    witnesses = [
        {"axiom": "F3", "witness": [a, y, _bits(full & ~c.labels[a][0])[0]]}
        for a, y in pairs
    ]
    return obj, witnesses


def violations(program, seed: int, workdir: Path, size: dict) -> list[Command]:
    rng = Random(f"violations:{seed}")
    cmds = []
    for name, make, rounds in (
        ("broken-metric-q", lambda: program.broken_metric_q(), size["broken_metric_rounds"]),
        ("broken-padic:3", lambda: program.broken_padic(3), size["broken_padic_rounds"]),
    ):
        s = rng.randrange(10**6)
        cmds.append(Command(
            f"mutant:{name}", _serialized_sample(program, make, name, rounds, s), 1,
            _caught({"F1", "F2", "F3", "F4", "F5", "F6"}, s), _violation_count, rounds, name,
        ))
    rounds, s = size["modulus_bad_rounds"], rng.randrange(10**6)
    cmds.append(_cli(
        program, "modulus-check:q-double-bad",
        ["modulus-check", "q-double-bad", "--samples", str(rounds), "--seed", str(s), "--verbose", "--json"],
        1, _caught({"M2"}, s), _violation_count, rounds, "q-double-bad",
    ))
    for k in range(size["corrupt_carriers"]):
        c = _preorder_carrier(rng, 6, 0.15, (96, 108), (0, 10_000))
        obj, witnesses = _corrupt(rng, c, 3)
        path = workdir / f"corrupt-{k}.json"
        _write(path, obj)
        first = witnesses[:1]
        cmds += [
            _cli(program, f"check-verbose:{k}", ["check", str(path), "--verbose", "--json"], 1,
                 _equals({"axioms": "F1-F6", "command": "check", "passed": False, "violations": witnesses}),
                 _violation_count),
            _cli(program, f"to-top:{k}", ["to-top", str(path), "--json"], 1,
                 _equals({"command": "to-top", "passed": False, "violations": first}), _violation_count),
            _cli(program, f"roundtrip-gf:{k}", ["roundtrip", "--mode", "gf", str(path), "--json"], 1,
                 _equals({"command": "roundtrip", "mode": "gf", "passed": False, "violations": first}),
                 _violation_count),
        ]
    return cmds


BUILDERS = {
    "lazy-sample": lazy_sample,
    "finite-large": finite_large,
    "finite-many": finite_many,
    "violations": violations,
}
