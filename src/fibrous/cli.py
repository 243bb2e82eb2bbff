"""Command-line front end: load structures, run checks and conversions.

Exit status: 0 on success, 1 when a report contains a violation or a
searched-for witness is absent, 2 on usage or format errors.  With --json
the report is a single JSON object with sorted keys, byte-identical across
runs for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import (
    check_axioms,
    find_equivalence,
    find_umap,
    preorder_from_json,
    preorder_to_json,
    validate_witness,
)
from .bitsets import to_points
from .functors import (
    functor_F_obj,
    functor_G_obj,
    random_spatial_preorder,
    roundtrip_FG,
    roundtrip_GF,
)
from .lazy import (
    INSTANCE_NAMES,
    MODULUS_NAMES,
    check_modulus,
    named_instance,
    named_modulus,
    sample_check,
)
from .morphisms import compose, morphism_from_json, morphism_to_json, verify_morphism
from .report import FormatError, StructureError, jsonable
from .topology import (
    enumerate_topologies,
    topology_from_json,
    topology_to_json,
    validate_topology,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _count(text: str) -> int:
    """Argument type for sample and instance counts."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


def _load_carrier(path: str):
    """Carrier of a preorder file for the commands that do not use its
    spatial witness; a witness that is present must still be valid."""
    X, w = preorder_from_json(_load_json(path))
    if w is not None:
        validate_witness(X, w)
    return X


def _emit(args, obj: dict, prose: list[str]) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in prose:
            print(line)


def _violation_lines(report_json: dict) -> list[str]:
    return [
        f"  {v['axiom']}: witness {json.dumps(v['witness'], sort_keys=True)}"
        for v in report_json["violations"]
    ]


def _cmd_check(args) -> int:
    X, w = preorder_from_json(_load_json(args.input))
    rep = check_axioms(X, w, verbose=args.verbose)
    span = "F1-F6" if w is not None else "F1-F3"
    obj = {"command": "check", "axioms": span, **rep.to_json()}
    prose = [f"{span}: {'pass' if rep.passed else 'fail'}"]
    prose += _violation_lines(obj)
    _emit(args, obj, prose)
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def _cmd_to_top(args) -> int:
    X, w = preorder_from_json(_load_json(args.input))
    if w is None:
        raise FormatError('a spatial witness ("s" and "m") is required')
    rep = check_axioms(X, w, verbose=args.verbose)
    if not rep.passed:
        obj = {"command": "to-top", **rep.to_json()}
        _emit(args, obj, ["F1-F6: fail"] + _violation_lines(obj))
        return EXIT_VIOLATION
    T = functor_F_obj(X, w, algorithm=args.algorithm, brute_limit=args.brute_limit)
    if args.json:
        print(json.dumps(topology_to_json(T), sort_keys=True))
    else:
        print(f"topology on {T.nB} points, {len(T.opens)} open sets:")
        for u in T.opens:
            print(f"  {to_points(u)}")
    return EXIT_OK


def _cmd_from_top(args) -> int:
    T = topology_from_json(_load_json(args.input))
    rep = validate_topology(T, verbose=args.verbose)
    if not rep.passed:
        obj = {"command": "from-top", **rep.to_json()}
        _emit(args, obj, ["topology axioms: fail"] + _violation_lines(obj))
        return EXIT_VIOLATION
    gi = functor_G_obj(T)
    payload = preorder_to_json(gi.X, gi.w)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    XA = _load_carrier(args.first)
    XB = _load_carrier(args.second)
    wit = find_equivalence(XA, XB)
    if wit is None:
        _emit(
            args,
            {"command": "equiv", "witness": None},
            ["no equivalence witness exists"],
        )
        return EXIT_VIOLATION
    obj = {
        "command": "equiv",
        "witness": {"phi": list(wit.phi), "gamma": list(wit.gamma)},
    }
    _emit(args, obj, [f"phi: {list(wit.phi)}", f"gamma: {list(wit.gamma)}"])
    return EXIT_OK


def _cmd_umap(args) -> int:
    X = _load_carrier(args.input)
    rep = check_axioms(X, verbose=args.verbose)
    if not rep.passed:
        obj = {"command": "umap", **rep.to_json()}
        _emit(args, obj, ["F1-F3: fail"] + _violation_lines(obj))
        return EXIT_VIOLATION
    res = find_umap(X)
    if res is None:
        _emit(
            args,
            {"command": "umap", "u": None, "R0": None},
            ["no fiber-minimum section exists"],
        )
        return EXIT_VIOLATION
    u, R0 = res
    obj = {"command": "umap", "u": list(u), "R0": [to_points(row) for row in R0]}
    _emit(
        args,
        obj,
        [f"u: {list(u)}"] + [f"R0[{x}]: {to_points(row)}" for x, row in enumerate(R0)],
    )
    return EXIT_OK


def _cmd_compose(args) -> int:
    Xa = _load_carrier(args.source)
    Xb = _load_carrier(args.middle)
    Xc = _load_carrier(args.target)
    m1 = morphism_from_json(_load_json(args.first))
    m2 = morphism_from_json(_load_json(args.second))
    rep1 = verify_morphism(Xa, Xb, m1, verbose=args.verbose)
    rep2 = verify_morphism(Xb, Xc, m2, verbose=args.verbose)
    if not (rep1.passed and rep2.passed):
        obj = {
            "command": "compose",
            "passed": False,
            "first": rep1.to_json(),
            "second": rep2.to_json(),
        }
        _emit(
            args,
            obj,
            ["input morphisms fail verification"]
            + _violation_lines(rep1.to_json())
            + _violation_lines(rep2.to_json()),
        )
        return EXIT_VIOLATION
    comp = compose(Xa, Xb, Xc, m1, m2)
    payload = morphism_to_json(comp)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    failures = []
    checked = 0
    if args.mode == "fg":
        if args.random is not None:
            raise FormatError("--random applies to gf mode only")
        if args.input is not None and args.all_n is not None:
            raise FormatError("fg mode takes an input file or --all-n, not both")
        if args.all_n is not None:
            instances = enumerate_topologies(args.all_n)
        elif args.input:
            instances = [topology_from_json(_load_json(args.input))]
        else:
            raise FormatError("fg mode needs an input file or --all-n")
        for i, T in enumerate(instances):
            rep = roundtrip_FG(T, algorithm=args.algorithm)
            checked += 1
            if not rep.passed:
                failures.append({"instance": i, **rep.to_json()})
        obj = {
            "command": "roundtrip",
            "mode": "fg",
            "checked": checked,
            "failures": failures,
        }
        _emit(
            args,
            obj,
            [f"fg round-trip: {checked} instance(s), {len(failures)} failure(s)"],
        )
        return EXIT_OK if not failures else EXIT_VIOLATION
    # gf mode
    if args.all_n is not None:
        raise FormatError("--all-n applies to fg mode only")
    if args.input is not None and args.random is not None:
        raise FormatError("gf mode takes an input file or --random, not both")
    pairs = []
    if args.input:
        X, w = preorder_from_json(_load_json(args.input))
        if w is None:
            raise FormatError('a spatial witness ("s" and "m") is required')
        rep = check_axioms(X, w)
        if not rep.passed:
            obj = {"command": "roundtrip", "mode": "gf", **rep.to_json()}
            _emit(args, obj, ["F1-F6: fail"] + _violation_lines(obj))
            return EXIT_VIOLATION
        pairs.append((X, w))
    elif args.random is not None:
        pairs = [random_spatial_preorder(args.seed + i) for i in range(args.random)]
    else:
        raise FormatError("gf mode needs an input file or --random")
    witnesses = []
    for X, w in pairs:
        wit = roundtrip_GF(X, w)
        checked += 1
        witnesses.append({"phi": list(wit.phi), "gamma": list(wit.gamma)})
    obj = {
        "command": "roundtrip",
        "mode": "gf",
        "seed": args.seed,
        "checked": checked,
        "witnesses": witnesses if args.input else len(witnesses),
    }
    prose = [f"seed: {args.seed}", f"gf round-trip: {checked} verified witness(es)"]
    _emit(args, obj, prose)
    return EXIT_OK


def _cmd_enum_top(args) -> int:
    tops = enumerate_topologies(args.n)
    obj = {
        "command": "enum-top",
        "n": args.n,
        "count": len(tops),
        "topologies": [topology_to_json(T) for T in tops],
    }
    prose = [f"{len(tops)} topologies on {args.n} points"]
    if args.verbose:
        prose += [
            "  " + " ".join(str(to_points(u)) for u in T.opens) for T in tops
        ]
    _emit(args, obj, prose)
    return EXIT_OK


def _cmd_sample(args) -> int:
    oracle = named_instance(args.instance)
    rep = sample_check(oracle, args.samples, args.seed, verbose=args.verbose)
    obj = {
        "command": "sample",
        "instance": args.instance,
        "samples": args.samples,
        "seed": args.seed,
        **rep.to_json(),
    }
    prose = [f"instance: {args.instance}", f"seed: {args.seed}"]
    if rep.passed:
        prose.append(f"no violations in {args.samples} samples")
    else:
        prose.append(f"violations found in {args.samples} samples")
        prose += _violation_lines(obj)
    _emit(args, obj, prose)
    if not rep.passed and args.witness_out:
        replay = {"seed": args.seed, "witness": jsonable(rep.violations[0][1])}
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            json.dump(replay, fh, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def _cmd_modulus_check(args) -> int:
    mor = named_modulus(args.name)
    rep = check_modulus(mor, args.samples, args.seed, verbose=args.verbose)
    obj = {
        "command": "modulus-check",
        "name": args.name,
        "samples": args.samples,
        "seed": args.seed,
        **rep.to_json(),
    }
    prose = [f"modulus: {args.name}", f"seed: {args.seed}"]
    if rep.passed:
        prose.append(f"no counterexamples in {args.samples} samples")
    else:
        prose.append("modulus falsified")
        prose += _violation_lines(obj)
    _emit(args, obj, prose)
    return EXIT_OK if rep.passed else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    :func:`main` call in the process; parsing keeps no state in it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--verbose", action="store_true", help="report every witness, not one per axiom"
    )
    parser = argparse.ArgumentParser(
        prog="fibrous",
        description="Finite fibrous preorders, finite topologies and their conversions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", parents=[common], help="check F1-F3 (and F4-F6) on a JSON instance")
    s.add_argument("input", help="instance file, or - for stdin")
    s.set_defaults(handler=_cmd_check)

    s = sub.add_parser("to-top", parents=[common], help="induced topology of a spatial instance")
    s.add_argument("input")
    s.add_argument("--algorithm", choices=("union-closure", "brute"), default="union-closure")
    s.add_argument("--brute-limit", type=int, default=20, help="point limit for the brute algorithm")
    s.set_defaults(handler=_cmd_to_top)

    s = sub.add_parser("from-top", parents=[common], help="carrier of (open set, point) pairs of a topology")
    s.add_argument("input")
    s.set_defaults(handler=_cmd_from_top)

    s = sub.add_parser("equiv", parents=[common], help="search for an equivalence witness")
    s.add_argument("first")
    s.add_argument("second")
    s.set_defaults(handler=_cmd_equiv)

    s = sub.add_parser("umap", parents=[common], help="search for a fiber-minimum section")
    s.add_argument("input")
    s.set_defaults(handler=_cmd_umap)

    s = sub.add_parser("compose", parents=[common], help="compose two verified morphisms")
    s.add_argument("source")
    s.add_argument("middle")
    s.add_argument("target")
    s.add_argument("first")
    s.add_argument("second")
    s.set_defaults(handler=_cmd_compose)

    s = sub.add_parser("roundtrip", parents=[common], help="verify the fg or gf round trip")
    s.add_argument("input", nargs="?", help="instance file (topology for fg, spatial instance for gf)")
    s.add_argument("--mode", choices=("fg", "gf"), required=True)
    s.add_argument("--all-n", type=int, help="fg: run on every topology with this many points")
    s.add_argument("--random", type=_count, help="gf: run on this many seeded random instances")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--algorithm", choices=("union-closure", "brute"), default="union-closure")
    s.set_defaults(handler=_cmd_roundtrip)

    s = sub.add_parser("enum-top", parents=[common], help="enumerate all topologies on n points")
    s.add_argument("n", type=int)
    s.set_defaults(handler=_cmd_enum_top)

    s = sub.add_parser("sample", parents=[common], help="sampled axiom check of a lazy instance")
    s.add_argument("instance", help="one of: " + ", ".join(INSTANCE_NAMES))
    s.add_argument("--samples", type=_count, default=10000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--witness-out", help="write a {seed, witness} replay file on failure")
    s.set_defaults(handler=_cmd_sample)

    s = sub.add_parser("modulus-check", parents=[common], help="sampled check of a continuity modulus")
    s.add_argument("name", help="one of: " + ", ".join(MODULUS_NAMES))
    s.add_argument("--samples", type=_count, default=10000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(handler=_cmd_modulus_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (FormatError, StructureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def script_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_main()
