"""Command-line front end: load structures, run checks and conversions.

Exit status: 0 on success, 1 when a report contains a violation or a
searched-for witness is absent, 2 on usage or format errors.  With --json
the report is a single JSON object with sorted keys, byte-identical across
runs for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from itertools import chain, islice

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
    NotATopologyError,
    _check_meet_table,
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
from .morphisms import (
    FIRST,
    SECOND,
    compose,
    morphism_from_json,
    morphism_to_json,
    verify_morphism,
)
from .report import FormatError, jsonable, violation_line
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
    """Argument type for counts of samples, instances and points, and for
    seeds."""
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


def _load_spatial(path: str):
    """Carrier and spatial witness of a preorder file that must have one."""
    X, w = preorder_from_json(_load_json(path))
    if w is None:
        raise FormatError('a spatial witness ("s" and "m") is required')
    return X, w


def _emit(args, code: int, obj, prose) -> int:
    """Print ``obj`` as JSON with --json, else the ``prose`` lines, and
    return ``code``.  ``prose`` is iterated only without --json, so a
    generator keeps costly lines unbuilt."""
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in prose:
            print(line)
    return code


def _violation_lines(rep):
    """One indented line per violation of ``rep``, each built when read."""
    return (f"  {violation_line(tag, witness)}" for tag, witness in rep.violations)


def _verdict(args, command: str, rep, head: list[str], **fields) -> int:
    """Emit the axiom report ``rep``: the ``head`` lines, then one line per
    violation; exit 0 if it passed, 1 if not."""
    obj = {"command": command, **fields, **rep.to_json()}
    code = EXIT_OK if rep.passed else EXIT_VIOLATION
    return _emit(args, code, obj, chain(head, _violation_lines(rep)))


def _cmd_check(args) -> int:
    X, w = preorder_from_json(_load_json(args.input))
    rep = check_axioms(X, w, verbose=args.verbose)
    span = "F1-F6" if w is not None else "F1-F3"
    verdict = f"{span}: {'pass' if rep.passed else 'fail'}"
    return _verdict(args, "check", rep, [verdict], axioms=span)


def _cmd_to_top(args) -> int:
    X, w = _load_spatial(args.input)
    rep = check_axioms(X, w, verbose=args.verbose)
    if not rep.passed:
        return _verdict(args, "to-top", rep, ["F1-F6: fail"])
    T = functor_F_obj(X)
    prose = [f"topology on {T.nB} points, {len(T.opens)} open sets:"]
    prose += [f"  {to_points(u)}" for u in T.opens]
    return _emit(args, EXIT_OK, topology_to_json(T), prose)


def _cmd_from_top(args) -> int:
    T = topology_from_json(_load_json(args.input))
    # the witness's bound needs only T: test it before the pairwise check
    _check_meet_table(T)
    try:
        gi = functor_G_obj(T)
    except NotATopologyError as exc:
        # the report keeps one witness per axiom; --verbose asks for all
        rep = validate_topology(T, verbose=True) if args.verbose else exc.report
        return _verdict(args, "from-top", rep, ["topology axioms: fail"])
    payload = preorder_to_json(gi.X, gi.w)
    if args.json:
        return _emit(args, EXIT_OK, payload, ())
    # an indent runs the pure-Python encoder, which would join every chunk
    # before printing: write its chunks in blocks instead
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    write = sys.stdout.write
    while block := "".join(islice(chunks, 1 << 14)):
        write(block)
    write("\n")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    wit = find_equivalence(_load_carrier(args.first), _load_carrier(args.second))
    if wit is None:
        obj = {"command": "equiv", "witness": None}
        return _emit(args, EXIT_VIOLATION, obj, ["no equivalence witness exists"])
    phi, gamma = list(wit.phi), list(wit.gamma)
    obj = {"command": "equiv", "witness": {"phi": phi, "gamma": gamma}}
    return _emit(args, EXIT_OK, obj, [f"phi: {phi}", f"gamma: {gamma}"])


def _cmd_umap(args) -> int:
    X = _load_carrier(args.input)
    rep = check_axioms(X, verbose=args.verbose)
    if not rep.passed:
        return _verdict(args, "umap", rep, ["F1-F3: fail"])
    res = find_umap(X)
    if res is None:
        obj = {"command": "umap", "u": None, "R0": None}
        return _emit(args, EXIT_VIOLATION, obj, ["no fiber-minimum section exists"])
    u, R0 = list(res[0]), [to_points(row) for row in res[1]]
    prose = [f"u: {u}"] + [f"R0[{x}]: {row}" for x, row in enumerate(R0)]
    return _emit(args, EXIT_OK, {"command": "umap", "u": u, "R0": R0}, prose)


def _cmd_compose(args) -> int:
    Xa = _load_carrier(args.source)
    Xb = _load_carrier(args.middle)
    Xc = _load_carrier(args.target)
    m1 = morphism_from_json(_load_json(args.first))
    m2 = morphism_from_json(_load_json(args.second))
    rep1 = verify_morphism(Xa, Xb, m1, verbose=args.verbose, owner=FIRST)
    rep2 = verify_morphism(Xb, Xc, m2, verbose=args.verbose, owner=SECOND)
    if not (rep1.passed and rep2.passed):
        first, second = rep1.to_json(), rep2.to_json()
        obj = {"command": "compose", "passed": False, "first": first, "second": second}
        head = ["input morphisms fail verification"]
        prose = chain(head, _violation_lines(rep1), _violation_lines(rep2))
        return _emit(args, EXIT_VIOLATION, obj, prose)
    payload = morphism_to_json(compose(Xa, Xb, Xc, m1, m2))
    return _emit(args, EXIT_OK, payload, (json.dumps(p, sort_keys=True) for p in [payload]))


def _cmd_roundtrip(args) -> int:
    fg = args.mode == "fg"
    flag, source = ("--all-n", args.all_n) if fg else ("--random", args.random)
    for name in ("random", "seed") if fg else ("all_n",):
        if getattr(args, name) is not None:
            other = "gf" if fg else "fg"
            raise FormatError(f"--{name.replace('_', '-')} applies to {other} mode only")
    if args.input is not None and source is not None:
        raise FormatError(f"{args.mode} mode takes an input file or {flag}, not both")
    if not args.input and source is None:
        raise FormatError(f"{args.mode} mode needs an input file or {flag}")
    if fg:
        if source is None:
            tops = [topology_from_json(_load_json(args.input))]
        else:
            tops = enumerate_topologies(source)
        failures = []
        for i, T in enumerate(tops):
            rep = roundtrip_FG(T)
            if not rep.passed:
                failures.append({"instance": i, **rep.to_json()})
        obj = {"command": "roundtrip", "mode": "fg", "checked": len(tops), "failures": failures}
        prose = [f"fg round-trip: {len(tops)} instance(s), {len(failures)} failure(s)"]
        return _emit(args, EXIT_VIOLATION if failures else EXIT_OK, obj, prose)
    seed = 0 if args.seed is None else args.seed
    if source is None:
        X, w = _load_spatial(args.input)
        rep = check_axioms(X, w, verbose=args.verbose)
        if not rep.passed:
            return _verdict(args, "roundtrip", rep, ["F1-F6: fail"], mode="gf")
        carriers = [X]
    else:
        carriers = [random_spatial_preorder(seed + i)[0] for i in range(source)]
    witnesses = []
    for X in carriers:
        wit = roundtrip_GF(X)
        witnesses.append({"phi": list(wit.phi), "gamma": list(wit.gamma)})
    obj = {
        "command": "roundtrip",
        "mode": "gf",
        "seed": seed,
        "checked": len(carriers),
        "witnesses": witnesses if source is None else len(witnesses),
    }
    prose = [f"seed: {seed}", f"gf round-trip: {len(carriers)} verified witness(es)"]
    return _emit(args, EXIT_OK, obj, prose)


def _cmd_enum_top(args) -> int:
    tops = enumerate_topologies(args.n)
    obj = {"command": "enum-top", "n": args.n, "count": len(tops)}
    if args.json:
        point_lists = [to_points(u) for u in range(1 << args.n)]
        obj["topologies"] = [topology_to_json(T, point_lists.__getitem__) for T in tops]
    head = [f"{len(tops)} topologies on {args.n} points"]
    rows = ("  " + " ".join(str(to_points(u)) for u in T.opens) for T in tops)
    return _emit(args, EXIT_OK, obj, chain(head, rows if args.verbose else ()))


def _cmd_sample(args) -> int:
    oracle = named_instance(args.instance)
    rep = sample_check(oracle, args.samples, args.seed, verbose=args.verbose)
    outcome = "no violations" if rep.passed else "violations found"
    head = [f"instance: {args.instance}", f"seed: {args.seed}"]
    head.append(f"{outcome} in {args.samples} samples")
    code = _verdict(
        args, "sample", rep, head, instance=args.instance, samples=args.samples, seed=args.seed
    )
    if not rep.passed and args.witness_out:
        replay = {"seed": args.seed, "witness": jsonable(rep.violations[0][1])}
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            json.dump(replay, fh, sort_keys=True)
            fh.write("\n")
    return code


def _cmd_modulus_check(args) -> int:
    mor = named_modulus(args.name)
    rep = check_modulus(mor, args.samples, args.seed, verbose=args.verbose)
    head = [f"modulus: {args.name}", f"seed: {args.seed}"]
    head.append(f"no counterexamples in {args.samples} samples" if rep.passed else "modulus falsified")
    return _verdict(
        args, "modulus-check", rep, head, name=args.name, samples=args.samples, seed=args.seed
    )


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
    s.add_argument("--all-n", type=_count, help="fg: run on every topology with this many points")
    s.add_argument("--random", type=_count, help="gf: run on this many seeded random instances")
    s.add_argument("--seed", type=_count)
    s.set_defaults(handler=_cmd_roundtrip)

    s = sub.add_parser("enum-top", parents=[common], help="enumerate all topologies on n points")
    s.add_argument("n", type=_count)
    s.set_defaults(handler=_cmd_enum_top)

    s = sub.add_parser("sample", parents=[common], help="sampled axiom check of a lazy instance")
    s.add_argument("instance", help="one of: " + ", ".join(INSTANCE_NAMES))
    s.add_argument("--samples", type=_count, default=10000)
    s.add_argument("--seed", type=_count, default=0)
    s.add_argument("--witness-out", help="write a {seed, witness} replay file on failure")
    s.set_defaults(handler=_cmd_sample)

    s = sub.add_parser("modulus-check", parents=[common], help="sampled check of a continuity modulus")
    s.add_argument("name", help="one of: " + ", ".join(MODULUS_NAMES))
    s.add_argument("--samples", type=_count, default=10000)
    s.add_argument("--seed", type=_count, default=0)
    s.set_defaults(handler=_cmd_modulus_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # The finite commands build large acyclic tables and the package makes
    # no reference cycles, so the cyclic collector would only rescan live
    # objects: pause it while the command runs.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


def script_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_main()
