"""Pinned CLI outputs: one sha256 over the exit code and stdout of a fixed
command set, run in-process through ``cli.main``.

A change that must keep every output byte-identical keeps this digest.  A
change that alters an output on purpose records the new digest and names the
output in CHANGES.md.  The finite commands run on the G-images of every
topology on 0-3 points and on seeded ``random_spatial_preorder`` carriers,
each as given and with a few refinement, section, meet and lifting values
replaced by other in-range elements, so every verifier reports violations
as well as passes.
"""

import hashlib
import json
from random import Random

from fibrous import (
    NotContinuousError,
    enumerate_topologies,
    functor_G_mor,
    functor_G_obj,
    identity_morphism,
    morphism_to_json,
    preorder_to_json,
    random_spatial_preorder,
)
from fibrous.cli import main
from fibrous.lazy import INSTANCE_NAMES, MODULUS_NAMES

PINNED = "6eada848426bf7b3760c1c5862df88d6e93f8fcc63e1a46328481abf3405b137"

RANDOM_SEEDS = range(40)
LAZY_SEEDS = range(3)
LAZY_ROUNDS = "200"
# every shipped instance, with a parameter where the name takes one
INSTANCES = tuple(name.replace("<p>", "3").replace("<d>", "2") for name in INSTANCE_NAMES)


def _spatial_carriers():
    """(label, carrier, spatial witness) for every input carrier."""
    for n in range(4):
        for i, T in enumerate(enumerate_topologies(n)):
            gi = functor_G_obj(T)
            yield f"g{n}-{i}", gi.X, gi.w
    for seed in RANDOM_SEEDS:
        yield f"r{seed}", *random_spatial_preorder(seed)


def _corrupt_rows(rows, n_values, rng, k=3):
    """Replace the values of up to ``k`` of the ``[x, y, value]`` rows."""
    for row in rng.sample(rows, min(k, len(rows))):
        row[2] = rng.randrange(n_values)


def _corrupt_carrier(obj, rng):
    bad = json.loads(json.dumps(obj))
    _corrupt_rows(bad["d"], bad["nA"], rng)
    _corrupt_rows(bad["m"], bad["nA"], rng)
    s = bad["s"]
    for y in rng.sample(range(len(s)), min(2, len(s))):
        s[y] = rng.randrange(bad["nA"])
    return bad


def _morphism(rng, gi, gj):
    """A G-lifted continuous map from ``gi.T`` to ``gj.T``: a random point
    map if it is continuous, else a constant one."""
    f = [rng.randrange(gj.T.nB) for _ in range(gi.T.nB)]
    try:
        return functor_G_mor(f, gi, gj)
    except NotContinuousError:
        return functor_G_mor([0] * gi.T.nB, gi, gj)


def _commands(tmp_path):
    rng = Random(0)
    paths = {}

    def write(name, obj):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths[name] = str(path)

    by_base = {}
    for label, X, w in _spatial_carriers():
        obj = preorder_to_json(X, w)
        write(label, obj)
        write(f"{label}-bad", _corrupt_carrier(obj, rng))
        by_base.setdefault(X.nB, []).append(label)
    commands = []
    for labels in by_base.values():
        for label, mate in zip(labels, labels[1:] + labels[:1]):
            for name in (label, f"{label}-bad"):
                commands += [
                    ["check", name, "--json"],
                    ["check", name, "--json", "--verbose"],
                    ["to-top", name, "--json"],
                    ["umap", name, "--json", "--verbose"],
                    ["roundtrip", name, "--mode", "gf", "--json", "--verbose"],
                    ["equiv", name, mate, "--json"],
                ]
    g_images = [functor_G_obj(T) for n in range(1, 4) for T in enumerate_topologies(n)]
    for i, (gi, gj) in enumerate(zip(g_images, g_images[1:])):
        name = f"g-image{i}"
        write(name, preorder_to_json(gi.X))
        write(f"{name}-next", preorder_to_json(gj.X))
        write(f"{name}-id", morphism_to_json(identity_morphism(gi.X)))
        lift = morphism_to_json(_morphism(rng, gi, gj))
        write(f"{name}-f", lift)
        _corrupt_rows(lift["fstar"], gi.X.nA, rng)
        write(f"{name}-f-bad", lift)
        for m in ("f", "f-bad"):
            commands.append(
                ["compose", name, name, f"{name}-next", f"{name}-id", f"{name}-{m}",
                 "--json", "--verbose"]
            )
    for seed in LAZY_SEEDS:
        common = ["--samples", LAZY_ROUNDS, "--seed", str(seed), "--json", "--verbose"]
        commands += [["sample", inst, *common] for inst in INSTANCES]
        commands += [["modulus-check", name, *common] for name in MODULUS_NAMES]
    return [[paths.get(arg, arg) for arg in cmd] for cmd in commands], commands


def test_outputs_match_the_pinned_digest(tmp_path, capsys):
    argvs, labels = _commands(tmp_path)
    digest = hashlib.sha256()
    for argv, label in zip(argvs, labels):
        code = main(argv)
        out = capsys.readouterr().out
        digest.update(f"{' '.join(label)}\t{code}\n{out}".encode())
    assert digest.hexdigest() == PINNED
