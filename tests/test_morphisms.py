import random
from collections import defaultdict
from itertools import product

import pytest

from fibrous import (
    FibrousMorphism,
    FiniteTopology,
    StructureError,
    compose,
    enumerate_topologies,
    equivalent,
    functor_G_mor,
    functor_G_obj,
    identity_morphism,
    morphism_from_json,
    morphism_to_json,
    verify_morphism,
)
from fibrous.functors import NotContinuousError

SIERPINSKI = FiniteTopology(2, (0, 2, 3))
DISCRETE2 = FiniteTopology(2, (0, 1, 2, 3))
GS = functor_G_obj(SIERPINSKI)
GD = functor_G_obj(DISCRETE2)
CONST1 = functor_G_mor((1, 1), GS, GS)


def test_identity_passes_everywhere():
    for n in (1, 2, 3):
        for T in enumerate_topologies(n):
            gi = functor_G_obj(T)
            ident = identity_morphism(gi.X)
            assert verify_morphism(gi.X, gi.X, ident).passed


def test_identity_lifting_is_the_element_itself():
    ident = identity_morphism(GS.X)
    assert ident.fstar == {(a, GS.X.p[a]): a for a in range(3)}


def test_g_image_of_constant_map_passes():
    assert verify_morphism(GS.X, GS.X, CONST1).passed
    # lifting of the small open over its point recenters the full preimage
    small = GS.index[(2, 1)]
    full0 = GS.index[(3, 0)]
    full1 = GS.index[(3, 1)]
    assert CONST1.fstar[(small, 0)] == full0
    assert CONST1.fstar[(small, 1)] == full1


def test_deliberately_bad_lifting_fails_condition_two():
    f = (0, 1)
    mor = functor_G_mor(f, GD, GS)
    assert verify_morphism(GD.X, GS.X, mor).passed
    small = GS.index[(2, 1)]
    bad_table = dict(mor.fstar)
    bad_table[(small, 1)] = GD.index[(3, 1)]  # neighborhood {0,1} escapes f^-1({1})
    bad = FibrousMorphism(f, bad_table)
    rep = verify_morphism(GD.X, GS.X, bad)
    assert ("M2", (small, 1, 0)) in rep.violations


def test_lifting_domain_mismatch_is_structural():
    table = dict(CONST1.fstar)
    table.popitem()
    with pytest.raises(StructureError):
        verify_morphism(GS.X, GS.X, FibrousMorphism(CONST1.f, table))
    nA = GS.X.nA
    assert GS.X.p[1] != CONST1.f[0]
    # a key off the fiber product, an out-of-range value, an element index nA
    for key, t in (((1, 0), 0), ((0, 0), nA), ((nA, 0), 0)):
        table = {**CONST1.fstar, key: t}
        with pytest.raises(StructureError):
            verify_morphism(GS.X, GS.X, FibrousMorphism(CONST1.f, table))


def test_condition_one_violation():
    # reroute one lifting to an element over the wrong point
    small = GS.index[(2, 1)]
    table = dict(CONST1.fstar)
    table[(small, 0)] = GS.index[(3, 1)]
    rep = verify_morphism(GS.X, GS.X, FibrousMorphism(CONST1.f, table))
    assert ("M1", (small, 0)) in rep.violations


def test_compose_with_identity_is_equivalent():
    ident = identity_morphism(GS.X)
    left = compose(GS.X, GS.X, GS.X, ident, CONST1)
    right = compose(GS.X, GS.X, GS.X, CONST1, ident)
    assert equivalent(left, CONST1)
    assert equivalent(right, CONST1)


def test_compose_matches_g_of_composite():
    comp = compose(GS.X, GS.X, GS.X, CONST1, CONST1)
    direct = functor_G_mor((1, 1), GS, GS)
    assert equivalent(comp, direct)
    assert verify_morphism(GS.X, GS.X, comp).passed


def test_equivalent_ignores_liftings():
    small = GS.index[(2, 1)]
    alt = dict(CONST1.fstar)
    alt[(small, 1)] = GS.index[(2, 1)]  # N = {1} also maps into {1}
    other = FibrousMorphism(CONST1.f, alt)
    assert verify_morphism(GS.X, GS.X, other).passed
    assert other.fstar != CONST1.fstar
    assert equivalent(CONST1, other)
    assert not equivalent(CONST1, identity_morphism(GS.X))


def test_equivalent_requires_parallel():
    one = identity_morphism(functor_G_obj(FiniteTopology(1, (0, 1))).X)
    with pytest.raises(ValueError):
        equivalent(one, CONST1)


def _continuous_morphisms(max_points):
    tops = []
    for n in range(1, max_points + 1):
        tops += enumerate_topologies(n)
    gis = [functor_G_obj(T) for T in tops]
    out = []
    for i, T in enumerate(tops):
        for j, Tp in enumerate(tops):
            for f in product(range(Tp.nB), repeat=T.nB):
                try:
                    m = functor_G_mor(f, gis[i], gis[j])
                except NotContinuousError:
                    continue
                out.append((i, j, m))
    return tops, gis, out


def test_composition_preserves_validity_exhaustive_on_two_points():
    tops, gis, morphisms = _continuous_morphisms(2)
    by_src = defaultdict(list)
    for i, j, m in morphisms:
        by_src[i].append((i, j, m))
    checked = 0
    for i, j, m1 in morphisms:
        for _, k, m2 in by_src[j]:
            comp = compose(gis[i].X, gis[j].X, gis[k].X, m1, m2)
            assert verify_morphism(gis[i].X, gis[k].X, comp).passed
            checked += 1
    assert checked > 100


def test_associativity_of_point_maps():
    tops, gis, morphisms = _continuous_morphisms(3)
    by_src = defaultdict(list)
    for i, j, m in morphisms:
        by_src[i].append((i, j, m))
    rng = random.Random(0)
    for _ in range(400):
        i, j, m1 = rng.choice(morphisms)
        if not by_src[j]:
            continue
        _, k, m2 = rng.choice(by_src[j])
        if not by_src[k]:
            continue
        _, l, m3 = rng.choice(by_src[k])
        a = compose(
            gis[i].X, gis[k].X, gis[l].X, compose(gis[i].X, gis[j].X, gis[k].X, m1, m2), m3
        )
        b = compose(
            gis[i].X, gis[j].X, gis[l].X, m1, compose(gis[j].X, gis[k].X, gis[l].X, m2, m3)
        )
        assert a.f == b.f


def test_json_roundtrip():
    obj = morphism_to_json(CONST1)
    back = morphism_from_json(obj)
    assert back == CONST1
