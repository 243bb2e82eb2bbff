import pytest

from fibrous import (
    FinFibrousPreorder,
    FiniteTopology,
    SpatialWitness,
    check_axioms,
    enumerate_topologies,
    find_umap,
    functor_F_obj,
    functor_F_obj_brute,
    functor_G_mor,
    functor_G_obj,
    random_spatial_preorder,
    roundtrip_FG,
    roundtrip_GF,
    specialization,
    verify_equivalence,
)
from fibrous import functors
from fibrous.bitsets import bits, is_subset
from fibrous.functors import BRUTE_LIMIT, NotContinuousError

SIERPINSKI = FiniteTopology(2, (0, 2, 3))


def test_g_on_one_point_space():
    gi = functor_G_obj(FiniteTopology(1, (0, 1)))
    assert gi.X.nA == 1 and gi.X.p == (0,) and gi.X.R == (1,)
    assert gi.w.s == (0,) and gi.w.m == {(0, 0): 0}


def test_g_sierpinski_structure():
    gi = functor_G_obj(SIERPINSKI)
    assert gi.T == SIERPINSKI
    assert gi.index == {(2, 1): 0, (3, 0): 1, (3, 1): 2}
    assert gi.X.p == (1, 0, 1)
    assert gi.X.R == (2, 3, 3)
    assert gi.X.d[(1, 1)] == 2  # refining (full, 0) at point 1 gives (full, 1)
    assert gi.w.s == (1, 2)  # (full, 0) and (full, 1)
    assert gi.w.m[(0, 2)] == 0  # {1} & {0,1} = {1} over point 1


def test_g_rejects_invalid_family():
    with pytest.raises(ValueError):
        functor_G_obj(FiniteTopology(2, (0, 1, 2)))


def test_g_images_pass_axioms_on_all_small_topologies():
    for n in range(4):
        for T in enumerate_topologies(n):
            gi = functor_G_obj(T)
            assert check_axioms(gi.X, gi.w).passed


def test_g_mor_identity_equals_identity_morphism():
    from fibrous import identity_morphism

    gi = functor_G_obj(SIERPINSKI)
    mor = functor_G_mor((0, 1), gi, gi)
    assert mor == identity_morphism(gi.X)


def test_g_mor_rejects_non_continuous_with_witness():
    indiscrete = functor_G_obj(FiniteTopology(2, (0, 3)))
    discrete = functor_G_obj(FiniteTopology(2, (0, 1, 2, 3)))
    with pytest.raises(NotContinuousError) as exc:
        functor_G_mor((0, 1), indiscrete, discrete)
    assert exc.value.witness_open == [0]


def test_g_mor_matches_continuity_by_definition():
    # the continuity check must reject exactly the maps with a bad preimage
    from itertools import product

    gis = [functor_G_obj(T) for T in enumerate_topologies(2)]
    for gi in gis:
        for gip in gis:
            T, Tp = gi.T, gip.T
            for f in product(range(Tp.nB), repeat=T.nB):
                direct = all(
                    sum(1 << y for y in range(T.nB) if up >> f[y] & 1) in set(T.opens)
                    for up in Tp.opens
                )
                try:
                    functor_G_mor(f, gi, gip)
                    assert direct
                except NotContinuousError:
                    assert not direct


def test_f_on_g_image_recovers_sierpinski():
    gi = functor_G_obj(SIERPINSKI)
    assert functor_F_obj(gi.X) == SIERPINSKI


def test_f_on_one_point_identity():
    X = FinFibrousPreorder(1, 1, (0,), (1,), {(0, 0): 0})
    assert functor_F_obj(X) == FiniteTopology(1, (0, 1))


def test_f_on_order_presented_chain():
    # chain 0 <= 1 <= 2 presented on its own points: neighborhoods are the
    # up-sets, the induced opens are exactly the unions of up-sets
    R = (0b111, 0b110, 0b100)
    d = {(a, b): b for a in range(3) for b in bits(R[a])}
    X = FinFibrousPreorder(3, 3, (0, 1, 2), R, d)
    w = SpatialWitness((0, 1, 2), {(a, a): a for a in range(3)})
    assert check_axioms(X, w).passed
    T = functor_F_obj(X)
    assert T == FiniteTopology(3, (0, 0b100, 0b110, 0b111))


def test_f_brute_guard():
    # 21 points, each carrying one element whose neighborhood is the point
    n = BRUTE_LIMIT + 1
    X = FinFibrousPreorder(n, n, tuple(range(n)), tuple(1 << x for x in range(n)),
                           {(x, x): x for x in range(n)})
    w = SpatialWitness(tuple(range(n)), {(x, x): x for x in range(n)})
    assert check_axioms(X, w).passed
    with pytest.raises(ValueError, match="brute algorithm limited to 20 points"):
        functor_F_obj_brute(X)


def test_f_algorithms_agree():
    for n in range(4):
        for T in enumerate_topologies(n):
            gi = functor_G_obj(T)
            assert functor_F_obj_brute(gi.X) == functor_F_obj(gi.X)
    for seed in range(40):
        X, _ = random_spatial_preorder(seed)
        if X.nB <= 4:
            assert functor_F_obj_brute(X) == functor_F_obj(X)


def test_neighborhoods_satisfy_the_open_condition():
    # the lemma behind the union-closure algorithm, on random instances
    for seed in range(25):
        X, _ = random_spatial_preorder(seed)
        for a in range(X.nA):
            for y in bits(X.R[a]):
                t = X.d[(a, y)]
                assert X.p[t] == y
                assert is_subset(X.R[t], X.R[a])


def test_roundtrip_fg_small_and_discrete4():
    assert roundtrip_FG(SIERPINSKI).passed
    for n in range(4):
        for T in enumerate_topologies(n):
            assert roundtrip_FG(T).passed
    assert roundtrip_FG(FiniteTopology(4, tuple(range(16)))).passed


@pytest.mark.parametrize(
    "replace_open, missing, extra",
    [(None, [[0, 1]], []), (0b101, [[0, 1]], [[0, 2]])],
    ids=["dropped", "replaced"],
)
def test_roundtrip_fg_names_missing_and_extra_opens(
    monkeypatch, replace_open, missing, extra
):
    # F loses the open set {0, 1} of the chain 0 <= 1 <= 2, or swaps it for
    # the non-open {0, 2}
    chain = FiniteTopology(3, (0b000, 0b001, 0b011, 0b111))
    true_f = functors.functor_F_obj

    def lossy_f(X):
        opens = set(true_f(X).opens) - {0b011}
        if replace_open is not None:
            opens.add(replace_open)
        return FiniteTopology(X.nB, tuple(sorted(opens)))

    monkeypatch.setattr(functors, "functor_F_obj", lossy_f)
    rep = roundtrip_FG(chain)
    assert rep.violations == (("FG", {"missing": missing, "extra": extra}),)


def test_roundtrip_gf_one_point():
    X = FinFibrousPreorder(1, 1, (0,), (1,), {(0, 0): 0})
    wit = roundtrip_GF(X)
    assert wit.phi == (0,) and wit.gamma == (0,)


def test_roundtrip_gf_on_g_image_is_bijective():
    gi = functor_G_obj(SIERPINSKI)
    wit = roundtrip_GF(gi.X)
    assert sorted(wit.phi) == [0, 1, 2]
    gbar = functor_G_obj(functor_F_obj(gi.X))
    assert verify_equivalence(gi.X, gbar.X, wit).passed
    for a in range(gi.X.nA):
        # going around the loop stays in the fiber and refines the neighborhood
        back = wit.gamma[wit.phi[a]]
        assert gi.X.p[back] == gi.X.p[a]
        assert gi.X.R[back] & ~gi.X.R[a] == 0


def test_roundtrip_gf_random_instances():
    for seed in range(30):
        X, _ = random_spatial_preorder(seed)
        wit = roundtrip_GF(X)
        gbar = functor_G_obj(functor_F_obj(X))
        rep = verify_equivalence(X, gbar.X, wit)
        assert rep.passed


def test_umap_matches_specialization_on_g_images():
    for n in range(4):
        for T in enumerate_topologies(n):
            gi = functor_G_obj(T)
            res = find_umap(gi.X)
            assert res is not None
            _, R0 = res
            theta, leq = specialization(T)
            assert R0 == theta
            pairs = {(x, y) for x in range(T.nB) for y in bits(R0[x])}
            assert pairs == leq


def test_random_generator_is_deterministic_and_bounded():
    for seed in (0, 3, 11):
        a = random_spatial_preorder(seed)
        b = random_spatial_preorder(seed)
        assert a == b
    seen_duplicate_labels = False
    for seed in range(60):
        X, w = random_spatial_preorder(seed)
        assert 1 <= X.nB <= 5 and 1 <= X.nA <= 12
        if len(set(zip(X.R, X.p))) < X.nA:
            seen_duplicate_labels = True
    assert seen_duplicate_labels  # generator exercises non-injective carriers
