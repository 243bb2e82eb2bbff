import hashlib
import json
from dataclasses import fields
from itertools import product

import pytest

from fibrous import (
    FinFibrousPreorder,
    FinNeighborhoods,
    FiniteTopology,
    SpatialWitness,
    check_axioms,
    enumerate_topologies,
    find_umap,
    functor_F_obj,
    functor_F_obj_brute,
    functor_G_mor,
    functor_G_obj,
    morphism_to_json,
    preorder_to_json,
    random_spatial_preorder,
    roundtrip_FG,
    roundtrip_GF,
    specialization,
    verify_equivalence,
    verify_morphism,
)
from fibrous import functors
from fibrous.bitsets import bits, is_subset
from fibrous.functors import BRUTE_LIMIT, NotATopologyError, NotContinuousError
from fibrous.report import AxiomReport, StructureError

SIERPINSKI = FiniteTopology(2, (0, 2, 3))


def test_g_on_one_point_space():
    gi = functor_G_obj(FiniteTopology(1, (0, 1)))
    assert gi.X.nA == 1 and gi.X.p == (0,) and gi.X.R == (1,)
    assert gi.w.s == (0,) and gi.w.m == {(0, 0): 0}


def test_g_sierpinski_structure():
    gi = functor_G_obj(SIERPINSKI)
    assert gi.T == SIERPINSKI
    # the record is the neighborhood part plus T; X and w are built on read
    assert [f.name for f in fields(gi)] == ["nB", "nA", "p", "R", "T"]
    assert isinstance(gi, FinNeighborhoods) and not isinstance(gi, FinFibrousPreorder)
    assert [gi.element(u, x) for u, x in ((2, 1), (3, 0), (3, 1))] == [0, 1, 2]
    assert gi.X.p == (1, 0, 1)
    assert gi.X.R == (2, 3, 3)
    assert gi.X.d[(1, 1)] == 2  # refining (full, 0) at point 1 gives (full, 1)
    assert gi.w.s == (1, 2)  # (full, 0) and (full, 1)
    assert gi.w.m[(0, 2)] == 0  # {1} & {0,1} = {1} over point 1


def test_g_rejects_invalid_family():
    with pytest.raises(ValueError):
        functor_G_obj(FiniteTopology(2, (0, 1, 2)))


def _g_witness_by_definition(gi, index):
    """The section picks ``(full set, x)``; the meet of ``(U, x)`` and
    ``(V, x)`` is ``(U & V, x)``, looked up in ``index``, a dict from each
    (open set, point) pair to its element."""
    X = gi.X
    full = (1 << X.nB) - 1
    s = tuple(index[(full, x)] for x in range(X.nB))
    m = {
        (i, j): index[(X.R[i] & X.R[j], x)]
        for x, fiber in enumerate(X.fibers)
        for i in fiber
        for j in fiber
    }
    return SpatialWitness(s, m)


def discrete(n):
    return FiniteTopology(n, tuple(range(1 << n)))


def test_g_image_tables_are_bounded(monkeypatch):
    # the 7-point discrete topology: 448 elements over 7 points, 28,672 meets
    T = discrete(7)
    monkeypatch.setattr(functors, "MAX_G_TABLE", 448 * 7)
    assert functor_G_obj(T).X.nA == 448
    monkeypatch.setattr(functors, "MAX_G_TABLE", 448 * 7 - 1)
    with pytest.raises(ValueError) as exc:
        functor_G_obj(T)
    assert str(exc.value) == (
        "the G-image's refinement table would have up to 3136 entries, above MAX_G_TABLE = 3135"
    )
    monkeypatch.setattr(functors, "MAX_G_TABLE", 28_672)
    assert len(functor_G_obj(T).w.m) == 28_672
    monkeypatch.setattr(functors, "MAX_G_TABLE", 28_671)
    with pytest.raises(ValueError) as exc:
        functor_G_obj(T).w
    assert str(exc.value) == (
        "the G-image's meet table would have 28672 entries, above MAX_G_TABLE = 28671"
    )


def test_g_image_size_is_refused_before_the_topology_is_checked(monkeypatch):
    # 16,384 opens: checking them pairwise would take tens of seconds
    def unreachable(T, verbose=False):
        raise AssertionError("validate_topology ran")

    monkeypatch.setattr(functors, "validate_topology", unreachable)
    with pytest.raises(ValueError) as exc:
        functor_G_obj(discrete(14))
    assert str(exc.value) == (
        "the G-image's refinement table would have up to 1605632 entries, above MAX_G_TABLE = 1048576"
    )


def test_meet_table_bound_is_read_from_the_topology(monkeypatch):
    # the bound computed from T alone is the size of the witness's meet table
    for n in range(5):
        for T in enumerate_topologies(n):
            size = len(functor_G_obj(T).w.m)
            monkeypatch.setattr(functors, "MAX_G_TABLE", size)
            functors._check_meet_table(T)
            monkeypatch.setattr(functors, "MAX_G_TABLE", size - 1)
            with pytest.raises(ValueError, match=f" would have {size} entries,"):
                functors._check_meet_table(T)
            monkeypatch.undo()


def test_g_images_pass_axioms_on_all_small_topologies():
    for n in range(5):
        for T in enumerate_topologies(n):
            gi = functor_G_obj(T)
            X = gi.X
            # elements are the (open set, point) pairs in order, and element
            # finds each; the refinement of ((U, x), y) is (U, y) by definition
            pairs = list(zip(X.R, X.p))
            assert pairs == [(u, x) for u in T.opens for x in bits(u)]
            assert [gi.element(u, x) for u, x in pairs] == list(range(X.nA))
            index = {pair: a for a, pair in enumerate(pairs)}
            ref_d = {(i, y): index[(X.R[i], y)] for i in range(X.nA) for y in bits(X.R[i])}
            # the carrier built on first read equals an eager build, and is kept
            eager = FinFibrousPreorder(T.nB, len(pairs), gi.p, gi.R, ref_d)
            assert X == eager and list(X.d) == list(ref_d)
            assert gi.X is X
            ref = _g_witness_by_definition(gi, index)
            # same tables, same insertion order, built once
            assert gi.w == ref and list(gi.w.m) == list(ref.m)
            assert gi.w is gi.w
            assert check_axioms(gi.X, gi.w).passed


def test_g_image_rows_pass_the_checked_constructor():
    # GImage(T) reads its rows off the topology without the FinNeighborhoods
    # checks; the checked constructors must accept every one of them unchanged
    tops = [T for n in range(5) for T in enumerate_topologies(n)] + [discrete(7)]
    tops += [functor_F_obj(random_spatial_preorder(seed)[0]) for seed in range(50)]
    for T in tops:
        gi = functor_G_obj(T)
        assert type(gi.p) is tuple and type(gi.R) is tuple
        N = FinNeighborhoods(gi.nB, gi.nA, gi.p, gi.R)
        assert (N.nB, N.nA, N.p, N.R) == (gi.nB, gi.nA, gi.p, gi.R)
        assert (gi.X.nB, gi.X.nA, gi.X.p, gi.X.R) == (gi.nB, gi.nA, gi.p, gi.R)
        assert functors.GImage(T) == gi
    # a G-image is made from its topology alone: no rows can contradict it
    with pytest.raises(TypeError):
        functors.GImage(2, 1, (0,), (0b100,), SIERPINSKI)
    with pytest.raises(NotATopologyError, match="not a topology: empty"):
        functors.GImage(FiniteTopology(2, (1, 3)))


def test_round_trips_never_build_a_witness(monkeypatch):
    def unbuilt(self):
        raise AssertionError("the G-image witness was built")

    monkeypatch.setattr(functors.GImage, "w", property(unbuilt))
    for n in range(5):
        for T in enumerate_topologies(n):
            assert roundtrip_FG(T).passed
    for seed in range(20):
        X, _ = random_spatial_preorder(seed)
        roundtrip_GF(X)
    gis = [functor_G_obj(T) for T in enumerate_topologies(2)]
    for gi in gis:
        for gip in gis:
            for f in ((0, 0), (0, 1), (1, 0), (1, 1)):
                try:
                    mor = functor_G_mor(f, gi, gip)
                except NotContinuousError:
                    continue
                assert verify_morphism(gi.X, gip.X, mor).passed


def test_round_trips_never_build_a_refinement_table(monkeypatch):
    randoms = [random_spatial_preorder(seed)[0] for seed in range(40)]
    gis = [functor_G_obj(T) for n in range(4) for T in enumerate_topologies(n)]

    def unbuilt(self):
        raise AssertionError("a FinFibrousPreorder was built")

    monkeypatch.setattr(FinFibrousPreorder, "__post_init__", unbuilt)
    # gi.X is made with core.built, which runs no __post_init__
    monkeypatch.setattr(functors.GImage, "X", property(unbuilt))
    for n in range(5):
        for T in enumerate_topologies(n):
            assert roundtrip_FG(T).passed
    for X in randoms:
        roundtrip_GF(X)
    for gi in gis:
        for gip in gis:
            for f in product(range(gip.T.nB), repeat=gi.T.nB):
                try:
                    functor_G_mor(f, gi, gip)
                except NotContinuousError:
                    pass
    assert all("X" not in vars(gi) for gi in gis)


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


@pytest.mark.parametrize(
    "f, message",
    [((0,), "f has 1 entries, expected 2"), ((0, 5), "f[1]=5 out of range")],
    ids=["short", "out-of-range"],
)
def test_g_mor_rejects_a_map_that_does_not_fit(f, message):
    gi = functor_G_obj(SIERPINSKI)
    with pytest.raises(StructureError) as exc:
        functor_G_mor(f, gi, gi)
    assert str(exc.value) == message


def test_g_mor_matches_continuity_by_definition():
    # the continuity check must reject exactly the maps with a bad preimage
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


def test_a_passing_fg_report_keeps_no_state_from_a_failing_one(monkeypatch):
    chain = FiniteTopology(3, (0b000, 0b001, 0b011, 0b111))
    true_f = functors.functor_F_obj
    monkeypatch.setattr(
        functors, "functor_F_obj",
        lambda X: FiniteTopology(X.nB, true_f(X).opens[:-1]),
    )
    assert not roundtrip_FG(chain).passed
    monkeypatch.undo()
    for T in (chain, SIERPINSKI, chain):
        rep = roundtrip_FG(T)
        assert rep == AxiomReport() and rep.passed
        assert rep.to_json() == {"passed": True, "violations": []}


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


@pytest.mark.parametrize(
    "p, R, error, message",
    [
        ((0, 0), (0b001, 0b110), StructureError,
         "element 1 is outside its own neighborhood; input violates F2"),
        # the neighborhoods do not cover the points, so F2 must be checked
        # before G rejects F(X) as no topology
        ((0,), (0b010,), StructureError,
         "element 0 is outside its own neighborhood; input violates F2"),
        ((0,), (0b111,), StructureError,
         "no element fits an open set; input violates F1-F6"),
        ((0,), (0b001,), NotATopologyError, "input family is not a topology: "),
    ],
    ids=["F2", "F2-not-a-topology", "no-fit", "not-a-topology"],
)
def test_roundtrip_gf_rejects_a_carrier_off_the_axioms(p, R, error, message):
    d = {(a, y): 0 for a, u in enumerate(R) for y in bits(u)}
    with pytest.raises(error) as exc:
        roundtrip_GF(FinFibrousPreorder(3, len(p), p, R, d))
    assert type(exc.value) is error and str(exc.value).startswith(message)


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


# one sha256 over the JSON of seeds 0-999 at three sizes: any change to the
# generator's draws, or to the order of its rng calls, changes it
RANDOM_DRAWS_SHA256 = "b92e8cbf22d237a7672d47690122dbbdf10c7a570a42f6360d6eb934a70ccf4c"


def test_random_generator_refuses_negative_seeds():
    with pytest.raises(ValueError, match="^seed must be non-negative, got -3$"):
        random_spatial_preorder(-3)


def test_random_generator_draws_are_pinned():
    h = hashlib.sha256()
    for size in ((), (3, 8), (6, 20)):
        for seed in range(1000):
            X, w = random_spatial_preorder(seed, *size)
            h.update(json.dumps(preorder_to_json(X, w), sort_keys=True).encode())
    assert h.hexdigest() == RANDOM_DRAWS_SHA256


# one sha256 over G on morphisms and the gf round trip: the JSON of
# functor_G_mor (or the open set NotContinuousError names) for every point map
# between topologies on 0-3 points, then the (phi, gamma) of roundtrip_GF on
# every G-image on 0-4 points and on the random carriers pinned above
G_OUTPUTS_SHA256 = "72992590aad6c421c826de9840df9ba8988fc0dd2c16b4b195f5bbe7a0a0be04"


def test_g_outputs_are_pinned():
    h = hashlib.sha256()
    small = [functor_G_obj(T) for n in range(4) for T in enumerate_topologies(n)]
    for gi in small:
        for gj in small:
            for f in product(range(gj.T.nB), repeat=gi.T.nB):
                try:
                    out = morphism_to_json(functor_G_mor(f, gi, gj))
                except NotContinuousError as exc:
                    out = exc.witness_open
                h.update(json.dumps(out).encode())
    carriers = [functor_G_obj(T).X for n in range(5) for T in enumerate_topologies(n)]
    for size in ((), (3, 8), (6, 20)):
        carriers += [random_spatial_preorder(seed, *size)[0] for seed in range(1000)]
    for X in carriers:
        wit = roundtrip_GF(X)
        h.update(json.dumps([wit.phi, wit.gamma]).encode())
    assert h.hexdigest() == G_OUTPUTS_SHA256
