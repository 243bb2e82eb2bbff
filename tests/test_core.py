import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrous import (
    EquivalenceWitness,
    FinFibrousPreorder,
    SpatialWitness,
    StructureError,
    check_axioms,
    enumerate_topologies,
    find_equivalence,
    find_umap,
    functor_G_obj,
    preorder_from_json,
    preorder_to_json,
    random_spatial_preorder,
    verify_equivalence,
)
from fibrous.bitsets import bits, to_points
from fibrous.topology import FiniteTopology

ONE_POINT = FinFibrousPreorder(1, 1, (0,), (1,), {(0, 0): 0})
SIERPINSKI = FiniteTopology(2, (0, 2, 3))
DISCRETE2 = FiniteTopology(2, (0, 1, 2, 3))
INDISCRETE2 = FiniteTopology(2, (0, 3))

# The order topology of 0 <= 1 presented on its own points (fibers are
# singletons, the refinement returns the target point's element).
ORDER01 = FinFibrousPreorder(
    2, 2, (0, 1), (3, 2), {(0, 0): 0, (0, 1): 1, (1, 1): 1}
)


def test_one_point_identity_passes():
    assert check_axioms(ONE_POINT).passed


def test_g_image_with_canonical_witness_passes():
    gi = functor_G_obj(SIERPINSKI)
    rep = check_axioms(gi.X, gi.w)
    assert rep.passed and rep.violations == ()


def test_corrupted_refinement_reports_f1_with_witness():
    gi = functor_G_obj(SIERPINSKI)
    # element 1 is the (full set, 0) pair; rerouting its refinement at point 1
    # back to itself breaks the projection condition
    bad = dict(gi.X.d)
    bad[(1, 1)] = 1
    X = FinFibrousPreorder(gi.X.nB, gi.X.nA, gi.X.p, gi.X.R, bad)
    rep = check_axioms(X)
    assert not rep.passed
    assert ("F1", (1, 1)) in rep.violations


def test_f3_violation_detected():
    # two elements over one point; refinement jumps to the bigger neighborhood
    X = FinFibrousPreorder(
        2, 2, (0, 0), (1, 3), {(0, 0): 1, (1, 0): 1, (1, 1): 1}
    )
    rep = check_axioms(X)
    assert ("F3", (0, 0, 1)) in rep.violations


def test_f2_violation_detected():
    with_hole = FinFibrousPreorder(2, 1, (0,), (2,), {(0, 1): 0})
    rep = check_axioms(with_hole)
    assert ("F2", (0,)) in rep.violations
    assert ("F1", (0, 1)) in rep.violations  # p(target)=0 != 1


def test_witness_axioms_f4_f5_f6():
    gi = functor_G_obj(SIERPINSKI)
    # break the section: point 0's element must project to 0
    bad_s = (0, 0)  # element 0 projects to 1
    rep = check_axioms(gi.X, SpatialWitness(bad_s, gi.w.m))
    assert ("F4", (0,)) in rep.violations
    # break a meet: send the (full,1)/(small,1) pair to the big element
    bad_m = dict(gi.w.m)
    bad_m[(0, 2)] = 2  # N = {0,1} not inside N(0) & N(2) = {1}
    rep = check_axioms(gi.X, SpatialWitness(gi.w.s, bad_m))
    assert ("F6", (0, 2, 0)) in rep.violations


def test_structural_errors_are_not_violations():
    with pytest.raises(StructureError):
        FinFibrousPreorder(1, 1, (0,), (1,), {})  # missing refinement entry
    with pytest.raises(StructureError):
        FinFibrousPreorder(1, 1, (0,), (1,), {(0, 0): 0, (0, 1): 0})  # extra
    with pytest.raises(StructureError):
        FinFibrousPreorder(1, 1, (1,), (1,), {(0, 0): 0})  # p out of range
    with pytest.raises(StructureError):
        FinFibrousPreorder(1, 1, (0,), (1,), {(0, 0): 1})  # d value out of range
    with pytest.raises(StructureError):
        FinFibrousPreorder(1, 1, (0,), (1,), {(0, 0): 0, (1, 0): 0})  # element nA
    gi = functor_G_obj(SIERPINSKI)
    with pytest.raises(StructureError):
        check_axioms(gi.X, SpatialWitness(gi.w.s, {}))  # meet table domain
    nA = gi.X.nA
    assert gi.X.p[0] != gi.X.p[1]
    # a cross-fiber key, an out-of-range value, an element index nA
    for key, t in (((0, 1), 0), ((0, 0), nA), ((nA, nA), 0)):
        with pytest.raises(StructureError):
            check_axioms(gi.X, SpatialWitness(gi.w.s, {**gi.w.m, key: t}))


def test_neighborhood_values():
    gi = functor_G_obj(SIERPINSKI)
    assert (gi.X.R[0], gi.X.p[0]) == (2, 1)
    assert to_points(gi.X.R[0]) == [1]
    assert to_points(ONE_POINT.R[0]) == [0]
    gi2 = functor_G_obj(INDISCRETE2)
    assert to_points(gi2.X.R[0]) == [0, 1]


def test_least_within_matches_its_definition():
    carriers = [functor_G_obj(T).X for n in range(4) for T in enumerate_topologies(n)]
    carriers += [random_spatial_preorder(seed)[0] for seed in range(100)]
    for X in carriers:
        for x in range(X.nB):
            for S in range(1 << X.nB):
                expected = min(
                    (a for a in range(X.nA) if X.p[a] == x and X.R[a] & ~S == 0),
                    default=None,
                )
                assert X.least_within(x, S) == expected


def test_find_equivalence_identity_on_self():
    for X in (ONE_POINT, functor_G_obj(SIERPINSKI).X, ORDER01):
        wit = find_equivalence(X, X)
        assert wit is not None
        assert wit.phi == tuple(range(X.nA)) == wit.gamma
        assert verify_equivalence(X, X, wit).passed


def test_find_equivalence_g_image_vs_order_presentation():
    gs = functor_G_obj(SIERPINSKI).X
    for a, b in ((gs, ORDER01), (ORDER01, gs)):
        wit = find_equivalence(a, b)
        assert wit is not None
        assert verify_equivalence(a, b, wit).passed


def test_find_equivalence_absent_for_discrete_vs_indiscrete():
    gd = functor_G_obj(DISCRETE2).X
    gi = functor_G_obj(INDISCRETE2).X
    assert find_equivalence(gd, gi) is None
    assert find_equivalence(gi, gd) is None


def test_find_equivalence_base_mismatch():
    with pytest.raises(ValueError):
        find_equivalence(ONE_POINT, ORDER01)


@pytest.mark.parametrize("phi, gamma, message", [
    ((0, 1), (0,), "phi has 2 entries, expected 1"),
    ((1,), (0,), "phi[0]=1 out of range"),
    ((0,), (), "gamma has 0 entries, expected 1"),
    ((0,), (-1,), "gamma[0]=-1 out of range"),
])
def test_equivalence_maps_must_be_total(phi, gamma, message):
    with pytest.raises(StructureError) as exc:
        verify_equivalence(ONE_POINT, ONE_POINT, EquivalenceWitness(phi, gamma))
    assert str(exc.value) == message


def test_find_umap_one_point():
    assert find_umap(ONE_POINT) == ((0,), (1,))


def test_find_umap_sierpinski_matches_specialization_order():
    gi = functor_G_obj(SIERPINSKI)
    u, R0 = find_umap(gi.X)
    assert u == (1, 0)
    assert R0 == (3, 2)  # rows {0,1} and {1}


# A fiber with two incomparable neighborhoods over point 0 and just enough
# elements over the other points to close the refinement table.
NO_MINIMUM = FinFibrousPreorder(
    3,
    4,
    (0, 0, 1, 2),
    (0b011, 0b101, 0b010, 0b100),
    {(0, 0): 0, (0, 1): 2, (1, 0): 1, (1, 2): 3, (2, 1): 2, (3, 2): 3},
)


def test_find_umap_absent_on_incomparable_fiber():
    assert check_axioms(NO_MINIMUM).passed
    assert find_umap(NO_MINIMUM) is None


def test_find_umap_absence_found_by_brute_force_search():
    # Search all neighborhood assignments over p = (0, 0, 1, 2) on 3 points,
    # closing the refinement table with least admissible targets.
    nB, nA = 3, 4
    p = (0, 0, 1, 2)
    per_elem = []
    for a in range(nA):
        per_elem.append(
            [m for m in range(1 << nB) if m >> p[a] & 1]
        )
    absent = []
    for r0 in per_elem[0]:
        for r1 in per_elem[1]:
            for r2 in per_elem[2]:
                for r3 in per_elem[3]:
                    R = (r0, r1, r2, r3)
                    d = {}
                    ok = True
                    for a in range(nA):
                        for b in bits(R[a]):
                            cand = [
                                t
                                for t in range(nA)
                                if p[t] == b and R[t] & ~R[a] == 0
                            ]
                            if not cand:
                                ok = False
                                break
                            d[(a, b)] = cand[0]
                        if not ok:
                            break
                    if not ok:
                        continue
                    X = FinFibrousPreorder(nB, nA, p, R, d)
                    assert check_axioms(X).passed
                    if find_umap(X) is None:
                        absent.append(R)
    assert absent  # incomparable fibers do occur
    assert NO_MINIMUM.R in absent


def test_umap_relation_is_reflexive_and_transitive():
    for seed in range(40):
        X, _ = random_spatial_preorder(seed)
        res = find_umap(X)
        if res is None:
            continue
        _, R0 = res
        for x in range(X.nB):
            assert R0[x] >> x & 1
            for y in bits(R0[x]):
                assert R0[y] & ~R0[x] == 0


def test_spatial_union_covers_base():
    for seed in range(25):
        X, w = random_spatial_preorder(seed)
        assert check_axioms(X, w).passed
        union = 0
        for y in range(X.nB):
            union |= X.R[w.s[y]]
        assert union == (1 << X.nB) - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_equivalence_success_is_symmetric(seed1, seed2):
    X, _ = random_spatial_preorder(seed1)
    Xp, _ = random_spatial_preorder(seed2)
    if X.nB != Xp.nB:
        return
    forward = find_equivalence(X, Xp)
    backward = find_equivalence(Xp, X)
    assert (forward is None) == (backward is None)
    if forward is not None:
        assert verify_equivalence(X, Xp, forward).passed
        assert verify_equivalence(Xp, X, backward).passed


def test_json_roundtrip():
    gi = functor_G_obj(SIERPINSKI)
    obj = preorder_to_json(gi.X, gi.w)
    X2, w2 = preorder_from_json(obj)
    assert X2 == gi.X and w2 == gi.w
    obj_plain = preorder_to_json(NO_MINIMUM)
    X3, w3 = preorder_from_json(obj_plain)
    assert X3 == NO_MINIMUM and w3 is None


def test_verbose_reports_every_witness():
    X = FinFibrousPreorder(
        2, 2, (0, 1), (3, 3), {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}
    )
    rep = check_axioms(X)  # (0,1)->0 and (1,0)->1 both break F1
    verbose = check_axioms(X, verbose=True)
    f1_default = [v for v in rep.violations if v[0] == "F1"]
    f1_verbose = [v for v in verbose.violations if v[0] == "F1"]
    assert len(f1_default) == 1
    assert len(f1_verbose) == 2
