import random
from dataclasses import fields

import pytest

from fibrous import (
    FinNeighborhoods,
    FiniteTopology,
    GImage,
    enumerate_topologies,
    enumerate_topologies_brute,
    enumerate_topologies_closure,
    specialization,
    topology_from_json,
    topology_to_json,
    union_closure,
    validate_topology,
)
from fibrous.bitsets import bits
from fibrous.report import Collector
from fibrous.functors import functor_F_obj, functor_G_obj, random_spatial_preorder
from fibrous.topology import MAX_OPENS, TOPOLOGY_COUNTS, meet_closure

SIERPINSKI = FiniteTopology(2, (0, 2, 3))


def test_validate_trivial_families():
    assert validate_topology(FiniteTopology(2, (0, 3))).passed
    assert validate_topology(FiniteTopology(2, (0, 1, 2, 3))).passed
    assert validate_topology(FiniteTopology(0, (0,))).passed


def test_validate_reports_missing_sets():
    rep = validate_topology(FiniteTopology(2, (0, 1, 2)))
    tags = {tag for tag, _ in rep.violations}
    assert "full" in tags and "union" in tags
    witnesses = dict(rep.violations)
    assert witnesses["union"] == ([0], [1])


def test_validate_reports_missing_empty_and_intersection():
    rep = validate_topology(FiniteTopology(2, (1, 2, 3)))
    tags = {tag for tag, _ in rep.violations}
    assert "empty" in tags and "intersection" in tags


def _ref_validate_topology(T, verbose):
    """The pair walk: each unordered pair of opens in order, union before
    intersection on one pair."""
    members, full = set(T.opens), (1 << T.nB) - 1
    col = Collector(verbose)
    if 0 not in members:
        col.add("empty", ())
    if full not in members:
        col.add("full", (list(bits(full)),))
    for i, u in enumerate(T.opens):
        for v in T.opens[i:]:
            if u | v not in members:
                col.add("union", (list(bits(u)), list(bits(v))))
            if u & v not in members:
                col.add("intersection", (list(bits(u)), list(bits(v))))
    return col.report()


@pytest.mark.parametrize("verbose", (False, True))
def test_validate_matches_the_pair_walk(verbose):
    for n in range(4):
        for fam in range(1 << (1 << n)):
            T = FiniteTopology(n, tuple(s for s in range(1 << n) if fam >> s & 1))
            assert validate_topology(T, verbose) == _ref_validate_topology(T, verbose)


def test_validate_names_a_late_first_union_quickly():
    """3,930 opens on 128 points whose first failing pair is the 3,930th:
    the report keeps one witness, found without walking the pairs."""
    pairs = [1 << x | 1 << y for x in range(1, 128) for y in range(x + 1, 128)][:3800]
    T = FiniteTopology(128, (0, (1 << 128) - 1, *(1 << x for x in range(128)), *pairs))
    assert len(T.opens) == 3930
    assert validate_topology(T).violations == (("union", ([0], [1])),)


def test_opens_are_canonicalized():
    T = FiniteTopology(2, (3, 0, 2, 2))
    assert T.opens == (0, 2, 3)
    assert T == SIERPINSKI


@pytest.mark.parametrize("args, message", [
    ((-1, (0, 9)), "point count must be non-negative"),
    ((2, (0, 8, 3, 5)), "open set 0b1000 has bits outside the base set"),
    ((2, (0, 3, -1, 4)), "open set -0b1 has bits outside the base set"),
    ((2, (0, 4, -1)), "open set 0b100 has bits outside the base set"),
    ((0, (0, 1)), "open set 0b1 has bits outside the base set"),
])
def test_topology_constructor_messages(args, message):
    with pytest.raises(ValueError) as exc:
        FiniteTopology(*args)
    assert str(exc.value) == message


def _validate_by_definition(T):
    """Every ordered pair with ``u <= v``, as in the definition."""
    members = set(T.opens)
    found = []
    if 0 not in members:
        found.append(("empty", ()))
    full = (1 << T.nB) - 1
    if full not in members:
        found.append(("full", (bits(full),)))
    for u in T.opens:
        for v in T.opens:
            if v < u:
                continue
            if u | v not in members:
                found.append(("union", (bits(u), bits(v))))
            if u & v not in members:
                found.append(("intersection", (bits(u), bits(v))))
    return [(tag, tuple(map(list, wit))) for tag, wit in found]


def _first_per_tag(found):
    """The non-verbose report: the first witness of each tag, in order."""
    first = {}
    for tag, wit in found:
        first.setdefault(tag, wit)
    return list(first.items())


def _near_misses(T):
    """``T`` with one open removed, and ``T`` with one non-open added."""
    opens = set(T.opens)
    for u in T.opens:
        yield opens - {u}
    for s in range(1 << T.nB):
        if s not in opens:
            yield opens | {s}


def _random_families(rng, n):
    """A random family, its topology, and that topology one open short or
    one set over."""
    full = (1 << n) - 1
    fam = set(rng.sample(range(full + 1), rng.randint(0, min(full + 1, 24))))
    yield fam
    closed = set(union_closure(meet_closure(fam | {0, full})))
    yield closed
    yield closed - {rng.choice(sorted(closed))}
    yield closed | {rng.randrange(full + 1)}


def _families_beyond_three_points():
    for T in enumerate_topologies(4):
        for fam in _near_misses(T):
            yield 4, fam
    rng = random.Random(0)
    for n in range(4, 8):
        for _ in range(40):
            for fam in _random_families(rng, n):
                yield n, fam


def test_validate_walks_every_pair_in_definition_order():
    for n in range(4):
        for fam in range(1 << (1 << n)):
            T = FiniteTopology(n, tuple(s for s in range(1 << n) if fam >> s & 1))
            rep = validate_topology(T, verbose=True)
            assert list(rep.violations) == _validate_by_definition(T)
    # the passing decision skips the pair walk, so near-misses matter most
    passed = failed = 0
    for n, fam in _families_beyond_three_points():
        T = FiniteTopology(n, tuple(fam))
        want = _validate_by_definition(T)
        assert list(validate_topology(T, verbose=True).violations) == want
        assert list(validate_topology(T).violations) == _first_per_tag(want)
        passed += not want
        failed += bool(want)
    assert passed > 1000 and failed > 1000


def test_specialization_sierpinski():
    theta, leq = specialization(SIERPINSKI)
    assert theta == (3, 2)
    assert leq == frozenset({(0, 0), (0, 1), (1, 1)})


def test_specialization_discrete_and_indiscrete():
    _, leq = specialization(FiniteTopology(2, (0, 1, 2, 3)))
    assert leq == frozenset({(0, 0), (1, 1)})
    _, leq = specialization(FiniteTopology(2, (0, 3)))
    assert leq == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})


def test_union_closure():
    assert union_closure([]) == (0,)
    assert union_closure([2, 3]) == (0, 2, 3)
    assert union_closure([1, 2]) == (0, 1, 2, 3)


def test_union_closure_is_bounded():
    # n singletons close to all 2**n subsets
    n = MAX_OPENS.bit_length() - 1
    assert len(union_closure([1 << x for x in range(n)])) == MAX_OPENS
    with pytest.raises(ValueError) as exc:
        union_closure([1 << x for x in range(26)])
    assert str(exc.value) == f"the union closure has more than MAX_OPENS = {MAX_OPENS} open sets"


def test_meet_closure():
    assert meet_closure([]) == ()
    assert meet_closure([0b011, 0b110]) == (0b010, 0b011, 0b110)
    assert meet_closure([0b001, 0b010, 0b111]) == (0, 0b001, 0b010, 0b111)


def _union_closure_reference(masks):
    closed = {0}
    for m in set(masks):
        closed |= {c | m for c in closed}
    return tuple(sorted(closed))


def _meet_closure_reference(masks):
    closed = set()
    for m in set(masks):
        closed |= {c & m for c in closed} | {m}
    return tuple(sorted(closed))


def test_closures_match_the_reference_and_ascend():
    rng = random.Random(0)
    for n in range(9):
        full = (1 << n) - 1
        for _ in range(60):
            masks = [rng.randrange(full + 1) for _ in range(rng.randint(0, 12))]
            masks += rng.choices(masks, k=rng.randint(0, 3)) if masks else []
            masks += rng.choice([[], [0], [full], [0, full], [full, 0, full]])
            rng.shuffle(masks)
            for closure, reference in (
                (union_closure, _union_closure_reference),
                (meet_closure, _meet_closure_reference),
            ):
                got = closure(masks)
                assert got == reference(masks)
                # strictly ascending: functor_F_obj wraps the union closure
                # with core.built, which does not sort it
                assert all(a < b for a, b in zip(got, got[1:]))


def test_generators_agree_up_to_three_points():
    for n in range(4):
        brute = enumerate_topologies_brute(n)
        closure = enumerate_topologies_closure(n)
        assert brute == closure
        assert enumerate_topologies(n) == brute
        assert len(brute) == TOPOLOGY_COUNTS[n]
    # the brute filter stops at 3 points; the closure generator reaches 4
    assert enumerate_topologies(4) == enumerate_topologies_closure(4)


def test_preorder_generator_order_and_six_point_count():
    for n in (5, 6):
        tops = enumerate_topologies(n)
        # strictly increasing opens: sorted and pairwise distinct
        assert all(a.opens < b.opens for a, b in zip(tops, tops[1:]))
        assert len(tops) == TOPOLOGY_COUNTS[n]
    assert TOPOLOGY_COUNTS[6] == 209527


def test_random_subfamily_closure_generator_agrees():
    # independent random check: close seeded random subfamilies under union
    # and intersection until fixpoint; 2000 draws cover every topology on
    # <= 3 points (hit latest at draw 157 for n=3 with this seed)
    import random

    def close(fam, n):
        full = (1 << n) - 1
        fam = set(fam) | {0, full}
        while True:
            new = {u | v for u in fam for v in fam}
            new |= {u & v for u in fam for v in fam}
            if new <= fam:
                return tuple(sorted(fam))
            fam |= new

    for n in (1, 2, 3):
        expected = {T.opens for T in enumerate_topologies(n)}
        rng = random.Random(0)
        seen = set()
        for _ in range(2000):
            fam = rng.sample(range(1 << n), rng.randint(0, 1 << n))
            seen.add(close(fam, n))
        assert seen == expected


def test_built_values_equal_their_checked_constructors():
    # core.built and GImage(T) skip the FinNeighborhoods checks; each value
    # the package builds that way must pass them and come out equal, so no
    # list stands in for a tuple and no open set is out of range, out of
    # order or repeated
    def canonical(obj):
        return type(obj)(**{f.name: getattr(obj, f.name) for f in fields(obj)}) == obj

    for n in range(7):
        assert all(map(canonical, enumerate_topologies(n)))
    discrete7 = FiniteTopology(7, tuple(range(1 << 7)))
    for T in [T for n in range(5) for T in enumerate_topologies(n)] + [discrete7]:
        gi = functor_G_obj(T)
        back = functor_F_obj(gi)
        # GImage takes the topology alone; its rows go to FinNeighborhoods
        assert GImage(gi.T) == gi
        rows = FinNeighborhoods(gi.nB, gi.nA, gi.p, gi.R)
        assert (rows.nB, rows.nA, rows.p, rows.R) == (gi.nB, gi.nA, gi.p, gi.R)
        assert canonical(gi.X) and canonical(back) and back == T
    for seed in range(200):
        X, _ = random_spatial_preorder(seed)
        assert canonical(X) and canonical(functor_F_obj(X))


def test_four_point_count_matches_preorder_count():
    tops = enumerate_topologies_closure(4)
    assert len(tops) == TOPOLOGY_COUNTS[4]
    # independent oracle: reflexive transitive relations on 4 points
    n = 4
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for assign in range(1 << len(offdiag)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if assign >> k & 1:
                rel[i][j] = True
        if all(
            not (rel[i][j] and rel[j][k]) or rel[i][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            count += 1
    assert count == len(tops)


def test_enumeration_guards():
    with pytest.raises(ValueError, match="at most 6 points"):
        enumerate_topologies(7)
    with pytest.raises(ValueError):
        enumerate_topologies_brute(4)
    with pytest.raises(ValueError):
        enumerate_topologies_closure(5)


def test_enumerated_topologies_all_validate():
    for n in range(6):
        for T in enumerate_topologies(n):
            assert validate_topology(T).passed


def test_specialization_preorder_properties():
    for n in range(4):
        for T in enumerate_topologies(n):
            theta, leq = specialization(T)
            opens = set(T.opens)
            for x in range(n):
                assert theta[x] in opens
                assert (x, x) in leq
            for x, y in leq:
                for z in bits(theta[y]):
                    assert (x, z) in leq


def test_t0_iff_no_distinct_mutually_related_pair():
    for n in range(4):
        for T in enumerate_topologies(n):
            _, leq = specialization(T)
            has_cycle = any(
                x != y and (x, y) in leq and (y, x) in leq
                for x in range(n)
                for y in range(n)
            )
            # T0: some open separates every distinct pair
            t0 = all(
                any((u >> x & 1) != (u >> y & 1) for u in T.opens)
                for x in range(n)
                for y in range(n)
                if x != y
            )
            assert has_cycle == (not t0)


def test_json_roundtrip():
    obj = topology_to_json(SIERPINSKI)
    assert obj == {"nB": 2, "opens": [[], [1], [0, 1]]}
    assert topology_from_json(obj) == SIERPINSKI
