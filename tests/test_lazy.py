import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrous import (
    ModulusMorphism,
    Word,
    broken_metric_q,
    broken_padic,
    check_modulus,
    metric_q,
    mk_cantor,
    mk_padic,
    mk_tangent_disk,
    named_instance,
    named_modulus,
    natural_metric,
    indexed_metric,
    normed_q,
    sample_check,
)
from fibrous.lazy import (
    MODULUS_NAMES,
    _ball_index,
    _min_shrink,
    check_normed_conditions,
    norm_step_index,
)
from test_words import first_letters

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)

ALL_INSTANCES = [
    "metric-q",
    "metric-q2",
    "padic:2",
    "padic:3",
    "padic:5",
    "cantor",
    "tangent-disk",
    "tangent-disk:strict-paper",
    "normed-q:1",
    "normed-q:2",
    "indexed-metric",
    "natural-metric",
]


# -- metric ------------------------------------------------------------------

def test_metric_examples():
    o = metric_q()
    assert o.rel((1, F(0)), F(1, 2))
    assert o.delta((1, F(0)), F(1, 2)) == (3, F(1, 2))
    assert o.rel((5, F(2)), F(2))
    assert not o.rel((2, F(0)), F(1, 2))


def test_metric_delta_needs_related_pair():
    o = metric_q()
    with pytest.raises(ValueError):
        o.delta((2, F(0)), F(1, 2))


def test_metric_meet_needs_shared_point():
    o = metric_q()
    assert o.meet((2, F(1)), (3, F(1))) == (6, F(1))
    one, twin = F(1), F(2, 2)
    assert twin is not one
    assert o.meet((2, one), (3, twin)) == (6, F(1))  # equal points need not be identical
    with pytest.raises(ValueError):
        o.meet((2, F(1)), (3, F(2)))
    with pytest.raises(ValueError):
        o.meet((2, one), (3, F(3, 2)))


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, st.integers(1, 9))
def test_metric_delta_index_clears_the_bound_exactly(x, y, n):
    d = abs(x - y)
    if d * n >= 1:
        return
    o = metric_q()
    k, _ = o.delta((n, x), y)
    assert F(1, k) < F(1, n) - d
    assert k == 1 or not F(1, k - 1) < F(1, n) - d  # least such index


# -- residue classes ---------------------------------------------------------

def test_padic_examples():
    o = mk_padic(3)
    assert o.rel((2, 1), 10)
    assert not o.rel((2, 1), 4)
    assert o.delta((2, 1), 10) == (2, 10)
    assert o.meet((2, 5), (3, 5)) == (5, 5)
    assert o.unit(7) == (1, 7)


def test_padic_requires_prime():
    with pytest.raises(ValueError):
        mk_padic(4)
    with pytest.raises(ValueError):
        mk_padic(1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 3).map(lambda i: (2, 3, 5)[i - 2]),
    st.integers(1, 4),
    st.integers(-200, 200),
    st.integers(-200, 200),
    st.integers(-200, 200),
)
def test_padic_coset_invariance(p, n, x, k, z):
    o = mk_padic(p)
    y = x + k * p**n
    assert o.rel((n, x), y)
    assert o.rel((n, y), z) == o.rel((n, x), z)


# -- words -------------------------------------------------------------------

def test_cantor_examples():
    o = mk_cantor()
    u = Word((), (0, 2))
    w = Word((0, 2), (2,))
    assert o.rel((2, u), w)
    assert not o.rel((3, u), w)
    assert o.rel((7, u), u)
    assert o.delta((2, u), w) == (2, w)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from((0, 2)), max_size=5).map(tuple),
    st.lists(st.sampled_from((0, 2)), min_size=1, max_size=5).map(tuple),
    st.lists(st.sampled_from((0, 2)), max_size=5).map(tuple),
    st.lists(st.sampled_from((0, 2)), min_size=1, max_size=5).map(tuple),
    st.integers(1, 6),
)
def test_cantor_prefix_refinement(pre1, per1, pre2, per2, n):
    o = mk_cantor()
    u, w = Word(pre1, per1), Word(pre2, per2)
    if o.rel((n + 1, u), w):
        assert o.rel((n, u), w)


# -- half-plane --------------------------------------------------------------

def test_tangent_disk_examples():
    o = mk_tangent_disk()
    origin = (F(0), F(0))
    assert o.rel((1, origin), (F(0), F(1, 2)))
    assert not o.rel((1, origin), (F(1), F(0)))
    assert o.rel((1, origin), origin)
    interior = (F(0), F(1))
    assert not o.rel((2, interior), (F(0), F(3, 2)))  # boundary exactly at radius
    assert o.rel((2, interior), (F(0), F(5, 4)))


def test_tangent_disk_strict_mode_differs_only_at_the_axis():
    std = mk_tangent_disk()
    strict = mk_tangent_disk(strict_paper=True)
    origin = (F(0), F(0))
    probe = (F(1, 2), F(0))  # boundary point within distance 1
    assert not std.rel((1, origin), probe)  # tangent ball misses the axis
    assert strict.rel((1, origin), probe)  # the plain half-disk contains it
    interior = (F(1), F(1))
    for target in ((F(1), F(3, 2)), (F(0), F(0)), (F(2), F(1))):
        assert std.rel((2, interior), target) == strict.rel((2, interior), target)


def test_tangent_disk_rejects_lower_half_plane():
    o = mk_tangent_disk()
    with pytest.raises(ValueError):
        o.rel((1, (F(0), F(0))), (F(0), F(-1)))
    with pytest.raises(ValueError):
        o.unit((F(0), F(-1, 2)))


def test_tangent_disk_delta_shrinks_exactly():
    o = mk_tangent_disk()
    a = (1, (F(0), F(1, 2)))
    w = (F(1, 4), F(1, 2))
    k, back = o.delta(a, w)
    assert back == w
    gap = F(1, 1) - F(1, 4)  # 1/n - d with d = 1/4
    assert F(1, k) < gap and not F(1, k - 1) < gap


# -- normed vectors ----------------------------------------------------------

def test_normed_examples():
    o = normed_q(1)
    assert o.rel((2, (F(0),)), (F(1, 3),))
    assert not o.rel((2, (F(0),)), (F(1, 2),))
    assert norm_step_index((F(1, 2),)) == 3
    assert o.delta((2, (F(0),)), (F(1, 2),)) == (3, (F(1, 2),))
    assert o.delta((2, (F(1, 3),)), (F(1, 3),)) == (2, (F(1, 3),))


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_norm_step_index_clears_its_gap(q):
    q = abs(q)
    if q == 0 or q >= 1:
        return
    h = norm_step_index((q,))
    k = int(1 / q) if 1 / q != int(1 / q) else int(1 / q) - 1
    assert F(1, k + 1) <= q < F(1, k)
    assert F(1, h) < F(1, k) - q


def test_normed_conditions_hold_for_the_shipped_instance():
    from fibrous.lazy import GroupDescription, _draw_q

    group = GroupDescription(
        zero=(F(0),),
        add=lambda x, y: (x[0] + y[0],),
        nsum=lambda n, x: (n * x[0],),
        draw_point=lambda rng: (_draw_q(rng),),
    )
    rep = check_normed_conditions(
        group, lambda v: abs(v[0]) < 1, norm_step_index, n_samples=3000, seed=0
    )
    assert rep.passed


# -- recaptured constructions ------------------------------------------------

def test_natural_and_indexed_recapture_metric_relations():
    base = metric_q()
    nat = natural_metric()
    idx = indexed_metric()
    elems = base.element_sampler(10)
    pts = base.point_sampler(11)
    for _ in range(400):
        a = next(elems)
        y = next(pts)
        expected = base.rel(a, y)
        assert nat.rel(a, y) == expected
        assert idx.rel(a, y) == expected
        if expected:
            assert nat.delta(a, y) == base.delta(a, y)
            assert idx.delta(a, y) == base.delta(a, y)


# -- sampled checking --------------------------------------------------------

@pytest.mark.parametrize("name", ALL_INSTANCES)
def test_sample_check_passes_small(name):
    rep = sample_check(named_instance(name), 1500, 7)
    assert rep.passed


def test_sample_check_is_deterministic():
    rep1 = sample_check(broken_metric_q(), 3000, 0)
    rep2 = sample_check(broken_metric_q(), 3000, 0)
    assert rep1 == rep2
    assert not rep1.passed


def test_broken_metric_caught_with_replayable_witness():
    rep = sample_check(broken_metric_q(), 5000, 0)
    assert not rep.passed
    tag, wit = rep.violations[0]
    assert tag == "F3"
    assert wit["seed"] == 0 and "round" in wit and "z" in wit


def test_broken_padic_caught_quickly():
    rep = sample_check(broken_padic(3), 2000, 0)
    assert not rep.passed
    assert rep.violations[0][0] == "F3"


# -- checker branches --------------------------------------------------------
#
# Each mutant of metric-q breaks one axiom at the point it hands back; the
# checkers compare points by identity first, so the twins hand back a fresh
# but equal Fraction instead and must still pass.  The F1 and F4 mutants also
# hand meet companions off the fiber; sample_check does not meet those, so
# the mutants are caught with a meet that keeps the first element's point and
# with metric-q's own meet, which rejects an off-fiber companion.

def _fresh(q):
    twin = F(q.numerator, q.denominator)
    assert twin is not q
    return twin


METRIC = metric_q()


def _loose_meet(a, a2):
    return (a[0] * a2[0], a[1])


# broken axiom -> replaced oracle fields
AXIOM_MUTANTS = {
    "F1": dict(delta=lambda a, y: (METRIC.delta(a, y)[0], y + 1), meet=_loose_meet),
    "F2": dict(rel=lambda a, y: y != a[1] and METRIC.rel(a, y)),
    "F4": dict(unit=lambda y: (1, y + 1), meet=_loose_meet),
    "F5": dict(meet=lambda a, a2: (a[0] * a2[0], a[1] + 1)),
}

EQUAL_TWINS = {
    "delta": dict(delta=lambda a, y: (METRIC.delta(a, y)[0], _fresh(y))),
    "unit": dict(unit=lambda y: (1, _fresh(y))),
    "meet": dict(meet=lambda a, a2: (METRIC.meet(a, a2)[0], _fresh(a[1]))),
}


def _caught_replayably(run, tag):
    rep = run(100)
    assert not rep.passed
    wit = dict(rep.violations)[tag]
    assert wit["seed"] == 0 and 0 <= wit["round"] < 100
    # rerunning up to the reported round finds the same witness
    assert dict(run(wit["round"] + 1).violations)[tag] == wit


@pytest.mark.parametrize("tag", AXIOM_MUTANTS)
def test_metric_mutant_is_caught(tag):
    oracle = replace(METRIC, name=f"metric-q-{tag}", **AXIOM_MUTANTS[tag])
    _caught_replayably(lambda n: sample_check(oracle, n, 0), tag)


@pytest.mark.parametrize("tag", ("F1", "F4"))
def test_metric_mutant_is_caught_with_its_own_meet(tag):
    fields = {k: v for k, v in AXIOM_MUTANTS[tag].items() if k != "meet"}
    oracle = replace(METRIC, name=f"metric-q-{tag}", **fields)
    _caught_replayably(lambda n: sample_check(oracle, n, 0), tag)


@pytest.mark.parametrize("name", EQUAL_TWINS)
def test_equal_but_distinct_points_pass(name):
    oracle = replace(METRIC, **EQUAL_TWINS[name])
    assert sample_check(oracle, 1500, 0).passed


class _ShiftedLift(ModulusMorphism):
    def lift(self, a_prime, y):
        return (self.omega(a_prime[0], y), y + 1)


class _FreshLift(ModulusMorphism):
    def lift(self, a_prime, y):
        return (self.omega(a_prime[0], y), _fresh(y))


def test_bad_lift_modulus_is_caught():
    good = named_modulus("q-double")
    mor = _ShiftedLift(good.source, good.target, good.f, good.omega)
    _caught_replayably(lambda n: check_modulus(mor, n, 0), "M1")
    twin = _FreshLift(good.source, good.target, good.f, good.omega)
    assert check_modulus(twin, 2000, 0).passed


def test_named_instance_errors():
    with pytest.raises(ValueError):
        named_instance("no-such-space")
    with pytest.raises(ValueError):
        named_instance("padic:6")
    with pytest.raises(ValueError):
        named_instance("normed-q:0")


def _normed_q1_group():
    from fibrous.lazy import GroupDescription, _draw_q

    return GroupDescription(
        zero=(F(0),),
        add=lambda x, y: (x[0] + y[0],),
        nsum=lambda n, x: (n * x[0],),
        draw_point=lambda rng: (_draw_q(rng),),
    )


# Exact reports at seed 0, which pin that Fractions serialize as "p/q" and
# tuples as lists, plus the violation count of a verbose run where there is one.
GOLDEN_WITNESSES = {
    "broken-metric-q": (
        lambda **kw: sample_check(broken_metric_q(), 5000, 0, **kw),
        {"axiom": "F3", "witness": {"seed": 0, "round": 616, "a": [2, "3"], "y": "20/7",
                                    "delta": [2, "20/7"], "z": "5/2"}},
        5,
    ),
    "broken-padic-3": (
        lambda **kw: sample_check(broken_padic(3), 2000, 0, **kw),
        {"axiom": "F3", "witness": {"seed": 0, "round": 5, "a": [1, -7584], "y": -7584,
                                    "delta": [0, -7584], "z": 5986}},
        606,
    ),
    "q-double-bad": (
        lambda **kw: check_modulus(named_modulus("q-double-bad"), 5000, 0, **kw),
        {"axiom": "M2", "witness": {"seed": 0, "round": 33, "n": 1, "y": "4",
                                    "lift": [1, "4"], "z": "24/5"}},
        141,
    ),
    "normed-wrong-h": (
        lambda: check_normed_conditions(_normed_q1_group(), lambda v: abs(v[0]) < 1, lambda v: 1),
        {"axiom": "NG3", "witness": {"seed": 0, "round": 141, "a": ["-1/2"], "a2": ["-4/5"],
                                     "n": 1, "n2": 1}},
        None,
    ),
}


@pytest.mark.parametrize("case", GOLDEN_WITNESSES)
def test_witness_json_is_pinned(case):
    run, first, verbose_count = GOLDEN_WITNESSES[case]
    expected = {"passed": False, "violations": [first]}
    assert json.dumps(run().to_json(), sort_keys=True) == json.dumps(expected, sort_keys=True)
    if verbose_count is not None:
        assert len(run(verbose=True).violations) == verbose_count


# -- moduli ------------------------------------------------------------------

@pytest.mark.parametrize("name", ("padic3-shift", "padic3-scale", "q-double"))
def test_good_moduli_verify(name):
    rep = check_modulus(named_modulus(name), 2000, 0)
    assert rep.passed


def test_bad_modulus_is_falsified_with_witness():
    rep = check_modulus(named_modulus("q-double-bad"), 5000, 0)
    assert not rep.passed
    tag, wit = rep.violations[0]
    assert tag == "M2"
    assert "z" in wit and wit["seed"] == 0


def test_named_modulus_errors():
    assert set(MODULUS_NAMES) == {
        "padic3-shift",
        "padic3-scale",
        "q-double",
        "q-double-bad",
    }
    with pytest.raises(ValueError):
        named_modulus("nope")


# -- integer kernels against Fraction references -----------------------------
#
# The oracles decide relations and refinement indices on cross-multiplied
# integers.  Each reference below states the same definition with Fractions
# (or letter by letter for words) and is compared on seeded pairs at every
# index up to 25, the largest product of two sampled indices, plus exact
# boundary cases.

MAX_INDEX = 25


def ref_ball_index(n, d):
    # least k with 1/k < 1/n - d
    return math.floor(1 / (F(1, n) - d)) + 1


def ref_min_shrink(n, D, scale):
    # least k with scale/k < 1/n and (1/n - scale/k)^2 > D
    k = scale * n + 1
    while not (F(1, n) - F(scale, k)) ** 2 > D:
        k += 1
    return k


def ref_norm_step_index(v):
    q = max(abs(c) for c in v)
    if q == 0:
        return 1
    k = math.ceil(1 / q) - 1  # 1/(k+1) <= q < 1/k
    return ref_ball_index(k, q)


def ref_dist2(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def ref_metric(dist):
    def rel(n, x, y):
        return dist(x, y) < F(1, n)

    def refine(n, x, y):
        return ref_ball_index(n, dist(x, y))

    return rel, refine


def ref_normed():
    def rel(n, x, y):
        return max(abs(n * (a - b)) for a, b in zip(x, y)) < 1

    def refine(n, x, y):
        if x == y:
            return n
        return ref_norm_step_index(tuple(a - b for a, b in zip(x, y)))

    return rel, refine


def ref_tangent(strict):
    def center(n, c):
        return c if c[1] > 0 or strict else (c[0], F(1, n))

    def rel(n, c, w):
        if c[1] <= 0 and w == c:
            return True
        return ref_dist2(center(n, c), w) < F(1, n * n)

    def refine(n, c, w):
        if w == c:
            return n
        if strict and c[1] <= 0 and w[1] <= 0:
            return ref_ball_index(n, abs(w[0] - c[0]))
        scale = 2 if c[1] > 0 and w[1] <= 0 else 1
        return ref_min_shrink(n, ref_dist2(center(n, c), w), scale)

    return rel, refine


def ref_cantor():
    def rel(n, u, w):
        return first_letters(u.pre, u.per, n) == first_letters(w.pre, w.per, n)

    return rel, lambda n, u, w: n


def _q(*coords):
    return tuple(F(c) for c in coords)


# name -> (Fraction reference (rel, refine), exact boundary pairs (x, y));
# every boundary pair is tried at every index up to MAX_INDEX
KERNEL_REFERENCES = {
    "metric-q": (
        ref_metric(lambda x, y: abs(x - y)),
        [(F(0), F(1, n)) for n in range(1, MAX_INDEX + 1)]
        + [(F(3, 7), F(3, 7)), (F(-1, 2), F(1, 2))],
    ),
    "metric-q2": (
        ref_metric(lambda x, y: max(abs(x[0] - y[0]), abs(x[1] - y[1]))),
        [(_q(0, 0), _q(F(1, n), F(-1, n))) for n in range(1, MAX_INDEX + 1)]
        + [(_q(0, 0), _q(0, F(1, 5))), (_q(F(1, 3), 2), _q(F(1, 3), 2))],
    ),
    "normed-q:1": (
        ref_normed(),
        [(_q(0), _q(F(1, n))) for n in range(1, MAX_INDEX + 1)] + [(_q(F(2, 3)), _q(F(2, 3)))],
    ),
    "normed-q:2": (
        ref_normed(),
        [(_q(0, 0), _q(F(-1, n), F(1, 2 * n))) for n in range(1, MAX_INDEX + 1)]
        + [(_q(1, 1), _q(1, 1))],
    ),
    "tangent-disk": (
        ref_tangent(strict=False),
        [(_q(0, 1), _q(0, 1 + F(1, n))) for n in range(1, MAX_INDEX + 1)]  # on the sphere
        + [(_q(0, 0), _q(0, F(2, n))) for n in range(1, MAX_INDEX + 1)]  # top of the tangent ball
        + [(_q(0, 0), _q(F(1, n), F(1, n))) for n in range(1, MAX_INDEX + 1)]  # its side
        + [(_q(0, 0), _q(0, F(1, n))) for n in range(1, MAX_INDEX + 1)]  # its center
        + [(_q(0, 0), _q(F(1, 5), 0)), (_q(0, 0), _q(0, 0)), (_q(0, F(1, 4)), _q(F(1, 8), 0))],
    ),
    "tangent-disk:strict-paper": (
        ref_tangent(strict=True),
        [(_q(0, 0), _q(F(1, n), 0)) for n in range(1, MAX_INDEX + 1)]  # axis, at the radius
        + [(_q(0, 0), _q(0, F(1, n))) for n in range(1, MAX_INDEX + 1)]
        + [(_q(0, 0), _q(F(1, 7), 0)), (_q(0, 0), _q(0, 0)), (_q(0, F(1, 4)), _q(F(1, 8), 0))],
    ),
    "cantor": (
        ref_cantor(),
        [(Word((), (0, 2)), Word((0, 2), (2,))), (Word((0,), (2,)), Word((0,), (2,))),
         (Word((0, 2) * 12, (0,)), Word((), (0, 2)))],
    ),
}


@pytest.mark.parametrize("name", KERNEL_REFERENCES)
def test_kernels_match_fraction_references(name):
    (ref_rel, ref_refine), boundary = KERNEL_REFERENCES[name]
    oracle = named_instance(name)
    elems = oracle.element_sampler(3)
    points = oracle.point_sampler(4)
    pairs = [(next(elems)[1], next(points)) for _ in range(60)] + boundary
    pairs += [(x, x) for x, _ in pairs[:10]]
    related = 0
    for x, y in pairs:
        for n in range(1, MAX_INDEX + 1):
            expected = ref_rel(n, x, y)
            assert oracle.rel((n, x), y) == expected, (n, x, y)
            if expected:
                related += 1
                assert oracle.delta((n, x), y) == (ref_refine(n, x, y), y), (n, x, y)
    assert related >= 50  # the refinements were exercised too


def test_ball_index_matches_reference_and_ignores_scaling():
    rng = Random(5)
    for _ in range(500):
        n = rng.randint(1, MAX_INDEX)
        d = F(rng.randint(0, 40), rng.randint(1, 60))
        if d * n >= 1:
            with pytest.raises(ValueError):
                _ball_index(n, d.numerator, d.denominator)
            continue
        expected = ref_ball_index(n, d)
        scale = rng.randint(1, 9)
        assert _ball_index(n, d.numerator, d.denominator) == expected
        assert _ball_index(n, d.numerator * scale, d.denominator * scale) == expected
    with pytest.raises(ValueError):
        _ball_index(4, 1, 4)  # distance exactly 1/n
    assert _ball_index(4, 0, 1) == 5


def test_min_shrink_matches_reference():
    rng = Random(6)
    for _ in range(300):
        n = rng.randint(1, MAX_INDEX)
        scale = rng.choice((1, 2))
        D = F(rng.randint(0, 40), rng.randint(41, 80)) / (n * n)  # below the radius 1/n squared
        c = rng.randint(1, 5)
        assert _min_shrink(n, (D.numerator * c, D.denominator * c), scale) == ref_min_shrink(
            n, D, scale
        ), (n, D, scale)


def test_norm_step_index_matches_reference():
    rng = Random(7)
    vectors = [(F(1, k),) for k in range(2, MAX_INDEX + 1)]  # at the step boundaries
    vectors += [(F(1, k), F(-1, k + 1)) for k in range(2, MAX_INDEX + 1)]
    vectors += [(F(0),), (F(0), F(0))]
    for _ in range(400):
        dim = rng.randint(1, 3)
        vectors.append(tuple(F(rng.randint(-30, 30), rng.randint(31, 60)) for _ in range(dim)))
    for v in vectors:
        assert norm_step_index(v) == ref_norm_step_index(v), v


# -- pinned draw streams and boundary decisions ------------------------------
#
# A passing report cannot show a shifted draw stream or a boundary decided
# the other way.  These pin, at seed 0 over 2,000 rounds, how many times
# each checker called ``rel`` and how many of those calls returned True.
# They were recorded with the Fraction-based oracles and the randint-based
# draws, so they also check that ``rng.choice`` draws the same stream on
# every supported Python.

REL_COUNTS = {
    "metric-q": (10585, 2811),
    "metric-q2": (10099, 2137),
    "padic:2": (12128, 5006),
    "padic:3": (11008, 3420),
    "padic:5": (10498, 2698),
    "cantor": (12080, 5072),
    "tangent-disk": (10332, 2501),
    "tangent-disk:strict-paper": (10356, 2501),
    "normed-q:1": (10628, 2898),
    "normed-q:2": (10121, 2181),
    "indexed-metric": (10585, 2811),
    "natural-metric": (10585, 2811),
    "padic3-shift": (2249, 498),
    "padic3-scale": (2249, 498),
    "q-double": (2072, 144),
    "q-double-bad": (2134, 206),
}


def _counting(oracle, counts):
    def rel(a, y):
        out = oracle.rel(a, y)
        counts[out] += 1
        return out

    return replace(oracle, rel=rel)


@pytest.mark.parametrize("name", REL_COUNTS)
def test_rel_counts_are_pinned(name):
    counts = Counter()
    if name in MODULUS_NAMES:
        mor = named_modulus(name)
        space = _counting(mor.source, counts)
        check_modulus(replace(mor, source=space, target=space), 2000, 0)
    else:
        assert sample_check(_counting(named_instance(name), counts), 2000, 0).passed
    assert (counts[True] + counts[False], counts[True]) == REL_COUNTS[name]
