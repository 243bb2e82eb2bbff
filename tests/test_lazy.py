import dataclasses
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import islice, product
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
    normed_q,
    sample_check,
)
from fibrous.lazy import (
    INSTANCE_NAMES,
    MAX_DIM,
    MODULUS_NAMES,
    _PRIME_BOUND,
    _ball_index,
    _below,
    _coded_word,
    _in_max_ball,
    _is_prime,
    _max_distance,
    _min_shrink,
    check_normed_conditions,
    normed_q_group,
)
import fibrous.lazy as lazy
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


def _is_prime_by_trial_division(p):
    return p >= 2 and all(p % i for i in range(2, math.isqrt(p) + 1))


def test_is_prime_agrees_with_trial_division():
    for p in range(-3, 10**5):
        assert _is_prime(p) == _is_prime_by_trial_division(p), p


def test_is_prime_decides_large_numbers_up_to_its_bound():
    assert _is_prime(2**61 - 1)
    assert not _is_prime((10**9 + 7) * (10**9 + 9))
    assert not _is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5 and 7
    # the bound itself is the first composite that all twelve bases pass
    assert 399165290221 * 798330580441 == _PRIME_BOUND
    assert _is_prime(2**64 - 59)  # the largest prime below 2**64
    for p in (_PRIME_BOUND, _PRIME_BOUND + 1, 2**89 - 1):
        with pytest.raises(ValueError, match=str(_PRIME_BOUND)):
            _is_prime(p)


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


def _letter_codes(lengths):
    # (length, code, letters): the code's bits are the letters, first letter
    # in the highest bit and 1 for the letter 2, as in product's order
    return [(k, code, t) for k in lengths for code, t in enumerate(product((0, 2), repeat=k))]


def test_word_table_builds_what_word_builds():
    # every (preperiod, period) code the cantor sampler can draw
    keys = list(product(_letter_codes(range(5)), _letter_codes(range(1, 5))))
    assert len(keys) == 930
    for (n_pre, pre_code, pre), (n_per, per_code, per) in keys:
        w, ref = _coded_word(n_pre, pre_code, n_per, per_code), Word(pre, per)
        assert w == ref and repr(w) == repr(ref), (pre, per)
        assert _coded_word(n_pre, pre_code, n_per, per_code) is w


@pytest.mark.parametrize("seed", range(5))
def test_word_table_leaves_cantor_checks_unchanged(seed):
    runs = []
    for cold in (True, False):
        if cold:
            _coded_word.cache_clear()
        counts = Counter()
        rep = sample_check(_counting(mk_cantor(), counts), 2000, seed)
        runs.append((rep.to_json(), counts))
    assert runs[0] == runs[1]


def test_word_table_stays_bounded():
    _coded_word.cache_clear()
    assert sample_check(mk_cantor(), 10_000, 0).passed
    assert 0 < _coded_word.cache_info().currsize <= 930


# the indices the letter-mask tests try, across the mask's 64 letters
MASK_INDICES = range(71)


def _assert_cantor_rel_is_prefix_agreement(pairs):
    o = mk_cantor()
    for u, w in pairs:
        for n in MASK_INDICES:
            assert o.rel((n, u), w) == (u.prefix(n) == w.prefix(n)), (n, u, w)


def test_letter_mask_decides_drawn_words():
    o = mk_cantor()
    elems, points = o.element_sampler(8), o.point_sampler(9)
    pairs = [(next(elems)[1], next(points)) for _ in range(300)]
    pairs += [(u, u) for u, _ in pairs[:20]]
    pairs += [(u, Word(u.pre, u.per)) for u, _ in pairs[:20]]  # equal but distinct
    _assert_cantor_rel_is_prefix_agreement(pairs)


def test_letter_mask_decides_long_preperiods():
    rng = Random(10)
    words = []
    for _ in range(40):
        pre = tuple(rng.choice((0, 2)) for _ in range(rng.randint(60, 80)))
        words.append(Word(pre, tuple(rng.choice((0, 2)) for _ in range(rng.randint(1, 4)))))
    # words that first differ at each letter from 60 to 69
    base = Word((0,) * 64 + (2,) * 8, (0, 2))
    for i in range(60, 70):
        letters = base.prefix(72)
        words.append(Word(letters[:i] + (2 - letters[i],) + letters[i + 1:], base.per))
    words.append(base)
    _assert_cantor_rel_is_prefix_agreement(product(words, repeat=2))


def test_letter_mask_is_not_a_field():
    assert [f.name for f in dataclasses.fields(Word)] == ["pre", "per"]
    w, twin = Word((0, 2), (2,)), Word((0, 2), (2,))
    assert w.head == twin.head == (1 << 64) - 2  # letters 0, 2, 2, 2, ...
    object.__setattr__(twin, "head", 0)
    assert w == twin and hash(w) == hash(twin) and repr(w) == repr(twin)


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


@pytest.mark.parametrize(
    "oracle, a, y",
    [
        (mk_cantor(), (1, Word((), (0,))), Word((), (2,))),
        (mk_tangent_disk(), (2, (F(0), F(1))), (F(5), F(1))),
        (mk_tangent_disk(), (1, (F(0), F(0))), (F(1, 2), F(0))),
        (mk_tangent_disk(strict_paper=True), (2, (F(0), F(0))), (F(1, 2), F(0))),
    ],
    ids=["cantor", "tangent-interior", "tangent-axis", "strict-axis"],
)
def test_delta_refuses_unrelated_pairs(oracle, a, y):
    assert not oracle.rel(a, y)
    with pytest.raises(ValueError) as exc:
        oracle.delta(a, y)
    assert str(exc.value) == "delta is only defined on related pairs"


def test_tangent_disk_rejects_lower_half_plane():
    below = (F(0), F(-1, 2))
    for o in (mk_tangent_disk(), mk_tangent_disk(strict_paper=True)):
        for c in ((F(0), F(0)), (F(0), F(1)), (0, 0)):
            for call in (o.rel, o.delta):
                with pytest.raises(ValueError) as exc:
                    call((1, c), below)
                assert str(exc.value) == "point below the horizontal axis"
        with pytest.raises(ValueError) as exc:
            o.unit(below)
        assert str(exc.value) == "point below the horizontal axis"


def test_tangent_disk_delta_shrinks_exactly():
    o = mk_tangent_disk()
    a = (1, (F(0), F(1, 2)))
    w = (F(1, 4), F(1, 2))
    k, back = o.delta(a, w)
    assert back == w
    gap = F(1, 1) - F(1, 4)  # 1/n - d with d = 1/4
    assert F(1, k) < gap and not F(1, k - 1) < gap


# -- normed vectors ----------------------------------------------------------

def norm_step(v):
    # the index map h of normed-q at v, that is step(v, zero) of its group
    group = normed_q_group(len(v))
    return group.step(v, group.zero)


def test_normed_examples():
    o = normed_q(1)
    assert o.rel((2, (F(0),)), (F(1, 3),))
    assert not o.rel((2, (F(0),)), (F(1, 2),))
    assert norm_step((F(1, 2),)) == 3
    assert o.delta((2, (F(0),)), (F(1, 2),)) == (3, (F(1, 2),))
    assert o.delta((2, (F(1, 3),)), (F(1, 3),)) == (2, (F(1, 3),))


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_norm_step_index_clears_its_gap(q):
    q = abs(q)
    if q == 0 or q >= 1:
        return
    h = norm_step((q,))
    k = int(1 / q) if 1 / q != int(1 / q) else int(1 / q) - 1
    assert F(1, k + 1) <= q < F(1, k)
    assert F(1, h) < F(1, k) - q


def test_normed_conditions_hold_for_the_shipped_instance():
    rep = check_normed_conditions(normed_q_group(1), n_samples=3000, seed=0)
    assert rep.passed


def test_norm_step_is_only_defined_inside_the_unit_ball():
    for v in ((F(1),), (F(-3, 2),), (F(0), F(1))):
        with pytest.raises(ValueError) as exc:
            norm_step(v)
        assert str(exc.value) == "index map is only defined inside the unit ball"


@pytest.mark.parametrize(
    "within, caught, passed",
    [
        # the subset misses zero
        (lambda n, x, y: x != y and _in_max_ball(n, x, y), "NG1", "NG2"),
        # every index above 4 admits every vector, so an (n*n2)-fold sum
        # is a member when an n-fold one is not
        (lambda n, x, y: n > 4 or _in_max_ball(n, x, y), "NG2", "NG1"),
    ],
    ids=["NG1", "NG2"],
)
def test_normed_conditions_catch_mutant_groups(within, caught, passed):
    rep = check_normed_conditions(replace(normed_q_group(1), within=within), n_samples=500)
    axioms = {axiom for axiom, _ in rep.violations}
    assert caught in axioms and passed not in axioms


def test_seeded_checks_refuse_negative_seeds():
    runs = [
        lambda seed: sample_check(metric_q(), 10, seed),
        lambda seed: check_modulus(named_modulus("q-double"), 10, seed),
        lambda seed: check_normed_conditions(normed_q_group(1), 10, seed),
    ]
    for run in runs:
        assert run(0).passed
        with pytest.raises(ValueError) as exc:
            run(-1)
        assert str(exc.value) == "seed must be non-negative, got -1"


def test_normed_q_and_metric_q2_take_their_group():
    for dim in (1, 2, 3):
        group, oracle = normed_q_group(dim), normed_q(dim)
        rng, points = Random(5), list(islice(oracle.point_sampler(5), 100))
        assert points == [group.draw_point(rng) for _ in points]
        for x, y in zip(points, points[1:]):
            for n in range(1, 5):
                assert oracle.rel((n, x), y) == group.within(n, x, y)
                if x != y and group.within(n, x, y):
                    assert oracle.delta((n, x), y) == (group.step(x, y), y)
    ours, theirs = named_instance("metric-q2").point_sampler(0), normed_q(2).point_sampler(0)
    assert list(islice(ours, 200)) == list(islice(theirs, 200))


def test_normed_dimension_is_bounded():
    assert len(normed_q_group(MAX_DIM).zero) == MAX_DIM
    for dim in (0, MAX_DIM + 1):
        with pytest.raises(ValueError):
            normed_q_group(dim)


# -- recaptured constructions ------------------------------------------------

def test_natural_and_indexed_recapture_metric_relations():
    base = metric_q()
    nat = named_instance("natural-metric")
    idx = named_instance("indexed-metric")
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
    # a suffix is a canonical ASCII decimal, so the name echoed is the oracle's
    for name in ("padic: 3", "padic:+3", "padic:-3", "padic:03", "padic:\u0663", "padic:",
                 "normed-q:1_0", "normed-q:2 ", "normed-q:0x2", "normed-q:" + "1" * 5000):
        with pytest.raises(ValueError, match="bad instance"):
            named_instance(name)
    for name in ("padic:3", "normed-q:10", "normed-q:1"):
        assert named_instance(name).name == name


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
        lambda: check_normed_conditions(replace(normed_q_group(1), step=lambda x, y: 1)),
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


# half-plane points that are equal in value but distinct objects, and points
# with plain int coordinates, on the axis and off it
TANGENT_EQUAL_VALUES = [
    ((F(1, 2), F(0)), (F(2, 4), F(0, 3))),
    ((F(1, 2), F(1, 3)), (F(2, 4), F(2, 6))),
    ((1, 0), (1, 0)),
    ((1, 0), (F(1), F(0))),
    ((F(1), F(0)), (1, 0)),
    ((0, 1), (0, 1)),
    ((0, 1), (F(1, 4), 1)),
    ((0, 0), (0, F(1, 3))),
    ((2, 0), (F(9, 4), 0)),
]

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
        # one coordinate exactly 1/n away, the other inside
        + [(_q(0, 0), _q(F(1, 2 * n), F(-1, n))) for n in range(1, MAX_INDEX + 1)]
        + [(_q(F(1, n), 1), _q(0, 1 + F(1, 3 * n))) for n in range(1, MAX_INDEX + 1)]
        + [(_q(0, 0), _q(0, F(1, 5))), (_q(F(1, 3), 2), _q(F(1, 3), 2))],
    ),
    "normed-q:1": (
        ref_normed(),
        [(_q(0), _q(F(1, n))) for n in range(1, MAX_INDEX + 1)] + [(_q(F(2, 3)), _q(F(2, 3)))],
    ),
    "normed-q:2": (
        ref_normed(),
        [(_q(0, 0), _q(F(-1, n), F(1, 2 * n))) for n in range(1, MAX_INDEX + 1)]
        + [(_q(F(1, 3), 0), _q(0, F(-1, n))) for n in range(1, MAX_INDEX + 1)]
        + [(_q(1, 1), _q(1, 1))],
    ),
    "tangent-disk": (
        ref_tangent(strict=False),
        [(_q(0, 1), _q(0, 1 + F(1, n))) for n in range(1, MAX_INDEX + 1)]  # on the sphere
        + [(_q(0, 0), _q(0, F(2, n))) for n in range(1, MAX_INDEX + 1)]  # top of the tangent ball
        + [(_q(0, 0), _q(F(1, n), F(1, n))) for n in range(1, MAX_INDEX + 1)]  # its side
        + [(_q(0, 0), _q(0, F(1, n))) for n in range(1, MAX_INDEX + 1)]  # its center
        + [(_q(0, 0), _q(F(1, 5), 0)), (_q(0, 0), _q(0, 0)), (_q(0, F(1, 4)), _q(F(1, 8), 0))]
        + TANGENT_EQUAL_VALUES,
    ),
    "tangent-disk:strict-paper": (
        ref_tangent(strict=True),
        [(_q(0, 0), _q(F(1, n), 0)) for n in range(1, MAX_INDEX + 1)]  # axis, at the radius
        + [(_q(0, 0), _q(0, F(1, n))) for n in range(1, MAX_INDEX + 1)]
        + [(_q(0, 0), _q(F(1, 7), 0)), (_q(0, 0), _q(0, 0)), (_q(0, F(1, 4)), _q(F(1, 8), 0))]
        + TANGENT_EQUAL_VALUES,
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


def test_max_ball_agrees_with_max_distance():
    pairs = []
    for name in ("metric-q2", "normed-q:1", "normed-q:2", "normed-q:3"):
        oracle = named_instance(name)
        elems, points = oracle.element_sampler(12), oracle.point_sampler(13)
        pairs += [(next(elems)[1], next(points)) for _ in range(200)]
    for name in ("metric-q2", "normed-q:1", "normed-q:2"):
        pairs += KERNEL_REFERENCES[name][1]
    boundary = 0
    for x, y in pairs:
        num, den = _max_distance(x, y)
        for n in range(1, MAX_INDEX + 1):
            assert _in_max_ball(n, x, y) == (num * n < den), (n, x, y)
            boundary += num * n == den
    assert boundary >= 100  # pairs exactly 1/n apart were among them


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


def is_least_shrink(n, D, scale, k):
    def ok(k):
        gap = F(1, n) - F(scale, k)
        return gap > 0 and gap * gap > D

    return ok(k) and not ok(k - 1)


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
    # the hard cases: D = 0, D within 1e-12, 1e-17 and 2**-200 of 1/n**2,
    # whose answers run up past 2**64 (too long for a range), and 100-200-bit
    # integers with a common factor, all checked on the exact least-k property
    cases = []
    for n in (*range(1, MAX_INDEX + 1), 10**3, 10**30, 10**400):
        for scale in (1, 2):
            assert _min_shrink(n, (0, 1), scale) == scale * n + 1
            assert _min_shrink(n, (0, 7**60), scale) == scale * n + 1
        if n > MAX_INDEX:
            continue
        for eps in (F(1, 10**12), F(1, 10**17), F(1, 2**200)):
            cases += [(n, F(1, n * n) - eps, scale) for scale in (1, 2)]
    for _ in range(60):
        n = rng.randint(1, MAX_INDEX)
        den = rng.getrandbits(rng.randint(100, 200)) | 1 << 99
        cases.append((n, F(rng.randrange(den // (n * n)), den), rng.choice((1, 2))))
    answers = []
    for n, D, scale in cases:
        c = rng.getrandbits(rng.randint(100, 200)) | 1
        k = _min_shrink(n, (D.numerator * c, D.denominator * c), scale)
        assert is_least_shrink(n, D, scale, k), (n, D, scale)
        answers.append(k)
    assert max(answers) > 2**64


# the half-plane grid of the refinement tests, on the axis and off it
TANGENT_GRID = [
    (F(x), F(y)) for x in (-1, F(-1, 3), 0, F(1, 4), F(1, 2)) for y in (0, F(1, 8), F(1, 4), F(1, 2), 1)
]


@pytest.mark.parametrize("strict", (False, True))
def test_tangent_refinement_matches_reference_on_a_grid(strict):
    ref_rel, ref_refine = ref_tangent(strict)
    oracle = mk_tangent_disk(strict)
    related = 0
    for c, (wx, wy) in product(TANGENT_GRID, repeat=2):
        w = (F(2 * wx.numerator, 2 * wx.denominator), F(3 * wy.numerator, 3 * wy.denominator))
        for n in range(1, 6):
            expected = ref_rel(n, c, w)
            assert oracle.rel((n, c), w) == expected, (n, c, w)
            if expected:
                related += 1
                assert oracle.delta((n, c), w) == (ref_refine(n, c, w), w), (n, c, w)
            else:
                with pytest.raises(ValueError):
                    oracle.delta((n, c), w)
    assert related >= 300


def test_tangent_refinement_keeps_the_index_at_its_own_point(monkeypatch):
    def no_shrink(*args):
        raise AssertionError("w == c must not reach _min_shrink")

    monkeypatch.setattr(lazy, "_min_shrink", no_shrink)
    for strict in (False, True):
        oracle = mk_tangent_disk(strict)
        for c, w in [((F(1, 2), F(0)), (F(2, 4), F(0, 3))), ((F(1, 2), F(1, 3)), (F(2, 4), F(2, 6)))]:
            assert w == c and w[0] is not c[0]
            for n in range(1, MAX_INDEX + 1):
                assert oracle.rel((n, c), w)
                assert oracle.delta((n, c), w) == (n, w)


def test_tangent_ball_center_is_refined_by_min_shrink(monkeypatch):
    # the center (c[0], 1/n) of the tangent ball at the axis point c is not
    # c, though it lies at distance 0 from that center
    calls = []

    def shrink(n, D, scale):
        calls.append((n, D[0], scale))
        return _min_shrink(n, D, scale)

    monkeypatch.setattr(lazy, "_min_shrink", shrink)
    oracle = mk_tangent_disk()
    c = (F(1, 3), F(0))
    for n in range(1, MAX_INDEX + 1):
        w = (F(1, 3), F(1, n))
        assert oracle.rel((n, c), w)
        assert oracle.delta((n, c), w) == (n + 1, w) == (ref_tangent(False)[1](n, c, w), w)
        assert calls[-1] == (n, 0, 1)


def test_norm_step_index_matches_reference():
    rng = Random(7)
    vectors = [(F(1, k),) for k in range(2, MAX_INDEX + 1)]  # at the step boundaries
    vectors += [(F(1, k), F(-1, k + 1)) for k in range(2, MAX_INDEX + 1)]
    vectors += [(F(0),), (F(0), F(0))]
    for _ in range(400):
        dim = rng.randint(1, 3)
        vectors.append(tuple(F(rng.randint(-30, 30), rng.randint(31, 60)) for _ in range(dim)))
    for v in vectors:
        assert norm_step(v) == ref_norm_step_index(v), v


# -- the draw kernel and the shipped samplers against the standard library ---
#
# Every shipped sampler draws by ``_below``'s rule on ``rng.getrandbits``: the
# hot ones (the ``_q_draw`` tables and the index draw) apply it inline, the
# rest call ``_below``.  The kernel must consume
# the same bits and return the same index as ``rng.choice``, and each sampler
# must yield what its plain ``choice`` / ``randint`` / ``random`` form below
# yields, equal in value and in type;
# ``test_samplers_draw_what_their_stdlib_form_draws`` is the check of the
# inline draws.

KERNEL_BOUNDS = sorted(
    {*range(1, 71), *(2**j + e for j in range(1, 41) for e in (-1, 0, 1)), 20_001, 2**70 + 3}
)


def test_below_draws_what_choice_draws():
    for n in KERNEL_BOUNDS:
        for seed in range(5):
            ours, stdlib = Random(seed), Random(seed)
            # a range longer than sys.maxsize has no len(), so choice cannot
            # take it; randrange(n) makes the same _randbelow(n) draw
            draw = stdlib.randrange if n > sys.maxsize else lambda n: stdlib.choice(range(n))
            getrandbits = ours.getrandbits
            drawn = [_below(getrandbits, n) for _ in range(200)]
            assert drawn == [draw(n) for _ in range(200)], (n, seed)
            assert ours.getstate() == stdlib.getstate(), (n, seed)


def ref_q(rng, span=24, den=8):
    return F(rng.randint(-span, span), rng.randint(1, den))


def ref_word(rng):
    # each part is a length, then its letters as one code: first letter in
    # the highest bit, a 1 bit for the letter 2
    def part(n):
        code = rng.getrandbits(n)
        return tuple(2 * (code >> (n - 1 - i) & 1) for i in range(n))

    pre = part(rng.randint(0, 4))
    per = part(rng.randint(1, 4))
    return Word(pre, per)


def ref_half_plane(rng):
    x = ref_q(rng, 6, 4)
    if rng.random() < 0.3:
        y = F(0)
    else:
        y = abs(ref_q(rng, 6, 4))
    return (x, y)


def ref_q_vector(rng):
    return (ref_q(rng),)


def ref_q_pair(rng):
    return (ref_q(rng, 8, 4), ref_q(rng, 8, 4))


def ref_integer(rng):
    return rng.randint(-10**4, 10**4)


# oracle name -> point draw; elements pair an index from 1..4 with a point
REFERENCE_SAMPLERS = {
    "metric-q": ref_q,
    "metric-q2": ref_q_pair,
    "padic:2": ref_integer,
    "padic:3": ref_integer,
    "padic:5": ref_integer,
    "cantor": ref_word,
    "tangent-disk": ref_half_plane,
    "tangent-disk:strict-paper": ref_half_plane,
    "normed-q:1": ref_q_vector,
    "normed-q:2": ref_q_pair,
    "indexed-metric": ref_q,
    "natural-metric": ref_q,
}


def _typed(v):
    # the value with the type of every leaf, so that 0 == F(0) does not pass
    if type(v) is tuple:
        return tuple(map(_typed, v))
    return (type(v), v)


def _reference_streams(name, seed):
    draw = REFERENCE_SAMPLERS[name]
    points, elems = Random(seed), Random(seed)
    while True:
        yield draw(points), (elems.randint(1, 4), draw(elems))


def test_every_instance_name_has_a_reference_sampler():
    for key in INSTANCE_NAMES:
        prefix, param, _ = key.partition("<")
        assert any(name == key or param and name.startswith(prefix) for name in REFERENCE_SAMPLERS), key


def _spaces(name):
    if name in MODULUS_NAMES:
        mor = named_modulus(name)
        return [mor.source, mor.target]
    return [named_instance(name)]


@pytest.mark.parametrize("name", [*REFERENCE_SAMPLERS, *MODULUS_NAMES])
def test_samplers_draw_what_their_stdlib_form_draws(name):
    for oracle in _spaces(name):
        for seed in range(5):
            ours = zip(oracle.point_sampler(seed), oracle.element_sampler(seed))
            expected = _reference_streams(oracle.name, seed)
            assert list(map(_typed, islice(ours, 2000))) == list(
                map(_typed, islice(expected, 2000))
            ), (oracle.name, seed)


def test_normed_points_of_other_dimensions_draw_their_stdlib_form():
    # normed-q:1 and normed-q:2 are above; every other dimension draws its
    # point through another branch
    for dim in (3, 5):
        draw = normed_q_group(dim).draw_point
        for seed in range(3):
            ours, theirs = Random(seed), Random(seed)
            assert [_typed(draw(ours)) for _ in range(300)] == [
                _typed(tuple(ref_q(theirs, 8, 4) for _ in range(dim))) for _ in range(300)
            ], (dim, seed)


# -- pinned draw streams and boundary decisions ------------------------------
#
# A passing report cannot show a shifted draw stream or a boundary decided
# the other way.  These pin, at seed 0 over 2,000 rounds, how many times
# each checker called ``rel`` and how many of those calls returned True.
# They were recorded with the Fraction-based oracles and the randint-based
# draws (cantor's with its two-code word draw), so they also check that the
# ``_below`` draws on ``getrandbits`` give the same streams on every
# supported Python.

REL_COUNTS = {
    "metric-q": (10585, 2811),
    "metric-q2": (10099, 2137),
    "padic:2": (12128, 5006),
    "padic:3": (11008, 3420),
    "padic:5": (10498, 2698),
    "cantor": (12535, 5753),
    "tangent-disk": (10332, 2501),
    "tangent-disk:strict-paper": (10353, 2526),
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
