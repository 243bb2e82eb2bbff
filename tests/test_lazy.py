import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrous import (
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
    check_normed_conditions,
    norm_step_index,
)

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
    with pytest.raises(ValueError):
        o.meet((2, F(1)), (3, F(2)))


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
        name="normed-q:1",
        zero=(F(0),),
        add=lambda x, y: (x[0] + y[0],),
        neg=lambda x: (-x[0],),
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
        name="normed-q:1",
        zero=(F(0),),
        add=lambda x, y: (x[0] + y[0],),
        neg=lambda x: (-x[0],),
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
