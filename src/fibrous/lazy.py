"""Neighborhood oracles for infinite carriers, with seeded sampled checking.

Every shipped instance uses exact rational or integer arithmetic, so a
sampled check can only fail because an axiom actually fails, never because
of rounding.  Elements are (index, point) pairs throughout; indices start
at 1 so that the unit element exists and meets can multiply indices.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from random import Random
from typing import Callable, Iterator

from .report import AxiomReport, Collector

@dataclass(frozen=True)
class NeighborhoodOracle:
    """Interface record for a lazily presented spatial fibrous preorder.

    ``proj`` sends an element to its point, ``rel(a, y)`` decides whether
    ``y`` lies in the neighborhood of ``a``, ``delta(a, y)`` refines ``a``
    at a related point, ``unit(y)`` is the section and ``meet(a, a2)`` the
    fiberwise meet.  The samplers take a seed and yield endless streams for
    :func:`sample_check`.  Points must compare equal to themselves, because
    the checkers test identity before ``==``.
    """

    name: str
    proj: Callable
    rel: Callable
    delta: Callable
    unit: Callable
    meet: Callable
    point_sampler: Callable[[int], Iterator]
    element_sampler: Callable[[int], Iterator]


def sample_check(
    oracle: NeighborhoodOracle,
    n_samples: int,
    seed: int,
    verbose: bool = False,
) -> AxiomReport:
    """Seeded sampling of the six contractual invariants.

    Each round draws two elements and two points, then checks: F2 on the
    element's own point, F1/F3 through the refinement (both on the
    guaranteed pair and on a sampled related pair), F4 on the section, and
    F5/F6 on meets with derived same-fiber companions (one that ``unit`` or
    ``delta`` puts over another point is an F4 or F1 defect and is skipped).
    Violations carry the seed and round number, so any failure replays
    deterministically.  A passing report means no violation in
    ``n_samples`` rounds, not a proof.
    """
    col = Collector(verbose)
    proj, rel, delta = oracle.proj, oracle.rel, oracle.delta
    unit, meet = oracle.unit, oracle.meet
    elems = oracle.element_sampler(2 * seed)
    points = oracle.point_sampler(2 * seed + 1)
    # witness dicts are built only on a violation; points compare by identity
    # first, since the oracles mostly hand back the very point they were given
    for rnd in range(n_samples):
        a = next(elems)
        a2 = next(elems)
        y = next(points)
        z = next(points)
        xa = proj(a)
        if not rel(a, xa):
            col.add("F2", {"seed": seed, "round": rnd, "a": a})
        else:
            pairs = [(a, xa)]
            if y is not xa and y != xa and rel(a, y):
                pairs.append((a, y))
            for src, tgt in pairs:
                b = delta(src, tgt)
                pb = proj(b)
                if pb is not tgt and pb != tgt:
                    col.add("F1", {"seed": seed, "round": rnd, "a": src, "y": tgt, "delta": b})
                if rel(b, z) and not rel(src, z):
                    col.add(
                        "F3",
                        {"seed": seed, "round": rnd, "a": src, "y": tgt, "delta": b, "z": z},
                    )
        u = unit(y)
        pu = proj(u)
        if pu is not y and pu != y:
            col.add("F4", {"seed": seed, "round": rnd, "y": y, "unit": u})
        for mate in (unit(xa), delta(a2, xa) if rel(a2, xa) else a2):
            if (pm := proj(mate)) is not xa and pm != xa:
                continue
            c = meet(a, mate)
            pc = proj(c)
            if pc is not xa and pc != xa:
                col.add("F5", {"seed": seed, "round": rnd, "a": a, "a2": mate, "meet": c})
            if rel(c, z) and not (rel(a, z) and rel(mate, z)):
                col.add(
                    "F6",
                    {"seed": seed, "round": rnd, "a": a, "a2": mate, "meet": c, "z": z},
                )
    return col.report()


# ---------------------------------------------------------------------------
# the one indexed-oracle constructor

def mk_indexed_family(
    name: str,
    relates: Callable,
    refine: Callable,
    draw_point: Callable,
    op: Callable = operator.mul,
    index_max: int = 4,
    draw_element_point: Callable | None = None,
) -> NeighborhoodOracle:
    """Oracle from an indexed family of relations ``relates(n, x, y)``.

    Elements are ``(n, x)`` pairs projecting to ``x``; the section is
    ``(1, y)`` and the meet of two elements over one point combines their
    indices with ``op``.  The refinement is ``(refine(n, x, y), y)``; a
    ``refine`` that is only defined on related pairs raises ``ValueError``
    on the others itself.  The element sampler draws indices uniformly from
    ``1..index_max`` and points from ``draw_element_point`` (by default
    ``draw_point``, which also feeds the point sampler).
    """
    elem_point = draw_element_point or draw_point

    def rel(a, y):
        return relates(a[0], a[1], y)

    def delta(a, y):
        return (refine(a[0], a[1], y), y)

    def meet(a, a2):
        x, x2 = a[1], a2[1]
        if x is not x2 and x != x2:
            raise ValueError("meet needs a shared point")
        return (op(a[0], a2[0]), x)

    def point_sampler(seed):
        rng = Random(seed)
        while True:
            yield draw_point(rng)

    def element_sampler(seed):
        rng = Random(seed)
        while True:
            yield (rng.randint(1, index_max), elem_point(rng))

    return NeighborhoodOracle(
        name=name,
        proj=operator.itemgetter(1),
        rel=rel,
        delta=delta,
        unit=lambda y: (1, y),
        meet=meet,
        point_sampler=point_sampler,
        element_sampler=element_sampler,
    )


@functools.cache
def _q_rows(span: int, den: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(num, d) for d in range(1, den + 1)) for num in range(-span, span + 1)
    )


def _draw_q(rng: Random, span: int = 24, den: int = 8) -> Fraction:
    """``Fraction(randint(-span, span), randint(1, den))`` from a table: each
    ``choice`` consumes the same ``_randbelow`` draw as the ``randint`` it
    replaces, numerator first."""
    return rng.choice(rng.choice(_q_rows(span, den)))


# ---------------------------------------------------------------------------
# metric spaces
#
# Distances are unreduced ``(num, den)`` integer pairs with ``den > 0``, so
# the relations and refinement indices below compare cross-multiplied
# integers and build no Fractions.

def _ball_index(n: int, num: int, den: int) -> int:
    """Least index ``k`` with ``1/k < 1/n - num/den``: the refinement index
    of the radius-``1/n`` ball at a point ``num/den`` away from its center,
    which makes the triangle inequality close the F3 implication.  Scaling
    ``num`` and ``den`` by one factor leaves the floor division unchanged."""
    if num * n >= den:
        raise ValueError("delta is only defined on related pairs")
    return (n * den) // (den - n * num) + 1


def mk_metric(name: str, distance: Callable, draw_point: Callable) -> NeighborhoodOracle:
    """Oracle with neighborhoods of radius 1/n.

    ``distance(x, y)`` returns the distance as a ``(num, den)`` integer pair
    with ``den > 0``, not necessarily reduced, and must satisfy the usual
    three laws (trusted; checkable by sampling).  ``rel((n, x), y)`` iff
    ``d(x, y) < 1/n``; the refinement index is :func:`_ball_index`.
    """

    def relates(n, x, y):
        num, den = distance(x, y)
        return num * n < den

    def refine(n, x, y):
        return _ball_index(n, *distance(x, y))

    return mk_indexed_family(name, relates, refine, draw_point)


def _q_distance(x, y) -> tuple[int, int]:
    """``|x - y|`` of two rationals as an unreduced pair."""
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    return abs(xn * yd - yn * xd), xd * yd


def _max_distance(x, y) -> tuple[int, int]:
    """Max-norm distance of two rational vectors as an unreduced pair."""
    best_num, best_den = 0, 1
    for num, den in map(_q_distance, x, y):
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def metric_q() -> NeighborhoodOracle:
    return mk_metric("metric-q", _q_distance, _draw_q)


def metric_q2() -> NeighborhoodOracle:
    # max metric keeps distances rational
    def draw(rng):
        return (_draw_q(rng, 8, 4), _draw_q(rng, 8, 4))

    return mk_metric("metric-q2", _max_distance, draw)


def natural_metric() -> NeighborhoodOracle:
    """The metric-q neighborhoods read as a neighborhood base: the base
    sets are the balls and the refinement witness is the ball index."""
    return mk_metric("natural-metric", _q_distance, _draw_q)


def indexed_metric() -> NeighborhoodOracle:
    """The metric-q neighborhoods as a multiplicatively indexed family."""
    return mk_metric("indexed-metric", _q_distance, _draw_q)


def broken_metric_q() -> NeighborhoodOracle:
    """Mutant of ``metric-q`` whose refinement index sits one below the
    admissible bound; exists to prove the sampled checker can catch it."""

    def bad_delta(a, y):
        n, x = a
        return (_ball_index(n, *_q_distance(x, y)) - 1, y)

    return replace(metric_q(), name="broken-metric-q", delta=bad_delta)


# ---------------------------------------------------------------------------
# residue neighborhoods on the integers

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def mk_padic(p: int) -> NeighborhoodOracle:
    """Congruence-modulo-``p**n`` neighborhoods on the integers.

    The refinement simply recenters the congruence class; meets add the
    indices since ``p**(n+n2)`` refines both factors (tighter than the
    generic product recipe, equally valid).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")

    def relates(n, x, y):
        return (y - x) % p**n == 0

    def refine(n, x, y):
        return n

    return mk_indexed_family(
        f"padic:{p}",
        relates,
        refine,
        lambda rng: rng.randint(-10**4, 10**4),
        op=operator.add,
    )


def broken_padic(p: int) -> NeighborhoodOracle:
    """Mutant of ``padic:<p>`` that loosens the refinement index by one."""
    oracle = mk_padic(p)

    def bad_delta(a, y):
        n, _ = a
        return (n - 1, y)

    return replace(oracle, name=f"broken-padic:{p}", delta=bad_delta)


# ---------------------------------------------------------------------------
# eventually periodic binary-alphabet words

@dataclass(frozen=True)
class Word:
    """Eventually periodic infinite word over {0, 2}, canonical form.

    Canonicalization makes the period primitive and absorbs any preperiod
    tail that matches the rotated period, so equal infinite words compare
    equal as values.
    """

    pre: tuple[int, ...]
    per: tuple[int, ...]

    def __post_init__(self):
        pre, per = tuple(self.pre), tuple(self.per)
        if not per:
            raise ValueError("period must be nonempty")
        letters = pre + per
        if letters.count(0) + letters.count(2) != len(letters):
            raise ValueError("letters must be 0 or 2")
        for dlen in range(1, len(per) + 1):
            if len(per) % dlen == 0 and per == per[:dlen] * (len(per) // dlen):
                per = per[:dlen]
                break
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = (per[-1],) + per[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    def prefix(self, n: int) -> tuple[int, ...]:
        """The first ``n`` letters."""
        pre, per = self.pre, self.per
        if n <= len(pre):
            return pre[:n]
        return (pre + per * -(-(n - len(pre)) // len(per)))[:n]

    def __repr__(self):
        pre = "".join(map(str, self.pre))
        per = "".join(map(str, self.per))
        return f"Word({pre}|{per})"


def mk_cantor() -> NeighborhoodOracle:
    """Prefix-agreement neighborhoods on eventually periodic words:
    ``rel((n, u), w)`` iff the first ``n`` letters coincide."""

    def relates(n, u, w):
        return u.prefix(n) == w.prefix(n)

    def refine(n, u, w):
        if not relates(n, u, w):
            raise ValueError("delta is only defined on related pairs")
        return n

    def draw(rng):
        # choice(range(a, b + 1)) draws the same _randbelow as randint(a, b)
        pre = tuple(map(rng.choice, repeat((0, 2), rng.choice(range(5)))))
        per = tuple(map(rng.choice, repeat((0, 2), rng.choice(range(1, 5)))))
        return Word(pre, per)

    return mk_indexed_family("cantor", relates, refine, draw, index_max=5)


# ---------------------------------------------------------------------------
# the half-plane with disk-tangent boundary neighborhoods

def _norm2(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    """``(p/q)**2 + (r/s)**2`` as an unreduced pair."""
    qq, ss = q * q, s * s
    return p * p * ss + r * r * qq, qq * ss


def _min_shrink(n: int, D: tuple[int, int], scale: int) -> int:
    # least k with scale/k < 1/n and (1/n - scale/k)^2 > D, where
    # 1/n - scale/k = (k - scale*n) / (n*k) is positive from lo on
    d_num, d_den = D

    def fits(k):
        gap = k - scale * n
        return gap * gap * d_den > d_num * (n * k) ** 2

    lo = scale * n + 1
    hi = lo
    while not fits(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def mk_tangent_disk(strict_paper: bool = False) -> NeighborhoodOracle:
    """Rational half-plane with radius-1/n neighborhoods.

    Interior points get open Euclidean balls (membership decided on squared
    distances).  Boundary points get, by default, the ball of radius 1/n
    tangent to the axis plus the point itself; with ``strict_paper`` they
    get the plain half-disk instead.  In strict mode the element sampler
    stays on interior points; boundary points still appear as query points.
    """

    def check_point(w):
        if w[1].numerator < 0:
            raise ValueError("point below the horizontal axis")
        return w

    def offset(n, c, w):
        # (dx, dy) from w to the center of the radius-1/n ball at c, as two
        # (num, den) pairs: c itself, or (c[0], 1/n) for the tangent ball
        if c[1].numerator > 0 or strict_paper:
            return _q_distance(c[0], w[0]) + _q_distance(c[1], w[1])
        wn, wd = w[1].as_integer_ratio()
        return _q_distance(c[0], w[0]) + (wd - n * wn, n * wd)

    def relates(n, c, w):
        check_point(w)
        if c[1].numerator <= 0 and w == c:
            return True
        num, den = _norm2(*offset(n, c, w))
        return num * n * n < den

    def refine(n, c, w):
        if not relates(n, c, w):
            raise ValueError("delta is only defined on related pairs")
        if w == c:
            return n
        interior, w_interior = c[1].numerator > 0, w[1].numerator > 0
        if strict_paper and not interior and not w_interior:
            return _ball_index(n, *_q_distance(w[0], c[0]))
        # otherwise w lies strictly inside the ball around offset's center
        scale = 2 if interior and not w_interior else 1
        return _min_shrink(n, _norm2(*offset(n, c, w)), scale)

    def draw(rng):
        x = _draw_q(rng, 6, 4)
        if rng.random() < 0.3:
            y = Fraction(0)
        else:
            y = abs(_draw_q(rng, 6, 4))
        return (x, y)

    def draw_interior(rng):
        while True:
            pt = draw(rng)
            if pt[1] > 0:
                return pt

    oracle = mk_indexed_family(
        "tangent-disk:strict-paper" if strict_paper else "tangent-disk",
        relates,
        refine,
        draw,
        draw_element_point=draw_interior if strict_paper else None,
    )
    # the section, like the relation, rejects points below the axis
    return replace(oracle, unit=lambda w: (1, check_point(w)))


# ---------------------------------------------------------------------------
# normed abelian groups

@dataclass(frozen=True)
class GroupDescription:
    """Abelian group data: ``nsum(n, x)`` is the n-fold sum of ``x``."""

    zero: object
    add: Callable
    nsum: Callable
    draw_point: Callable


def _norm_index(num: int, den: int) -> int:
    # norm_step_index of a vector whose max norm is num/den
    if num == 0:
        return 1
    if num >= den:
        raise ValueError("index map is only defined inside the unit ball")
    k = den // num
    if den % num == 0:
        k -= 1
    return _ball_index(k, num, den)


def norm_step_index(v) -> int:
    """Refinement index for the max-norm unit-ball instance.

    With ``k`` the unique integer whose reciprocal steps bracket the norm
    (``1/(k+1) <= |v| < 1/k``), returns the least index whose reciprocal is
    strictly below ``1/k - |v|``, which is :func:`_ball_index` of ``k`` and
    ``|v|``.  Defined for ``0 < |v| < 1``; returns 1 at zero by convention
    (never consulted there by the refinement).
    """
    return _norm_index(*_max_distance(v, repeat(0)))


def normed_q(dim: int) -> NeighborhoodOracle:
    """Rational vectors with the max norm; the distinguished subset is the
    open unit ball.

    ``rel((n, x), y)`` iff the n-fold sum of ``x - y`` lies in the subset;
    the refinement uses the index map :func:`norm_step_index` on ``x - y``
    away from the diagonal and keeps the index on it.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    span, den = (24, 8) if dim == 1 else (8, 4)

    def relates(n, x, y):
        # n * |x_i - y_i| < 1 on every coordinate
        for num, d in map(_q_distance, x, y):
            if num * n >= d:
                return False
        return True

    def refine(n, x, y):
        if x == y:
            return n
        return _norm_index(*_max_distance(x, y))

    def draw(rng):
        return tuple(_draw_q(rng, span, den) for _ in range(dim))

    return mk_indexed_family(f"normed-q:{dim}", relates, refine, draw)


def check_normed_conditions(
    group: GroupDescription,
    member: Callable,
    h: Callable,
    n_samples: int = 2000,
    seed: int = 0,
) -> AxiomReport:
    """Sampled check of the three subset/index-map conditions.

    NG1: zero belongs to the subset.  NG2: membership of an (n*n2)-fold sum
    implies membership of both partial sums.  NG3: for nonzero ``a``, if the
    n-fold sum of ``a`` and the h(a)-fold sum of ``a2`` are members, so is
    the n-fold sum of ``a + a2``.  (At zero NG3 is vacuous: the refinement
    never consults ``h`` there.)
    """
    col = Collector()
    if not member(group.zero):
        col.add("NG1", {"seed": seed})
    rng = Random(seed)

    def wit():  # the current round's witness, built only on a violation
        return {"seed": seed, "round": rnd, "a": a, "a2": a2, "n": n, "n2": n2}

    for rnd in range(n_samples):
        a = group.draw_point(rng)
        a2 = group.draw_point(rng)
        n = rng.randint(1, 4)
        n2 = rng.randint(1, 4)
        if member(group.nsum(n * n2, a)) and not (
            member(group.nsum(n, a)) and member(group.nsum(n2, a))
        ):
            col.add("NG2", wit())
        if (
            a != group.zero
            and member(group.nsum(n, a))
            and member(group.nsum(h(a), a2))
            and not member(group.nsum(n, group.add(a, a2)))
        ):
            col.add("NG3", wit())
    return col.report()


# ---------------------------------------------------------------------------
# lazy morphisms from continuity moduli

@dataclass(frozen=True)
class ModulusMorphism:
    """Base map between oracle points plus an index modulus for liftings.

    The lifting of a target element ``(n, f(y))`` at source point ``y`` is
    ``(omega(n, y), y)``; it projects correctly by construction, and the
    neighborhood condition is checked by sampling.
    """

    source: NeighborhoodOracle
    target: NeighborhoodOracle
    f: Callable
    omega: Callable

    def lift(self, a_prime, y):
        return (self.omega(a_prime[0], y), y)


def check_modulus(
    mor: ModulusMorphism, n_samples: int, seed: int, verbose: bool = False
) -> AxiomReport:
    """Sampled verification of the lifting conditions of a modulus morphism.

    M1 (projection) holds by construction and is spot-checked; M2 fails on a
    sampled ``z`` in the lifted neighborhood whose image escapes the target
    neighborhood -- the witness records that ``z``.
    """
    col = Collector(verbose)
    elems = mor.target.element_sampler(2 * seed)
    points = mor.source.point_sampler(2 * seed + 1)
    for rnd in range(n_samples):
        n = next(elems)[0]
        y = next(points)
        z = next(points)
        a_prime = (n, mor.f(y))
        b = mor.lift(a_prime, y)
        pb = mor.source.proj(b)
        if pb is not y and pb != y:
            col.add("M1", {"seed": seed, "round": rnd, "n": n, "y": y, "lift": b})
        if mor.source.rel(b, z) and not mor.target.rel(a_prime, mor.f(z)):
            col.add("M2", {"seed": seed, "round": rnd, "n": n, "y": y, "lift": b, "z": z})
    return col.report()


# name -> (space, point map, modulus) of a modulus example on one space
_MODULI = {
    "padic3-shift": (lambda: mk_padic(3), lambda x: x + 1, lambda n, y: n),
    "padic3-scale": (lambda: mk_padic(3), lambda x: 3 * x, lambda n, y: n),
    "q-double": (metric_q, lambda x: 2 * x, lambda n, y: 2 * n),
    "q-double-bad": (metric_q, lambda x: 2 * x, lambda n, y: n),
}
MODULUS_NAMES = tuple(_MODULI)


def named_modulus(name: str) -> ModulusMorphism:
    """Built-in modulus examples: translation and scaling on padic:3, the
    doubling map on metric-q with a correct and a deliberately wrong modulus."""
    if name not in _MODULI:
        raise ValueError(f"unknown modulus example {name!r}")
    space, f, modulus = _MODULI[name]
    o = space()
    return ModulusMorphism(o, o, f, modulus)


# name -> constructor; a name ending in "<x>" stands for its prefix followed
# by an integer, which the constructor takes.
_INSTANCES = {
    "metric-q": metric_q,
    "metric-q2": metric_q2,
    "padic:<p>": mk_padic,
    "cantor": mk_cantor,
    "tangent-disk": mk_tangent_disk,
    "tangent-disk:strict-paper": lambda: mk_tangent_disk(strict_paper=True),
    "normed-q:<d>": normed_q,
    "indexed-metric": indexed_metric,
    "natural-metric": natural_metric,
}
INSTANCE_NAMES = tuple(_INSTANCES)


def named_instance(name: str) -> NeighborhoodOracle:
    """Resolve an instance selection string (see ``INSTANCE_NAMES``)."""
    for key, make in _INSTANCES.items():
        prefix, param, _ = key.partition("<")
        if not param:
            if name == key:
                return make()
        elif name.startswith(prefix):
            try:
                return make(int(name[len(prefix):]))
            except ValueError as exc:
                raise ValueError(f"bad instance {name!r}: {exc}") from None
    raise ValueError(f"unknown instance {name!r}")
