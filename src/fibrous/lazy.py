"""Neighborhood oracles for infinite carriers, with seeded sampled checking.

Every shipped instance uses exact rational or integer arithmetic, so a
sampled check can only fail because an axiom actually fails, never because
of rounding.  Elements are (index, point) pairs throughout; indices start
at 1 so that the unit element exists and meets can multiply indices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from random import Random
from typing import Callable, Iterator

from .report import AxiomReport, Collector

INSTANCE_NAMES = (
    "metric-q",
    "metric-q2",
    "padic:<p>",
    "cantor",
    "tangent-disk",
    "tangent-disk:strict-paper",
    "normed-q:<d>",
    "indexed-metric",
    "natural-metric",
)


@dataclass(frozen=True)
class NeighborhoodOracle:
    """Interface record for a lazily presented spatial fibrous preorder.

    ``proj`` sends an element to its point, ``rel(a, y)`` decides whether
    ``y`` lies in the neighborhood of ``a``, ``delta(a, y)`` refines ``a``
    at a related point, ``unit(y)`` is the section and ``meet(a, a2)`` the
    fiberwise meet.  The samplers take a seed and yield endless streams for
    :func:`sample_check`.
    """

    name: str
    proj: Callable
    rel: Callable
    delta: Callable
    unit: Callable
    meet: Callable
    point_sampler: Callable[[int], Iterator]
    element_sampler: Callable[[int], Iterator]
    point_eq: Callable = operator.eq


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
    F5/F6 on meets with derived same-fiber companions.  Violations carry the
    seed and round number, so any failure replays deterministically.  A
    passing report means no violation in ``n_samples`` rounds, not a proof.
    """
    col = Collector(verbose)
    elems = oracle.element_sampler(2 * seed)
    points = oracle.point_sampler(2 * seed + 1)
    eq = oracle.point_eq
    for rnd in range(n_samples):
        a = next(elems)
        a2 = next(elems)
        y = next(points)
        z = next(points)
        base = {"seed": seed, "round": rnd}
        xa = oracle.proj(a)
        if not oracle.rel(a, xa):
            col.add("F2", base | {"a": a})
        else:
            pairs = [(a, xa)]
            if not eq(y, xa) and oracle.rel(a, y):
                pairs.append((a, y))
            for src, tgt in pairs:
                b = oracle.delta(src, tgt)
                wit = base | {"a": src, "y": tgt, "delta": b}
                if not eq(oracle.proj(b), tgt):
                    col.add("F1", wit)
                if oracle.rel(b, z) and not oracle.rel(src, z):
                    col.add("F3", wit | {"z": z})
        u = oracle.unit(y)
        if not eq(oracle.proj(u), y):
            col.add("F4", base | {"y": y, "unit": u})
        mates = [oracle.unit(xa)]
        if oracle.rel(a2, xa):
            mates.append(oracle.delta(a2, xa))
        elif eq(oracle.proj(a2), xa):
            mates.append(a2)
        for mate in mates:
            c = oracle.meet(a, mate)
            wit = base | {"a": a, "a2": mate, "meet": c}
            if not eq(oracle.proj(c), xa):
                col.add("F5", wit)
            if oracle.rel(c, z) and not (oracle.rel(a, z) and oracle.rel(mate, z)):
                col.add("F6", wit | {"z": z})
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
        if a[1] != a2[1]:
            raise ValueError("meet needs a shared point")
        return (op(a[0], a2[0]), a[1])

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


def _draw_q(rng: Random, span: int = 24, den: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


# ---------------------------------------------------------------------------
# metric spaces

def _ball_index(n: int, d: Fraction) -> int:
    """Least index ``k`` with ``1/k < 1/n - d``: the refinement index of the
    radius-``1/n`` ball at a point ``d`` away from its center, which makes
    the triangle inequality close the F3 implication."""
    num, den = d.numerator, d.denominator
    if num * n >= den:
        raise ValueError("delta is only defined on related pairs")
    return (n * den) // (den - n * num) + 1


def mk_metric(name: str, distance: Callable, draw_point: Callable) -> NeighborhoodOracle:
    """Oracle with neighborhoods of radius 1/n.

    ``distance`` must return a Fraction and satisfy the usual three laws
    (trusted; checkable by sampling).  ``rel((n, x), y)`` iff
    ``d(x, y) < 1/n``; the refinement index is :func:`_ball_index`.
    """

    def relates(n, x, y):
        d = distance(x, y)
        return d.numerator * n < d.denominator

    def refine(n, x, y):
        return _ball_index(n, distance(x, y))

    return mk_indexed_family(name, relates, refine, draw_point)


def _q_distance(x, y):
    return abs(x - y)


def metric_q() -> NeighborhoodOracle:
    return mk_metric("metric-q", _q_distance, _draw_q)


def metric_q2() -> NeighborhoodOracle:
    # max metric keeps distances rational
    def dist(x, y):
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    def draw(rng):
        return (_draw_q(rng, 8, 4), _draw_q(rng, 8, 4))

    return mk_metric("metric-q2", dist, draw)


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
        return (_ball_index(n, abs(x - y)) - 1, y)

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


def mk_padic(p: int, index_max: int = 4, span: int = 10**4) -> NeighborhoodOracle:
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
        lambda rng: rng.randint(-span, span),
        op=operator.add,
        index_max=index_max,
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
        if any(c not in (0, 2) for c in pre + per):
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

    def letter(self, i: int) -> int:
        """1-based position."""
        if i < 1:
            raise ValueError("positions are 1-based")
        if i <= len(self.pre):
            return self.pre[i - 1]
        return self.per[(i - len(self.pre) - 1) % len(self.per)]

    def __repr__(self):
        pre = "".join(map(str, self.pre))
        per = "".join(map(str, self.per))
        return f"Word({pre}|{per})"


def mk_cantor(index_max: int = 5, max_pre: int = 4, max_per: int = 4) -> NeighborhoodOracle:
    """Prefix-agreement neighborhoods on eventually periodic words:
    ``rel((n, u), w)`` iff the first ``n`` letters coincide."""

    def relates(n, u, w):
        return all(u.letter(i) == w.letter(i) for i in range(1, n + 1))

    def refine(n, u, w):
        if not relates(n, u, w):
            raise ValueError("delta is only defined on related pairs")
        return n

    def draw(rng):
        pre = tuple(rng.choice((0, 2)) for _ in range(rng.randint(0, max_pre)))
        per = tuple(rng.choice((0, 2)) for _ in range(rng.randint(1, max_per)))
        return Word(pre, per)

    return mk_indexed_family("cantor", relates, refine, draw, index_max=index_max)


# ---------------------------------------------------------------------------
# the half-plane with disk-tangent boundary neighborhoods

def _dist2(a, b):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def _min_shrink(n: int, D: Fraction, scale: int) -> int:
    # least k with scale/k < 1/n and (1/n - scale/k)^2 > D
    def fits(k):
        gap = Fraction(1, n) - Fraction(scale, k)
        return gap > 0 and gap * gap > D

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


def mk_tangent_disk(strict_paper: bool = False, index_max: int = 4) -> NeighborhoodOracle:
    """Rational half-plane with radius-1/n neighborhoods.

    Interior points get open Euclidean balls (membership decided on squared
    distances).  Boundary points get, by default, the ball of radius 1/n
    tangent to the axis plus the point itself; with ``strict_paper`` they
    get the plain half-disk instead.  In strict mode the element sampler
    stays on interior points; boundary points still appear as query points.
    """

    def check_point(w):
        if w[1] < 0:
            raise ValueError("point below the horizontal axis")
        return w

    def radius2(n):
        return Fraction(1, n * n)

    def relates(n, c, w):
        check_point(w)
        if c[1] > 0:
            return _dist2(c, w) < radius2(n)
        if strict_paper:
            return w == c or _dist2(c, w) < radius2(n)
        return w == c or _dist2((c[0], Fraction(1, n)), w) < radius2(n)

    def refine(n, c, w):
        if not relates(n, c, w):
            raise ValueError("delta is only defined on related pairs")
        if w == c:
            return n
        if c[1] > 0:
            scale = 1 if w[1] > 0 else 2
            return _min_shrink(n, _dist2(c, w), scale)
        if strict_paper:
            if w[1] > 0:
                return _min_shrink(n, _dist2(c, w), 1)
            return _ball_index(n, abs(w[0] - c[0]))
        # w lies strictly inside the tangent ball, hence off the axis
        return _min_shrink(n, _dist2((c[0], Fraction(1, n)), w), 1)

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
        index_max=index_max,
        draw_element_point=draw_interior if strict_paper else None,
    )
    # the section, like the relation, rejects points below the axis
    return replace(oracle, unit=lambda w: (1, check_point(w)))


# ---------------------------------------------------------------------------
# normed abelian groups

@dataclass(frozen=True)
class GroupDescription:
    """Abelian group data: ``nsum(n, x)`` is the n-fold sum of ``x``."""

    name: str
    zero: object
    add: Callable
    neg: Callable
    nsum: Callable
    draw_point: Callable


def norm_step_index(v) -> int:
    """Refinement index for the max-norm unit-ball instance.

    With ``k`` the unique integer whose reciprocal steps bracket the norm
    (``1/(k+1) <= |v| < 1/k``), returns the least index whose reciprocal is
    strictly below ``1/k - |v|``.  Defined for ``0 < |v| < 1``; returns 1 at
    zero by convention (never consulted there by the refinement).
    """
    q = max(abs(c) for c in v)
    if q == 0:
        return 1
    if q >= 1:
        raise ValueError("index map is only defined inside the unit ball")
    inv = 1 / q
    k = inv.numerator // inv.denominator
    if inv.denominator == 1:
        k -= 1
    r = 1 / (Fraction(1, k) - q)
    return r.numerator // r.denominator + 1


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
        return max(abs(n * (a - b)) for a, b in zip(x, y)) < 1

    def refine(n, x, y):
        if x == y:
            return n
        return norm_step_index(tuple(a - b for a, b in zip(x, y)))

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
    for rnd in range(n_samples):
        a = group.draw_point(rng)
        a2 = group.draw_point(rng)
        n = rng.randint(1, 4)
        n2 = rng.randint(1, 4)
        wit = {"seed": seed, "round": rnd, "a": a, "a2": a2, "n": n, "n2": n2}
        if member(group.nsum(n * n2, a)) and not (
            member(group.nsum(n, a)) and member(group.nsum(n2, a))
        ):
            col.add("NG2", wit)
        if (
            a != group.zero
            and member(group.nsum(n, a))
            and member(group.nsum(h(a), a2))
            and not member(group.nsum(n, group.add(a, a2)))
        ):
            col.add("NG3", wit)
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
    eq = mor.source.point_eq
    for rnd in range(n_samples):
        n = next(elems)[0]
        y = next(points)
        z = next(points)
        a_prime = (n, mor.f(y))
        b = mor.lift(a_prime, y)
        wit = {"seed": seed, "round": rnd, "n": n, "y": y, "lift": b}
        if not eq(mor.source.proj(b), y):
            col.add("M1", wit)
        if mor.source.rel(b, z) and not mor.target.rel(a_prime, mor.f(z)):
            col.add("M2", wit | {"z": z})
    return col.report()


MODULUS_NAMES = ("padic3-shift", "padic3-scale", "q-double", "q-double-bad")


def named_modulus(name: str) -> ModulusMorphism:
    """Built-in modulus examples: translation and scaling on padic:3, the
    doubling map on metric-q with a correct and a deliberately wrong modulus."""
    if name == "padic3-shift":
        o = mk_padic(3)
        return ModulusMorphism(o, o, lambda x: x + 1, lambda n, y: n)
    if name == "padic3-scale":
        o = mk_padic(3)
        return ModulusMorphism(o, o, lambda x: 3 * x, lambda n, y: n)
    if name == "q-double":
        o = metric_q()
        return ModulusMorphism(o, o, lambda x: 2 * x, lambda n, y: 2 * n)
    if name == "q-double-bad":
        o = metric_q()
        return ModulusMorphism(o, o, lambda x: 2 * x, lambda n, y: n)
    raise ValueError(f"unknown modulus example {name!r}")


def named_instance(name: str) -> NeighborhoodOracle:
    """Resolve an instance selection string (see ``INSTANCE_NAMES``)."""
    if name == "metric-q":
        return metric_q()
    if name == "metric-q2":
        return metric_q2()
    if name == "cantor":
        return mk_cantor()
    if name == "tangent-disk":
        return mk_tangent_disk()
    if name == "tangent-disk:strict-paper":
        return mk_tangent_disk(strict_paper=True)
    if name == "indexed-metric":
        return indexed_metric()
    if name == "natural-metric":
        return natural_metric()
    if name.startswith("padic:"):
        try:
            return mk_padic(int(name.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad instance {name!r}: {exc}") from None
    if name.startswith("normed-q:"):
        try:
            return normed_q(int(name.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad instance {name!r}: {exc}") from None
    raise ValueError(f"unknown instance {name!r}")
