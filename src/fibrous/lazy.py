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
from random import Random
from typing import Callable, Iterator

from .report import AxiomReport, Collector

_MAX_INDEX = 4  # sampled indices, and the normed check's n and n2, lie in 1..4
_INDEX_BITS = _MAX_INDEX.bit_length()


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """Uniform draw from ``range(n)``, ``n > 0``, by the standard library's
    own rejection rule (``Random._randbelow_with_getrandbits``): take
    ``n.bit_length()`` bits and draw again while the value is ``n`` or more.
    With ``getrandbits = rng.getrandbits``, ``seq[_below(getrandbits,
    len(seq))]`` draws what ``rng.choice(seq)`` draws and ``a +
    _below(getrandbits, b - a + 1)`` what ``rng.randint(a, b)`` draws, from
    the same bits, so every shipped sampler replays from the ``getrandbits``
    stream alone.

    The hot samplers (the :func:`_q_draw` tables and the index draw of
    :func:`mk_indexed_family`) apply this rule inline, with the bit length
    computed once per sampler, so that a drawn value costs no extra call;
    they take the same ``getrandbits(k)`` calls in the same order.  ``test_samplers_draw_what_their_stdlib_form_draws``
    checks each of them against its ``choice``/``randint`` form."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


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
    ``n_samples`` rounds, not a proof.  ``seed`` must be non-negative:
    ``Random`` seeds by absolute value, so ``-s`` would replay ``s``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
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
            for tgt in (xa, y) if y is not xa and y != xa and rel(a, y) else (xa,):
                b = delta(a, tgt)
                pb = proj(b)
                if pb is not tgt and pb != tgt:
                    col.add("F1", {"seed": seed, "round": rnd, "a": a, "y": tgt, "delta": b})
                if rel(b, z) and not rel(a, z):
                    col.add(
                        "F3",
                        {"seed": seed, "round": rnd, "a": a, "y": tgt, "delta": b, "z": z},
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
) -> NeighborhoodOracle:
    """Oracle from an indexed family of relations ``relates(n, x, y)``.

    Elements are ``(n, x)`` pairs projecting to ``x``; the section is
    ``(1, y)`` and the meet of two elements over one point combines their
    indices with ``op``.  The refinement is ``(refine(n, x, y), y)``; a
    ``refine`` that is only defined on related pairs raises ``ValueError``
    on the others itself.  The element sampler draws indices uniformly from
    ``1.._MAX_INDEX`` and points from ``draw_point``, which also feeds the
    point sampler.
    """

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
        getrandbits = rng.getrandbits
        while True:
            i = getrandbits(_INDEX_BITS)  # _below(getrandbits, _MAX_INDEX), inline
            while i >= _MAX_INDEX:
                i = getrandbits(_INDEX_BITS)
            yield (1 + i, draw_point(rng))

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
def _q_draw(span: int, den: int, absolute: bool = False) -> Callable[[Random], Fraction]:
    """Draw function for ``Fraction(randint(-span, span), randint(1, den))``
    (its absolute value with ``absolute``), numerator first, read from a
    table built once per argument set: row ``num + span`` holds ``num/1 ..
    num/den``.  The row and then the column index are drawn by
    :func:`_below`'s rule, applied inline, so they consume the bits the two
    ``randint`` calls would."""
    rows = tuple(
        tuple(Fraction(abs(num) if absolute else num, d) for d in range(1, den + 1))
        for num in range(-span, span + 1)
    )
    n_rows = len(rows)
    row_bits, col_bits = n_rows.bit_length(), den.bit_length()

    def draw(rng: Random) -> Fraction:
        getrandbits = rng.getrandbits
        r = getrandbits(row_bits)
        while r >= n_rows:
            r = getrandbits(row_bits)
        c = getrandbits(col_bits)
        while c >= den:
            c = getrandbits(col_bits)
        return rows[r][c]

    return draw


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


def _in_max_ball(n, x, y) -> bool:
    """Whether ``n * |x_i - y_i| < 1`` on every coordinate of two rational
    vectors, that is ``_max_distance(x, y) < 1/n``; stops at the first
    coordinate that fails."""
    for xi, yi in zip(x, y):
        xn, xd = xi.as_integer_ratio()
        yn, yd = yi.as_integer_ratio()
        if abs(xn * yd - yn * xd) * n >= xd * yd:
            return False
    return True


def metric_q() -> NeighborhoodOracle:
    return mk_metric("metric-q", _q_distance, _q_draw(24, 8))


def metric_q2() -> NeighborhoodOracle:
    """Rational pairs with radius-1/n balls of the max metric, the metric of
    ``normed_q_group(2)``, whose relation and point draws it takes; the
    refinement index is :func:`_ball_index`, as :func:`mk_metric` would
    build it from ``_max_distance``."""
    group = normed_q_group(2)

    def refine(n, x, y):
        return _ball_index(n, *_max_distance(x, y))

    return mk_indexed_family("metric-q2", group.within, refine, group.draw_point)


def broken_metric_q() -> NeighborhoodOracle:
    """Mutant of ``metric-q`` whose refinement index sits one below the
    admissible bound; exists to prove the sampled checker can catch it."""

    def bad_delta(a, y):
        n, x = a
        return (_ball_index(n, *_q_distance(x, y)) - 1, y)

    return replace(metric_q(), name="broken-metric-q", delta=bad_delta)


# ---------------------------------------------------------------------------
# residue neighborhoods on the integers

_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least odd composite that is a strong probable prime to all of
# _PRIME_BASES (Sorenson and Webster 2015), so the test is exact below it
_PRIME_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test to the bases 2 to 37; raises
    ``ValueError`` from ``_PRIME_BOUND`` on, where it is no longer exact."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"primality is only decided below {_PRIME_BOUND}")
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
        lambda rng: _below(rng.getrandbits, 2 * 10**4 + 1) - 10**4,
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

# the letters a Word's mask covers
_HEAD_LETTERS = 64


@dataclass(frozen=True)
class Word:
    """Eventually periodic infinite word over {0, 2}, canonical form.

    Canonicalization makes the period primitive and absorbs any preperiod
    tail that matches the rotated period, so equal infinite words compare
    equal as values.  ``head`` masks the first 64 letters, bit ``i`` set iff
    letter ``i`` is 2; it is an attribute, not a field.
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
        # not a field, so ==, hash and repr still read pre and per alone
        head = sum(1 << i for i, c in enumerate(self.prefix(_HEAD_LETTERS)) if c == 2)
        object.__setattr__(self, "head", head)

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


@functools.cache
def _coded_word(n_pre: int, pre_code: int, n_per: int, per_code: int) -> Word:
    """The word whose preperiod and period are the ``n_pre`` and ``n_per``
    letters coded by the bits of ``pre_code`` and ``per_code``, first letter
    in the highest bit, a 1 bit for the letter 2.  The cache is the
    process-wide table of the words the cantor sampler has drawn: at most
    31 preperiods times 30 periods, so at most 930 entries."""

    def letters(n, code):
        return tuple([2 * (code >> i & 1) for i in range(n - 1, -1, -1)])

    return Word(letters(n_pre, pre_code), letters(n_per, per_code))


def mk_cantor() -> NeighborhoodOracle:
    """Prefix-agreement neighborhoods on eventually periodic words:
    ``rel((n, u), w)`` iff the first ``n`` letters coincide.

    The samplers draw through one process-wide table of words, so equal
    draws hand back one shared :class:`Word`; words are frozen values."""

    def relates(n, u, w):
        if u is w:
            return True
        if n <= _HEAD_LETTERS:
            return not (u.head ^ w.head) & ((1 << n) - 1)
        return u.prefix(n) == w.prefix(n)

    def refine(n, u, w):
        if not relates(n, u, w):
            raise ValueError("delta is only defined on related pairs")
        return n

    def draw(rng):
        # a preperiod of 0-4 letters, then a period of 1-4, each length
        # followed by its letters as one code (getrandbits(0) is 0)
        getrandbits = rng.getrandbits
        n_pre = _below(getrandbits, 5)
        pre_code = getrandbits(n_pre)
        n_per = 1 + _below(getrandbits, 4)
        return _coded_word(n_pre, pre_code, n_per, getrandbits(n_per))

    return mk_indexed_family("cantor", relates, refine, draw)


# ---------------------------------------------------------------------------
# the half-plane with disk-tangent boundary neighborhoods

def _min_shrink(n: int, D: tuple[int, int], scale: int) -> int:
    # least k with scale/k < 1/n and (1/n - scale/k)^2 > D, where
    # 1/n - scale/k = (k - scale*n) / (n*k) is positive from lo on; the
    # bisection is written out so that no range length bounds the answer
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


_ZERO = Fraction(0)


def mk_tangent_disk(strict_paper: bool = False) -> NeighborhoodOracle:
    """Rational half-plane with radius-1/n neighborhoods.

    Interior points get open Euclidean balls (membership decided on squared
    distances).  Boundary points get, by default, the ball of radius 1/n
    tangent to the axis plus the point itself; with ``strict_paper`` they
    get the plain half-disk instead.  The relation and the refinement read
    coordinates through ``as_integer_ratio()``, so Fractions and ints both
    work.  The samplers draw coordinates from tables built once, so equal
    draws may share one Fraction.
    """

    def check_point(w):
        if w[1].numerator < 0:
            raise ValueError("point below the horizontal axis")
        return w

    def dist2(n, c, w):
        # squared distance from w to the center of the radius-1/n ball at c
        # (c itself, or (c[0], 1/n) for the tangent ball) as an unreduced
        # pair; None exactly when w == c, in both modes (the tangent ball
        # omits the axis point c, so the relation adds it back)
        wy, wyd = w[1].as_integer_ratio()
        if wy < 0:
            raise ValueError("point below the horizontal axis")
        cx, cxd = c[0].as_integer_ratio()
        wx, wxd = w[0].as_integer_ratio()
        cy, cyd = c[1].as_integer_ratio()
        dx, dxd = cx * wxd - wx * cxd, cxd * wxd
        if cy > 0 or strict_paper:
            dy, dyd = cy * wyd - wy * cyd, cyd * wyd
            if not (dx or dy):
                return None
        elif not dx and wy == cy:  # wy >= 0 >= cy, so both are 0
            return None
        else:
            dy, dyd = wyd - n * wy, n * wyd
        dxd *= dxd
        dyd *= dyd
        return dx * dx * dyd + dy * dy * dxd, dxd * dyd

    def relates(n, c, w):
        d = dist2(n, c, w)
        return d is None or d[0] * n * n < d[1]

    def refine(n, c, w):
        d = dist2(n, c, w)
        if d is None:
            return n
        if d[0] * n * n >= d[1]:
            raise ValueError("delta is only defined on related pairs")
        # w lies strictly inside the ball whose center dist2 measures
        scale = 2 if c[1].numerator > 0 and w[1].numerator == 0 else 1
        return _min_shrink(n, d, scale)

    draw_x = _q_draw(6, 4)
    draw_y = _q_draw(6, 4, absolute=True)

    def draw(rng):
        x = draw_x(rng)
        return (x, _ZERO if rng.random() < 0.3 else draw_y(rng))

    name = "tangent-disk:strict-paper" if strict_paper else "tangent-disk"
    oracle = mk_indexed_family(name, relates, refine, draw)
    # the section, like the relation, rejects points below the axis
    return replace(oracle, unit=lambda w: (1, check_point(w)))


# ---------------------------------------------------------------------------
# normed abelian groups

# Largest normed-q dimension.  Every drawn point holds ``dim`` coordinates,
# so a far larger one only exhausts memory before the first round finishes.
MAX_DIM = 1 << 10


@dataclass(frozen=True)
class NormedGroup:
    """Abelian group with a distinguished subset ``U`` and an index map ``h``.

    ``within(n, x, y)`` says whether the n-fold sum of ``x - y`` lies in
    ``U`` and ``step(x, y)`` is ``h(x - y)``; neither builds ``x - y``.
    """

    zero: object
    add: Callable
    within: Callable
    step: Callable
    draw_point: Callable


def _norm_index(num: int, den: int) -> int:
    """Index map of the max-norm unit ball at a vector of norm ``q = num/den``:
    with ``1/(k+1) <= q < 1/k``, the least index whose reciprocal is below
    ``1/k - q``, which is :func:`_ball_index` of ``k`` and ``q``.  Defined
    for ``0 < q < 1``; 1 at zero, where the refinement never consults it."""
    if num == 0:
        return 1
    if num >= den:
        raise ValueError("index map is only defined inside the unit ball")
    return _ball_index((den - 1) // num, num, den)


def normed_q_group(dim: int) -> NormedGroup:
    """Rational vectors with the max norm; the subset is the open unit ball,
    so ``within`` is :func:`_in_max_ball`.  ``dim`` is at most ``MAX_DIM``."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} is above the limit of {MAX_DIM}")
    draw_q = _q_draw(24, 8) if dim == 1 else _q_draw(8, 4)
    if dim == 2:
        def draw_point(rng):
            return (draw_q(rng), draw_q(rng))
    else:
        def draw_point(rng):
            return tuple([draw_q(rng) for _ in range(dim)])
    return NormedGroup(
        zero=(_ZERO,) * dim,
        add=lambda x, y: tuple(map(operator.add, x, y)),
        within=_in_max_ball,
        step=lambda x, y: _norm_index(*_max_distance(x, y)),
        draw_point=draw_point,
    )


def mk_normed_group(name: str, group: NormedGroup) -> NeighborhoodOracle:
    """Oracle with ``rel((n, x), y)`` iff ``group.within(n, x, y)``; the
    refinement keeps the index on the diagonal and is ``group.step(x, y)``
    off it."""
    step = group.step

    def refine(n, x, y):
        return n if x == y else step(x, y)

    return mk_indexed_family(name, group.within, refine, group.draw_point)


def normed_q(dim: int) -> NeighborhoodOracle:
    """The ``normed-q:<dim>`` oracle, built from :func:`normed_q_group`."""
    return mk_normed_group(f"normed-q:{dim}", normed_q_group(dim))


def check_normed_conditions(
    group: NormedGroup, n_samples: int = 2000, seed: int = 0
) -> AxiomReport:
    """Sampled check of the three subset/index-map conditions of ``group``.

    NG1: zero belongs to the subset.  NG2: membership of an (n*n2)-fold sum
    implies membership of both partial sums.  NG3: for nonzero ``a``, if the
    n-fold sum of ``a`` and the h(a)-fold sum of ``a2`` are members, so is
    the n-fold sum of ``a + a2``.  (At zero NG3 is vacuous: the refinement
    never consults ``h`` there.)  NG1-NG3 are F2, F6 and F3 of
    ``mk_normed_group(name, group)`` at ``a = x - y`` and ``a2 = y - z``.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    col = Collector()
    zero, within = group.zero, group.within
    if not within(1, zero, zero):
        col.add("NG1", {"seed": seed})
    rng = Random(seed)
    getrandbits = rng.getrandbits

    def wit():  # the current round's witness, built only on a violation
        return {"seed": seed, "round": rnd, "a": a, "a2": a2, "n": n, "n2": n2}

    for rnd in range(n_samples):
        a = group.draw_point(rng)
        a2 = group.draw_point(rng)
        n = 1 + _below(getrandbits, _MAX_INDEX)
        n2 = 1 + _below(getrandbits, _MAX_INDEX)
        if within(n * n2, a, zero) and not (within(n, a, zero) and within(n2, a, zero)):
            col.add("NG2", wit())
        if (
            a != zero
            and within(n, a, zero)
            and within(group.step(a, zero), a2, zero)
            and not within(n, group.add(a, a2), zero)
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
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
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
    # aliases of metric-q that existing command lines still name
    "indexed-metric": metric_q,
    "natural-metric": metric_q,
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
            suffix = name[len(prefix):]
            try:
                # only canonical ASCII decimals, so that the name is the oracle's
                if not (suffix.isascii() and suffix.isdigit()) or suffix != str(int(suffix)):
                    raise ValueError("the suffix must be a decimal without sign or leading zeros")
                return make(int(suffix))
            except ValueError as exc:
                raise ValueError(f"bad instance {name!r}: {exc}") from None
    raise ValueError(f"unknown instance {name!r}")
