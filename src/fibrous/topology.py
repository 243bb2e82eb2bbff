"""Finite topologies as validated bitset families, plus exhaustive enumeration.

On a finite set every topology is the Alexandrov topology of exactly one
preorder, so a topology on ``k + 1`` points is one on ``k`` points plus the
new point's up-set (an old open set) and down-set (the complement of an old
open set).  :func:`enumerate_topologies` (up to 6 points) extends every
topology by every such pair that fits.  Two independent generators serve as
its oracles: a brute-force filter over all set families (up to 3 points) and
a minimal-neighborhood generator that dedups coherent choices (up to 4
points).

A topology is decided with two C-level passes over its pairs of opens, and
a failing family is scanned in C for its failing pairs (only the first of
each axiom unless the report is verbose); no family is walked pair by pair
in Python.  The union and meet closures make one pass per generator and
skip every mask already in the closure.  The enumeration and
:func:`union_closure` build opens that are already in range, distinct and
ascending, so the enumeration and ``functor_F_obj`` wrap them with
:func:`~fibrous.core.built`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, compress, count, islice, product, starmap
from operator import and_, attrgetter, itemgetter, not_, or_
from typing import Callable

from .bitsets import bits, first_outside, full_mask, is_subset, to_points
from .core import _all_of, _expect_object, _expect_point_count, _expect_point_lists, built
from .report import AxiomReport, Collector, FormatError

# Number of distinct topologies on 0..6 labelled points (OEIS A000798); the
# oracle generators agree on 0..4, and 4 points also match an independent
# count of reflexive transitive relations.
TOPOLOGY_COUNTS = (1, 1, 4, 29, 355, 6942, 209527)

# Largest union closure built.  Each new mask can double the closure, so a
# carrier of 26 singleton neighborhoods would build toward 2**26 open sets.
MAX_OPENS = 1 << 16


@dataclass(frozen=True)
class FiniteTopology:
    """A family of open sets over points ``0..nB-1``.

    ``opens`` is canonicalized on construction: duplicates removed and sorted
    ascending as integers.  Whether the family is actually a topology is
    decided by :func:`validate_topology`.
    """

    nB: int
    opens: tuple[int, ...]

    def __post_init__(self):
        if self.nB < 0:
            raise ValueError("point count must be non-negative")
        bad = first_outside(self.opens, 1 << self.nB)
        if bad is not None:
            raise ValueError(f"open set {self.opens[bad]:#b} has bits outside the base set")
        object.__setattr__(self, "opens", tuple(sorted(set(self.opens))))


def validate_topology(T: FiniteTopology, verbose: bool = False) -> AxiomReport:
    """Check that ``T.opens`` contains the empty and full sets and is closed
    under pairwise union and intersection; witnesses name the missing sets.

    A topology is decided by two C-level passes over the pairs of distinct
    opens (``u | u`` and ``u & u`` are ``u``).  For a failing family, each
    failing axiom is scanned in C again for the indices of its failing
    pairs: all of them for a verbose report, else only the first, which is
    all a report that keeps one witness per tag needs.  One more pass over the
    pairs names them, in pair order, union before intersection on one
    pair."""
    opens = T.opens
    members = set(opens)
    full = full_mask(T.nB)
    if (
        0 in members
        and full in members
        and members.issuperset(starmap(or_, combinations(opens, 2)))
        and members.issuperset(starmap(and_, combinations(opens, 2)))
    ):
        return AxiomReport()
    col = Collector(verbose)
    if 0 not in members:
        col.add("empty", ())
    if full not in members:
        col.add("full", (to_points(full),))
    # each failing axiom's pair indices in combinations(opens, 2): every one
    # for a verbose report, else the first
    hits = []
    for tag, op in (("union", or_), ("intersection", and_)):
        if members.issuperset(starmap(op, combinations(opens, 2))):
            continue
        outside = map(not_, map(members.__contains__, starmap(op, combinations(opens, 2))))
        ks = compress(count(), outside)
        hits.extend((k, tag) for k in (ks if verbose else islice(ks, 1)))
    # a stable sort keeps union before intersection on one pair
    pairs, last = combinations(opens, 2), -1
    for k, tag in sorted(hits, key=itemgetter(0)):
        if k != last:
            u, v = next(islice(pairs, k - last - 1, None))
            last = k
        col.add(tag, (to_points(u), to_points(v)))
    return col.report()


def specialization(
    T: FiniteTopology,
) -> tuple[tuple[int, ...], frozenset[tuple[int, int]]]:
    """Minimal open neighborhoods and the induced preorder on points.

    Returns ``(theta, leq)`` where ``theta[x]`` is the intersection of all
    opens containing ``x`` and ``(x, y) in leq`` iff ``y`` is in ``theta[x]``.
    """
    theta = []
    for x in range(T.nB):
        acc = full_mask(T.nB)
        for u in T.opens:
            if u >> x & 1:
                acc &= u
        theta.append(acc)
    leq = frozenset((x, y) for x in range(T.nB) for y in bits(theta[x]))
    return tuple(theta), leq


def union_closure(masks) -> tuple[int, ...]:
    """All unions of subfamilies of ``masks`` (the empty union included), as
    an ascending tuple; raises ``ValueError`` once there are more than
    ``MAX_OPENS``.

    The distinct masks are taken in ascending order, and a mask already in
    the closure is skipped: the closure is closed under unions, so it would
    add nothing.  A union of smaller masks is therefore never a pass; for
    the neighborhoods of a G-image only the at most ``nB`` generators are.
    """
    closed = {0}
    for m in sorted(set(masks)):
        if m not in closed:
            closed |= {c | m for c in closed}
            if len(closed) > MAX_OPENS:
                raise ValueError(f"the union closure has more than MAX_OPENS = {MAX_OPENS} open sets")
    return tuple(sorted(closed))


def meet_closure(masks) -> tuple[int, ...]:
    """All intersections of nonempty subfamilies of ``masks``, as an
    ascending tuple.  Like :func:`union_closure`, but the masks are taken in
    descending order, so an intersection of larger masks is skipped."""
    closed = set()
    for m in sorted(set(masks), reverse=True):
        if m not in closed:
            closed |= {c & m for c in closed}
            closed.add(m)
    return tuple(sorted(closed))


def enumerate_topologies_brute(n: int) -> list[FiniteTopology]:
    """Filter every family of subsets of an ``n``-point set.  n <= 3 only:
    the candidate count is 2^(2^n)."""
    if not 0 <= n <= 3:
        raise ValueError("brute-force enumeration is limited to 3 points")
    subsets = 1 << n
    found = []
    for fam in range(1 << subsets):
        members = [s for s in range(subsets) if fam >> s & 1]
        T = FiniteTopology(n, tuple(members))
        if validate_topology(T).passed:
            found.append(T)
    found.sort(key=lambda T: T.opens)
    return found


def enumerate_topologies_closure(n: int) -> list[FiniteTopology]:
    """Generate every topology from a coherent minimal-neighborhood choice.

    An assignment picks, for each point, a candidate minimal neighborhood
    containing it; coherence requires the choice at any point of a chosen set
    to refine that set.  The opens are then all unions of chosen sets.
    """
    if not 0 <= n <= 4:
        raise ValueError("closure enumeration is limited to 4 points")
    choices = [
        [m for m in range(1 << n) if m >> x & 1] for x in range(n)
    ]
    seen = {}
    for theta in product(*choices):
        if all(
            is_subset(theta[y], theta[x])
            for x in range(n)
            for y in bits(theta[x])
        ):
            seen[union_closure(theta)] = None
    return [FiniteTopology(n, opens) for opens in sorted(seen)]


def enumerate_topologies(n: int) -> list[FiniteTopology]:
    """All topologies on ``n`` points (n <= 6), sorted by their opens.

    Adds one point at a time.  A topology on ``0..k`` restricts to one on
    ``0..k-1`` and is fixed by two old opens: ``u``, the new point's minimal
    neighborhood without the point, and ``c``, the largest open missing the
    point.  Each pair with every old open inside ``c`` or containing ``u``
    gives one topology: the old opens inside ``c``, then ``o | new`` for each
    old ``o`` containing ``u``, already sorted.  The tests check this against
    the closure and brute-force generators.
    """
    if not 0 <= n <= 6:
        raise ValueError("enumeration supports at most 6 points")
    layer = [FiniteTopology(0, (0,))]
    for k in range(n):
        new = 1 << k
        children = []
        for T in layer:
            opens = T.opens
            # lists: freed tuples would stay parked in CPython's free lists
            # while cli.main pauses the collector
            inside = {c: [o for o in opens if o & ~c == 0] for c in opens}
            for u in opens:
                above = [o | new for o in opens if u & ~o == 0]
                # the old opens that do not contain u must lie inside c
                rest = reduce(or_, (o for o in opens if u & ~o), 0)
                children += [
                    built(FiniteTopology, nB=k + 1, opens=tuple(inside[c] + above))
                    for c in opens
                    if rest & ~c == 0
                ]
        layer = children
    layer.sort(key=attrgetter("opens"))
    return layer


def topology_to_json(T: FiniteTopology, points: Callable[[int], list[int]] = to_points) -> dict:
    """``{"nB", "opens"}`` with each open set as its point list.  A caller
    serializing many topologies passes a lookup into one shared table of
    point lists, so equal open sets share one list."""
    return {"nB": T.nB, "opens": list(map(points, T.opens))}


def topology_from_json(obj) -> FiniteTopology:
    _expect_object(obj, ("nB", "opens"))
    nB = obj["nB"]
    if not _all_of((nB,), int):
        raise FormatError('"nB" must be an integer')
    _expect_point_count(nB)
    return FiniteTopology(nB, _expect_point_lists(obj, "opens", nB))
