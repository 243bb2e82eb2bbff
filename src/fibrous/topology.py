"""Finite topologies as validated bitset families, plus exhaustive enumeration.

Two independent generators are provided so that each can serve as an oracle
for the other: a brute-force filter over all set families (practical for up
to 3 points) and a minimal-neighborhood generator (up to 4 points).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bitsets import bits, full_mask, is_subset, to_points
from .core import _expect_point_count, _expect_point_lists, _is_int
from .report import AxiomReport, Collector, FormatError

# Number of distinct topologies on 0..4 labelled points, agreed by both
# generators (and, for 4 points, by an independent preorder count).
TOPOLOGY_COUNTS = (1, 1, 4, 29, 355)


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
        top = full_mask(self.nB)
        for mask in self.opens:
            if not 0 <= mask <= top:
                raise ValueError(f"open set {mask:#b} has bits outside the base set")
        object.__setattr__(self, "opens", tuple(sorted(set(self.opens))))


def validate_topology(T: FiniteTopology, verbose: bool = False) -> AxiomReport:
    """Check that ``T.opens`` contains the empty and full sets and is closed
    under pairwise union and intersection; witnesses name the missing sets."""
    col = Collector(verbose)
    members = set(T.opens)
    if 0 not in members:
        col.add("empty", ())
    full = full_mask(T.nB)
    if full not in members:
        col.add("full", (to_points(full),))
    for u in T.opens:
        for v in T.opens:
            if v < u:
                continue
            if u | v not in members:
                col.add("union", (to_points(u), to_points(v)))
            if u & v not in members:
                col.add("intersection", (to_points(u), to_points(v)))
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
    """All unions of subfamilies of ``masks`` (the empty union included)."""
    closed = {0}
    for m in set(masks):
        closed |= {c | m for c in closed}
    return tuple(sorted(closed))


def meet_closure(masks) -> tuple[int, ...]:
    """All intersections of nonempty subfamilies of ``masks``."""
    closed = set()
    for m in set(masks):
        closed |= {c & m for c in closed} | {m}
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
    """All topologies on ``n`` points (n <= 4), deterministic order, from
    the minimal-neighborhood generator; the tests check it against the
    brute-force filter."""
    if n < 0 or n > 4:
        raise ValueError("enumeration supports at most 4 points")
    return enumerate_topologies_closure(n)


def topology_to_json(T: FiniteTopology) -> dict:
    return {"nB": T.nB, "opens": [to_points(u) for u in T.opens]}


def topology_from_json(obj) -> FiniteTopology:
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object")
    if "nB" not in obj or "opens" not in obj:
        raise FormatError('missing key "nB" or "opens"')
    nB = obj["nB"]
    if not _is_int(nB):
        raise FormatError('"nB" must be an integer')
    _expect_point_count(nB)
    return FiniteTopology(nB, _expect_point_lists(obj, "opens", nB))
