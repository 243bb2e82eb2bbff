"""Finite fibrous preorders: exact representation and exhaustive checks.

A finite instance is a projection ``p`` from fibre elements to base points,
a related-points bitset ``R[a]`` per element, and a refinement table ``d``
defined on exactly the related pairs; ``p`` and ``R`` alone form a
:class:`FinNeighborhoods`, the part that the equivalence checks read.  The
checks here are exhaustive, so a passing report is a proof at this carrier
size.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse, islice, product
from operator import itemgetter

from .bitsets import bits, first_outside, from_points, to_points
from .report import AxiomReport, Collector, FormatError, StructureError


def built(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields``, made without
    its checks.  Constructors called from outside check; the package's own
    builders use this on values that already hold every invariant that
    ``cls(**fields)`` checks, in the form it stores (tuples, not lists)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class FinNeighborhoods:
    """The neighborhood part of a finite carrier, without its refinements:
    base points ``0..nB-1`` and elements ``0..nA-1``.

    ``p[a]`` is the point of element ``a`` and ``R[a]`` the bitset of points
    related to ``a``.  This is all that :func:`_cover`,
    :func:`verify_equivalence` and the conversion to a topology read.  The
    constructor checks sizes and ranges and raises :class:`StructureError`
    otherwise.
    """

    nB: int
    nA: int
    p: tuple[int, ...]
    R: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(self.p))
        object.__setattr__(self, "R", tuple(self.R))
        if self.nB < 0 or self.nA < 0:
            raise StructureError("sizes must be non-negative")
        if len(self.p) != self.nA:
            raise StructureError(f"p has {len(self.p)} entries, expected {self.nA}")
        if len(self.R) != self.nA:
            raise StructureError(f"R has {len(self.R)} rows, expected {self.nA}")
        _check_values(self.p, enumerate(self.p), self.nB, "p")
        bad = first_outside(self.R, 1 << self.nB)
        if bad is not None:
            raise StructureError(f"R[{bad}] has bits outside the base set")

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """``fibers[x]``: the elements over point ``x``, ascending."""
        return tuple(map(tuple, fibers_of(self.p, self.nB)))

    def least_within(self, x: int, S: int) -> int | None:
        """The least element over point ``x`` whose neighborhood lies inside
        the point set ``S``, or ``None`` if there is none."""
        R = self.R
        for a in self.fibers[x]:
            if not R[a] & ~S:
                return a
        return None


@dataclass(frozen=True)
class FinFibrousPreorder(FinNeighborhoods):
    """Finite carrier: :class:`FinNeighborhoods` plus a refinement table.

    ``d[(a, b)]`` is a refining element, present for exactly the pairs with
    ``b`` set in ``R[a]``.  Values are immutable once built; the constructor
    enforces the structural invariants and raises :class:`StructureError`
    otherwise.
    """

    d: dict[tuple[int, int], int]

    def __post_init__(self):
        super().__post_init__()
        check_table(self.d, tuple(map(bits, self.R)), self.nA, "d", "the related pairs")


def check_table(table: dict, rows, n_values: int, name: str, pairs: str) -> None:
    """Raise :class:`StructureError` unless the keys of ``table`` are exactly
    the domain given by ``rows`` and every value lies in ``range(n_values)``;
    ``pairs`` names the domain in the message.

    ``rows[x]`` is the ascending sequence of the ``y`` that form keys
    ``(x, y)``, so the domain has ``sum(map(len, rows))`` keys.  They are
    walked in sorted order by one pass in C, never stored, and the walk
    stops at the third key missing from ``table``.  Only on failure is each
    table key looked up in its row, to name the extra keys.  So the work is
    bounded by the table and the rows, never by the domain."""
    walk = chain.from_iterable(map(product, zip(range(len(rows))), rows))
    missing = list(islice(filterfalse(table.__contains__, walk), 3))
    if missing or sum(map(len, rows)) != len(table):
        extra = sorted(key for key in table if not _in_rows(rows, *key))[:3]
        raise StructureError(
            f"{name} table must cover exactly {pairs}"
            f" (missing {missing}, extra {extra})"
        )
    _check_values(table.values(), table.items(), n_values, name)


def _in_rows(rows, x: int, y: int) -> bool:
    """Whether ``(x, y)`` is a key of the domain ``rows``: one bisect."""
    row = rows[x] if 0 <= x < len(rows) else ()
    i = bisect_right(row, y)
    return y in row[i - 1:i]  # empty for i == 0


def check_map(values, n: int, n_values: int, name: str) -> None:
    """Raise :class:`StructureError` unless the sequence ``values`` has ``n``
    entries, each in ``range(n_values)``: a total map from ``range(n)``."""
    if len(values) != n:
        raise StructureError(f"{name} has {len(values)} entries, expected {n}")
    _check_values(values, enumerate(values), n_values, name)


def _check_values(values, items, n_values: int, name: str) -> None:
    # ``items`` holds the (key, value) pairs in the order of ``values``
    bad = first_outside(values, n_values)
    if bad is not None:
        key, t = next(islice(items, bad, None))
        raise StructureError(f"{name}[{key}]={t} out of range")


def fibers_of(f, n: int) -> list[list[int]]:
    """``out[y]``: the ascending ``b`` with ``f[b] == y``, for the sequence
    ``f`` of a map into ``range(n)``, such as a projection or a base map."""
    out = [[] for _ in range(n)]
    for b, y in enumerate(f):
        out[y].append(b)
    return out


def misfits(col: Collector, over_tag: str, inside_tag: str | None, p, R, rows) -> None:
    """The fit check of every finite verifier.  A row ``(key, t, x, S)``
    whose element ``t`` is not over ``x`` adds ``over_tag`` with witness
    ``key``; one whose ``R[t]`` leaves ``S`` adds ``inside_tag`` with ``key``
    plus the least escaping point.  Violations go in key order, one row's in
    the order found."""
    found = []
    for key, t, x, S in rows:
        if p[t] != x:
            found.append((key, over_tag, key))
        escaped = R[t] & ~S
        if escaped:
            found.append((key, inside_tag, key + (bits(escaped)[0],)))
    found.sort(key=itemgetter(0))
    for _, tag, witness in found:
        col.add(tag, witness)


@dataclass(frozen=True)
class SpatialWitness:
    """Section ``s`` of the projection plus a fiberwise meet table ``m``.

    ``m`` must be defined for exactly the ordered element pairs with equal
    projection; this is validated against a carrier by :func:`check_axioms`.
    """

    s: tuple[int, ...]
    m: dict[tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(self.s))


@dataclass(frozen=True)
class EquivalenceWitness:
    """Fiber maps ``phi`` and ``gamma`` certifying two carriers present the
    same neighborhoods over a shared base (checked by
    :func:`verify_equivalence`)."""

    phi: tuple[int, ...]
    gamma: tuple[int, ...]


def validate_witness(X: FinFibrousPreorder, w: SpatialWitness) -> None:
    """Raise :class:`StructureError` unless ``w`` is structurally valid for ``X``."""
    check_map(w.s, X.nB, X.nA, "s")
    check_table(w.m, tuple(map(X.fibers.__getitem__, X.p)), X.nA, "m", "the same-fiber pairs")


def check_axioms(
    X: FinFibrousPreorder,
    w: SpatialWitness | None = None,
    verbose: bool = False,
) -> AxiomReport:
    """Exhaustively check F1-F3 on ``X`` and, if ``w`` is given, F4-F6.

    F1: the refinement of (a, b) projects to b.
    F2: every element is related to its own point.
    F3: the refinement's neighborhood is contained in the original one.
    F4: the section is a section.
    F5: meets stay in their fiber.
    F6: a meet's neighborhood is contained in both arguments' neighborhoods.

    Each violation carries a witness tuple of indices (the ``d``, ``s`` and
    ``m`` tables each take one :func:`misfits` pass).  Structural problems
    raise :class:`StructureError` instead of being reported as violations.
    """
    col = Collector(verbose)
    p, R = X.p, X.R
    misfits(col, "F1", "F3", p, R, (((a, b), t, b, R[a]) for (a, b), t in X.d.items()))
    for a in range(X.nA):
        if not R[a] >> p[a] & 1:
            col.add("F2", (a,))
    if w is not None:
        validate_witness(X, w)
        # every neighborhood lies inside the full set -1, so F4 has no twin
        misfits(col, "F4", None, p, R, (((y,), t, y, -1) for y, t in enumerate(w.s)))
        # the meet table is the largest: screen it with misfits' own test
        # and hand misfits only the failing rows to report
        m = w.m
        bad = [
            (a, a2)
            for (a, a2), t in m.items()
            if p[t] != p[a] or R[t] & ~(R[a] & R[a2])
        ]
        meets = (((a, a2), m[a, a2], p[a], R[a] & R[a2]) for a, a2 in bad)
        misfits(col, "F5", "F6", p, R, meets)
    return col.report()


def _cover(src: FinNeighborhoods, dst: FinNeighborhoods) -> tuple[int, ...] | None:
    # For each src element, least dst element over the same point whose
    # neighborhood is contained in the src neighborhood.
    out = tuple(map(dst.least_within, src.p, src.R))
    return None if None in out else out


def find_equivalence(
    X: FinFibrousPreorder, Xp: FinFibrousPreorder
) -> EquivalenceWitness | None:
    """Search for an equivalence witness between two carriers over one base.

    Returns a witness iff every element on each side is covered by one on
    the other side (same point, smaller-or-equal neighborhood); the search
    is complete, so ``None`` means no witness exists.  Choice rule: when the
    two carriers have identical projection and neighborhood tables the
    identity maps are returned, otherwise the least admissible index.
    """
    if X.nB != Xp.nB:
        raise ValueError(f"base sizes differ ({X.nB} vs {Xp.nB})")
    if X.nA == Xp.nA and X.p == Xp.p and X.R == Xp.R:
        ident = tuple(range(X.nA))
        return EquivalenceWitness(ident, ident)
    phi = _cover(X, Xp)
    if phi is None:
        return None
    gamma = _cover(Xp, X)
    if gamma is None:
        return None
    return EquivalenceWitness(phi, gamma)


def verify_equivalence(
    X: FinNeighborhoods,
    Xp: FinNeighborhoods,
    w: EquivalenceWitness,
    verbose: bool = False,
) -> AxiomReport:
    """Check the commuting squares and the F9/F10 neighborhood inclusions,
    one :func:`misfits` pass for ``phi`` and one for ``gamma``."""
    if X.nB != Xp.nB:
        raise ValueError(f"base sizes differ ({X.nB} vs {Xp.nB})")
    check_map(w.phi, X.nA, Xp.nA, "phi")
    check_map(w.gamma, Xp.nA, X.nA, "gamma")
    col = Collector(verbose)
    phis = (((a,), t, X.p[a], X.R[a]) for a, t in enumerate(w.phi))
    misfits(col, "P-PHI", "F9", Xp.p, Xp.R, phis)
    gammas = (((a2,), t, Xp.p[a2], Xp.R[a2]) for a2, t in enumerate(w.gamma))
    misfits(col, "P-GAMMA", "F10", X.p, X.R, gammas)
    return col.report()


def find_umap(
    X: FinFibrousPreorder,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Look for a section picking a minimum-neighborhood element per fiber.

    Returns ``(u, R0)`` where ``u[x]`` is the least element over ``x`` whose
    neighborhood is contained in every neighborhood in that fiber, and
    ``R0[x]`` is that neighborhood (a reflexive transitive relation on the
    base when ``X`` passes F1-F3).  ``None`` iff some fiber is empty or has
    no minimum.
    """
    R = X.R
    u = []
    for x, fiber in enumerate(X.fibers):
        meet = ~0
        for a in fiber:
            meet &= R[a]
        u.append(X.least_within(x, meet))
    if None in u:
        return None
    return tuple(u), tuple(R[a] for a in u)


def table_rows(table: dict[tuple[int, int], int]) -> list[list[int]]:
    """The ``[x, y, value]`` rows of a pair-keyed table, in key order.  Only
    the keys are sorted, so no (key, value) pair is built per row."""
    return [[x, y, table[x, y]] for x, y in sorted(table)]


def preorder_to_json(
    X: FinFibrousPreorder, w: SpatialWitness | None = None
) -> dict:
    """JSON object form; indices canonical, rows as sorted point lists."""
    obj = {
        "nB": X.nB,
        "nA": X.nA,
        "p": list(X.p),
        "R": [to_points(row) for row in X.R],
        "d": table_rows(X.d),
    }
    if w is not None:
        obj["s"] = list(w.s)
        obj["m"] = table_rows(w.m)
    return obj


# Largest base the JSON readers accept.  Point sets are bitsets and several
# checks build one entry per point, so a larger base only exhausts memory
# (2**33 points make a 1 GiB bitset) long before a check could finish.
MAX_POINTS = 1 << 16


def _expect_point_count(nB: int) -> None:
    if nB > MAX_POINTS:
        raise FormatError(f'"nB" is {nB}, above the limit of {MAX_POINTS} points')


def _all_of(values, cls: type) -> bool:
    """Whether every value is a ``cls`` and none is a bool.  One subclass
    test per distinct type, so the pass over the values runs in C."""
    return all(
        issubclass(t, cls) and not issubclass(t, bool) for t in set(map(type, values))
    )


def _expect_object(obj, keys) -> None:
    """Raise :class:`FormatError` unless ``obj`` is a JSON object with every key."""
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object")
    for key in keys:
        if key not in obj:
            raise FormatError(f'missing key "{key}"')


def _expect_int_list(obj, key: str) -> list[int]:
    val = obj.get(key)
    if not isinstance(val, list) or not _all_of(val, int):
        raise FormatError(f'"{key}" must be a list of integers')
    return val


def _expect_table(obj, key: str) -> dict[tuple[int, int], int]:
    """Read ``[x, y, value]`` rows into a dict; a repeated ``[x, y]`` key is
    a :class:`FormatError`."""
    rows = obj.get(key)
    if not (
        isinstance(rows, list)
        and _all_of(rows, list)
        and set(map(len, rows)) <= {3}
        and _all_of(chain.from_iterable(rows), int)
    ):
        raise FormatError(f'"{key}" must be a list of [int, int, int] triples')
    table = {(x, y): t for x, y, t in rows}
    if len(table) != len(rows):
        seen = set()
        for x, y, _ in rows:
            if (x, y) in seen:
                raise FormatError(f'"{key}" repeats the key [{x}, {y}]')
            seen.add((x, y))
    return table


def _expect_point_lists(obj, key: str, n: int) -> tuple[int, ...]:
    """Read a list of point lists over ``0..n-1`` into bitsets."""
    rows = obj.get(key)
    if not (
        isinstance(rows, list)
        and _all_of(rows, list)
        and _all_of(chain.from_iterable(rows), int)
    ):
        raise FormatError(f'"{key}" must be a list of point lists')
    try:
        return tuple(from_points(row, n) for row in rows)
    except ValueError as exc:
        raise FormatError(f'bad "{key}" row: {exc}') from None


def preorder_from_json(obj) -> tuple[FinFibrousPreorder, SpatialWitness | None]:
    """Parse the JSON object form; schema errors raise :class:`FormatError`,
    semantic breaches of the carrier :class:`StructureError`.  The spatial
    witness is only parsed: :func:`check_axioms` (or
    :func:`validate_witness`) checks it against the carrier."""
    _expect_object(obj, ("nB", "nA", "p", "R", "d"))
    nB, nA = obj["nB"], obj["nA"]
    if not _all_of((nB, nA), int):
        raise FormatError('"nB" and "nA" must be integers')
    _expect_point_count(nB)
    p = _expect_int_list(obj, "p")
    R = _expect_point_lists(obj, "R", nB)
    X = FinFibrousPreorder(nB, nA, tuple(p), R, _expect_table(obj, "d"))
    has_s, has_m = "s" in obj, "m" in obj
    if has_s != has_m:
        raise FormatError('"s" and "m" must be given together')
    if not has_s:
        return X, None
    s = tuple(_expect_int_list(obj, "s"))
    return X, SpatialWitness(s, _expect_table(obj, "m"))
