"""The two conversions between finite topologies and spatial carriers.

``functor_G_obj`` turns a topology into the carrier of (open set, point)
pairs.  Its G-image is that carrier's neighborhood part, with the topology
kept beside it, and is made from the topology alone: ``functor_G_obj`` is
:class:`GImage`.  The refinement table ``d`` is built on the first read of
``gi.X``, and the spatial witness on the first read of ``gi.w``.
Neither round trip nor ``functor_G_mor`` reads them.
``_check_meet_table`` bounds the witness from the topology alone, so
``from-top`` refuses the 10- to 14-point discrete topologies before their
opens are compared pairwise.
``functor_F_obj`` turns a spatial carrier back into a topology by
closing the neighborhood sets under unions, and ``functor_F_obj_brute`` is an
independent oracle for it that tests every point subset.  Both round trips
are checkable:
``roundtrip_FG`` asserts exact recovery of a topology, ``roundtrip_GF``
produces a verified equivalence witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from random import Random

from .bitsets import bits, full_mask, is_subset, to_points
from .core import (
    EquivalenceWitness,
    FinFibrousPreorder,
    FinNeighborhoods,
    SpatialWitness,
    _cover,
    built,
    check_map,
    fibers_of,
    verify_equivalence,
)
from .morphisms import FibrousMorphism, preimages
from .report import AxiomReport, Collector, StructureError, violation_line
from .topology import FiniteTopology, meet_closure, union_closure, validate_topology

BRUTE_LIMIT = 20  # the brute-force F walks all 2**nB point subsets
# Largest table a G-image builds: its refinement table ``d`` and the meet
# table of its witness hold up to this many entries each.  At the limit,
# from-top on the 1,024-point indiscrete topology peaks near 380 MB RSS
# with --json and near 320 MB without on CPython 3.11; the 3,000-point one
# would need 9M refinement entries.
MAX_G_TABLE = 1 << 20
_PASSED = AxiomReport()  # frozen, so every recovered topology shares it


class NotContinuousError(ValueError):
    """A point map failed the continuity check; carries the witness open set."""

    def __init__(self, witness_open: list[int]):
        self.witness_open = witness_open
        super().__init__(f"preimage of open set {witness_open} is not open")


class NotATopologyError(ValueError):
    """A family of opens failed :func:`validate_topology`; carries the report
    and names its first violation."""

    def __init__(self, report: AxiomReport):
        self.report = report
        first = violation_line(*report.violations[0])
        super().__init__(f"input family is not a topology: {first}")


def _check_meet_table(T: FiniteTopology) -> None:
    """Raise ``ValueError`` when the meet table of the G-image of ``T`` would
    hold more than :data:`MAX_G_TABLE` entries.  It holds ``k**2`` entries
    for each point in ``k`` opens, so ``T`` alone decides it, before any
    topology check."""
    counts = Counter(chain.from_iterable(map(bits, T.opens)))
    size = sum(k * k for k in counts.values())
    if size > MAX_G_TABLE:
        raise ValueError(
            f"the G-image's meet table would have {size} entries, "
            f"above MAX_G_TABLE = {MAX_G_TABLE}"
        )


@dataclass(frozen=True)
class GImage(FinNeighborhoods):
    """The neighborhood part of the carrier built from the topology ``T``,
    with the full carrier ``X`` and the witness ``w`` built on first read.

    Element ``a`` is the (open-set bitset, point) pair ``(R[a], p[a])``;
    elements are sorted by pair, so :meth:`element` finds each from its pair.
    The round trips and :func:`functor_G_mor` read only the neighborhood part.
    ``GImage(T)`` is the only constructor: it reads the rows off ``T``.

    The size bound is tested before the quadratic topology check, which
    raises :class:`NotATopologyError`; the rows of a topology that passes
    hold the :class:`FinNeighborhoods` checks by construction.
    """

    T: FiniteTopology

    def __init__(self, T: FiniteTopology):
        # d has at most one entry per element and point, and bounds p and R
        size = sum(map(int.bit_count, T.opens)) * T.nB
        if size > MAX_G_TABLE:
            raise ValueError(
                f"the G-image's refinement table would have up to {size} entries, "
                f"above MAX_G_TABLE = {MAX_G_TABLE}"
            )
        rep = validate_topology(T)
        if not rep.passed:
            raise NotATopologyError(rep)
        p, R = [], []
        for u in T.opens:
            pts = bits(u)
            p += pts
            R += [u] * len(pts)
        self.__dict__.update(nB=T.nB, nA=len(p), p=tuple(p), R=tuple(R), T=T)

    @cached_property
    def first(self) -> dict[int, int]:
        """``first[u]``: the first element over the open set ``u``.  The
        rows are read backwards, so the least index of each is kept."""
        return {u: i for i, u in reversed(tuple(enumerate(self.R)))}

    def element(self, u: int, y: int) -> int:
        """The element ``(u, y)``, for ``y`` in the open set ``u``: the first
        element over ``u`` plus the number of points of ``u`` below ``y``."""
        return self.first[u] + (u & ((1 << y) - 1)).bit_count()

    @cached_property
    def X(self) -> FinFibrousPreorder:
        """The carrier with its refinement table: the refinement of
        ``((U, x), y)`` is ``(U, y)``."""
        R, first = self.R, self.first
        d = {(i, y): t for i, u in enumerate(R) for t, y in enumerate(bits(u), first[u])}
        return built(FinFibrousPreorder, nB=self.nB, nA=self.nA, p=self.p, R=R, d=d)

    @cached_property
    def w(self) -> SpatialWitness:
        """The section picks ``(full set, x)`` and the meet of ``(U, x)`` and
        ``(V, x)`` is ``(U & V, x)``, looked up among the fiber of ``x``."""
        _check_meet_table(self.T)
        R = self.R
        full = full_mask(self.nB)
        s = tuple(self.element(full, x) for x in range(self.nB))
        m = {}
        for fiber in self.fibers:
            at = {R[i]: i for i in fiber}
            for i in fiber:
                for j in fiber:
                    m[(i, j)] = at[R[i] & R[j]]
        return SpatialWitness(s, m)


functor_G_obj = GImage  # the functor's name for the G-image of a topology


def functor_G_mor(f, gi: GImage, gip: GImage) -> FibrousMorphism:
    """Lift a continuous point map ``f: gi.T -> gip.T`` to a morphism from
    ``gi.X`` to ``gip.X``, built from their neighborhood parts alone.

    Continuity (every open's preimage is open) is checked first; a failure
    raises :class:`NotContinuousError` naming the offending open set.  The
    lifting of ``((U', x'), y)`` is ``(preimage of U', y)``.
    """
    T, Tp = gi.T, gip.T
    f = tuple(f)
    check_map(f, T.nB, Tp.nB, "f")
    opens = set(T.opens)
    pre = dict(zip(Tp.opens, preimages(fibers_of(f, Tp.nB), Tp.opens)))
    for up, u in pre.items():
        if u not in opens:
            raise NotContinuousError(to_points(up))
    fibers, R = gip.fibers, gip.R
    fstar = {(i, y): gi.element(pre[R[i]], y) for y in range(T.nB) for i in fibers[f[y]]}
    return FibrousMorphism(f, fstar)


def functor_F_obj(X: FinNeighborhoods) -> FiniteTopology:
    """Topology induced by a spatial carrier (assumed to pass F1-F6): all
    unions of element neighborhoods."""
    return built(FiniteTopology, nB=X.nB, opens=union_closure(X.R))


def functor_F_obj_brute(X: FinNeighborhoods) -> FiniteTopology:
    """Oracle for :func:`functor_F_obj`: test every point subset for the
    defining condition (each member point must carry an element whose
    neighborhood stays inside).  The two agree on every valid input; this
    one is limited to :data:`BRUTE_LIMIT` points."""
    if X.nB > BRUTE_LIMIT:
        raise ValueError(
            f"brute algorithm limited to {BRUTE_LIMIT} points (have {X.nB})"
        )
    opens = []
    for cand in range(1 << X.nB):
        if all(X.least_within(y, cand) is not None for y in bits(cand)):
            opens.append(cand)
    return FiniteTopology(X.nB, tuple(opens))


def roundtrip_FG(T: FiniteTopology) -> AxiomReport:
    """Assert that converting ``T`` to a carrier and back reproduces it exactly."""
    back = functor_F_obj(functor_G_obj(T))
    if back.opens == T.opens:
        return _PASSED
    got, want = set(back.opens), set(T.opens)
    missing = [to_points(u) for u in T.opens if u not in got]
    extra = [to_points(u) for u in back.opens if u not in want]
    col = Collector()
    col.add("FG", {"missing": missing, "extra": extra})
    return col.report()


def roundtrip_GF(X: FinFibrousPreorder) -> EquivalenceWitness:
    """Equivalence witness between ``X`` and the carrier of its topology.

    ``phi`` sends an element to the pair (its neighborhood, its point) --
    well-defined because every neighborhood is open; ``gamma`` picks the
    least-index element over the point whose neighborhood fits inside the
    open set.  The witness is verified before being returned.
    """
    for a, (x, u) in enumerate(zip(X.p, X.R)):
        if not u >> x & 1:
            raise StructureError(
                f"element {a} is outside its own neighborhood; input violates F2"
            )
    gbar = functor_G_obj(functor_F_obj(X))
    phi = tuple(map(gbar.element, X.R, X.p))
    gamma = _cover(gbar, X)
    if gamma is None:
        raise StructureError("no element fits an open set; input violates F1-F6")
    witness = EquivalenceWitness(phi, gamma)
    rep = verify_equivalence(X, gbar, witness)
    if not rep.passed:
        first = violation_line(*rep.violations[0])
        raise StructureError(f"round-trip witness failed verification: {first}")
    return witness


def _random_topology(rng: Random, nB: int) -> tuple[int, ...]:
    full = full_mask(nB)
    fam = {0, full}
    for _ in range(rng.randint(0, 3)):
        fam.add(rng.randrange(full + 1))
    return union_closure(meet_closure(fam))


def random_spatial_preorder(
    seed: int, max_points: int = 5, max_elements: int = 12
) -> tuple[FinFibrousPreorder, SpatialWitness]:
    """Seeded generator of carriers passing F1-F6.

    Draws a random topology, keeps a meet-closed basis of nonempty opens
    always containing the full set, takes all (basis set, member point)
    pairs plus random duplicates, shuffles the element order, and picks
    random admissible refinements, sections and meets.  Same seed, same
    instance.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = Random(seed)
    while True:
        nB = rng.randint(1, max_points)
        opens = _random_topology(rng, nB)
        nonempty = [u for u in opens if u]
        k = rng.randint(0, min(3, len(nonempty)))
        sigma = meet_closure({full_mask(nB), *rng.sample(nonempty, k)})
        base = [(u, x) for u in sigma if u for x in bits(u)]
        if len(base) > max_elements:
            continue
        elems = list(base)
        for _ in range(rng.randint(0, max_elements - len(base))):
            elems.append(rng.choice(base))
        rng.shuffle(elems)
        p = tuple(x for _, x in elems)
        R = tuple(u for u, _ in elems)
        fibers = fibers_of(p, nB)

        def pick(x, S):
            return rng.choice([t for t in fibers[x] if is_subset(R[t], S)])

        d = {(i, y): pick(y, u) for i, u in enumerate(R) for y in bits(u)}
        s = tuple(pick(x, full_mask(nB)) for x in range(nB))
        m = {(i, j): pick(x, R[i] & R[j]) for i, x in enumerate(p) for j in fibers[x]}
        return built(FinFibrousPreorder, nB=nB, nA=len(p), p=p, R=R, d=d), SpatialWitness(s, m)
