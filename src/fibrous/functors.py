"""The two conversions between finite topologies and spatial carriers.

``functor_G_obj`` turns a topology into the carrier of (open set, point)
pairs; ``functor_F_obj`` turns a spatial carrier back into a topology, either
by closing the neighborhood sets under unions or by brute-force testing of
every point subset.  Both round trips are checkable:
``roundtrip_FG`` asserts exact recovery of a topology, ``roundtrip_GF``
produces a verified equivalence witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random

from .bitsets import bits, full_mask, is_subset, to_points
from .core import (
    EquivalenceWitness,
    FinFibrousPreorder,
    SpatialWitness,
    _cover,
    verify_equivalence,
)
from .morphisms import FibrousMorphism
from .report import AxiomReport, Collector, StructureError
from .topology import FiniteTopology, union_closure, validate_topology


class NotContinuousError(ValueError):
    """A point map failed the continuity check; carries the witness open set."""

    def __init__(self, witness_open: list[int]):
        self.witness_open = witness_open
        super().__init__(f"preimage of open set {witness_open} is not open")


@dataclass(frozen=True)
class GImage:
    """Carrier built from a topology, with its witness and element labels.

    ``labels[a]`` is the (open-set bitset, point) pair of element ``a``; the
    labelling is injective, the projection returns the point component and
    the neighborhood equals the open-set component.
    """

    X: FinFibrousPreorder
    w: SpatialWitness
    labels: tuple[tuple[int, int], ...]

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        return {lab: i for i, lab in enumerate(self.labels)}


def functor_G_obj(T: FiniteTopology) -> GImage:
    """Build the carrier of all (open set, member point) pairs of ``T``.

    Elements are ordered by (open set as integer, point).  The refinement of
    ``((U, x), y)`` is ``(U, y)``; the section picks ``(full set, x)`` and
    the meet of ``(U, x)`` and ``(V, x)`` is ``(U & V, x)``.
    """
    rep = validate_topology(T)
    if not rep.passed:
        raise ValueError(f"input family is not a topology: {rep.to_json()}")
    labels = tuple((u, x) for u in T.opens for x in bits(u))
    index = {lab: i for i, lab in enumerate(labels)}
    p = tuple(x for _, x in labels)
    R = tuple(u for u, _ in labels)
    d = {
        (i, y): index[(u, y)]
        for i, (u, _) in enumerate(labels)
        for y in bits(u)
    }
    full = full_mask(T.nB)
    s = tuple(index[(full, x)] for x in range(T.nB))
    X = FinFibrousPreorder(T.nB, len(labels), p, R, d)
    m = {}
    for x, fiber in enumerate(X.fibers):
        for i in fiber:
            for j in fiber:
                m[(i, j)] = index[(R[i] & R[j], x)]
    return GImage(X, SpatialWitness(s, m), labels)


def functor_G_mor(
    f,
    T: FiniteTopology,
    Tp: FiniteTopology,
    g_src: GImage | None = None,
    g_dst: GImage | None = None,
) -> FibrousMorphism:
    """Lift a continuous point map ``f: T -> Tp`` to a morphism of carriers.

    Continuity (every open's preimage is open) is checked first; a failure
    raises :class:`NotContinuousError` naming the offending open set.  The
    lifting of ``((U', x'), y)`` is ``(preimage of U', y)``.
    """
    f = tuple(f)
    if len(f) != T.nB or any(not 0 <= t < Tp.nB for t in f):
        raise ValueError("point map does not fit the two base sets")
    opens = set(T.opens)
    preimage = {}
    for up in Tp.opens:
        pre = 0
        for y in range(T.nB):
            if up >> f[y] & 1:
                pre |= 1 << y
        if pre not in opens:
            raise NotContinuousError(to_points(up))
        preimage[up] = pre
    gi = g_src if g_src is not None else functor_G_obj(T)
    gip = g_dst if g_dst is not None else functor_G_obj(Tp)
    fstar = {}
    for y in range(T.nB):
        for i in gip.X.fibers[f[y]]:
            fstar[(i, y)] = gi.index[(preimage[gip.X.R[i]], y)]
    return FibrousMorphism(f, fstar)


def functor_F_obj(
    X: FinFibrousPreorder,
    w: SpatialWitness | None = None,
    algorithm: str = "union-closure",
    brute_limit: int = 20,
) -> FiniteTopology:
    """Topology induced by a spatial carrier (assumed to pass F1-F6).

    ``union-closure`` takes all unions of element neighborhoods; ``brute``
    tests every point subset for the defining condition (each member point
    must carry an element whose neighborhood stays inside).  The two agree
    on every valid input; ``brute`` is guarded by ``brute_limit``.
    """
    if algorithm == "union-closure":
        return FiniteTopology(X.nB, union_closure(X.R))
    if algorithm != "brute":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if X.nB > brute_limit:
        raise ValueError(
            f"brute algorithm limited to {brute_limit} points (have {X.nB})"
        )
    opens = []
    for cand in range(1 << X.nB):
        if all(
            any(is_subset(X.R[a], cand) for a in X.fibers[y])
            for y in bits(cand)
        ):
            opens.append(cand)
    return FiniteTopology(X.nB, tuple(opens))


def roundtrip_FG(T: FiniteTopology, algorithm: str = "union-closure") -> AxiomReport:
    """Assert that converting ``T`` to a carrier and back reproduces it exactly."""
    gi = functor_G_obj(T)
    back = functor_F_obj(gi.X, gi.w, algorithm)
    col = Collector()
    if back.opens != T.opens:
        missing = [to_points(u) for u in T.opens if u not in set(back.opens)]
        extra = [to_points(u) for u in back.opens if u not in set(T.opens)]
        col.add("FG", {"missing": missing, "extra": extra})
    return col.report()


def roundtrip_GF(X: FinFibrousPreorder, w: SpatialWitness) -> EquivalenceWitness:
    """Equivalence witness between ``X`` and the carrier of its topology.

    ``phi`` sends an element to the pair (its neighborhood, its point) --
    well-defined because every neighborhood is open; ``gamma`` picks the
    least-index element over the point whose neighborhood fits inside the
    open set.  The witness is verified before being returned.
    """
    T = functor_F_obj(X, w)
    gbar = functor_G_obj(T)
    try:
        phi = tuple(gbar.index[(X.R[a], X.p[a])] for a in range(X.nA))
    except KeyError:
        raise StructureError(
            "some neighborhood is not open; input violates F1-F3"
        ) from None
    gamma = _cover(gbar.X, X)
    if gamma is None:
        raise StructureError("no element fits an open set; input violates F1-F6")
    witness = EquivalenceWitness(phi, gamma)
    rep = verify_equivalence(X, gbar.X, witness)
    if not rep.passed:
        raise StructureError(f"round-trip witness failed verification: {rep.to_json()}")
    return witness


def _random_topology(rng: Random, nB: int) -> list[int]:
    full = full_mask(nB)
    fam = {0, full}
    for _ in range(rng.randint(0, 3)):
        fam.add(rng.randrange(full + 1))
    while True:
        new = set()
        for u in fam:
            for v in fam:
                new.add(u | v)
                new.add(u & v)
        if new <= fam:
            return sorted(fam)
        fam |= new


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
    rng = Random(seed)
    while True:
        nB = rng.randint(1, max_points)
        opens = _random_topology(rng, nB)
        nonempty = [u for u in opens if u]
        k = rng.randint(0, min(3, len(nonempty)))
        sigma = {full_mask(nB)} | set(rng.sample(nonempty, k))
        while True:
            derived = {
                u & v for u in sigma for v in sigma if u & v
            }
            if derived <= sigma:
                break
            sigma |= derived
        base = [(u, x) for u in sorted(sigma) for x in bits(u)]
        if len(base) > max_elements:
            continue
        elems = list(base)
        for _ in range(rng.randint(0, max_elements - len(base))):
            elems.append(rng.choice(base))
        rng.shuffle(elems)
        nA = len(elems)
        p = tuple(x for _, x in elems)
        R = tuple(u for u, _ in elems)
        d = {}
        for i, (u, _) in enumerate(elems):
            for y in bits(u):
                candidates = [
                    j for j, (v, z) in enumerate(elems) if z == y and is_subset(v, u)
                ]
                d[(i, y)] = rng.choice(candidates)
        s = tuple(
            rng.choice([i for i in range(nA) if p[i] == x]) for x in range(nB)
        )
        m = {}
        for i in range(nA):
            for j in range(nA):
                if p[i] != p[j]:
                    continue
                meet = R[i] & R[j]
                candidates = [
                    t for t in range(nA) if p[t] == p[i] and is_subset(R[t], meet)
                ]
                m[(i, j)] = rng.choice(candidates)
        return FinFibrousPreorder(nB, nA, p, R, d), SpatialWitness(s, m)
