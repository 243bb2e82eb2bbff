"""Morphisms between finite fibrous preorders: verification and composition.

A morphism is a base-point map together with a lifting table on the fiber
product of the target's elements with the source's points.  Two parallel
morphisms are equivalent exactly when their base maps agree; the lifting
tables are deliberately ignored by :func:`equivalent`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bits
from .core import FinFibrousPreorder, _expect_int_list, _expect_table, check_table
from .report import AxiomReport, Collector, FormatError, StructureError


@dataclass(frozen=True)
class FibrousMorphism:
    """Base map ``f`` (source point -> target point) plus lifting ``fstar``.

    ``fstar`` maps ``(a2, b)`` to a source element, for exactly the pairs
    where target element ``a2`` sits over ``f[b]``; the domain is validated
    against the two carriers by :func:`verify_morphism`.
    """

    f: tuple[int, ...]
    fstar: dict[tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))


def _check_base_map(m: FibrousMorphism, X: FinFibrousPreorder, Xp: FinFibrousPreorder):
    if len(m.f) != X.nB:
        raise StructureError(f"base map has {len(m.f)} entries, expected {X.nB}")
    for b, t in enumerate(m.f):
        if not 0 <= t < Xp.nB:
            raise StructureError(f"f[{b}]={t} out of range")


def verify_morphism(
    X: FinFibrousPreorder,
    Xp: FinFibrousPreorder,
    m: FibrousMorphism,
    verbose: bool = False,
) -> AxiomReport:
    """Check the two lifting conditions of a morphism ``X -> Xp``.

    M1: each lifting projects to its source point.
    M2: the lifting's neighborhood maps into the target neighborhood.

    A lifting table whose domain is not exactly the fiber product raises
    :class:`StructureError`.
    """
    _check_base_map(m, X, Xp)
    fiber_product = ((a2, b) for b in range(X.nB) for a2 in Xp.fibers[m.f[b]])
    check_table(m.fstar, fiber_product, X.nA, "fstar", "the fiber product")
    col = Collector(verbose)
    for (a2, b), t in sorted(m.fstar.items()):
        if X.p[t] != b:
            col.add("M1", (a2, b))
        for y in bits(X.R[t]):
            if not Xp.R[a2] >> m.f[y] & 1:
                col.add("M2", (a2, b, y))
                break
    return col.report()


def identity_morphism(X: FinFibrousPreorder) -> FibrousMorphism:
    """Identity base map; each element lifts itself over its own point."""
    return FibrousMorphism(
        tuple(range(X.nB)), {(a, X.p[a]): a for a in range(X.nA)}
    )


def compose(
    X: FinFibrousPreorder,
    Xp: FinFibrousPreorder,
    Xpp: FinFibrousPreorder,
    m1: FibrousMorphism,
    m2: FibrousMorphism,
) -> FibrousMorphism:
    """Compose ``m1: X -> Xp`` with ``m2: Xp -> Xpp``.

    The base map is the function composition; the lifting of ``(a3, b)``
    first lifts ``a3`` through ``m2`` at the midpoint ``m1.f[b]`` and then
    lifts the result through ``m1`` at ``b``.  Both inputs are assumed to
    pass :func:`verify_morphism`; the result then passes as well.
    """
    _check_base_map(m1, X, Xp)
    _check_base_map(m2, Xp, Xpp)
    gf = tuple(m2.f[m1.f[b]] for b in range(X.nB))
    table = {}
    for b in range(X.nB):
        for a3 in Xpp.fibers[gf[b]]:
            try:
                mid = m2.fstar[(a3, m1.f[b])]
                table[(a3, b)] = m1.fstar[(mid, b)]
            except KeyError as exc:
                raise StructureError(
                    f"lifting leaves the fiber product at {exc}"
                ) from None
    return FibrousMorphism(gf, table)


def equivalent(m1: FibrousMorphism, m2: FibrousMorphism) -> bool:
    """Parallel morphisms are identified exactly when their base maps agree."""
    if len(m1.f) != len(m2.f):
        raise ValueError("morphisms are not parallel (different source bases)")
    return m1.f == m2.f


def morphism_to_json(m: FibrousMorphism) -> dict:
    return {
        "f": list(m.f),
        "fstar": [[a2, b, t] for (a2, b), t in sorted(m.fstar.items())],
    }


def morphism_from_json(obj) -> FibrousMorphism:
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object")
    if "f" not in obj or "fstar" not in obj:
        raise FormatError('missing key "f" or "fstar"')
    f = _expect_int_list(obj, "f")
    return FibrousMorphism(tuple(f), _expect_table(obj, "fstar"))
