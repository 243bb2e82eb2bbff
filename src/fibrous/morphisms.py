"""Morphisms between finite fibrous preorders: verification and composition.

A morphism is a base-point map together with a lifting table on the fiber
product of the target's elements with the source's points.  Two parallel
morphisms are equivalent exactly when their base maps agree; the lifting
tables are deliberately ignored by :func:`equivalent`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bits
from .core import FinFibrousPreorder, check_map, check_table, fibers_of, misfits, table_rows
from .core import _expect_int_list, _expect_object, _expect_table
from .report import AxiomReport, Collector, StructureError


# How errors name the tables of the two morphisms that ``compose`` takes:
# a prefix to "f" and "fstar"
FIRST, SECOND = "first morphism's ", "second morphism's "


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


def verify_morphism(
    X: FinFibrousPreorder,
    Xp: FinFibrousPreorder,
    m: FibrousMorphism,
    verbose: bool = False,
    *,
    owner: str = "",
) -> AxiomReport:
    """Check the two lifting conditions of a morphism ``X -> Xp``.

    M1: each lifting projects to its source point.
    M2: the lifting's neighborhood maps into the target neighborhood.

    One :func:`~fibrous.core.misfits` pass checks both, M2 as "inside the
    preimage of the target neighborhood"; the fibers of ``f`` give the fiber
    product's rows and the :func:`preimages`.  A base map that is not total
    or a lifting table whose domain is not exactly the fiber product raises
    :class:`StructureError`; ``owner`` (such as :data:`FIRST`) goes before
    ``f`` and ``fstar`` in its message.
    """
    check_map(m.f, X.nB, Xp.nB, owner + "f")
    over = fibers_of(m.f, Xp.nB)
    rows = tuple(map(over.__getitem__, Xp.p))
    check_table(m.fstar, rows, X.nA, owner + "fstar", "the fiber product")
    pre = preimages(over, Xp.R)
    col = Collector(verbose)
    lifts = (((a2, b), t, b, pre[a2]) for (a2, b), t in m.fstar.items())
    misfits(col, "M1", "M2", X.p, X.R, lifts)
    return col.report()


def preimages(over, masks) -> list[int]:
    """``pre[i]``: the preimage of the point set ``masks[i]`` under the map
    whose fibers (from :func:`~fibrous.core.fibers_of`) are ``over``, summed
    from one bitset per fiber."""
    point = [sum(map((1).__lshift__, pts)) for pts in over]
    return [sum(map(point.__getitem__, bits(u))) for u in masks]


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
    pass :func:`verify_morphism`; the result then passes as well.  A base
    map that is not total raises :class:`StructureError` naming its morphism.
    """
    check_map(m1.f, X.nB, Xp.nB, FIRST + "f")
    check_map(m2.f, Xp.nB, Xpp.nB, SECOND + "f")
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
    return {"f": list(m.f), "fstar": table_rows(m.fstar)}


def morphism_from_json(obj) -> FibrousMorphism:
    _expect_object(obj, ("f", "fstar"))
    f = _expect_int_list(obj, "f")
    return FibrousMorphism(tuple(f), _expect_table(obj, "fstar"))
