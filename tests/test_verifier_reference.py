"""The three finite verifiers against one loop per definition.

``check_axioms``, ``verify_equivalence`` and ``verify_morphism`` share one
fit check (``core.misfits``).  The reference functions here unfold each
axiom on its own, in the order and with the witnesses the README documents:
a "lies over" tag names the table key, a "lies inside" tag the key plus the
least escaping point, and each table's witnesses come in key order.  They
are compared, verbose and not, on carriers, equivalences and morphisms whose
tables carry random in-range corruptions.
"""

from random import Random

import pytest

from fibrous import (
    EquivalenceWitness,
    FibrousMorphism,
    NotContinuousError,
    SpatialWitness,
    check_axioms,
    enumerate_topologies,
    functor_F_obj,
    functor_G_mor,
    functor_G_obj,
    identity_morphism,
    random_spatial_preorder,
    roundtrip_GF,
    verify_equivalence,
    verify_morphism,
)
from fibrous.bitsets import bits
from fibrous.core import FinFibrousPreorder
from fibrous.report import Collector

SEEDS = range(60)


def _least_escape(inner, outer):
    return min(bits(inner & ~outer))


def ref_check_axioms(X, w=None, verbose=False):
    col = Collector(verbose)
    p, R = X.p, X.R
    for (a, b), t in sorted(X.d.items()):
        if p[t] != b:
            col.add("F1", (a, b))
        if R[t] & ~R[a]:
            col.add("F3", (a, b, _least_escape(R[t], R[a])))
    for a in range(X.nA):
        if not R[a] >> p[a] & 1:
            col.add("F2", (a,))
    if w is not None:
        for y, t in enumerate(w.s):
            if p[t] != y:
                col.add("F4", (y,))
        for (a, a2), t in sorted(w.m.items()):
            if p[t] != p[a]:
                col.add("F5", (a, a2))
            if R[t] & ~(R[a] & R[a2]):
                col.add("F6", (a, a2, _least_escape(R[t], R[a] & R[a2])))
    return col.report()


def ref_verify_equivalence(X, Xp, w, verbose=False):
    col = Collector(verbose)
    for a, t in enumerate(w.phi):
        if Xp.p[t] != X.p[a]:
            col.add("P-PHI", (a,))
        if Xp.R[t] & ~X.R[a]:
            col.add("F9", (a, _least_escape(Xp.R[t], X.R[a])))
    for a2, t in enumerate(w.gamma):
        if X.p[t] != Xp.p[a2]:
            col.add("P-GAMMA", (a2,))
        if X.R[t] & ~Xp.R[a2]:
            col.add("F10", (a2, _least_escape(X.R[t], Xp.R[a2])))
    return col.report()


def ref_verify_morphism(X, Xp, m, verbose=False):
    col = Collector(verbose)
    for (a2, b), t in sorted(m.fstar.items()):
        if X.p[t] != b:
            col.add("M1", (a2, b))
        # M2's witness: the least y related to the lifting whose image
        # leaves the target neighborhood
        outside = [y for y in bits(X.R[t]) if not Xp.R[a2] >> m.f[y] & 1]
        if outside:
            col.add("M2", (a2, b, outside[0]))
    return col.report()


def _corrupt(table, n_values, rng):
    """Copy of ``table`` (a dict or a tuple) with a random share of its
    values replaced by random in-range ones."""
    out = dict(table) if isinstance(table, dict) else list(table)
    keys = list(out.keys() if isinstance(out, dict) else range(len(out)))
    for key in rng.sample(keys, rng.randint(0, len(keys))):
        out[key] = rng.randrange(n_values)
    return out if isinstance(out, dict) else tuple(out)


def _carriers():
    for n in range(4):
        for T in enumerate_topologies(n):
            gi = functor_G_obj(T)
            yield gi.X, gi.w
    for seed in SEEDS:
        yield random_spatial_preorder(seed)


@pytest.mark.parametrize("verbose", (False, True))
def test_check_axioms_matches_the_reference(verbose):
    rng, seen = Random(1), set()
    for X, w in _carriers():
        for _ in range(4):
            Xc = FinFibrousPreorder(X.nB, X.nA, X.p, X.R, _corrupt(X.d, X.nA, rng))
            wc = SpatialWitness(_corrupt(w.s, X.nA, rng), _corrupt(w.m, X.nA, rng))
            want = ref_check_axioms(Xc, verbose=verbose)
            assert check_axioms(Xc, verbose=verbose) == want
            want = ref_check_axioms(Xc, wc, verbose)
            assert check_axioms(Xc, wc, verbose) == want
            seen.update(tag for tag, _ in want.violations)
    assert seen == {"F1", "F3", "F4", "F5", "F6"}


@pytest.mark.parametrize("verbose", (False, True))
def test_verify_equivalence_matches_the_reference(verbose):
    rng, seen = Random(2), set()
    for X, _ in _carriers():
        Xp = functor_G_obj(functor_F_obj(X)).X
        w = roundtrip_GF(X)
        for _ in range(4):
            wc = EquivalenceWitness(_corrupt(w.phi, Xp.nA, rng), _corrupt(w.gamma, X.nA, rng))
            want = ref_verify_equivalence(X, Xp, wc, verbose)
            assert verify_equivalence(X, Xp, wc, verbose) == want
            seen.update(tag for tag, _ in want.violations)
    assert seen == {"P-PHI", "F9", "P-GAMMA", "F10"}


def _morphisms(rng):
    """G-lifts of random continuous maps between topologies on 1-3 points,
    the identities of the random carriers, and a map from a 300-point
    discrete carrier onto a 7-element one, a source base far larger than
    the target's."""
    tops = [T for n in range(1, 4) for T in enumerate_topologies(n)]
    for T in tops:
        gi = functor_G_obj(T)
        for _ in range(3):
            gj = functor_G_obj(rng.choice(tops))
            f = [rng.randrange(gj.T.nB) for _ in range(T.nB)]
            try:
                yield gi.X, gj.X, functor_G_mor(f, gi, gj)
            except NotContinuousError:
                pass
    for seed in SEEDS:
        X, _ = random_spatial_preorder(seed)
        yield X, X, identity_morphism(X)
    nB, nt = 300, 7
    X = FinFibrousPreorder(nB, nB, tuple(range(nB)), tuple(1 << b for b in range(nB)),
                           {(b, b): b for b in range(nB)})
    p = tuple(rng.randrange(3) for _ in range(nt))
    R = tuple(1 << y | rng.randrange(8) for y in p)
    Xp = FinFibrousPreorder(3, nt, p, R, {(a, y): a for a in range(nt) for y in bits(R[a])})
    f = [rng.randrange(3) for _ in range(nB)]
    fstar = {(a2, b): b for a2 in range(nt) for b in range(nB) if f[b] == p[a2]}
    yield X, Xp, FibrousMorphism(f, fstar)


@pytest.mark.parametrize("verbose", (False, True))
def test_verify_morphism_matches_the_reference(verbose):
    rng, seen = Random(3), set()
    for X, Xp, m in _morphisms(rng):
        for _ in range(4):
            mc = FibrousMorphism(m.f, _corrupt(m.fstar, X.nA, rng))
            want = ref_verify_morphism(X, Xp, mc, verbose)
            assert verify_morphism(X, Xp, mc, verbose) == want
            seen.update(tag for tag, _ in want.violations)
    assert seen == {"M1", "M2"}
