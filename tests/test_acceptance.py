"""Acceptance suite: one test per criterion, exact tolerances, desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value here was either computed by an independent
oracle (second generator, brute-force search, direct definition unfolding)
or is a regression constant agreed by two generators.
"""

import random
import time
from collections import defaultdict
from itertools import product

from fibrous import (
    broken_metric_q,
    broken_padic,
    check_axioms,
    check_modulus,
    compose,
    enumerate_topologies,
    equivalent,
    find_equivalence,
    find_umap,
    functor_F_obj,
    functor_F_obj_brute,
    functor_G_mor,
    functor_G_obj,
    named_instance,
    named_modulus,
    random_spatial_preorder,
    roundtrip_GF,
    sample_check,
    specialization,
    verify_equivalence,
    verify_morphism,
)
from fibrous.bitsets import bits
from fibrous.functors import NotContinuousError
from fibrous.topology import (
    TOPOLOGY_COUNTS,
    enumerate_topologies_brute,
    enumerate_topologies_closure,
)

SEEDS = (0, 1, 42)
SAMPLES = 10_000

LAZY_INSTANCES = (
    "metric-q",
    "metric-q2",
    "padic:2",
    "padic:3",
    "padic:5",
    "cantor",
    "tangent-disk",
    "tangent-disk:strict-paper",
    "normed-q:1",
    "normed-q:2",
    "indexed-metric",
    "natural-metric",
)


def _all_topologies():
    out = []
    for n in (1, 2, 3):
        out += enumerate_topologies(n)
    out += enumerate_topologies_closure(4)
    return out


def test_criterion_1_exhaustive_alexandrov_correspondence():
    start = time.time()
    for n in (1, 2, 3):
        brute = enumerate_topologies_brute(n)
        closure = enumerate_topologies_closure(n)
        assert brute == closure, f"generators disagree at {n} points"
        assert len(brute) == TOPOLOGY_COUNTS[n]
    four = enumerate_topologies_closure(4)
    assert len(four) == TOPOLOGY_COUNTS[4]
    five = enumerate_topologies(5)
    assert len(five) == TOPOLOGY_COUNTS[5]
    checked = 0
    for T in _all_topologies() + five:
        gi = functor_G_obj(T)
        assert check_axioms(gi.X, gi.w).passed
        assert functor_F_obj(gi.X) == T
        res = find_umap(gi.X)
        assert res is not None
        _, R0 = res
        theta, leq = specialization(T)
        assert R0 == theta
        assert {(x, y) for x in range(T.nB) for y in bits(R0[x])} == leq
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE C1 PASS: {checked} topologies (counts {TOPOLOGY_COUNTS[1:6]}),"
        f" axioms+FG+umap exact, {elapsed:.2f}s"
    )


def test_criterion_2_gf_witness_suite():
    start = time.time()
    for seed in range(100):
        X, w = random_spatial_preorder(seed)
        assert X.nB <= 5 and X.nA <= 12
        assert check_axioms(X, w).passed
        wit = roundtrip_GF(X)
        gbar = functor_G_obj(functor_F_obj(X))
        assert verify_equivalence(X, gbar.X, wit).passed
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE C2 PASS: 100 seeded gf witnesses verified, {elapsed:.2f}s")


def test_criterion_3_functor_f_oracle_equivalence():
    checked = 0
    for T in _all_topologies():
        gi = functor_G_obj(T)
        assert functor_F_obj_brute(gi.X) == functor_F_obj(gi.X)
        checked += 1
    for seed in range(100):
        X, _ = random_spatial_preorder(seed)
        if X.nB <= 4:
            assert functor_F_obj_brute(X) == functor_F_obj(X)
            checked += 1
    print(f"\nACCEPTANCE C3 PASS: brute and union-closure agree on {checked} instances")


def test_criterion_4_morphism_laws():
    tops = []
    for n in (1, 2, 3):
        tops += enumerate_topologies(n)
    gis = [functor_G_obj(T) for T in tops]
    morphisms = []
    for i, T in enumerate(tops):
        for j, Tp in enumerate(tops):
            for f in product(range(Tp.nB), repeat=T.nB):
                try:
                    m = functor_G_mor(f, gis[i], gis[j])
                except NotContinuousError:
                    continue
                morphisms.append((i, j, m))
    # every enumerated continuous map lifts to a verified morphism
    for i, j, m in morphisms:
        assert verify_morphism(gis[i].X, gis[j].X, m).passed
    by_src = defaultdict(list)
    for i, j, m in morphisms:
        by_src[i].append((i, j, m))
    # identity laws, exhaustively
    from fibrous import identity_morphism

    idents = [identity_morphism(gi.X) for gi in gis]
    for i, j, m in morphisms:
        assert equivalent(compose(gis[i].X, gis[i].X, gis[j].X, idents[i], m), m)
        assert equivalent(compose(gis[i].X, gis[j].X, gis[j].X, m, idents[j]), m)
    # composition validity: exhaustive over the two-point universe ...
    small = [k for k, T in enumerate(tops) if T.nB <= 2]
    small_set = set(small)
    composed = 0
    for i, j, m1 in morphisms:
        if i not in small_set or j not in small_set:
            continue
        for _, k, m2 in by_src[j]:
            if k not in small_set:
                continue
            comp = compose(gis[i].X, gis[j].X, gis[k].X, m1, m2)
            assert verify_morphism(gis[i].X, gis[k].X, comp).passed
            composed += 1
    # ... plus a large seeded sample of the full universe, also checking that
    # the composite is equivalent to the image of the composite point map
    rng = random.Random(0)
    for _ in range(20_000):
        i, j, m1 = rng.choice(morphisms)
        _, k, m2 = rng.choice(by_src[j])
        comp = compose(gis[i].X, gis[j].X, gis[k].X, m1, m2)
        assert verify_morphism(gis[i].X, gis[k].X, comp).passed
        direct = functor_G_mor(comp.f, gis[i], gis[k])
        assert equivalent(comp, direct)
        composed += 1
    # associativity as point-map equality, seeded sample of triples
    for _ in range(10_000):
        i, j, m1 = rng.choice(morphisms)
        _, k, m2 = rng.choice(by_src[j])
        _, l, m3 = rng.choice(by_src[k])
        left = compose(
            gis[i].X, gis[k].X, gis[l].X,
            compose(gis[i].X, gis[j].X, gis[k].X, m1, m2), m3,
        )
        right = compose(
            gis[i].X, gis[j].X, gis[l].X,
            m1, compose(gis[j].X, gis[k].X, gis[l].X, m2, m3),
        )
        assert left.f == right.f
    print(
        f"\nACCEPTANCE C4 PASS: {len(morphisms)} continuous maps verified,"
        f" {composed} compositions valid, identity+associativity exact"
    )


def test_criterion_5_lazy_axiom_suite():
    start = time.time()
    for name in LAZY_INSTANCES:
        for seed in SEEDS:
            rep = sample_check(named_instance(name), SAMPLES, seed)
            assert rep.passed, f"{name} seed {seed}: {rep.to_json()}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE C5 PASS: {len(LAZY_INSTANCES)} instances x {len(SEEDS)} seeds x"
        f" {SAMPLES} samples, zero violations, {elapsed:.1f}s"
    )


def test_criterion_6_mutation_sensitivity():
    results = {}
    for label, make in (("metric", broken_metric_q), ("padic", lambda: broken_padic(3))):
        caught = []
        for seed in SEEDS:
            rep = sample_check(make(), SAMPLES, seed)
            if not rep.passed:
                tag, wit = rep.violations[0]
                # replay: the same seed reproduces the identical witness
                replay = sample_check(make(), SAMPLES, seed)
                assert replay.violations[0] == (tag, wit)
                assert wit["seed"] == seed and "round" in wit
                caught.append(seed)
        assert len(caught) >= 2, f"{label} mutant caught only on {caught}"
        results[label] = caught
    print(f"\nACCEPTANCE C6 PASS: mutants caught with replayable witnesses {results}")


def test_criterion_7_modulus_verification():
    for name in ("padic3-shift", "padic3-scale", "q-double"):
        rep = check_modulus(named_modulus(name), SAMPLES, 0)
        assert rep.passed, f"{name}: {rep.to_json()}"
    rep = check_modulus(named_modulus("q-double-bad"), SAMPLES, 0)
    assert not rep.passed
    tag, wit = rep.violations[0]
    assert tag == "M2" and "z" in wit
    print(
        "\nACCEPTANCE C7 PASS: 3 moduli verified with zero counterexamples,"
        f" wrong modulus falsified (witness z={wit['z']})"
    )


def test_criterion_8_equivalence_search_soundness():
    checked = 0
    for T in _all_topologies():
        X = functor_G_obj(T).X
        wit = find_equivalence(X, X)
        assert wit is not None
        assert wit.phi == tuple(range(X.nA)) == wit.gamma
        assert verify_equivalence(X, X, wit).passed
        checked += 1
    from fibrous import FiniteTopology

    absent = 0
    for n in (2, 3):
        top = (1 << n) - 1
        discrete = functor_G_obj(FiniteTopology(n, tuple(range(1 << n)))).X
        indiscrete = functor_G_obj(FiniteTopology(n, (0, top))).X
        assert find_equivalence(discrete, indiscrete) is None
        assert find_equivalence(indiscrete, discrete) is None
        absent += 2
    print(
        f"\nACCEPTANCE C8 PASS: identity witnesses on {checked} instances,"
        f" {absent} discrete/indiscrete absences confirmed"
    )
