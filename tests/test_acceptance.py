"""Acceptance suite: one test per criterion, each printing a PASS line.

All comparisons are exact (integer and symbolic computation); there are no
numeric tolerances anywhere.  The fuzz corpus and the campaign are fully
deterministic, so every run checks byte-identical values.
"""

import json
import random

from polyshift import (
    AdmissibleOrderFailure,
    CampaignConfig,
    LPSpec,
    Monomial,
    PLPSpec,
    QuotientCertificate,
    TransversalSpec,
    VariableOrder,
    VeroneseSpec,
    betti_table,
    certify_lex,
    certify_order,
    check_exchange,
    ek_betti,
    family_socle,
    first_shift_by_distance,
    homological_shift,
    intersection_graph,
    max_pd,
    minimal_generators,
    monomial_multiples,
    realize,
    restrict_to_support,
    run_campaign,
    shift_multiset,
    shifts_by_distance,
    socle_colon,
    socle_exchange,
    spanning_tree_socle,
    support_filter,
    total_betti_from_certificate,
    veronese_shift,
)
from util import (
    EXAMPLE_GENS,
    EXAMPLE_HS1,
    EXAMPLE_HS2,
    EXAMPLE_HS3,
    EXAMPLE_HS3_LISTED,
    EXAMPLE_HS3_OMITTED,
    EXAMPLE_HS4,
    EXAMPLE_SET_TABLE,
    M,
    borel_closure,
    family_max_pd,
    full_support,
    gens_set,
    ideal,
    lcm_many,
    power_persistence,
)


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_golden_example(example_ideal):
    I = example_ideal
    assert tuple(str(g) for g in I.gens) == EXAMPLE_GENS

    cert = certify_lex(I, VariableOrder.identity(5))
    assert isinstance(cert, QuotientCertificate)
    table = {str(g): s for g, s in zip(cert.ordered_gens, cert.colon_vars)}
    assert table == EXAMPLE_SET_TABLE

    shifts = {j: homological_shift(cert, j) for j in range(7)}
    assert shifts[0] == I
    assert gens_set(shifts[1]) == EXAMPLE_HS1
    assert gens_set(shifts[2]) == EXAMPLE_HS2
    assert gens_set(shifts[3]) == EXAMPLE_HS3
    assert gens_set(shifts[4]) == EXAMPLE_HS4
    assert shifts[5].is_zero and shifts[6].is_zero

    # the homology oracle agrees at every (index, multidegree), with
    # multiplicities
    oracle = betti_table(I)
    assert oracle.pd == 4
    for j in range(5):
        expected = dict(shift_multiset(cert, j))
        got = {a: r for (i, a), r in oracle.entries.items() if i == j}
        assert got == expected, f"multidegree mismatch at index {j}"
    _report(1, "set table, all shift ideals, and oracle multidegrees match")


def test_criterion_2_counterexample_trio(trio_ideal):
    I = trio_ideal
    hs1 = first_shift_by_distance(I)
    assert gens_set(hs1) == {"x1*x2*x3", "x1*x2*x4"}

    cert = certify_lex(I)
    assert homological_shift(cert, 1) == hs1
    hs2 = homological_shift(cert, 2)
    assert hs2.is_zero
    assert betti_table(I).shift_ideal(2).is_zero

    nested = first_shift_by_distance(hs1)
    assert gens_set(nested) == {"x1*x2*x3*x4"}
    assert nested != hs2

    lookup = {str(g): i for i, g in enumerate(I.gens)}
    rejected = certify_order(
        I, [lookup["x2*x4"], lookup["x1*x3"], lookup["x1*x2"]]
    )
    assert isinstance(rejected, AdmissibleOrderFailure)
    assert rejected.k == 2
    _report(2, "first shift, vanishing second shift, nesting gap, rejected order")


def test_criterion_3_degree_condition():
    I = ideal("[x1^2*x3, x1^2*x2, x1*x2*x3]")
    lookup = {str(g): i for i, g in enumerate(I.gens)}
    cert = certify_order(
        I, [lookup["x1^2*x3"], lookup["x1^2*x2"], lookup["x1*x2*x3"]]
    )
    assert isinstance(cert, QuotientCertificate)

    oracle = betti_table(I)
    assert oracle.pd == 1
    assert cert.projective_dimension == 1
    assert homological_shift(cert, 2).is_zero
    assert shifts_by_distance(cert, 2).is_zero
    assert oracle.shift_ideal(2).is_zero

    # the full triple's lcm fails the degree condition: 4 < 2 + 3
    w = lcm_many(I.gens)
    assert w == M("x1^2*x2*x3", 3)
    assert w.degree == 4
    assert w.degree < I.generation_degree + 2
    _report(3, "pd = 1, vanishing second shift, degree-condition exclusion")


def test_criterion_4_socle_closed_forms(example_ideal):
    lp = LPSpec((1, 3), (4, 5), 5)
    assert realize(lp) == example_ideal
    soc = family_socle(lp)
    assert gens_set(soc) == {"x3", "x4"}
    assert soc == socle_colon(example_ideal)
    top = monomial_multiples(soc, Monomial.from_support(range(1, 6), 5))
    assert gens_set(top) == EXAMPLE_HS4
    assert top == betti_table(example_ideal).shift_ideal(4)

    for n in range(2, 7):
        m = minimal_generators([Monomial.variable(i, n) for i in range(1, n + 1)])
        soc_m = socle_colon(m)
        assert soc_m.is_unit
        cert = certify_lex(m)
        assert socle_exchange(cert) == soc_m
        top_m = monomial_multiples(soc_m, Monomial.from_support(range(1, n + 1), n))
        assert [g.exponents for g in top_m.gens] == [(1,) * n]
        assert betti_table(m).shift_ideal(n - 1) == top_m

    plp = PLPSpec(
        (0, 0, 0, 0, 0), (1, 1, 2, 2, 1), (0, 0, 0, 1, 2), (1, 1, 2, 2, 2)
    )
    assert realize(plp) == example_ideal
    closed = family_socle(plp)
    assert gens_set(closed) == {"x3", "x4"}
    assert closed == socle_colon(realize(plp))
    _report(4, "socle closed forms agree with the colon route on every case")


def test_criterion_5_route_equivalence(fuzz_corpus):
    assert len(fuzz_corpus) >= 500
    squarefree_seen = 0
    independence_checked = 0
    for spec, I in fuzz_corpus:
        cert = certify_lex(I)
        assert isinstance(cert, QuotientCertificate)
        pd = cert.projective_dimension
        oracle = betti_table(I)
        assert oracle.pd == pd

        for j in range(pd + 2):
            certificate_route = homological_shift(cert, j)
            assert shifts_by_distance(cert, j) == certificate_route
            assert oracle.shift_ideal(j) == certificate_route

            counts = shift_multiset(cert, j)
            oracle_counts = {a: r for (i, a), r in oracle.entries.items() if i == j}
            assert dict(counts) == oracle_counts
            assert sum(counts.values()) == total_betti_from_certificate(cert, j)

            # Taylor bound: every shift is an lcm of j+1 generators, so each
            # generator of the shift ideal has at least j+1 divisors in G(I)
            for g in certificate_route.gens:
                divisors = sum(
                    all(a <= b for a, b in zip(h.exponents, g.exponents)) for h in I.gens
                )
                assert divisors >= j + 1

        if I.is_squarefree:
            squarefree_seen += 1
            for (i, a), _ in oracle.entries.items():
                assert a.is_squarefree
            for j in range(pd + 1):
                assert homological_shift(cert, j).is_squarefree

        if I.n >= 2:
            other = certify_lex(I, VariableOrder(tuple(range(I.n, 0, -1))))
            assert isinstance(other, QuotientCertificate)
            independence_checked += 1
            for j in range(pd + 2):
                assert homological_shift(other, j) == homological_shift(cert, j)

    assert squarefree_seen >= 20
    assert independence_checked >= 400
    _report(
        5,
        f"routes, Betti sums, Taylor bound, squarefree tables, order independence "
        f"on {len(fuzz_corpus)} instances",
    )


def test_criterion_6_theorem_level_properties(fuzz_corpus):
    # first-shift heredity on every corpus instance
    for spec, I in fuzz_corpus:
        cert = certify_lex(I)
        hs1 = homological_shift(cert, 1)
        if not hs1.is_zero:
            assert check_exchange(hs1, "exchange").holds, spec

    # squarefree instances: each next shift is the first shift of the previous
    matroidal_count = 0
    for spec, I in fuzz_corpus:
        if not I.is_squarefree:
            continue
        if not check_exchange(I, "exchange").holds:
            continue
        matroidal_count += 1
        cert = certify_lex(I)
        pd = cert.projective_dimension
        for j in range(1, pd):
            inner = certify_lex(homological_shift(cert, j))
            assert isinstance(inner, QuotientCertificate)
            assert homological_shift(inner, 1) == homological_shift(cert, j + 1)
    assert matroidal_count >= 20

    # bounded-degree closed form for every Veronese-type instance
    veronese_count = 0
    for spec, I in fuzz_corpus:
        if not isinstance(spec, VeroneseSpec) or I.support != tuple(
            range(1, I.n + 1)
        ):
            continue
        veronese_count += 1
        cert = certify_lex(I)
        for level in range(1, cert.projective_dimension + 1):
            assert veronese_shift(spec, level) == homological_shift(cert, level)
    assert veronese_count >= 50

    # transversal maximality is exactly connectivity, on 100 covering families
    rng = random.Random(0xFACADE)
    for trial in range(100):
        n = rng.randint(2, 5)
        t = rng.randint(1, 4)
        sets = [
            set(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(t)
        ]
        missing = set(range(1, n + 1)) - set().union(*sets)
        for v in missing:
            sets[rng.randrange(t)].add(v)
        spec = TransversalSpec(tuple(frozenset(s) for s in sets), n)
        I = realize(spec)
        connected = intersection_graph(spec).is_connected
        assert (full_support(I) and max_pd(I)) == connected, spec

    # LP socles: the unique spanning-tree candidate set is the interval product
    lp_checked = 0
    rng = random.Random(0xBEEF)
    while lp_checked < 50:
        n = rng.randint(2, 6)
        t = rng.randint(2, min(4, n))
        alpha = sorted(rng.randint(1, n) for _ in range(t))
        beta = sorted(rng.randint(a, n) for a in alpha)
        beta = [max(b, a) for a, b in zip(alpha, beta)]
        try:
            spec = LPSpec(tuple(alpha), tuple(beta), n)
        except Exception:
            continue
        if not family_max_pd(spec):
            continue
        lp_checked += 1
        tspec = TransversalSpec(
            tuple(frozenset(range(a, b + 1)) for a, b in zip(alpha, beta)), n
        )
        candidates = spanning_tree_socle(tspec)
        product_form = family_socle(spec)
        direct = socle_colon(realize(spec))
        assert candidates == product_form == direct, spec

    # maximality persists under powers, checked through cubes
    persistence_checked = 0
    for spec, I in fuzz_corpus:
        J, _ = restrict_to_support(I)
        if J.n < 2:
            continue
        cert = certify_lex(J)
        if socle_exchange(cert).is_zero:
            continue
        persistence_checked += 1
        for k in (2, 3):
            assert power_persistence(J, k).ok, spec
    assert persistence_checked >= 100
    _report(
        6,
        f"first-shift heredity, matroidal nesting ({matroidal_count}), "
        f"bounded-degree closed form ({veronese_count}), transversal criterion (100), "
        f"interval socles (50), power persistence ({persistence_checked})",
    )


def test_criterion_7_conjecture_campaign():
    config = CampaignConfig(seed=0xACCE55, instance_count=1000)
    lines: list[str] = []
    summary = run_campaign(config, lines.append)

    rows = [json.loads(line) for line in lines]
    assert len(rows) == 1000
    assert summary.disagreements == [], summary.disagreements
    # flags would be verified counterexamples to open conjectures: they are
    # reported, not failed on; none are expected
    for flag in summary.flags:
        assert {"conjecture", "index", "seed"} <= set(flag)
    assert summary.counters["instances"] == 1000
    _report(
        7,
        f"1000 instances, 0 disagreements, {len(summary.flags)} verified flags "
        f"(counters: {summary.counters})",
    )


def test_criterion_8a_top_shift_exponent_record(example_ideal):
    # two published listings of the top shift differ in one x3 exponent;
    # the computation decides between them
    computed = betti_table(example_ideal).shift_ideal(4)
    squared = minimal_generators(
        [M("x1*x2*x3^2*x4*x5", 5), M("x1*x2*x3*x4^2*x5", 5)]
    )
    cubed = minimal_generators(
        [M("x1*x2*x3^3*x4*x5", 5), M("x1*x2*x3*x4^2*x5", 5)]
    )
    assert computed == squared
    assert computed != cubed
    cert = certify_lex(example_ideal)
    assert homological_shift(cert, 4) == squared
    soc = socle_colon(example_ideal)
    assert monomial_multiples(soc, Monomial.from_support(range(1, 6), 5)) == squared
    _report(8, "top-shift record: the squared-x3 listing is the computed value")


def test_criterion_8b_stable_betti_index_record():
    # closed Betti formula for stable ideals: the binomial's lower index is
    # the homological position, not the generator degree
    from math import comb

    I = borel_closure([M("x2*x3", 3)])
    oracle = betti_table(I).totals()
    tops = [max(g.max_var - 1, 0) for g in I.gens]
    by_position = {
        i: sum(comb(t, i) for t in tops) for i in range(max(tops) + 1)
    }
    assert {i: v for i, v in by_position.items() if v} == oracle

    degree = I.generation_degree
    by_degree = {
        i: sum(comb(t, degree) for t in tops) for i in range(max(tops) + 1)
    }
    assert {i: v for i, v in by_degree.items() if v} != oracle

    totals, pd = ek_betti(I)
    assert totals == oracle and pd == 2
    _report(8, "stable-formula record: homological index matches the oracle")


def test_criterion_8c_third_shift_listing_record(example_ideal):
    # one published listing of the third shift ideal omits a generator that
    # the bounded-degree closed form includes; every route produces it
    cert = certify_lex(example_ideal)
    computed = gens_set(homological_shift(cert, 3))
    assert computed == EXAMPLE_HS3_LISTED | {EXAMPLE_HS3_OMITTED}
    assert computed != EXAMPLE_HS3_LISTED

    closed_form = support_filter(realize(VeroneseSpec((1, 1, 2, 2, 1), 5)), 3)
    assert gens_set(closed_form) == computed
    assert gens_set(betti_table(example_ideal).shift_ideal(3)) == computed
    _report(8, "third-shift record: the omitted generator is real on every route")
