import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyshift import (
    AdmissibleOrderFailure,
    DegreeMismatchError,
    DimensionMismatchError,
    GenBudget,
    Monomial,
    MonomialIdeal,
    QuotientCertificate,
    ResourceCapError,
    VariableOrder,
    VeroneseSpec,
    ZeroIdealError,
    certify_lex,
    certify_order,
    find_admissible_order,
    first_shift_by_distance,
    betti_table,
    homological_shift,
    minimal_generators,
    random_polymatroidal,
    realize,
    restrict_to_support,
    shifts_by_distance,
    total_betti_from_certificate,
)
from polyshift.quotients import (
    SEARCH_NODE_BUDGET,
    _backtrack,
    _BudgetExceeded,
    _distance_exponents,
)
from util import (
    EXAMPLE_HS3,
    EXAMPLE_HS4,
    EXAMPLE_SET_TABLE,
    M,
    all_monomials,
    backtrack_reference,
    certify_order_reference,
    find_admissible_order_reference,
    gens_set,
    homological_shift_reference,
    ideal,
    lcm_many,
    outcome_under_optimize,
    shifts_by_distance_reference,
    taylor_shifts,
)


def order_by_strings(I, names):
    lookup = {str(g): i for i, g in enumerate(I.gens)}
    return [lookup[name] for name in names]


class TestCertifyOrder:
    def test_written_order_is_admissible(self, trio_ideal):
        order = order_by_strings(trio_ideal, ["x2*x4", "x1*x2", "x1*x3"])
        cert = certify_order(trio_ideal, order)
        assert isinstance(cert, QuotientCertificate)
        assert cert.colon_vars == ((), (4,), (2,))

    def test_single_generator_trivial(self):
        cert = certify_order(ideal("[x1] n=2"), [0])
        assert isinstance(cert, QuotientCertificate)
        assert cert.colon_vars == ((),)

    def test_bad_order_fails_at_second_step(self, trio_ideal):
        order = order_by_strings(trio_ideal, ["x2*x4", "x1*x3", "x1*x2"])
        failure = certify_order(trio_ideal, order)
        assert isinstance(failure, AdmissibleOrderFailure)
        assert failure.k == 2
        assert str(failure.generator) == "x1*x3"
        assert str(failure.witness) == "x2*x4"

    def test_zero_ideal_raises(self):
        with pytest.raises(ZeroIdealError):
            certify_order(MonomialIdeal(2), [])


class TestCertifyLex:
    def test_example_set_table(self, example_ideal):
        cert = certify_lex(example_ideal)
        assert isinstance(cert, QuotientCertificate)
        table = {str(g): s for g, s in zip(cert.ordered_gens, cert.colon_vars)}
        assert table == EXAMPLE_SET_TABLE
        assert cert.projective_dimension == 4

    def test_variable_ideal_sets(self):
        I = ideal("[x1, x2, x3, x4]")
        cert = certify_lex(I)
        assert cert.colon_vars == ((), (1,), (1, 2), (1, 2, 3))

    def test_trio_under_permuted_order(self, trio_ideal):
        cert = certify_lex(trio_ideal, VariableOrder((2, 1, 3, 4)))
        assert isinstance(cert, QuotientCertificate)
        assert [str(g) for g in cert.ordered_gens] == ["x1*x2", "x2*x4", "x1*x3"]

    def test_records_variable_order(self, trio_ideal):
        vo = VariableOrder((2, 1, 3, 4))
        cert = certify_lex(trio_ideal, vo)
        assert cert.variable_order == vo

    @pytest.mark.parametrize("chain", [(1, 2), (4, 3, 2, 1)], ids=["short", "long"])
    def test_order_on_other_variables_refused(self, chain):
        # a short order would certify and name x2 the least variable; a long
        # one would fail on an index past the ideal's ring
        I = ideal("[x1*x2, x2*x3, x1*x3] n=3")
        with pytest.raises(
            DimensionMismatchError, match=f"has {len(chain)} variables, expected 3"
        ):
            certify_lex(I, VariableOrder(chain))

    def test_colon_sets_bounded_by_largest_variable(self, fuzz_corpus):
        # under the identity order, every colon variable of u is < max(u)
        for spec, I in fuzz_corpus[:120]:
            cert = certify_lex(I)
            for u, cols in zip(cert.ordered_gens, cert.colon_vars):
                assert all(i < u.max_var for i in cols), (spec, str(u))


class TestFindAdmissibleOrder:
    def test_trio_has_an_order(self, trio_ideal):
        search = find_admissible_order(trio_ideal)
        assert search.status == "certified"

    def test_two_disjoint_quadrics_have_none(self):
        search = find_admissible_order(ideal("[x1*x2, x3*x4]"))
        assert search.status == "none"
        assert search.certificate is None

    def test_single_generator(self):
        assert find_admissible_order(ideal("[x1^3] n=1")).status == "certified"

    def test_budget_exhaustion_is_inconclusive(self):
        search = find_admissible_order(ideal("[x1*x2, x3*x4]"), node_budget=1)
        assert search.status == "inconclusive"


class TestHomologicalShift:
    def test_level_zero_is_the_ideal(self, example_ideal):
        cert = certify_lex(example_ideal)
        assert homological_shift(cert, 0) == example_ideal

    def test_example_top_level(self, example_ideal):
        cert = certify_lex(example_ideal)
        assert gens_set(homological_shift(cert, 4)) == EXAMPLE_HS4

    def test_vanishes_past_projective_dimension(self, example_ideal):
        cert = certify_lex(example_ideal)
        assert homological_shift(cert, 5).is_zero

    @pytest.mark.parametrize("route", [homological_shift, shifts_by_distance])
    def test_negative_index_refused(self, route, example_ideal):
        with pytest.raises(ValueError, match="homological index must be nonnegative"):
            route(certify_lex(example_ideal), -1)

    def test_betti_totals(self, example_ideal):
        cert = certify_lex(example_ideal)
        totals = [total_betti_from_certificate(cert, j) for j in range(5)]
        assert totals == [11, 25, 24, 11, 2]

    def test_mixed_degree_quotients_certificate_route(self):
        # generators of different degrees: the subset formula still matches
        # the homology oracle, while the distance routes refuse
        for text in ("[x1, x2^2]", "[x1^2, x1*x2, x2^3]", "[x1, x2*x3, x3^2] n=3"):
            I = ideal(text)
            search = find_admissible_order(I)
            if search.status != "certified":
                continue
            cert = search.certificate
            table = betti_table(I)
            for j in range(cert.projective_dimension + 2):
                assert homological_shift(cert, j) == table.shift_ideal(j)
            with pytest.raises(DegreeMismatchError):
                shifts_by_distance(cert, 1)
            with pytest.raises(DegreeMismatchError):
                first_shift_by_distance(I)


class TestDistanceRoutes:
    def test_first_shift_of_trio(self, trio_ideal):
        assert gens_set(first_shift_by_distance(trio_ideal)) == {
            "x1*x2*x3",
            "x1*x2*x4",
        }

    def test_single_generator_has_no_pairs(self):
        assert first_shift_by_distance(ideal("[x1*x2] n=2")).is_zero

    def test_example_first_shift(self, example_ideal):
        cert = certify_lex(example_ideal)
        assert first_shift_by_distance(example_ideal) == homological_shift(cert, 1)

    def test_non_equigenerated_raises(self):
        with pytest.raises(DegreeMismatchError):
            first_shift_by_distance(ideal("[x1, x2*x3]"))

    def test_unordered_triple_is_excluded(self, trio_ideal):
        # all three pairwise distances are compatible, but no admissible
        # order puts the triple in a chain, so the second shift is zero
        order = [
            {str(g): i for i, g in enumerate(trio_ideal.gens)}[name]
            for name in ["x2*x4", "x1*x2", "x1*x3"]
        ]
        cert = certify_order(trio_ideal, order)
        assert shifts_by_distance(cert, 2).is_zero
        assert lcm_many([M("x2*x4", 4), M("x1*x3", 4), M("x1*x2", 4)]) == M(
            "x1*x2*x3*x4", 4
        )

    def test_degree_condition_excludes_low_lcm(self):
        I = ideal("[x1^2*x3, x1^2*x2, x1*x2*x3]")
        cert = certify_lex(I)
        assert isinstance(cert, QuotientCertificate)
        assert shifts_by_distance(cert, 2).is_zero
        triple = lcm_many([M("x1^2*x3", 3), M("x1^2*x2", 3), M("x1*x2*x3", 3)])
        assert triple == M("x1^2*x2*x3", 3)
        assert triple.degree == 4  # would need degree 3 + 2 to qualify

    def test_matches_certificate_route_on_example(self, example_ideal):
        cert = certify_lex(example_ideal)
        for j in range(6):
            assert shifts_by_distance(cert, j) == homological_shift(cert, j)
        assert gens_set(shifts_by_distance(cert, 3)) == EXAMPLE_HS3


@st.composite
def mixed_degree_ideals(draw, max_gens=8):
    """Random ideals in 1-6 variables with exponents up to 3, so degrees mix
    and the unit ideal can occur."""
    n = draw(st.integers(1, 6))
    vectors = draw(
        st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=max_gens)
    )
    return MonomialIdeal(n, [Monomial(v) for v in vectors])


@st.composite
def ideals_with_orders(draw):
    """A mixed-degree ideal with the identity order or a shuffled one; most
    shuffled orders fail, at various steps."""
    I = draw(mixed_degree_ideals())
    order = list(range(I.num_gens))
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    return I, order


def assert_certify_matches_reference(I, order):
    result = certify_order(I, order)
    expected = certify_order_reference(I, order)
    # a failure must name the same step, generator and witness
    assert result == expected
    if isinstance(result, QuotientCertificate):
        for j in range(result.projective_dimension + 2):
            assert homological_shift(result, j) == homological_shift_reference(
                expected, j
            ), j
    return result


class TestCertifyAgainstPairScanReference:
    @settings(deadline=None, max_examples=300)
    @given(ideals_with_orders())
    def test_matches_reference(self, case):
        assert_certify_matches_reference(*case)

    @settings(deadline=None, max_examples=150)
    @given(mixed_degree_ideals(max_gens=7), st.integers(1, 60))
    def test_search_matches_reference(self, I, budget):
        for node_budget in (budget, SEARCH_NODE_BUDGET):
            # the same status and the same certificate
            assert find_admissible_order(I, node_budget) == (
                find_admissible_order_reference(I, node_budget)
            )

    @settings(deadline=None, max_examples=150)
    @given(mixed_degree_ideals(max_gens=7), st.integers(1, 60))
    def test_backtracking_matches_the_recursive_search(self, I, budget):
        # the explicit stack visits the nodes of the recursive search in the
        # same order: the same order found, the same node count, and the
        # same budget at which it gives up
        gens = [g.exponents for g in I.gens]
        for node_budget in (budget, SEARCH_NODE_BUDGET):
            outcomes = []
            for search in (_backtrack, backtrack_reference):
                try:
                    outcomes.append(search(gens, node_budget))
                except _BudgetExceeded:
                    outcomes.append("inconclusive")
            assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "text, status",
        [
            ("[x1^2*x2^2, x1^2*x3^2, x2*x3]", "certified"),
            ("[x1*x2, x2*x3, x3*x4, x4*x5, x5*x6, x1*x6*x7] n=7", "none"),
        ],
        ids=["admissible", "none"],
    )
    def test_search_backtracks_past_failed_lex_orders(self, text, status):
        # no variable order makes the lex order admissible here, so the
        # outcome comes from the backtracking search
        I = ideal(text)
        search = find_admissible_order(I)
        assert search.status == status
        if search.certificate is not None:
            assert search.certificate.variable_order is None
        assert search == find_admissible_order_reference(I)
        gens = [g.exponents for g in I.gens]
        found, nodes = _backtrack(gens, SEARCH_NODE_BUDGET)
        assert (found, nodes) == backtrack_reference(gens, SEARCH_NODE_BUDGET)
        assert nodes > len(gens)

    @pytest.mark.parametrize(
        "text",
        ["[x1*x2^2] n=3", "[1] n=3", "[1] n=0"],
        ids=["one-generator", "unit-n3", "unit-n0"],
    )
    def test_single_generator_cases(self, text):
        I = ideal(text)
        cert = assert_certify_matches_reference(I, [0])
        assert cert.colon_vars == ((),)
        assert homological_shift(cert, 0) == I
        assert homological_shift(cert, 1).is_zero
        assert find_admissible_order(I) == find_admissible_order_reference(I)

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3]])
    def test_non_permutation_order_raises(self, trio_ideal, order):
        for certify in (certify_order, certify_order_reference):
            with pytest.raises(ValueError, match="permutation"):
                certify(trio_ideal, order)

    def test_failure_at_last_step(self):
        I = ideal("[x1*x2, x2*x3, x3*x4, x4*x5]")
        order = order_by_strings(I, ["x1*x2", "x2*x3", "x3*x4", "x4*x5"])
        failure = assert_certify_matches_reference(I, order)
        assert isinstance(failure, AdmissibleOrderFailure)
        assert failure.k == I.num_gens
        assert (str(failure.generator), str(failure.witness)) == ("x4*x5", "x1*x2")


class TestChecksSurviveOptimizeFlag:
    # under python -O a bare assert is stripped; these internal checks must
    # still raise
    def test_search_result_is_rechecked(self, tmp_path):
        body = (
            "import polyshift.quotients as q\n"
            "from polyshift import parse_ideal\n"
            "I = parse_ideal('[x1*x2, x2*x3]').ideal\n"
            "q.certify_order = lambda I, order: q.AdmissibleOrderFailure(\n"
            "    1, I.gens[0], I.gens[0])\n"
            "q.find_admissible_order(I)\n"
        )
        outcome = outcome_under_optimize(body, tmp_path)
        assert outcome.startswith(
            "raised the search found an order that certify_order refuses:"
        )

    def test_equigenerated_shift_drops_nothing(self, tmp_path):
        body = (
            "import polyshift.monomials as monomials\n"
            "from polyshift import certify_lex, homological_shift, parse_ideal\n"
            "cert = certify_lex(parse_ideal('[x2*x4, x1*x2, x1*x3]').ideal)\n"
            "monomials._minimalize = lambda mons: sorted(set(mons), key=str)[:1]\n"
            "homological_shift(cert, 1)\n"
        )
        outcome = outcome_under_optimize(body, tmp_path)
        assert outcome == (
            "raised minimalization dropped 1 of 2 distinct products from an "
            "equigenerated shift ideal (j = 1)"
        )


@st.composite
def certified_ideals(draw):
    """Certificates of polymatroidal draws under the lex order, and of
    random equigenerated ideals under any admissible order found."""
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        _, I = random_polymatroidal(seed, GenBudget(n_max=4, degree_max=3, gen_max=40))
        cert = certify_lex(I)
    else:
        n = draw(st.integers(1, 4))
        pool = all_monomials(n, draw(st.integers(1, 3)))
        picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7, unique=True))
        cert = find_admissible_order(MonomialIdeal(n, picked)).certificate
    assume(isinstance(cert, QuotientCertificate))
    return cert


class TestDistanceAgainstUnitExchangeReference:
    @settings(deadline=None, max_examples=200)
    @given(certified_ideals())
    def test_matches_reference_for_every_j(self, cert):
        for j in range(cert.projective_dimension + 2):
            assert shifts_by_distance(cert, j) == shifts_by_distance_reference(cert, j), j

    @pytest.mark.parametrize(
        "text",
        ["[x1*x2^2] n=3", "[x1^3] n=1"],
        ids=["one-generator", "n=1"],
    )
    def test_named_cases(self, text):
        cert = certify_lex(ideal(text))
        for j in range(cert.projective_dimension + 2):
            assert shifts_by_distance(cert, j) == shifts_by_distance_reference(cert, j), j

    def test_veronese_past_one_word(self):
        cert = certify_lex(realize(VeroneseSpec((4,) * 5, 4)))
        assert cert.ideal.num_gens == 70
        for j in range(cert.projective_dimension + 2):
            expected = shifts_by_distance_reference(cert, j)
            assert shifts_by_distance(cert, j) == expected, j
            assert expected == homological_shift(cert, j), j

    def test_non_equigenerated_raises_like_reference(self):
        cert = certify_lex(ideal("[x1, x2*x3]"))
        assert isinstance(cert, QuotientCertificate)
        for route in (shifts_by_distance, shifts_by_distance_reference):
            with pytest.raises(DegreeMismatchError):
                route(cert, 1)


class TestDistanceExponents:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_equal_the_route_ideals_generators(self, seed):
        # the fuzz campaign compares these sets with the certificate route's
        # on the supported ideals of its draws, at the default budget
        _, I = random_polymatroidal(seed, GenBudget(n_max=5, degree_max=4, gen_max=120))
        cert = certify_lex(restrict_to_support(I)[0])
        assert isinstance(cert, QuotientCertificate)
        for j in range(cert.projective_dimension + 2):
            assert _distance_exponents(cert, j) == shifts_by_distance(cert, j).exponent_set, j


class TestNesting:
    def test_each_shift_sits_inside_first_shift_of_previous(self, fuzz_corpus):
        for spec, I in fuzz_corpus[:60]:
            cert = certify_lex(I)
            pd = cert.projective_dimension
            for j in range(pd):
                current = homological_shift(cert, j)
                nxt = homological_shift(cert, j + 1)
                inner = certify_lex(current)
                if isinstance(inner, QuotientCertificate):
                    first_of_current = homological_shift(inner, 1)
                else:
                    first_of_current = betti_table(current).shift_ideal(1)
                for g in nxt.gens:
                    assert first_of_current.contains(g)
                    # refined form under a lex certificate: the support also
                    # exceeds j + 1
                    assert len(g.support) > j + 1

    def test_inclusion_can_be_strict(self, trio_ideal):
        cert = certify_lex(trio_ideal)
        hs1 = homological_shift(cert, 1)
        inner = certify_lex(hs1)
        assert homological_shift(cert, 2).is_zero
        assert not homological_shift(inner, 1).is_zero


class TestTaylorShifts:
    def test_three_variables_top(self):
        I = ideal("[x1, x2, x3]")
        assert gens_set(taylor_shifts(I, 2)) == {"x1*x2*x3"}

    def test_trio_level_one_minimalizes(self, trio_ideal):
        assert gens_set(taylor_shifts(trio_ideal, 1)) == {"x1*x2*x3", "x1*x2*x4"}

    def test_level_zero_is_identity(self, trio_ideal):
        assert taylor_shifts(trio_ideal, 0) == trio_ideal

    def test_contains_all_true_shifts(self, example_ideal):
        cert = certify_lex(example_ideal)
        for j in range(5):
            upper = taylor_shifts(example_ideal, j, max_gens=11)
            for g in homological_shift(cert, j).gens:
                assert upper.contains(g)

    def test_cap_raises(self):
        gens = [Monomial.variable(i, 26) for i in range(1, 27)]
        I = minimal_generators(gens)
        with pytest.raises(ResourceCapError):
            taylor_shifts(I, 1)

    def test_membership_shortcut_matches_enumeration(self, trio_ideal):
        for j in range(3):
            enumerated = taylor_shifts(trio_ideal, j)
            for n_vars, d in [(4, 2), (4, 3), (4, 4)]:
                from util import all_monomials

                for w in all_monomials(n_vars, d):
                    # any j + 1 generators dividing w have an lcm dividing w
                    divisors = sum(
                        all(a <= b for a, b in zip(h.exponents, w.exponents))
                        for h in trio_ideal.gens
                    )
                    assert (divisors >= j + 1) == enumerated.contains(w)
