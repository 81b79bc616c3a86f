import itertools
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyshift import (
    BorelSpec,
    DegreeMismatchError,
    LPSpec,
    Monomial,
    MonomialIdeal,
    PLPSpec,
    PowerSpec,
    PreconditionError,
    ResourceCapError,
    SupportError,
    TransversalSpec,
    UnsupportedFamilyError,
    VeroneseSpec,
    betti_table,
    certify_lex,
    family_socle,
    ideal_power,
    intersection_graph,
    max_pd,
    minimal_generators,
    monomial_multiples,
    realize,
    socle_colon,
    socle_exchange,
    socle_report,
    spanning_tree_socle,
    spanning_trees,
)
from util import (
    M,
    all_monomials,
    borel_closure,
    borel_generator_lists,
    bounded_degree_reference,
    colon_maximal,
    family_max_pd,
    full_support,
    gens_set,
    ideal,
    ideal_intersection,
    lp_specs,
    outcome_under_optimize,
    power_persistence,
)

TESTS = Path(__file__).resolve().parent


def small_full_support(corpus):
    """Corpus ideals with full support that the oracle resolves quickly."""
    return [I for _, I in corpus if full_support(I) and I.num_gens <= 12 and I.n <= 4]


def truncated_colon(I):
    """Reference socle: the degree-(d-1) generators of the untruncated I : m."""
    d = I.generation_degree
    return MonomialIdeal(I.n, [g for g in colon_maximal(I).gens if g.degree == d - 1])


@st.composite
def equigenerated_ideals(draw):
    """Nonempty sets of monomials of one degree, polymatroidal or not."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 4))
    gens = draw(st.lists(st.sampled_from(all_monomials(n, d)), min_size=1, unique=True))
    return MonomialIdeal(n, gens)


class TestColonMachinery:
    def test_intersection_brute_force(self):
        A = ideal("[x1^2, x2] n=3")
        B = ideal("[x1*x3, x2^2] n=3")
        meet = ideal_intersection(A, B)
        from util import all_monomials

        for d in range(1, 5):
            for w in all_monomials(3, d):
                assert meet.contains(w) == (A.contains(w) and B.contains(w))

    def test_colon_of_maximal_ideal(self):
        m = ideal("[x1, x2, x3]")
        assert colon_maximal(m).is_unit

    def test_colon_without_variables_is_whole_ring(self):
        # m = (0) in a ring with no variables, so I : m is the unit ideal;
        # this once ended in an IndexError from colon_by_variable(I, 1)
        unit = MonomialIdeal(0, [Monomial(())])
        assert colon_maximal(unit) == unit
        assert colon_maximal(MonomialIdeal(0)) == unit


class TestSocleColon:
    def test_example(self, example_ideal):
        assert gens_set(socle_colon(example_ideal)) == {"x3", "x4"}

    def test_maximal_ideal_socle_is_unit(self):
        for n in range(2, 7):
            m = minimal_generators([Monomial.variable(i, n) for i in range(1, n + 1)])
            soc = socle_colon(m)
            assert soc.is_unit
            assert soc == truncated_colon(m)

    def test_disconnected_transversal_socle_is_zero(self):
        I = realize(TransversalSpec((frozenset({1, 3}), frozenset({2, 4})), 4))
        assert socle_colon(I).is_zero

    @settings(deadline=None, max_examples=300)
    @given(equigenerated_ideals())
    def test_matches_untruncated_colon(self, I):
        assert socle_colon(I) == truncated_colon(I)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[1] n=1", set()),
            ("[1] n=3", set()),
            ("[x1*x2, x1^2] n=3", set()),  # x3 is missing
            ("[x1^3] n=1", {"x1^2"}),
            ("[x1*x2] n=2", set()),
            ("[x1*x2, x1*x3, x2*x3]", set()),  # pd 1 < n - 1
            ("[x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2]", {"x1", "x2", "x3"}),
        ],
    )
    def test_named_cases(self, text, expected):
        I = ideal(text)
        soc = socle_colon(I)
        assert gens_set(soc) == expected
        assert soc == truncated_colon(I)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            socle_colon(ideal("[x1, x2*x3] n=3"))


class TestSocleExchange:
    def test_example(self, example_ideal):
        cert = certify_lex(example_ideal)
        assert gens_set(socle_exchange(cert)) == {"x3", "x4"}

    def test_borel_closure(self):
        I = borel_closure([M("x2*x3", 3)])
        cert = certify_lex(I)
        soc = socle_exchange(cert)
        assert gens_set(soc) == {"x1", "x2"}
        assert soc == borel_closure([M("x2", 3)])
        assert soc == socle_colon(I)

    def test_low_projective_dimension_gives_zero(self, trio_ideal):
        cert = certify_lex(trio_ideal)
        assert socle_exchange(cert).is_zero  # pd = 1 < 3

    def test_support_must_be_full(self):
        I = ideal("[x1*x2, x1*x3] n=5")
        cert = certify_lex(I)
        with pytest.raises(SupportError):
            socle_exchange(cert)


class TestTopShift:
    def test_example(self, example_ideal):
        assert gens_set(socle_report(example_ideal).top_shift) == {
            "x1*x2*x3^2*x4*x5",
            "x1*x2*x3*x4^2*x5",
        }

    def test_maximal_ideal(self):
        for n in range(2, 7):
            m = minimal_generators([Monomial.variable(i, n) for i in range(1, n + 1)])
            expected = Monomial((1,) * n)
            assert [g for g in socle_report(m).top_shift.gens] == [expected]

    def test_zero_socle_gives_zero(self, trio_ideal):
        assert socle_report(trio_ideal).top_shift.is_zero

    def test_is_variables_times_colon_socle_on_corpus(self, fuzz_corpus):
        # the colon route, whatever route socle_report takes
        for _, I in fuzz_corpus:
            soc = socle_colon(I)
            expected = monomial_multiples(soc, Monomial.from_support(range(1, I.n + 1), I.n))
            assert socle_report(I).top_shift == expected

    def test_matches_oracle_top_on_small_corpus(self, fuzz_corpus):
        ideals = small_full_support(fuzz_corpus)
        assert len(ideals) >= 150
        for I in ideals:
            assert socle_report(I).top_shift == betti_table(I).shift_ideal(I.n - 1)

    def test_matches_oracle_top(self, example_ideal):
        table = betti_table(example_ideal)
        assert socle_report(example_ideal).top_shift == table.shift_ideal(4)


class TestMaxPd:
    def test_example_has_maximal_pd(self, example_ideal):
        assert max_pd(example_ideal)
        assert full_support(example_ideal)

    def test_two_disjoint_quadrics(self):
        I = ideal("[x1*x2, x3*x4]")
        assert not max_pd(I)
        assert betti_table(I).pd == 1

    def test_matroidal_iff_maximal_ideal_on_support(self):
        assert max_pd(ideal("[x2, x4] n=4"))  # restriction is the full prime
        assert not max_pd(ideal("[x1*x2, x1*x3, x2*x3]"))

    def test_restricts_before_deciding(self):
        embedded = ideal("[x2, x5] n=6")
        assert max_pd(embedded)
        assert not full_support(embedded)


class TestIntersectionGraph:
    def test_overlapping_intervals(self):
        spec = TransversalSpec(
            (frozenset(range(1, 5)), frozenset(range(3, 6))), 5
        )
        graph = intersection_graph(spec)
        assert graph.edges == ((1, 2),)
        assert graph.is_connected

    def test_disjoint_pair(self):
        spec = TransversalSpec((frozenset({1, 3}), frozenset({2, 4})), 4)
        graph = intersection_graph(spec)
        assert graph.edges == ()
        assert not graph.is_connected
        assert graph.component_count() == 2

    def test_single_factor(self):
        spec = TransversalSpec((frozenset({1, 2}),), 2)
        assert intersection_graph(spec).is_connected

    def test_partial_cover_is_a_spec_fact(self):
        spec = TransversalSpec((frozenset({1, 2}),), 3)
        assert not spec.covers_variables
        assert intersection_graph(spec).is_connected



class TestSpanningTreeSocle:
    def test_lp_path_graph(self, example_ideal):
        spec = TransversalSpec(
            (frozenset(range(1, 5)), frozenset(range(3, 6))), 5
        )
        candidates = spanning_tree_socle(spec)
        assert gens_set(candidates) == {"x3", "x4"}
        assert candidates == socle_colon(example_ideal)

    def test_single_factor_gives_unit(self):
        spec = TransversalSpec((frozenset({1, 2, 3}),), 3)
        assert spanning_tree_socle(spec).is_unit

    def test_triangle_of_overlaps(self):
        spec = TransversalSpec(
            (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})), 3
        )
        graph = intersection_graph(spec)
        assert len(list(spanning_trees(graph))) == 3
        candidates = spanning_tree_socle(spec)
        soc = socle_colon(realize(spec))
        assert all(soc.contains(g) for g in candidates.gens)
        assert candidates == soc

    def test_tree_counts_on_complete_and_cycle_graphs(self):
        # four sets through x1 overlap pairwise: K4 has 4^2 trees (Cayley);
        # the 4-cycle of overlaps has 4, each dropping one edge
        star = TransversalSpec(tuple(frozenset({1, v}) for v in (2, 3, 4, 5)), 5)
        complete = intersection_graph(star)
        assert len(complete.edges) == 6
        assert complete.component_count() == 1
        assert len(list(spanning_trees(complete))) == 16
        ring = TransversalSpec(
            tuple(frozenset({v, v % 4 + 1}) for v in (1, 2, 3, 4)), 4
        )
        trees = list(spanning_trees(intersection_graph(ring)))
        assert sorted(trees) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_disconnected_gives_zero(self):
        spec = TransversalSpec((frozenset({1}), frozenset({2})), 2)
        assert spanning_tree_socle(spec).is_zero

    def test_tree_cap(self, monkeypatch):
        import polyshift.socle as socle

        star = TransversalSpec(tuple(frozenset({1, v}) for v in (2, 3, 4, 5)), 5)
        monkeypatch.setattr(socle, "SPANNING_TREE_CAP", 15)
        with pytest.raises(ResourceCapError, match="more than 15 spanning trees"):
            list(spanning_trees(intersection_graph(star)))
        with pytest.raises(ResourceCapError):
            spanning_tree_socle(star)
        monkeypatch.setattr(socle, "SPANNING_TREE_CAP", 16)
        assert len(list(spanning_trees(intersection_graph(star)))) == 16


class TestFamilySocle:
    def test_lp_closed_form(self, example_ideal):
        spec = LPSpec((1, 3), (4, 5), 5)
        assert gens_set(family_socle(spec)) == {"x3", "x4"}

    def test_plp_shifted_type(self, example_ideal):
        spec = PLPSpec(
            (0, 0, 0, 0, 0),
            (1, 1, 2, 2, 1),
            (0, 0, 0, 1, 2),
            (1, 1, 2, 2, 2),
        )
        soc = family_socle(spec)
        assert gens_set(soc) == {"x3", "x4"}
        assert soc == socle_colon(realize(spec))

    def test_borel_without_last_variable_is_zero(self):
        spec = BorelSpec((M("x2^2", 4),), 4)
        assert family_socle(spec).is_zero

    def test_borel_closed_form(self):
        spec = BorelSpec((M("x2*x3", 3),), 3)
        assert family_socle(spec) == borel_closure([M("x2", 3)])

    def test_borel_power_closed_form(self):
        for name, k in [("x2*x3", 2), ("x2*x3", 3), ("x1*x3^2", 2)]:
            u = M(name, 3)
            spec = PowerSpec(BorelSpec((u,), 3), k)
            closed = family_socle(spec)
            direct = socle_colon(ideal_power(borel_closure([u]), k))
            assert closed == direct
            assert closed == borel_closure([u ** k / Monomial.variable(3, 3)])

    def test_borel_redundant_generator_of_higher_degree_adds_nothing(self):
        # the closure of x1 and x1*x2 is (x1), whose socle is zero; the
        # redundant x1*x2 involves x2 but must not contribute x1
        spec = BorelSpec((M("x1", 2), M("x1*x2", 2)), 2)
        assert family_socle(spec).is_zero
        assert socle_colon(realize(spec)).is_zero

    @settings(max_examples=150, deadline=None)
    @given(borel_generator_lists(), st.integers(0, 2))
    def test_borel_and_powers_match_colon(self, drawn, k):
        gens, n = drawn
        base = BorelSpec(tuple(gens), n)
        spec = base if k == 1 else PowerSpec(base, k)
        try:
            closed = family_socle(spec)
        except DegreeMismatchError:
            assert not realize(spec).is_equigenerated
            return
        assert closed == socle_colon(realize(spec))

    @settings(max_examples=100, deadline=None)
    @given(borel_generator_lists(), st.sampled_from([(2,), (3,), (2, 2)]))
    def test_multi_generator_borel_powers_match_colon(self, drawn, exponents):
        # B(u)B(v) = B(uv): one window per generator of the power; (2, 2)
        # nests a square in a square
        gens, n = drawn
        spec = BorelSpec(tuple(gens), n)
        assume(len(set(gens)) > 1 and realize(spec).is_equigenerated)
        for k in exponents:
            spec = PowerSpec(spec, k)
        assert family_socle(spec) == socle_colon(realize(spec))

    @settings(max_examples=150, deadline=None)
    @given(lp_specs(n_max=6, t_max=3), st.integers(0, 3), st.integers(1, 2))
    def test_lp_and_powers_match_colon(self, base, k, outer):
        # outer = 2 nests the power in a square: (I^k)^2
        spec = base if k == 1 else PowerSpec(base, k)
        if outer == 2:
            spec = PowerSpec(spec, 2)
        assert family_socle(spec) == socle_colon(realize(spec))

    def test_veronese_closed_form(self):
        spec = VeroneseSpec((2, 1, 2), 3)
        closed = family_socle(spec)
        direct = socle_colon(realize(spec))
        assert closed == direct

    def test_veronese_socle_matches_reference_grid(self):
        # the PLP formula on the Veronese windows against the enumerator of
        # the shifted type (k b - 1, k d - 1), whose bounds and degree go
        # negative at b_i = 0 and d = 0
        for n in range(1, 5):
            for bounds in itertools.product(range(4), repeat=n):
                for d in range(7):
                    base = VeroneseSpec(bounds, d)
                    for k in (1, 2, 3):
                        spec = base if k == 1 else PowerSpec(base, k)
                        reference = bounded_degree_reference(
                            [k * b - 1 for b in bounds], k * d - 1, n
                        )
                        got = family_socle(spec)
                        assert got == MonomialIdeal(n, reference), spec
                        assert got.gens == tuple(reference), spec

    def test_no_variables_is_a_precondition_error(self):
        for d in (0, 1):
            with pytest.raises(PreconditionError, match="no variables"):
                family_socle(VeroneseSpec((), d))

    def test_unsupported_family_points_to_colon(self):
        spec = TransversalSpec((frozenset({1, 2}), frozenset({2, 3})), 3)
        with pytest.raises(UnsupportedFamilyError):
            family_socle(spec)


class TestFamilyMaxPd:
    def test_plp_example_is_maximal(self):
        spec = PLPSpec(
            (0, 0, 0, 0, 0),
            (1, 1, 2, 2, 1),
            (0, 0, 0, 1, 2),
            (1, 1, 2, 2, 2),
        )
        assert family_max_pd(spec)

    def test_lp_gap_is_not_maximal(self):
        spec = LPSpec((1, 3), (2, 5), 5)  # alpha_2 = 3 > beta_1 = 2
        I = realize(spec)
        assert not family_max_pd(spec)
        assert not (full_support(I) and max_pd(I))

    def test_disconnected_transversal(self):
        spec = TransversalSpec((frozenset({1, 3}), frozenset({2, 4})), 4)
        assert not family_max_pd(spec)
        I = realize(spec)
        assert betti_table(I).pd == 2  # the four-cycle: short of the maximum 3
        assert not (full_support(I) and max_pd(I))

    def test_loose_plp_windows_are_not_maximal(self):
        # beta_1 = 2 is looser than the bound 1 allows; an inequality test
        # that assumed tight windows called this maximal
        spec = PLPSpec((0, 0), (1, 1), (0, 2), (2, 2))
        assert realize(spec) == ideal("[x1*x2]")
        assert family_socle(spec).is_zero
        assert not family_max_pd(spec)
        assert not max_pd(realize(spec))

    def test_zeroth_power_is_not_read_off_the_base(self):
        # I^0 is the unit ideal, which has no ambient maximal pd, whatever
        # the base and however deep the zero exponent sits
        lp = LPSpec((1,), (2,), 2)
        assert family_max_pd(lp)
        bases = [
            lp,
            TransversalSpec((frozenset({1, 2}), frozenset({2})), 2),
            BorelSpec((M("x1*x2", 2),), 2),
            BorelSpec((M("x1*x2", 2), M("x2^2", 2)), 2),
            VeroneseSpec((1, 1), 2),
        ]
        for base in bases:
            for spec in (PowerSpec(base, 0), PowerSpec(PowerSpec(base, 0), 3)):
                assert realize(spec) == ideal("[1] n=2"), spec
                assert family_socle(spec).is_zero, spec
                assert not family_max_pd(spec), spec
                assert not full_support(realize(spec)), spec

    def test_agreement_with_oracle_on_small_zoo(self, fuzz_corpus):
        mixed_borel = BorelSpec((M("x1*x3", 3), M("x2^2", 3)), 3)
        zoo = [
            VeroneseSpec((1, 1, 1), 2),
            VeroneseSpec((2, 2), 2),
            VeroneseSpec((1, 2, 2), 3),
            BorelSpec((M("x2*x3", 3),), 3),
            BorelSpec((M("x2^2", 3),), 3),
            mixed_borel,
            LPSpec((1, 2), (2, 3), 3),
            LPSpec((1, 1, 2), (2, 3, 3), 3),
            PLPSpec((0, 0), (2, 2), (0, 2), (1, 2)),
            PLPSpec((0, 0, 0), (1, 1, 1), (0, 1, 2), (1, 2, 2)),
            TransversalSpec((frozenset({1, 2}), frozenset({2, 3})), 3),
            PowerSpec(LPSpec((1, 2), (2, 3), 3), 2),
            PowerSpec(VeroneseSpec((1, 1, 1), 2), 3),
            PLPSpec((0, 0), (1, 1), (0, 2), (2, 2)),
            # nested powers are read off the innermost base
            PowerSpec(PowerSpec(LPSpec((1, 2), (2, 3), 3), 2), 3),
            PowerSpec(PowerSpec(LPSpec((1, 3), (2, 4), 4), 2), 2),
            PowerSpec(PowerSpec(mixed_borel, 2), 2),
            PowerSpec(PowerSpec(VeroneseSpec((1, 1, 1), 2), 2), 2),
            PowerSpec(PowerSpec(PLPSpec((0, 0), (1, 1), (0, 2), (2, 2)), 2), 2),
            PowerSpec(LPSpec((1, 2), (2, 3), 3), 0),
        ]
        for spec in zoo:
            I = realize(spec)
            assert not I.is_zero, spec
            assert family_max_pd(spec) == (full_support(I) and max_pd(I)), spec
        # the corpus adds every spec the closed forms support
        checked = 0
        for spec, _ in fuzz_corpus:
            I = realize(spec)
            if I.is_zero:
                continue
            try:
                closed = family_max_pd(spec)
            except UnsupportedFamilyError:
                continue
            assert closed == (full_support(I) and max_pd(I)), spec
            checked += 1
        assert checked >= 400


class TestFamilySocleOnCorpus:
    def test_closed_forms_match_colon_everywhere(self, fuzz_corpus):
        from polyshift import BorelSpec, UnsupportedFamilyError, VeroneseSpec

        supported = (VeroneseSpec, PLPSpec, LPSpec, BorelSpec, PowerSpec)
        checked = 0
        for spec, I in fuzz_corpus:
            if not isinstance(spec, supported):
                continue
            try:
                closed = family_socle(spec)
            except UnsupportedFamilyError:
                continue
            direct = socle_colon(I)
            assert closed == direct, spec
            checked += 1
        assert checked >= 150


class TestPowerPersistence:
    def test_example_square(self, example_ideal):
        result = power_persistence(example_ideal, 2)
        assert result.ok
        assert str(result.witness) == "x3^2*x5"

    def test_first_power_returns_base_witness(self, example_ideal):
        result = power_persistence(example_ideal, 1)
        assert result.ok
        assert str(result.witness) == "x3"

    def test_borel_cube(self):
        I = borel_closure([M("x2*x3", 3)])
        result = power_persistence(I, 3)
        assert result.ok
        assert str(result.witness) == "x1^3*x3^2"
        # the seed generator's own witness works too: (x2*x3)^3 / x3
        cube = ideal_power(I, 3)
        other = M("x2*x3", 3) ** 3 / Monomial.variable(3, 3)
        assert str(other) == "x2^3*x3^2"
        assert all(
            (other * Monomial.variable(i, 3)).exponents in cube.exponent_set
            for i in (1, 2, 3)
        )

    def test_requires_maximal_pd(self, trio_ideal):
        with pytest.raises(PreconditionError):
            power_persistence(trio_ideal, 2)

    def test_square_against_colon_socle_and_oracle(self, fuzz_corpus):
        checked = 0
        for I in small_full_support(fuzz_corpus):
            soc = socle_colon(I)
            if soc.is_zero:
                with pytest.raises(PreconditionError):
                    power_persistence(I, 2)
                continue
            result = power_persistence(I, 2)
            x_n = Monomial.variable(I.n, I.n)
            u = soc.gens[0] * x_n
            assert result.witness == u ** 2 / x_n
            assert result.ok == (betti_table(ideal_power(I, 2)).pd == I.n - 1)
            checked += 1
        assert checked >= 100

    def test_generator_check_survives_optimize_flag(self, tmp_path):
        # under python -O a bare assert is stripped; x_n * w for the socle
        # element w must still be checked to be a generator
        body = (
            "import sys\n"
            f"sys.path.insert(0, {str(TESTS)!r})\n"
            "from types import SimpleNamespace\n"
            "import util\n"
            "from polyshift import parse_ideal\n"
            "wrong = parse_ideal('[x1] n=2').ideal\n"
            "util.socle_report = lambda I: SimpleNamespace(socle=wrong, witness=None)\n"
            "util.power_persistence(parse_ideal('[x1, x2]').ideal, 2)\n"
        )
        outcome = outcome_under_optimize(body, tmp_path)
        assert outcome == "raised socle element x1 times x2 is not a generator of the ideal"


class TestNoVariables:
    """The unit ideal in 0 variables has no socle: refused, not crashed."""

    def test_socle_routes_refuse(self):
        I = ideal("[1] n=0")
        with pytest.raises(PreconditionError, match="no variables"):
            socle_report(I)
        with pytest.raises(PreconditionError, match="no variables"):
            socle_colon(I)
        with pytest.raises(PreconditionError, match="no variables"):
            socle_exchange(certify_lex(I))
        with pytest.raises(PreconditionError, match="no variables"):
            power_persistence(I, 2)

    def test_max_pd_still_answers(self):
        assert max_pd(ideal("[1] n=0"))


class TestSocleReport:
    def test_example_report(self, example_ideal):
        report = socle_report(example_ideal)
        assert report.max_pd
        assert report.route == "exchange-formula"
        assert gens_set(report.socle) == {"x3", "x4"}
        assert report.witness is not None and str(report.witness) == "x3*x5"
        assert set(report.routes) == {"colon", "exchange-formula"}
        assert all(soc == report.socle for soc in report.routes.values())
        assert gens_set(report.top_shift) == {"x1*x2*x3^2*x4*x5", "x1*x2*x3*x4^2*x5"}
