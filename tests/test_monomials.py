import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshift import (
    DegreeMismatchError,
    DimensionMismatchError,
    Monomial,
    MonomialIdeal,
    ResourceCapError,
    VariableOrder,
    distance,
    ideal_power,
    ideal_product,
    minimal_generators,
    restrict_to_support,
    support_filter,
)
from polyshift import monomials
from util import M, all_monomials, gens_set, ideal, lcm, unit_exchange

def equal_degree_pairs():
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.integers(min_value=1, max_value=5).flatmap(
            lambda d: st.tuples(
                st.sampled_from(all_monomials(n, d)),
                st.sampled_from(all_monomials(n, d)),
            )
        )
    )


class TestLcm:
    def test_known_pair(self):
        assert lcm(M("x3^2*x4", 5), M("x3*x4^2", 5)) == M("x3^2*x4^2", 5)

    def test_idempotent(self):
        u = M("x1*x2^3", 3)
        assert lcm(u, u) == u

    def test_disjoint_supports_multiply(self):
        assert lcm(M("x1*x2", 3), M("x3", 3)) == M("x1*x2*x3", 3)

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatchError):
            lcm(M("x1", 2), M("x1", 3))


class TestDistance:
    def test_single_exchange(self):
        # x2*x4 = x4 * (x1*x2) / x1, one exchange apart
        assert distance(M("x2*x4", 4), M("x1*x2", 4)) == 1

    def test_zero_iff_equal(self):
        u = M("x1^2*x3", 3)
        assert distance(u, u) == 0

    def test_two_exchanges(self):
        assert distance(M("x1^2*x3", 3), M("x2^2*x3", 3)) == 2

    def test_degree_mismatch_raises(self):
        with pytest.raises(DegreeMismatchError):
            distance(M("x1", 2), M("x1*x2", 2))

    @settings(deadline=None)
    @given(equal_degree_pairs())
    def test_symmetric_and_definite(self, pair):
        u, v = pair
        assert distance(u, v) == distance(v, u)
        assert (distance(u, v) == 0) == (u == v)

    @settings(deadline=None)
    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda n: st.integers(min_value=1, max_value=4).flatmap(
                lambda d: st.tuples(*[st.sampled_from(all_monomials(n, d))] * 3)
            )
        )
    )
    def test_triangle_inequality(self, triple):
        u, v, w = triple
        assert distance(u, w) <= distance(u, v) + distance(v, w)


class TestUnitExchange:
    def test_explicit_pair(self):
        assert unit_exchange(M("x1*x2*x4", 4), M("x1*x2*x3", 4)) == (4, 3)

    def test_equal_monomials(self):
        u = M("x1*x2", 4)
        assert unit_exchange(u, u) is None

    def test_distance_two(self):
        assert unit_exchange(M("x3^2*x5", 5), M("x4^2*x5", 5)) is None

    def test_degree_mismatch_raises(self):
        with pytest.raises(DegreeMismatchError):
            unit_exchange(M("x1", 2), M("x1^2", 2))

    def test_exhaustive_equivalence_with_distance_one(self):
        for n in range(2, 5):
            for d in range(1, 5):
                monomials = all_monomials(n, d)
                for u, v in itertools.product(monomials, monomials):
                    ex = unit_exchange(u, v)
                    if distance(u, v) == 1:
                        k, l = ex
                        assert u == v / Monomial.variable(l, n) * Monomial.variable(k, n)
                    else:
                        assert ex is None


class TestCoordinateBitsets:
    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=70
            )
        )
    )
    def test_partitions_the_rows_by_value(self, rows):
        # 70 rows spill the bitsets past one 64-bit word
        tables = monomials.coordinate_bitsets(rows)
        assert len(tables) == len(rows[0])
        everyone = (1 << len(rows)) - 1
        for k, table in enumerate(tables):
            column = [row[k] for row in rows]
            assert set(table) == set(column)
            for t, (below, at, above) in table.items():
                assert (below, at, above) == tuple(
                    sum(1 << r for r, v in enumerate(column) if relation(v, t))
                    for relation in (operator.lt, operator.eq, operator.gt)
                )
                assert below | at | above == everyone
                assert not (below & at or below & above or at & above)


class TestMinimalGenerators:
    def test_drops_multiples(self):
        I = minimal_generators([M("x1", 2), M("x1*x2", 2), M("x2", 2)])
        assert gens_set(I) == {"x1", "x2"}

    def test_dedup(self):
        I = minimal_generators([M("x1*x3", 3), M("x1*x3", 3)])
        assert gens_set(I) == {"x1*x3"}

    def test_sixteen_products_minimalize_to_eleven(self, example_ideal):
        left = [M(s, 5) for s in ("x1", "x2", "x3", "x4")]
        right = [M(s, 5) for s in ("x3", "x4", "x5")]
        products = [a * b for a in left for b in right]
        assert len(products) == 12
        I = minimal_generators(products)
        assert I == example_ideal
        assert I.num_gens == 11

    def test_empty_needs_n(self):
        assert minimal_generators([], 3).is_zero
        with pytest.raises(ValueError):
            minimal_generators([])

    @settings(deadline=None)
    @given(
        st.lists(
            st.builds(
                Monomial,
                st.tuples(*[st.integers(min_value=0, max_value=4)] * 3),
            ),
            max_size=8,
        )
    )
    def test_idempotent_and_order_insensitive(self, mons):
        I = minimal_generators(mons, 3)
        again = minimal_generators(list(I.gens), 3)
        assert again == I
        reversed_input = minimal_generators(list(reversed(mons)), 3)
        assert reversed_input == I

    @settings(deadline=None)
    @given(
        st.lists(
            st.builds(
                Monomial,
                st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
            ),
            max_size=10,
        )
    )
    def test_matches_the_pairwise_antichain(self, mons):
        # the exponent vectors no other one divides, in descending
        # lexicographic order
        distinct = {m.exponents for m in mons}
        expected = sorted(
            (
                e
                for e in distinct
                if not any(f != e and all(a <= b for a, b in zip(f, e)) for f in distinct)
            ),
            reverse=True,
        )
        assert [g.exponents for g in minimal_generators(mons, 3).gens] == expected


class TestIdealProduct:
    def test_prime_product_example(self, example_ideal):
        left = minimal_generators([M(s, 5) for s in ("x1", "x2", "x3", "x4")])
        right = minimal_generators([M(s, 5) for s in ("x3", "x4", "x5")])
        assert ideal_product(left, right) == example_ideal

    def test_unit_identity(self, trio_ideal):
        unit = MonomialIdeal(4, [Monomial.unit(4)])
        assert ideal_product(trio_ideal, unit) == trio_ideal

    def test_square_of_prime(self):
        p = minimal_generators([M("x1", 2), M("x2", 2)])
        # brute force: all pairwise products, then minimalize
        expected = minimal_generators([a * b for a in p.gens for b in p.gens])
        assert ideal_product(p, p) == expected
        assert gens_set(expected) == {"x1^2", "x1*x2", "x2^2"}

    def test_zero_absorbs(self, trio_ideal):
        assert ideal_product(trio_ideal, MonomialIdeal(4)).is_zero

    def test_power_splits(self, trio_ideal):
        assert ideal_power(trio_ideal, 3) == ideal_product(
            ideal_power(trio_ideal, 1), ideal_power(trio_ideal, 2)
        )
        assert ideal_power(trio_ideal, 0).is_unit

    def test_pair_cap(self, monkeypatch):
        p = minimal_generators([M("x1", 2), M("x2", 2)])
        monkeypatch.setattr(monomials, "PRODUCT_CAP", 4)
        assert ideal_product(p, p).num_gens == 3
        assert ideal_power(p, 2).num_gens == 3
        with pytest.raises(ResourceCapError, match="cap of 4 pairs"):
            ideal_product(ideal_power(p, 2), p)
        with pytest.raises(ResourceCapError):
            ideal_power(p, 3)

    def test_power_cap_counts_every_step(self, monkeypatch):
        # q^s has s + 1 generators, so q^3 forms 2*2 + 3*2 = 10 pairs and q^4
        # 18; q is not equigenerated, so only the loop's count refuses it
        q = minimal_generators([M("x1^2", 2), M("x2", 2)])
        products = []

        def counted(left, right):
            products.append(left.num_gens * right.num_gens)
            return ideal_product(left, right)

        monkeypatch.setattr(monomials, "ideal_product", counted)
        monkeypatch.setattr(monomials, "PRODUCT_CAP", 10)
        assert ideal_power(q, 3).num_gens == 4
        assert products == [4, 6]
        products.clear()
        with pytest.raises(ResourceCapError, match="ideal power 4 of 2 generators"):
            ideal_power(q, 4)
        assert products == [4, 6]  # refused before the third product
        monkeypatch.setattr(monomials, "PRODUCT_CAP", 9)
        with pytest.raises(ResourceCapError, match="cap of 9 pairs"):
            ideal_power(q, 3)
        assert ideal_power(q, 1) == q and ideal_power(q, 0).is_unit

    def test_long_equigenerated_power_is_refused_before_any_product(self, monkeypatch):
        # p^j has at least j + 1 generators, so p^20000 forms at least
        # 2 * 19999 * 20002 / 2 pairs, far past the cap
        p = minimal_generators([M("x1", 2), M("x2", 2)])
        products = []
        monkeypatch.setattr(monomials, "ideal_product", lambda *pair: products.append(pair))
        with pytest.raises(ResourceCapError) as refused:
            ideal_power(p, 20000)
        assert str(refused.value) == (
            "ideal power 20000 of 2 generators exceeds the cap of 1000000 pairs"
        )
        assert products == []
        # p^4 forms 4 + 6 + 8 = 18 pairs, exactly the bound: refused at 17
        monkeypatch.setattr(monomials, "PRODUCT_CAP", 17)
        with pytest.raises(ResourceCapError, match="cap of 17 pairs"):
            ideal_power(p, 4)
        assert products == []

    def test_power_under_the_bound_is_unchanged(self, monkeypatch):
        # p^4 forms 3*3 + 6*3 + 10*3 = 57 pairs against a bound of 27: at a
        # cap of 57 it is the repeated product, and p^5 is refused in the loop
        p = minimal_generators([M("x1*x2", 3), M("x2*x3", 3), M("x1*x3", 3)])
        monkeypatch.setattr(monomials, "PRODUCT_CAP", 57)
        cube = ideal_product(ideal_product(p, p), p)
        assert cube.num_gens == 10
        assert ideal_power(p, 4) == ideal_product(cube, p)
        with pytest.raises(ResourceCapError, match="ideal power 5 of 3 generators"):
            ideal_power(p, 5)

    def test_commutative_and_associative(self, example_ideal, trio_ideal):
        A = minimal_generators([M("x1*x2", 3), M("x3", 3)])
        B = minimal_generators([M("x2^2", 3), M("x1*x3", 3)])
        C = minimal_generators([M("x1", 3), M("x2", 3)])
        assert ideal_product(A, B) == ideal_product(B, A)
        assert ideal_product(ideal_product(A, B), C) == ideal_product(
            A, ideal_product(B, C)
        )


class TestSupportFilter:
    def test_example_shift(self, example_ideal):
        from polyshift import VeroneseSpec, realize

        raised = realize(VeroneseSpec((1, 1, 2, 2, 1), 4))
        filtered = support_filter(raised, 2)
        assert filtered.num_gens == 17

    def test_keeps_pairs(self):
        J = ideal("[x1*x2, x3*x4]")
        assert support_filter(J, 1) == J

    def test_drops_pure_power(self):
        J = ideal("[x1^3, x1*x2*x3]")
        assert gens_set(support_filter(J, 1)) == {"x1*x2*x3"}

    def test_generators_divide_originals(self, example_ideal):
        filtered = support_filter(example_ideal, 1)
        for g in filtered.gens:
            assert len(g.support) > 1
            assert any(g == h for h in example_ideal.gens)


class TestCanonicalForm:
    def test_zero_and_unit_distinct(self):
        zero = MonomialIdeal(3)
        unit = MonomialIdeal(3, [Monomial.unit(3)])
        assert zero.is_zero and not zero.is_unit
        assert unit.is_unit and not unit.is_zero
        assert zero != unit

    def test_descending_lex_storage(self, trio_ideal):
        keys = [g.exponents for g in trio_ideal.gens]
        assert keys == sorted(keys, reverse=True)

    def test_variable_order_keys(self):
        vo = VariableOrder((2, 1, 3, 4))
        u, v = M("x2*x4", 4), M("x1*x3", 4)
        assert vo.key(u) > vo.key(v)

    def test_restrict_to_support(self):
        I = ideal("[x2*x5, x2*x4] n=6")
        J, mapping = restrict_to_support(I)
        assert I.support == (2, 4, 5)
        assert J.n == 3
        assert mapping == (2, 4, 5)
        assert gens_set(J) == {"x1*x3", "x1*x2"}
        # no variable divides a generator of the zero or the unit ideal
        zero, unit = MonomialIdeal(4), MonomialIdeal(4, [Monomial.unit(4)])
        assert zero.support == unit.support == ()
        assert restrict_to_support(zero) == (MonomialIdeal(0), ())
        assert restrict_to_support(unit) == (MonomialIdeal(0, [Monomial(())]), ())

    def test_restrict_to_full_support_is_the_ideal(self):
        I = ideal("[x1*x2, x2*x3^2] n=3")
        J, mapping = restrict_to_support(I)
        assert J is I
        assert mapping == (1, 2, 3)


class TestVariableIndices:
    """Every constructor that takes a 1-based variable index refuses one
    outside 1..n instead of wrapping index 0 to the last variable."""

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_out_of_range_refused(self, i):
        calls = [
            lambda: Monomial.variable(i, 3),
            lambda: Monomial.from_support((1, i), 3),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"variable index {i} out of range 1..3"):
                call()

    def test_in_range(self):
        # both ends of 1..n are accepted
        assert [str(Monomial.variable(i, 3)) for i in (1, 2, 3)] == ["x1", "x2", "x3"]
        assert str(Monomial.from_support((3, 1), 3)) == "x1*x3"


class TestExchangeMoves:
    def test_explicit_order(self):
        moves = monomials.exchange_moves(Monomial((1, 0, 2)))
        assert moves == [
            (0, 1, (0, 1, 2)),
            (0, 2, (0, 0, 3)),
            (2, 0, (2, 0, 1)),
            (2, 1, (1, 1, 1)),
        ]

    def test_unit_has_no_moves(self):
        assert monomials.exchange_moves(Monomial.unit(3)) == []

    def test_exhaustive_equivalence_with_distance_one(self):
        for n in range(1, 5):
            for d in range(0, 4):
                for u in all_monomials(n, d):
                    moves = monomials.exchange_moves(u)
                    assert [(i, j) for i, j, _ in moves] == sorted(
                        (i, j) for i in range(n) for j in range(n)
                        if i != j and u.exponents[i]
                    )
                    assert all(
                        unit_exchange(Monomial(move), u) == (j + 1, i + 1)
                        for i, j, move in moves
                    )
                    assert {move for _, _, move in moves} == {
                        v.exponents for v in all_monomials(n, d) if distance(u, v) == 1
                    }


class TestDegreeSet:
    @settings(deadline=None)
    @given(
        st.lists(
            st.builds(Monomial, st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_a_recount(self, mons):
        # mixed degrees included; the cached answer repeats on a second call
        I = MonomialIdeal(3, mons)
        degrees = {sum(g.exponents) for g in I.gens}
        for _ in range(2):
            assert I.is_equigenerated == (len(degrees) == 1)
            if len(degrees) == 1:
                assert I.generation_degree == min(degrees)
            else:
                with pytest.raises(DegreeMismatchError) as caught:
                    I.generation_degree
                assert str(caught.value) == (
                    f"ideal is not equigenerated (degrees {sorted(degrees)})"
                )

    def test_zero_ideal(self):
        assert MonomialIdeal(3).is_equigenerated
        with pytest.raises(DegreeMismatchError, match=r"\(degrees \[\]\)"):
            MonomialIdeal(3).generation_degree
