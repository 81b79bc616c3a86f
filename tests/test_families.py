import itertools
import math
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyshift import (
    BorelSpec,
    FamilySpecError,
    GenBudget,
    LPSpec,
    Monomial,
    NotStronglyStableError,
    PLPSpec,
    PowerSpec,
    ProductSpec,
    ResourceCapError,
    TransversalSpec,
    VeroneseSpec,
    ZeroIdealError,
    borel_generators,
    check_exchange,
    ideal_power,
    is_matroidal,
    is_polymatroidal,
    is_strongly_stable,
    MonomialIdeal,
    minimal_generators,
    monomial_multiples,
    random_polymatroidal,
    realize,
    support_filter,
    veronese_shift,
)
from polyshift import families, monomials
from polyshift.families import EXCHANGE_MODES, _realize_windows, plp_windows
from util import (
    M,
    all_monomials,
    borel_closure,
    borel_closure_reference,
    borel_generator_lists,
    bounded_degree_reference,
    gens_set,
    ideal,
    is_strongly_stable_reference,
    lp_specs,
    outcome_under_optimize,
    pairwise_exchange_reference,
    plp_factor,
    windowed_reference,
    windowed_specs,
)


class LookupCounter(dict):
    """A dict that counts its membership tests."""

    lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


@st.composite
def window_params(draw):
    """(lower, upper, alpha, beta) on boxes of up to four coordinates, around
    a vector c of the box: each upper bound and window end is moved off c or
    its prefix sums by -1..2, so the box and the windows may cross, and the
    last window is sometimes left open (alpha_n < beta_n)."""
    n = draw(st.integers(1, 4))
    shifts = st.lists(st.sampled_from([-1, 0, 1, 2, 2]), min_size=n, max_size=n)
    c = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    lower = [max(0, x - e) for x, e in zip(c, draw(shifts))]
    upper = [x + e for x, e in zip(c, draw(shifts))]
    sums = list(itertools.accumulate(c))
    alpha = [s - e for s, e in zip(sums, draw(shifts))]
    beta = [s + e for s, e in zip(sums, draw(shifts))]
    if draw(st.integers(0, 3)):
        alpha[-1] = beta[-1] = sums[-1] + draw(st.integers(-1, 1))
    return lower, upper, alpha, beta


def borel_membership_brute(v: Monomial, u: Monomial) -> bool:
    """Principal stable membership via the sorted index sequences: every
    index of v is bounded by the matching index of u."""
    def indices(m):
        out = []
        for i, e in enumerate(m.exponents, start=1):
            out.extend([i] * e)
        return out

    vi, ui = indices(v), indices(u)
    return len(vi) == len(ui) and all(a <= b for a, b in zip(vi, ui))


class TestRealize:
    def test_plp_example_matches_prime_product(self, example_ideal):
        spec = PLPSpec(
            (0, 0, 0, 0, 0),
            (1, 1, 2, 2, 1),
            (0, 0, 0, 1, 2),
            (1, 1, 2, 2, 2),
        )
        assert realize(spec) == example_ideal

    def test_lp_example(self, example_ideal):
        spec = LPSpec((1, 3), (4, 5), 5)
        assert realize(spec) == example_ideal

    def test_unconstrained_veronese_is_all_monomials(self):
        spec = VeroneseSpec((3, 3, 3), 3)
        I = realize(spec)
        assert I.num_gens == math.comb(3 + 3 - 1, 3)
        assert gens_set(I) == {str(m) for m in all_monomials(3, 3)}

    def test_infeasible_veronese_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert realize(VeroneseSpec((1, 0), 3)).is_zero

    def test_product_and_power_specs(self, example_ideal):
        left = TransversalSpec((frozenset({1, 2, 3, 4}),), 5)
        right = TransversalSpec((frozenset({3, 4, 5}),), 5)
        assert realize(ProductSpec((left, right))) == example_ideal
        square = PowerSpec(LPSpec((1, 3), (4, 5), 5), 2)
        assert realize(square) == ideal_power(example_ideal, 2)

    def test_plp_invariant_validation(self):
        with pytest.raises(FamilySpecError):
            PLPSpec((0, 0), (1, 1), (2, 1), (2, 2))  # alpha not nondecreasing
        with pytest.raises(FamilySpecError):
            PLPSpec((0, 0), (1, 1), (0, 1), (0, 2))  # alpha_n != beta_n

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BorelSpec((), 2), "borel spec needs at least one generator"),
            (
                lambda: ProductSpec((LPSpec((1,), (2,), 2),)),
                "product spec needs at least two factors",
            ),
            (lambda: TransversalSpec((), 2), "transversal spec needs at least one set"),
        ],
        ids=["borel-no-generators", "product-one-factor", "transversal-no-sets"],
    )
    def test_refusals_behind_the_parser(self, build, message):
        # the parser refuses documents of these shapes itself, so only a
        # constructor call reaches these checks; the other constructor
        # refusals are pinned through the CLI
        with pytest.raises(FamilySpecError) as info:
            build()
        assert str(info.value) == message

    def test_plp_factorization(self):
        spec = PLPSpec((1, 0, 1), (2, 2, 2), (1, 2, 4), (2, 3, 4))
        monomial, basic = plp_factor(spec)
        assert not any(basic.lower)
        assert monomial_multiples(realize(basic), monomial) == realize(spec)

    @pytest.mark.parametrize(
        "spec, formed",
        [
            (VeroneseSpec((2, 2, 2), 3), 7),
            (BorelSpec((M("x3^2", 3),), 3), 6),
            # x1, x2^2, x1*x2 and x1^2 are formed; minimalization keeps two
            (BorelSpec((M("x1", 3), M("x2^2", 3)), 3), 4),
            # B(x1*x3) and B(x2^2) share x1^2 and x1*x2, which count once
            (BorelSpec((M("x1*x3", 3), M("x2^2", 3), M("x2^2", 3)), 3), 4),
            # p_[1,2] p_[2,3]: x1*x2, x1*x3, x2^2 and x2*x3
            (LPSpec((1, 2), (2, 3), 3), 4),
        ],
        ids=["veronese", "borel", "borel-non-minimal", "borel-overlapping", "lp"],
    )
    def test_generator_cap_boundary(self, spec, formed, monkeypatch):
        expected = realize(spec)
        monkeypatch.setattr(families, "GENERATOR_CAP", formed)
        assert realize(spec) == expected
        monkeypatch.setattr(families, "GENERATOR_CAP", formed - 1)
        with pytest.raises(ResourceCapError, match=f"cap of {formed - 1} generators"):
            realize(spec)


class TestBorel:
    def test_closure_matches_brute_force(self):
        u = M("x2*x3", 3)
        closure = borel_closure([u])
        expected = [v for v in all_monomials(3, 2) if borel_membership_brute(v, u)]
        assert closure == minimal_generators(expected, 3)
        assert gens_set(closure) == {"x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3"}

    def test_pure_power_is_fixed(self):
        assert gens_set(borel_closure([M("x1^3", 2)])) == {"x1^3"}

    def test_power_commutes_with_closure(self):
        for name, k in [("x2*x3", 2), ("x1*x2^2", 3), ("x2^2", 2)]:
            u = M(name, 3)
            assert ideal_power(borel_closure([u]), k) == borel_closure([u ** k])

    def test_closure_is_stable_and_minimal(self):
        closure = borel_closure([M("x2*x4", 4)])
        assert is_strongly_stable(closure).holds
        # removing any single generator breaks stability or loses the seed
        for g in closure.gens:
            rest = minimal_generators(
                [h for h in closure.gens if h != g], 4
            )
            still_contains = rest.contains(M("x2*x4", 4))
            assert not (still_contains and is_strongly_stable(rest).holds)

    def test_borel_generators_recovered(self):
        closure = borel_closure([M("x2*x3", 3)])
        assert [str(g) for g in borel_generators(closure)] == ["x2*x3"]

    def test_borel_generators_refuse_an_unstable_ideal(self):
        with pytest.raises(NotStronglyStableError, match="not strongly stable"):
            borel_generators(ideal("[x2] n=2"))

    @settings(max_examples=150, deadline=None)
    @given(borel_generator_lists())
    def test_closure_matches_move_closure_reference(self, drawn):
        gens, n = drawn
        assert borel_closure(gens) == borel_closure_reference(gens, n)
        assert realize(BorelSpec(tuple(gens), n)) == borel_closure_reference(gens, n)

    @settings(max_examples=100, deadline=None)
    @given(borel_generator_lists())
    def test_windows_of_one_degree_form_each_monomial_once(self, drawn):
        # the windows are searched together, so every vector the search
        # reaches is new, however much the windows overlap
        gens, n = drawn
        windows = plp_windows(BorelSpec(tuple(gens), n))
        for d in {u.degree for u in gens}:
            alphas = [alpha for _, _, alpha, _ in windows if alpha[-1] == d]
            out = LookupCounter()
            families._windows_into(out, (0,) * n, (d,) * n, alphas, (d,) * n)
            assert out.lookups == len(out)
            assert set(out) == {
                m.exponents
                for lower, upper, alpha, beta in windows
                if alpha[-1] == d
                for m in _realize_windows(n, [(lower, upper, alpha, beta)]).gens
            }

    def test_nested_generators_end_quickly(self):
        # the 45 generators x_i*x_j*x9^8 all lie in B(x9^10), one of them;
        # listing each window in full took 10.6 s and the move closure 3.1 s
        gens = []
        for i, j in itertools.combinations_with_replacement(range(9), 2):
            exps = [0] * 8 + [8]
            exps[i] += 1
            exps[j] += 1
            gens.append(Monomial(tuple(exps)))
        start = time.perf_counter()
        closure = borel_closure(gens)
        assert time.perf_counter() - start < 3
        assert closure.num_gens == math.comb(18, 8)

    def test_repeated_generators_end_quickly(self):
        # 300 copies of x9^11 form all C(19, 8) = 75582 monomials of degree 11;
        # listing each copy's window in full took about 0.3 s a copy
        spec = BorelSpec((Monomial((0,) * 8 + (11,)),) * 300, 9)
        start = time.perf_counter()
        closure = realize(spec)
        assert time.perf_counter() - start < 5
        assert closure.num_gens == math.comb(19, 8)

    def test_antichain_of_generators_ends_quickly(self):
        # 400 degree-9 generators of one prefix-sum rank, none in another's
        # B(u): listing each window in full took 6.8 s, the move closure 0.6 s
        def rank(exps):
            return sum(itertools.accumulate(exps))

        degree_nine = [
            tuple(b - a - 1 for a, b in zip((-1, *cut), (*cut, 17)))
            for cut in itertools.combinations(range(17), 8)
        ]
        middle = (min(map(rank, degree_nine)) + max(map(rank, degree_nine))) // 2
        gens = [Monomial(e) for e in degree_nine if rank(e) == middle][:400]
        start = time.perf_counter()
        closure = borel_closure(gens)
        assert time.perf_counter() - start < 2
        assert closure == borel_closure_reference(gens, 9)


class TestStronglyStable:
    def test_witness_on_failure(self):
        result = is_strongly_stable(ideal("[x2] n=2"))
        assert not result.holds
        u, i, j = result.witness
        assert (str(u), i, j) == ("x2", 2, 1)

    def test_explicit_stable_list(self):
        I = ideal("[x1*x3, x1*x2, x1^2, x2^2, x2*x3]")
        assert is_strongly_stable(I).holds

    def test_zero_raises(self):
        from polyshift import MonomialIdeal

        with pytest.raises(ZeroIdealError):
            is_strongly_stable(MonomialIdeal(2))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_membership_scan(self, data):
        # mixed-degree lists, and stable closures with a generator dropped
        # or a generator's multiple added
        if data.draw(st.booleans()):
            n = data.draw(st.integers(1, 4))
            exps = st.tuples(*[st.integers(0, 2)] * n).map(Monomial)
            I = MonomialIdeal(n, data.draw(st.lists(exps, min_size=1, max_size=6)))
        else:
            gens, n = data.draw(borel_generator_lists())
            gens = list(borel_closure(gens, n).gens)
            if len(gens) > 1 and data.draw(st.booleans()):
                gens.pop(data.draw(st.integers(0, len(gens) - 1)))
            if data.draw(st.booleans()):
                gens.append(data.draw(st.sampled_from(gens)) * Monomial.variable(n, n))
            I = MonomialIdeal(n, gens)
        assert is_strongly_stable(I) == is_strongly_stable_reference(I)


class TestExchange:
    def test_example_is_polymatroidal(self, example_ideal):
        assert check_exchange(example_ideal, "exchange").holds

    def test_example_fails_strong_exchange_with_witness(self, example_ideal):
        result = check_exchange(example_ideal, "strong")
        assert not result.holds
        u, v, i, j = result.witness
        assert (str(u), str(v), i, j) == ("x1*x3", "x2*x4", 3, 2)

    def test_veronese_satisfies_strong_exchange(self):
        for bounds, d in [((2, 2, 2), 2), ((1, 2, 1, 2), 3), ((1, 1, 1), 2)]:
            I = realize(VeroneseSpec(bounds, d))
            assert check_exchange(I, "strong").holds

    def test_modes_are_the_check_properties(self):
        # polymatroidal and matroidal run "exchange", strong-exchange "strong"
        assert EXCHANGE_MODES == ("exchange", "strong")
        with pytest.raises(ValueError, match="unknown exchange mode 'symmetric'"):
            check_exchange(ideal("[x1, x2]"), "symmetric")

    def test_non_equigenerated_fails_with_reason(self):
        result = check_exchange(ideal("[x1, x2*x3]"), "exchange")
        assert not result.holds
        assert result.reason == "not equigenerated"

    def test_matroidal_require_squarefree(self):
        assert is_matroidal(ideal("[x1*x2, x1*x3, x2*x3]"))
        assert not is_matroidal(ideal("[x1^2, x1*x2, x2^2]"))
        assert is_polymatroidal(ideal("[x1^2, x1*x2, x2^2]"))


def without(I, g):
    """The ideal generated by G(I) minus the generator g."""
    return MonomialIdeal(I.n, [h for h in I.gens if h != g])


@st.composite
def exchange_inputs(draw):
    """Generator sets on which the exchange checks hold or fail: random
    degree-d monomials, mixed degrees, and polymatroidal draws with at most
    one generator dropped."""
    kind = draw(st.sampled_from(["subset", "mixed", "family"]))
    if kind == "family":
        seed = draw(st.integers(0, 2**32 - 1))
        _, I = random_polymatroidal(seed, GenBudget(n_max=4, degree_max=3, gen_max=40))
        drop = draw(st.integers(-1, I.num_gens - 1))
        return I if drop < 0 or I.num_gens == 1 else without(I, I.gens[drop])
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    pool = all_monomials(n, d)
    if kind == "mixed":
        pool += all_monomials(n, d + 1)
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    return MonomialIdeal(n, picked)


def assert_matches_pairwise_reference(I):
    for mode in EXCHANGE_MODES:
        result = check_exchange(I, mode)
        expected = pairwise_exchange_reference(I, mode)
        assert (result.holds, result.witness, result.reason) == (
            expected.holds, expected.witness, expected.reason
        ), mode


# the 70 generators of degree 4 in 5 variables minus x1*x5^3: the exchange
# witness (x1^2*x5^2, x5^4, 1) has v at position 68, past one word
VERONESE_MINUS_ONE = without(realize(VeroneseSpec((4,) * 5, 4)), M("x1*x5^3", 5))


class TestExchangeAgainstPairwiseReference:
    @settings(deadline=None, max_examples=300)
    @given(exchange_inputs())
    def test_matches_reference_in_every_mode(self, I):
        assert_matches_pairwise_reference(I)

    @pytest.mark.parametrize(
        "I",
        [
            ideal("[x1*x2^2] n=3"),
            ideal("[x1, x2*x3]"),
            ideal("[x1^3] n=1"),
            VERONESE_MINUS_ONE,
        ],
        ids=["one-generator", "non-equigenerated", "n=1", "veronese-70-minus-one"],
    )
    def test_named_cases(self, I):
        assert_matches_pairwise_reference(I)

    def test_witness_beyond_one_word(self):
        result = check_exchange(VERONESE_MINUS_ONE, "exchange")
        u, v, i = result.witness
        assert (str(u), str(v), i) == ("x1^2*x5^2", "x5^4", 1)
        assert VERONESE_MINUS_ONE.gens.index(v) == 68


class TestExchangeImplications:
    def test_strong_implies_plain(self, fuzz_corpus):
        import random

        rng = random.Random(4242)
        pool = [I for _, I in fuzz_corpus[:60]]
        # arbitrary equigenerated ideals too, where both can fail
        from util import all_monomials

        for _ in range(60):
            n = rng.randint(2, 4)
            d = rng.randint(1, 3)
            choices = all_monomials(n, d)
            picked = rng.sample(choices, rng.randint(1, min(6, len(choices))))
            pool.append(minimal_generators(picked, n))
        for I in pool:
            strong = check_exchange(I, "strong").holds
            plain = check_exchange(I, "exchange").holds
            assert not strong or plain


class TestLPWindowTranslation:
    def test_interval_products_match_windowed_form(self):
        import random

        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(2, 6)
            t = rng.randint(1, min(4, n))
            alpha = sorted(rng.randint(1, n) for _ in range(t))
            beta = []
            running = 0
            for a in alpha:
                running = max(running, rng.randint(a, n))
                beta.append(running)
            spec = LPSpec(tuple(alpha), tuple(beta), n)
            I = realize(spec)
            # prefix windows: at position j at least #(intervals ending by j)
            # and at most #(intervals starting by j) variables are used
            lower = tuple(sum(1 for b in beta if b <= j) for j in range(1, n + 1))
            upper = tuple(sum(1 for a in alpha if a <= j) for j in range(1, n + 1))
            windowed = _realize_windows(n, [((0,) * n, (t,) * n, lower, upper)])
            assert windowed == I, spec


class TestWindowedMonomials:
    @settings(max_examples=400, deadline=None)
    @given(window_params())
    def test_matches_brute_force_on_small_boxes(self, params):
        n = len(params[1])
        assert list(_realize_windows(n, [params]).gens) == windowed_reference(*params)

    @pytest.mark.parametrize(
        "params",
        [
            # eight free coordinates of bound 40, a last one fixed at 0, and
            # prefix sums below 40 until they close at 40
            ((0,) * 9, (40,) * 8 + (0,), (0,) * 8 + (40,), (39,) * 8 + (40,)),
            # seven free coordinates before an empty box 1 <= c_8 <= 0
            (
                (0,) * 7 + (1, 0),
                (40,) * 7 + (0, 40),
                (0,) * 8 + (40,),
                (40,) * 9,
            ),
        ],
        ids=["windows", "box"],
    )
    def test_infeasible_windows_end_without_enumeration(self, params):
        # no vector fits, and the enumeration must not visit the tens of
        # millions of prefixes before the dead coordinate to find that out
        start = time.perf_counter()
        assert _realize_windows(len(params[1]), [params]).is_zero
        assert time.perf_counter() - start < 1


class TestPlpWindows:
    def test_plp_spec_gives_its_own_parameters(self):
        spec = PLPSpec((0, 1), (2, 2), (0, 3), (2, 3))
        assert plp_windows(spec) == [((0, 1), (2, 2), (0, 3), (2, 3))]

    def test_veronese_windows_follow_from_the_bounds(self):
        # alpha_i = max(0, d - b_{i+1} - ... - b_n), beta_i = d
        windows = plp_windows(VeroneseSpec((2, 1, 2), 4))
        assert windows == [((0, 0, 0), (2, 1, 2), (1, 2, 4), (4, 4, 4))]
        assert plp_windows(VeroneseSpec((3, 3), 2))[0][2] == (0, 2)

    def test_borel_windows_are_prefix_sums_of_each_generator(self):
        # B(u) is every degree-d monomial whose prefix sums dominate u's
        spec = BorelSpec((M("x2*x3", 3), M("x1*x3^2", 3)), 3)
        assert plp_windows(spec) == [
            ((0, 0, 0), (2, 2, 2), (0, 1, 2), (2, 2, 2)),
            ((0, 0, 0), (3, 3, 3), (1, 1, 3), (3, 3, 3)),
        ]

    def test_lp_window_counts_interval_endpoints(self):
        # alpha'_k = #{i : beta_i <= k}, beta'_k = #{i : alpha_i <= k}; the
        # unused x1 and x6 of the second spec get beta'_1 = 0, alpha'_5 = t
        assert plp_windows(LPSpec((1, 3), (4, 5), 5)) == [
            ((0, 0, 0, 0, 0), (2, 2, 2, 2, 2), (0, 0, 0, 1, 2), (1, 1, 2, 2, 2))
        ]
        assert plp_windows(LPSpec((2, 2), (3, 5), 6)) == [
            ((0,) * 6, (2,) * 6, (0, 0, 1, 1, 2, 2), (0, 2, 2, 2, 2, 2))
        ]

    def test_other_families_have_none(self):
        assert plp_windows(TransversalSpec((frozenset({1, 2}),), 2)) is None
        assert plp_windows(PowerSpec(TransversalSpec((frozenset({1, 2}),), 2), 2)) is None
        assert plp_windows(PowerSpec(VeroneseSpec((1, 1), 1), 2)) == [
            ((0, 0), (2, 2), (0, 2), (2, 2))
        ]

    def test_power_windows_are_scaled(self):
        # the k-th power of a polymatroidal ideal is that of the polymatroid
        # scaled by k, so each of the four vectors scales
        lp = LPSpec((1, 3), (4, 5), 5)
        ((lower, upper, alpha, beta),) = plp_windows(lp)
        assert plp_windows(PowerSpec(lp, 2)) == [
            (lower, tuple(2 * x for x in upper), tuple(2 * x for x in alpha),
             tuple(2 * x for x in beta))
        ]
        plp = PLPSpec((1, 0), (2, 2), (1, 3), (2, 3))
        assert plp_windows(PowerSpec(PowerSpec(plp, 2), 3)) == [
            ((6, 0), (12, 12), (6, 18), (12, 18))
        ]

    def test_zeroth_power_is_the_zero_window(self):
        for base in (
            TransversalSpec((frozenset({1, 2}),), 2),
            VeroneseSpec((1, 0), 3),
            PowerSpec(BorelSpec((M("x1*x2", 2), M("x2^2", 2)), 2), 3),
        ):
            assert plp_windows(PowerSpec(base, 0)) == [((0, 0),) * 4]
            assert realize(PowerSpec(base, 0)) == ideal("[1] n=2")

    def test_borel_power_has_a_window_per_generator_of_the_power(self):
        # B(u)B(v) = B(uv); x1*x3 * x2^2 is one of the three products
        spec = BorelSpec((M("x1*x3", 3), M("x2^2", 3)), 3)
        windows = plp_windows(PowerSpec(spec, 2))
        assert [alpha for _, _, alpha, _ in windows] == [
            (2, 2, 4), (1, 3, 4), (0, 4, 4)
        ]

    def test_empty_veronese_has_no_windows(self):
        for spec in (VeroneseSpec((1, 0), 3), VeroneseSpec((), 1)):
            assert plp_windows(spec) == []
            assert plp_windows(PowerSpec(spec, 2)) == []
            assert realize(PowerSpec(spec, 2)).is_zero

    @settings(max_examples=300, deadline=None)
    @given(windowed_specs(), st.integers(0, 3), st.integers(0, 2))
    def test_power_matches_ideal_products(self, base, k, outer):
        # outer > 0 nests the power in another: (I^k)^outer
        spec = PowerSpec(base, k)
        expected = ideal_power(realize(base), k)
        if outer:
            spec = PowerSpec(spec, outer)
            expected = ideal_power(expected, outer)
        assert realize(spec).gens == expected.gens

    def test_veronese_realization_matches_reference_grid(self):
        for n in range(5):
            for bounds in itertools.product(range(4), repeat=n):
                for d in range(7):
                    spec = VeroneseSpec(bounds, d)
                    got = realize(spec)
                    reference = bounded_degree_reference(bounds, d, n)
                    assert got == MonomialIdeal(n, reference), spec
                    assert got.gens == tuple(reference), spec

    def test_no_variables(self):
        assert realize(VeroneseSpec((), 1)).is_zero
        assert realize(VeroneseSpec((), 0)).is_unit
        assert ideal("{type:veronese, b:[], d:0}") == MonomialIdeal(0, [Monomial(())])


class TestAsTransversal:
    @settings(max_examples=200, deadline=None)
    @given(lp_specs())
    def test_lp_window_matches_interval_product(self, spec):
        from polyshift.families import as_transversal

        windowed = realize(spec)
        assert windowed.gens == realize(as_transversal(spec)).gens


    def test_lp_intervals_become_sets(self):
        from polyshift.families import as_transversal

        spec = LPSpec((1, 3), (4, 5), 5)
        tspec = as_transversal(spec)
        assert tspec.sets == (frozenset({1, 2, 3, 4}), frozenset({3, 4, 5}))
        assert realize(tspec) == realize(spec)
        assert as_transversal(tspec) is tspec
        assert as_transversal(VeroneseSpec((1, 1), 1)) is None

    def test_covers_variables(self):
        assert TransversalSpec((frozenset({1, 3}), frozenset({2})), 3).covers_variables
        assert not TransversalSpec((frozenset({1, 3}),), 3).covers_variables


class TestRealizeFixpoint:
    def test_realizations_are_canonical(self, fuzz_corpus):
        for spec, I in fuzz_corpus[:100]:
            assert minimal_generators(list(I.gens), I.n) == I


class TestVeroneseShift:
    def test_level_zero(self):
        spec = VeroneseSpec((1, 1, 2, 2, 1), 2)
        assert veronese_shift(spec, 0) == realize(spec)

    def test_example_level_two(self, example_ideal):
        spec = VeroneseSpec((1, 1, 2, 2, 1), 2)
        shifted = veronese_shift(spec, 2)
        assert shifted.num_gens == 17

    def test_squarefree_vanishes_past_support(self):
        spec = VeroneseSpec((1, 1, 1), 2)
        assert veronese_shift(spec, 3).is_zero

    def test_negative_level_refused(self):
        with pytest.raises(ValueError, match="shift level must be nonnegative"):
            veronese_shift(VeroneseSpec((1, 1, 1), 2), -1)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(st.integers(min_value=0, max_value=d + 3), min_size=1, max_size=4),
            )
        )
    )
    def test_bounds_matter_only_up_to_the_degree(self, drawn):
        # the campaign checks a Veronese-type ideal on its own largest
        # exponents, min(b_i, d) for the bounds b of any spec that gives it
        d, bounds = drawn
        raw = VeroneseSpec(tuple(bounds), d)
        clipped = VeroneseSpec(tuple(min(b, d) for b in bounds), d)
        for level in range(len(bounds) + 1):
            assert veronese_shift(raw, level) == veronese_shift(clipped, level)

    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=7),
    )
    @example([0, 2, 0], 3, 1)  # bounds below the degree: the zero ideal
    @example([1, 0, 1, 1], 2, 3)  # a level past every support
    def test_equals_filtering_the_raised_realization(self, bounds, d, level):
        # the closed form takes the raised window's vectors and builds one
        # ideal, not the raised realization and then its filtered copy
        spec = VeroneseSpec(tuple(bounds), d)
        expected = support_filter(realize(VeroneseSpec(spec.bounds, d + level)), level)
        assert veronese_shift(spec, level) == expected


class TestRandomPolymatroidal:
    def test_deterministic_in_seed(self):
        a_spec, a_ideal = random_polymatroidal(12345)
        b_spec, b_ideal = random_polymatroidal(12345)
        assert a_spec == b_spec
        assert a_ideal == b_ideal

    def test_budget_respected(self, fuzz_corpus):
        for spec, I in fuzz_corpus:
            assert 1 <= I.num_gens <= 120
            assert I.n <= 5
            assert I.generation_degree <= 4

    def test_every_draw_is_polymatroidal(self, fuzz_corpus):
        for spec, I in fuzz_corpus[:80]:
            assert check_exchange(I, "exchange").holds

    def test_draw_check_survives_optimize_flag(self, tmp_path):
        # under python -O a bare assert is stripped; the draw check must
        # still refuse a realization that is not polymatroidal
        body = (
            "import polyshift.families as families\n"
            "from polyshift import parse_ideal\n"
            "bad = parse_ideal('[x1*x2, x3*x4]').ideal\n"
            "families.realize = lambda spec: bad\n"
            "families.random_polymatroidal(1)\n"
        )
        outcome = outcome_under_optimize(body, tmp_path)
        assert outcome.startswith("raised family realization is not polymatroidal:")

    def test_draw_past_the_product_cap_is_rejected(self, monkeypatch):
        # with no product allowed, every draw that needs one is retried; the
        # powers of windowed specs are windows and need none
        monkeypatch.setattr(monomials, "PRODUCT_CAP", 0)
        for seed in range(20):
            spec, I = random_polymatroidal(seed)
            assert not isinstance(spec, ProductSpec), spec
            if isinstance(spec, PowerSpec):
                assert plp_windows(spec.base) is not None, spec

    def test_draw_above_the_generator_cap_is_retried(self, monkeypatch):
        # the first realization has more generators than gen_max allows
        big = realize(VeroneseSpec((2, 2, 2), 2))
        small = realize(VeroneseSpec((1, 1, 1), 2))
        given = [big, small]
        monkeypatch.setattr(families, "realize", lambda spec: given.pop(0))
        _, I = random_polymatroidal(1, GenBudget(gen_max=big.num_gens - 1))
        assert I == small and given == []

    def test_no_draw_within_the_attempts_is_a_resource_cap(self, monkeypatch):
        calls = []

        def zero(spec):
            calls.append(spec)
            return MonomialIdeal(2)

        monkeypatch.setattr(families, "realize", zero)
        message = f"no polymatroidal instance found for seed 1 within {families.DRAW_ATTEMPTS} attempts"
        with pytest.raises(ResourceCapError, match=message):
            random_polymatroidal(1)
        assert len(calls) == families.DRAW_ATTEMPTS

    def test_budget_validation(self):
        with pytest.raises(FamilySpecError):
            GenBudget(n_max=1)
