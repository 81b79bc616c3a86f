import contextlib
import io
import itertools
import json
import math
import sys
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshift import (
    Monomial,
    MonomialIdeal,
    NotStronglyStableError,
    ResourceCapError,
    SimplicialComplexFrame,
    VeroneseSpec,
    betti_table,
    ek_betti,
    lcm_lattice,
    minimal_generators,
    realize,
    reduced_homology_ranks,
    upper_koszul,
)
from polyshift import _kernels, cli, oracle
from polyshift.oracle import (
    LATTICE_CAP,
    _distinct_rows,
    _gen_matrix,
    _lattice,
)
from polyshift.textio import format_ideal
from util import (
    M,
    RP2_DOC,
    RP2_TOTALS,
    betti_table_reference,
    borel_closure,
    frame_reference,
    full_boundary_homology,
    gens_set,
    ideal,
    lattice_reference,
    lcm_many,
    mixed_degree_ideals,
)


class TestLcmLattice:
    def test_two_variables(self):
        I = ideal("[x1, x2]")
        assert gens_set_of_lattice(I) == {"x1", "x2", "x1*x2"}

    def test_trio_matches_subset_enumeration(self, trio_ideal):
        lattice = {m.exponents for m in lcm_lattice(trio_ideal)}
        brute = set()
        gens = trio_ideal.gens
        for r in range(1, len(gens) + 1):
            for subset in itertools.combinations(gens, r):
                brute.add(lcm_many(subset).exponents)
        assert lattice == brute
        # 7 nonempty subsets, but the full triple repeats a pairwise lcm
        assert len(lattice) == 6

    def test_single_generator(self):
        I = ideal("[x1^2*x2] n=2")
        assert [str(m) for m in lcm_lattice(I)] == ["x1^2*x2"]

    def test_cap(self, example_ideal):
        with pytest.raises(ResourceCapError):
            lcm_lattice(example_ideal, cap=5)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_equals_subset_lcms_in_descending_lex(self, data):
        gens = data.draw(small_generator_lists())
        I = minimal_generators(gens, len(gens[0].exponents))
        assert [m.exponents for m in lcm_lattice(I)] == subset_lcms(I)

    def test_cap_raises_iff_lattice_exceeds_it(self, example_ideal, trio_ideal):
        for I in (example_ideal, trio_ideal, ideal("[x1^2*x2] n=2")):
            size = len(lcm_lattice(I))
            for cap in range(-1, size + 2):
                if cap < 1:
                    with pytest.raises(ValueError, match="cap must be at least 1"):
                        lcm_lattice(I, cap=cap)
                elif size > cap:
                    with pytest.raises(ResourceCapError):
                        lcm_lattice(I, cap=cap)
                else:
                    assert len(lcm_lattice(I, cap=cap)) == size

    def test_squarefree_in_seventy_variables(self):
        # a mixed-radix key with radix 2 per variable needs 2^72 > 2^63 codes
        n = 72
        supports = [range(1, 31), range(25, 56), range(50, 73), (1, 40, 72)]
        I = minimal_generators([Monomial.from_support(s, n) for s in supports], n)
        assert [m.exponents for m in lcm_lattice(I)] == subset_lcms(I)

        far = MonomialIdeal(n, [Monomial.from_support(s, n) for s in ((1, 2), (70, 71))])
        table = betti_table(far)
        assert table.totals() == {0: 2, 1: 1}
        assert table.shift_ideal(1).gens == (Monomial.from_support((1, 2, 70, 71), n),)


class TestLatticeClosure:
    """The one-generator-at-a-time closure on guard-bit words against the
    frontier closure it replaced: the same rows in the same order, and the
    same cap outcomes, in any order of the generator rows."""

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_mixed_degree_equals_reference(self, data):
        n = data.draw(st.integers(1, 8))
        assert_lattice_matches_reference(data.draw(distinct_rows(n, 4)))

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_squarefree_wide_equals_reference(self, data):
        n = data.draw(st.integers(20, 72))
        assert_lattice_matches_reference(data.draw(distinct_rows(n, 1)))

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_huge_exponents_equal_reference(self, data):
        # tiny, near-limit and arbitrary exponents share columns: one large
        # entry gives every field 32 bits, one to a word
        n = data.draw(st.integers(1, 6))
        value = st.one_of(
            st.integers(0, 3),
            st.integers(EXPONENT_TOP - 3, EXPONENT_TOP),
            st.integers(0, EXPONENT_TOP),
        )
        assert_lattice_matches_reference(data.draw(rows_from([value] * n)))

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_zero_and_single_value_columns_equal_reference(self, data):
        n = data.draw(st.integers(1, 10))
        column = st.one_of(
            st.just(st.just(0)),
            st.integers(1, EXPONENT_TOP).map(st.just),
            st.just(st.integers(0, 4)),
        )
        columns = data.draw(st.lists(column, min_size=n, max_size=n))
        assert_lattice_matches_reference(data.draw(rows_from(columns)))

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_multiword_equals_reference(self, data):
        # more fields than one word holds, so they fill a word and spill
        # into the next; with entries up to 40 a field takes 7 bits, nine
        # to a word
        n = data.draw(st.integers(16, 40))
        pool = st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True)
        columns = [st.sampled_from(v) for v in data.draw(st.lists(pool, min_size=n, max_size=n))]
        gens = data.draw(rows_from(columns, min_size=8).filter(lambda g: packed_words(g) > 1))
        assert_lattice_matches_reference(gens)

    @pytest.mark.parametrize(
        "widths, words",
        [([3] * 21 + [1], 2), ([3] * 20 + [2, 3], 2), ([1] * 62 + [2], 3), ([4] + [1] * 64, 6)],
        # ids name the largest entry's bit length; a field has one bit more
        ids=[
            "3-bit-15-then-7", "3-bit-mixed-15-then-7", "2-bit-three-full-words", "4-bit-six-words",
        ],
    )
    def test_fields_at_the_word_boundary(self, widths, words):
        # column i of row j is j mod 2^w_i, so the largest entry has
        # max(w_i) bits and every field max(w_i) + 1; scaled so that the
        # largest entry is 2^31 - 1, every field takes 32 bits, one a word
        rows = [[j % (1 << w) for w in widths] for j in range(1 << max(widths))]
        gens = np.array(rows, dtype=np.int64)
        assert packed_words(gens) == words
        assert_lattice_matches_reference(gens)
        scaled = gens * EXPONENT_TOP // gens.max()
        assert packed_words(scaled) == len(widths)
        assert_lattice_matches_reference(scaled)

    @pytest.mark.parametrize(
        "n, top, words",
        [
            (31, 1, 1), (32, 1, 2),
            (21, 3, 1), (22, 3, 2),
            (2, 2**30 - 1, 1), (3, 2**30 - 1, 2),
            (1, 2**31 - 1, 1), (2, 2**31 - 1, 2),
            (2, 2**31, 2),
        ],
        ids=[
            "squarefree-31-fill-one-word", "squarefree-32-spill",
            "2-bit-21-fill-63-bits", "2-bit-22-spill",
            "30-bit-two-in-a-word", "30-bit-three-spill",
            "31-bit-one-in-a-word", "31-bit-two-words",
            "exponent-limit-two-words",
        ],
    )
    def test_guard_bits_at_the_word_boundary(self, n, top, words):
        # entries at both ends of the range, and the largest one in the
        # first and last column, so the top and bottom fields of a word
        # both meet 0 and the largest entry
        values = sorted({0, 1, top // 2, top - 1, top})
        gens = np.random.default_rng(n).choice(values, size=(10, n))
        gens[0, 0] = gens[1, -1] = top
        gens = np.unique(gens, axis=0)
        assert packed_words(gens) == words
        assert_lattice_matches_reference(gens)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_generator_order_changes_nothing(self, data):
        # the closure feeds the generators in its own order, so any order
        # of the rows gives the same array and the same cap outcomes
        n = data.draw(st.integers(1, 8))
        value = st.one_of(st.integers(0, 3), st.integers(0, EXPONENT_TOP))
        gens = data.draw(rows_from([value] * n))
        shuffled = gens[data.draw(st.permutations(range(len(gens))))]
        expected = _lattice(gens, LATTICE_CAP)
        assert np.array_equal(_lattice(shuffled, LATTICE_CAP), expected)
        size = len(expected)
        for cap in sorted({0, 1, size - 1, size, size + 1}):
            assert_same_outcome(
                lattice_outcome(_lattice, shuffled, cap), lattice_outcome(_lattice, gens, cap), cap
            )

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_one_word_sort_equals_several_words(self, data):
        # rows that fit one word are sorted as 1-D words; fewer bits to a
        # word spread the same rows over several, sorted by lexsort
        n = data.draw(st.integers(2, 8))
        gens = data.draw(distinct_rows(n, data.draw(st.sampled_from([1, 3, 40]))))
        assert packed_words(gens) == 1
        field = max(1, int(gens.max()).bit_length()) + 1
        bits = data.draw(st.integers(field, n * field - 1))
        expected = _lattice(gens, LATTICE_CAP)
        caps = sorted({0, 1, len(expected) - 1, len(expected), len(expected) + 1})
        outcomes = [lattice_outcome(_lattice, gens, cap) for cap in caps]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_WORD_BITS", bits)
            assert len(oracle._Words.fit(gens).guard) > 1
            got = _lattice(gens, LATTICE_CAP)
            spread = [lattice_outcome(_lattice, gens, cap) for cap in caps]
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        for cap, have, want in zip(caps, spread, outcomes):
            assert_same_outcome(have, want, cap)

    @pytest.mark.parametrize(
        "I",
        [MonomialIdeal(3), ideal("[1] n=0"), ideal("[1] n=3")],
        ids=["zero-ideal", "unit-n0", "unit-n3"],
    )
    def test_named_cases(self, I):
        gens = _gen_matrix(I)
        assert_lattice_matches_reference(gens)
        assert _lattice(gens, 1).tolist() == gens.tolist()


EXPONENT_TOP = 2**31 - 1


def distinct_rows(n, top):
    """Strategy: 1 to 12 distinct int64 rows of n entries in 0..top."""
    return rows_from([st.integers(0, top)] * n)


def rows_from(columns, min_size=1):
    """Strategy: min_size to 12 distinct int64 rows, entry i from columns[i]."""
    rows = st.lists(st.tuples(*columns), min_size=min_size, max_size=12, unique=True)
    return rows.map(lambda r: np.array(r, dtype=np.int64))


def packed_words(gens):
    """Words of ``_lattice``'s layout: every field takes max(1, bit_length(e))
    bits and a guard bit, e the largest entry, and 63 bits hold
    63 // that many fields."""
    field = max(1, int(gens.max(initial=0)).bit_length()) + 1
    return -(-gens.shape[1] // (63 // field))


def assert_lattice_matches_reference(gens):
    """``_lattice`` equals ``lattice_reference`` as an array, and at caps 0,
    1, size - 1, size and size + 1 both return the same array or raise the
    same error."""
    expected = lattice_reference(gens, LATTICE_CAP)
    got = _lattice(gens, LATTICE_CAP)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    size = len(expected)
    for cap in sorted({0, 1, size - 1, size, size + 1}):
        assert_same_outcome(
            lattice_outcome(_lattice, gens, cap), lattice_outcome(lattice_reference, gens, cap), cap
        )


def assert_same_outcome(have, want, cap):
    """Two ``lattice_outcome`` results are the same array or error class."""
    if isinstance(want, type):
        assert have is want, cap
    else:
        assert np.array_equal(have, want), cap


def lattice_outcome(closure, gens, cap):
    """The closure's array, or the class of the error it raised."""
    try:
        return closure(gens, cap)
    except (ValueError, ResourceCapError) as exc:
        return type(exc)


def subset_lcms(I):
    """Exponents of the lcms of all nonempty generator subsets, by brute
    force over the 2^m subsets, in descending-lex order."""
    brute = set()
    for r in range(1, I.num_gens + 1):
        for subset in itertools.combinations(I.gens, r):
            brute.add(lcm_many(subset).exponents)
    return sorted(brute, reverse=True)


def small_generator_lists():
    """Strategy: 1 to 6 exponent vectors in 1 to 4 variables, entries 0..3."""
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, 3)] * n).map(Monomial), min_size=1, max_size=6
        )
    )


def gens_set_of_lattice(I):
    return {str(m) for m in lcm_lattice(I)}


class TestUpperKoszul:
    def test_two_disconnected_vertices(self):
        I = ideal("[x1, x2]")
        frame = upper_koszul(I, M("x1*x2", 2))
        assert sorted(frame.faces()) == [(), (1,), (2,)]
        ranks = reduced_homology_ranks(frame, 32003)
        assert ranks == {0: 1}  # one extra connected component

    def test_generator_gives_irrelevant_complex(self, trio_ideal):
        frame = upper_koszul(trio_ideal, trio_ideal.gens[0])
        assert frame.faces() == [()]
        assert reduced_homology_ranks(frame, 32003) == {-1: 1}

    def test_nonmember_gives_void_complex(self, trio_ideal):
        frame = upper_koszul(trio_ideal, M("x3*x4", 4))
        assert frame.face_masks == ()  # the void complex
        assert reduced_homology_ranks(frame, 32003) == {}

    def test_frame_too_wide_for_face_bitmasks(self):
        n = 70
        I = MonomialIdeal(n, [Monomial.from_support(range(1, 64), n)])
        with pytest.raises(ResourceCapError):
            upper_koszul(I, I.gens[0])

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_faces_are_direct_membership_tests(self, data):
        gens = data.draw(small_generator_lists())
        n = len(gens[0].exponents)
        I = minimal_generators(gens, n)
        a = Monomial(data.draw(st.tuples(*[st.integers(0, 4)] * n)))
        frame = upper_koszul(I, a)
        assert frame.vertices == a.support
        expected = []
        for mask in range(1 << len(a.support)):
            face = [v for k, v in enumerate(a.support) if mask >> k & 1]
            if I.contains(a / Monomial.from_support(face, n)):
                expected.append(mask)
        assert list(frame.face_masks) == expected


def assert_face_rows_match_reference(I, points, v):
    """``_face_rows`` of the points, all with v support variables, as one
    support-size group: each row is the packed face set of
    ``frame_reference`` at its point."""
    matrix = np.array([a.exponents for a in points], dtype=np.int64)
    rows = oracle._face_rows(_gen_matrix(I), matrix, v)
    assert rows.shape == (len(points), ((1 << v) + 7) // 8)
    for a, row in zip(points, rows):
        assert np.array_equal(row, face_row(v, frame_reference(I, a).face_masks)), a


class TestFaceRowBlocks:
    """``_face_rows`` scatters a block's facets into one (points, 2^v) array
    and closes it downward; rows must not depend on where blocks split."""

    def test_group_over_several_point_blocks(self):
        # with m * n >= 2^v a block holds _BLOCK_ROWS // m points; the
        # points leave out different variables, so blocks differ in support,
        # and a top support exponent of 3 puts that vertex in every facet
        n, v = 7, 6
        I = MonomialIdeal(
            n, [Monomial(e) for e in itertools.product(range(3), repeat=n) if sum(e) == 4]
        )
        points = []
        for gap in range(n):
            for low in itertools.product((1, 2), repeat=v - 1):
                for top in (2, 3):
                    e = [*low, top]
                    e.insert(gap, 0)
                    points.append(Monomial(tuple(e)))
        assert len(points) > 3 * (oracle._BLOCK_ROWS // I.num_gens)
        assert I.num_gens * n >= 1 << v
        assert_face_rows_match_reference(I, points, v)

    def test_one_point_fills_a_block(self):
        # at v = 16 in 17 variables 2^v exceeds _BLOCK_ROWS * n, so each
        # point is a block of its own
        n = 17
        I = MonomialIdeal(
            n,
            [
                Monomial.from_support(s, n)
                for s in (range(1, 9), range(5, 13), range(9, 17), range(2, 18, 2), (1, 17))
            ],
        )
        assert oracle._BLOCK_ROWS * n // (1 << 16) == 1
        points = [
            Monomial((2,) * 16 + (0,)),
            Monomial((0,) + (2,) * 16),
            Monomial((1,) * 8 + (2,) * 8 + (0,)),
            Monomial((2,) + (1,) * 15 + (0,)),
        ]
        assert_face_rows_match_reference(I, points, 16)

    def test_void_and_irrelevant_frames_in_one_block(self):
        # void frames (no generator divides), irrelevant ones (the point is
        # a generator no other divides) and frames up to the full simplex,
        # all on two vertices and all in one block
        n, v = 4, 2
        I = ideal("[x1^2*x2, x2*x3^2, x3*x4, x1*x4^2] n=4")
        points = [
            Monomial(e)
            for e in itertools.product(range(4), repeat=n)
            if sum(x > 0 for x in e) == v
        ]
        kinds = Counter(len(frame_reference(I, a).face_masks) for a in points)
        assert kinds[0] and kinds[1] and kinds[1 << v]
        assert len(points) <= oracle._BLOCK_ROWS // I.num_gens
        assert_face_rows_match_reference(I, points, v)


PRIMES = (2, 3, 32003, 2**31 - 1)


def frame_on(v, faces):
    """A frame on vertices 1..v with the given face masks, built directly."""
    return SimplicialComplexFrame(
        v, Monomial((1,) * v), tuple(range(1, v + 1)), tuple(faces)
    )


def closure(v, facets):
    """Every face mask on v vertices contained in one of the facets."""
    return [m for m in range(1 << v) if any(m & ~f == 0 for f in facets)]


@st.composite
def simplicial_complexes(draw):
    """Downward-closed face sets on at most 7 vertices, in any order: void
    (no facets), the irrelevant complex (facet 0), full simplices and cones
    (one vertex added to every facet) among them."""
    v = draw(st.integers(0, 7))
    facets = draw(st.lists(st.integers(0, (1 << v) - 1), max_size=6))
    if v and draw(st.booleans()):
        apex = 1 << draw(st.integers(0, v - 1))
        facets = [f | apex for f in facets]
    return frame_on(v, draw(st.permutations(closure(v, facets))))


class TestReducedHomology:
    def test_prime_is_checked_first(self):
        # these frames reach no elimination: both values once gave {-1: 1}
        I = ideal("[x1*x2, x1*x3, x2*x4]")
        for frame in (upper_koszul(I, I.gens[0]), frame_on(0, ())):
            for p in (4, -7):
                with pytest.raises(ValueError, match="prime below 2"):
                    reduced_homology_ranks(frame, p)

    @pytest.mark.parametrize("prime", PRIMES)
    @pytest.mark.parametrize(
        "v, facets, expected",
        [
            (0, [], {}),  # void
            (3, [], {}),  # void, with vertices
            (0, [0], {-1: 1}),  # irrelevant complex {0}
            (4, [0], {-1: 1}),  # irrelevant complex, vertices in no face
            (1, [0b1], {}),  # a point
            (5, [0b11111], {}),  # full simplex
            (4, [0b0111, 0b1011, 0b1101, 0b1110], {2: 1}),  # 2-sphere
            (4, [0b0011, 0b0101, 0b1001], {}),  # cone: a star graph
            (4, [0b0111, 0b1101], {}),  # two triangles on an edge
            (4, [0b0011, 0b0110, 0b1100, 0b1001], {1: 1}),  # 4-cycle
            (4, [0b0001, 0b0010, 0b1100], {0: 2}),  # three components
        ],
    )
    def test_named_complexes(self, v, facets, expected, prime):
        frame = frame_on(v, closure(v, facets))
        assert reduced_homology_ranks(frame, prime) == expected
        assert full_boundary_homology(frame, prime) == expected

    @pytest.mark.parametrize("prime", PRIMES)
    @settings(deadline=None, max_examples=120)
    @given(frame=simplicial_complexes())
    def test_equals_full_boundary_reference(self, frame, prime):
        got = reduced_homology_ranks(frame, prime)
        assert got == full_boundary_homology(frame, prime)
        assert list(got) == sorted(got)


class TestBettiTable:
    def test_trio(self, trio_ideal):
        table = betti_table(trio_ideal)
        assert table.pd == 1
        assert table.totals() == {0: 3, 1: 2}
        assert gens_set(table.shift_ideal(1)) == {"x1*x2*x3", "x1*x2*x4"}

    def test_generators_have_rank_one(self, trio_ideal):
        table = betti_table(trio_ideal)
        zero_row = {a: r for (i, a), r in table.entries.items() if i == 0}
        assert zero_row == {g: 1 for g in trio_ideal.gens}

    def test_pd_bounds(self, fuzz_corpus):
        for spec, I in fuzz_corpus[:50]:
            table = betti_table(I)
            assert table.pd <= min(I.num_gens - 1, I.n - 1)

    def test_multidegrees_within_bounding_vector(self, fuzz_corpus):
        for spec, I in fuzz_corpus[:50]:
            bound = [max(column) for column in zip(*(g.exponents for g in I.gens))]
            for (_, a) in betti_table(I).entries:
                assert all(x <= y for x, y in zip(a.exponents, bound))

    def test_principal(self):
        table = betti_table(ideal("[x1^2*x3] n=3"))
        assert table.pd == 0
        assert table.totals() == {0: 1}

    def test_variable_ideal_is_koszul(self):
        for n in range(1, 5):
            I = minimal_generators([Monomial.variable(i, n) for i in range(1, n + 1)])
            table = betti_table(I)
            assert table.totals() == {
                i: math.comb(n, i + 1) for i in range(n)
            }

    def test_maximal_power_totals(self):
        # all degree-d monomials in n variables: known closed-form ranks
        from polyshift import VeroneseSpec, realize

        n, d = 4, 2
        I = realize(VeroneseSpec((d,) * n, d))
        table = betti_table(I)
        expected = {
            i: math.comb(n + d - 1, d + i) * math.comb(d + i - 1, i)
            for i in range(n)
        }
        assert table.totals() == expected

    def test_zero_ideal(self):
        table = betti_table(MonomialIdeal(3))
        assert table.entries == {} and table.pd == -1

    def test_unit_ideal_is_free(self):
        unit = MonomialIdeal(3, [Monomial.unit(3)])
        table = betti_table(unit)
        assert table.totals() == {0: 1}
        assert table.pd == 0
        assert table.shift_ideal(0) == unit

    def test_linearity_detection(self, example_ideal, trio_ideal):
        assert betti_table(example_ideal).is_linear(2)
        assert betti_table(trio_ideal).is_linear(2)
        mixed = ideal("[x1^3, x2]")
        assert not betti_table(mixed).is_linear(1)

    def test_hs_oracle_edges(self, trio_ideal):
        table = betti_table(trio_ideal)
        assert table.shift_ideal(0) == trio_ideal
        assert table.shift_ideal(5).is_zero


def table_items(table):
    return list(table.entries.items())


class TestBettiReportOrder:
    """``betti`` lists the entries by a stable sort on the index alone, so
    within an index they keep the table's lattice order, descending-lex."""

    @settings(deadline=None, max_examples=100)
    @given(I=mixed_degree_ideals())
    def test_entries_by_index_then_descending_lex(self, I):
        table = betti_table(I)
        expected = [
            {"i": i, "multidegree": str(a), "rank": r}
            for (i, a), r in sorted(
                table.entries.items(),
                key=lambda kv: (kv[0][0], tuple(-e for e in kv[0][1].exponents)),
            )
        ]
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
            patch.setattr(sys, "stdin", io.StringIO(format_ideal(I)))
            assert cli.main(["betti", "--input", "-", "--json"]) == 0
        assert json.loads(out.getvalue())["entries"] == expected


class TestBettiAgainstPerPointReference:
    """``betti_table`` batches frames by support size and takes each
    distinct complex's homology once; the reference builds every point's
    frame on its own."""

    @pytest.mark.parametrize("prime", (32003, 2))
    @settings(deadline=None, max_examples=150)
    @given(I=mixed_degree_ideals())
    def test_same_entries_in_same_order(self, I, prime):
        assert table_items(betti_table(I, prime)) == table_items(
            betti_table_reference(I, prime)
        )

    @pytest.mark.parametrize("n", (0, 3))
    def test_unit_ideal(self, n):
        unit = MonomialIdeal(n, [Monomial.unit(n)])
        expected = [((0, Monomial.unit(n)), 1)]
        assert table_items(betti_table(unit)) == expected
        assert table_items(betti_table_reference(unit)) == expected

    def test_twenty_vertex_frames_in_face_blocks(self):
        # 2^20 face masks are tested in blocks; the top frame is two disjoint
        # simplices whose faces lie far apart in that range
        n = 22
        principal = MonomialIdeal(n, [Monomial.from_support(range(1, 21), n)])
        assert table_items(betti_table(principal)) == [((0, principal.gens[0]), 1)]
        assert table_items(betti_table(principal)) == table_items(
            betti_table_reference(principal)
        )
        two = MonomialIdeal(
            n, [Monomial.from_support(s, n) for s in (range(1, 13), range(9, 21))]
        )
        table = betti_table(two)
        assert table.entries[(1, Monomial.from_support(range(1, 21), n))] == 1
        assert table_items(table) == table_items(betti_table_reference(two))

    def test_cap_boundary(self, example_ideal, trio_ideal):
        for I in (example_ideal, trio_ideal, ideal("[x1^2*x2, x2^3] n=2")):
            size = len(lcm_lattice(I))
            for cap in range(-1, size + 2):
                if cap < 1:
                    with pytest.raises(ValueError, match="cap must be at least 1"):
                        betti_table(I, cap=cap)
                elif size > cap:
                    with pytest.raises(ResourceCapError):
                        betti_table(I, cap=cap)
                else:
                    assert table_items(betti_table(I, cap=cap)) == table_items(
                        betti_table_reference(I)
                    )
        with pytest.raises(ValueError, match="cap must be at least 1"):
            betti_table(MonomialIdeal(3), cap=0)

    def test_too_wide_frame_refused_before_face_masks(self):
        import tracemalloc

        n = 63
        I = MonomialIdeal(n, [Monomial.from_support(range(1, 64), n)])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="has 63 vertices"):
                betti_table(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_frame_temporaries_stay_blocked(self):
        import tracemalloc

        # Veronese type (4, 2, 4, 4, 2), d = 5: 93 generators, the most of
        # any betti-veronese benchmark table, and 1011 lattice points.
        # One (points, generators) int64 array alone would take 0.75 MB; the
        # frame and lattice temporaries stay near _BLOCK_ROWS rows (0.19 MiB
        # in all).  A first call in a fresh process also imports part of
        # numpy (about 1.2 MiB more), so the measured call comes second.
        I = realize(VeroneseSpec((4, 2, 4, 4, 2), 5))
        assert I.num_gens == 93
        expected = table_items(betti_table(I))
        tracemalloc.start()
        try:
            table = betti_table(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table_items(table) == expected
        assert peak < 1 << 20


def relabel(exponents, perm):
    """Variable i + 1 becomes variable perm[i] + 1."""
    out = [0] * len(exponents)
    for i, e in enumerate(exponents):
        out[perm[i]] = e
    return tuple(out)


@st.composite
def relabelled_ideals(draw):
    """An ideal in 1 to 5 variables with exponents at most 3, equigenerated
    or not, and a permutation of its variables."""
    n = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(exponents, min_size=1, max_size=6))
    perm = draw(st.permutations(range(n)))
    return MonomialIdeal(n, [Monomial(e) for e in gens]), perm


class TestRelabelledIdeals:
    """Renaming the variables renames the table's multidegrees and changes
    nothing else: frames are merged by their exact face sets over the
    support in index order, so the merge must not depend on that order."""

    @settings(deadline=None, max_examples=150)
    @given(drawn=relabelled_ideals())
    def test_relabelled_table(self, drawn):
        I, perm = drawn
        J = MonomialIdeal(I.n, [Monomial(relabel(g.exponents, perm)) for g in I.gens])
        table = betti_table(J)
        assert table_items(table) == table_items(betti_table_reference(J))
        moved = {
            (i, Monomial(relabel(a.exponents, perm))): r
            for (i, a), r in betti_table(I).entries.items()
        }
        assert table.entries == moved


def cycle(n, perm):
    """The edge ideal of the n-cycle, variable i + 1 renamed perm[i] + 1."""
    edges = [tuple(int(j in (i, (i + 1) % n)) for j in range(n)) for i in range(n)]
    return MonomialIdeal(n, [Monomial(relabel(e, perm)) for e in edges])


def face_row(v, faces):
    inside = np.zeros(1 << v, dtype=np.uint8)
    inside[list(faces)] = 1
    return np.packbits(inside)


def distinct_rows_reference(rows):
    """The distinct rows as bytes in order of first appearance, and the
    index of each row among them."""
    seen: dict[bytes, int] = {}
    return seen, [seen.setdefault(row.tobytes(), len(seen)) for row in rows]


@st.composite
def byte_row_arrays(draw):
    """A (k, width) uint8 array with repeated rows, width 1 (face rows of at
    most 3 vertices) or 8 (6 vertices), sometimes every other column of a
    wider array, so that no row is contiguous."""
    width = draw(st.sampled_from([1, 8]))
    pool = draw(st.lists(st.binary(min_size=width, max_size=width), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    array = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), width)
    if draw(st.booleans()):
        wide = np.zeros((len(rows), 2 * width), dtype=np.uint8)
        wide[:, ::2] = array
        array = wide[:, ::2]
    return array


class TestDistinctRows:
    """``_distinct_rows`` merges equal rows by one sort of their bytes."""

    @settings(deadline=None, max_examples=200)
    @given(rows=byte_row_arrays())
    def test_matches_dict_on_bytes(self, rows):
        distinct, index = _distinct_rows(rows)
        seen, first_seen = distinct_rows_reference(rows)
        assert distinct.dtype == np.uint8
        assert distinct.shape == (len(seen), rows.shape[1])
        assert np.array_equal(distinct[index], rows)
        # the same partition of the rows as the reference's
        assert len(set(zip(index.tolist(), first_seen))) == len(seen)
        as_bytes = [row.tobytes() for row in distinct]
        assert as_bytes == sorted(seen)  # pairwise different, in byte order

    @pytest.mark.parametrize("width", (1, 8))
    def test_one_row(self, width):
        rows = np.arange(width, dtype=np.uint8)[None]
        distinct, index = _distinct_rows(rows)
        assert np.array_equal(distinct, rows)
        assert index.tolist() == [0]

    @pytest.mark.parametrize("width", (1, 8))
    def test_all_rows_equal(self, width):
        rows = np.full((7, width), 0b10110001, dtype=np.uint8)
        distinct, index = _distinct_rows(rows)
        assert np.array_equal(distinct, rows[:1])
        assert index.tolist() == [0] * 7


class TestHomologyCount:
    """The number of frames whose homology is taken on relabelled cycles:
    one per distinct face set of each support size, pinned so that a merge
    that drops or repeats frames fails here and not only in the benchmark."""

    @pytest.mark.parametrize(
        "perm, computations",
        [
            ((6, 8, 9, 7, 5, 3, 0, 4, 1, 2), 179),
            ((5, 9, 3, 4, 6, 7, 2, 8, 1, 0), 203),
            ((6, 8, 10, 7, 5, 3, 0, 4, 1, 9, 2), 344),
            ((7, 10, 3, 4, 2, 8, 6, 5, 9, 1, 0), 366),
        ],
        ids=["cycle10-a", "cycle10-b", "cycle11-a", "cycle11-b"],
    )
    def test_relabelled_cycles(self, perm, computations, monkeypatch):
        frames = []
        group_homology = oracle._group_homology

        def counted(rows, v, prime):
            frames.append(len(rows))
            return group_homology(rows, v, prime)

        monkeypatch.setattr(oracle, "_group_homology", counted)
        n = len(perm)
        table = betti_table(cycle(n, perm))
        assert sum(frames) == computations
        natural = betti_table_reference(cycle(n, range(n)))
        assert table.entries == {
            (i, Monomial(relabel(a.exponents, perm))): r
            for (i, a), r in natural.entries.items()
        }

    @settings(deadline=None, max_examples=100)
    @given(drawn=relabelled_ideals())
    def test_each_distinct_frame_once(self, drawn):
        # recount: the distinct (v, face set) pairs of the lattice points
        # whose frame is not a full simplex on a nonempty support
        I, perm = drawn
        J = MonomialIdeal(I.n, [Monomial(relabel(g.exponents, perm)) for g in I.gens])
        frames = []
        group_homology = oracle._group_homology

        def counted(rows, v, prime):
            frames.append((v, len(rows)))
            return group_homology(rows, v, prime)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_group_homology", counted)
            betti_table(J)
        distinct = set()
        for a in lcm_lattice(J):
            frame = frame_reference(J, a)
            v = len(frame.vertices)
            if not v or len(frame.face_masks) < 1 << v:
                distinct.add((v, frame.face_masks))
        assert sorted(frames) == sorted(Counter(v for v, _ in distinct).items())


@st.composite
def face_set_groups(draw):
    """A vertex count v from 0 to 6 and a list of downward-closed face sets
    on v vertices, the void complex and the irrelevant complex {0} among
    them (in both, no vertex lies in a face)."""
    v = draw(st.integers(0, 6))
    facets = st.lists(st.integers(0, (1 << v) - 1), max_size=6)
    complexes = [set(closure(v, f)) for f in draw(st.lists(facets, max_size=10))]
    return v, draw(st.permutations(complexes + [set(), {0}]))


class TestGroupHomology:
    """``_group_homology`` takes the homology of many frames in one call."""

    @pytest.mark.parametrize("prime", PRIMES)
    @settings(deadline=None, max_examples=80)
    @given(drawn=face_set_groups(), block_rows=st.sampled_from([1, 4, oracle._BLOCK_ROWS]))
    def test_equals_full_boundary_reference(self, drawn, block_rows, prime):
        # small block sizes split the frames and the matrix stacks
        v, complexes = drawn
        rows = np.stack([face_row(v, faces) for faces in complexes])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_BLOCK_ROWS", block_rows)
            got = oracle._group_homology(rows, v, prime)
        assert got == [full_boundary_homology(frame_on(v, faces), prime) for faces in complexes]
        assert all(list(ranks) == sorted(ranks) for ranks in got)

    def test_two_frame_blocks(self):
        # at v = 6 a block holds 16 * _BLOCK_ROWS >> 6 frames
        rng = random.Random(7)
        v = 6
        count = (16 * oracle._BLOCK_ROWS >> v) + 40
        complexes = [set(closure(v, [rng.getrandbits(v) for _ in range(3)])) for _ in range(count)]
        rows = np.stack([face_row(v, faces) for faces in complexes])
        got = oracle._group_homology(rows, v, 32003)
        assert got == [full_boundary_homology(frame_on(v, faces), 32003) for faces in complexes]
        assert any(got)

    def test_refuses_composite_modulus(self):
        rows = face_row(0, {0})[None]
        for p in (4, -7):
            with pytest.raises(ValueError, match="prime below 2"):
                oracle._group_homology(rows, 0, p)


def subset_complex_betti(I, prime=32003):
    """Independent Betti oracle for small ideals.

    Tensoring the subset-lcm resolution with the residue field leaves, in
    each multidegree a, the complex spanned by the generator subsets F with
    lcm(F) = a, graded by |F| - 1, whose differential keeps exactly the
    deletions that do not change the lcm.  Its homology ranks are the
    multigraded Betti numbers; nothing here is shared with the upper-Koszul
    route except the rank kernel.
    """
    from collections import defaultdict

    import numpy as np

    from polyshift import _kernels

    gens = [g.exponents for g in I.gens]
    m = len(gens)
    by_degree_lcm = defaultdict(lambda: defaultdict(list))
    for size in range(1, m + 1):
        for F in itertools.combinations(range(m), size):
            exps = tuple(max(col) for col in zip(*(gens[i] for i in F)))
            by_degree_lcm[exps][size].append(F)
    table = {}
    for exps, by_size in by_degree_lcm.items():
        max_size = max(by_size)
        ranks = {}
        for size in range(2, max_size + 1):
            upper = by_size.get(size, [])
            lower = by_size.get(size - 1, [])
            if not upper or not lower:
                ranks[size] = 0
                continue
            row_index = {F: r for r, F in enumerate(lower)}
            B = np.zeros((len(lower), len(upper)), dtype=np.int64)
            for ci, F in enumerate(upper):
                full = tuple(max(col) for col in zip(*(gens[i] for i in F)))
                for pos in range(len(F)):
                    sub = F[:pos] + F[pos + 1 :]
                    reduced = tuple(max(col) for col in zip(*(gens[i] for i in sub)))
                    if reduced == full and sub in row_index:
                        B[row_index[sub], ci] = 1 if pos % 2 == 0 else prime - 1
            ranks[size] = _kernels.rank_mod_p(B, prime)
        ranks[max_size + 1] = 0
        for size in range(1, max_size + 1):
            holes = len(by_size.get(size, ())) - ranks.get(size, 0) - ranks.get(
                size + 1, 0
            )
            if holes:
                table[(size - 1, exps)] = holes
    return table


class TestSubsetComplexAgreement:
    def test_matches_homology_oracle_on_corpus(self, fuzz_corpus):
        checked = 0
        for spec, I in fuzz_corpus:
            if I.num_gens > 11:
                continue
            checked += 1
            if checked > 30:
                break
            table = betti_table(I)
            flat = {(i, a.exponents): r for (i, a), r in table.entries.items()}
            assert flat == subset_complex_betti(I)

    def test_matches_on_arbitrary_ideals(self):
        import random

        from util import all_monomials

        rng = random.Random(0x5EED)
        for _ in range(25):
            n = rng.randint(2, 4)
            pool = [m for d in (1, 2, 3) for m in all_monomials(n, d)]
            picked = rng.sample(pool, rng.randint(2, 7))
            I = minimal_generators(picked, n)
            table = betti_table(I)
            flat = {(i, a.exponents): r for (i, a), r in table.entries.items()}
            assert flat == subset_complex_betti(I)

    @pytest.mark.parametrize("n", range(5, 10))
    def test_matches_on_relabelled_cycles(self, n):
        rng = random.Random(n)
        for _ in range(2):
            perm = rng.sample(range(n), n)
            gens = [
                Monomial.from_support((perm[i] + 1, perm[(i + 1) % n] + 1), n)
                for i in range(n)
            ]
            rng.shuffle(gens)
            I = MonomialIdeal(n, gens)
            table = betti_table(I)
            flat = {(i, a.exponents): r for (i, a), r in table.entries.items()}
            assert flat == subset_complex_betti(I)

    def test_ten_cycle_totals(self):
        gens = [Monomial.from_support((i + 1, (i + 1) % 10 + 1), 10) for i in range(10)]
        table = betti_table(MonomialIdeal(10, gens))
        assert table.totals() == {0: 10, 1: 35, 2: 60, 3: 55, 4: 30, 5: 10, 6: 1}


class TestEulerCharacteristic:
    """The alternating sum of ranks at each multidegree must match the
    signed count of generator subsets with that lcm: a full-pipeline check
    against nothing but inclusion-exclusion."""

    @staticmethod
    def signed_subset_counts(I):
        from collections import Counter

        acc = Counter()
        for r in range(1, I.num_gens + 1):
            sign = 1 if r % 2 == 1 else -1
            for subset in itertools.combinations(I.gens, r):
                acc[lcm_many(subset).exponents] += sign
        return {a: v for a, v in acc.items() if v != 0}

    @staticmethod
    def signed_table_counts(table):
        from collections import Counter

        acc = Counter()
        for (i, a), rank in table.entries.items():
            acc[a.exponents] += rank if i % 2 == 0 else -rank
        return {a: v for a, v in acc.items() if v != 0}

    def test_on_fuzz_corpus(self, fuzz_corpus):
        checked = 0
        for spec, I in fuzz_corpus:
            if I.num_gens > 12:
                continue
            checked += 1
            if checked > 40:
                break
            table = betti_table(I)
            assert self.signed_table_counts(table) == self.signed_subset_counts(I)

    def test_on_arbitrary_ideals(self):
        import random

        from util import all_monomials

        rng = random.Random(20260808)
        for _ in range(30):
            n = rng.randint(2, 4)
            pool = [m for d in (1, 2, 3) for m in all_monomials(n, d)]
            picked = rng.sample(pool, rng.randint(2, 8))
            I = minimal_generators(picked, n)
            table = betti_table(I)
            assert self.signed_table_counts(table) == self.signed_subset_counts(I)
            assert table.pd <= min(I.num_gens - 1, I.n - 1)
            if I.is_squarefree:
                assert all(a.is_squarefree for (_, a) in table.entries)


class TestCrossPrime:
    def test_example_agrees(self, example_ideal):
        first, second = (betti_table(example_ideal, p).entries for p in (32003, 101))
        assert first == second

    def test_small_random_instances(self, fuzz_corpus):
        for spec, I in fuzz_corpus[:15]:
            assert betti_table(I, 32003).entries == betti_table(I, 101).entries

    @pytest.mark.parametrize("prime, totals", RP2_TOTALS, ids=["p2", "p3", "p32003"])
    def test_prime_reaches_the_elimination(self, prime, totals):
        # the real projective plane has torsion, so p = 2 differs
        table = betti_table(ideal(RP2_DOC), prime)
        assert table.prime == prime
        assert table.totals() == totals


class TestEliahouKervaire:
    def test_variable_ideal(self):
        I = ideal("[x1, x2, x3]")
        totals, pd = ek_betti(I)
        assert totals == {0: 3, 1: 3, 2: 1}
        assert pd == 2
        assert betti_table(I).totals() == totals

    def test_pure_power(self):
        totals, pd = ek_betti(ideal("[x1^4] n=1"))
        assert totals == {0: 1}
        assert pd == 0

    def test_borel_closure_cross_checked(self):
        I = borel_closure([M("x2*x3", 3)])
        totals, pd = ek_betti(I)
        assert pd == 2
        assert max(g.max_var for g in I.gens) == 3
        oracle = betti_table(I)
        assert oracle.totals() == totals
        assert oracle.pd == pd

    def test_rejects_unstable(self):
        with pytest.raises(NotStronglyStableError):
            ek_betti(ideal("[x2] n=2"))


class TestKernels:
    def test_rank_matches_elimination_mod_p(self):
        # against pure-Python elimination mod p; the products of two factors
        # of inner size k have rank at most k, so deficient ranks occur
        rng = np.random.default_rng(3)
        for _ in range(25):
            rows, cols, k = rng.integers(1, 12, size=3)
            a = rng.integers(-5, 6, size=(rows, k)) @ rng.integers(-5, 6, size=(k, cols))
            for p in (2, 101, 32003):
                assert _kernels.rank_mod_p(a, p) == elimination_rank(a.tolist(), p)

    def test_rank_known_values(self):
        identity = np.eye(4, dtype=np.int64)
        assert _kernels.rank_mod_p(identity, 101) == 4
        assert _kernels.rank_mod_p(np.zeros((3, 5), dtype=np.int64), 101) == 0
        # rank collapses mod 2
        assert _kernels.rank_mod_p(2 * identity, 2) == 0
        for shape, ranks in (((0, 3, 3), []), ((2, 0, 3), [0, 0]), ((2, 3, 0), [0, 0])):
            assert _kernels.rank_mod_p_stack(np.zeros(shape), 101).tolist() == ranks

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 5).flatmap(
            lambda rows: st.integers(1, 5).flatmap(
                lambda cols: st.lists(
                    st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                    min_size=rows,
                    max_size=rows,
                )
            )
        )
    )
    def test_rank_matches_rational_rank(self, rows):
        # every minor is below 5^(5/2) * 3^5 < 3.5e4 < 2^31 - 1 (Hadamard),
        # so no nonzero minor vanishes mod p and the two ranks agree
        assert _kernels.rank_mod_p(np.array(rows), 2**31 - 1) == elimination_rank(rows)

    def test_rank_refuses_composite_modulus(self):
        # the Fermat inverse is wrong mod 4: this once returned rank 2
        with pytest.raises(ValueError, match="prime below 2"):
            _kernels.rank_mod_p(np.array([[2, 1], [2, 1]]), 4)

    @pytest.mark.parametrize("p", PRIMES)
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_stack_matches_elimination_mod_p(self, p, data):
        # mixed shapes padded with zeros; each matrix is a product of two
        # factors mod p, so ranks below the smaller side occur
        count, rows, cols = (data.draw(st.integers(0, top)) for top in (5, 6, 6))
        entries = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
        stack = np.zeros((count, rows, cols), dtype=np.int64)
        expected = []
        for m in range(count):
            r, c, k = (data.draw(st.integers(0, top)) for top in (rows, cols, 3))
            left = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=r, max_size=r))
            right = data.draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
            product = [[sum(x * y for x, y in zip(row, column)) % p for column in zip(*right)] for row in left]
            if k == 0:
                product = [[0] * c for _ in range(r)]
            stack[m, :r, :c] = np.array(product, dtype=np.int64).reshape(r, c)
            expected.append(elimination_rank(product, p) if r and c else 0)
        assert _kernels.rank_mod_p_stack(stack, p).tolist() == expected

    def test_stack_refuses_composite_modulus(self):
        for shape in ((0, 2, 2), (2, 0, 2), (2, 2, 0), (1, 2, 2)):
            with pytest.raises(ValueError, match="prime below 2"):
                _kernels.rank_mod_p_stack(np.ones(shape, dtype=np.int64), 4)

    def test_validate_prime(self):
        for p in (2, 3, 101, 32003, 2**31 - 1):
            assert _kernels.validate_prime(p) == p
        # 2^61 - 1 is prime, but (p - 1)^2 overflows int64
        for p in (-7, 0, 1, 4, 32001, 2**31, 2**61 - 1):
            with pytest.raises(ValueError):
                _kernels.validate_prime(p)

    def test_largest_modulus_keeps_tables_exact(self):
        cycle = ideal("[x1*x2, x2*x3, x3*x4, x4*x5, x5*x1]")
        assert betti_table(cycle, 2**31 - 1).totals() == {0: 5, 1: 5, 2: 1}
        with pytest.raises(ValueError):
            betti_table(cycle, 2**61 - 1)
        with pytest.raises(ValueError):
            betti_table(cycle, 4)

    def test_contains_matches_brute_force(self):
        # against a brute-force loop: some generator row is <= the target
        rng = np.random.default_rng(5)
        targets = rng.integers(0, 5, size=(40, 4))
        for m in (0, 1, 7):
            gens = rng.integers(0, 3, size=(m, 4))
            expected = [any(all(g <= t) for g in gens) for t in targets]
            assert _kernels.contains_mask(gens, targets).tolist() == expected


def elimination_rank(rows, p=None):
    """Rank by Gaussian elimination in pure Python: over the rationals on
    Fractions, or over F_p with modular inverses when ``p`` is given."""
    if p is None:
        a = [[Fraction(x) for x in row] for row in rows]
    else:
        a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0])):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, len(a)):
            if p is None:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
            else:
                f = a[i][c] * pow(a[rank][c], -1, p)
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank
