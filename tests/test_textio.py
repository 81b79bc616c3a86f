import pytest

from polyshift import (
    BorelSpec,
    ExplicitSpec,
    LPSpec,
    Monomial,
    ParseError,
    PLPSpec,
    ResourceCapError,
    PowerSpec,
    ProductSpec,
    TransversalSpec,
    VariableOrder,
    VeroneseSpec,
    format_ideal,
    format_spec,
    parse_ideal,
    parse_monomial,
    parse_variable_order,
    realize,
    spec_from_doc,
    spec_to_doc,
)
from polyshift.textio import NESTING_LIMIT
from util import M, gens_set


class TestMonomialGrammar:
    def test_basic(self):
        assert parse_monomial("x1*x3^2").exponents == (1, 0, 2)

    def test_whitespace_insensitive(self):
        assert parse_monomial("  x1 * x3 ^ 2 ", 4).exponents == (1, 0, 2, 0)

    def test_unit(self):
        assert parse_monomial("1", 3) == Monomial.unit(3)

    def test_repeated_factors_multiply(self):
        assert parse_monomial("x2*x2*x2").exponents == (0, 3)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_monomial("x1*y2")
        assert info.value.line == 1
        assert info.value.column >= 4

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_monomial("x5", 3)


    def test_variable_count_cap(self):
        assert parse_monomial("x1", 500).n == 500
        with pytest.raises(ResourceCapError, match="501 variables exceed the cap of 500"):
            parse_monomial("x1", 501)
        with pytest.raises(ResourceCapError, match="501 variables"):
            parse_monomial("x501")


class TestIdealGrammar:
    def test_counterexample_list(self, trio_ideal):
        src = parse_ideal("[x2*x4, x1*x2, x1*x3] n=4")
        assert src.ideal == trio_ideal
        assert src.spec is None

    def test_n_defaults_to_max_index(self):
        src = parse_ideal("[x2*x4, x1*x2, x1*x3]")
        assert src.n == 4

    def test_principal(self):
        src = parse_ideal("[x1] n=1")
        assert gens_set(src.ideal) == {"x1"}
        assert src.n == 1

    def test_empty_is_zero_ideal(self):
        assert parse_ideal("[] n=3").ideal.is_zero

    def test_round_trip(self, example_ideal, trio_ideal):
        for I in (example_ideal, trio_ideal):
            assert parse_ideal(format_ideal(I)).ideal == I

    def test_corpus_ideals_round_trip(self, fuzz_corpus):
        for _, I in fuzz_corpus[:50]:
            assert parse_ideal(format_ideal(I)).ideal == I

    def test_declared_n_too_small(self):
        with pytest.raises(ParseError):
            parse_ideal("[x3] n=2")

    def test_declared_n_error_points_at_declaration(self):
        # the position once lay past the end: line 2, column 1
        for text in ("[x1*x2, x2*x3] n=2\n", "[x1*x2, x2*x3] n=2"):
            with pytest.raises(ParseError, match="exceeds declared n=2") as info:
                parse_ideal(text)
            assert (info.value.line, info.value.column) == (1, 16)
        with pytest.raises(ParseError) as info:
            parse_ideal("[x1,\n x3]\n  n=2\n")
        assert (info.value.line, info.value.column) == (3, 3)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_ideal("[x1] n=2 extra")


class TestFamilyDocuments:
    def test_unquoted_lp_document(self, example_ideal):
        src = parse_ideal("{type:lp, alpha:[1,3], beta:[4,5]}")
        assert src.spec == LPSpec((1, 3), (4, 5), 5)
        assert src.ideal == example_ideal

    def test_quoted_json_also_accepted(self):
        src = parse_ideal('{"type": "veronese", "b": [1, 1, 1], "d": 2}')
        assert src.spec == VeroneseSpec((1, 1, 1), 2)

    def test_borel_document_with_monomial_strings(self):
        src = parse_ideal('{type:borel, gens:[x2*x3], n:3}')
        assert src.spec == BorelSpec((M("x2*x3", 3),), 3)

    def test_nested_product_document(self):
        text = "{type:product, factors:[{type:transversal, sets:[[1,2,3,4]], n:5}, {type:transversal, sets:[[3,4,5]], n:5}]}"
        src = parse_ideal(text)
        assert isinstance(src.spec, ProductSpec)
        assert src.ideal.num_gens == 11

    def test_spec_round_trips(self):
        zoo = [
            VeroneseSpec((2, 0, 3), 3),
            BorelSpec((M("x2*x3^2", 4),), 4),
            PLPSpec((0, 0), (2, 2), (0, 2), (1, 2)),
            LPSpec((1, 2), (2, 3), 4),
            TransversalSpec((frozenset({1, 3}), frozenset({2})), 3),
            ProductSpec((VeroneseSpec((1, 1), 1), VeroneseSpec((1, 1), 1))),
            PowerSpec(LPSpec((1,), (2,), 2), 3),
            ExplicitSpec(realize(VeroneseSpec((1, 1), 1))),
        ]
        for spec in zoo:
            text = format_spec(spec)
            again = parse_ideal(text)
            assert again.spec == spec, text

    def test_fuzzed_specs_round_trip(self, fuzz_corpus):
        for spec, _ in fuzz_corpus[:60]:
            assert spec_from_doc(spec_to_doc(spec)) == spec

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{type:veronese, b:[1,1], d:1, n:2}", "veronese document has no field 'n'"),
            ("{type:borel, gens:[x2], n:2, d:1}", "borel document has no field 'd'"),
            ("{type:plp, a:[0], b:[1], alpha:[1], beta:[1], n:1}", "plp document has no field 'n'"),
            ("{type:lp, alpha:[1,3], beta:[4,5], N:7}", "lp document has no field 'N'"),
            ("{type:transversal, set:[[1]], sets:[[1]]}", "transversal document has no field 'set'"),
            (
                "{type:product, factors:[{type:lp, alpha:[1], beta:[2]}, {type:lp, alpha:[1], beta:[2]}], k:2}",
                "product document has no field 'k'",
            ),
            ("{type:power, base:{type:lp, alpha:[1], beta:[2]}, k:2, n:3}", "power document has no field 'n'"),
            ('{type:explicit, gens:[x1], "n ":2}', "explicit document has no field 'n '"),
            (
                "{type:product, factors:[{type:lp, alpha:[1], beta:[2]}, {type:lp, alpha:[1], beta:[2], m:3}]}",
                "lp document has no field 'm'",
            ),
            ("{type:power, base:{type:veronese, b:[1,1], d:1, k:2}, k:2}", "veronese document has no field 'k'"),
        ],
        ids=[
            "veronese", "borel", "plp", "lp", "transversal", "product", "power",
            "explicit", "product-factor", "power-base",
        ],
    )
    def test_key_outside_the_fields_is_refused(self, text, reason):
        # a misspelt n once left the lp ideal in n=5 and changed its socle
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert info.value.reason == reason

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("{type:lp, alpha:[1,3], beta:[4,5], N:7}", 1, 36),
            ("{type:lp,\n alpha:[1,3],\n N:7,\n beta:[4,5]}", 3, 2),
            ('{type:explicit, gens:[x1], "n ":2}', 1, 28),
            ("{type:power, base:{type:veronese, b:[1,1], d:1, k:2}, k:2}", 1, 49),
        ],
        ids=["one-line", "multi-line", "quoted", "nested"],
    )
    def test_key_outside_the_fields_is_placed_at_the_key(self, text, line, column):
        # the position once lay at the end of the document
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize(
        "text, reason, line, column",
        [
            ("{type:explicit,\n gens:[x1],\n n:[2]\n}", "field 'n' must be an integer", 3, 2),
            ("{type:lp,\n alpha:[1, x],\n beta:[2, 3]}", "field 'alpha' must be a list of integers", 2, 2),
            ("{type:power,\n base:{type:lp, alpha:[1], beta:[2]},\n k:x}", "field 'k' must be an integer", 3, 2),
            ("{type:borel,\n gens:[]}", "borel document needs a nonempty 'gens' list", 2, 2),
            (
                "{type:transversal,\n sets:[[1], 2]}",
                "transversal document needs a nonempty 'sets' list of integer lists", 2, 2,
            ),
            (
                "{type:product,\n factors:[{type:lp, alpha:[1], beta:[2]}]}",
                "product document needs at least two factors", 2, 2,
            ),
            ("{type:power,\n base:5,\n k:2}", "power document needs a 'base' object", 2, 2),
            ("{type:explicit,\n gens:x1}", "explicit document needs a 'gens' list", 2, 2),
            ("{n:3,\n type:mystery}", "unknown family type 'mystery'", 2, 2),
            # a missing field is placed at the 'type' key of its document
            ("{k:2,\n base:{type:veronese,\n b:[1,1]},\n type:power}", "field 'd' must be an integer", 2, 8),
            ("{\n type:power,\n k:2\n}", "power document needs a 'base' object", 2, 2),
        ],
        ids=[
            "int", "intlist", "power-k", "borel", "transversal", "product", "power-base",
            "explicit", "unknown-type", "missing-nested", "missing-base",
        ],
    )
    def test_field_error_is_placed_at_the_key(self, text, reason, line, column):
        # the position once lay at the end of the document: line 4, column 2
        # for the first case, although n is on line 3
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert info.value.reason == reason
        assert (info.value.line, info.value.column) == (line, column)

    def test_key_outside_the_fields_of_a_plain_dict(self):
        doc = {"type": "lp", "alpha": [1, 3], "beta": [4, 5]}
        assert spec_from_doc(doc) == LPSpec((1, 3), (4, 5), 5)
        with pytest.raises(ParseError) as info:
            spec_from_doc({**doc, "N": 7})
        assert info.value.reason == "lp document has no field 'N'"

    def test_unknown_tag(self):
        with pytest.raises(ParseError):
            parse_ideal("{type:mystery}")

    def test_bad_field_type(self):
        with pytest.raises(ParseError):
            parse_ideal("{type:lp, alpha:[1, x], beta:[2, 3]}")

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            (
                '{type:explicit,\n gens:[x1*x2,\n  "x2*y3"]}',
                "bad generator 'x2*y3': expected a variable factor like x3 or x3^2",
                2,
                2,
            ),
            (
                '{type:borel, gens:[x1, "x1^"], n:2}',
                "bad generator 'x1^': expected an integer",
                1,
                14,
            ),
            (
                '{type:explicit,\n gens:[x1, "y2"],\n n:2\n}',
                "bad generator 'y2': expected a variable factor like x3 or x3^2",
                2,
                2,
            ),
        ],
        ids=["explicit", "borel", "explicit-before-n"],
    )
    def test_bad_generator_is_placed_in_the_document(self, text, message, line, column):
        # the error once gave a position inside the generator string, such as
        # line 1, column 4 for a generator on line 3, and then the end of the
        # document: line 4, column 2 for the last case
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert info.value.reason == message
        assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("{type:power,\n base:{k:2},\n k:2\n}", 2, 2),
            ("{type:power,\n base:{},\n k:2}", 2, 2),
            ("{type:product,\n factors:[{type:lp, alpha:[1], beta:[2]},\n {n:2}]}", 2, 2),
            ("{type:product,\n factors:[{type:lp, alpha:[1], beta:[2]}, 3]}", 2, 2),
            ("{type:power, k:2,\n base:{type:power, k:1,\n  base:{d:1}}}", 3, 3),
            ("{k:2,\n base:{type:lp, alpha:[1], beta:[2]}}", 2, 38),
        ],
        ids=["power-base", "empty-base", "product-factor", "factor-not-object", "inner-base", "top"],
    )
    def test_document_without_type_is_placed_at_its_key(self, text, line, column):
        # a nested document without a 'type' field once gave the end of the
        # whole document (line 4, column 2 for the first case); the top
        # document has no key and keeps the end
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert info.value.reason == "family document must be an object with a 'type' field"
        assert (info.value.line, info.value.column) == (line, column)

    def test_nesting_limit_boundary(self):
        # powers of powers around a Veronese document whose bound list is
        # the innermost level: `levels` objects and lists in all
        def nested(levels):
            powers = levels - 2
            return (
                "{type:power, base:" * powers
                + "{type:veronese, b:[1,1], d:1}"
                + ", k:1}" * powers
            )

        assert parse_ideal(nested(NESTING_LIMIT)).ideal.num_gens == 2
        with pytest.raises(ParseError, match=f"deeper than {NESTING_LIMIT} levels"):
            parse_ideal(nested(NESTING_LIMIT + 1))
        with pytest.raises(ParseError, match=f"deeper than {NESTING_LIMIT} levels"):
            parse_ideal("{type:lp, alpha:" + "[" * NESTING_LIMIT + "]" * NESTING_LIMIT + "}")


class TestVariableOrder:
    def test_parse(self):
        assert parse_variable_order("x2>x1>x3", 3) == VariableOrder((2, 1, 3))

    def test_must_cover_all_variables(self):
        with pytest.raises(ParseError):
            parse_variable_order("x2>x1", 3)

    def test_round_trip_via_str(self):
        vo = VariableOrder((3, 1, 2))
        assert parse_variable_order(str(vo), 3) == vo
