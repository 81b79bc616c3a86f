import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshift import (
    AdmissibleOrderFailure,
    CampaignConfig,
    ExchangeResult,
    ExplicitSpec,
    LPSpec,
    Monomial,
    MonomialIdeal,
    VeroneseSpec,
    check_instance,
    random_polymatroidal,
    realize,
    restrict_to_support,
    run_campaign,
)
from polyshift import families, fuzzlab
from polyshift.families import as_transversal
from polyshift.fuzzlab import instance_seed
from util import outcome_under_optimize, table_from_entries


class TestCampaign:
    def test_deterministic_rows(self):
        config = CampaignConfig(seed=7, instance_count=20, n_max=4, degree_max=3)
        lines_a: list[str] = []
        lines_b: list[str] = []
        run_campaign(config, lines_a.append)
        run_campaign(config, lines_b.append)
        assert lines_a == lines_b
        assert len(lines_a) == 20

    def test_rows_reproduce_from_their_seed(self):
        # most rows of this campaign repeat an earlier supported ideal, and
        # each equals, in full, the row its draw gives alone
        config = CampaignConfig(seed=99, instance_count=60, n_max=3, degree_max=3)
        lines: list[str] = []
        summary = run_campaign(config, lines.append)
        assert summary.counters["distinct_ideals"] <= config.instance_count // 2
        for index, row in enumerate(map(json.loads, lines)):
            assert row.pop("index") == index
            spec, ideal = random_polymatroidal(row.pop("seed"), config.budget)
            again = check_instance(spec, ideal, config)
            assert json.loads(json.dumps(again)) == row

    def test_counters_and_clean_run(self):
        config = CampaignConfig(seed=3, instance_count=60)
        summary = run_campaign(config)
        assert summary.counters["instances"] == 60
        assert summary.counters["disagreements"] == 0
        assert summary.disagreements == []
        # open questions: flags are reported, not raised
        assert summary.counters["flags"] == len(summary.flags)

    def test_conjunction_subset(self):
        config = CampaignConfig(
            seed=5, instance_count=12, conjectures=frozenset({"bbh"})
        )
        lines: list[str] = []
        run_campaign(config, lines.append)
        for row in map(json.loads, lines):
            assert "soc_polymatroidal" not in row

    def test_transversal_socle_alone_matches_full_campaign(self):
        # without chl the transversal check forms the colon socle itself
        key = "spanning_tree_socle_equal"
        verdicts = []
        for conjectures in (frozenset(fuzzlab.CONJECTURE_KEYS), frozenset({"transversal_socle"})):
            lines: list[str] = []
            run_campaign(CampaignConfig(42, 300, conjectures=conjectures), lines.append)
            rows = [json.loads(line) for line in lines]
            assert all(row["disagreements"] == [] for row in rows)
            verdicts.append([row.get(key) for row in rows])
        full, alone = verdicts
        assert alone == full
        assert full.count(True) == 49 and False not in full

    def test_unknown_conjecture_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(seed=1, instance_count=1, conjectures=frozenset({"abc"}))

    def test_bad_prime_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(seed=1, instance_count=1, prime=4)

    def test_rows_are_json_serializable(self):
        config = CampaignConfig(seed=11, instance_count=5)
        sink_lines: list[str] = []
        run_campaign(config, sink_lines.append)
        for line in sink_lines:
            row = json.loads(line)
            assert row["num_gens"] >= 1

    def test_disagreement_kinds_documented(self):
        # every kind the campaign can report has a row in docs/formats.md
        # and is named in this file, so a new kind arrives with a test
        source = Path(fuzzlab.__file__).read_text(encoding="utf-8")
        kinds = set(re.findall(r'"kind": "([^"]+)"', source))
        docs = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
        rows = re.findall(r"^\| `([^`]+)` \|", docs.read_text(encoding="utf-8"), re.M)
        assert len(kinds) == 10
        assert kinds <= set(rows)
        tests = Path(__file__).read_text(encoding="utf-8")
        assert {kind for kind in kinds if f'"{kind}"' not in tests} == set()

    def test_instance_seed_mixing(self):
        seeds = {instance_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_campaign_bytes_pinned(self):
        # the JSONL of a fixed campaign, byte for byte: every route and
        # counter a row reports, the socle routes included
        lines: list[str] = []
        run_campaign(CampaignConfig(42, 300, prime=32003), lines.append)
        data = ("\n".join(lines) + "\n").encode()
        assert len(data) == 98340
        assert hashlib.sha256(data).hexdigest() == (
            "f6cacd155bc94f52a841306de24ceef7ee58b9a473bdaa43e4d27e959049b1b9"
        )

    def test_default_budget_campaign_bytes_pinned(self):
        # the JSONL of the default budget's campaign, whose rows mostly come
        # from a class of J shared up to relabelling, byte for byte as when
        # every distinct J was checked on its own
        lines: list[str] = []
        summary = run_campaign(CampaignConfig(1, 4000, prime=32003), lines.append)
        data = ("\n".join(lines) + "\n").encode()
        assert len(data) == 1303485
        assert hashlib.sha256(data).hexdigest() == (
            "3dcd43b79110abdda5440815f69ec382926d5e2b120bd4b75cd739f6ab243733"
        )
        counters = summary.counters
        assert (counters["distinct_ideals"], counters["ideal_classes"]) == (859, 432)
        assert counters["relabelling_audits"] > 0 and counters["disagreements"] == 0


class TestDrawAssertion:
    """A campaign asserts the draw's exchange property once per distinct J,
    so a draw that realizes a non-polymatroidal ideal, which gives a J no
    earlier instance had, still ends the campaign at its own instance with
    the message the draw alone raises, also under ``python -O``."""

    CONFIG = CampaignConfig(seed=5, instance_count=6)
    BAD_INDEX = 3
    # a campaign's draw with the ideal of one seed replaced by x1*x2, x3*x4
    DRAW = (
        "def bad_draw(real, bad_seed):\n"
        "    from polyshift import parse_ideal\n"
        "    bad = parse_ideal('[x1*x2, x3*x4]').ideal\n"
        "    def draw(seed, budget):\n"
        "        spec, ideal = real(seed, budget)\n"
        "        return spec, (bad if seed == bad_seed else ideal)\n"
        "    return draw\n"
    )

    def bad_seed_and_message(self):
        seed = instance_seed(self.CONFIG.seed, self.BAD_INDEX)
        spec, _ = families._draw(seed, self.CONFIG.budget)
        return seed, f"family realization is not polymatroidal: {spec!r}"

    def test_bad_draw_ends_the_campaign_at_its_instance(self, monkeypatch):
        seed, message = self.bad_seed_and_message()
        scope: dict = {}
        exec(self.DRAW, scope)
        monkeypatch.setattr(families, "_draw", scope["bad_draw"](families._draw, seed))
        with pytest.raises(AssertionError) as alone:
            random_polymatroidal(seed, self.CONFIG.budget)
        assert str(alone.value) == message
        monkeypatch.setattr(fuzzlab, "_draw", families._draw)
        lines: list[str] = []
        with pytest.raises(AssertionError) as campaign:
            run_campaign(self.CONFIG, lines.append)
        assert str(campaign.value) == message
        assert len(lines) == self.BAD_INDEX

    def test_bad_draw_survives_optimize_flag(self, tmp_path):
        seed, message = self.bad_seed_and_message()
        body = self.DRAW + (
            "import polyshift.fuzzlab as fuzzlab\n"
            "from polyshift import CampaignConfig, run_campaign\n"
            f"fuzzlab._draw = bad_draw(fuzzlab._draw, {seed})\n"
            "lines = []\n"
            "try:\n"
            f"    run_campaign(CampaignConfig({self.CONFIG.seed}, "
            f"{self.CONFIG.instance_count}), lines.append)\n"
            "except AssertionError as exc:\n"
            "    raise AssertionError(f'after {len(lines)} rows: {exc}') from None\n"
        )
        outcome = outcome_under_optimize(body, tmp_path)
        assert outcome == f"raised after {self.BAD_INDEX} rows: {message}"


def supported_draws(config: CampaignConfig):
    """(seed, spec, ideal, supported ideal) of each instance, in order."""
    for index in range(config.instance_count):
        seed = instance_seed(config.seed, index)
        spec, ideal = random_polymatroidal(seed, config.budget)
        yield seed, spec, ideal, restrict_to_support(ideal)[0]


class TestDistinctIdeals:
    """A campaign runs the checks that read only the supported ideal J once
    per distinct J, and the checks that read the spec on every instance."""

    CONFIG = CampaignConfig(seed=13, instance_count=120, n_max=3, degree_max=3)

    def test_distinct_ideals_match_a_recount(self):
        summary = run_campaign(self.CONFIG)
        distinct = {J for _, _, _, J in supported_draws(self.CONFIG)}
        assert summary.counters["distinct_ideals"] == len(distinct)
        assert len(distinct) < self.CONFIG.instance_count // 2

    def test_certificate_once_per_distinct_ideal(self, monkeypatch):
        real_restrict, real_certify = fuzzlab.restrict_to_support, fuzzlab.certify_lex
        supported: list[MonomialIdeal] = []  # every J the campaign forms
        top_level: list[MonomialIdeal] = []  # the J that certify_lex was given

        def restrict(I):
            out = real_restrict(I)
            supported.append(out[0])
            return out

        def certify(I):
            if any(I is J for J in supported):
                top_level.append(I)
            return real_certify(I)

        monkeypatch.setattr(fuzzlab, "restrict_to_support", restrict)
        monkeypatch.setattr(fuzzlab, "certify_lex", certify)
        summary = run_campaign(self.CONFIG)
        assert len(supported) == self.CONFIG.instance_count
        # once per class of J up to relabelling, and again for each audited
        # member, never twice for one J
        counters = summary.counters
        assert len(top_level) == counters["ideal_classes"] + counters["relabelling_audits"]
        assert len(top_level) < counters["distinct_ideals"]
        assert len(set(top_level)) == len(top_level)

    def test_draw_assertion_once_per_distinct_ideal(self, monkeypatch):
        # the campaign asserts the exchange property of each distinct J, on J
        real = fuzzlab._assert_polymatroidal
        asserted: list[MonomialIdeal] = []

        def spy(spec, ideal):
            asserted.append(ideal)
            real(spec, ideal)

        monkeypatch.setattr(fuzzlab, "_assert_polymatroidal", spy)
        summary = run_campaign(self.CONFIG)
        distinct = {J for _, _, _, J in supported_draws(self.CONFIG)}
        assert len(asserted) == summary.counters["distinct_ideals"] == len(distinct)
        assert set(asserted) == distinct

    @pytest.mark.parametrize("low, high", [(255, 256), (256, 257)])
    def test_memo_keys_across_the_wide_encoding(self, low, high):
        # a key takes one byte per number while all are below 256 and four
        # past that, so exponents on either side of a byte's range, which no
        # campaign of the default budget reaches, still give distinct keys,
        # exact and up to relabelling; a collision would give one ideal the
        # checks of another
        def ideal(e, reverse=False):
            gens = [Monomial((e, 1, 0)), Monomial((0, 1, e))]
            return MonomialIdeal(3, gens[::-1] if reverse else gens)

        for key in (fuzzlab._packed, fuzzlab._class_key):
            assert key(ideal(low)) != key(ideal(high))
            assert key(ideal(low)) == key(ideal(low, reverse=True))
            assert key(ideal(high)) == key(ideal(high, reverse=True))

    def test_entries_hold_no_ideal(self):
        # an entry is (fields, flags, early, late), all plain JSON values
        for _, _, _, J in supported_draws(self.CONFIG):
            part = fuzzlab._check_supported(J, self.CONFIG)
            assert isinstance(part, tuple) and len(part) == 4
            assert json.loads(json.dumps(part)) == list(part)

    def test_veronese_type_matches_a_realization(self):
        # J is of Veronese type exactly when its largest exponents realize it
        for _, spec, ideal, J in supported_draws(self.CONFIG):
            bounds = tuple(max(column) for column in zip(*(g.exponents for g in J.gens)))
            own = VeroneseSpec(bounds, J.generation_degree)
            assert fuzzlab._veronese_spec(J) == (own if realize(own) == J else None)
            if isinstance(spec, VeroneseSpec):
                assert fuzzlab._veronese_spec(J) == own

    def rows_with_draws(self):
        lines: list[str] = []
        run_campaign(self.CONFIG, lines.append)
        seen = set()
        for line, (seed, spec, ideal, J) in zip(lines, supported_draws(self.CONFIG)):
            row = json.loads(line)
            assert row["seed"] == seed
            yield row, spec, ideal, J, J in seen
            seen.add(J)

    def test_veronese_closed_form_on_hits_and_misses(self, monkeypatch):
        # the closed form reads J alone, so it runs on every J of Veronese
        # type, whatever spec drew it, and on an explicit document of J
        monkeypatch.setattr(
            fuzzlab, "veronese_shift", lambda spec, level: MonomialIdeal(len(spec.bounds))
        )

        def levels(row):
            return [
                item["j"]
                for item in row["disagreements"]
                if item["kind"] == "veronese-closed-form"
            ]

        repeats, specs = [], set()
        for row, spec, ideal, J, repeat in self.rows_with_draws():
            explicit = check_instance(ExplicitSpec(J), J, self.CONFIG)
            if fuzzlab._veronese_spec(J) is not None and row["pd"] >= 1:
                assert levels(row) == levels(explicit) == list(range(1, row["pd"] + 1))
                repeats.append(repeat)
                specs.add(type(spec))
            else:
                assert levels(row) == levels(explicit) == []
        assert True in repeats and False in repeats
        assert VeroneseSpec in specs and len(specs) > 1

    def test_spanning_tree_socle_on_hits_and_misses(self, monkeypatch):
        # the unit ideal lies in the socle only when the socle is the unit
        # ideal, that is, in degree 1
        monkeypatch.setattr(
            fuzzlab,
            "spanning_tree_socle",
            lambda spec: MonomialIdeal(spec.n, [Monomial.unit(spec.n)]),
        )
        repeats = []
        for row, spec, ideal, J, repeat in self.rows_with_draws():
            kinds = [item["kind"] for item in row["disagreements"]]
            tspec = as_transversal(spec)
            if tspec is not None and tspec.covers_variables and row["degree"] >= 2:
                assert "spanning-tree-not-in-socle" in kinds
                assert row["spanning_tree_socle_equal"] is False
                repeats.append(repeat)
            else:
                assert "spanning-tree-not-in-socle" not in kinds
        assert True in repeats and False in repeats


def relabelled(J: MonomialIdeal, perm) -> MonomialIdeal:
    """J with its variables permuted: column perm[k] of J becomes column k."""
    return MonomialIdeal(J.n, [Monomial(tuple(g.exponents[c] for c in perm)) for g in J.gens])


def brute_force_relabelling(A: MonomialIdeal, B: MonomialIdeal) -> bool:
    """Does one of the n! permutations of the variables take A to B?"""
    return A.n == B.n and any(
        relabelled(A, perm) == B for perm in itertools.permutations(range(A.n))
    )


@st.composite
def small_ideals(draw, n):
    """Ideals on n variables with up to 4 generators of exponents 0-2."""
    rows = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4))
    return MonomialIdeal(n, [Monomial(row) for row in rows])


class TestClassKey:
    """``_class_key`` is a canonical form of J up to relabelling the
    variables: equal keys exactly for relabellings of one ideal."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32), st.data())
    def test_relabelled_draw_has_the_same_key(self, seed, data):
        J = restrict_to_support(random_polymatroidal(seed)[1])[0]
        perm = data.draw(st.permutations(range(J.n)))
        assert fuzzlab._class_key(relabelled(J, perm)) == fuzzlab._class_key(J)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(small_ideals(n), small_ideals(n))),
           st.data())
    def test_equal_keys_exactly_for_relabellings(self, pair, data):
        A, B = pair
        # half the time B is a relabelling of A, so both outcomes are drawn
        if data.draw(st.booleans()):
            B = relabelled(A, data.draw(st.permutations(range(A.n))))
        same = fuzzlab._class_key(A) == fuzzlab._class_key(B)
        assert same == brute_force_relabelling(A, B)

    def test_graphs_on_four_vertices(self):
        # the edge ideals of the 63 graphs with an edge on 4 labelled
        # vertices fall into the 10 graphs up to isomorphism; most have
        # columns with equal sorted values
        edges = [e for e in itertools.product((0, 1), repeat=4) if sum(e) == 2]
        ideals = [
            MonomialIdeal(4, map(Monomial, chosen))
            for size in range(1, 7)
            for chosen in itertools.combinations(edges, size)
        ]
        keys = [fuzzlab._class_key(I) for I in ideals]
        assert len(set(keys)) == 10
        for (A, a), (B, b) in itertools.combinations(zip(ideals, keys), 2):
            assert (a == b) == brute_force_relabelling(A, B)

    def test_all_columns_tied(self):
        # every column of a Veronese type with equal bounds, and of the
        # 4-cycle, has the same sorted values, so all 24 orders are tried
        veronese = realize(VeroneseSpec((2, 2, 2, 2), 3))
        cycle = MonomialIdeal(4, [Monomial(e) for e in [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]])
        for I in (veronese, cycle):
            keys = {fuzzlab._class_key(relabelled(I, p)) for p in itertools.permutations(range(4))}
            assert keys == {fuzzlab._class_key(I)}
        assert len({relabelled(cycle, p) for p in itertools.permutations(range(4))}) == 3
        matching = MonomialIdeal(4, [Monomial((1, 1, 0, 0)), Monomial((0, 0, 1, 1))])
        assert fuzzlab._class_key(matching) != fuzzlab._class_key(cycle)

    def test_too_many_orders_key_the_ideal_alone(self):
        # the 12 variables of (x1, ..., x12) and of a 7-cycle are all tied,
        # past CLASS_KEY_ORDERS orders, so each ideal keys only itself, apart
        # from every canonical key; a 6-cycle's 720 orders are still tried
        def cycle(n):
            return MonomialIdeal(n, [Monomial.from_support([i, i % n + 1], n) for i in range(1, n + 1)])

        maximal = MonomialIdeal(12, [Monomial.from_support([i], 12) for i in range(1, 13)])
        assert fuzzlab._class_key(maximal) == b"=" + fuzzlab._packed(maximal)
        perms = list(itertools.permutations(range(7)))[::97]
        sevens = {relabelled(cycle(7), p) for p in perms}
        keys = {fuzzlab._class_key(I) for I in sevens}
        assert len(keys) == len(sevens) > 1
        assert all(key[:1] == b"=" for key in keys)
        six = {fuzzlab._class_key(relabelled(cycle(6), p)) for p in itertools.permutations(range(6))}
        assert len(six) == 1 and six.pop()[:1] != b"="

    def test_keys_differ_across_variable_counts(self):
        # the zero ideal has no rows on any n, the unit ideal one zero row,
        # and on no variables that row is empty too
        for key in (fuzzlab._packed, fuzzlab._class_key):
            zero = [key(MonomialIdeal(n)) for n in range(5)]
            unit = [key(MonomialIdeal(n, [Monomial.unit(n)])) for n in range(5)]
            assert len(set(zero + unit)) == 10


class TestIdealClasses:
    """A campaign shares the J-only checks across a class of J up to
    relabelling, and audits the second member of every AUDIT_EVERY-th
    class."""

    CONFIG = CampaignConfig(seed=1, instance_count=400)

    def rows(self):
        lines: list[str] = []
        summary = run_campaign(self.CONFIG, lines.append)
        return [json.loads(line) for line in lines], summary.counters

    def test_class_hits_equal_their_rows_alone(self):
        rows, counters = self.rows()
        seen_ideals, seen_classes, hits = set(), set(), 0
        for row, (seed, spec, ideal, J) in zip(rows, supported_draws(self.CONFIG)):
            key = fuzzlab._class_key(J)
            if J not in seen_ideals and key in seen_classes:
                hits += 1
                row.pop("index")
                assert row.pop("seed") == seed
                assert json.loads(json.dumps(check_instance(spec, ideal, self.CONFIG))) == row
            seen_ideals.add(J)
            seen_classes.add(key)
        assert counters["ideal_classes"] == len(seen_classes)
        assert hits == counters["distinct_ideals"] - counters["ideal_classes"] > 0

    def test_unpatched_audits_find_nothing(self):
        rows, counters = self.rows()
        assert counters["relabelling_audits"] > 0
        assert counters["disagreements"] == 0

    @pytest.mark.parametrize("route", ["is_matroidal", "certify_lex"])
    def test_label_dependent_route_is_audited(self, monkeypatch, route):
        # a matroidal verdict, or a lex certificate refused, read off x1's
        # exponent in the first generator differs between relabellings; only
        # the audit sees it, and its row keeps the member's own checks, even
        # when they stop at the refused certificate
        real = getattr(fuzzlab, route)

        def patched(I):
            if route == "is_matroidal":
                return I.gens[0].exponents[0] > 1
            if I.gens[0].exponents[0] > 1:
                return AdmissibleOrderFailure(2, I.gens[0], I.gens[0])
            return real(I)

        monkeypatch.setattr(fuzzlab, route, patched)
        rows, counters = self.rows()
        flagged = [row for row in rows if {"kind": "relabelling"} in row["disagreements"]]
        assert flagged and counters["relabelling_audits"] > 0
        if route == "certify_lex":
            assert any("pd" not in row for row in flagged)
        for row in flagged:
            assert row["disagreements"][-1] == {"kind": "relabelling"}
            row["disagreements"].pop()
            row.pop("index")
            spec, ideal = random_polymatroidal(row.pop("seed"), self.CONFIG.budget)
            assert json.loads(json.dumps(check_instance(spec, ideal, self.CONFIG))) == row
        assert len(flagged) <= counters["disagreements"]

    @pytest.mark.parametrize("unshared", [False, True])
    def test_only_the_audited_members_are_checked_twice(self, monkeypatch, unshared):
        # the second distinct member of the sharing classes 0, 8, 16, ... in
        # order of first appearance, and no other, is checked though its
        # class is known; with a disagreement on every J with a generator
        # count divisible by 3, those classes share nothing, each member is
        # checked, and the audits fall on the next sharing classes
        checked: list[bytes] = []
        real = fuzzlab._check_supported

        def unshareable(J):
            return unshared and J.num_gens % 3 == 0

        def check(J, config):
            checked.append(fuzzlab._packed(J))
            part = real(J, config)
            if not unshareable(J):
                return part
            fields, flags, early, late = part
            return fields, flags, early, late + [{"kind": "relabelling"}]

        monkeypatch.setattr(fuzzlab, "_check_supported", check)
        _, counters = self.rows()
        classes: dict[bytes, list[MonomialIdeal]] = {}
        for _, _, _, J in supported_draws(self.CONFIG):
            members = classes.setdefault(fuzzlab._class_key(J), [])
            if J not in members:
                members.append(J)
        sharing = [members for members in classes.values() if not unshareable(members[0])]
        alone = [J for members in classes.values() if unshareable(members[0]) for J in members]
        audited = [
            members[1]
            for ordinal, members in enumerate(sharing)
            if ordinal % fuzzlab.AUDIT_EVERY == 0 and len(members) > 1
        ]
        expected = [members[0] for members in sharing] + alone + audited
        assert sorted(checked) == sorted(map(fuzzlab._packed, expected))
        assert counters["relabelling_audits"] == len(audited) > 0
        assert counters["ideal_classes"] == len(classes)
        if unshared:
            assert any(len(members) > 1 for members in classes.values() if unshareable(members[0]))

    @pytest.mark.parametrize("seed", [1, 4])
    def test_wide_ties_do_not_stall_a_campaign(self, seed):
        # a budget of 12 variables draws ideals with 11 tied columns, 11!
        # orders, at these seeds; each such ideal is a class of its own, and
        # the rows are those of the instances checked alone
        config = CampaignConfig(seed, 10, n_max=12)
        lines: list[str] = []
        counters = run_campaign(config, lines.append).counters
        keys = [fuzzlab._class_key(J) for _, _, _, J in supported_draws(config)]
        assert any(key[:1] == b"=" for key in keys)
        assert counters["ideal_classes"] == len(set(keys))
        for line, (seed, spec, ideal, _) in zip(lines, supported_draws(config)):
            row = json.loads(line)
            row.pop("index")
            assert row.pop("seed") == seed
            assert json.loads(json.dumps(check_instance(spec, ideal, config))) == row


def failing_check(I, mode="exchange"):
    """An exchange check that fails on every ideal, its witness the first and
    last generators."""
    return ExchangeResult(False, (I.gens[0], I.gens[-1], 1))


class TestOracleFallbacks:
    """The oracle runs in a campaign only when an exchange check fails; a
    patched check makes it run, and a patched table makes it disagree."""

    SPEC = LPSpec((1, 3), (4, 5), 5)

    @pytest.fixture
    def failing_exchange(self, monkeypatch):
        monkeypatch.setattr(fuzzlab, "check_exchange", failing_check)

    def test_flags_when_the_oracle_reproduces(self, failing_exchange):
        row = check_instance(self.SPEC, realize(self.SPEC), CampaignConfig(1, 1))
        assert row["disagreements"] == []
        assert row["hs_polymatroidal"] == [False] * 4
        assert row["soc_polymatroidal"] is False
        bbh = [flag for flag in row["flags"] if flag["conjecture"] == "bbh"]
        assert [flag["j"] for flag in bbh] == [1, 2, 3, 4]
        assert bbh[0] == {
            "conjecture": "bbh",
            "j": 1,
            "ideal": [
                "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x3^2", "x1*x3*x4",
                "x1*x3*x5", "x1*x4^2", "x1*x4*x5", "x2*x3^2", "x2*x3*x4",
                "x2*x3*x5", "x2*x4^2", "x2*x4*x5", "x3^2*x4", "x3^2*x5",
                "x3*x4^2", "x3*x4*x5", "x4^2*x5",
            ],
            "witness": ["x1*x2*x3", "x4^2*x5"],
        }
        assert row["flags"][-1] == {
            "conjecture": "chl",
            "socle": ["x3", "x4"],
            "witness": ["x3", "x4"],
        }
        assert len(row["flags"]) == 5

    def test_disagreements_when_the_oracle_differs(self, failing_exchange, monkeypatch):
        real = fuzzlab.betti_table

        def perturbed(I, prime=None):
            # drop the first entry of every homological index
            table = real(I, prime)
            first = {}
            for key in table.entries:
                first.setdefault(key[0], key)
            kept = {k: r for k, r in table.entries.items() if k not in first.values()}
            return table_from_entries(table.n, table.prime, kept)

        monkeypatch.setattr(fuzzlab, "betti_table", perturbed)
        row = check_instance(self.SPEC, realize(self.SPEC), CampaignConfig(1, 1))
        assert row["flags"] == []
        assert row["disagreements"] == [
            {"kind": "oracle-vs-certificate", "j": j} for j in (1, 2, 3, 4)
        ] + [{"kind": "oracle-vs-socle"}]


class TestDisagreementPaths:
    """Each disagreement kind, raised by one patched route: the exact list a
    row reports and the summary's counters, over a campaign whose draws all
    give the same ideal."""

    LP = LPSpec((1, 3), (4, 5), 5)  # pd 4, maximal; transversal, not matroidal
    MATROIDAL = VeroneseSpec((1, 1, 1, 1), 2)  # pd 2, not maximal

    def campaign(self, monkeypatch, spec):
        ideal = realize(spec)
        monkeypatch.setattr(fuzzlab, "_draw", lambda seed, budget: (spec, ideal))
        lines: list[str] = []
        summary = run_campaign(CampaignConfig(1, 3), lines.append)
        rows = [json.loads(line) for line in lines]
        assert all(row["disagreements"] == rows[0]["disagreements"] for row in rows)
        return rows[0], summary.counters

    def test_no_lex_certificate(self, monkeypatch):
        monkeypatch.setattr(
            fuzzlab, "certify_lex", lambda I: AdmissibleOrderFailure(2, I.gens[0], I.gens[0])
        )
        row, counters = self.campaign(monkeypatch, self.LP)
        assert row["disagreements"] == [
            {"kind": "no-lex-certificate", "detail": "polymatroidal ideal refused lex order"}
        ]
        assert "pd" not in row and "spanning_tree_socle_equal" not in row
        assert counters == {
            "instances": 3, "distinct_ideals": 1, "ideal_classes": 1,
            "relabelling_audits": 0, "flags": 0, "disagreements": 3,
        }

    def test_distance_route(self, monkeypatch):
        monkeypatch.setattr(fuzzlab, "_distance_exponents", lambda cert, j: set())
        row, counters = self.campaign(monkeypatch, self.LP)
        # HS_5 is zero on both routes
        assert row["disagreements"] == [{"kind": "distance-route", "j": j} for j in range(5)]
        assert counters == {
            "instances": 3, "distinct_ideals": 1, "ideal_classes": 1,
            "relabelling_audits": 0, "flags": 0, "disagreements": 15,
            "max_pd": 3, "transversal_socle_equal": 3,
        }

    def test_socle_route(self, monkeypatch):
        # the zero colon socle also misses the spanning-tree candidates, whose
        # check comes between J's route checks and its nesting checks
        monkeypatch.setattr(fuzzlab, "socle_colon", lambda I: MonomialIdeal(I.n))
        row, counters = self.campaign(monkeypatch, self.LP)
        assert row["disagreements"] == [
            {"kind": "socle-route"}, {"kind": "spanning-tree-not-in-socle"}
        ]
        assert row["max_pd"] is True and row["spanning_tree_socle_equal"] is False
        assert counters == {
            "instances": 3, "distinct_ideals": 1, "ideal_classes": 1,
            "relabelling_audits": 0, "flags": 0, "disagreements": 6,
            "max_pd": 3, "transversal_socle_strict": 3,
        }

    def test_shift_not_certifiable(self, monkeypatch):
        # J has degree 2, so only the shift ideals are refused
        real = fuzzlab.certify_lex
        monkeypatch.setattr(
            fuzzlab,
            "certify_lex",
            lambda I: real(I)
            if I.generation_degree == 2
            else AdmissibleOrderFailure(2, I.gens[0], I.gens[0]),
        )
        row, counters = self.campaign(monkeypatch, self.MATROIDAL)
        assert row["disagreements"] == [{"kind": "shift-not-certifiable", "j": 1}]
        assert row["refined_nesting_equal"] == [None, None]
        assert counters == {
            "instances": 3, "distinct_ideals": 1, "ideal_classes": 1,
            "relabelling_audits": 0, "flags": 0, "disagreements": 3,
            "matroidal": 3,
        }

    def test_matroidal_nesting(self, monkeypatch):
        # HS_1 of each shift ideal is zero; the shift ideals of J are not
        real = fuzzlab.homological_shift
        monkeypatch.setattr(
            fuzzlab,
            "homological_shift",
            lambda cert, j: real(cert, j)
            if cert.ideal.generation_degree == 2
            else MonomialIdeal(cert.ideal.n),
        )
        row, counters = self.campaign(monkeypatch, self.MATROIDAL)
        assert row["disagreements"] == [{"kind": "matroidal-nesting", "j": 1}]
        assert row["refined_nesting_equal"] == [False, True]
        assert counters == {
            "instances": 3, "distinct_ideals": 1, "ideal_classes": 1,
            "relabelling_audits": 0, "flags": 0, "disagreements": 3,
            "matroidal": 3,
        }

    def test_summary_flags_carry_index_and_seed(self, monkeypatch):
        monkeypatch.setattr(fuzzlab, "check_exchange", failing_check)
        config = CampaignConfig(13, 20, n_max=4, degree_max=3)
        lines: list[str] = []
        summary = run_campaign(config, lines.append)
        expected = [
            {"index": row["index"], "seed": row["seed"], **flag}
            for row in map(json.loads, lines)
            for flag in row["flags"]
        ]
        assert summary.flags == expected
        assert summary.counters["flags"] == len(expected) > 0
        for flag in summary.flags:
            assert flag["seed"] == instance_seed(config.seed, flag["index"])

    @pytest.mark.parametrize(
        "route, patch, size, digest",
        [
            (
                "check_exchange",
                failing_check,
                71562,
                "5a1ca34437299a7554f322e0ac09afaa50f030327da1ae65bbcc8e8ecc0d54bb",
            ),
            (
                "socle_colon",
                lambda I: MonomialIdeal(I.n),
                48909,
                "ab7022e3de89d28981624aca1f3e9f9225dd7b9d266a25d7ae2474bdfe9d743f",
            ),
        ],
        ids=["exchange-failing", "colon-socle-zero"],
    )
    def test_patched_campaign_bytes_pinned(self, monkeypatch, route, patch, size, digest):
        # the JSONL of a campaign whose rows take the oracle fallbacks, or
        # report a socle-route and spanning-tree disagreement, byte for byte
        monkeypatch.setattr(fuzzlab, route, patch)
        lines: list[str] = []
        run_campaign(CampaignConfig(13, 150, n_max=4, degree_max=3), lines.append)
        data = ("\n".join(lines) + "\n").encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
