import hashlib
import json
import re
from pathlib import Path

import pytest

from polyshift import (
    AdmissibleOrderFailure,
    BettiTable,
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
from polyshift import fuzzlab
from polyshift.families import as_transversal
from polyshift.fuzzlab import instance_seed


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
        assert len(kinds) == 9
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
        assert len(top_level) == summary.counters["distinct_ideals"]
        assert len(set(top_level)) == len(top_level)

    def test_colon_socle_once_per_distinct_ideal(self, monkeypatch):
        # the spanning-tree check once formed J's colon socle on every
        # transversal instance; without chl nothing else forms it
        config = CampaignConfig(
            seed=13, instance_count=300, n_max=3, degree_max=3,
            conjectures=frozenset({"transversal_socle"}),
        )
        real = fuzzlab.socle_colon
        formed: list[bytes] = []

        def colon(J):
            formed.append(fuzzlab._packed(J))
            return real(J)

        monkeypatch.setattr(fuzzlab, "socle_colon", colon)
        lines: list[str] = []
        run_campaign(config, lines.append)
        checked = sum("spanning_tree_socle_equal" in json.loads(line) for line in lines)
        assert len(set(formed)) == len(formed) < checked

    @pytest.mark.parametrize("low, high", [(255, 256), (256, 257)])
    def test_memo_keys_across_the_wide_encoding(self, low, high):
        # every number of a key takes 4 bytes, so exponents on either side of
        # a byte's range, which no campaign of the default budget reaches,
        # still give distinct keys; a collision would give one ideal the
        # checks of another
        def key(e, reverse=False):
            gens = [Monomial((e, 1, 0)), Monomial((0, 1, e))]
            return fuzzlab._packed(MonomialIdeal(3, gens[::-1] if reverse else gens))

        assert key(low) != key(high)
        assert key(low) == key(low, reverse=True)
        assert key(high) == key(high, reverse=True)

    def test_entries_hold_no_ideal(self):
        # an entry is one JSON text: [fields, flags, early, late]
        for _, _, _, J in supported_draws(self.CONFIG):
            part = fuzzlab._check_supported(J, self.CONFIG)
            assert isinstance(part, str)
            assert len(json.loads(part)) == 4

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
            return BettiTable(table.n, kept, table.prime)

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
        monkeypatch.setattr(fuzzlab, "random_polymatroidal", lambda seed, budget: (spec, ideal))
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
            "instances": 3, "distinct_ideals": 1, "flags": 0, "disagreements": 3,
        }

    def test_distance_route(self, monkeypatch):
        monkeypatch.setattr(
            fuzzlab, "shifts_by_distance", lambda cert, j: MonomialIdeal(cert.ideal.n)
        )
        row, counters = self.campaign(monkeypatch, self.LP)
        # HS_5 is zero on both routes
        assert row["disagreements"] == [{"kind": "distance-route", "j": j} for j in range(5)]
        assert counters == {
            "instances": 3, "distinct_ideals": 1, "flags": 0, "disagreements": 15,
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
            "instances": 3, "distinct_ideals": 1, "flags": 0, "disagreements": 6,
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
            "instances": 3, "distinct_ideals": 1, "flags": 0, "disagreements": 3,
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
            "instances": 3, "distinct_ideals": 1, "flags": 0, "disagreements": 3,
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
