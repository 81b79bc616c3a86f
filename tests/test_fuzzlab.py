import hashlib
import json

import pytest

from polyshift import (
    BettiTable,
    CampaignConfig,
    ExchangeResult,
    LPSpec,
    check_instance,
    realize,
    run_campaign,
)
from polyshift import fuzzlab
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
        from polyshift import random_polymatroidal

        config = CampaignConfig(seed=99, instance_count=10, n_max=4, degree_max=3)
        lines: list[str] = []
        run_campaign(config, lines.append)
        for row in map(json.loads, lines[:4]):
            spec, ideal = random_polymatroidal(row["seed"], config.budget)
            again = check_instance(spec, ideal, config)
            for key in ("pd", "num_gens", "spec"):
                assert again[key] == row[key]

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


class TestOracleFallbacks:
    """The oracle runs in a campaign only when an exchange check fails; a
    patched check makes it run, and a patched table makes it disagree."""

    SPEC = LPSpec((1, 3), (4, 5), 5)

    @pytest.fixture
    def failing_exchange(self, monkeypatch):
        def fail(I, mode="exchange"):
            return ExchangeResult(False, (I.gens[0], I.gens[-1], 1))

        monkeypatch.setattr(fuzzlab, "check_exchange", fail)

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
