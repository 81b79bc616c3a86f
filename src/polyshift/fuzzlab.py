"""Conjecture-fuzzing campaigns over random polymatroidal ideals.

Each campaign instance draws a random polymatroidal ideal, computes every
homological shift ideal along the lexicographic certificate, cross-checks
the distance route, and then tests the open questions:

* does every shift ideal stay polymatroidal (first shift heredity is a
  theorem; the higher shifts are the open part),
* is the socle polymatroidal,
* for transversal ideals, do spanning-tree candidates exhaust the socle.

A candidate counterexample is only *flagged* after the homology oracle
independently reproduces the same ideal; a route mismatch is recorded as an
internal disagreement instead, and the campaign reports both counts.  Flags
are reports, never failures: the questions are open.

Everything is deterministic in the campaign seed; each instance derives its
own seed, so a single row reproduces in isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .families import (
    FamilySpec,
    GenBudget,
    VeroneseSpec,
    as_transversal,
    check_exchange,
    is_matroidal,
    random_polymatroidal,
    veronese_shift,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    monomial_multiples,
    restrict_to_support,
    support_filter,
)
from .oracle import betti_table, default_prime, validate_prime
from .quotients import (
    QuotientCertificate,
    certify_lex,
    homological_shift,
    shifts_by_distance,
)
from .socle import (
    socle_colon,
    socle_exchange,
    spanning_tree_socle,
)
from .textio import spec_to_doc

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 63) - 1

CONJECTURE_KEYS = ("bbh", "chl", "transversal_socle")

# the refined nesting check runs on instances with at most this many generators
REFINED_NESTING_CAP = 40


@dataclass(frozen=True)
class CampaignConfig:
    seed: int
    instance_count: int
    n_max: int = 5
    degree_max: int = 4
    gen_max: int = 120
    conjectures: frozenset = frozenset(CONJECTURE_KEYS)
    prime: int = field(default_factory=default_prime)

    def __post_init__(self):
        if self.instance_count < 1:
            raise ValueError("instance_count must be positive")
        unknown = set(self.conjectures) - set(CONJECTURE_KEYS)
        if unknown:
            raise ValueError(f"unknown conjecture keys: {sorted(unknown)}")
        validate_prime(self.prime)

    @property
    def budget(self) -> GenBudget:
        return GenBudget(self.n_max, self.degree_max, self.gen_max)


def instance_seed(campaign_seed: int, index: int) -> int:
    return (campaign_seed + _MIX * (index + 1)) & _MASK


@dataclass
class CampaignSummary:
    config: CampaignConfig
    flags: list[dict] = field(default_factory=list)
    disagreements: list[dict] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def to_json(self) -> dict[str, Any]:
        return {
            "seed": self.config.seed,
            "instances": self.counters.get("instances", 0),
            "flags": self.flags,
            "disagreements": self.disagreements,
            "counters": dict(sorted(self.counters.items())),
        }


def check_instance(
    spec: FamilySpec, ideal: MonomialIdeal, config: CampaignConfig
) -> dict[str, Any]:
    """All per-instance computations and comparisons; returns the report row."""
    row: dict[str, Any] = {
        "spec": spec_to_doc(spec),
        "n": ideal.n,
        "num_gens": ideal.num_gens,
        "degree": ideal.generation_degree,
        "flags": [],
        "disagreements": [],
    }
    J, _ = restrict_to_support(ideal)
    cert = certify_lex(J)
    if not isinstance(cert, QuotientCertificate):
        row["disagreements"].append(
            {"kind": "no-lex-certificate", "detail": "polymatroidal ideal refused lex order"}
        )
        return row
    pd = cert.projective_dimension
    row["pd"] = pd
    row["matroidal"] = is_matroidal(J)

    shifts = [homological_shift(cert, j) for j in range(pd + 1)]

    # route cross-check: the distance characterization must agree everywhere
    for j in range(pd + 2):
        expected = shifts[j] if j <= pd else MonomialIdeal(J.n)
        if shifts_by_distance(cert, j) != expected:
            row["disagreements"].append({"kind": "distance-route", "j": j})

    table = None
    soc_colon = None
    if "bbh" in config.conjectures:
        verdicts = []
        for j in range(1, pd + 1):
            result = check_exchange(shifts[j], "exchange")
            verdicts.append(bool(result.holds))
            if not result.holds:
                if table is None:
                    table = betti_table(J, config.prime)
                oracle_ideal = table.shift_ideal(j)
                if oracle_ideal == shifts[j]:
                    row["flags"].append(
                        {
                            "conjecture": "bbh",
                            "j": j,
                            "ideal": [str(g) for g in shifts[j].gens],
                            "witness": [str(w) for w in result.witness[:2]],
                        }
                    )
                else:
                    row["disagreements"].append({"kind": "oracle-vs-certificate", "j": j})
        row["hs_polymatroidal"] = verdicts

    if "chl" in config.conjectures:
        soc_exchange = socle_exchange(cert)
        soc_colon = socle_colon(J)
        if soc_exchange != soc_colon:
            row["disagreements"].append({"kind": "socle-route"})
        row["max_pd"] = not soc_exchange.is_zero
        if not soc_exchange.is_zero:
            result = check_exchange(soc_exchange, "exchange")
            row["soc_polymatroidal"] = bool(result.holds)
            if not result.holds:
                if table is None:
                    table = betti_table(J, config.prime)
                top_oracle = table.shift_ideal(J.n - 1)
                top_formula = monomial_multiples(
                    soc_exchange, Monomial.from_support(range(1, J.n + 1), J.n)
                )
                if top_oracle == top_formula:
                    row["flags"].append(
                        {
                            "conjecture": "chl",
                            "socle": [str(g) for g in soc_exchange.gens],
                            "witness": [str(w) for w in result.witness[:2]],
                        }
                    )
                else:
                    row["disagreements"].append({"kind": "oracle-vs-socle"})

    if "transversal_socle" in config.conjectures:
        tspec = as_transversal(spec)
        if tspec is not None and tspec.covers_variables:
            candidates = spanning_tree_socle(tspec)
            if soc_colon is None:
                soc_colon = socle_colon(J)
            if not candidates.is_zero:
                contained = all(soc_colon.contains(g) for g in candidates.gens)
                if not contained:
                    row["disagreements"].append({"kind": "spanning-tree-not-in-socle"})
                row["spanning_tree_socle_equal"] = candidates == soc_colon

    # theorem-level spot checks that double as route validation; both
    # nesting checks read HS_1 of a shift ideal along its own lex certificate
    inner_first: dict[int, Optional[MonomialIdeal]] = {}

    def first_shift_of(j: int) -> Optional[MonomialIdeal]:
        """HS_1(HS_j) by the lex certificate, or None when it has none."""
        if j not in inner_first:
            inner_cert = certify_lex(shifts[j])
            inner_first[j] = (
                homological_shift(inner_cert, 1)
                if isinstance(inner_cert, QuotientCertificate)
                else None
            )
        return inner_first[j]

    if row.get("matroidal"):
        for j in range(1, pd):
            first = first_shift_of(j)
            if first is None:
                row["disagreements"].append({"kind": "shift-not-certifiable", "j": j})
                continue
            if first != shifts[j + 1]:
                row["disagreements"].append({"kind": "matroidal-nesting", "j": j})
    if isinstance(spec, VeroneseSpec) and J.n == ideal.n:
        for level in range(1, pd + 1):
            if veronese_shift(spec, level) != shifts[level]:
                row["disagreements"].append({"kind": "veronese-closed-form", "j": level})
    if ideal.num_gens <= REFINED_NESTING_CAP and pd >= 1:
        equalities = []
        for j in range(1, pd + 1):
            first = first_shift_of(j)
            if first is None:
                equalities.append(None)
                continue
            refined = support_filter(first, j + 1)
            upper = shifts[j + 1] if j + 1 <= pd else MonomialIdeal(J.n)
            equalities.append(refined == upper)
        row["refined_nesting_equal"] = equalities
    return row


def run_campaign(
    config: CampaignConfig, sink: Optional[Callable[[str], None]] = None
) -> CampaignSummary:
    """Run the full campaign; stream one JSON line per instance to ``sink``."""
    summary = CampaignSummary(config)
    budget = config.budget
    for index in range(config.instance_count):
        seed = instance_seed(config.seed, index)
        spec, ideal = random_polymatroidal(seed, budget)
        row = check_instance(spec, ideal, config)
        row["index"] = index
        row["seed"] = seed
        for flag in row["flags"]:
            summary.flags.append({"index": index, "seed": seed, **flag})
        for item in row["disagreements"]:
            summary.disagreements.append({"index": index, "seed": seed, **item})
        summary.bump("instances")
        if row.get("matroidal"):
            summary.bump("matroidal")
        if row.get("max_pd"):
            summary.bump("max_pd")
        if "spanning_tree_socle_equal" in row:
            summary.bump(
                "transversal_socle_equal"
                if row["spanning_tree_socle_equal"]
                else "transversal_socle_strict"
            )
        if sink is not None:
            sink(json.dumps(row, sort_keys=True))
    summary.bump("flags", len(summary.flags))
    summary.bump("disagreements", len(summary.disagreements))
    return summary
