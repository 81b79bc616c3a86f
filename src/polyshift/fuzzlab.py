"""Conjecture-fuzzing campaigns over random polymatroidal ideals.

Each campaign instance draws a random polymatroidal ideal I, forms the
shift ideals HS_0..HS_{pd+1} of its supported ideal J =
``restrict_to_support(I)`` once along the lexicographic certificate,
cross-checks the distance route on the generators' exponent sets, and then
tests the open questions:

* does every shift ideal stay polymatroidal (first shift heredity is a
  theorem; the higher shifts are the open part),
* is the socle polymatroidal,
* for transversal ideals, do spanning-tree candidates exhaust the socle.

A candidate counterexample is only *flagged* after the homology oracle
independently reproduces the same ideal (J's Betti table is built at most
once, by the first exchange check that fails); a route mismatch is recorded
as an internal disagreement instead, and the campaign reports both counts.
Flags are reports, never failures: the questions are open.

The draws repeat J often, and every check that reads only J gives the same
answer on any relabelling of the variables.  So a campaign asserts the
draw's exchange property once per distinct J (``random_polymatroidal``
asserts it on every draw; J has it exactly when I has), and runs those
checks once per class of J up to relabelling (``ideal_classes`` in the
summary; ``distinct_ideals`` counts the distinct J), keeps their answer as
plain values that every row of J shares, and runs the checks that read the
spec (the row header, and the spanning-tree socle with the colon socle it
is compared with) on every instance.  A class's answer is shared only when
it has no flags and no disagreements, whose text may name J's own
variables.  To keep testing that the routes do not depend on the labels,
the second distinct member of every ``AUDIT_EVERY``-th sharing class is
checked anyway (``relabelling_audits``), and a different answer is
reported as a ``relabelling`` disagreement.  An ideal with too many
relabellings to try (``CLASS_KEY_ORDERS``) is a class of its own.

Everything is deterministic in the campaign seed; each instance derives its
own seed, so a single row reproduces in isolation, equal to its row in the
campaign (less a ``relabelling`` disagreement, which only a campaign sees).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Optional

from .families import (
    FamilySpec,
    GenBudget,
    VeroneseSpec,
    _assert_polymatroidal,
    _draw,
    as_transversal,
    check_exchange,
    is_matroidal,
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
    _distance_exponents,
    certify_lex,
    homological_shift,
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

# the second distinct member of every AUDIT_EVERY-th class of supported ideals
# up to relabelling that shares its checks, in order of first appearance, is
# checked on its own
AUDIT_EVERY = 8

# the most orders of tied columns _class_key tries (all those of 6 columns,
# above the 5! of the default budget); past it an ideal is a class of its own
CLASS_KEY_ORDERS = 720


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
    J, _ = restrict_to_support(ideal)
    return _instance_row(spec, ideal, J, _check_supported(J, config), config)


def _pack(numbers: list[int]) -> bytes:
    """The numbers as one byte string, equal for equal lists only: one byte
    each when all are below 256, else 4 bytes each, which hold every
    exponent up to the 2^31 limit, behind a byte that names the width."""
    try:
        return b"B" + bytes(numbers)
    except ValueError:  # a number above 255
        return b"I" + array("I", numbers).tobytes()


def _packed(I: MonomialIdeal) -> bytes:
    """I as one byte string, equal for equal ideals only: the variable count,
    the generator count (which tells the zero and unit ideals on no variables
    apart) and the generators' exponent vectors in order."""
    return _pack([I.n, I.num_gens, *(e for g in I.gens for e in g.exponents)])


def _class_key(J: MonomialIdeal) -> bytes:
    """J up to relabelling the variables: equal for two ideals exactly when a
    permutation of the variables takes one to the other.

    The columns of J's exponent rows are ordered by their sorted values, and
    only the orders that permute columns with equal sorted values are tried;
    the key packs J as ``_packed`` does, with the least of their sorted row
    lists for its generators.  When there are more than ``CLASS_KEY_ORDERS``
    such orders, J is a class of its own: the key is ``_packed(J)`` behind a
    byte no other key starts with, so equal keys still mean relabellings.
    """
    rows = [g.exponents for g in J.gens]
    if J.n < 2:
        least = rows
    else:
        values = {c: sorted([r[c] for r in rows]) for c in range(J.n)}
        columns = sorted(range(J.n), key=values.__getitem__)
        tied = [tuple(g) for _, g in itertools.groupby(columns, key=values.__getitem__)]
        if math.prod(math.factorial(len(group)) for group in tied) > CLASS_KEY_ORDERS:
            return b"=" + _packed(J)
        least = min(
            sorted(map(itemgetter(*itertools.chain.from_iterable(order)), rows))
            for order in itertools.product(*map(itertools.permutations, tied))
        )
    return _pack([J.n, J.num_gens, *itertools.chain.from_iterable(least)])


def _veronese_spec(J: MonomialIdeal) -> Optional[VeroneseSpec]:
    """VeroneseSpec(c, d) when J is every monomial of its degree d under its
    largest exponents c, as each realization of a Veronese spec is; None
    otherwise.  J lies in that set of monomials, so the sizes decide."""
    d = J.generation_degree
    bounds = tuple(map(max, zip(*(g.exponents for g in J.gens))))
    ways = [1] + [0] * d  # monomials under the bounds so far, by degree
    for b in bounds:
        ways = [sum(ways[max(0, t - b) : t + 1]) for t in range(d + 1)]
    return VeroneseSpec(bounds, d) if ways[d] == J.num_gens else None


def _check_supported(J: MonomialIdeal, config: CampaignConfig) -> tuple:
    """The checks that read only the supported ideal J.

    Returns ``(fields, flags, early, late)``: the row fields they set, their
    flags, and the disagreements that come before the spanning-tree check
    (``early``) and after it (``late``).  The part holds plain JSON values
    and no ideal, and every row of J shares it, so it is never changed.
    """
    fields: dict[str, Any] = {}
    flags: list[dict] = []
    early: list[dict] = []
    late: list[dict] = []
    cert = certify_lex(J)
    if not isinstance(cert, QuotientCertificate):
        early.append(
            {"kind": "no-lex-certificate", "detail": "polymatroidal ideal refused lex order"}
        )
        return fields, flags, early, late
    pd = cert.projective_dimension
    fields["pd"] = pd
    fields["matroidal"] = is_matroidal(J)

    # HS_0 .. HS_{pd+1}, the last the zero ideal
    shifts = [homological_shift(cert, j) for j in range(pd + 2)]
    # J's Betti table, built by the first fallback that reads it
    oracle = functools.cache(functools.partial(betti_table, J, config.prime))

    # route cross-check: the distance characterization must agree everywhere;
    # both routes' products have degree d + j, so each ideal's generators are
    # exactly its product set, and the sets are compared
    for j, shift in enumerate(shifts):
        if _distance_exponents(cert, j) != shift.exponent_set:
            early.append({"kind": "distance-route", "j": j})

    if "bbh" in config.conjectures:
        verdicts = []
        for j in range(1, pd + 1):
            result = check_exchange(shifts[j], "exchange")
            verdicts.append(bool(result.holds))
            if not result.holds:
                if oracle().shift_ideal(j) == shifts[j]:
                    flags.append(
                        {
                            "conjecture": "bbh",
                            "j": j,
                            "ideal": [str(g) for g in shifts[j].gens],
                            "witness": [str(w) for w in result.witness[:2]],
                        }
                    )
                else:
                    early.append({"kind": "oracle-vs-certificate", "j": j})
        fields["hs_polymatroidal"] = verdicts

    if "chl" in config.conjectures:
        soc_exchange = socle_exchange(cert)
        if soc_exchange != socle_colon(J):
            early.append({"kind": "socle-route"})
        fields["max_pd"] = not soc_exchange.is_zero
        if not soc_exchange.is_zero:
            result = check_exchange(soc_exchange, "exchange")
            fields["soc_polymatroidal"] = bool(result.holds)
            if not result.holds:
                top_formula = monomial_multiples(
                    soc_exchange, Monomial.from_support(range(1, J.n + 1), J.n)
                )
                if oracle().shift_ideal(J.n - 1) == top_formula:
                    flags.append(
                        {
                            "conjecture": "chl",
                            "socle": [str(g) for g in soc_exchange.gens],
                            "witness": [str(w) for w in result.witness[:2]],
                        }
                    )
                else:
                    early.append({"kind": "oracle-vs-socle"})

    # theorem-level spot checks that double as route validation: the
    # matroidal nesting check reads HS_1(HS_j) for j < pd and the refined
    # one for j <= pd, each along HS_j's own lex certificate (None without)
    refined = J.num_gens <= REFINED_NESTING_CAP and pd >= 1
    reach = pd if refined else pd - 1 if fields["matroidal"] else 0
    firsts: dict[int, Optional[MonomialIdeal]] = {}
    for j in range(1, reach + 1):
        inner = certify_lex(shifts[j])
        firsts[j] = homological_shift(inner, 1) if isinstance(inner, QuotientCertificate) else None
    if fields["matroidal"]:
        for j in range(1, pd):
            if firsts[j] is None:
                late.append({"kind": "shift-not-certifiable", "j": j})
            elif firsts[j] != shifts[j + 1]:
                late.append({"kind": "matroidal-nesting", "j": j})
    if refined:
        fields["refined_nesting_equal"] = [
            None if firsts[j] is None else support_filter(firsts[j], j + 1) == shifts[j + 1]
            for j in range(1, pd + 1)
        ]
    # the Veronese closed form on J's largest exponents, min(b_i, d) for any
    # bounds b that give J: no generator of HS_l has an exponent above d
    own = _veronese_spec(J)
    if own is not None:
        for level in range(1, pd + 1):
            if veronese_shift(own, level) != shifts[level]:
                late.append({"kind": "veronese-closed-form", "j": level})
    return fields, flags, early, late


def _instance_row(
    spec: FamilySpec,
    ideal: MonomialIdeal,
    J: MonomialIdeal,
    part: tuple,
    config: CampaignConfig,
) -> dict[str, Any]:
    """The report row: ``part`` (from ``_check_supported(J, config)``)
    merged with the checks that read the spec, which run on every call.
    The rows of one J share ``part``, so its lists are copied, not grown."""
    fields, flags, early, late = part
    row: dict[str, Any] = {
        "spec": spec_to_doc(spec),
        "n": ideal.n,
        "num_gens": ideal.num_gens,
        "degree": ideal.generation_degree,
        **fields,
        "flags": flags,
        "disagreements": list(early),
    }
    if "pd" not in fields:  # no lex certificate
        row["disagreements"] += late
        return row
    if "transversal_socle" in config.conjectures:
        tspec = as_transversal(spec)
        if tspec is not None and tspec.covers_variables:
            candidates = spanning_tree_socle(tspec)
            if not candidates.is_zero:
                soc_colon = socle_colon(J)
                if not all(soc_colon.contains(g) for g in candidates.gens):
                    row["disagreements"].append({"kind": "spanning-tree-not-in-socle"})
                row["spanning_tree_socle_equal"] = candidates == soc_colon
    row["disagreements"] += late
    return row


def run_campaign(
    config: CampaignConfig, sink: Optional[Callable[[str], None]] = None
) -> CampaignSummary:
    """Run the full campaign; stream one JSON line per instance to ``sink``."""
    summary = CampaignSummary(config)
    budget = config.budget
    # the J-only part of each distinct supported ideal, keyed exactly; the
    # part each class up to relabelling shares; the classes whose first
    # member has flags or disagreements, so each member is checked; and the
    # sharing classes whose second member is still to be audited
    checked: dict[bytes, tuple] = {}
    shared: dict[bytes, tuple] = {}
    unshared: set[bytes] = set()
    unaudited: set[bytes] = set()
    for index in range(config.instance_count):
        seed = instance_seed(config.seed, index)
        spec, ideal = _draw(seed, budget)
        J, _ = restrict_to_support(ideal)
        key = _packed(J)
        part = checked.get(key)
        if part is None:
            # the draw's assertion, once per distinct J: J is polymatroidal
            # exactly when the draw is, and every J in checked has passed
            _assert_polymatroidal(spec, J)
            ckey = _class_key(J)
            part = shared.get(ckey)
            if part is None:
                part = _check_supported(J, config)
                if ckey not in unshared:
                    if any(part[1:]):  # flags or disagreements
                        unshared.add(ckey)
                    else:
                        shared[ckey] = part
                        if (len(shared) - 1) % AUDIT_EVERY == 0:
                            unaudited.add(ckey)
            elif ckey in unaudited:
                # the audited member keeps its own part, with a relabelling
                # disagreement last when it differs from its class's
                unaudited.remove(ckey)
                summary.bump("relabelling_audits")
                own = _check_supported(J, config)
                if own != part:
                    fields, flags, early, late = own
                    part = fields, flags, early, late + [{"kind": "relabelling"}]
            checked[key] = part
        row = _instance_row(spec, ideal, J, part, config)
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
    summary.bump("distinct_ideals", len(checked))
    summary.bump("ideal_classes", len(shared) + len(unshared))
    summary.bump("relabelling_audits", 0)  # present when no class was audited
    summary.bump("flags", len(summary.flags))
    summary.bump("disagreements", len(summary.disagreements))
    return summary
