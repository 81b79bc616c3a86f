"""Admissible orders, colon-variable certificates and homological shift ideals.

An ideal has *linear quotients* when its generators can be ordered
u_1 > u_2 > ... > u_m so that each colon ideal (u_1,...,u_{k-1}) : u_k is
generated by variables.  A :class:`QuotientCertificate` records such an
order together with the generating variables of every colon step; from it
the shift ideals of the minimal resolution are read off combinatorially.

Three independent computation routes live here:

* :func:`homological_shift` - the subset formula over the certificate,
* :func:`shifts_by_distance` / :func:`first_shift_by_distance` - via the
  exchange-distance characterization (equigenerated ideals only),
* :func:`taylor_shifts` - the subset-lcm upper bound that contains every
  true shift.

Cross-checking the routes against each other (and against the homology
oracle) is the backbone of the test suite and the fuzzing lab.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from typing import Optional, Sequence, Union

from .errors import DegreeMismatchError, ResourceCapError, ZeroIdealError
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableOrder,
    lcm_many,
    x_of,
)

TAYLOR_GEN_CAP_LOW_INDEX = 25   # subset enumeration cap for j <= 2
TAYLOR_GEN_CAP_HIGH_INDEX = 18  # cap for j >= 3
SEARCH_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class QuotientCertificate:
    """A proven admissible order together with all colon variable sets.

    ``order`` holds 0-based positions into ``ideal.gens`` (first entry is the
    greatest generator); ``colon_vars[k]`` lists the 1-based variables that
    generate the k-th colon ideal, so ``colon_vars[0]`` is always empty.
    ``variable_order`` is set when the order came from sorting under a
    variable order (the lexicographic route).
    """

    ideal: MonomialIdeal
    order: tuple[int, ...]
    colon_vars: tuple[tuple[int, ...], ...]
    variable_order: Optional[VariableOrder] = None

    @property
    def ordered_gens(self) -> tuple[Monomial, ...]:
        return tuple(self.ideal.gens[i] for i in self.order)

    @property
    def projective_dimension(self) -> int:
        """Length of the minimal resolution: the largest colon set size."""
        return max(len(s) for s in self.colon_vars)

    def colon_table(self) -> dict[Monomial, tuple[int, ...]]:
        return dict(zip(self.ordered_gens, self.colon_vars))


@dataclass(frozen=True)
class AdmissibleOrderFailure:
    """Why an order is not admissible: at step ``k`` (1-based) the colon
    contribution of ``witness`` against ``generator`` is not spanned by the
    variables already in the colon ideal."""

    k: int
    generator: Monomial
    witness: Monomial

    def __bool__(self) -> bool:
        return False


CertifyResult = Union[QuotientCertificate, AdmissibleOrderFailure]


def certify_order(I: MonomialIdeal, order: Sequence[int]) -> CertifyResult:
    """Check one candidate order for linear quotients.

    ``order`` is a permutation of ``range(I.num_gens)``.  On success the full
    certificate is returned; on failure, the first offending step.
    """
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no admissible orders")
    m = I.num_gens
    order = tuple(order)
    if sorted(order) != list(range(m)):
        raise ValueError(f"order must be a permutation of 0..{m - 1}")
    exps = [I.gens[i].exponents for i in order]
    colon_vars: list[tuple[int, ...]] = [()]
    for k in range(1, m):
        uk = exps[k]
        members: set[int] = set()
        positives: list[list[int]] = []
        for j in range(k):
            uj = exps[j]
            pos = [i for i in range(len(uk)) if uj[i] > uk[i]]
            positives.append(pos)
            if len(pos) == 1 and uj[pos[0]] - uk[pos[0]] == 1:
                members.add(pos[0] + 1)
        for j in range(k):
            if not any(i + 1 in members for i in positives[j]):
                return AdmissibleOrderFailure(
                    k + 1, I.gens[order[k]], I.gens[order[j]]
                )
        colon_vars.append(tuple(sorted(members)))
    return QuotientCertificate(I, order, tuple(colon_vars))


def certify_lex(I: MonomialIdeal, vo: Optional[VariableOrder] = None) -> CertifyResult:
    """Certify the descending-lexicographic order under a variable order."""
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no admissible orders")
    if vo is None:
        vo = VariableOrder.identity(I.n)
    order = tuple(
        sorted(range(I.num_gens), key=lambda i: vo.key(I.gens[i]), reverse=True)
    )
    result = certify_order(I, order)
    if isinstance(result, QuotientCertificate):
        return QuotientCertificate(I, result.order, result.colon_vars, vo)
    return result


@dataclass(frozen=True)
class OrderSearch:
    """Three-valued outcome of the admissible-order search."""

    status: str  # "certified" | "none" | "inconclusive"
    certificate: Optional[QuotientCertificate] = None

    def __bool__(self) -> bool:
        return self.status == "certified"


class _BudgetExceeded(Exception):
    pass


def _admissible_next(gens, prefix: list[int], candidate: int) -> bool:
    """Would appending ``candidate`` keep the prefix admissible?"""
    uk = gens[candidate].exponents
    members: set[int] = set()
    positives: list[list[int]] = []
    for j in prefix:
        uj = gens[j].exponents
        pos = [i for i in range(len(uk)) if uj[i] > uk[i]]
        positives.append(pos)
        if len(pos) == 1 and uj[pos[0]] - uk[pos[0]] == 1:
            members.add(pos[0])
    return all(any(i in members for i in pos) for pos in positives)


def find_admissible_order(
    I: MonomialIdeal, node_budget: int = SEARCH_NODE_BUDGET
) -> OrderSearch:
    """Search for any admissible order.

    Fast path: all lexicographic orders (every permutation of the variables)
    when that sweep is cheap.  Complete path: backtracking over generator
    prefixes, with dead-prefix memoization.  "none" is returned only when the
    backtracking search finished exhaustively; running out of budget yields
    "inconclusive" instead.
    """
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no admissible orders")
    m = I.num_gens
    n = I.n
    if n <= 6 and factorial(n) * m * m <= 2_000_000:
        for perm in itertools.permutations(range(1, n + 1)):
            result = certify_lex(I, VariableOrder(perm))
            if isinstance(result, QuotientCertificate):
                return OrderSearch("certified", result)
    gens = I.gens
    dead: set[frozenset[int]] = set()
    nodes = 0

    def extend(prefix: list[int], used: frozenset[int]) -> Optional[list[int]]:
        nonlocal nodes
        if len(prefix) == m:
            return list(prefix)
        if used in dead:
            return None
        for c in range(m):
            if c in used:
                continue
            nodes += 1
            if nodes > node_budget:
                raise _BudgetExceeded
            if _admissible_next(gens, prefix, c):
                prefix.append(c)
                found = extend(prefix, used | {c})
                if found is not None:
                    return found
                prefix.pop()
        dead.add(used)
        return None

    try:
        found = extend([], frozenset())
    except _BudgetExceeded:
        return OrderSearch("inconclusive")
    if found is None:
        return OrderSearch("none")
    cert = certify_order(I, found)
    assert isinstance(cert, QuotientCertificate)
    return OrderSearch("certified", cert)


def homological_shift(cert: QuotientCertificate, j: int) -> MonomialIdeal:
    """The j-th homological shift ideal, read off the certificate.

    Generators are all products x_F * u with F a j-subset of the colon
    variables of u.  j = 0 returns the ideal itself; past the projective
    dimension the result is the zero ideal.
    """
    if j < 0:
        raise ValueError("homological index must be nonnegative")
    n = cert.ideal.n
    mons: list[Monomial] = []
    for u, cols in zip(cert.ordered_gens, cert.colon_vars):
        if len(cols) < j:
            continue
        for F in itertools.combinations(cols, j):
            mons.append(u * x_of(F, n))
    result = MonomialIdeal(n, mons)
    if cert.ideal.is_equigenerated and mons:
        # equal degrees: minimalization may only deduplicate, never drop
        assert result.num_gens == len(set(mons))
    return result


def shift_multiset(cert: QuotientCertificate, j: int) -> Counter:
    """Multiset of the j-th multigraded shifts (with multiplicities)."""
    counts: Counter = Counter()
    n = cert.ideal.n
    for u, cols in zip(cert.ordered_gens, cert.colon_vars):
        for F in itertools.combinations(cols, j):
            counts[u * x_of(F, n)] += 1
    return counts


def total_betti_from_certificate(cert: QuotientCertificate, j: int) -> int:
    """Total Betti number: the sum of binomial(|colon set|, j)."""
    return sum(comb(len(cols), j) for cols in cert.colon_vars)


def first_shift_by_distance(I: MonomialIdeal) -> MonomialIdeal:
    """HS_1 for an equigenerated ideal with linear quotients, computed
    order-independently: lcms of all generator pairs at exchange distance 1.

    The caller is responsible for the linear-quotients hypothesis; without
    it the returned ideal need not be the first shift ideal.
    """
    if not I.is_equigenerated:
        raise DegreeMismatchError("distance route requires an equigenerated ideal")
    n = I.n
    gens = I.gens
    out: list[Monomial] = []
    for a in range(len(gens)):
        ea = gens[a].exponents
        for b in range(a + 1, len(gens)):
            eb = gens[b].exponents
            if sum(abs(x - y) for x, y in zip(ea, eb)) == 2:
                out.append(
                    Monomial(tuple(max(x, y) for x, y in zip(ea, eb)))
                )
    return MonomialIdeal(n, out)


def shifts_by_distance(cert: QuotientCertificate, j: int) -> MonomialIdeal:
    """HS_j via distance-1 chains below each generator in the admissible order.

    A generator of HS_j is the lcm of a chain u_{i_1} > ... > u_{i_j} > u of
    pairwise choices at distance 1 from the last element u, subject to the
    degree condition deg(lcm) = deg(u) + j; that condition holds exactly when
    the j exchange variables are pairwise distinct, which is how the chains
    are enumerated here.

    The earlier neighbours of u_t at distance 1 are found by looking up its
    n(n-1) single-variable moves u_t - e_l + e_k in a dictionary from
    exponents to positions in the order, so the cost is O(m n^2) lookups
    rather than O(m^2 n) for a test of every earlier generator.
    """
    if j < 0:
        raise ValueError("homological index must be nonnegative")
    I = cert.ideal
    if not I.is_equigenerated:
        raise DegreeMismatchError("distance route requires an equigenerated ideal")
    ordered = cert.ordered_gens
    n = I.n
    if j == 0:
        return MonomialIdeal(n, ordered)
    position = {u.exponents: s for s, u in enumerate(ordered)}
    out: list[Monomial] = []
    for t, ut in enumerate(ordered):
        if t < j:
            continue  # each earlier generator adds at most one variable
        # k + 1 for every earlier u_s = x_k * (u_t / x_l)
        adds: set[int] = set()
        moved = list(ut.exponents)
        for l, e in enumerate(ut.exponents):
            if not e:
                continue
            moved[l] -= 1
            for k in range(n):
                if k != l:
                    moved[k] += 1
                    if position.get(tuple(moved), t) < t:
                        adds.add(k + 1)
                    moved[k] -= 1
            moved[l] += 1
        if len(adds) < j:
            continue
        for K in itertools.combinations(sorted(adds), j):
            out.append(ut * x_of(K, n))
    return MonomialIdeal(n, out)


def taylor_shifts(
    I: MonomialIdeal, j: int, max_gens: Optional[int] = None
) -> MonomialIdeal:
    """Upper bound for HS_j: lcms of all (j+1)-subsets of the generators.

    Subset enumeration is capped (25 generators for j <= 2, 18 beyond, unless
    ``max_gens`` overrides); exceeding the cap raises ResourceCapError.
    """
    if j < 0:
        raise ValueError("homological index must be nonnegative")
    cap = max_gens
    if cap is None:
        cap = TAYLOR_GEN_CAP_LOW_INDEX if j <= 2 else TAYLOR_GEN_CAP_HIGH_INDEX
    if I.num_gens > cap:
        raise ResourceCapError(
            f"{I.num_gens} generators exceed the subset enumeration cap of {cap}"
        )
    if j + 1 > I.num_gens:
        return MonomialIdeal(I.n)
    seen: set[tuple[int, ...]] = set()
    out: list[Monomial] = []
    for subset in itertools.combinations(I.gens, j + 1):
        exps = lcm_many(subset).exponents
        if exps not in seen:
            seen.add(exps)
            out.append(Monomial(exps))
    return MonomialIdeal(I.n, out)


def within_taylor_bound(I: MonomialIdeal, j: int, w: Monomial) -> bool:
    """Whether w lies in the ideal of (j+1)-subset lcms of G(I).

    Any j+1 generators dividing w have an lcm dividing w, so membership is
    exactly ``divisor_count >= j + 1``; no subsets need enumerating.
    """
    return I.divisor_count(w) >= j + 1
