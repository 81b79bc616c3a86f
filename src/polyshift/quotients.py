"""Admissible orders, colon-variable certificates and homological shift ideals.

An ideal has *linear quotients* when its generators can be ordered
u_1 > u_2 > ... > u_m so that each colon ideal (u_1,...,u_{k-1}) : u_k is
generated by variables.  A :class:`QuotientCertificate` records such an
order together with the generating variables of every colon step; from it
the shift ideals of the minimal resolution are read off combinatorially.

Each colon step is decided by bitsets over the earlier positions, never by
a scan of generator pairs.  Let A_i be the earlier generators whose i-th
exponent exceeds that of u_k.  Variable x_i generates the colon exactly
when some generator of A_i exceeds u_k by one in coordinate i and lies in
no other A_l, that is, its colon contribution is x_i alone; the step fails
at the earliest generator outside the union of the A_i of those variables.
The rows above and at each exponent value come from one table per order
or search, :func:`~polyshift.monomials.coordinate_bitsets`, masked by the
earlier positions.  The table takes O(m n) dictionary updates and a sort
of each coordinate's distinct values; a step then costs O(n) lookups and
big-int operations, so an order costs O(m n) of them.

Two independent computation routes live here:

* :func:`homological_shift` - the subset formula over the certificate,
* :func:`shifts_by_distance` / :func:`first_shift_by_distance` - via the
  exchange-distance characterization (equigenerated ideals only), which
  look up :func:`~polyshift.monomials.exchange_moves` among the generators.

Cross-checking the routes against each other (and against the homology
oracle) is the backbone of the test suite and the fuzzing lab.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial
from typing import Optional, Sequence, Union

from .errors import DegreeMismatchError, DimensionMismatchError, ZeroIdealError
from .monomials import Monomial, MonomialIdeal, VariableOrder, coordinate_bitsets, exchange_moves

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

    @cached_property
    def ordered_gens(self) -> tuple[Monomial, ...]:
        return tuple(self.ideal.gens[i] for i in self.order)

    @cached_property
    def distance_adds(self) -> tuple[tuple[int, ...], ...]:
        """For each generator u_t in the order, the sorted 1-based variables
        x_k such that some earlier generator is x_k * (u_t / x_l): the
        exchange variables of its earlier neighbours at distance 1.

        They are found by looking up the :func:`exchange_moves` of u_t in a
        dictionary from exponents to positions in the order, so the cost is
        O(m n^2) lookups rather than O(m^2 n) for a test of every earlier
        generator.
        """
        ordered = self.ordered_gens
        position = {u.exponents: s for s, u in enumerate(ordered)}
        return tuple(
            tuple(sorted({
                k + 1 for _, k, move in exchange_moves(ut) if position.get(move, t) < t
            }))
            for t, ut in enumerate(ordered)
        )

    @property
    def projective_dimension(self) -> int:
        """Length of the minimal resolution: the largest colon set size."""
        return max(len(s) for s in self.colon_vars)


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


def _colon_step(table: list[dict], u: tuple[int, ...], prefix: int):
    """One colon step by bitsets over the earlier positions ``prefix``.

    ``table`` is :func:`~polyshift.monomials.coordinate_bitsets` of rows that
    include ``u``.  A_i, the earlier generators whose i-th exponent exceeds
    u_i, is the rows above u_i masked by ``prefix``; those in exactly one A_i
    contribute a single variable to the colon, and x_i is a colon variable
    when one of them is at u_i + 1.  Returns the 1-based colon variables and
    the earlier positions they do not cover; the step is admissible when
    that bitset is empty.
    """
    above = []
    once = twice = 0
    for col, e in zip(table, u):
        a = col[e][2] & prefix
        above.append(a)
        twice |= once & a
        once |= a
    alone = once & ~twice
    members = []
    covered = 0
    for i, (col, e) in enumerate(zip(table, u)):
        if col.get(e + 1, (0, 0, 0))[1] & alone:
            members.append(i + 1)
            covered |= above[i]
    return tuple(members), prefix & ~covered


def certify_order(I: MonomialIdeal, order: Sequence[int]) -> CertifyResult:
    """Check one candidate order for linear quotients.

    ``order`` is a permutation of ``range(I.num_gens)``.  On success the full
    certificate is returned; on failure, the first offending step, with the
    earliest generator whose colon contribution is not spanned as witness.

    The table of :func:`~polyshift.monomials.coordinate_bitsets` is built
    once over the generators in order position, and step k is one
    :func:`_colon_step` masked to the k earlier positions, so an order costs
    O(m n) big-int operations and the steps stop at the first bad one.
    """
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no admissible orders")
    m = I.num_gens
    order = tuple(order)
    if sorted(order) != list(range(m)):
        raise ValueError(f"order must be a permutation of 0..{m - 1}")
    gens = I.gens
    rows = [gens[g].exponents for g in order]
    table = coordinate_bitsets(rows)
    colon_vars: list[tuple[int, ...]] = [()]
    for k in range(1, m):
        members, uncovered = _colon_step(table, rows[k], (1 << k) - 1)
        if uncovered:
            j = (uncovered & -uncovered).bit_length() - 1
            return AdmissibleOrderFailure(k + 1, gens[order[k]], gens[order[j]])
        colon_vars.append(members)
    return QuotientCertificate(I, order, tuple(colon_vars))


def certify_lex(I: MonomialIdeal, vo: Optional[VariableOrder] = None) -> CertifyResult:
    """Certify the descending-lexicographic order under a variable order."""
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no admissible orders")
    if vo is None:
        vo = VariableOrder.identity(I.n)
    elif vo.n != I.n:
        raise DimensionMismatchError(
            f"variable order {vo} has {vo.n} variables, expected {I.n}"
        )
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


def _backtrack(
    gens: list[tuple[int, ...]], node_budget: int
) -> tuple[Optional[list[int]], int]:
    """The first admissible order of ``gens`` in depth-first order, or None
    when there is none, and the nodes visited; past ``node_budget`` nodes it
    raises :class:`_BudgetExceeded`.

    A node is one candidate tried after a prefix.  A prefix's set of
    generators that no extension completes is kept in ``dead``, since the
    colon steps after a prefix read only its set.  The depth-first search
    keeps its own stack, ``starts[k]`` the next candidate at depth k, so an
    order of any length needs no recursion.
    """
    m = len(gens)
    table = coordinate_bitsets(gens)
    dead: set[int] = set()
    nodes = 0
    prefix: list[int] = []
    used = 0
    starts = [0]
    while starts:
        if len(prefix) == m:
            return prefix, nodes
        c = starts[-1]
        while c < m:
            if not used >> c & 1:
                nodes += 1
                if nodes > node_budget:
                    raise _BudgetExceeded
                if not _colon_step(table, gens[c], used)[1]:
                    break
            c += 1
        if c < m:
            starts[-1] = c + 1
            if used | 1 << c not in dead:
                prefix.append(c)
                used |= 1 << c
                starts.append(0)
        else:
            dead.add(used)
            starts.pop()
            if prefix:
                used &= ~(1 << prefix.pop())
    return None, nodes


def find_admissible_order(
    I: MonomialIdeal, node_budget: int = SEARCH_NODE_BUDGET
) -> OrderSearch:
    """Search for any admissible order.

    Fast path: all lexicographic orders (every permutation of the variables)
    when that sweep is cheap.  Complete path: backtracking over generator
    prefixes, with dead-prefix memoization.  "none" is returned only when the
    backtracking search finished exhaustively; running out of budget yields
    "inconclusive" instead.

    The backtracking tests each extension by the bitset step of
    :func:`certify_order`, over one table of the generators masked by the
    generators in the prefix, so a node costs O(n) big-int operations.
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
    try:
        found, _ = _backtrack([g.exponents for g in I.gens], node_budget)
    except _BudgetExceeded:
        return OrderSearch("inconclusive")
    if found is None:
        return OrderSearch("none")
    cert = certify_order(I, found)
    if not isinstance(cert, QuotientCertificate):
        raise AssertionError(f"the search found an order that certify_order refuses: {cert}")
    return OrderSearch("certified", cert)


def _shift_generators(
    gens: Sequence[Monomial], variable_sets: Sequence[tuple[int, ...]], j: int
) -> set[tuple[int, ...]]:
    """The exponent vectors of the products x_F * u, for each generator u and
    each j-subset F of its variable set, added on exponent lists."""
    products: set[tuple[int, ...]] = set()
    for u, variables in zip(gens, variable_sets):
        if len(variables) < j:
            continue
        for F in itertools.combinations(variables, j):
            exps = list(u.exponents)
            for i in F:
                exps[i - 1] += 1
            products.add(tuple(exps))
    return products


def homological_shift(cert: QuotientCertificate, j: int) -> MonomialIdeal:
    """The j-th homological shift ideal, read off the certificate.

    Generators are all products x_F * u with F a j-subset of the colon
    variables of u.  j = 0 returns the ideal itself; past the projective
    dimension the result is the zero ideal.
    """
    if j < 0:
        raise ValueError("homological index must be nonnegative")
    products = _shift_generators(cert.ordered_gens, cert.colon_vars, j)
    result = MonomialIdeal(cert.ideal.n, map(Monomial, products))
    # equal degrees: the products are distinct, so minimalization may drop none
    if cert.ideal.is_equigenerated and result.num_gens != len(products):
        raise AssertionError(
            f"minimalization dropped {len(products) - result.num_gens} of {len(products)} "
            f"distinct products from an equigenerated shift ideal (j = {j})"
        )
    return result


def shift_multiset(cert: QuotientCertificate, j: int) -> Counter:
    """Multiset of the j-th multigraded shifts (with multiplicities)."""
    counts: Counter = Counter()
    n = cert.ideal.n
    for u, cols in zip(cert.ordered_gens, cert.colon_vars):
        for F in itertools.combinations(cols, j):
            counts[u * Monomial.from_support(F, n)] += 1
    return counts


def total_betti_from_certificate(cert: QuotientCertificate, j: int) -> int:
    """Total Betti number: the sum of binomial(|colon set|, j)."""
    return sum(comb(len(cols), j) for cols in cert.colon_vars)


def first_shift_by_distance(I: MonomialIdeal) -> MonomialIdeal:
    """HS_1 for an equigenerated ideal with linear quotients, computed
    order-independently: lcms of all generator pairs at exchange distance 1.

    The lcm of u and its move u - e_i + e_j is u + e_j, so the pairs are the
    :func:`exchange_moves` of each generator that land in G(I): O(m n^2)
    lookups, with no scan of the generator pairs.

    The caller is responsible for the linear-quotients hypothesis; without
    it the returned ideal need not be the first shift ideal.
    """
    if not I.is_equigenerated:
        raise DegreeMismatchError("distance route requires an equigenerated ideal")
    gset = I.exponent_set
    lcms = set()
    for u in I.gens:
        e = u.exponents
        for _, j, move in exchange_moves(u):
            if move in gset:
                lcms.add(e[:j] + (e[j] + 1,) + e[j + 1:])
    return MonomialIdeal(I.n, map(Monomial, lcms))


def shifts_by_distance(cert: QuotientCertificate, j: int) -> MonomialIdeal:
    """HS_j via distance-1 chains below each generator in the admissible order.

    A generator of HS_j is the lcm of a chain u_{i_1} > ... > u_{i_j} > u of
    pairwise choices at distance 1 from the last element u, subject to the
    degree condition deg(lcm) = deg(u) + j; that condition holds exactly when
    the j exchange variables are pairwise distinct, which is how the chains
    are enumerated here.

    The exchange variables of every generator are the certificate's
    :attr:`QuotientCertificate.distance_adds`, found once per certificate by
    O(m n^2) move lookups and shared by every j; each call only enumerates
    the j-subsets of them.
    """
    return MonomialIdeal(cert.ideal.n, map(Monomial, _distance_exponents(cert, j)))


def _distance_exponents(cert: QuotientCertificate, j: int) -> set[tuple[int, ...]]:
    """The exponent vectors of the generators of ``shifts_by_distance(cert,
    j)``: every chain lcm has degree d + j, so none divides another and the
    set is the ideal's generating set, formed without building the ideal."""
    if j < 0:
        raise ValueError("homological index must be nonnegative")
    if not cert.ideal.is_equigenerated:
        raise DegreeMismatchError("distance route requires an equigenerated ideal")
    return _shift_generators(cert.ordered_gens, cert.distance_adds, j)
