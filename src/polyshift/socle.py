"""Socle ideals, maximal projective dimension, and the top shift ideal.

For an ideal with a d-linear resolution the socle ideal collects the
degree-(d-1) generators of I : (x_1,...,x_n); it is nonzero exactly when the
projective dimension is maximal (n - 1 for full support), and the top shift
ideal is x_1...x_n times the socle.  Two general routes are implemented (the
colon computation and the generator-exchange formula for lex-certified
ideals) plus closed forms for the constructible families, the intersection
graph criterion for transversal ideals, and the spanning-tree candidate set
for their socles.  ``socle_report`` is the one place that checks linearity
and runs the general routes that apply.

The closed form is one formula.  Veronese, basic PLP, Borel and LP specs and
their powers are unions of the windows ``plp_windows`` reads off them, and
the shifted type (upper - 1 | alpha - e_n, beta - 1) of each window of the
generation degree gives the socle of any of them.

The colon route truncates by degree.  For I generated in degree d, the
degree-(d-1) generators of I : x_i are exactly {u / x_i : u in G(I), x_i | u},
and the degree-(d-1) part of an intersection of ideals generated in degree at
least d-1 is the intersection of their degree-(d-1) parts (lcm(g, h) has
degree d-1 only when g = h).  So the socle is the set intersection over all i
of {u / x_i : x_i | u}: O(m n) tuple operations for m generators, with no lcm
and no minimalization.  The tests hold it to the untruncated colon, the
intersection of the ideals I : x_i, kept in ``tests/util.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    DegreeMismatchError,
    LinearityError,
    PreconditionError,
    ResourceCapError,
    SupportError,
    UnsupportedFamilyError,
    ZeroIdealError,
)
from .families import FamilySpec, TransversalSpec, _realize_windows, plp_windows
from .monomials import (
    Monomial,
    MonomialIdeal,
    exchange_moves,
    monomial_multiples,
    restrict_to_support,
)
from .oracle import betti_table
from .quotients import QuotientCertificate, certify_lex, find_admissible_order

SPANNING_TREE_CAP = 10_000


# ---------------------------------------------------------------------------
# colon machinery
# ---------------------------------------------------------------------------


def _require_variables(n: int) -> None:
    if n == 0:
        raise PreconditionError("the socle is undefined in a ring with no variables")


def socle_colon(I: MonomialIdeal) -> MonomialIdeal:
    """Socle by the defining colon: degree-(d-1) generators of I : m.

    Computed by degree truncation, over every variable: the intersection over
    i = 1..n of the sets {u / x_i : u in G(I), x_i | u}, which are the
    degree-(d-1) generators of the colons I : x_i.  That takes O(m n) tuple
    operations for m generators and stops early once the set is empty.

    The result is the socle ideal only when I has a linear resolution, which
    is not checked here; ``socle_report`` is the checked entry point.
    """
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no socle")
    _require_variables(I.n)
    I.generation_degree  # raises unless equigenerated
    exps = [g.exponents for g in I.gens]
    soc: Optional[set[tuple[int, ...]]] = None
    for k in range(I.n):
        colon_part = {e[:k] + (e[k] - 1,) + e[k + 1:] for e in exps if e[k]}
        soc = colon_part if soc is None else soc & colon_part
        if not soc:
            break
    return MonomialIdeal(I.n, [Monomial(e) for e in soc])


def socle_exchange(cert: QuotientCertificate) -> MonomialIdeal:
    """Socle from the generator-exchange formula.

    For an equigenerated ideal certified under a variable order with full
    support, the socle generators are exactly the u / x_last whose every
    variable multiple x_i * (u / x_last) is again a minimal generator, where
    x_last is the least variable of the order: the generators u with
    u_last > 0 whose :func:`exchange_moves` from x_last all land in G(I).
    """
    I = cert.ideal
    if cert.variable_order is None:
        raise ValueError(
            "socle_exchange needs a certificate produced by certify_lex"
        )
    _require_variables(I.n)
    if I.support != tuple(range(1, I.n + 1)):
        raise SupportError(
            "ideal does not involve every variable; restrict_to_support first"
        )
    I.generation_degree  # raises unless equigenerated
    last = cert.variable_order.least - 1
    gset = I.exponent_set
    out = []
    for u in I.gens:
        e = u.exponents
        if e[last] and all(move in gset for i, _, move in exchange_moves(u) if i == last):
            out.append(Monomial(e[:last] + (e[last] - 1,) + e[last + 1:]))
    return MonomialIdeal(I.n, out)


def max_pd(I: MonomialIdeal) -> bool:
    """Whether the projective dimension is maximal relative to the support:
    pd(I) = |supp(I)| - 1.  The ideal is restricted to its support first."""
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no projective dimension")
    J, _ = restrict_to_support(I)
    if J.n == 0:
        return True  # unit ideal: nothing to resolve
    if J.is_equigenerated:
        cert = certify_lex(J)
        if isinstance(cert, QuotientCertificate):
            return not socle_exchange(cert).is_zero
    return betti_table(J).pd == J.n - 1


@dataclass(frozen=True)
class SocleReport:
    """Bundle of the socle with the facts derived from it."""

    socle: MonomialIdeal
    max_pd: bool
    witness: Optional[Monomial]  # generator u with u / x_n in the socle
    route: str  # "colon" | "exchange-formula"
    routes: dict[str, MonomialIdeal]  # the socle by every route that ran

    @property
    def top_shift(self) -> MonomialIdeal:
        """x_1...x_n times the socle: HS_{n-1}(I) when pd is maximal."""
        n = self.socle.n
        return monomial_multiples(self.socle, Monomial.from_support(range(1, n + 1), n))


def socle_report(I: MonomialIdeal) -> SocleReport:
    """The socle by every route that applies, with linearity checked once.

    Linearity is certified by the lex certificate, else by linear quotients
    under any order, and only failing both by the Betti table.  The order
    search gets m^2 nodes for m generators, room for a search with little
    backtracking, so an input without linear quotients pays little for it
    before the table.  The colon route always runs; under a lex certificate
    with full support the exchange formula runs too and is the reported
    route.
    """
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no socle")
    d = I.generation_degree
    cert = certify_lex(I)
    certified = isinstance(cert, QuotientCertificate)
    if (
        not certified
        and find_admissible_order(I, I.num_gens**2).status != "certified"
        and not betti_table(I).is_linear(d)
    ):
        raise LinearityError("socle is undefined: the ideal has no linear resolution")
    routes = {"colon": socle_colon(I)}
    route = "colon"
    if certified and I.support == tuple(range(1, I.n + 1)):
        route = "exchange-formula"
        routes[route] = socle_exchange(cert)
    soc = routes[route]
    witness = None
    if not soc.is_zero:
        e = soc.gens[0].exponents
        candidate = e[:-1] + (e[-1] + 1,)
        if candidate in I.exponent_set:
            witness = Monomial(candidate)
    return SocleReport(soc, not soc.is_zero, witness, route, routes)


# ---------------------------------------------------------------------------
# transversal ideals: intersection graph and spanning trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntersectionGraph:
    """Factor-overlap graph of a transversal ideal: vertex k is the k-th
    prime factor, and {k, l} is an edge when the variable sets intersect."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def component_count(self) -> int:
        return _component_count(self.num_vertices, self.edges)

    @property
    def is_connected(self) -> bool:
        return self.component_count() <= 1


def intersection_graph(spec: TransversalSpec) -> IntersectionGraph:
    """Build the factor-overlap graph.  When the sets do not cover all
    ambient variables (``spec.covers_variables`` is false) it describes only
    the restriction to the ones they cover."""
    edges = []
    for k in range(1, spec.t + 1):
        for l in range(k + 1, spec.t + 1):
            if spec.sets[k - 1] & spec.sets[l - 1]:
                edges.append((k, l))
    return IntersectionGraph(spec.t, tuple(edges))


def _component_count(num_vertices: int, edges) -> int:
    """Connected components of the graph on 1..num_vertices, by union-find."""
    parent = list(range(num_vertices + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = num_vertices
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def spanning_trees(graph: IntersectionGraph) -> Iterator[tuple[int, ...]]:
    """Yield every spanning tree as a tuple of edge indices, at most
    SPANNING_TREE_CAP of them."""
    t = graph.num_vertices
    count = 0
    for picked in itertools.combinations(range(len(graph.edges)), t - 1):
        # t - 1 edges span the t vertices exactly when they form a tree
        if _component_count(t, [graph.edges[i] for i in picked]) == 1:
            count += 1
            if count > SPANNING_TREE_CAP:
                raise ResourceCapError(f"more than {SPANNING_TREE_CAP} spanning trees")
            yield picked


def spanning_tree_socle(spec: TransversalSpec) -> MonomialIdeal:
    """Candidate socle of a transversal ideal from its spanning trees.

    For each spanning tree of the intersection graph, every product of one
    variable per tree edge (chosen in the overlap of the edge's two factor
    sets) lies in the socle; the candidates from all trees are collected and
    minimalized.  Whether they exhaust the socle is exactly what the fuzzing
    lab records per instance.
    """
    graph = intersection_graph(spec)
    n = spec.n
    if not graph.is_connected:
        return MonomialIdeal(n)
    out = []
    seen: set[tuple[int, ...]] = set()
    for tree in spanning_trees(graph):
        overlaps = []
        for idx in tree:
            a, b = graph.edges[idx]
            overlaps.append(sorted(spec.sets[a - 1] & spec.sets[b - 1]))
        for choice in itertools.product(*overlaps):
            exps = [0] * n
            for var in choice:
                exps[var - 1] += 1
            key = tuple(exps)
            if key not in seen:
                seen.add(key)
                out.append(Monomial(key))
    return MonomialIdeal(n, out)


# ---------------------------------------------------------------------------
# family closed forms
# ---------------------------------------------------------------------------


def family_socle(spec: FamilySpec) -> MonomialIdeal:
    """Closed-form socle for the families that have one.

    Supported: veronese, basic PLP, borel and LP specs and their powers,
    one formula over their windows.  A zeroth power of any spec is the unit
    ideal, whose zero window gives the zero socle.  Anything else raises
    UnsupportedFamilyError, pointing to the direct colon route.  Families
    without maximal projective dimension realize to the zero ideal here,
    matching the colon.
    """
    _require_variables(spec.n)
    windows = plp_windows(spec)
    if windows is None:
        raise UnsupportedFamilyError(
            f"no closed-form socle for family tag {spec.tag!r}; use socle_colon"
        )
    if any(any(lower) for lower, _, _, _ in windows):
        raise UnsupportedFamilyError(
            "closed-form socle covers basic PLP types only; use socle_colon"
        )
    if len(windows) > 1:
        closure = _realize_windows(spec.n, windows)
        if not closure.is_equigenerated:
            raise DegreeMismatchError(
                "socle of a non-equigenerated stable ideal is undefined"
            )
        # a window of higher degree only adds non-minimal monomials
        d = closure.generation_degree
        windows = [w for w in windows if w[2][-1] == d]
    # the socle type (upper - 1 | alpha - e_n, beta - 1)
    shifted = [
        (lower, [x - 1 for x in upper], [*alpha[:-1], alpha[-1] - 1], [x - 1 for x in beta])
        for lower, upper, alpha, beta in windows
    ]
    return _realize_windows(spec.n, shifted)
