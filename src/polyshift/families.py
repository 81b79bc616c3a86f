"""Constructors and exchange-property classifiers for polymatroidal families.

The constructible families: Veronese-type ideals (degree-d monomials with
componentwise exponent bounds), principal and multi-generator Borel ideals
(strongly stable closures), PLP ideals (bound vectors plus prefix-sum
windows), LP ideals (products of interval primes), transversal ideals
(products of arbitrary monomial primes), and products / powers / explicit
generator lists.  Every realized family is polymatroidal, which the random
generator asserts on each draw (a fuzz campaign, once per distinct
supported ideal).

Veronese, PLP, Borel and LP specs and their powers are the union of the
prefix-sum windows ``plp_windows`` reads off them (a Borel spec has one per
generator), and ``realize`` and the socle closed form go through that view;
only products and the powers of the other specs are formed by ideal
products.  An LP spec also reads as the transversal ideal of its intervals
(``as_transversal``), which the intersection graph and the spanning trees
take.

The stability test and ``borel_generators`` read the moves toward smaller
indices off :func:`~polyshift.monomials.exchange_moves`; ``check_exchange``
forms only the moves that can rescue a failure.
"""

from __future__ import annotations

import itertools
import operator
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import FamilySpecError, ResourceCapError, ZeroIdealError
from .monomials import (
    GENERATOR_CAP,
    Monomial,
    MonomialIdeal,
    check_variable_count,
    coordinate_bitsets,
    exchange_moves,
    ideal_power,
    ideal_product,
)


# ---------------------------------------------------------------------------
# family specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VeroneseSpec:
    """All degree-d monomials with exponents bounded componentwise by b."""

    bounds: tuple[int, ...]
    degree: int
    tag = "veronese"

    def __post_init__(self):
        if self.degree < 0:
            raise FamilySpecError("veronese degree must be nonnegative")
        if any(b < 0 for b in self.bounds):
            raise FamilySpecError("veronese bounds must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class BorelSpec:
    """Smallest strongly stable ideal containing the given generators."""

    generators: tuple[Monomial, ...]
    n: int
    tag = "borel"

    def __post_init__(self):
        if not self.generators:
            raise FamilySpecError("borel spec needs at least one generator")
        for g in self.generators:
            if len(g.exponents) != self.n:
                raise FamilySpecError("borel generator in the wrong ring")


@dataclass(frozen=True)
class PLPSpec:
    """Monomials c with lower <= c <= upper and alpha_i <= c_1+...+c_i <= beta_i.

    The window sequences are nondecreasing and end at the common generator
    degree: alpha_n = beta_n = d >= 1.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    tag = "plp"

    def __post_init__(self):
        n = len(self.upper)
        if n == 0 or not (len(self.lower) == len(self.alpha) == len(self.beta) == n):
            raise FamilySpecError("plp vectors must be nonempty and share one length")
        if any(a < 0 for a in self.lower) or any(
            lo > hi for lo, hi in zip(self.lower, self.upper)
        ):
            raise FamilySpecError("plp needs 0 <= lower <= upper componentwise")
        if any(x > y for x, y in zip(self.alpha, self.beta)):
            raise FamilySpecError("plp needs alpha <= beta componentwise")
        if list(self.alpha) != sorted(self.alpha) or list(self.beta) != sorted(self.beta):
            raise FamilySpecError("plp window sequences must be nondecreasing")
        if self.alpha[-1] != self.beta[-1] or self.alpha[-1] < 1:
            raise FamilySpecError("plp windows must close at the degree: alpha_n = beta_n = d >= 1")

    @property
    def n(self) -> int:
        return len(self.upper)


@dataclass(frozen=True)
class LPSpec:
    """Product of interval primes p_[alpha_i, beta_i]."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    n: int
    tag = "lp"

    def __post_init__(self):
        t = len(self.alpha)
        if len(self.beta) != t or t == 0:
            raise FamilySpecError("lp needs matching nonempty alpha and beta")
        if list(self.alpha) != sorted(self.alpha) or list(self.beta) != sorted(self.beta):
            raise FamilySpecError("lp interval endpoints must be nondecreasing")
        if any(a < 1 or a > b for a, b in zip(self.alpha, self.beta)):
            raise FamilySpecError("lp needs 1 <= alpha_i <= beta_i")
        if self.beta[-1] > self.n:
            raise FamilySpecError("lp interval exceeds the ambient variable count")

    @property
    def t(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class TransversalSpec:
    """Product of the monomial primes p_A over the listed variable sets."""

    sets: tuple[frozenset[int], ...]
    n: int
    tag = "transversal"

    def __post_init__(self):
        if not self.sets:
            raise FamilySpecError("transversal spec needs at least one set")
        for A in self.sets:
            if not A:
                raise FamilySpecError("transversal sets must be nonempty")
            if any(i < 1 or i > self.n for i in A):
                raise FamilySpecError("transversal set index out of range")

    @property
    def t(self) -> int:
        return len(self.sets)

    @property
    def covers_variables(self) -> bool:
        """Whether the sets together cover all n ambient variables."""
        return set().union(*self.sets) == set(range(1, self.n + 1))


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple["FamilySpec", ...]
    tag = "product"

    def __post_init__(self):
        if len(self.factors) < 2:
            raise FamilySpecError("product spec needs at least two factors")

    @property
    def n(self) -> int:
        return self.factors[0].n


@dataclass(frozen=True)
class PowerSpec:
    base: "FamilySpec"
    exponent: int
    tag = "power"

    def __post_init__(self):
        if self.exponent < 0:
            raise FamilySpecError("power exponent must be nonnegative")

    @property
    def n(self) -> int:
        return self.base.n


@dataclass(frozen=True)
class ExplicitSpec:
    ideal: MonomialIdeal
    tag = "explicit"

    @property
    def n(self) -> int:
        return self.ideal.n


FamilySpec = Union[
    VeroneseSpec,
    BorelSpec,
    PLPSpec,
    LPSpec,
    TransversalSpec,
    ProductSpec,
    PowerSpec,
    ExplicitSpec,
]


def as_transversal(spec: FamilySpec) -> Optional[TransversalSpec]:
    """The spec as a product of primes over variable sets, when it is one:
    a transversal spec itself, or an LP spec with its intervals as sets."""
    if isinstance(spec, TransversalSpec):
        return spec
    if isinstance(spec, LPSpec):
        sets = tuple(
            frozenset(range(a, b + 1)) for a, b in zip(spec.alpha, spec.beta)
        )
        return TransversalSpec(sets, spec.n)
    return None


Window = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _borel_window(u: Monomial) -> Window:
    """B(u) is every monomial of degree d = deg u whose prefix sums dominate
    those of u: the window (0 | d, prefix sums of u, d)."""
    d, n = u.degree, u.n
    return (0,) * n, (d,) * n, tuple(itertools.accumulate(u.exponents)), (d,) * n


def _unwrap_power(spec: FamilySpec) -> tuple[int, FamilySpec]:
    """The total exponent k and the innermost base of nested powers."""
    k = 1
    while isinstance(spec, PowerSpec):
        k *= spec.exponent
        spec = spec.base
    return k, spec


def plp_windows(spec: FamilySpec) -> Optional[list[Window]]:
    """The windows (lower, upper, alpha, beta) whose monomials generate the
    spec's ideal, when it has them: [own] for a PLP spec, [tight] for a
    Veronese type (b, d), which is (0 | b, alpha, d) with alpha_i =
    max(0, d - b_{i+1} - ... - b_n), or [] when no monomial fits, and one
    per generator of a Borel spec.

    An LP spec with t intervals is (0 | t, alpha', beta') with alpha'_k =
    #{i : beta_i <= k} and beta'_k = #{i : alpha_i <= k}.  These bounds are
    necessary: a factor with beta_i <= k must use a variable <= k, and one
    with alpha_i > k cannot.  They are sufficient because the endpoints are
    nondecreasing: give the sorted variables of c to the intervals in order.

    The k-th power of a one-window spec is the ideal of its polymatroid
    scaled by k (Herzog-Hibi, Discrete polymatroids, 2002), the window
    scaled by k; that of a Borel spec with several generators has one window
    per generator of their k-th power, as B(u)B(v) = B(uv).  The zeroth
    power of any spec is the zero window.

    Plain tuples, not PLPSpecs, so no spec validation can fail here."""
    k, spec = _unwrap_power(spec)
    n = spec.n
    if k == 0:
        return [((0,) * n,) * 4]  # the unit ideal
    if isinstance(spec, BorelSpec):
        gens = spec.generators
        if k > 1 and len(gens) > 1:
            gens = ideal_power(MonomialIdeal(n, gens), k).gens
            return [_borel_window(u) for u in gens]
        windows = [_borel_window(u) for u in gens]
    elif isinstance(spec, PLPSpec):
        windows = [(spec.lower, spec.upper, spec.alpha, spec.beta)]
    elif isinstance(spec, VeroneseSpec):
        d = spec.degree
        if sum(min(b, d) for b in spec.bounds) < d:
            return []  # with no variables the window would give the unit
        alpha = []
        rest = sum(spec.bounds)
        for b in spec.bounds:
            rest -= b
            alpha.append(max(0, d - rest))
        windows = [((0,) * n, spec.bounds, tuple(alpha), (d,) * n)]
    elif isinstance(spec, LPSpec):
        alpha = tuple(bisect_right(spec.beta, i) for i in range(1, n + 1))
        beta = tuple(bisect_right(spec.alpha, i) for i in range(1, n + 1))
        windows = [((0,) * n, (spec.t,) * n, alpha, beta)]
    else:
        return None
    return [tuple(tuple(k * x for x in v) for v in w) for w in windows]


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


def _windows_into(out: dict, lower, upper, alphas, beta) -> None:
    """Add to out, as keys, the exponent vectors of the union of the windows
    (lower, upper, alpha, beta) over alpha in alphas, each formed once.
    Raises ResourceCapError before out would pass GENERATOR_CAP keys.

    A backward pass finds, for each window and after each coordinate, the
    interval of prefix sums from which the later coordinates can still be
    completed; the upper ends do not depend on alpha, so the windows share
    them.  The search carries the bitset of windows whose intervals the
    prefix has stayed in, and a coordinate ranges down from the shared upper
    end until that bitset empties.  So no branch dies, each vector is
    reached once however much the windows overlap, and a step costs a
    comparison, or a bisection and a bitset AND where it passes below the
    start of a window's interval."""
    lower, upper = list(lower), list(upper)
    n = len(upper)
    if any(map(operator.gt, lower, upper)):
        return
    # the sequences gain a 0th entry 0: the empty prefix sums to 0
    beta = (0, *beta)
    his = [beta[-1]]  # his[i]: the largest completable prefix sum after i coordinates
    for i in range(n - 1, -1, -1):
        his.append(min(his[-1] - lower[i], beta[i]))
    his.reverse()
    rows = []  # per window, the smallest completable prefix sum after each coordinate
    for alpha in dict.fromkeys((0, *a) for a in alphas):
        if alpha[-1] != beta[-1]:
            continue
        los = [alpha[-1]]
        for i in range(n - 1, -1, -1):
            los.append(max(los[-1] - upper[i], alpha[i]))
        los.reverse()
        if all(map(operator.le, los, his)):
            rows.append(los)
    # reach[i]: the windows' smallest sums after i coordinates, ascending, and
    # the running bitsets of the windows up to each
    reach = []
    for col in zip(*rows):
        order = sorted(range(len(col)), key=col.__getitem__)
        masks = itertools.accumulate([1 << w for w in order], operator.or_)
        reach.append(([col[w] for w in order], list(masks)))
    prefix: list[int] = []

    def rec(i: int, total: int, alive: int):
        if i == n:
            c = tuple(prefix)
            if c not in out:
                if len(out) == GENERATOR_CAP:
                    raise ResourceCapError(
                        f"windowed realization exceeds the cap of {GENERATOR_CAP} generators"
                    )
                out[c] = None
            return
        lows, masks = reach[i + 1]
        top, bottom = min(upper[i], his[i + 1] - total), max(lower[i], lows[0] - total)
        k, still = len(lows) - 1, alive
        for c in range(top, bottom - 1, -1):
            if total + c < lows[k]:  # c passed below a window's start
                k = bisect_right(lows, total + c) - 1
                still = alive & masks[k]
            if not still:
                break
            prefix.append(c)
            rec(i + 1, total + c, still)
            prefix.pop()

    if rows:
        rec(0, 0, (1 << len(rows)) - 1)


def _window_exponents(windows: Iterable[Window]) -> dict[tuple[int, ...], None]:
    """The exponent vectors of the monomials of all the windows, as keys,
    each formed once: the windows that share lower, upper and beta are
    searched together.  An infeasible window (an upper bound below its lower
    bound, or prefix sums no vector can meet) adds nothing, which the socle
    closed forms rely on.  Raises ResourceCapError once the windows would
    form more than GENERATOR_CAP distinct vectors."""
    groups: dict[tuple, list] = {}
    for lower, upper, alpha, beta in windows:
        groups.setdefault((tuple(lower), tuple(upper), tuple(beta)), []).append(alpha)
    formed: dict[tuple[int, ...], None] = {}
    for (lower, upper, beta), alphas in groups.items():
        _windows_into(formed, lower, upper, alphas, beta)
    return formed


def _realize_windows(n: int, windows: Iterable[Window]) -> MonomialIdeal:
    """The ideal generated by the monomials of all the windows
    (``_window_exponents``)."""
    return MonomialIdeal(n, map(Monomial, _window_exponents(windows)))


def prime_ideal(indices: Iterable[int], n: int) -> MonomialIdeal:
    """The monomial prime generated by the variables with the given indices."""
    return MonomialIdeal(n, [Monomial.variable(i, n) for i in sorted(set(indices))])


def realize(spec: FamilySpec) -> MonomialIdeal:
    """Minimal generating set of the ideal a family spec describes."""
    windows = plp_windows(spec)
    if windows is not None:
        return _realize_windows(spec.n, windows)
    if isinstance(spec, TransversalSpec):
        result = prime_ideal(spec.sets[0], spec.n)
        for A in spec.sets[1:]:
            result = ideal_product(result, prime_ideal(A, spec.n))
        return result
    if isinstance(spec, ProductSpec):
        result = realize(spec.factors[0])
        for f in spec.factors[1:]:
            result = ideal_product(result, realize(f))
        return result
    if isinstance(spec, PowerSpec):
        return ideal_power(realize(spec.base), spec.exponent)
    if isinstance(spec, ExplicitSpec):
        return spec.ideal
    raise FamilySpecError(f"unknown family spec {spec!r}")


# ---------------------------------------------------------------------------
# strongly stable ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityResult:
    holds: bool
    witness: Optional[tuple[Monomial, int, int]] = None  # (u, i, j): x_j(u/x_i) missing

    def __bool__(self) -> bool:
        return self.holds


def is_strongly_stable(I: MonomialIdeal) -> StabilityResult:
    """Whether every move x_j(u/x_i), j < i, lands back in the ideal.

    Each of the :func:`exchange_moves` with j < i is looked up among the
    generators; only a move that is not a generator is tested for
    membership, which in an equigenerated ideal happens at most once."""
    if I.is_zero:
        raise ZeroIdealError("stability is undefined for the zero ideal")
    gset = I.exponent_set
    for u in I.gens:
        for i, j, move in exchange_moves(u):
            if j < i and move not in gset and not I.contains(Monomial(move)):
                return StabilityResult(False, (u, i + 1, j + 1))
    return StabilityResult(True)


def borel_generators(I: MonomialIdeal) -> tuple[Monomial, ...]:
    """The unique smallest generator set whose closure is the stable ideal I:
    the generators that no stability move of another generator produces."""
    from .errors import NotStronglyStableError

    if not is_strongly_stable(I).holds:
        raise NotStronglyStableError("ideal is not strongly stable")
    produced = {move for u in I.gens for i, j, move in exchange_moves(u) if j < i}
    return tuple(u for u in I.gens if u.exponents not in produced)


# ---------------------------------------------------------------------------
# exchange properties
# ---------------------------------------------------------------------------


EXCHANGE_MODES = ("exchange", "strong")


@dataclass(frozen=True)
class ExchangeResult:
    holds: bool
    witness: Optional[tuple] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.holds


def check_exchange(I: MonomialIdeal, mode: str = "exchange") -> ExchangeResult:
    """Decide the exchange property of the generator set.

    ``exchange`` decides polymatroidality; ``strong`` tests the stronger
    variant.  Witnesses: (u, v, i) for exchange, (u, v, i, j) for strong;
    each is the first failure in the order u, v (both in generator order),
    i, j.  Non-equigenerated input fails with a reason instead of raising,
    so fuzz pipelines keep going.

    No generator pair is scanned.  A set of generators is a Python int with
    bit b standing for ``gens[b]``, and for each coordinate k and exponent t
    that occurs there, two such bitsets hold the v with v_k < t and the v
    with v_k > t.  For each u the moves u - e_i + e_j are looked up in the
    generator set, and the v failing the exchange at (u, i) are those with
    v_i < u_i that exceed u in no coordinate j of a move u - e_i + e_j in G;
    the strong failures are read off the same bitsets.  The
    cost is O(m n^2) lookups and operations on m-bit ints, against O(m^2 n)
    for a scan of the generator pairs.

    Only the moves with i among the ups and j among the downs can rescue a
    failure, so they are formed here: taking every move from
    :func:`exchange_moves` nearly doubled these checks' time in fuzz runs.
    """
    if mode not in EXCHANGE_MODES:
        raise ValueError(f"unknown exchange mode {mode!r}")
    if I.is_zero:
        raise ZeroIdealError("exchange properties are undefined for the zero ideal")
    if not I.is_equigenerated:
        return ExchangeResult(False, None, "not equigenerated")
    gens = I.gens
    if len(gens) == 1:
        return ExchangeResult(True)
    gset = I.exponent_set
    exps = [g.exponents for g in gens]
    # the coordinates on which the generators differ; on the others no v is
    # below or above u
    tables = [(k, t) for k, t in enumerate(coordinate_bitsets(exps)) if len(t) > 1]
    for u, ue in zip(gens, exps):
        ups = []  # (i, the v with v_i < u_i), ascending in i
        downs = []  # (j, the v with v_j > u_j), ascending in j
        for k, table in tables:
            lower, _, higher = table[ue[k]]
            if lower:
                ups.append((k, lower))
            if higher:
                downs.append((k, higher))
        failing = []  # (witness key, failing v), keys in ascending order
        moved = list(ue)
        for i, lower in ups:
            moved[i] -= 1
            rescue = 0  # exchange: v with a down j for this i
            for j, higher in downs:
                if j != i:
                    moved[j] += 1
                    if tuple(moved) in gset:
                        rescue |= higher
                    elif mode == "strong":
                        failing.append(((i + 1, j + 1), lower & higher))
                    moved[j] -= 1
            moved[i] += 1
            if mode == "exchange":
                failing.append(((i + 1,), lower & ~rescue))
        union = 0
        for _, mask in failing:
            union |= mask
        if union:
            b = (union & -union).bit_length() - 1
            key = next(key for key, mask in failing if mask >> b & 1)
            return ExchangeResult(False, (u, gens[b]) + key)
    return ExchangeResult(True)


def is_polymatroidal(I: MonomialIdeal) -> bool:
    return check_exchange(I, "exchange").holds


def is_matroidal(I: MonomialIdeal) -> bool:
    return I.is_squarefree and is_polymatroidal(I)


def veronese_shift(spec: VeroneseSpec, level: int) -> MonomialIdeal:
    """Closed form for the level-th shift ideal of a Veronese-type ideal:
    the monomials of degree d + level under the same bounds whose support
    has more than level variables, taken off the raised spec's window, so
    one ideal is built."""
    if level < 0:
        raise ValueError("shift level must be nonnegative")
    raised = plp_windows(VeroneseSpec(spec.bounds, spec.degree + level))
    kept = [e for e in _window_exponents(raised) if len(e) - e.count(0) > level]
    return MonomialIdeal(spec.n, map(Monomial, kept))


# ---------------------------------------------------------------------------
# random instances for the fuzzing lab
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenBudget:
    n_max: int = 6
    degree_max: int = 6
    gen_max: int = 200

    def __post_init__(self):
        if self.n_max < 2 or self.degree_max < 1 or self.gen_max < 1:
            raise FamilySpecError(
                "generation budget needs n_max >= 2, degree_max >= 1 and gen_max >= 1"
            )
        check_variable_count(self.n_max)


def _draw_spec(rng: random.Random, budget: GenBudget, n: int, deg: int, depth: int) -> FamilySpec:
    tags = ["veronese", "sqfree", "borel", "lp", "plp", "transversal"]
    weights = [3, 2, 2, 2, 2, 3]
    if depth == 0 and deg >= 2:
        tags += ["product", "power"]
        weights += [2, 1]
    tag = rng.choices(tags, weights)[0]
    if tag == "product":
        d1 = rng.randint(1, deg - 1)
        return ProductSpec(
            (
                _draw_spec(rng, budget, n, d1, depth + 1),
                _draw_spec(rng, budget, n, deg - d1, depth + 1),
            )
        )
    if tag == "power":
        k = rng.randint(2, max(2, min(3, deg)))
        base_deg = max(1, deg // k)
        return PowerSpec(_draw_spec(rng, budget, n, base_deg, depth + 1), k)
    if tag == "veronese":
        bounds = [rng.randint(0, deg) if rng.random() < 0.3 else rng.randint(1, deg) for _ in range(n)]
        while sum(min(b, deg) for b in bounds) < deg:
            i = rng.randrange(n)
            bounds[i] = min(deg, bounds[i] + 1)
        return VeroneseSpec(tuple(bounds), deg)
    if tag == "sqfree":
        d = min(deg, n)
        return VeroneseSpec((1,) * n, d)
    if tag == "borel":
        # only principal stable closures are polymatroidal in general
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        return BorelSpec((Monomial(tuple(exps)),), n)
    if tag == "lp":
        tmax = min(4, deg)
        t = rng.choices(range(1, tmax + 1), weights=range(1, tmax + 1))[0]
        alpha = sorted(rng.randint(1, n) for _ in range(t))
        beta = []
        running = 0
        for a in alpha:
            b = rng.randint(a, n)
            running = max(running, b)
            beta.append(running)
        return LPSpec(tuple(alpha), tuple(beta), n)
    if tag == "transversal":
        tmax = min(4, deg)
        t = rng.choices(range(1, tmax + 1), weights=range(1, tmax + 1))[0]
        sets = []
        for _ in range(t):
            size = rng.randint(1, n)
            sets.append(frozenset(rng.sample(range(1, n + 1), size)))
        return TransversalSpec(tuple(sets), n)
    # plp: draw windows around a random feasible exponent path
    upper = [rng.randint(0, deg) for _ in range(n)]
    while sum(upper) < deg:
        upper[rng.randrange(n)] += 1
    path = []
    remaining = deg
    for i in range(n):
        hi = min(upper[i], remaining)
        lo = max(0, remaining - sum(upper[i + 1 :]))
        c = rng.randint(lo, hi)
        path.append(c)
        remaining -= c
    prefixes = []
    total = 0
    for c in path:
        total += c
        prefixes.append(total)
    alpha = [max(0, p - rng.randint(0, deg)) for p in prefixes]
    beta = [min(deg, p + rng.randint(0, deg)) for p in prefixes]
    for i in range(1, n):
        alpha[i] = max(alpha[i], alpha[i - 1])
    for i in range(n - 2, -1, -1):
        beta[i] = min(beta[i], beta[i + 1])
    alpha[-1] = beta[-1] = deg
    for i in range(n - 1):
        alpha[i] = min(alpha[i], deg)
        beta[i] = min(beta[i], deg)
    return PLPSpec((0,) * n, tuple(upper), tuple(alpha), tuple(beta))


DRAW_ATTEMPTS = 400


def _draw(seed: int, budget: GenBudget) -> tuple[FamilySpec, MonomialIdeal]:
    """The draw of ``random_polymatroidal`` without its assertion: retry
    until the realization is a nonzero, non-unit ideal within the generator
    cap, at most DRAW_ATTEMPTS times."""
    rng = random.Random(seed)
    degrees = list(range(1, budget.degree_max + 1))
    for _ in range(DRAW_ATTEMPTS):
        n = rng.randint(2, budget.n_max)
        deg = rng.choices(degrees, weights=degrees)[0]
        try:
            spec = _draw_spec(rng, budget, n, deg, 0)
            ideal = realize(spec)
        except (FamilySpecError, ResourceCapError):
            continue
        if ideal.is_zero or ideal.is_unit or ideal.num_gens > budget.gen_max:
            continue
        return spec, ideal
    raise ResourceCapError(
        f"no polymatroidal instance found for seed {seed} within {DRAW_ATTEMPTS} attempts"
    )


def _assert_polymatroidal(spec: FamilySpec, ideal: MonomialIdeal) -> None:
    """Refuse a realization of spec that is not polymatroidal, by an explicit
    raise that ``python -O`` keeps.  ``ideal`` may also be the realization
    restricted to its support, which has the exchange property exactly when
    the realization has."""
    if not check_exchange(ideal, "exchange").holds:
        raise AssertionError(f"family realization is not polymatroidal: {spec!r}")


def random_polymatroidal(
    seed: int, budget: GenBudget = GenBudget()
) -> tuple[FamilySpec, MonomialIdeal]:
    """Deterministically draw one random polymatroidal ideal.

    Composes the family constructors (with occasional products and powers)
    under the budget, retrying until the realization is a nonzero, non-unit
    ideal within the generator cap, at most DRAW_ATTEMPTS times.  The exchange
    property of the output is asserted, not assumed.  A fuzz campaign draws
    without the assertion and asserts it once per distinct supported ideal
    instead (``fuzzlab.run_campaign``), since the draws repeat those often.
    """
    spec, ideal = _draw(seed, budget)
    _assert_polymatroidal(spec, ideal)
    return spec, ideal
