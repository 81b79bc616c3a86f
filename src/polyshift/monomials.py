"""Exact arithmetic for monomials and monomial ideals.

Monomials are exponent vectors over a fixed variable set x1..xn (variable
indices are 1-based throughout, matching the usual algebraic notation).
A :class:`MonomialIdeal` always stores its unique minimal generating set,
sorted in descending lexicographic order, so equal ideals compare equal and
all printed output is bit-stable.

Everything in this module is immutable and every operation is a pure
function; values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegreeMismatchError,
    DimensionMismatchError,
    ResourceCapError,
)

_EXPONENT_LIMIT = 2**31
# generator pairs one ideal product may form
PRODUCT_CAP = 1_000_000
# distinct generators one family realization may form
GENERATOR_CAP = 100_000
# variables an input may declare or imply; the window search of a family
# realization recurses once per variable
VARIABLE_CAP = 500


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial x1^a1 * ... * xn^an stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        for e in self.exponents:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be nonnegative integers, got {e!r}")
            if e > _EXPONENT_LIMIT:
                raise OverflowError(f"exponent {e} exceeds the supported range")

    @classmethod
    def unit(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def variable(cls, i: int, n: int) -> "Monomial":
        """The monomial x_i in n variables (i is 1-based)."""
        return cls.from_support((i,), n)

    @classmethod
    def from_support(cls, indices: Iterable[int], n: int) -> "Monomial":
        """The squarefree monomial whose support is the given index set."""
        exps = [0] * n
        for i in indices:
            exps[_position(i, n)] = 1
        return cls(tuple(exps))

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, e in enumerate(self.exponents) if e > 0)

    @property
    def max_var(self) -> int:
        """Largest variable index dividing the monomial; 0 for the unit."""
        for i in range(len(self.exponents) - 1, -1, -1):
            if self.exponents[i] > 0:
                return i + 1
        return 0

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_same_ring(self, other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact division; raises if ``other`` does not divide ``self``."""
        _check_same_ring(self, other)
        diff = tuple(a - b for a, b in zip(self.exponents, other.exponents))
        if any(d < 0 for d in diff):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(diff)

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative powers are not monomials")
        return Monomial(tuple(e * k for e in self.exponents))

    def __str__(self) -> str:
        return "*".join([_term(i, e) for i, e in enumerate(self.exponents, 1) if e]) or "1"

    def __repr__(self) -> str:
        return f"Monomial({self.exponents!r})"


def _term(i: int, e: int) -> str:
    """The factor x_i^e, e >= 1, as a monomial's string writes it: ``x3``
    or ``x3^2``.  The factors of the nonzero exponents, joined by ``*``,
    make the string; the unit is ``1``."""
    return f"x{i}" if e == 1 else f"x{i}^{e}"


def _position(i: int, n: int) -> int:
    """The 0-based position of the variable x_i among x1..xn."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    return i - 1


def _check_same_ring(u: Monomial, v: Monomial) -> None:
    if len(u.exponents) != len(v.exponents):
        raise DimensionMismatchError(
            f"monomials live in different rings ({len(u.exponents)} vs {len(v.exponents)} variables)"
        )


def distance(u: Monomial, v: Monomial) -> int:
    """Half the l1-distance between the exponent vectors of two equal-degree
    monomials.  One unit of distance is one single-variable exchange."""
    _check_same_ring(u, v)
    if u.degree != v.degree:
        raise DegreeMismatchError(
            f"distance is defined only for equal degrees ({u.degree} vs {v.degree})"
        )
    total = sum(abs(a - b) for a, b in zip(u.exponents, v.exponents))
    return total // 2


def exchange_moves(u: Monomial) -> list[tuple[int, int, tuple[int, ...]]]:
    """The single-variable exchange moves of u, as (i, j, u - e_i + e_j)
    with 0-based i and j and the move an exponent tuple: every i with
    u_i > 0 and every j != i, i ascending, then j ascending.  No Monomial is
    built; callers look the moves up among generator exponents."""
    out = []
    moved = list(u.exponents)
    for i, e in enumerate(u.exponents):
        if e:
            moved[i] -= 1
            for j in range(len(moved)):
                if j != i:
                    moved[j] += 1
                    out.append((i, j, tuple(moved)))
                    moved[j] -= 1
            moved[i] += 1
    return out


def check_variable_count(n: int) -> int:
    """``n`` when it is at most VARIABLE_CAP; ResourceCapError otherwise, so
    an input is refused before anything n long is built."""
    if n > VARIABLE_CAP:
        raise ResourceCapError(f"{n} variables exceed the cap of {VARIABLE_CAP}")
    return n


def coordinate_bitsets(rows: Sequence[tuple[int, ...]]) -> list[dict]:
    """Per coordinate, a map from each value t that occurs there to three
    bitsets over the rows, row r being bit r: (the rows below t, the rows at
    t, the rows above t).  The three partition the rows."""
    everyone = (1 << len(rows)) - 1
    tables = []
    for column in zip(*rows):
        at: dict[int, int] = {}
        for r, t in enumerate(column):
            at[t] = at.get(t, 0) | 1 << r
        below = 0
        table = {}
        for t in sorted(at):
            table[t] = (below, at[t], everyone ^ below ^ at[t])
            below |= at[t]
        tables.append(table)
    return tables


@dataclass(frozen=True, slots=True)
class VariableOrder:
    """A total order on the variables, x_{chain[0]} > x_{chain[1]} > ...

    ``chain`` lists the 1-based variable indices from greatest to least.
    """

    chain: tuple[int, ...]

    def __post_init__(self):
        n = len(self.chain)
        if sorted(self.chain) != list(range(1, n + 1)):
            raise ValueError(f"{self.chain!r} is not a permutation of 1..{n}")

    @classmethod
    def identity(cls, n: int) -> "VariableOrder":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.chain)

    @property
    def least(self) -> int:
        return self.chain[-1]

    def key(self, u: Monomial):
        """Sort key for descending-lexicographic comparison under this order."""
        return tuple(u.exponents[i - 1] for i in self.chain)

    def __str__(self) -> str:
        return ">".join(f"x{i}" for i in self.chain)


class MonomialIdeal:
    """A monomial ideal, stored by its minimal generating set.

    The constructor canonicalizes: duplicates and non-minimal generators are
    dropped and the survivors are sorted descending-lexicographically (under
    the identity variable order).  The zero ideal has no generators; the unit
    ideal has the single generator 1.  They are distinct values.
    """

    __slots__ = ("n", "gens", "_expset", "_degrees")

    def __init__(self, n: int, monomials: Iterable[Monomial] = ()):
        mons = list(monomials)
        for m in mons:
            if len(m.exponents) != n:
                raise DimensionMismatchError(
                    f"generator {m} has {len(m.exponents)} variables, expected {n}"
                )
        self.n = n
        self.gens = tuple(_minimalize(mons))
        self._expset: Optional[frozenset[tuple[int, ...]]] = None
        self._degrees: Optional[frozenset[int]] = None

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit

    @property
    def num_gens(self) -> int:
        return len(self.gens)

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    @property
    def is_equigenerated(self) -> bool:
        if self._degrees is None:  # the generators' degrees, formed on first use
            self._degrees = frozenset(g.degree for g in self.gens)
        return len(self._degrees) <= 1

    @property
    def generation_degree(self) -> int:
        """Common degree of the generators; raises unless equigenerated."""
        if not (self.is_equigenerated and self.gens):
            raise DegreeMismatchError(
                f"ideal is not equigenerated (degrees {sorted(self._degrees)})"
            )
        return self.gens[0].degree

    @property
    def support(self) -> tuple[int, ...]:
        columns = zip(*(g.exponents for g in self.gens))
        return tuple(i + 1 for i, column in enumerate(columns) if any(column))

    @property
    def exponent_set(self) -> frozenset[tuple[int, ...]]:
        """Frozen set of generator exponent vectors, for O(1) generator tests."""
        if self._expset is None:
            self._expset = frozenset(g.exponents for g in self.gens)
        return self._expset

    def contains(self, u: Monomial) -> bool:
        """Ideal membership: some minimal generator divides u."""
        ue = u.exponents
        for g in self.gens:
            ge = g.exponents
            if all(a <= b for a, b in zip(ge, ue)):
                return True
        return False

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self.gens)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, gens={[str(g) for g in self.gens]})"


def _minimalize(mons: list[Monomial]) -> list[Monomial]:
    """Antichain of the divisibility-minimal elements, canonically sorted."""
    by_degree: dict[int, list[Monomial]] = {}
    for m in set(mons):
        by_degree.setdefault(sum(m.exponents), []).append(m)
    degrees = sorted(by_degree)
    kept = by_degree[degrees[0]] if degrees else []
    for d in degrees[1:]:
        # a candidate can only be a multiple of a generator of lower degree
        below = [g.exponents for g in kept]
        kept += [
            m
            for m in by_degree[d]
            if not any(all(a <= b for a, b in zip(ge, m.exponents)) for ge in below)
        ]
    return sorted(kept, key=attrgetter("exponents"), reverse=True)


def minimal_generators(
    monomials: Iterable[Monomial], n: Optional[int] = None
) -> MonomialIdeal:
    """Canonicalize a generator list to the minimal generating set G(I)."""
    mons = list(monomials)
    if n is None:
        if not mons:
            raise ValueError("ambient variable count is required for an empty list")
        n = len(mons[0].exponents)
    return MonomialIdeal(n, mons)


def ideal_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Product ideal, minimalized.  The product with the unit ideal is the
    identity; any product with the zero ideal is zero.  Raises
    ResourceCapError, before forming any, when there are more than
    PRODUCT_CAP generator pairs."""
    if I.n != J.n:
        raise DimensionMismatchError(f"ambient mismatch: {I.n} vs {J.n}")
    if I.num_gens * J.num_gens > PRODUCT_CAP:
        raise ResourceCapError(
            f"ideal product of {I.num_gens} by {J.num_gens} generators exceeds "
            f"the cap of {PRODUCT_CAP} pairs"
        )
    if I.is_zero or J.is_zero:
        return MonomialIdeal(I.n)
    products = []
    seen = set()
    for g in I.gens:
        ge = g.exponents
        for h in J.gens:
            exps = tuple(a + b for a, b in zip(ge, h.exponents))
            if exps not in seen:
                seen.add(exps)
                products.append(Monomial(exps))
    return MonomialIdeal(I.n, products)


def ideal_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th power by repeated product; the 0th power is the unit ideal.
    Raises ResourceCapError, before forming any more, when the products of
    all the steps together would form more than PRODUCT_CAP generator
    pairs; for an equigenerated ideal, before any product when a lower
    bound on those pairs already passes the cap."""
    if k < 0:
        raise ValueError("negative ideal powers are undefined")
    if k == 0:
        return MonomialIdeal(I.n, [Monomial.unit(I.n)])
    m = I.num_gens
    refused = ResourceCapError(
        f"ideal power {k} of {m} generators exceeds the cap of {PRODUCT_CAP} pairs"
    )
    # with two generators u, v of one degree, the u^a v^b with a + b = j are
    # j + 1 generators of I^j, so the steps form at least m(k-1)(k+2)/2 pairs
    if m >= 2 and m * (k - 1) * (k + 2) // 2 > PRODUCT_CAP and I.is_equigenerated:
        raise refused
    result, pairs = I, 0
    for _ in range(k - 1):
        pairs += result.num_gens * m
        if pairs > PRODUCT_CAP:
            raise refused
        result = ideal_product(result, I)
    return result


def support_filter(J: MonomialIdeal, level: int) -> MonomialIdeal:
    """Sub-ideal keeping exactly the generators with more than ``level``
    variables in their support."""
    kept = [g for g in J.gens if len(g.support) > level]
    return MonomialIdeal(J.n, kept)


def monomial_multiples(I: MonomialIdeal, factor: Monomial) -> MonomialIdeal:
    """The ideal factor * I (each generator multiplied by the fixed monomial)."""
    if len(factor.exponents) != I.n:
        raise DimensionMismatchError("factor lives in a different ring")
    return MonomialIdeal(I.n, [factor * g for g in I.gens])


def restrict_to_support(I: MonomialIdeal) -> tuple[MonomialIdeal, tuple[int, ...]]:
    """Rewrite I in the subring on its support variables.

    Returns the restricted ideal together with the tuple mapping new 1-based
    variable positions to the original indices; I itself when its support
    is every variable.
    """
    supp = I.support
    if len(supp) == I.n:
        return I, supp
    if not supp:
        # zero ideal, or the unit ideal (empty support): keep a 0-variable ring
        if I.is_unit:
            return MonomialIdeal(0, [Monomial(())]), ()
        return MonomialIdeal(0), ()
    index = {old: new for new, old in enumerate(supp)}
    restricted = []
    for g in I.gens:
        exps = [0] * len(supp)
        for old, e in enumerate(g.exponents, start=1):
            if e:
                exps[index[old]] = e
        restricted.append(Monomial(tuple(exps)))
    return MonomialIdeal(len(supp), restricted), supp
