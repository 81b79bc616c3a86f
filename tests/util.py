"""Shared helpers and frozen expected values for the test suite."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np
from hypothesis import strategies as st

import polyshift
from polyshift import Monomial, MonomialIdeal, parse_ideal, parse_monomial
from polyshift import _kernels
from polyshift.errors import (
    DegreeMismatchError,
    PreconditionError,
    ResourceCapError,
    SupportError,
    ZeroIdealError,
)
from polyshift.families import (
    EXCHANGE_MODES,
    BorelSpec,
    ExchangeResult,
    FamilySpec,
    LPSpec,
    PLPSpec,
    StabilityResult,
    VeroneseSpec,
    _borel_window,
    _realize_windows,
    _unwrap_power,
    as_transversal,
    check_exchange,
)
from polyshift.monomials import (
    VariableOrder,
    _check_same_ring,
    coordinate_bitsets,
    ideal_power,
)
from polyshift.oracle import (
    LATTICE_CAP,
    BettiTable,
    SimplicialComplexFrame,
    _block,
    _locate,
    default_prime,
    lcm_lattice,
    reduced_homology_ranks,
)
from polyshift.quotients import (
    SEARCH_NODE_BUDGET,
    AdmissibleOrderFailure,
    OrderSearch,
    QuotientCertificate,
    _BudgetExceeded,
    _colon_step,
)
from polyshift.socle import family_socle, intersection_graph, socle_report


def M(text: str, n: int | None = None) -> Monomial:
    return parse_monomial(text, n)


# ---------------------------------------------------------------------------
# references the tests hold the package's routes to
# ---------------------------------------------------------------------------


def lcm(u: Monomial, v: Monomial) -> Monomial:
    """Least common multiple: the componentwise maximum of the exponents."""
    _check_same_ring(u, v)
    return Monomial(tuple(max(a, b) for a, b in zip(u.exponents, v.exponents)))


def lcm_many(monomials: Iterable[Monomial]) -> Monomial:
    it = iter(monomials)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("lcm of an empty collection is undefined") from None
    for m in it:
        acc = lcm(acc, m)
    return acc


def unit_exchange(u: Monomial, v: Monomial) -> Optional[tuple[int, int]]:
    """If u = x_k * (v / x_l) for a single exchange, return (k, l); else None.

    Equivalent to ``distance(u, v) == 1`` with the witnessing pair made
    explicit.  Raises on unequal total degrees, like ``distance``.
    """
    _check_same_ring(u, v)
    if u.degree != v.degree:
        raise DegreeMismatchError(
            f"unit_exchange is defined only for equal degrees ({u.degree} vs {v.degree})"
        )
    k = l = 0
    for i, (a, b) in enumerate(zip(u.exponents, v.exponents)):
        d = a - b
        if d == 0:
            continue
        if d == 1 and k == 0:
            k = i + 1
        elif d == -1 and l == 0:
            l = i + 1
        else:
            return None
    if k and l:
        return (k, l)
    return None


def colon_by_variable(I: MonomialIdeal, i: int) -> MonomialIdeal:
    """I : x_i, by decrementing the exponent of x_i where possible."""
    gens = []
    for g in I.gens:
        gens.append(g / Monomial.variable(i, I.n) if g.exponents[i - 1] else g)
    return MonomialIdeal(I.n, gens)


def ideal_intersection(A: MonomialIdeal, B: MonomialIdeal) -> MonomialIdeal:
    """Intersection of monomial ideals: pairwise lcms, minimalized."""
    out = []
    for g in A.gens:
        for h in B.gens:
            out.append(lcm(g, h))
    return MonomialIdeal(A.n, out)


def colon_maximal(I: MonomialIdeal) -> MonomialIdeal:
    """I : (x_1,...,x_n) as the intersection of the single-variable colons.

    The general, untruncated colon, in every degree and for any ideal; the
    tests hold ``socle_colon`` to its degree-(d-1) generators.  With no
    variables the maximal ideal is (0), so the colon is the whole ring.
    """
    if I.n == 0:
        return MonomialIdeal(0, [Monomial(())])
    if I.is_zero:
        return MonomialIdeal(I.n)
    acc = colon_by_variable(I, 1)
    for i in range(2, I.n + 1):
        acc = ideal_intersection(acc, colon_by_variable(I, i))
    return acc


TAYLOR_GEN_CAP_LOW_INDEX = 25   # subset enumeration cap for j <= 2
TAYLOR_GEN_CAP_HIGH_INDEX = 18  # cap for j >= 3


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


@dataclass(frozen=True)
class PersistenceCheck:
    ok: bool
    k: int
    witness: Optional[Monomial] = None  # element of the socle of the power
    failed_variable: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def power_persistence(I: MonomialIdeal, k: int) -> PersistenceCheck:
    """Verify that the k-th power keeps maximal projective dimension.

    Preconditions: I is polymatroidal with full support and maximal
    projective dimension.  The witness is u^k / x_n for a generator u with
    u / x_n in the socle; each variable multiple is checked against G(I^k).
    """
    if k < 1:
        raise ValueError("power exponent must be at least 1")
    if not check_exchange(I, "exchange").holds:
        raise PreconditionError("power persistence requires a polymatroidal ideal")
    if not full_support(I):
        raise SupportError("restrict the ideal to its support first")
    report = socle_report(I)
    if report.socle.is_zero:
        raise PreconditionError(
            "power persistence requires maximal projective dimension"
        )
    n = I.n
    u = report.witness
    if u is None:
        raise AssertionError(
            f"socle element {report.socle.gens[0]} times x{n} is not a generator of the ideal"
        )
    witness = u ** k / Monomial.variable(n, n)
    power = ideal_power(I, k)
    for i in range(1, n + 1):
        if (witness * Monomial.variable(i, n)).exponents not in power.exponent_set:
            return PersistenceCheck(False, k, witness, i)
    return PersistenceCheck(True, k, witness)


def plp_factor(spec: PLPSpec) -> tuple[Monomial, PLPSpec]:
    """Split a PLP spec into its monomial part and a basic PLP spec.

    The realized ideal equals the monomial times the basic realization.
    """
    a = spec.lower
    prefix_a = list(itertools.accumulate(a))
    alpha_star = tuple(max(x - p, 0) for x, p in zip(spec.alpha, prefix_a))
    beta_star = tuple(y - p for y, p in zip(spec.beta, prefix_a))
    upper_star = tuple(u - lo for u, lo in zip(spec.upper, a))
    # re-monotonize: prefix sums are nondecreasing, so tightening the windows
    # from the left (alpha) and right (beta) does not change the solution set
    alpha_fixed = list(alpha_star)
    for i in range(1, len(alpha_fixed)):
        alpha_fixed[i] = max(alpha_fixed[i], alpha_fixed[i - 1])
    beta_fixed = list(beta_star)
    for i in range(len(beta_fixed) - 2, -1, -1):
        beta_fixed[i] = min(beta_fixed[i], beta_fixed[i + 1])
    basic = PLPSpec((0,) * spec.n, upper_star, tuple(alpha_fixed), tuple(beta_fixed))
    return Monomial(a), basic


def ideal(text: str) -> MonomialIdeal:
    return parse_ideal(text).ideal


def child_env(**settings: str) -> dict[str, str]:
    """Environment for a child Python that imports the package this process
    imported (a checkout's src/ or site-packages): the current environment
    minus every POLYSHIFT_* setting, so only ``settings`` decide, with the
    package's parent directory first on PYTHONPATH.  Run the child in an
    empty directory so the working directory cannot supply the package."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("POLYSHIFT_")}
    env.update(settings)
    package_root = str(Path(polyshift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


def outcome_under_optimize(body: str, cwd) -> str:
    """Run ``body`` in a child ``python -O``, where bare ``assert`` statements
    are stripped, and report how it ended: ``"raised <message>"`` for an
    AssertionError, else ``"returned"``.  Run it in an empty directory (see
    :func:`child_env`)."""
    code = (
        "print('debug', __debug__)\n"
        "try:\n"
        + textwrap.indent(body, "    ")
        + "except AssertionError as exc:\n"
        "    print('raised', exc)\n"
        "else:\n"
        "    print('returned')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=child_env(),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    debug, outcome = proc.stdout.splitlines()
    assert debug == "debug False"
    return outcome


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One void scalar per row holding the row's bytes: exact for every n."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def lattice_reference(gens: np.ndarray, cap: int) -> np.ndarray:
    """Reference ``_lattice``: a frontier of the newest points meets every
    generator in blocks, and the rows not yet seen are merged by void-key
    ``searchsorted`` into a sorted array, then put in descending-lex order.
    Raises ValueError for a cap below 1 and ResourceCapError when there are
    more than ``cap`` points (or more than ``cap`` generator rows)."""
    if cap < 1:
        raise ValueError(f"the lcm lattice cap must be at least 1, got {cap}")
    m, n = gens.shape
    if m > cap:
        raise ResourceCapError(f"lcm lattice exceeds the cap of {cap} points")
    if n == 0:
        return gens[:1]
    seen = np.sort(_row_keys(gens))
    frontier = gens
    step = _block(m)
    while len(frontier):
        fresh = []
        for start in range(0, len(frontier), step):
            block = frontier[start : start + step]
            cand = np.maximum(block[:, None, :], gens[None, :, :])
            cand = cand[(cand != block[:, None, :]).any(axis=2)]
            keys = _row_keys(cand)
            order = keys.argsort()
            keys = keys[order]
            at, found = _locate(seen, keys)
            new = ~found
            new[1:] &= keys[1:] != keys[:-1]
            if not new.any():
                continue
            seen = np.insert(seen, at[new], keys[new])
            if len(seen) > cap:
                raise ResourceCapError(
                    f"lcm lattice exceeds the cap of {cap} points"
                )
            fresh.append(cand[order[new]])
        frontier = np.concatenate(fresh) if fresh else frontier[:0]
    points = seen.view(np.int64).reshape(-1, n)
    return points[np.lexsort(points.T[::-1])[::-1]]


def full_boundary_homology(frame, prime: int) -> dict[int, int]:
    """Reference reduced homology ranks of a frame: every face is a cell and
    every boundary matrix is eliminated, with no star quotient.  Dimensions
    follow ``reduced_homology_ranks`` (the empty face is a (-1)-cell)."""
    masks = frame.face_masks
    if not masks:
        return {}
    v = len(frame.vertices)
    by_size: dict[int, list[int]] = {}
    for m in masks:
        by_size.setdefault(bin(m).count("1"), []).append(m)
    for s in by_size:
        by_size[s].sort()
    max_size = max(by_size)
    counts = {s: len(by_size.get(s, ())) for s in range(max_size + 1)}
    ranks = {0: 0}
    for s in range(1, max_size + 1):
        upper = by_size.get(s, [])
        lower = by_size.get(s - 1, [])
        if not upper or not lower:
            ranks[s] = 0
            continue
        row_index = {m: i for i, m in enumerate(lower)}
        B = np.zeros((len(lower), len(upper)), dtype=np.int64)
        for ci, m in enumerate(upper):
            bits = [k for k in range(v) if m >> k & 1]
            for pos, k in enumerate(bits):
                fm = m & ~(1 << k)
                B[row_index[fm], ci] = 1 if pos % 2 == 0 else prime - 1
        ranks[s] = _kernels.rank_mod_p(B, prime)
    ranks[max_size + 1] = 0
    out: dict[int, int] = {}
    for s in range(max_size + 1):
        h = counts[s] - ranks[s] - ranks.get(s + 1, 0)
        if h:
            out[s - 1] = h
    return out


def frame_reference(I: MonomialIdeal, a: Monomial) -> SimplicialComplexFrame:
    """Reference ``upper_koszul`` for one point: the face masks over supp(a)
    are tested, 4096 at a time, against the facets {i in supp(a) : g_i < a_i}
    of the generators g dividing x^a, one point at a time."""
    gens = np.array([g.exponents for g in I.gens], dtype=np.int64).reshape(I.num_gens, I.n)
    target = np.array(a.exponents, dtype=np.int64)
    supp = np.flatnonzero(target)
    v = len(supp)
    if v > 62:
        raise ResourceCapError(
            f"upper Koszul frame at {a} has {v} vertices; at most 62 are supported"
        )
    dividing = gens[(gens <= target).all(axis=1)]
    facets = (dividing[:, supp] < target[supp]) @ (1 << np.arange(v))
    masks: list[int] = []
    for start in range(0, 1 << v, 4096):
        block = np.arange(start, min(start + 4096, 1 << v))
        inside = ((block[:, None] & ~facets[None, :]) == 0).any(axis=1)
        masks.extend(block[inside].tolist())
    return SimplicialComplexFrame(
        len(a.exponents), a, tuple((supp + 1).tolist()), tuple(masks)
    )


def betti_table_reference(
    I: MonomialIdeal, prime: int | None = None, cap: int = LATTICE_CAP
) -> BettiTable:
    """Reference ``betti_table``: every lattice point's frame is built on its
    own and its homology taken, with no full-simplex test, no support groups
    and no memo.  Entries go in lattice order, indices ascending."""
    p = default_prime() if prime is None else _kernels.validate_prime(prime)
    table = BettiTable(I.n, {}, p)
    if I.is_zero:
        return table
    for a in lcm_lattice(I, cap):
        for dim, rank in reduced_homology_ranks(frame_reference(I, a), p).items():
            table.entries[(dim + 1, a)] = rank
    return table


def pairwise_exchange_reference(I: MonomialIdeal, mode: str = "exchange") -> ExchangeResult:
    """Reference ``check_exchange``: every ordered generator pair (u, v) is
    scanned, and each candidate move u - e_i + e_j is tested by membership.
    Witnesses come from the first failing (u, v, i[, j]) in loop order."""
    if mode not in EXCHANGE_MODES:
        raise ValueError(f"unknown exchange mode {mode!r}")
    if I.is_zero:
        raise ZeroIdealError("exchange properties are undefined for the zero ideal")
    if not I.is_equigenerated:
        return ExchangeResult(False, None, "not equigenerated")
    gset = I.exponent_set
    gens = I.gens
    n = I.n

    def has_move(ue, i, j):
        moved = list(ue)
        moved[i] -= 1
        moved[j] += 1
        return tuple(moved) in gset

    for u in gens:
        ue = u.exponents
        for v in gens:
            if u is v:
                continue
            ve = v.exponents
            ups = [i for i in range(n) if ue[i] > ve[i]]
            downs = [j for j in range(n) if ue[j] < ve[j]]
            if mode == "exchange":
                for i in ups:
                    if not any(has_move(ue, i, j) for j in downs):
                        return ExchangeResult(False, (u, v, i + 1))
            else:
                for i in ups:
                    for j in downs:
                        if not has_move(ue, i, j):
                            return ExchangeResult(False, (u, v, i + 1, j + 1))
    return ExchangeResult(True)


def shifts_by_distance_reference(cert, j: int) -> MonomialIdeal:
    """Reference ``shifts_by_distance``: the exchange variables of u_t are
    found by testing ``unit_exchange`` against every earlier generator."""
    if j < 0:
        raise ValueError("homological index must be nonnegative")
    I = cert.ideal
    if not I.is_equigenerated:
        raise DegreeMismatchError("distance route requires an equigenerated ideal")
    ordered = cert.ordered_gens
    n = I.n
    if j == 0:
        return MonomialIdeal(n, ordered)
    out: list[Monomial] = []
    for t, ut in enumerate(ordered):
        adds: set[int] = set()
        for s in range(t):
            ex = unit_exchange(ordered[s], ut)
            if ex is not None:
                adds.add(ex[0])
        if len(adds) < j:
            continue
        for K in itertools.combinations(sorted(adds), j):
            out.append(ut * Monomial.from_support(K, n))
    return MonomialIdeal(n, out)


def certify_order_reference(I: MonomialIdeal, order):
    """Reference ``certify_order``: step k scans every earlier generator u_j,
    collects the variables where u_j exceeds u_k, and fails at the first u_j
    none of whose variables is a colon variable."""
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


def certify_lex_reference(I: MonomialIdeal, vo=None):
    """``certify_lex`` over :func:`certify_order_reference`."""
    if vo is None:
        vo = VariableOrder.identity(I.n)
    order = tuple(
        sorted(range(I.num_gens), key=lambda i: vo.key(I.gens[i]), reverse=True)
    )
    result = certify_order_reference(I, order)
    if isinstance(result, QuotientCertificate):
        return QuotientCertificate(I, result.order, result.colon_vars, vo)
    return result


def admissible_next_reference(gens, prefix: list[int], candidate: int) -> bool:
    """Would appending ``candidate`` keep the prefix admissible?  Decided by a
    scan of every generator in the prefix."""
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


def find_admissible_order_reference(
    I: MonomialIdeal, node_budget: int = SEARCH_NODE_BUDGET
) -> OrderSearch:
    """Reference ``find_admissible_order``: the same lexicographic sweep and
    backtracking, over :func:`certify_order_reference` and
    :func:`admissible_next_reference`."""
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no admissible orders")
    m = I.num_gens
    n = I.n
    if n <= 6 and math.factorial(n) * m * m <= 2_000_000:
        for perm in itertools.permutations(range(1, n + 1)):
            result = certify_lex_reference(I, VariableOrder(perm))
            if isinstance(result, QuotientCertificate):
                return OrderSearch("certified", result)
    gens = I.gens
    dead: set[frozenset[int]] = set()
    nodes = 0

    class BudgetExceeded(Exception):
        pass

    def extend(prefix: list[int], used: frozenset[int]):
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
                raise BudgetExceeded
            if admissible_next_reference(gens, prefix, c):
                prefix.append(c)
                found = extend(prefix, used | {c})
                if found is not None:
                    return found
                prefix.pop()
        dead.add(used)
        return None

    try:
        found = extend([], frozenset())
    except BudgetExceeded:
        return OrderSearch("inconclusive")
    if found is None:
        return OrderSearch("none")
    return OrderSearch("certified", certify_order_reference(I, found))


def backtrack_reference(gens, node_budget: int):
    """Reference ``quotients._backtrack``: the same depth-first search over
    the same bitset steps and ``dead`` memo, by one recursive call per
    generator placed, so only orders shorter than the recursion limit.
    Returns the first admissible order (None when there is none) and the
    nodes visited, and raises ``_BudgetExceeded`` past ``node_budget``."""
    m = len(gens)
    table = coordinate_bitsets(gens)
    dead: set[int] = set()
    nodes = 0

    def extend(prefix: list[int], used: int):
        nonlocal nodes
        if len(prefix) == m:
            return list(prefix)
        if used in dead:
            return None
        for c in range(m):
            if used >> c & 1:
                continue
            nodes += 1
            if nodes > node_budget:
                raise _BudgetExceeded
            _, uncovered = _colon_step(table, gens[c], used)
            if not uncovered:
                prefix.append(c)
                found = extend(prefix, used | 1 << c)
                if found is not None:
                    return found
                prefix.pop()
        dead.add(used)
        return None

    found = extend([], 0)
    return found, nodes


def homological_shift_reference(cert, j: int) -> MonomialIdeal:
    """Reference ``homological_shift``: every product x_F * u is formed by
    ``Monomial`` multiplication and the list is handed to the constructor."""
    if j < 0:
        raise ValueError("homological index must be nonnegative")
    n = cert.ideal.n
    mons: list[Monomial] = []
    for u, cols in zip(cert.ordered_gens, cert.colon_vars):
        for F in itertools.combinations(cols, j):
            mons.append(u * Monomial.from_support(F, n))
    return MonomialIdeal(n, mons)


def gens_set(I: MonomialIdeal) -> set[str]:
    return {str(g) for g in I.gens}


def full_support(I: MonomialIdeal) -> bool:
    """Whether the generators involve all n ambient variables."""
    return I.support == tuple(range(1, I.n + 1))


def all_monomials(n: int, degree: int) -> list[Monomial]:
    """Every monomial of the given total degree, by brute-force enumeration."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(Monomial(tuple(exps)))
    return out


def bounded_degree_reference(bounds, degree: int, n: int) -> list[Monomial]:
    """All exponent vectors summing to ``degree`` with c_i <= bounds[i]; empty
    for a negative bound or degree.  The enumerator Veronese types had before
    they went through their PLP windows, kept as the reference for them."""
    bounds = list(bounds)
    if any(b < 0 for b in bounds) or degree < 0:
        return []
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]
    out: list[Monomial] = []
    prefix: list[int] = []

    def rec(i: int, remaining: int):
        if i == n:
            if remaining == 0:
                out.append(Monomial(tuple(prefix)))
            return
        hi = min(bounds[i], remaining)
        lo = max(0, remaining - suffix[i + 1])
        for c in range(hi, lo - 1, -1):
            prefix.append(c)
            rec(i + 1, remaining - c)
            prefix.pop()

    rec(0, degree)
    return out


def windowed_reference(lower, upper, alpha, beta) -> list[Monomial]:
    """Every vector of the box lower <= c <= upper whose i-th prefix sum lies
    in [alpha_i, beta_i], in descending lex order; empty unless the last
    window closes at one degree (alpha_n = beta_n).  Brute force over the
    box, for small boxes with nonnegative lower bounds."""
    if alpha[-1] != beta[-1]:
        return []
    out = []
    ranges = [range(hi, lo - 1, -1) for lo, hi in zip(lower, upper)]
    for c in itertools.product(*ranges):
        sums = itertools.accumulate(c)
        if all(a <= s <= b for a, s, b in zip(alpha, sums, beta)):
            out.append(Monomial(c))
    return out


def borel_closure_reference(gens, n: int) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the generators, by a
    breadth-first closure under the moves x_j * (u / x_i), j < i."""
    seen = {u.exponents for u in gens}
    queue = list(gens)
    collected = []
    while queue:
        u = queue.pop()
        collected.append(u)
        for i in u.support:
            for j in range(1, i):
                v = u / Monomial.variable(i, n) * Monomial.variable(j, n)
                if v.exponents not in seen:
                    seen.add(v.exponents)
                    queue.append(v)
    return MonomialIdeal(n, collected)


def borel_closure(gens: Iterable[Monomial], n: Optional[int] = None) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the generators: the sum of
    the principal Borel ideals B(u), each realized from its window.  Raises
    ResourceCapError once the windows form more than GENERATOR_CAP distinct
    monomials.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("borel closure of an empty set is undefined")
    if n is None:
        n = gens[0].n
    return _realize_windows(n, [_borel_window(u) for u in gens])


def family_max_pd(spec: FamilySpec) -> bool:
    """Closed-form test for maximal projective dimension relative to all n
    ambient variables, that is for a nonzero ambient socle.

    A positive power keeps the answer of a transversal (LP included) or
    borel base: the intersection graph of a transversal base decides it, and
    so does whether the stable closure of a borel base reaches x_n.  Every
    other spec, a zeroth power included, has it read off its closed-form
    socle.
    """
    k, base = _unwrap_power(spec)
    if k:
        tspec = as_transversal(base)
        if tspec is not None:
            return tspec.covers_variables and intersection_graph(tspec).is_connected
        if isinstance(base, BorelSpec):
            closure = borel_closure(base.generators, base.n)
            return any(g.max_var == base.n for g in closure.gens)
    return not family_socle(spec).is_zero


def is_strongly_stable_reference(I: MonomialIdeal) -> StabilityResult:
    """Whether every move x_j(u/x_i), j < i, lands back in the ideal, each
    move tested by a membership scan over the generators."""
    if I.is_zero:
        raise ZeroIdealError("stability is undefined for the zero ideal")
    for u in I.gens:
        for i in u.support:
            for j in range(1, i):
                if not I.contains(u / Monomial.variable(i, I.n) * Monomial.variable(j, I.n)):
                    return StabilityResult(False, (u, i, j))
    return StabilityResult(True)


@st.composite
def lp_specs(draw, n_max: int = 7, t_max: int = 4):
    """LP specs whose intervals may leave leading and trailing variables
    unused; the endpoints are made nondecreasing by a running maximum."""
    n = draw(st.integers(1, n_max))
    t = draw(st.integers(1, t_max))
    alpha = sorted(draw(st.lists(st.integers(1, n), min_size=t, max_size=t)))
    beta = list(itertools.accumulate(
        (draw(st.integers(a, n)) for a in alpha), max
    ))
    return LPSpec(tuple(alpha), tuple(beta), n)


@st.composite
def borel_generator_lists(draw):
    """Generator lists in up to four variables, mixed in degree and with
    redundant members: a multiple or a stability move of a drawn generator."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 2)] * n).map(Monomial)
    gens = draw(st.lists(exps, min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.sampled_from(gens))
        i = draw(st.integers(1, n))
        if draw(st.booleans()):
            gens.append(u * Monomial.variable(i, n))
        elif u.exponents[i - 1] and i > 1:
            j = draw(st.integers(1, i - 1))
            gens.append(u / Monomial.variable(i, n) * Monomial.variable(j, n))
    return draw(st.permutations(gens)), n


@st.composite
def plp_specs(draw):
    """PLP specs in up to three variables, with lower bounds."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    lower = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    upper = [lo + draw(st.integers(0, 2)) for lo in lower]
    alpha = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    beta = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    beta = list(map(max, alpha, beta))
    return PLPSpec(tuple(lower), tuple(upper), (*alpha, d), (*beta, d))


def windowed_specs():
    """Specs that ``plp_windows`` reads as windows: Veronese types (empty
    and 0-variable ones too), PLP specs with lower bounds, LP specs and
    Borel specs with several generators of mixed degree."""
    veronese = st.builds(
        VeroneseSpec,
        st.lists(st.integers(0, 3), max_size=3).map(tuple),
        st.integers(0, 3),
    )
    borel = borel_generator_lists().map(
        lambda drawn: BorelSpec(tuple(drawn[0]), drawn[1])
    )
    return st.one_of(veronese, plp_specs(), lp_specs(n_max=4, t_max=3), borel)


# The running 5-variable example: the product of the primes on {1,2,3,4} and
# {3,4,5}, whose 11 generators, colon-variable table and shift ideals are all
# known in closed form.
EXAMPLE_GENS = (
    "x1*x3", "x1*x4", "x1*x5", "x2*x3", "x2*x4", "x2*x5",
    "x3^2", "x3*x4", "x3*x5", "x4^2", "x4*x5",
)

EXAMPLE_SET_TABLE = {
    "x1*x3": (),
    "x1*x4": (3,),
    "x1*x5": (3, 4),
    "x2*x3": (1,),
    "x2*x4": (1, 3),
    "x2*x5": (1, 3, 4),
    "x3^2": (1, 2),
    "x3*x4": (1, 2, 3),
    "x3*x5": (1, 2, 3, 4),
    "x4^2": (1, 2, 3),
    "x4*x5": (1, 2, 3, 4),
}

EXAMPLE_HS1 = {
    "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x3^2", "x1*x3*x4", "x1*x3*x5",
    "x1*x4^2", "x1*x4*x5", "x2*x3^2", "x2*x3*x4", "x2*x3*x5", "x2*x4^2",
    "x2*x4*x5", "x3^2*x4", "x3^2*x5", "x3*x4^2", "x3*x4*x5", "x4^2*x5",
}

EXAMPLE_HS2 = {
    "x1*x2*x3^2", "x1*x2*x3*x4", "x1*x2*x3*x5", "x1*x2*x4^2", "x1*x2*x4*x5",
    "x1*x3^2*x4", "x1*x3^2*x5", "x1*x3*x4^2", "x1*x3*x4*x5", "x1*x4^2*x5",
    "x2*x3^2*x4", "x2*x3^2*x5", "x2*x3*x4^2", "x2*x3*x4*x5", "x2*x4^2*x5",
    "x3^2*x4*x5", "x3*x4^2*x5",
}

# one published listing of the third shift ideal omits x1*x2*x3*x4^2; the
# closed form at degree 5 includes it, and so do all computation routes
EXAMPLE_HS3_LISTED = {
    "x1*x2*x3^2*x4", "x1*x2*x3^2*x5", "x1*x2*x3*x4*x5", "x1*x2*x4^2*x5",
    "x1*x3^2*x4*x5", "x1*x3*x4^2*x5", "x2*x3^2*x4*x5", "x2*x3*x4^2*x5",
}
EXAMPLE_HS3_OMITTED = "x1*x2*x3*x4^2"
EXAMPLE_HS3 = EXAMPLE_HS3_LISTED | {EXAMPLE_HS3_OMITTED}

EXAMPLE_HS4 = {"x1*x2*x3^2*x4*x5", "x1*x2*x3*x4^2*x5"}


# the Stanley-Reisner ideal of the 6-vertex real projective plane: the
# squarefree cubics of [6] that are not among its 10 facets; its Betti
# numbers depend on the characteristic
RP2_FACETS = ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")
RP2_DOC = "[" + ", ".join(
    "*".join(f"x{v}" for v in face)
    for face in itertools.combinations("123456", 3)
    if "".join(face) not in RP2_FACETS
) + "] n=6"
RP2_TOTALS = [
    (2, {0: 10, 1: 15, 2: 7, 3: 1}),
    (3, {0: 10, 1: 15, 2: 6}),
    (32003, {0: 10, 1: 15, 2: 6}),
]


@st.composite
def mixed_degree_ideals(draw):
    """Ideals in 0 to 6 variables with mixed degrees: the generators use only
    some of the variables (partial supports), and several generators share a
    support with different exponents (repeated supports).  The zero ideal,
    the unit ideal and principal ideals are among them."""
    n = draw(st.integers(0, 6))
    used = sorted(draw(st.sets(st.integers(0, n - 1) if n else st.nothing())))
    subsets = st.sets(st.sampled_from(used)) if used else st.just(set())
    supports = draw(st.lists(subsets, min_size=1, max_size=3))
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        support = draw(st.sampled_from(supports))
        exponents = [draw(st.integers(1, 3)) if i in support else 0 for i in range(n)]
        gens.append(Monomial(tuple(exponents)))
    return MonomialIdeal(n, gens)
