"""Shared helpers and frozen expected values for the test suite."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import polyshift
from polyshift import Monomial, MonomialIdeal, parse_ideal, parse_monomial
from polyshift import _kernels
from polyshift.errors import DegreeMismatchError, ResourceCapError, ZeroIdealError
from polyshift.families import EXCHANGE_MODES, ExchangeResult
from polyshift.monomials import VariableOrder, unit_exchange
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
)


def M(text: str, n: int | None = None) -> Monomial:
    return parse_monomial(text, n)


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
            elif mode == "symmetric":
                for j in downs:
                    if not any(has_move(ue, i, j) for i in ups):
                        return ExchangeResult(False, (u, v, j + 1))
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
                v = u.exchange(j, i)
                if v.exponents not in seen:
                    seen.add(v.exponents)
                    queue.append(v)
    return MonomialIdeal(n, collected)


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
            gens.append(u.times_var(i))
        elif u.exponents[i - 1] and i > 1:
            gens.append(u.exchange(draw(st.integers(1, i - 1)), i))
    return draw(st.permutations(gens)), n


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
