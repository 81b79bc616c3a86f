"""Numeric kernels with numba-accelerated and pure-numpy implementations.

Two kernels live here: dense matrix rank over a prime field, which the
homology oracle uses for boundary-matrix elimination, and batched
divisibility tests (does any generator divide each of a batch of monomials),
which the oracle no longer calls since it builds its frames from facet
masks.  The oracle takes each frame's homology relative to the star of a
vertex, so the matrices it hands to :func:`rank_mod_p` are small (at most
36 rows on cycle edge ideals) and many frames need none; its cost lies in
the lattice closure and the frames.  Each kernel ships in two equivalent
versions; the numba one is used when numba imports cleanly, unless the
environment variable ``POLYSHIFT_PURE_NUMPY`` is set to a non-empty value
other than ``0``.
``benchmarks/bench_kernels.py`` compares the two paths.

Every modulus passes :func:`validate_prime`: the elimination inverts pivots
by Fermat's little theorem, which needs a prime, and multiplies two residues
in int64, which needs (p - 1)^2 < 2^63.
"""

from __future__ import annotations

import functools
import math
import operator
import os

import numpy as np

PRIME_LIMIT = 2**31

FORCE_NUMPY = os.environ.get("POLYSHIFT_PURE_NUMPY", "") not in ("", "0")


def _rank_mod_p_numpy(a: np.ndarray, p: int) -> int:
    """Row-echelon rank of ``a`` over F_p; ``a`` is consumed."""
    p = int(p)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[r + 1 :, c]
        if col.size:
            a[r + 1 :] = (a[r + 1 :] - np.outer(col, a[r])) % p
        r += 1
    return r


def _contains_mask_numpy(gens: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """targets[k] is divisible by some generator row: all(g <= t) for some g."""
    if gens.shape[0] == 0:
        return np.zeros(targets.shape[0], dtype=np.bool_)
    return (gens[None, :, :] <= targets[:, None, :]).all(axis=2).any(axis=1)


_rank_impl = _rank_mod_p_numpy
_contains_impl = _contains_mask_numpy
HAVE_NUMBA = False

if not FORCE_NUMPY:
    try:
        from numba import njit

        @njit(cache=True)
        def _modinv(a: np.int64, p: np.int64) -> np.int64:
            # Fermat: a^(p-2) mod p by square-and-multiply
            result = np.int64(1)
            base = a % p
            e = p - 2
            while e > 0:
                if e & 1:
                    result = (result * base) % p
                base = (base * base) % p
                e >>= 1
            return result

        @njit(cache=True)
        def _rank_mod_p_numba(a, p):  # pragma: no cover - exercised via dispatch
            rows, cols = a.shape
            r = 0
            for c in range(cols):
                if r == rows:
                    break
                piv = -1
                for i in range(r, rows):
                    if a[i, c] != 0:
                        piv = i
                        break
                if piv < 0:
                    continue
                if piv != r:
                    for t in range(cols):
                        tmp = a[r, t]
                        a[r, t] = a[piv, t]
                        a[piv, t] = tmp
                inv = _modinv(a[r, c], p)
                for t in range(cols):
                    a[r, t] = (a[r, t] * inv) % p
                for i in range(r + 1, rows):
                    f = a[i, c]
                    if f != 0:
                        for t in range(cols):
                            a[i, t] = (a[i, t] - f * a[r, t]) % p
                r += 1
            return r

        @njit(cache=True)
        def _contains_mask_numba(gens, targets):  # pragma: no cover
            f = targets.shape[0]
            m = gens.shape[0]
            n = gens.shape[1]
            out = np.zeros(f, dtype=np.bool_)
            for k in range(f):
                for g in range(m):
                    ok = True
                    for t in range(n):
                        if gens[g, t] > targets[k, t]:
                            ok = False
                            break
                    if ok:
                        out[k] = True
                        break
            return out

        _rank_impl = _rank_mod_p_numba
        _contains_impl = _contains_mask_numba
        HAVE_NUMBA = True
    except ImportError:
        pass


@functools.lru_cache(maxsize=64)
def validate_prime(p: int) -> int:
    """``p`` as an int when it is a prime below 2^31; ValueError otherwise."""
    q = operator.index(p)
    if not 2 <= q < PRIME_LIMIT or any(
        q % d == 0 for d in range(2, math.isqrt(q) + 1)
    ):
        raise ValueError(f"the modulus must be a prime below 2^31, got {p}")
    return q


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p (entries are reduced first)."""
    global _rank_impl, HAVE_NUMBA
    p = validate_prime(p)
    a = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64) % p)
    if a.size == 0:
        return 0
    try:
        return int(_rank_impl(a.copy(), np.int64(p)))
    except Exception:
        if _rank_impl is not _rank_mod_p_numpy:
            # numba compilation failed at call time: demote to the numpy path
            _rank_impl = _rank_mod_p_numpy
            HAVE_NUMBA = False
            return int(_rank_impl(a.copy(), p))
        raise


def contains_mask(gens: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Boolean array: which target exponent rows lie in the ideal of ``gens``."""
    global _contains_impl, HAVE_NUMBA
    g = np.ascontiguousarray(np.asarray(gens, dtype=np.int64))
    t = np.ascontiguousarray(np.asarray(targets, dtype=np.int64))
    try:
        return _contains_impl(g, t)
    except Exception:
        if _contains_impl is not _contains_mask_numpy:
            _contains_impl = _contains_mask_numpy
            HAVE_NUMBA = False
            return _contains_impl(g, t)
        raise
