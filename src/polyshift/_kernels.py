"""Numpy kernels: matrix rank over a prime field, and batched divisibility.

The homology oracle calls :func:`rank_mod_p` for boundary-matrix
elimination.  It takes each frame's homology relative to the star of a
vertex, and only once per memo key (the face set with its vertices in a
canonical order), so the matrices are small (at most 36 rows on the
relabelled 10- and 11-cycles) and many frames need none.  In-process on
one vCPU of a shared 2-core Xeon VM (fastest of five runs), the 23
Veronese-type tables of the betti-veronese benchmark (seed 1) take 0.25 s:
0.11 s in the lcm-lattice closure, 0.08 s in the frames' face sets, 0.02 s
in the full-simplex test, 0.01 s in the memo keys and under 0.01 s in
homology, with no call here.  The relabelled 10- and 11-cycle tables of
the betti-cycles benchmark (seed 1) take 0.04 s, 0.024 s of it in homology
and 0.010 s of that in these ranks.
:func:`contains_mask` (does any generator divide each of a batch of
monomials) has no caller in the package since the oracle builds its frames
from facet masks.

Every modulus passes :func:`validate_prime`: the elimination inverts pivots
by Fermat's little theorem, which needs a prime, and multiplies two residues
in int64, which needs (p - 1)^2 < 2^63.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

PRIME_LIMIT = 2**31

# read by perfbench/run.py for its env record; goes with the tracer rework
HAVE_NUMBA = False


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
    p = validate_prime(p)
    a = np.asarray(matrix, dtype=np.int64) % p
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


# perfbench/tracing.py names this span; goes with the tracer rework
def contains_mask(gens: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Boolean array: which target exponent rows lie in the ideal of ``gens``."""
    g = np.asarray(gens, dtype=np.int64)
    t = np.asarray(targets, dtype=np.int64)
    if g.shape[0] == 0:
        return np.zeros(t.shape[0], dtype=np.bool_)
    return (g[None, :, :] <= t[:, None, :]).all(axis=2).any(axis=1)
