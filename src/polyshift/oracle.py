"""Ground-truth multigraded Betti numbers via per-multidegree simplicial homology.

Independent of the combinatorial routes, this module computes the full Betti
table of an arbitrary monomial ideal: candidate multidegrees are the subset
lcms of the generators (the lcm lattice bounds every true shift), and the
Betti number at a multidegree is a reduced homology rank of the upper Koszul
complex there, computed over a prime field by element matchings and, where
they do not decide it, boundary-matrix elimination.

Both steps work on int64 arrays, and so does the table: a
:class:`BettiTable` holds its nonzero entries as aligned arrays of exponent
rows, homological indices and ranks, which its pd, totals, shift ideals and
linearity test read.  Its ``entries``, keyed by Monomial, are derived on
request, and the ``betti`` report never asks for them: keying the 9171
entries of the 23 seed-1 tables of the betti-veronese benchmark takes
11 ms, against 35-36 ms for the tables (in-process, fastest of 15 and of
30 runs, shared 2-core VM).

The lattice is built on packed words: every coordinate takes a field of w
bits, w the bit length of the largest entry, with one guard bit above it.
The fields are packed into int64 words of at most 63 bits, variable 1
highest and none across two words, so the words order the points as their
exponents do, and the lcm of two points is a few whole-word operations
(SWAR, as in Lamport's "Multiple byte processing with full-word
instructions", 1975).  Two paths build it, and both take lcms by the same
helper.  The sweep maps each column's exponents to their ranks among that
column's distinct values, 0 included; the map is monotone, so it commutes
with taking lcms.  It lays out the box of rank vectors, prod L_i cells in
C order for the L_i distinct values of column i, one packed word a cell,
puts each generator's ranks at its own cell and sweeps a prefix lcm along
each axis, L_i - 1 whole-array steps.  Each cell then holds the lcm of the
generators dividing it, and it is a lattice point exactly when that lcm is
the cell itself; the origin is one only when the unit is a generator.  The
closure adds one generator row at a time: the lattice of g_1..g_k is that
of g_1..g_{k-1}, plus g_k, plus the lcm of g_k with each of its points,
sorted and deduplicated, so no closure array exceeds 2 * cap + 1 rows.
It feeds the generators in increasing order of their largest exponent,
which halves the rows it touches on the 23 Veronese-type tables of the
betti-veronese benchmark (371,886 against 745,778 in the given order).
The sweep runs when the ranks fit one word, the box has at most
``_SWEEP_CELLS`` = 65536 cells and its sum(L_i - 1) steps are fewer than
the m steps of the closure; its arrays are bounded by the box, not by the
cap.  The closure runs otherwise: it alone takes boxes past the budget,
such as 70 squarefree variables (three words a point), and it is cheaper
with few generators.  The Veronese-type tables of the benchmark take the
sweep, and the cycles, where sum(L_i - 1) = m, the closure.  Either way
the points are read back into exponents once, at the end.
The upper Koszul complex K^a(I) = {F subset of supp(a) : x^a / x_F
in I} is generated by facets: x^a / x_F lies in I exactly when F is
contained in {i : g_i < a_i} for some generator g dividing x^a.  So K^a(I)
is a full simplex, hence contractible, when one such facet is all of a
nonempty supp(a), that is, when some generator divides x^a / x_supp(a);
that test runs on the whole lattice in blocks.  Both it and the frames'
divisibility tests compare the same packed words, one subtraction a word.
The other points are grouped by the number v of their support variables.
The narrowest sizes share one group, read on the widest v among them,
while its points times 2^v stay within ``_FRAME_MASKS`` = 65536 face
masks; every wider size is a group of its own.  Bit k of a face mask is
the k-th support variable, so a frame on fewer vertices is the same bit
row with zeros after it; a vertex in no face changes no reduced homology,
and it counts 0, so the busiest vertex (the lowest of the most faces) is
the same, and the padding changes no rank.  For each block of a group,
the facets of the dividing generators are set in a (points, 2^v) boolean
array by one scatter, and v in-place passes close the array downward:
pass j adds F to every face F + j.  A block of the
full-simplex test or the face rows holds at most ``_BLOCK_ROWS`` = 16384
(point, generator) pairs or one point, and a block of frame homology at
most ``_FRAME_MASKS`` face masks or one frame.  A group's packed face rows
are merged by one sort of their bytes, so the homology of each distinct
face set is taken once and each point finds it through one index array.
Frames are not keyed up to vertex relabelling: on frames of at most 11
vertices, as on every benchmark workload, a frame's homology below costs
less than such a key.  The 9171 frames of the 23 Veronese-type tables of
the betti-veronese benchmark fall in 23 groups, one a table, which hold
252 distinct face sets; with a group for each support size they were 103
groups and 319 face sets, as equal face sets of different sizes did not
merge.

The homology of a frame K is taken relative to the closed star
st_x K = {F : F + x in K} of its busiest vertex x.  The star is a cone with
apex x, so its reduced homology vanishes, and the long exact sequence of the
pair gives H~_k(K) = H_k(K, st_x K) for every k >= -1.  The relative complex
keeps only the faces F with F + x not in K: in the terms of algebraic
discrete Morse theory, the star quotient is the element matching of F with
F + x (Jonsson, "Simplicial Complexes of Graphs", 2008, section 4; over a
field, Skoldberg, "Morse theory from an algebraic viewpoint", 2006).  A
frame whose relative cells lie in no two adjacent sizes has zero
differentials, and its ranks are its cell counts.  Every other frame gets
element matchings on its remaining vertices in ascending order: pass y
pairs F with F + y wherever both are still unmatched.  The union of the
matchings is acyclic (a gradient path stops at the first cell that holds
the matched vertex, and successive matchings compose by the cluster
lemma), and every matched incidence is +1 or -1, a unit in every F_p, so
the unmatched (critical) cells span a Morse complex with the frame's
homology.  Where no two adjacent sizes both hold critical cells, every
Morse differential is zero and the rank in dimension s - 1 is the number of
critical cells of size s, at every prime.  Only the frames whose critical
cells still lie in two adjacent sizes are eliminated, with their relative
cells, so no Morse differential is ever formed.  All the distinct face sets
of a frame group go through these steps together, as array
operations on the unpacked face rows, and the signed entries of every
(frame, size) boundary matrix left are scattered into zero-padded stacks of
matrices of like shape, each ranked by one stacked elimination.
In-process on one vCPU of a shared 2-core Xeon VM (fastest of 30 runs), the
relabelled 10- and 11-cycle tables of the betti-cycles benchmark (seed 1)
take 0.007 s.  Homology takes 0.004 s of it for 499 frames in 9 groups.
The matchings leave 10 of those frames to the elimination, which ranks 23
boundary matrices in 4 stacks (22 column steps) in 0.001 s.  With a group
for each support size, eliminating every frame ranked 1104 matrices in 15
stacks (96 column steps), and the two tables took 0.016 s against 0.011 s.
The 16-cycle's table takes 0.27 s, against 0.33 s with a group for each
support size.  The 23 Veronese-type tables take 0.035-0.036 s: 0.008 s in
the lattice sweep (the closure takes 0.025-0.027 s), 0.006 s in the
full-simplex test, 0.014 s in the face rows and 0.002 s in homology, where
none of their 252 frames has relative cells in two adjacent sizes, so none
reaches a matching.  The Veronese type (2^9, d = 7), 2304 generators,
takes 0.46 s (fastest of 3); the sweep builds its 16,622 lattice points
in 0.0035 s, against 0.49 s by the closure.  The cycles take the closure: on the 10-
and 11-cycles it takes 0.13 and 0.14 ms, against 0.24 and 0.32 ms for the
sweep, and on the 16-cycle 0.62 ms against 4.7 ms.

The default prime is 32003; set POLYSHIFT_PRIME to override it (it is read
at call time), and compare the table with ``betti --prime`` over a second
prime when characteristic effects are a concern.  Every prime must pass
:func:`validate_prime`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import validate_prime
from .errors import DimensionMismatchError, NotStronglyStableError, ResourceCapError
from .monomials import Monomial, MonomialIdeal
from .families import is_strongly_stable

LATTICE_CAP = 50_000
# (point, generator) pairs per block of the full-simplex test and the face
# rows; blocks hold one point at least
_BLOCK_ROWS = 16384
# face masks per block of frame homology, and at most in the one group that
# merges the narrowest support sizes (see betti_table)
_FRAME_MASKS = 1 << 16
# a frame on v vertices takes working arrays of order 2^v bytes: betti_table
# of x1*...*xv peaks at 85 MB RSS in 0.5 s at v = 24 and 247 MB in 2 s at
# v = 26 (shared 2-core VM); int64 face masks alone would allow 62
_MAX_FRAME_VERTICES = 26
# bits per packed lattice word: the sign bit of an int64 stays clear
_WORD_BITS = 63
# cells of the rank box at most, for the lattice sweep (see _lattice)
_SWEEP_CELLS = 1 << 16


def default_prime() -> int:
    """The homology prime: POLYSHIFT_PRIME if set, else 32003.  The variable
    is read at each call; a value that is not a prime below 2^31 raises
    ValueError."""
    text = os.environ.get("POLYSHIFT_PRIME")
    if text is None:
        return 32003
    try:
        return validate_prime(int(text))
    except ValueError:
        raise ValueError(
            f"POLYSHIFT_PRIME must be a prime below 2^31, got {text!r}"
        ) from None


def _gen_matrix(I: MonomialIdeal) -> np.ndarray:
    return np.array([g.exponents for g in I.gens], dtype=np.int64).reshape(
        I.num_gens, I.n
    )


def _locate(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each query sits in the sorted ``keys``, and whether it is there."""
    at = np.searchsorted(keys, queries)
    return at, keys[np.minimum(at, len(keys) - 1)] == queries


def _block(m: int) -> int:
    """Points per block when each point meets all m generators."""
    return max(1, _BLOCK_ROWS // max(m, 1))


@dataclass(frozen=True)
class _Words:
    """The guard-bit word layout of exponent rows: every column gets a
    field of ``width`` + 1 bits, ``width`` = max(1, bit_length(e)) for the
    largest entry e, the top bit a guard that stays clear in a row.
    ``_WORD_BITS`` // (``width`` + 1) fields go to an int64 word, column 1
    highest in word 0, so the order of the word tuples is the lex order of
    the rows.  ``word`` and ``shift`` place each column's field, and
    ``guard`` holds each word's guard bits."""

    width: int
    word: np.ndarray
    shift: np.ndarray
    first: np.ndarray  # the first column of each word
    guard: np.ndarray

    @classmethod
    def fit(cls, *rows: np.ndarray) -> "_Words":
        """The layout that holds every one of the exponent row arrays, all
        with the same columns."""
        width = max(1, int(max(r.max(initial=0) for r in rows)).bit_length())
        per_word = _WORD_BITS // (width + 1)
        column = np.arange(rows[0].shape[1])
        shift = (per_word - 1 - column % per_word) * (width + 1)
        first = np.arange(0, len(column), per_word)
        guard = np.add.reduceat(1 << (shift + width), first)
        return cls(width, column // per_word, shift, first, guard)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """The (rows, words) int64 array of exponent rows; fields are disjoint."""
        return np.add.reduceat(rows << self.shift, self.first, axis=1)

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """The exponent rows of a (rows, words) array."""
        return (words[:, self.word] >> self.shift) & ((1 << self.width) - 1)

    def lcm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The fieldwise maximum of packed rows a and b, which broadcast
        against each other and, along their last axis, against ``guard``.
        Field i of (a | guard) - b holds 2^w + a_i - b_i, w = ``width``,
        so no borrow crosses a field and its guard bit survives exactly
        when a_i >= b_i:

            ge = ((a | guard) - b) & guard      guard bit of i set iff a_i >= b_i
            keep = ge - (ge >> w)               w low bits of those fields
            lcm(a, b) = b ^ ((a ^ b) & keep)    a's fields in keep, b's elsewhere
        """
        ge = ((a | self.guard) - b) & self.guard
        keep = ge - (ge >> self.width)
        return b ^ ((a ^ b) & keep)

    def divides(self, gens: np.ndarray, points: np.ndarray) -> np.ndarray:
        """A (points, gens) boolean array of packed rows: whether x^g divides
        x^a, that is whether every guard bit of (a | guard) - g survives."""
        ge = ((points[:, None] | self.guard) - gens) & self.guard
        return (ge == self.guard).all(axis=2)


def _lattice(gens: np.ndarray, cap: int) -> np.ndarray:
    """The lcm lattice of the generator rows as an int64 (points, n) array,
    sorted descending-lexicographically.  Raises ValueError when ``cap`` is
    below 1 and ResourceCapError exactly when the lattice has more than
    ``cap`` points.

    Two paths build the same array; both take lcms on guard-bit words
    (:meth:`_Words.lcm`).  The sweep (:func:`_sweep`) works on the box of
    rank vectors (:func:`_ranks`), whose side i is the number L_i of distinct
    values of column i, 0 included.  It runs when the ranks fit one word
    (checked first, so that the product of the L_i cannot overflow), the box
    has at most ``_SWEEP_CELLS`` cells, and its sum(L_i - 1) whole-array
    steps are fewer than the m steps of the closure (:func:`_closure`),
    which builds the lattice one generator at a time.  Otherwise the
    closure runs: it alone takes boxes past the budget, as of 70 squarefree
    variables, and it is cheaper with few generators, as on the 10- and
    11-cycles, where sum(L_i - 1) = m.
    """
    if cap < 1:
        raise ValueError(f"the lcm lattice cap must be at least 1, got {cap}")
    if gens.shape[1] == 0:  # no columns to sort on; at most the unit
        return gens[:1]
    if len(gens):
        # L_i - 1, the distinct nonzero values of column i: its largest rank
        column = np.sort(gens, axis=0)
        top = (column[0] > 0) + (column[1:] != column[:-1]).sum(axis=0)
        if (
            len(_Words.fit(top[None]).guard) == 1
            and (top + 1).prod() <= _SWEEP_CELLS
            and top.sum() < len(gens)
        ):
            return _sweep(gens, cap)
    return _closure(gens, cap)


def _ranks(gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's rank among the distinct values of its column, 0
    included, as an int64 array shaped like the rows, and the value
    table: row i lists column i's distinct values ascending, padded with
    0.  The map from a value to its rank is monotone, so it commutes with
    taking lcms, and the table maps a rank vector back to its exponents."""
    index = np.arange(gens.shape[1])
    order = np.argsort(gens, axis=0)
    column = gens[order, index]
    fresh = np.empty(column.shape, dtype=np.int64)
    fresh[0] = column[0] > 0
    fresh[1:] = column[1:] != column[:-1]
    rank = np.cumsum(fresh, axis=0)
    ranks = np.empty_like(rank)
    ranks[order, index] = rank
    values = np.zeros((len(index), rank[-1].max() + 1), dtype=np.int64)
    values[index, rank] = column
    return ranks, values


def _sweep(gens: np.ndarray, cap: int) -> np.ndarray:
    """The lcm lattice of the generator rows, with at least one row and
    one column, by a prefix lcm over the box of their rank vectors (see
    :func:`_ranks`), whose ranks must fit one word.

    The box has a cell for every rank vector r, in C order, which is the
    lex order of the rows; ``own`` holds r itself as one packed word in the
    layout ``words``.  Each generator's packed ranks go to its own cell,
    every other cell starts at 0, and a prefix lcm runs along each axis in
    turn, L_i - 1 whole-array steps on axis i.  After axis i, a cell holds
    the lcm of the generators at the cells that agree with it past axis i
    and lie at or below it up to i; after the last axis, of all the
    generators dividing it.  So a cell is a lattice point exactly when that
    lcm is its own rank vector, and the origin, where the lcm of no
    generator is 0 as well, exactly when the unit is a generator.  The
    points are read in descending order and mapped back through the value
    table.  Every array is the size of the box, so the whole box is laid
    out even when the lattice is past the cap; the count of points decides
    the cap exactly."""
    ranks, values = _ranks(gens)
    words = _Words.fit(ranks)
    lengths = ranks.max(axis=0) + 1
    own = sum(np.ix_(*[np.arange(k) << s for k, s in zip(lengths.tolist(), words.shift)]))
    cells = np.ravel_multi_index(tuple(ranks.T), lengths)
    lcms = np.zeros_like(own)
    lcms.flat[cells] = own.flat[cells]
    size = lcms.size
    for length in lengths.tolist():
        # axis i as the middle axis of a (cells before, L_i, cells after) view
        size //= length
        side = lcms.reshape(-1, length, size)
        for k in range(1, length):
            side[:, k] = words.lcm(side[:, k], side[:, k - 1])
    hit = lcms == own
    hit.flat[0] = (cells == 0).any()
    found = np.flatnonzero(hit)[::-1]
    if len(found) > cap:
        raise ResourceCapError(f"lcm lattice exceeds the cap of {cap} points")
    return values[np.arange(len(lengths)), words.unpack(own.ravel()[found, None])]


def _closure(gens: np.ndarray, cap: int) -> np.ndarray:
    """The lcm lattice of the generator rows, with at least one column, one
    generator at a time, on packed words.

    The lattice of g_1..g_k is that of g_1..g_{k-1}, plus g_k, plus
    lcm(a, g_k) for each of its points a: every subset lcm holding g_k is
    lcm(lcm(S'), g_k).  So the points are built one generator at a time,
    never more than 2 * cap + 1 rows at once, and the closure stops as soon
    as a partial lattice passes the cap.  The generators go in increasing
    order of their largest exponent (a stable sort); every intermediate
    lattice lies inside the final one, so the order changes neither the
    rows nor the cap outcome, only how many rows each step meets.

    Each step takes the lcms of g with all points at once (:meth:`_Words.lcm`),
    sorts the points with their lcms and g ascending and drops adjacent
    duplicates: with one word a point, as on every benchmark table,
    ``np.sort`` of the 1-D words; with more, ``np.lexsort`` over the word
    columns.  At the end the order is reversed and the fields read back as
    exponents.
    """
    words = _Words.fit(gens)
    packed = words.pack(gens)
    if len(words.guard) == 1:  # one word a point: 1-D words, sorted by value
        packed = packed[:, 0]
    points = packed[:0]
    for g in packed[np.argsort(gens.max(axis=1, initial=0), kind="stable")]:
        points = np.concatenate([points, words.lcm(points, g), g[None]])
        fresh = np.ones(len(points), dtype=np.bool_)
        if points.ndim == 1:
            points.sort()
            fresh[1:] = points[1:] != points[:-1]
        else:
            points = points[np.lexsort(points.T[::-1])]
            fresh[1:] = (points[1:] != points[:-1]).any(axis=1)
        points = points[fresh]
        if len(points) > cap:
            raise ResourceCapError(f"lcm lattice exceeds the cap of {cap} points")
    return words.unpack(points.reshape(len(points), len(words.guard))[::-1])


def lcm_lattice(I: MonomialIdeal, cap: int = LATTICE_CAP) -> list[Monomial]:
    """All lcms of nonempty generator subsets, descending-lex; ValueError for
    a cap below 1, ResourceCapError when there are more than ``cap``."""
    return [Monomial(tuple(e)) for e in _lattice(_gen_matrix(I), cap).tolist()]


def _full_simplex(gens: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Which points a have K^a(I) a full simplex on a nonempty supp(a):
    some generator g divides x^a with g_i < a_i on all of supp(a), that
    is, g divides x^a / x_supp(a)."""
    words = _Words.fit(gens, points)
    packed, below = words.pack(gens), words.pack(points - (points > 0))
    out = np.zeros(len(points), dtype=np.bool_)
    step = _block(len(gens))
    for start in range(0, len(points), step):
        out[start : start + step] = words.divides(packed, below[start : start + step]).any(axis=1)
    return out & points.any(axis=1)


def _refuse_wide(points: np.ndarray, sizes: np.ndarray) -> None:
    """Refuse the first frame on more than _MAX_FRAME_VERTICES vertices,
    before any 2^v array."""
    wide = np.flatnonzero(sizes > _MAX_FRAME_VERTICES)
    if len(wide):
        raise ResourceCapError(
            f"upper Koszul frame at {Monomial(tuple(points[wide[0]].tolist()))} has "
            f"{sizes[wide[0]]} vertices; at most {_MAX_FRAME_VERTICES} are supported"
        )


def _face_rows(gens: np.ndarray, points: np.ndarray, v: int) -> np.ndarray:
    """The face sets of K^a(I) for the points a with v support variables, as
    a uint8 array of packed bit rows, one per point: bit F is set when the
    face F lies in the facet {i in supp(a) : g_i < a_i} of a generator g
    dividing x^a.  Face masks give the k-th support variable of each point
    bit k.  In each block of points, the generators dividing each point are
    found on packed words (:class:`_Words`) and only their facets are
    formed; one scatter sets the facets in a (points, 2^v) boolean array,
    and v in-place passes close it downward: pass j adds F to every face
    F + j.  A block holds at most ``_BLOCK_ROWS`` * n (point, generator,
    variable) triples and at most as many face masks, or one point.  The
    points may have fewer than v support variables: their face masks then
    lie below 2^(their size), and the passes past it change nothing."""
    size = 1 << v
    n = gens.shape[1]
    step = max(1, _BLOCK_ROWS * n // max(len(gens) * n, size))
    support = points > 0
    weights = np.left_shift(support, np.cumsum(support, axis=1) - support)
    words = _Words.fit(gens, points)
    packed, packed_points = words.pack(gens), words.pack(points)
    rows = np.empty((len(points), (size + 7) // 8), dtype=np.uint8)
    for p0 in range(0, len(points), step):
        a = points[p0 : p0 + step]
        # (point, generator) pairs with g dividing x^a, and their facets
        at, g = np.nonzero(words.divides(packed, packed_points[p0 : p0 + step]))
        facets = ((gens[g] < a[at]) * weights[p0 + at]).sum(axis=1)
        inside = np.zeros((len(a), size), dtype=np.bool_)
        inside[at, facets] = True
        for j in range(v):
            pair = inside.reshape(len(a), -1, 2, 1 << j)
            pair[:, :, 0] |= pair[:, :, 1]
        rows[p0 : p0 + step] = np.packbits(inside, axis=1)
    return rows


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D uint8 array, sorted as byte strings, and
    the index of each input row among them.  Rows are viewed as fixed-width
    byte strings, so one 1-D ``np.unique`` does the merge."""
    width = rows.shape[1]
    flat = np.ascontiguousarray(rows).view(f"V{width}")[:, 0]
    distinct, index = np.unique(flat, return_inverse=True)
    return distinct.view(np.uint8).reshape(len(distinct), width), index


@dataclass(frozen=True)
class SimplicialComplexFrame:
    """The upper Koszul complex of an ideal at one multidegree.

    Vertices are the (1-based) variables in the support of the multidegree;
    faces are stored as bitmasks over ``vertices`` (bit k set = vertices[k]
    in the face).  Face membership is monotone downward by construction; the
    empty face has mask 0.  A frame with no faces at all is the void complex,
    distinct from the irrelevant complex whose only face is the empty one.
    """

    n: int
    multidegree: Monomial
    vertices: tuple[int, ...]
    face_masks: tuple[int, ...]

    def faces(self) -> list[tuple[int, ...]]:
        """Faces as sorted variable-index tuples (the empty face included)."""
        out = []
        for mask in self.face_masks:
            out.append(
                tuple(v for k, v in enumerate(self.vertices) if mask >> k & 1)
            )
        return out


def upper_koszul(I: MonomialIdeal, a: Monomial) -> SimplicialComplexFrame:
    """Faces F of supp(a) with x^a / x_F still inside the ideal; a
    multidegree in another number of variables than the ideal's raises
    DimensionMismatchError."""
    if len(a.exponents) != I.n:
        raise DimensionMismatchError(
            f"multidegree {a} has {len(a.exponents)} variables, expected {I.n}"
        )
    point = np.array([a.exponents], dtype=np.int64)
    v = len(a.support)
    _refuse_wide(point, np.array([v]))
    row = _face_rows(_gen_matrix(I), point, v)[0]
    faces = np.flatnonzero(np.unpackbits(row, count=1 << v))
    return SimplicialComplexFrame(len(a.exponents), a, a.support, tuple(faces.tolist()))


def reduced_homology_ranks(frame: SimplicialComplexFrame, prime: int) -> dict[int, int]:
    """Nonzero reduced homology ranks of the frame, keyed by dimension: the
    row of :func:`_group_homology` on a group of one, so it takes 2^v bytes
    for a frame on v vertices, as :func:`upper_koszul` does.

    It uses the convention that the empty face is a (-1)-cell: the irrelevant
    complex {0} has rank 1 in dimension -1, the void complex has none.
    A frame on more than ``_MAX_FRAME_VERTICES`` vertices raises
    ResourceCapError before any 2^v array, and a face mask outside
    [0, 2^v) raises ValueError.
    """
    v = len(frame.vertices)
    _refuse_wide(np.array([frame.multidegree.exponents], dtype=np.int64), np.array([v]))
    bad = [m for m in frame.face_masks if not 0 <= m < 1 << v]
    if bad:
        raise ValueError(f"face mask {bad[0]} is not a subset of {v} vertices")
    inside = np.zeros(1 << v, dtype=np.bool_)
    inside[np.array(frame.face_masks, dtype=np.int64)] = True
    ranks = _group_homology(np.packbits(inside)[None], v, prime)[0]
    return {i - 1: r for i, r in enumerate(ranks.tolist()) if r}


def _group_homology(rows: np.ndarray, v: int, prime: int) -> np.ndarray:
    """The reduced homology ranks of each complex on v vertices whose face
    set is a packed bit row (bit F set when the face mask F is a face), as
    an int64 (complexes, max(v - 1, 0) + 1) array: column i holds the rank
    in dimension i - 1, which is the Betti number at homological index i
    when the complex is an upper Koszul frame.

    The ranks of a complex K are those of the pair (K, st_x K), where x is
    the vertex in the most faces (the lowest such index) and
    st_x K = {F : F + x in K}.  The star is a cone with apex x, so its
    reduced homology vanishes and H~_k(K) = H_k(K, st_x K) for every
    k >= -1.  The relative complex has one cell per face F with F + x not in
    K, and its boundary is the ordinary one with the star's faces dropped.
    No cell holds x, so the cells are written as masks on the other v - 1
    vertices; deleting x from a mask keeps the bits below every other
    vertex, and so the signs.  When x lies in no face (only the empty face,
    or no vertices) the star is empty and every face is a cell.

    Frames go in blocks of at most ``_FRAME_MASKS`` face masks, or one
    frame, unpacked to one byte per mask.  A vertex in no face is never
    the apex unless every vertex is in none, and it changes no rank, so
    rows padded with such vertices keep their ranks (see ``betti_table``).
    A frame whose relative cells lie in two adjacent sizes gets the element
    matchings on the other vertices in ascending order (see the module
    docstring), on a copy of its cells.
    Where no two adjacent sizes both hold critical cells, the homology in
    dimension s - 1 is the number of critical cells of size s.  The frames
    left go to :func:`_cell_ranks` with their relative cells: every cell gets
    its index among the cells of its frame and size, and the signed entries
    of all the (frame, size) boundary matrices are scattered into
    zero-padded stacks of matrices sorted by shape, each of at most
    ``_FRAME_MASKS`` entries or one matrix, each ranked by one
    :func:`_kernels.rank_mod_p_stack` call.  Cells of size s have dimension
    s - 1 and homology c_s - r_s - r_{s+1}, with c_s the cells of size s and
    r_s the rank of the boundary from size s to size s - 1.
    """
    p = validate_prime(prime)
    budget = _FRAME_MASKS
    w = max(v - 1, 0)  # vertices left once the apex is dropped
    out = np.empty((len(rows), w + 1), dtype=np.int64)
    step = max(1, budget >> v)
    for k0 in range(0, len(rows), step):
        inside = np.unpackbits(rows[k0 : k0 + step], axis=1, count=1 << v).view(np.bool_)
        cells = inside if not v else _relative_cells(inside, v, budget)
        h = _cells_by_size(cells, w)[-1]
        left = _adjacent_sizes(h)
        if len(left):
            # element matchings on the other vertices in turn: pass y
            # clears F and F + y wherever both are still critical
            critical = cells[left]
            for y in range(w):
                pair = critical.reshape(len(left), -1, 2, 1 << y)
                pair ^= (pair[:, :, 0] & pair[:, :, 1])[:, :, None]
            h[left] = _cells_by_size(critical, w)[-1]
            left = left[_adjacent_sizes(h[left])]
        if len(left):
            counts, ranks = _cell_ranks(cells[left], w, p, budget)
            counts -= ranks
            counts[:, :-1] -= ranks[:, 1:]
            h[left] = counts
        out[k0 : k0 + step] = h
    return out


def _adjacent_sizes(counts: np.ndarray) -> np.ndarray:
    """The rows of a (frames, sizes) count array with cells in two
    adjacent sizes."""
    return np.flatnonzero(((counts[:, :-1] > 0) & (counts[:, 1:] > 0)).any(axis=1))


def _relative_cells(inside: np.ndarray, v: int, budget: int) -> np.ndarray:
    """The cells of each frame relative to the star of its busiest vertex,
    as a (frames, 2^(v-1)) boolean array over the other vertices.

    The faces on each vertex are counted on a (2^(v-h), 2^h) view of each
    frame, h = v // 2: its column sums times a table of mask bits count
    them on the low h vertices, its row sums on the others.  Each cell mask
    is spread to the mask without the apex, and that mask and the one with
    the apex are read by fancy indexing into the flat frames, at most
    ``budget`` // 2 cells at a time (one at least), so no index array
    outgrows the block."""
    frames, half = len(inside), 1 << (v - 1)
    h = v // 2
    grid = inside.reshape(frames, 1 << (v - h), 1 << h)
    bits = (np.arange(1 << (v - h))[:, None] >> np.arange(v - h)) & 1
    counts = np.concatenate(
        [grid.sum(axis=1) @ bits[: 1 << h, :h], grid.sum(axis=2) @ bits], axis=1
    )
    low = (1 << counts.argmax(axis=1)[:, None]) - 1  # the masks below the apex
    start = np.arange(frames)[:, None] << v
    flat = inside.ravel()
    cells = np.empty((frames, half), dtype=np.bool_)
    step = max(1, budget // (2 * frames))
    for m0 in range(0, half, step):
        mask = np.arange(m0, min(m0 + step, half))
        without = start | (mask & ~low) << 1 | mask & low
        cells[:, m0 : m0 + step] = flat[without] & ~flat[without | low + 1]
    return cells


def _cells_by_size(
    cells: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cells of frames given as boolean rows over 2^w masks: each
    cell's frame, mask, mask bits and group (frame * (w + 1) + size), then
    the cell count of every group as a (frames, w + 1) int64 array."""
    frame, mask = np.nonzero(cells)
    bits = (mask[:, None] >> np.arange(w)) & 1
    group = frame * (w + 1) + bits.sum(axis=1)
    counts = np.bincount(group, minlength=len(cells) * (w + 1))
    return frame, mask, bits, group, counts.reshape(-1, w + 1)


def _cell_ranks(
    cells: np.ndarray, w: int, p: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cell counts c and boundary ranks r, both (frames, w + 1) int64 arrays
    indexed by cell size, of frames whose cells are boolean rows over 2^w
    masks; r[:, s] is the rank of the boundary from size s to size s - 1."""
    sizes = w + 1
    frame, mask, bits, group, counts = _cells_by_size(cells, w)
    counts = counts.ravel()
    ranks = np.zeros(len(counts), dtype=np.int64)
    # one matrix per (frame, size s >= 1) with cells of sizes s - 1 and s
    matrices = np.flatnonzero((counts[:-1] > 0) & (counts[1:] > 0)) + 1
    matrices = matrices[matrices % sizes > 0]
    if len(matrices):
        ranks[matrices] = _boundary_ranks(frame << w | mask, bits, group, counts, matrices, p, budget)
    return counts.reshape(-1, sizes), ranks.reshape(-1, sizes)


def _boundary_ranks(
    keys: np.ndarray,
    bits: np.ndarray,
    group: np.ndarray,
    counts: np.ndarray,
    matrices: np.ndarray,
    p: int,
    budget: int,
) -> np.ndarray:
    """Ranks of the boundary matrices of ``_cell_ranks``: the cells are the
    sorted ``keys`` (frame << w | mask) with their mask bits and groups
    (frame * (w + 1) + size), and matrix g maps group g to group g - 1."""
    # a cell's index among the cells of its frame and size, by mask
    order = np.argsort(group, kind="stable")
    local = np.empty_like(order)
    local[order] = np.arange(len(order)) - (np.cumsum(counts) - counts)[group[order]]
    # entry (face, cell): the cell less one vertex, when that face is a cell
    cell, k = np.nonzero(bits)
    # deleting bit k has sign (-1)^(set bits below k); star faces are not found
    below = (np.cumsum(bits, axis=1) - bits)[cell, k]
    face, found = _locate(keys, keys[cell] & ~np.left_shift(1, k))
    face, cell, below = face[found], cell[found], below[found]
    # a matrix wider than tall is stacked transposed: the kernel steps by column
    rows, cols = counts[matrices - 1], counts[matrices]
    matrix = np.searchsorted(matrices, group[cell])
    flip = (rows < cols)[matrix]
    face, cell = local[face], local[cell]
    face, cell = np.where(flip, cell, face), np.where(flip, face, cell)
    rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
    # the matrices sorted by shape, and the entries sorted to match
    by_shape = np.lexsort((cols, rows))
    slot = np.empty_like(by_shape)
    slot[by_shape] = np.arange(len(by_shape))
    slot = slot[matrix]
    entries = np.argsort(slot, kind="stable")
    slot, face, cell, below = slot[entries], face[entries], cell[entries], below[entries]
    rows, cols = rows[by_shape], cols[by_shape]
    ranks = np.empty(len(matrices), dtype=np.int64)
    start = 0
    while start < len(rows):
        # rows grow and cols <= rows, so n matrices from start pad to at
        # most n * rows[start + n - 1]^2 entries: take the most that fit
        padded = np.arange(1, len(rows) - start + 1) * rows[start:] ** 2
        stop = start + max(1, int(np.searchsorted(padded, budget, side="right")))
        lo, hi = np.searchsorted(slot, [start, stop]).tolist()
        stack = np.zeros((stop - start, rows[stop - 1], cols[start:stop].max()), dtype=np.int64)
        stack[slot[lo:hi] - start, face[lo:hi], cell[lo:hi]] = np.where(below[lo:hi] & 1, p - 1, 1)
        ranks[by_shape[start:stop]] = _kernels.rank_mod_p_stack(stack, p)
        start = stop
    return ranks


@dataclass(frozen=True, eq=False)
class BettiTable:
    """Multigraded Betti numbers over F_prime: the nonzero entries as aligned
    arrays in lattice order (multidegrees descending-lex, then indices
    ascending), the exponent rows an int64 (k, n) array."""

    n: int
    prime: int
    rows: np.ndarray
    index: np.ndarray
    rank: np.ndarray

    @property
    def entries(self) -> dict[tuple[int, Monomial], int]:
        """(homological index, multidegree) -> rank, in the arrays' order."""
        rows, index, rank = self.rows.tolist(), self.index.tolist(), self.rank.tolist()
        return {(i, Monomial(tuple(e))): r for e, i, r in zip(rows, index, rank)}

    @property
    def pd(self) -> int:
        """Projective dimension: the largest index present (-1 when empty)."""
        return int(self.index.max(initial=-1))

    def totals(self) -> dict[int, int]:
        levels = np.unique(self.index).tolist()
        return {i: int(self.rank[self.index == i].sum()) for i in levels}

    def shift_ideal(self, j: int) -> MonomialIdeal:
        """HS_j(I): the multidegrees at index j; ValueError for j < 0."""
        if j < 0:
            raise ValueError("homological index must be nonnegative")
        # pd first, so that a j past int64 never meets the array
        rows = self.rows[self.index == j] if j <= self.pd else self.rows[:0]
        return MonomialIdeal(self.n, [Monomial(tuple(e)) for e in rows.tolist()])

    def is_linear(self, d: int) -> bool:
        """All entries concentrated in degree d + i: a d-linear resolution."""
        return bool((self.rows.sum(axis=1) == d + self.index).all())


def betti_table(
    I: MonomialIdeal, prime: Optional[int] = None, cap: int = LATTICE_CAP
) -> BettiTable:
    """Full multigraded Betti table of the ideal over F_prime.

    Frames with equal face sets share their homology, and each point of a
    frame group takes its frame's row of ranks by one index into a
    (points, indices) array, whose nonzero entries in row-major order are
    the table: Python loops run once per frame group, never per point.
    The groups are those of :func:`_group_sizes`; the points of the first
    are read on its widest support size."""
    p = default_prime() if prime is None else validate_prime(prime)
    gens = _gen_matrix(I)
    points = _lattice(gens, cap)
    points = points[~_full_simplex(gens, points)]
    sizes = (points > 0).sum(axis=1)
    _refuse_wide(points, sizes)
    ranks = np.zeros((len(points), sizes.max(initial=0) + 1), dtype=np.int64)
    low = -1
    for v in _group_sizes(sizes).tolist():
        group = np.flatnonzero((sizes > low) & (sizes <= v))
        low = v
        rows, frame = _distinct_rows(_face_rows(gens, points[group], v))
        homology = _group_homology(rows, v, p)
        ranks[group, : homology.shape[1]] = homology[frame]
    point, index = np.nonzero(ranks)
    return BettiTable(I.n, p, points[point], index, ranks[point, index])


def _group_sizes(sizes: np.ndarray) -> np.ndarray:
    """The widest support size of each frame group, ascending: the
    narrowest sizes share one group while its points times 2^v, v the widest
    of them, stay within ``_FRAME_MASKS``, and every wider size is a group
    of its own."""
    vs, counts = np.unique(sizes, return_counts=True)
    # points times 2^v grows with each size taken, so the sizes that fit
    # are a prefix; the narrowest size is a group even when it does not fit
    fits = (np.cumsum(counts) << vs) <= _FRAME_MASKS
    return vs[max(1, int(fits.sum())) - 1 :]


def ek_betti(I: MonomialIdeal) -> tuple[dict[int, int], int]:
    """Total Betti numbers of a strongly stable ideal by the closed formula:
    beta_i = sum over generators of binomial(max(u) - 1, i).

    Returns (totals, projective dimension).  Raises when the ideal is not
    strongly stable.
    """
    from math import comb

    if not is_strongly_stable(I).holds:
        raise NotStronglyStableError(
            "the closed Betti formula applies only to strongly stable ideals"
        )
    pd = 0
    totals: dict[int, int] = {}
    for u in I.gens:
        top = max(u.max_var - 1, 0)
        pd = max(pd, top)
        for i in range(top + 1):
            totals[i] = totals.get(i, 0) + comb(top, i)
    return dict(sorted(totals.items())), pd
