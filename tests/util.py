"""Shared helpers and frozen expected values for the test suite."""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np

import polyshift
from polyshift import Monomial, MonomialIdeal, parse_ideal, parse_monomial
from polyshift import _kernels


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
