"""The benchmark's own cover evaluator.

A returned SPP form is a list of pseudoproducts, each an affine subspace
of B^n given as an anchor point and a basis of direction vectors.  The
evaluator enumerates each subspace's points directly and checks that the
union contains every on-point and no off-point.  It shares no code with
the program, so a wrong cover cannot pass by agreeing with the solver
that produced it.
"""

from __future__ import annotations

import numpy as np


class WrongCover(Exception):
    """A returned form does not realize the requested function."""


def subspace_points(anchor: int, basis: list[int]) -> np.ndarray:
    """Every point ``anchor ^ (any XOR of basis vectors)``."""
    points = np.array([anchor], dtype=np.int64)
    for vector in basis:
        points = np.concatenate([points, points ^ vector])
    return points


def check_cover(n: int, on: np.ndarray, dc: np.ndarray, form: dict) -> int:
    """Raise :class:`WrongCover` unless ``form`` covers ``on`` and avoids
    every point outside ``on | dc``; return its pseudoproduct count.

    ``on`` and ``dc`` are boolean arrays of length ``2**n``.
    """
    if form.get("n") != n:
        raise WrongCover(f"form is over {form.get('n')} variables, function over {n}")
    covered = np.zeros(1 << n, dtype=bool)
    products = form.get("pseudoproducts", [])
    for pc in products:
        anchor = int(pc["anchor"], 16)
        basis = [int(b, 16) for b in pc["basis"]]
        if anchor >> n or any(b >> n or b == 0 for b in basis):
            raise WrongCover(f"pseudoproduct {pc} leaves B^{n}")
        covered[subspace_points(anchor, basis)] = True
    missed = np.flatnonzero(on & ~covered)
    if missed.size:
        raise WrongCover(f"misses {missed.size} on-points, first {int(missed[0])}")
    wrong = np.flatnonzero(covered & ~on & ~dc)
    if wrong.size:
        raise WrongCover(f"covers {wrong.size} off-points, first {int(wrong[0])}")
    return len(products)
