"""Exact rational linear solves and polynomial evaluation.

Polynomials are sequences of Fraction coefficients in ascending degree order.
The module imports no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> List[Fraction]:
    """Solve A x = b for rational A and b by fraction-free (Bareiss) elimination.

    Each row of [A | b] is scaled to integers by the lcm of its denominators.
    Bareiss elimination keeps every entry an integer: each update is divided
    exactly by the previous pivot, and the last pivot is det, the scaled
    system's determinant up to sign.  det * x is then an integer vector
    (Cramer's rule), found by exact integer back-substitution.  Each column's
    pivot is the first row at or below the diagonal with a nonzero entry.
    """
    n = len(rhs)
    aug = []
    for row, b in zip(matrix, rhs):
        entries = [*row, b]
        scale = math.lcm(*(v.denominator for v in entries))
        aug.append([v.numerator * (scale // v.denominator) for v in entries])
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(col + 1, n):
            row, f = aug[r], aug[r][col]
            aug[r] = [0] * (col + 1) + [(p * row[k] - f * top[k]) // prev
                                        for k in range(col + 1, n + 1)]
        prev = p
    det = prev
    # y = det * x, from the bottom row up; every division is exact
    y = [0] * n
    for r in reversed(range(n)):
        row = aug[r]
        s = det * row[n] - sum(row[k] * y[k] for k in range(r + 1, n))
        y[r] = s // row[r]
    return [Fraction(v, det) for v in y]


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total

