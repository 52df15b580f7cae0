"""Exact rational linear solves, polynomial evaluation and rationalization.

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


def nearest_fraction(x: float, cap: int) -> Fraction:
    """The fraction nearest the float x with denominator at most cap.

    Equal to ``Fraction(x).limit_denominator(cap)``, by the same algorithm
    in plain ints: the continued fraction of ``x.as_integer_ratio()`` gives
    the last convergent p1/q1 within the cap and the semiconvergent beside
    it, and the nearer one is returned, p1/q1 on a tie.  Only that one is
    built as a Fraction, so the result is the same normalized value.
    """
    if cap < 1:
        raise ValueError("max_denominator should be at least 1")
    num, den = x.as_integer_ratio()
    if den <= cap:
        return Fraction(num, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > cap:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (cap - q0) // q1
    # p1/q1 lies d/(q1 den) from x and 1/(q1 (q0 + k q1)) from the other candidate
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)
