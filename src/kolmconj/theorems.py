"""Exact re-derivation of the closed-form conjugate-point certificates.

The scaled Misiolek index of the two-parameter (m > n) and four-parameter
(m = n) candidate families is a quadratic form in the free coefficients.
Rather than transcribing the known closed forms, each form is reconstructed
here by sampling the exact index at rational parameter values and
interpolating; the published displays then serve purely as golden values,
so a mismatch catches transcription errors on either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .exactalg import (fit_polynomial, fit_rational, poly_eval, poly_shift,
                       solve_linear)
from .trigpoly import KolmogorovFlow, TrigPoly, bracket, misiolek_index

F = Fraction


class VerificationError(Exception):
    """An exact identity that the theory guarantees failed to hold."""


# Golden coefficient values for the two sign certificates, ascending in k.
OFFDIAG_EDGE_COEFFS = (-83, -520, -992, -896, -464, -128)
DIAG_MIN_NUMERATOR = (-802799, -868412, -349200, -61952, -4096)
DIAG_MIN_DENOMINATOR = (3798226, 3627508, 1298224, 206336, 12288)


def _monomials(nvars: int) -> List[Tuple[int, ...]]:
    """Exponent tuples of all monomials of total degree <= 2."""
    monos = [tuple(0 for _ in range(nvars))]
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 1
        monos.append(tuple(e))
    for i in range(nvars):
        for j in range(i, nvars):
            e = [0] * nvars
            e[i] += 1
            e[j] += 1
            monos.append(tuple(e))
    return monos


def _sample_points(nvars: int) -> List[Tuple[Fraction, ...]]:
    """Unisolvent sample set for quadratics: 0, e_i, 2 e_i, e_i + e_j."""
    pts = [tuple(F(0) for _ in range(nvars))]
    for i in range(nvars):
        for scale in (1, 2):
            p = [F(0)] * nvars
            p[i] = F(scale)
            pts.append(tuple(p))
    for i in range(nvars):
        for j in range(i + 1, nvars):
            p = [F(0)] * nvars
            p[i] = p[j] = F(1)
            pts.append(tuple(p))
    return pts


def _mono_eval(mono: Tuple[int, ...], point: Sequence[Fraction]) -> Fraction:
    out = F(1)
    for e, x in zip(mono, point):
        out *= x ** e
    return out


@dataclass(frozen=True)
class QuadraticFormInParams:
    """Quadratic polynomial in named parameters with exact coefficients."""

    variables: Tuple[str, ...]
    coeffs: Dict[Tuple[int, ...], Fraction]

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        return sum((c * _mono_eval(mono, point) for mono, c in self.coeffs.items()),
                   F(0))

    def coefficient(self, mono: Tuple[int, ...]) -> Fraction:
        return self.coeffs.get(mono, F(0))

    def gradient(self, point: Sequence[Fraction]) -> List[Fraction]:
        n = len(self.variables)
        grad = [F(0)] * n
        for mono, c in self.coeffs.items():
            for i in range(n):
                if mono[i]:
                    lowered = list(mono)
                    lowered[i] -= 1
                    grad[i] += c * mono[i] * _mono_eval(tuple(lowered), point)
        return grad

    def hessian(self) -> List[List[Fraction]]:
        n = len(self.variables)
        h = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                mono = [0] * n
                mono[i] += 1
                mono[j] += 1
                c = self.coeffs.get(tuple(mono), F(0))
                h[i][j] = 2 * c if i == j else c
        return h

    def hessian_minors_positive(self) -> bool:
        """Leading principal minors of the Hessian, all strictly positive.

        Minor k+1 is minor k times the Schur pivot h[k][k] - b^T H_k^-1 b,
        b = h[:k, k], so the minors are all positive iff the pivots are.
        Stopping at the first pivot <= 0 keeps every H_k solved nonsingular.
        """
        h = self.hessian()
        for k in range(len(h)):
            b = [row[k] for row in h[:k]]
            x = solve_linear([row[:k] for row in h[:k]], b)
            if h[k][k] - sum((bi * xi for bi, xi in zip(b, x)), F(0)) <= 0:
                return False
        return True


def _interpolate_quadratic(variables: Tuple[str, ...], value_at) -> QuadraticFormInParams:
    nvars = len(variables)
    monos = _monomials(nvars)
    pts = _sample_points(nvars)
    rows = [[_mono_eval(mono, pt) for mono in monos] for pt in pts]
    rhs = [value_at(pt) for pt in pts]
    sol = solve_linear(rows, rhs)
    coeffs = {mono: c for mono, c in zip(monos, sol) if c}
    return QuadraticFormInParams(variables, coeffs)


@dataclass(frozen=True)
class CriticalPoint:
    values: Dict[str, Fraction]
    value: Fraction  # the form evaluated at the point


# ---------------------------------------------------------------- m > n

def offdiag_form(m: int, n: int) -> QuadraticFormInParams:
    """Scaled index MI * 4 / (pi^2 n^2) of f = cos x (1 + a cos 2mx + b cos 2ny).

    Reconstructed by exact sampling + interpolation; quadratic in (a, b).
    """
    if not (m > n >= 1):
        raise ValueError("off-diagonal family requires m > n >= 1")
    flow = KolmogorovFlow(m, n)
    psi = flow.stream()
    cosx = TrigPoly.cosine(1, 0)

    def value_at(point):
        a, b = point
        envelope = (TrigPoly.constant(1)
                    + TrigPoly.cosine(2 * m, 0, a)
                    + TrigPoly.cosine(0, 2 * n, b))
        f = cosx * envelope
        return misiolek_index(bracket(psi, f), flow) * 4 / n ** 2

    return _interpolate_quadratic(("a", "b"), value_at)


def offdiag_reference(m: int, n: int) -> Dict[Tuple[int, int], Fraction]:
    """Published coefficients of the off-diagonal scaled index."""
    m2, n2 = m * m, n * n
    return {
        (2, 0): F(16 * m2 * m2 + 24 * m2 + 1),
        (1, 1): F(-12 * m2 - 1),
        (0, 2): F(16 * m2 * n2 + 4 * m2 + 4 * n2 + 1),
        (1, 0): F(8 * m2 + 2),
        (0, 1): F(-8 * m2 - 2),
        (0, 0): F(2),
    }


def offdiag_candidate(m: int, n: int) -> CriticalPoint:
    """Axis-wise minimizers a0 (of H(a,0)) and b0 (of H(0,b)) and the value there.

    The value is provably negative for every m > n >= 1; a nonnegative
    result is a hard failure.
    """
    form = offdiag_form(m, n)
    a0 = -form.coefficient((1, 0)) / (2 * form.coefficient((2, 0)))
    b0 = -form.coefficient((0, 1)) / (2 * form.coefficient((0, 2)))
    value = form.evaluate((a0, b0))
    if value >= 0:
        raise VerificationError(
            f"off-diagonal candidate for (m,n)=({m},{n}) is not negative: {value}")
    return CriticalPoint({"a": a0, "b": b0}, value)


def offdiag_reference_candidate(m: int, n: int) -> CriticalPoint:
    """Published closed forms for the off-diagonal candidate."""
    m2, n2 = m * m, n * n
    a0 = F(-(4 * m2 + 1), 16 * m2 * m2 + 24 * m2 + 1)
    b0 = F(1, 4 * n2 + 1)
    j = offdiag_scaled_minimum_reference(m, n)
    return CriticalPoint({"a": a0, "b": b0},
                         j / ((16 * m2 * m2 + 24 * m2 + 1) * (4 * n2 + 1)))


def offdiag_scaled_minimum(m: int, n: int) -> Fraction:
    """Candidate value with the a0/b0 denominators cleared; an integer."""
    cand = offdiag_candidate(m, n)
    m2, n2 = m * m, n * n
    return cand.value * (16 * m2 * m2 + 24 * m2 + 1) * (4 * n2 + 1)


def offdiag_scaled_minimum_reference(m: int, n: int) -> Fraction:
    m2, n2 = m * m, n * n
    return F(4 * n2 * (16 * m2 * m2 + 40 * m2 + 1)
             - 64 * m2 ** 3 - 48 * m2 * m2 + 28 * m2 + 1)


# ---------------------------------------------------------------- m = n

def diag_form(n: int) -> QuadraticFormInParams:
    """Scaled index of the four-parameter diagonal family.

    f = cos x (1 + a cos 2ny + b cos 4ny + c cos 2nx) + d sin x sin 2nx.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    flow = KolmogorovFlow(n, n)
    psi = flow.stream()
    cosx = TrigPoly.cosine(1, 0)
    sinx = TrigPoly.sine(1, 0)

    def value_at(point):
        a, b, c, d = point
        envelope = (TrigPoly.constant(1)
                    + TrigPoly.cosine(0, 2 * n, a)
                    + TrigPoly.cosine(0, 4 * n, b)
                    + TrigPoly.cosine(2 * n, 0, c))
        f = cosx * envelope + sinx * TrigPoly.sine(2 * n, 0, d)
        return misiolek_index(bracket(psi, f), flow) * 4 / n ** 2

    return _interpolate_quadratic(("a", "b", "c", "d"), value_at)


def diag_reference(n: int) -> Dict[Tuple[int, int, int, int], Fraction]:
    """Published coefficients of the diagonal scaled index."""
    n2 = n * n
    n3 = n2 * n
    n4 = n2 * n2
    return {
        (2, 0, 0, 0): F(16 * n4 + 8 * n2 + 1),
        (1, 1, 0, 0): F(64 * n4 - 4 * n2 - 1),
        (0, 2, 0, 0): F(256 * n4 + 32 * n2 + 1),
        (0, 0, 2, 0): F(16 * n4 + 24 * n2 + 1),
        (0, 0, 0, 2): F(16 * n4 + 24 * n2 + 1),
        (1, 0, 0, 1): F(8 * n3 + 6 * n),
        (1, 0, 1, 0): F(-12 * n2 - 1),
        (0, 0, 1, 1): F(-64 * n3 - 16 * n),
        (1, 0, 0, 0): F(-8 * n2 - 2),
        (0, 0, 1, 0): F(8 * n2 + 2),
        (0, 0, 0, 1): F(-8 * n),
        (0, 0, 0, 0): F(2),
    }


def diag_candidate(n: int) -> CriticalPoint:
    """Unique critical point of the diagonal family, by exact 4x4 solve.

    Negativity of the value is asserted for n >= 2 (where it is a theorem);
    at n = 1 the value is reported without a sign assertion.
    """
    form = diag_form(n)
    # a quadratic's gradient at x is H x + (its gradient at 0)
    sol = solve_linear(form.hessian(), [-g for g in form.gradient([F(0)] * 4)])
    value = form.evaluate(sol)
    if n >= 2 and value >= 0:
        raise VerificationError(f"diagonal candidate for n={n} is not negative: {value}")
    return CriticalPoint(dict(zip(("a", "b", "c", "d"), sol)), value)


def diag_reference_candidate(n: int) -> CriticalPoint:
    """Published closed forms for the diagonal critical point and its value."""
    t = n * n
    p = 6144 * t ** 4 + 4864 * t ** 3 + 920 * t ** 2 + 58 * t + 1
    a0 = F((8 * t + 1) * (256 * t ** 2 + 32 * t + 1), p)
    b0 = F(-(512 * t ** 3 + 32 * t ** 2 - 12 * t - 1), 2 * p)
    c0 = F(-(49152 * t ** 5 + 59392 * t ** 4 + 17088 * t ** 3
             + 1952 * t ** 2 + 88 * t + 1),
           2 * (98304 * t ** 6 + 28672 * t ** 5 - 18048 * t ** 4
                - 1568 * t ** 3 + 472 * t ** 2 + 50 * t + 1))
    d0 = F(-n * (32768 * t ** 4 + 19456 * t ** 3 + 3328 * t ** 2 + 196 * t + 3),
           (16 * t ** 2 - 8 * t + 1) * p)
    value = F(-4096 * t ** 4 + 3584 * t ** 3 + 1008 * t ** 2 + 68 * t + 1,
              12288 * t ** 4 + 9728 * t ** 3 + 1840 * t ** 2 + 116 * t + 2)
    return CriticalPoint({"a": a0, "b": b0, "c": c0, "d": d0}, value)


# ---------------------------------------------------------------- m = n = 1

def drivas_field() -> TrigPoly:
    """Sine-dominated test field that certifies the (1,1) flow."""
    return (TrigPoly.sine(1, 0)
            + TrigPoly.sine(1, 2, F(1, 10))
            + TrigPoly.sine(3, 0, F(-1, 20))
            + TrigPoly.sine(5, 0, F(1, 100)))


def drivas_check() -> Fraction:
    """Exact Misiolek value (over pi^2) of the (1,1) certificate; equals -3/200."""
    flow = KolmogorovFlow(1, 1)
    return misiolek_index(bracket(flow.stream(), drivas_field()), flow)


# ---------------------------------------------------------------- sign certificates

@dataclass(frozen=True)
class SignReport:
    offdiag_edge_coeffs: Tuple[Fraction, ...]   # worst case n = m-1, m = k+1, in k
    diag_min_numerator: Tuple[Fraction, ...]    # diagonal minimum, n^2 = 4+k, in k
    diag_min_denominator: Tuple[Fraction, ...]
    offdiag_spot_checks: Dict[int, Fraction]    # m -> scaled minimum at (m, m-1)
    diag_spot_checks: Dict[int, Fraction]       # n -> diagonal minimum value


def sign_certificates(max_check: int = 10) -> SignReport:
    """Polynomial sign certificates completing the negativity proofs.

    (i) The scaled off-diagonal minimum at the worst case n = m-1, written
    in m = k+1, is a quintic in k whose coefficients must all be negative.
    (ii) The diagonal minimum is a ratio of quartics in n^2; written in
    n^2 = 4+k, the numerator coefficients must all be negative and the
    denominator coefficients all positive.  Both polynomials are obtained
    by exact interpolation from the sampled pipeline, over-determined by
    extra samples, and compared against the stored golden coefficients.
    """
    if max_check < 1:
        raise ValueError("max_check must be >= 1")

    # (i) worst-case off-diagonal polynomial in k
    ks = [F(k) for k in range(1, 7)]
    vals = [offdiag_scaled_minimum(k + 1, k) for k in range(1, 7)]
    edge = fit_polynomial(ks, vals)
    if poly_eval(edge, F(7)) != offdiag_scaled_minimum(8, 7):
        raise VerificationError("worst-case off-diagonal value is not a quintic in k")
    if any(c >= 0 for c in edge):
        raise VerificationError(f"off-diagonal edge coefficients not all negative: {edge}")
    if tuple(edge) != tuple(F(c) for c in OFFDIAG_EDGE_COEFFS):
        raise VerificationError(f"off-diagonal edge coefficients mismatch: {edge}")

    # (ii) diagonal minimum as a ratio of quartics in t = n^2
    diag_values = {n: diag_candidate(n).value for n in range(2, 13)}
    ts = [F(n * n) for n in range(2, 11)]
    hs = [diag_values[n] for n in range(2, 11)]
    num_t, den_t = fit_rational(ts, hs, 4, 4, F(2))
    for n in (11, 12):
        t = F(n * n)
        if poly_eval(num_t, t) != diag_values[n] * poly_eval(den_t, t):
            raise VerificationError("diagonal minimum is not a ratio of quartics in n^2")
    num_k = poly_shift(num_t, F(4))
    den_k = poly_shift(den_t, F(4))
    if any(c >= 0 for c in num_k) or any(c <= 0 for c in den_k):
        raise VerificationError(
            f"diagonal sign certificate failed: num={num_k}, den={den_k}")
    if tuple(num_k) != tuple(F(c) for c in DIAG_MIN_NUMERATOR):
        raise VerificationError(f"diagonal numerator coefficients mismatch: {num_k}")
    if tuple(den_k) != tuple(F(c) for c in DIAG_MIN_DENOMINATOR):
        raise VerificationError(f"diagonal denominator coefficients mismatch: {den_k}")

    # (iii) integer spot checks
    offdiag_spots = {}
    for m in range(2, max_check + 2):
        val = offdiag_scaled_minimum(m, m - 1)
        if val >= 0:
            raise VerificationError(f"spot check failed at (m,n)=({m},{m - 1})")
        offdiag_spots[m] = val
    diag_spots = {}
    for n in range(2, max_check + 1):
        val = diag_values.get(n)
        if val is None:
            val = diag_candidate(n).value
        if val >= 0:
            raise VerificationError(f"spot check failed at n={n}")
        diag_spots[n] = val

    return SignReport(tuple(edge), tuple(num_k), tuple(den_k),
                      offdiag_spots, diag_spots)
