"""Exact re-derivation of the closed-form conjugate-point certificates.

The scaled Misiolek index of the two-parameter (m > n) and four-parameter
(m = n) candidate families is a quadratic form in the free coefficients.
Rather than transcribing the known closed forms, each form is built here as
the Gram matrix of the family's brackets under the exact Misiolek pairing;
the published displays then serve purely as golden values, so a mismatch
catches transcription errors on either side.  Each block that `verify`
prints is built here as data (`CheckBlock`): rows of (label, expected,
computed), every one of which can fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Optional, Sequence, Tuple

from .exactalg import poly_eval, solve_linear
from .trigpoly import KolmogorovFlow, TrigPoly, bracket, misiolek_gram, misiolek_index

F = Fraction

# Golden exact index (over pi^2) of the (1,1) certificate field.
DRIVAS_INDEX = F(-3, 200)

# Golden coefficient values for the two sign certificates, ascending in k.
OFFDIAG_EDGE_COEFFS = (-83, -520, -992, -896, -464, -128)
DIAG_MIN_NUMERATOR = (-802799, -868412, -349200, -61952, -4096)
DIAG_MIN_DENOMINATOR = (3798226, 3627508, 1298224, 206336, 12288)


@dataclass(frozen=True)
class QuadraticFormInParams:
    """Quadratic polynomial q(x) = y^T G y in named parameters x, y = (1, x_1..x_n).

    `gram` is the symmetric matrix G, exact, indexed by y: G[0][0] is the
    constant, 2 G[0][i] the coefficient of x_i, G[i][i] that of x_i^2 and
    2 G[i][j] that of x_i x_j (i != j).
    """

    variables: Tuple[str, ...]
    gram: Tuple[Tuple[Fraction, ...], ...]

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """q(point) = Y^T N Y / (e d^2), in integers: d is the lcm of the point's
        denominators and Y = d y, e that of G's and N = e G.  One Fraction is
        built from the integer total, and it is normalized, so it equals
        y^T G y summed one Fraction at a time."""
        d = lcm(*(x.denominator for x in point))
        y = [d, *(x.numerator * (d // x.denominator) for x in point)]
        e = lcm(*(g.denominator for row in self.gram for g in row))
        total = sum(ya * sum(g.numerator * (e // g.denominator) * yb for g, yb in zip(row, y))
                    for ya, row in zip(y, self.gram))
        return F(total, e * d * d)

    def coefficient(self, mono: Tuple[int, ...]) -> Fraction:
        """The coefficient of the monomial with exponents `mono`, of degree <= 2."""
        a, b = [i + 1 for i, e in enumerate(mono) for _ in range(e)] + [0] * (2 - sum(mono))
        return self.gram[a][b] if a == b else 2 * self.gram[a][b]


def _family_form(flow: KolmogorovFlow, variables: Tuple[str, ...], base: TrigPoly,
                 directions: Sequence[TrigPoly]) -> QuadraticFormInParams:
    """Scaled index MI * 4 / (pi^2 n^2) of f = base + sum_i x_i directions_i.

    The form is the Gram matrix of the family's brackets phi_0 = {psi, base},
    phi_i = {psi, directions_i} under the bilinear Misiolek pairing P: the
    index of sum_a y_a phi_a is y^T G y with G[a][b] = P(phi_a, phi_b).
    The bracket is linear in psi, so bracketing with (2/n) psi scales G by
    4 / n^2.  The only Fractions built are 2/n and the entries of G, one
    per unordered pair (`misiolek_gram`).
    """
    psi = flow.stream().scaled(F(2, flow.n))
    gram = misiolek_gram([bracket(psi, f) for f in (base, *directions)], flow)
    return QuadraticFormInParams(variables, tuple(map(tuple, gram)))


@dataclass(frozen=True)
class CheckBlock:
    """One block of `verify`: a header, then rows (label, expected, computed),
    each of which holds when its two values are equal; or, in place of rows,
    a note that checks nothing."""

    header: str
    rows: Tuple[Tuple[str, object, object], ...] = ()
    note: Optional[str] = None


class Values(tuple):
    """A tuple of exact values that prints as plain fractions: (-83, 1/2)."""

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self)) + ")"


@dataclass(frozen=True)
class CriticalPoint:
    values: Dict[str, Fraction]
    value: Fraction  # the form evaluated at the point
    # the family's form the point was solved from; None for the published ones
    form: Optional[QuadraticFormInParams] = field(default=None, compare=False)


# ---------------------------------------------------------------- m > n

def offdiag_form(m: int, n: int) -> QuadraticFormInParams:
    """Scaled index MI * 4 / (pi^2 n^2) of f = cos x (1 + a cos 2mx + b cos 2ny).

    The Gram matrix of its brackets (see `_family_form`), over y = (1, a, b).
    """
    if not (m > n >= 1):
        raise ValueError("off-diagonal family requires m > n >= 1")
    cosx = TrigPoly.cosine(1, 0)
    return _family_form(KolmogorovFlow(m, n), ("a", "b"), cosx,
                        [cosx * TrigPoly.cosine(2 * m, 0), cosx * TrigPoly.cosine(0, 2 * n)])


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

    The value is provably negative for every m > n >= 1; the `minimum
    negative` row of `family_block` checks it.
    """
    form = offdiag_form(m, n)
    g = form.gram
    point = (-g[0][1] / g[1][1], -g[0][2] / g[2][2])
    return CriticalPoint(dict(zip(form.variables, point)), form.evaluate(point), form)


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

    f = cos x (1 + a cos 2ny + b cos 4ny + c cos 2nx) + d sin x sin 2nx,
    as the Gram matrix of its brackets (see `_family_form`), over y = (1, a, b, c, d).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cosx = TrigPoly.cosine(1, 0)
    directions = [cosx * TrigPoly.cosine(0, 2 * n), cosx * TrigPoly.cosine(0, 4 * n),
                  cosx * TrigPoly.cosine(2 * n, 0), TrigPoly.sine(1, 0) * TrigPoly.sine(2 * n, 0)]
    return _family_form(KolmogorovFlow(n, n), ("a", "b", "c", "d"), cosx, directions)


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

    The value is negative for n >= 2, a theorem that the `critical value
    negative` row of `family_block` checks; at n = 1 it is reported without
    a sign assertion.
    """
    form = diag_form(n)
    # y^T G y is stationary in x where G[1:] y = 0
    g = form.gram
    sol = solve_linear([row[1:] for row in g[1:]], [-v for v in g[0][1:]])
    return CriticalPoint(dict(zip(form.variables, sol)), form.evaluate(sol), form)


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


def family_block(m: int, n: int) -> CheckBlock:
    """The `verify` block of one closed-form family: off-diagonal if m > n,
    diagonal if m = n.  It checks each coefficient of the family's form, each
    critical coordinate and the value against the published closed forms,
    then the value's sign."""
    if m != n:
        cand = offdiag_candidate(m, n)
        header = f"off-diagonal family (m,n)=({m},{n})"
        labels = ("minimum value", "minimum negative")
        ref, ref_cand = offdiag_reference(m, n), offdiag_reference_candidate(m, n)
    else:
        cand = diag_candidate(n)
        header = f"diagonal family n={n}"
        if n == 1:
            # the closed forms assume n >= 2 (mode collisions at n = 1 change
            # the index form); report the exact value without comparisons
            return CheckBlock(header, note=f"n=1 critical value reported without sign "
                                           f"assertion: {cand.value}")
        labels = ("critical value", "critical value negative")
        ref, ref_cand = diag_reference(n), diag_reference_candidate(n)
    variables = cand.form.variables
    rows = [("coeff " + ("".join(v * e for v, e in zip(variables, mono)) or "1"),
             ref[mono], cand.form.coefficient(mono)) for mono in sorted(ref, reverse=True)]
    rows += [(f"{v}0", ref_cand.values[v], cand.values[v]) for v in variables]
    rows += [(labels[0], ref_cand.value, cand.value), (labels[1], True, cand.value < 0)]
    return CheckBlock(header, tuple(rows))


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


def drivas_block() -> CheckBlock:
    """The `verify` block of the (1,1) certificate field."""
    return CheckBlock("m=n=1 certificate field", (("MI/pi^2", DRIVAS_INDEX, drivas_check()),))


# ---------------------------------------------------------------- sign certificates

def sign_certificates() -> CheckBlock:
    """Polynomial sign certificates completing the negativity proofs.

    (i) The scaled off-diagonal minimum at the worst case n = m-1, written
    in m = k+1, is the quintic OFFDIAG_EDGE_COEFFS in k, whose coefficients
    are all negative.  (ii) The diagonal minimum is the ratio
    DIAG_MIN_NUMERATOR / DIAG_MIN_DENOMINATOR of quartics in n^2 = 4+k, with
    numerator coefficients all negative and denominator coefficients all
    positive.  A sign row expects a golden tuple and computes its
    coefficients that have the required strict sign.  A sample row expects
    the golden polynomial's values and computes the pipeline's exact values:
    the quintic at k = 1..10 (m = 2..11) and the ratio at n = 2..12, more
    samples than a quintic's six coefficients, and two more than the nine
    unknowns of a ratio of quartics whose denominator is 2 at n = 0.
    """
    edge, num, den = (Values(map(F, golden)) for golden in
                      (OFFDIAG_EDGE_COEFFS, DIAG_MIN_NUMERATOR, DIAG_MIN_DENOMINATOR))
    ms, ks = range(2, 12), [F(n * n - 4) for n in range(2, 13)]
    return CheckBlock("polynomial sign certificates", (
        ("worst-case coefficients negative (in k)", edge, Values(c for c in edge if c < 0)),
        ("worst-case quintic at k=1..10, (m,n)=(k+1,k)",
         Values(poly_eval(edge, F(m - 1)) for m in ms),
         Values(offdiag_scaled_minimum(m, m - 1) for m in ms)),
        ("diagonal numerator negative (in k)", num, Values(c for c in num if c < 0)),
        ("diagonal denominator positive (in k)", den, Values(c for c in den if c > 0)),
        ("diagonal ratio at n=2..12, k=n^2-4",
         Values(poly_eval(num, k) / poly_eval(den, k) for k in ks),
         Values(diag_candidate(n).value for n in range(2, 13))),
    ))
