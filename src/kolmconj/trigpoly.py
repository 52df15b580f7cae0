"""Exact arithmetic over finite trigonometric polynomials on the flat 2-torus.

A trig polynomial is a finite sum of terms c * cos(j x + k y) and
c * sin(j x + k y) with rational coefficients c.  All operations here
(products, derivatives, Poisson brackets, inner products) are exact:
coefficients are `fractions.Fraction` values and never touch floating
point.  Integrals over the torus come out as rational multiples of pi^2,
and only that rational factor is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

COS = "cos"
SIN = "sin"


@dataclass(frozen=True, order=True)
class Mode:
    """Canonical index of a basis function cos(jx+ky) or sin(jx+ky).

    Canonical means j > 0, or j = 0 and k > 0, or (j, k) = (0, 0) with
    cosine parity (the constant function).  Use :func:`canonicalize` to
    fold arbitrary index pairs onto this form.
    """

    j: int
    k: int
    parity: str = COS

    @property
    def laplace_weight(self) -> int:
        return self.j * self.j + self.k * self.k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.parity}({self.j},{self.k})"


CONSTANT_MODE = Mode(0, 0, COS)


def canonicalize(parity: str, j: int, k: int) -> Tuple[Optional[Mode], int]:
    """Fold (parity, j, k) to canonical form.

    Returns (mode, sign) with sign in {+1, -1}, using cos(-t) = cos(t) and
    sin(-t) = -sin(t).  Returns (None, 0) for the identically-zero function
    sin(0x + 0y).
    """
    sign = 1
    if j < 0 or (j == 0 and k < 0):
        j, k = -j, -k
        if parity == SIN:
            sign = -1
    if parity == SIN and j == 0 and k == 0:
        return None, 0
    return Mode(j, k, parity), sign


def _accumulate(acc: Dict[Mode, Fraction], parity: str, j: int, k: int, coeff: Fraction) -> None:
    mode, sign = canonicalize(parity, j, k)
    if mode is None:
        return
    acc[mode] = acc.get(mode, Fraction(0)) + sign * coeff


class TrigPoly:
    """Immutable finite trig polynomial with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Mode, Fraction]] = None):
        clean: Dict[Mode, Fraction] = {}
        if terms:
            for mode, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    clean[mode] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("TrigPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "TrigPoly":
        return cls({CONSTANT_MODE: Fraction(c)})

    @classmethod
    def cosine(cls, j: int, k: int, coeff=1) -> "TrigPoly":
        acc: Dict[Mode, Fraction] = {}
        _accumulate(acc, COS, j, k, Fraction(coeff))
        return cls(acc)

    @classmethod
    def sine(cls, j: int, k: int, coeff=1) -> "TrigPoly":
        acc: Dict[Mode, Fraction] = {}
        _accumulate(acc, SIN, j, k, Fraction(coeff))
        return cls(acc)

    @classmethod
    def from_terms(cls, items: Iterable[Tuple[str, int, int, Fraction]]) -> "TrigPoly":
        acc: Dict[Mode, Fraction] = {}
        for parity, j, k, coeff in items:
            _accumulate(acc, parity, j, k, Fraction(coeff))
        return cls(acc)

    # -- ring structure -----------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        acc = dict(self.terms)
        for mode, coeff in other.terms.items():
            acc[mode] = acc.get(mode, Fraction(0)) + coeff
        return TrigPoly(acc)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly({m: -c for m, c in self.terms.items()})

    def scaled(self, factor) -> "TrigPoly":
        f = Fraction(factor)
        return TrigPoly({m: c * f for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return self.scaled(other)
        # product-to-sum expansion, term by term
        acc: Dict[Mode, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2 / 2
                js, ks = m1.j + m2.j, m1.k + m2.k
                jd, kd = m1.j - m2.j, m1.k - m2.k
                if m1.parity == COS and m2.parity == COS:
                    _accumulate(acc, COS, jd, kd, c)
                    _accumulate(acc, COS, js, ks, c)
                elif m1.parity == SIN and m2.parity == SIN:
                    _accumulate(acc, COS, jd, kd, c)
                    _accumulate(acc, COS, js, ks, -c)
                elif m1.parity == SIN and m2.parity == COS:
                    _accumulate(acc, SIN, js, ks, c)
                    _accumulate(acc, SIN, jd, kd, c)
                else:  # cos * sin
                    _accumulate(acc, SIN, js, ks, c)
                    _accumulate(acc, SIN, jd, kd, -c)
        return TrigPoly(acc)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------

    def dx(self) -> "TrigPoly":
        acc: Dict[Mode, Fraction] = {}
        for m, c in self.terms.items():
            if m.j == 0:
                continue
            if m.parity == COS:
                _accumulate(acc, SIN, m.j, m.k, -c * m.j)
            else:
                _accumulate(acc, COS, m.j, m.k, c * m.j)
        return TrigPoly(acc)

    def dy(self) -> "TrigPoly":
        acc: Dict[Mode, Fraction] = {}
        for m, c in self.terms.items():
            if m.k == 0:
                continue
            if m.parity == COS:
                _accumulate(acc, SIN, m.j, m.k, -c * m.k)
            else:
                _accumulate(acc, COS, m.j, m.k, c * m.k)
        return TrigPoly(acc)

    def laplacian(self) -> "TrigPoly":
        return TrigPoly({m: -c * m.laplace_weight for m, c in self.terms.items()})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_coeff(self) -> Fraction:
        return self.terms.get(CONSTANT_MODE, Fraction(0))

    def coeff(self, parity: str, j: int, k: int) -> Fraction:
        mode, sign = canonicalize(parity, j, k)
        if mode is None:
            return Fraction(0)
        return sign * self.terms.get(mode, Fraction(0))

    def eval(self, x, y):
        """Float value at (x, y); x and y may be numpy arrays of one shape."""
        total = 0.0
        for m, c in self.terms.items():
            fn = np.cos if m.parity == COS else np.sin
            total = total + float(c) * fn(m.j * x + m.k * y)
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, TrigPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "TrigPoly(0)"
        parts = [f"{c}*{m!r}" for m, c in sorted(self.terms.items())]
        return "TrigPoly(" + " + ".join(parts) + ")"


def bracket(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Poisson bracket {p, q} = p_x q_y - p_y q_x, exact."""
    return p.dx() * q.dy() - p.dy() * q.dx()


def inner(p: TrigPoly, q: TrigPoly) -> Fraction:
    """L^2 pairing: returns Q with integral of p*q over the torus = Q * pi^2.

    Matching non-constant canonical modes contribute 2*c_p*c_q (the basis
    functions integrate to 2 pi^2 against themselves); the constant pair
    contributes 4*c_p*c_q (torus area 4 pi^2).
    """
    total = Fraction(0)
    for mode, cp in p.terms.items():
        cq = q.terms.get(mode)
        if cq is None:
            continue
        weight = 4 if mode == CONSTANT_MODE else 2
        total += weight * cp * cq
    return total


def grad_energy(f: TrigPoly) -> Fraction:
    """Dirichlet energy: returns Q with integral of |grad f|^2 = Q * pi^2."""
    return sum((2 * c * c * m.laplace_weight for m, c in f.terms.items()), Fraction(0))


@dataclass(frozen=True)
class KolmogorovFlow:
    """Steady stream function -cos(mx)cos(ny); Laplacian eigenvalue -(m^2+n^2)."""

    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("wavenumbers must be integers")
        if self.m < 1 or self.n < 1:
            # pure shear flows (m or n zero) generate geodesics without
            # conjugate points; they are rejected at construction
            raise ValueError("KolmogorovFlow requires m >= 1 and n >= 1")

    @property
    def lambda2(self) -> int:
        return self.m * self.m + self.n * self.n

    def stream(self) -> TrigPoly:
        """psi = -cos(mx)cos(ny) = -(1/2)[cos(mx+ny) + cos(mx-ny)]."""
        half = Fraction(-1, 2)
        return TrigPoly.from_terms([
            (COS, self.m, self.n, half),
            (COS, self.m, -self.n, half),
        ])


def misiolek_index(phi: TrigPoly, flow: KolmogorovFlow) -> Fraction:
    """Misiolek index of phi: returns Q with MI(phi) = Q * pi^2, exactly.

    MI(phi) = integral of |grad phi|^2 - (m^2+n^2) phi^2.  A negative value
    certifies a conjugate point along the flow's geodesic.  The input must
    be mean-zero; a nonzero constant coefficient is a caller bug and is
    rejected rather than silently projected away.
    """
    if phi.constant_coeff:
        raise ValueError("misiolek_index requires a mean-zero input")
    lam2 = flow.lambda2
    return sum((2 * c * c * (m.laplace_weight - lam2) for m, c in phi.terms.items()),
               Fraction(0))


def conjugate_time_bound(f: TrigPoly, flow: KolmogorovFlow) -> Optional[float]:
    """Threshold time T* for the sinusoidal-in-time variation built from f.

    If MI({psi, f}) < 0, returns T* = pi * sqrt(E / -MI') where E and MI'
    are the pi^2-normalized Dirichlet energy of f and Misiolek index; for
    every T > T* the index form is negative, so a conjugate point occurs at
    some time before T.  Returns None when the index is nonnegative.
    Raises ValueError when f lies in the kernel of f -> {psi, f}.
    """
    phi = bracket(flow.stream(), f)
    if phi.is_zero():
        raise ValueError("field is in the kernel of the bracket operator "
                         "(constant on streamlines)")
    q = misiolek_index(phi, flow)
    if q >= 0:
        return None
    return math.pi * math.sqrt(grad_energy(f) / -q)
