"""Exact arithmetic over finite trigonometric polynomials on the flat 2-torus.

A trig polynomial is a finite sum of terms c * cos(j x + k y) and
c * sin(j x + k y) with rational coefficients c.  All operations here
(products, derivatives, Poisson brackets, inner products) are exact:
coefficients are `fractions.Fraction` values and never touch floating
point.  Integrals over the torus come out as rational multiples of pi^2,
and only that rational factor is returned.  The module imports no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

COS = "cos"
SIN = "sin"


class Mode(NamedTuple):
    """Canonical index of a basis function cos(jx+ky) or sin(jx+ky).

    Canonical means j > 0, or j = 0 and k > 0, or (j, k) = (0, 0) with
    cosine parity (the constant function).  Use :func:`canonicalize` to
    fold arbitrary index pairs onto this form.  A named tuple: modes
    compare, sort and hash as the tuple (j, k, parity).
    """

    j: int
    k: int
    parity: str = COS

    @property
    def laplace_weight(self) -> int:
        return self.j * self.j + self.k * self.k

    def __repr__(self) -> str:
        return f"{self.parity}({self.j},{self.k})"


CONSTANT_MODE = Mode(0, 0, COS)


def canonicalize(parity: str, j: int, k: int) -> Tuple[Optional[Mode], int]:
    """Fold (parity, j, k) to canonical form.

    Returns (mode, sign) with sign in {+1, -1}, using cos(-t) = cos(t) and
    sin(-t) = -sin(t).  Returns (None, 0) for the identically-zero function
    sin(0x + 0y).
    """
    j, k, sign = _fold(parity, j, k)
    return (Mode(j, k, parity), sign) if sign else (None, 0)


def _fold(parity: str, j: int, k: int) -> Tuple[int, int, int]:
    """(j, k, sign) of `canonicalize`, with sign 0 for sin(0x + 0y)."""
    if j < 0 or (j == 0 and k < 0):
        return -j, -k, -1 if parity == SIN else 1
    return j, k, 0 if parity == SIN and j == 0 and k == 0 else 1


def _add_ratio(total: List[int], num: int, den: int) -> None:
    """total[0] / total[1] += num / den, in integers; total[1] becomes the lcm
    of the two denominators, so a sum of many terms stays small."""
    old = total[1]
    if den == old:
        total[0] += num
    else:
        g = gcd(old, den)
        total[0] = total[0] * (den // g) + num * (old // g)
        total[1] = old // g * den


# a trig polynomial as integer sums: [numerator, denominator] under each
# canonical mode's plain (j, k, parity) tuple, which hashes and compares as
# the Mode does and is cheaper to build.  `_accumulate` collects them, and
# `bracket_sums` and `misiolek_gram` read any (numerator, denominator) pair
Sums = Dict[Tuple[int, int, str], List[int]]


def _accumulate(acc: Sums, parity: str, j: int, k: int, num: int, den: int) -> None:
    """Add (num / den) T(jx + ky) to acc."""
    j, k, sign = _fold(parity, j, k)
    if not sign:
        return
    old = acc.get((j, k, parity))
    if old is None:
        acc[j, k, parity] = [num * sign, den]
    else:
        _add_ratio(old, num * sign, den)


def _accumulate_product(acc: Sums, p1: str, j1: int, k1: int,
                        p2: str, j2: int, k2: int, num: int, den: int) -> None:
    """Add 2 (num / den) T1(j1 x + k1 y) * T2(j2 x + k2 y) by product-to-sum.

    With a, b the two arguments: 2 cos a cos b = cos(a-b) + cos(a+b),
    2 sin a sin b = cos(a-b) - cos(a+b), 2 sin a cos b = sin(a+b) + sin(a-b)
    and 2 cos a sin b = sin(a+b) - sin(a-b).
    """
    js, ks, jd, kd = j1 + j2, k1 + k2, j1 - j2, k1 - k2
    if p1 == COS and p2 == COS:
        _accumulate(acc, COS, jd, kd, num, den)
        _accumulate(acc, COS, js, ks, num, den)
    elif p1 == SIN and p2 == SIN:
        _accumulate(acc, COS, jd, kd, num, den)
        _accumulate(acc, COS, js, ks, -num, den)
    elif p1 == SIN:  # sin * cos
        _accumulate(acc, SIN, js, ks, num, den)
        _accumulate(acc, SIN, jd, kd, num, den)
    else:  # cos * sin
        _accumulate(acc, SIN, js, ks, num, den)
        _accumulate(acc, SIN, jd, kd, -num, den)


def product_sums(p1: str, j1: int, k1: int, p2: str = COS, j2: int = 0, k2: int = 0) -> Sums:
    """T1(j1 x + k1 y) * T2(j2 x + k2 y) as integer sums, by `_accumulate_product`.
    The second factor defaults to the constant 1, which leaves T1 alone."""
    acc: Sums = {}
    _accumulate_product(acc, p1, j1, k1, p2, j2, k2, 1, 2)
    return acc


# the derivative of each basis function: cos' = -sin, sin' = cos
_DERIVATIVE = {COS: (SIN, -1), SIN: (COS, 1)}


class TrigPoly:
    """Immutable finite trig polynomial with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Mode, Fraction]] = None):
        clean: Dict[Mode, Fraction] = {}
        if terms:
            for mode, coeff in terms.items():
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    clean[mode] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_sums(cls, acc: Sums) -> "TrigPoly":
        """The poly of `_accumulate`'s integer sums: one Fraction per mode, in
        first-touch order, and no term for a mode whose sum cancelled to 0.
        These are already the clean terms, so `__init__`'s pass is skipped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", {Mode(*key): Fraction(num, den)
                                           for key, (num, den) in acc.items() if num})
        return poly

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
        return cls.from_terms([(COS, j, k, coeff)])

    @classmethod
    def sine(cls, j: int, k: int, coeff=1) -> "TrigPoly":
        return cls.from_terms([(SIN, j, k, coeff)])

    @classmethod
    def from_terms(cls, items: Iterable[Tuple[str, int, int, Fraction]]) -> "TrigPoly":
        acc: Sums = {}
        for parity, j, k, coeff in items:
            c = Fraction(coeff)
            _accumulate(acc, parity, j, k, c.numerator, c.denominator)
        return cls._from_sums(acc)

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
        acc: Sums = {}
        for (j1, k1, p1), c1 in self.terms.items():
            n1, d1 = c1.numerator, 2 * c1.denominator
            for (j2, k2, p2), c2 in other.terms.items():
                _accumulate_product(acc, p1, j1, k1, p2, j2, k2,
                                    n1 * c2.numerator, d1 * c2.denominator)
        return TrigPoly._from_sums(acc)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------

    def _derivative(self, axis: int) -> "TrigPoly":
        # each canonical mode with a nonzero wavenumber on the axis maps to its own mode
        terms = {}
        for m, c in self.terms.items():
            if m[axis]:
                d, s = _DERIVATIVE[m.parity]
                terms[Mode(m.j, m.k, d)] = c * (s * m[axis])
        return TrigPoly(terms)

    def dx(self) -> "TrigPoly":
        return self._derivative(0)

    def dy(self) -> "TrigPoly":
        return self._derivative(1)

    def laplacian(self) -> "TrigPoly":
        return TrigPoly({m: -c * m.laplace_weight for m, c in self.terms.items()})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sums(self) -> Dict[Mode, Tuple[int, int]]:
        """The terms as (numerator, denominator) pairs, keyed as `Sums` are."""
        return {m: c.as_integer_ratio() for m, c in self.terms.items()}

    @property
    def constant_coeff(self) -> Fraction:
        return self.terms.get(CONSTANT_MODE, Fraction(0))

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
    """Poisson bracket {p, q} = p_x q_y - p_y q_x, exact: the poly of `bracket_sums`."""
    return TrigPoly._from_sums(bracket_sums(p.sums(), q.sums()))


def bracket_sums(p: Sums, q: Sums) -> Sums:
    """{p, q} of two polys given as integer sums, as integer sums: [numerator,
    denominator] per output mode, before any Fraction is built; a mode whose
    terms cancelled holds numerator 0.

    Term by term, {c1 T1(a.x), c2 T2(b.x)} = c1 c2 (a1 b2 - a2 b1) T1'(a.x) T2'(b.x),
    so each pair of terms is one product; pairs with a1 b2 = a2 b1 vanish.
    Each output mode sums its products as integers over the lcm of their
    denominators.  A Fraction is normalized, so the Fraction of a sum
    equals the sum of the products taken one at a time.
    """
    acc: Sums = {}
    others = [(j2, k2, *_DERIVATIVE[p2], n2, e2) for (j2, k2, p2), (n2, e2) in q.items()]
    for (j1, k1, p1), (n1, e1) in p.items():
        d1, s1 = _DERIVATIVE[p1]
        n1, e1 = s1 * n1, 2 * e1
        for j2, k2, d2, s2, n2, e2 in others:
            cross = j1 * k2 - k1 * j2
            if cross:
                _accumulate_product(acc, d1, j1, k1, d2, j2, k2, n1 * n2 * s2 * cross, e1 * e2)
    return acc


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
        # bool is an int subclass, and True would silently read as 1
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.m, self.n)):
            raise TypeError("wavenumbers must be integers")
        if self.m < 1 or self.n < 1:
            # the paper and this code cover m, n >= 1 only: `spectral._Chains`
            # keys its classes by k mod 2n.  Whether pure shear flows (m or n
            # zero) have conjugate points is unchecked here (ROADMAP item 23)
            raise ValueError("KolmogorovFlow requires m >= 1 and n >= 1")

    @property
    def lambda2(self) -> int:
        return self.m * self.m + self.n * self.n

    def stream_sums(self) -> Sums:
        """psi = -cos(mx)cos(ny) = -(1/2)[cos(mx+ny) + cos(mx-ny)] as integer
        sums; with m, n >= 1 both modes are canonical and distinct."""
        return {(self.m, self.n, COS): [-1, 2], (self.m, -self.n, COS): [-1, 2]}

    def stream(self) -> TrigPoly:
        """psi = -cos(mx)cos(ny), the poly of `stream_sums`."""
        return TrigPoly._from_sums(self.stream_sums())


def misiolek_index(phi: TrigPoly, flow: KolmogorovFlow) -> Fraction:
    """Misiolek index of phi: returns Q with MI(phi) = Q * pi^2, exactly.

    MI(phi) = integral of |grad phi|^2 - (m^2+n^2) phi^2.  A negative value
    certifies a conjugate point along the flow's geodesic.  The input must
    be mean-zero; a nonzero constant coefficient, a caller bug, raises
    ValueError rather than being silently projected away.
    """
    [[q]] = misiolek_gram([phi.sums()], flow)
    return q


def bracket_index(f: TrigPoly, flow: KolmogorovFlow) -> Optional[Fraction]:
    """misiolek_index(bracket(psi, f), flow) for the flow's stream psi, taken
    from the bracket's integer sums; None when the bracket is 0, that is
    when f lies in the kernel of f -> {psi, f}."""
    phi = bracket_sums(flow.stream_sums(), f.sums())
    if not any(num for num, _ in phi.values()):
        return None
    [[q]] = misiolek_gram([phi], flow)
    return q


def misiolek_pairing(p: TrigPoly, q: TrigPoly, flow: KolmogorovFlow) -> Fraction:
    """Symmetric bilinear form of the Misiolek index: MI(phi) = pairing(phi, phi).

    Returns Q with integral of grad p . grad q - (m^2+n^2) p q = Q * pi^2:
    the off-diagonal entry of `misiolek_gram`.  Both inputs must be
    mean-zero; a constant term raises ValueError.
    """
    return _pairing(_over_lcm(p.sums()), _over_lcm(q.sums()), flow.lambda2)


def misiolek_gram(polys: List[Sums], flow: KolmogorovFlow) -> List[List[Fraction]]:
    """The pairing's Gram matrix G[a][b] = misiolek_pairing(poly_a, poly_b) of
    integer sums such as `bracket_sums` gives, with one Fraction per entry.

    Each poly is put over the lcm of its denominators once, and each entry
    with a <= b is one integer sum; G[b][a] is the same Fraction.  Every
    poly must be mean-zero; a nonzero constant term raises ValueError.
    """
    lam2 = flow.lambda2
    scaled = [_over_lcm(acc) for acc in polys]
    gram: List[List[Fraction]] = [[None] * len(scaled) for _ in scaled]
    for a, p in enumerate(scaled):
        for b in range(a, len(scaled)):
            gram[a][b] = gram[b][a] = _pairing(p, scaled[b], lam2)
    return gram


def _over_lcm(acc) -> Tuple[Dict[Tuple[int, int, str], int], int]:
    """(numerators, d): the nonzero terms of integer sums over d, the lcm of
    their denominators.  A nonzero constant term raises ValueError."""
    const = acc.get(CONSTANT_MODE)
    if const is not None and const[0]:
        raise ValueError("misiolek_pairing requires mean-zero inputs")
    d = lcm(*{den for _, den in acc.values()})
    return {key: num * (d // den) for key, (num, den) in acc.items() if num}, d


def _pairing(p, q, lam2: int) -> Fraction:
    """The pairing of two polys over their lcms, from `_over_lcm`.

    Only the modes p and q share contribute, 2 n_p n_q (w - lambda^2) over
    d_p d_q each, with w = j^2 + k^2.  The numerators are summed in
    integers and one Fraction is built from the total; being normalized,
    it equals the sum taken one Fraction at a time.  A poly paired with
    itself shares every mode, so its sum needs no lookup.
    """
    (p, dp), (q, dq) = p, q
    total = 0
    if p is q:
        for (j, k, _), n in p.items():
            total += n * n * (j * j + k * k - lam2)
    else:
        if len(q) < len(p):
            p, q = q, p
        for key, n in p.items():
            other = q.get(key)
            if other is not None:
                j, k, _ = key
                total += n * other * (j * j + k * k - lam2)
    return Fraction(2 * total, dp * dq)
