"""Exact arithmetic over finite trigonometric polynomials on the flat 2-torus.

A trig polynomial is a finite sum of terms c * cos(j x + k y) and
c * sin(j x + k y) with rational coefficients c.  All operations here
(products, derivatives, Poisson brackets, inner products) are exact and
never touch floating point: a `TrigPoly` holds its coefficients as
integer numerators over one common positive denominator, and every
operation sums integers.  A `fractions.Fraction` appears only where a
rational leaves the module: in `TrigPoly.terms` and in the results of
`inner`, `grad_energy` and the Misiolek pairing.  Integrals over the
torus come out as rational multiples of pi^2, and only that rational
factor is returned.  The module imports no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


# integer numerators under each canonical mode's plain (j, k, parity) tuple,
# which hashes and compares as the Mode does and is cheaper to build
Nums = Dict[Tuple[int, int, str], int]


def _accumulate(acc: Nums, parity: str, j: int, k: int, num: int) -> None:
    """Add num T(jx + ky) to acc."""
    j, k, sign = _fold(parity, j, k)
    if sign:
        key = (j, k, parity)
        acc[key] = acc.get(key, 0) + sign * num


def _accumulate_product(acc: Nums, p1: str, j1: int, k1: int,
                        p2: str, j2: int, k2: int, num: int) -> None:
    """Add 2 num T1(j1 x + k1 y) * T2(j2 x + k2 y) by product-to-sum.

    With a, b the two arguments: 2 cos a cos b = cos(a-b) + cos(a+b),
    2 sin a sin b = cos(a-b) - cos(a+b), 2 sin a cos b = sin(a+b) + sin(a-b)
    and 2 cos a sin b = sin(a+b) - sin(a-b).
    """
    js, ks, jd, kd = j1 + j2, k1 + k2, j1 - j2, k1 - k2
    if p1 == COS and p2 == COS:
        _accumulate(acc, COS, jd, kd, num)
        _accumulate(acc, COS, js, ks, num)
    elif p1 == SIN and p2 == SIN:
        _accumulate(acc, COS, jd, kd, num)
        _accumulate(acc, COS, js, ks, -num)
    elif p1 == SIN:  # sin * cos
        _accumulate(acc, SIN, js, ks, num)
        _accumulate(acc, SIN, jd, kd, num)
    else:  # cos * sin
        _accumulate(acc, SIN, js, ks, num)
        _accumulate(acc, SIN, jd, kd, -num)


def _rational(value):
    """An int or a Fraction as it is; any other rational as a Fraction."""
    return value if type(value) in (int, Fraction) else Fraction(value)


# the derivative of each basis function: cos' = -sin, sin' = cos
_DERIVATIVE = {COS: (SIN, -1), SIN: (COS, 1)}


class TrigPoly:
    """Immutable finite trig polynomial with rational coefficients.

    `nums` maps each canonical mode with a nonzero coefficient, as a plain
    (j, k, parity) tuple, to an integer numerator over the one positive
    denominator `den`.  The pair is not normalized: the same poly may be
    held over different denominators, so equality and the hash go through
    `terms`.  `TrigPoly(terms)` is the poly of a {mode: rational} dict such
    as `terms` gives.
    """

    __slots__ = ("nums", "den")

    def __new__(cls, terms: Optional[Dict[Mode, Fraction]] = None):
        return cls.from_terms((p, j, k, c) for (j, k, p), c in (terms or {}).items())

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("TrigPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def over(cls, nums: Nums, den: int) -> "TrigPoly":
        """The poly with numerators `nums` over the positive denominator `den`;
        a zero numerator is dropped, and the keys keep their order."""
        return _of(dict(nums), den)

    @classmethod
    def zero(cls) -> "TrigPoly":
        return _of({}, 1)

    @classmethod
    def constant(cls, c) -> "TrigPoly":
        return _basis(COS, 0, 0, c)

    @classmethod
    def cosine(cls, j: int, k: int, coeff=1) -> "TrigPoly":
        return _basis(COS, j, k, coeff)

    @classmethod
    def sine(cls, j: int, k: int, coeff=1) -> "TrigPoly":
        return _basis(SIN, j, k, coeff)

    @classmethod
    def from_terms(cls, items: Iterable[Tuple[str, int, int, Fraction]]) -> "TrigPoly":
        """The sum of coeff T(jx + ky) over (parity, j, k, coeff) items, each
        folded onto its canonical mode, over the lcm of the denominators."""
        folded, den = [], 1
        for parity, j, k, coeff in items:
            c = _rational(coeff)
            j, k, sign = _fold(parity, j, k)
            if sign:
                d = c.denominator
                folded.append(((j, k, parity), sign * c.numerator, d))
                if den % d:
                    den = lcm(den, d)
        nums: Nums = {}
        for key, num, d in folded:
            nums[key] = nums.get(key, 0) + num * (den // d)
        return _of(nums, den)

    # -- ring structure -----------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = {key: n * a for key, n in self.nums.items()}
        for key, n in other.nums.items():
            nums[key] = nums.get(key, 0) + n * b
        return _of(nums, den)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return _of({key: -n for key, n in self.nums.items()}, self.den)

    def scaled(self, factor) -> "TrigPoly":
        f = _rational(factor)
        return _of({key: n * f.numerator for key, n in self.nums.items()},
                             self.den * f.denominator)

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return self.scaled(other)
        acc: Nums = {}
        others = list(other.nums.items())
        for (j1, k1, p1), n1 in self.nums.items():
            for (j2, k2, p2), n2 in others:
                _accumulate_product(acc, p1, j1, k1, p2, j2, k2, n1 * n2)
        return _of(acc, 2 * self.den * other.den)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------

    def _derivative(self, axis: int) -> "TrigPoly":
        # each canonical mode with a nonzero wavenumber on the axis maps to its own mode
        nums = {}
        for key, n in self.nums.items():
            if key[axis]:
                d, s = _DERIVATIVE[key[2]]
                nums[key[0], key[1], d] = n * s * key[axis]
        return _of(nums, self.den)

    def dx(self) -> "TrigPoly":
        return self._derivative(0)

    def dy(self) -> "TrigPoly":
        return self._derivative(1)

    def laplacian(self) -> "TrigPoly":
        return _of({(j, k, p): -n * (j * j + k * k)
                              for (j, k, p), n in self.nums.items()}, self.den)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def terms(self) -> Dict[Mode, Fraction]:
        """The coefficients as {Mode: Fraction}, in `nums`' order, built on each read."""
        return {Mode(*key): Fraction(n, self.den) for key, n in self.nums.items()}

    @property
    def constant_coeff(self) -> Fraction:
        return Fraction(self.nums.get(CONSTANT_MODE, 0), self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, TrigPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.nums:
            return "TrigPoly(0)"
        parts = [f"{c}*{m!r}" for m, c in sorted(self.terms.items())]
        return "TrigPoly(" + " + ".join(parts) + ")"


# the slots' own setters, by which `_of` passes the immutable __setattr__
_new = object.__new__
_set_nums, _set_den = TrigPoly.nums.__set__, TrigPoly.den.__set__


def _of(nums: Nums, den: int) -> TrigPoly:
    """`TrigPoly.over`, keeping `nums` itself rather than a copy: each caller
    passes a dict it has just built and holds no longer."""
    poly = _new(TrigPoly)
    _set_nums(poly, nums if 0 not in nums.values() else {key: n for key, n in nums.items() if n})
    _set_den(poly, den)
    return poly


def _basis(parity: str, j: int, k: int, coeff) -> TrigPoly:
    """coeff T(jx + ky): `TrigPoly.from_terms` of one term, built directly."""
    c = _rational(coeff)
    j, k, sign = _fold(parity, j, k)
    return _of({(j, k, parity): sign * c.numerator}, c.denominator)


def bracket(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Poisson bracket {p, q} = p_x q_y - p_y q_x, exact.

    Term by term, {c1 T1(a.x), c2 T2(b.x)} = c1 c2 (a1 b2 - a2 b1) T1'(a.x) T2'(b.x),
    so each pair of terms is one product; pairs with a1 b2 = a2 b1 vanish.
    With p over dp and q over dq, every product is an integer over
    2 dp dq, so each output mode sums integers over that one denominator.
    """
    acc: Nums = {}
    others = [(j2, k2, *_DERIVATIVE[p2], n2) for (j2, k2, p2), n2 in q.nums.items()]
    for (j1, k1, p1), n1 in p.nums.items():
        d1, s1 = _DERIVATIVE[p1]
        n1 *= s1
        for j2, k2, d2, s2, n2 in others:
            cross = j1 * k2 - k1 * j2
            if cross:
                _accumulate_product(acc, d1, j1, k1, d2, j2, k2, n1 * n2 * s2 * cross)
    return _of(acc, 2 * p.den * q.den)


def inner(p: TrigPoly, q: TrigPoly) -> Fraction:
    """L^2 pairing: returns Q with integral of p*q over the torus = Q * pi^2.

    Matching non-constant canonical modes contribute 2*c_p*c_q (the basis
    functions integrate to 2 pi^2 against themselves); the constant pair
    contributes 4*c_p*c_q (torus area 4 pi^2).
    """
    total = 0
    for key, n in p.nums.items():
        other = q.nums.get(key)
        if other is not None:
            total += (4 if key == CONSTANT_MODE else 2) * n * other
    return Fraction(total, p.den * q.den)


def grad_energy(f: TrigPoly) -> Fraction:
    """Dirichlet energy: returns Q with integral of |grad f|^2 = Q * pi^2."""
    return Fraction(2 * sum(n * n * (j * j + k * k) for (j, k, _), n in f.nums.items()),
                    f.den * f.den)


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

    def stream(self) -> TrigPoly:
        """psi = -cos(mx)cos(ny) = -(1/2)[cos(mx+ny) + cos(mx-ny)]; with
        m, n >= 1 both modes are canonical and distinct."""
        return _of({(self.m, self.n, COS): -1, (self.m, -self.n, COS): -1}, 2)


def misiolek_index(phi: TrigPoly, flow: KolmogorovFlow) -> Fraction:
    """Misiolek index of phi: returns Q with MI(phi) = Q * pi^2, exactly.

    MI(phi) = integral of |grad phi|^2 - (m^2+n^2) phi^2.  A negative value
    certifies a conjugate point along the flow's geodesic.  The input must
    be mean-zero; a nonzero constant coefficient, a caller bug, raises
    ValueError rather than being silently projected away.
    """
    [[q]] = misiolek_gram([phi], flow)
    return q


def misiolek_gram(polys: List[TrigPoly], flow: KolmogorovFlow) -> List[List[Fraction]]:
    """The Gram matrix G of the Misiolek index's symmetric bilinear form on
    `polys`, with one Fraction per entry: G[a][b] * pi^2 is the integral
    of grad p_a . grad p_b - (m^2+n^2) p_a p_b, so G[a][a] * pi^2 is
    MI(p_a).

    Each entry with a <= b is one integer sum; G[b][a] is the same
    Fraction.  Every poly must be mean-zero; a nonzero constant term
    raises ValueError.
    """
    for p in polys:
        if CONSTANT_MODE in p.nums:
            raise ValueError("misiolek_gram requires mean-zero inputs")
    lam2 = flow.lambda2
    gram: List[List[Fraction]] = [[None] * len(polys) for _ in polys]
    for a, p in enumerate(polys):
        for b in range(a, len(polys)):
            gram[a][b] = gram[b][a] = _pairing(p, polys[b], lam2)
    return gram


def _pairing(p: TrigPoly, q: TrigPoly, lam2: int) -> Fraction:
    """The pairing of two mean-zero polys.

    Only the modes p and q share contribute, 2 n_p n_q (w - lambda^2) over
    d_p d_q each, with w = j^2 + k^2.  The numerators are summed in
    integers and one Fraction is built from the total; being normalized,
    it equals the sum taken one Fraction at a time.  A poly paired with
    itself shares every mode, so its sum needs no lookup.
    """
    den = p.den * q.den
    p, q = p.nums, q.nums
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
    return Fraction(2 * total, den)
