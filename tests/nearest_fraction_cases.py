"""Check `exactalg.nearest_fraction(x, cap)` against `Fraction(x).limit_denominator(cap)`.

The module needs only the standard library: it loads `src/kolmconj/exactalg.py`
by path, without the package (which imports numpy), so the check also runs
under interpreters that have neither numpy nor pytest:

    python tests/nearest_fraction_cases.py

prints the number of cases and each mismatch, and exits 1 on any.
`tests/test_exactalg.py` runs the same cases.

The cases, for each cap in CAPS: 0, +-0, +-1, the smallest and largest
subnormals and normals, huge floats; floats at and beside 1/(4 cap), 1/(2 cap)
and 1/cap; the midpoints of neighbouring fractions with denominators at most
cap, with the floats beside them (for caps 1 and 2 many midpoints are floats,
so `limit_denominator` meets exact ties there); and RANDOM_PER_CAP seeded floats,
uniform in [-1, 1], log-uniform in magnitude, and small-denominator fractions
pushed off by a few units in the last place.
"""

import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

CAPS = (1, 2, 7, 10 ** 3, 10 ** 6)
RANDOM_PER_CAP = 20000


def load_exactalg():
    path = Path(__file__).resolve().parents[1] / "src" / "kolmconj" / "exactalg.py"
    spec = importlib.util.spec_from_file_location("exactalg", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _beside(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def _neighbours(rng, cap):
    """Two fractions with denominators at most cap and nothing between them
    that has one: a fraction and the next term of its Farey sequence."""
    b = rng.randint(1, cap)
    a = rng.randint(-3 * b, 3 * b)
    left = Fraction(a, b)
    # the Farey neighbour c/d of a/b (reduced) satisfies c b' - a' d = 1, d <= cap
    a, b = left.numerator, left.denominator
    first = -pow(a, -1, b) % b if b > 1 else cap
    d = first + (cap - first) // b * b
    return left, Fraction((a * d + 1) // b, d)


def cases(seed=22):
    """(x, cap) pairs; more than 10^5 of them."""
    rng = random.Random(seed)
    tiny = 5e-324
    specials = [0.0, 1.0, tiny, 2 * tiny, 2.2250738585072014e-308 - tiny,
                2.2250738585072014e-308, 1e-310, 0.5, 1.5, 2.5, 1e-20, 1e300,
                sys.float_info.max, 2.0 ** 53 + 2, 1 / 3]
    for cap in CAPS:
        for x in specials:
            yield x, cap
            yield -x, cap
        for t in (0.25, 0.5, 1.0):
            for x in _beside(t / cap):
                yield x, cap
                yield -x, cap
        for _ in range(300):
            left, right = _neighbours(rng, cap)
            for x in _beside(float((left + right) / 2)):
                yield x, cap
        for _ in range(RANDOM_PER_CAP // 4):
            yield rng.uniform(-1, 1), cap
            yield rng.choice((-1, 1)) * 10.0 ** rng.uniform(-12, 6), cap
            q = rng.randint(1, 2 * cap)
            near = Fraction(rng.randint(-5 * q, 5 * q), q)
            yield near.numerator / near.denominator, cap
            x = float(near)
            for _ in range(rng.randint(1, 3)):
                x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
            yield x, cap


def mismatches(nearest_fraction, pairs):
    """The (x, cap, got, want) of each case where the two disagree in value or type."""
    bad = []
    for x, cap in pairs:
        got, want = nearest_fraction(x, cap), Fraction(x).limit_denominator(cap)
        if type(got) is not Fraction or got != want:
            bad.append((x, cap, got, want))
    return bad


if __name__ == "__main__":
    pairs = list(cases())
    bad = mismatches(load_exactalg().nearest_fraction, pairs)
    print(f"{sys.version.split()[0]}: {len(pairs)} cases, {len(bad)} mismatches")
    for x, cap, got, want in bad[:20]:
        print(f"  x={x!r} cap={cap}: {got!r}, want {want!r}")
    sys.exit(1 if bad else 0)
