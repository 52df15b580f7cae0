import math
import random
from fractions import Fraction as F

import pytest

from kolmconj.trigpoly import (COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket,
                               canonicalize, grad_energy, inner, misiolek_gram, misiolek_index)

from conftest import (evaluate, random_trigpoly, reference_bracket_sums, reference_pairing,
                      reference_poly, reference_product_sums)


class TestCanonicalization:
    def test_negative_j_folds(self):
        mode, sign = canonicalize(COS, -2, 3)
        assert mode == Mode(2, -3, COS) and sign == 1
        mode, sign = canonicalize(SIN, -2, 3)
        assert mode == Mode(2, -3, SIN) and sign == -1

    def test_j_zero_negative_k_folds(self):
        mode, sign = canonicalize(COS, 0, -4)
        assert mode == Mode(0, 4, COS) and sign == 1
        mode, sign = canonicalize(SIN, 0, -4)
        assert mode == Mode(0, 4, SIN) and sign == -1

    def test_sin_zero_mode_vanishes(self):
        assert canonicalize(SIN, 0, 0) == (None, 0)
        assert TrigPoly.sine(0, 0).is_zero()

    def test_no_zero_coefficients_stored(self):
        p = TrigPoly.cosine(1, 0) - TrigPoly.cosine(1, 0)
        assert p.terms == {}


class TestModeContract:
    def test_immutable(self):
        with pytest.raises(AttributeError):
            Mode(1, 2).j = 3

    def test_sorts_by_j_k_parity_with_cos_default(self):
        modes = [Mode(2, -1), Mode(1, 5, SIN), Mode(0, 1), Mode(1, 5), Mode(1, -3, SIN)]
        assert Mode(1, 5).parity == COS
        assert sorted(modes) == [Mode(0, 1, COS), Mode(1, -3, SIN), Mode(1, 5, COS),
                                 Mode(1, 5, SIN), Mode(2, -1, COS)]

    def test_repr_and_laplace_weight(self):
        assert repr(Mode(1, 2)) == "cos(1,2)"
        assert repr(Mode(0, 3, SIN)) == "sin(0,3)"
        assert Mode(3, -4, SIN).laplace_weight == 25

    def test_hashes_as_its_fields(self):
        # a Mode and a TrigPoly hash as they did when Mode hashed (j, k, parity)
        assert hash(Mode(2, -3, SIN)) == hash((2, -3, SIN))
        p = TrigPoly.cosine(1, 2, F(3, 4)) + TrigPoly.sine(0, 5, F(-1, 7))
        q = TrigPoly.sine(0, 5, F(-1, 7)) + TrigPoly.cosine(1, 2, F(3, 4))
        assert hash(p) == hash(q) == hash(frozenset(
            ((m.j, m.k, m.parity), c) for m, c in p.terms.items()))


class TestProducts:
    def test_cos_squared(self):
        p = TrigPoly.cosine(1, 0)
        assert p * p == TrigPoly.constant(F(1, 2)) + TrigPoly.cosine(2, 0, F(1, 2))

    def test_sin_times_cos2x(self):
        got = TrigPoly.sine(1, 0) * TrigPoly.cosine(2, 0)
        want = TrigPoly.sine(3, 0, F(1, 2)) - TrigPoly.sine(1, 0, F(1, 2))
        assert got == want

    def test_triple_product_expansion(self):
        # n sin x cos(mx) sin(ny) for (m, n) = (2, 1)
        m, n = 2, 1
        p = TrigPoly.sine(1, 0) * TrigPoly.cosine(m, 0) * TrigPoly.sine(0, n) * n
        want = TrigPoly.from_terms([
            (COS, 3, -1, F(1, 4)), (COS, 3, 1, F(-1, 4)),
            (COS, 1, 1, F(1, 4)), (COS, 1, -1, F(-1, 4)),
        ])
        assert p == want
        # independent oracle: pointwise values on a 64x64 grid
        size = 64
        for i in range(size):
            for j in range(size):
                x = 2 * math.pi * i / size
                y = 2 * math.pi * j / size
                direct = n * math.sin(x) * math.cos(m * x) * math.sin(n * y)
                assert evaluate(p, x, y) == pytest.approx(direct, abs=1e-12)

    def test_product_matches_pointwise_oracle(self, rng):
        for _ in range(20):
            p = random_trigpoly(rng, bandwidth=4, n_terms=4)
            q = random_trigpoly(rng, bandwidth=4, n_terms=4)
            prod = p * q
            for _ in range(5):
                x = rng.uniform(0, 2 * math.pi)
                y = rng.uniform(0, 2 * math.pi)
                assert evaluate(prod, x, y) == pytest.approx(
                    evaluate(p, x, y) * evaluate(q, x, y), abs=1e-10)


class TestCalculus:
    def test_laplacian_eigenfunction(self):
        p = TrigPoly.cosine(1, 0)
        assert p.laplacian() == -p

    def test_laplacian_of_stream(self):
        for m, n in [(1, 1), (3, 2), (2, 5)]:
            flow = KolmogorovFlow(m, n)
            psi = flow.stream()
            assert psi.laplacian() == psi.scaled(-flow.lambda2)

    def test_dx(self):
        assert TrigPoly.sine(3, 2).dx() == TrigPoly.cosine(3, 2, 3)
        assert TrigPoly.sine(3, 2).dy() == TrigPoly.cosine(3, 2, 2)


class TestBracket:
    def test_bracket_self_vanishes(self):
        psi = KolmogorovFlow(3, 2).stream()
        assert bracket(psi, psi).is_zero()

    def test_constant_in_kernel(self):
        psi = KolmogorovFlow(2, 1).stream()
        assert bracket(psi, TrigPoly.constant(7)).is_zero()

    def test_bracket_of_cosx(self):
        for m, n in [(2, 1), (3, 2), (1, 1)]:
            psi = KolmogorovFlow(m, n).stream()
            got = bracket(psi, TrigPoly.cosine(1, 0))
            want = (TrigPoly.sine(1, 0) * TrigPoly.cosine(m, 0)
                    * TrigPoly.sine(0, n) * n)
            assert got == want

    def test_antisymmetry(self, rng):
        for _ in range(200):
            p = random_trigpoly(rng, bandwidth=5, n_terms=3)
            q = random_trigpoly(rng, bandwidth=5, n_terms=3)
            assert bracket(p, q) == -bracket(q, p)

    def test_leibniz(self, rng):
        for _ in range(25):
            p = random_trigpoly(rng, bandwidth=3, n_terms=3)
            q = random_trigpoly(rng, bandwidth=3, n_terms=3)
            r = random_trigpoly(rng, bandwidth=3, n_terms=3)
            assert bracket(p, q * r) == q * bracket(p, r) + r * bracket(p, q)

    def test_l2_antisymmetry_of_bracket_operator(self, rng):
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            psi = KolmogorovFlow(m, n).stream()
            f = random_trigpoly(rng, bandwidth=5, n_terms=4)
            g = random_trigpoly(rng, bandwidth=5, n_terms=4)
            assert inner(bracket(psi, f), g) == -inner(f, bracket(psi, g))

    def test_eval_oracle(self, rng):
        # bracket values agree with p_x q_y - p_y q_x evaluated pointwise
        for _ in range(10):
            p = random_trigpoly(rng, bandwidth=8, max_coeff=10, n_terms=4)
            q = random_trigpoly(rng, bandwidth=8, max_coeff=10, n_terms=4)
            br = bracket(p, q)
            px, py, qx, qy = p.dx(), p.dy(), q.dx(), q.dy()
            for _ in range(10):
                x = rng.uniform(0, 2 * math.pi)
                y = rng.uniform(0, 2 * math.pi)
                direct = (evaluate(px, x, y) * evaluate(qy, x, y)
                          - evaluate(py, x, y) * evaluate(qx, x, y))
                assert evaluate(br, x, y) == pytest.approx(direct, abs=1e-9)

    def test_steady_state(self):
        for m in range(1, 5):
            for n in range(1, 5):
                psi = KolmogorovFlow(m, n).stream()
                assert bracket(psi, psi.laplacian()).is_zero()


class TestInner:
    def test_cos_with_itself(self):
        p = TrigPoly.cosine(1, 0)
        assert inner(p, p) == 2

    def test_orthogonality(self):
        assert inner(TrigPoly.cosine(1, 0), TrigPoly.sine(1, 0)) == 0

    def test_constant_pair(self):
        one = TrigPoly.constant(1)
        assert inner(one, one) == 4


class TestMisiolekIndex:
    def test_drivas_value(self):
        from kolmconj.theorems import drivas_field
        flow = KolmogorovFlow(1, 1)
        phi = bracket(flow.stream(), drivas_field())
        assert misiolek_index(phi, flow) == F(-3, 200)

    def test_bracket_of_cosx_value(self):
        for m, n in [(2, 1), (3, 2), (4, 1), (2, 5)]:
            flow = KolmogorovFlow(m, n)
            phi = bracket(flow.stream(), TrigPoly.cosine(1, 0))
            assert misiolek_index(phi, flow) == F(n * n, 2)

    def test_bracket_of_cosx_value_resonant(self):
        # at m = 1, sin x cos x collapses to sin(2x)/2 and the value changes
        for n in (1, 4):
            flow = KolmogorovFlow(1, n)
            phi = bracket(flow.stream(), TrigPoly.cosine(1, 0))
            assert misiolek_index(phi, flow) == F(3 * n * n, 4)

    def test_zero(self):
        assert misiolek_index(TrigPoly.zero(), KolmogorovFlow(2, 1)) == 0

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError):
            misiolek_index(TrigPoly.constant(1) + TrigPoly.cosine(1, 0),
                           KolmogorovFlow(1, 1))

    def test_gradient_identity(self, rng):
        # MI/pi^2 = grad_energy(phi) - lambda^2 * <phi, phi>
        for _ in range(50):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            flow = KolmogorovFlow(m, n)
            f = random_trigpoly(rng, bandwidth=4, n_terms=4)
            phi = bracket(flow.stream(), f)
            assert (misiolek_index(phi, flow)
                    == grad_energy(phi) - flow.lambda2 * inner(phi, phi))


class TestGradEnergy:
    def test_cosx(self):
        assert grad_energy(TrigPoly.cosine(1, 0)) == 2

    def test_drivas_field(self):
        from kolmconj.theorems import drivas_field
        # termwise Parseval: 2*(1 + 5/100 + 9/400 + 25/10000) = 43/20
        assert grad_energy(drivas_field()) == F(43, 20)

    def test_constant(self):
        assert grad_energy(TrigPoly.constant(5)) == 0

    def test_grid_quadrature_crosscheck(self):
        from kolmconj.theorems import drivas_field
        f = drivas_field()
        fx, fy = f.dx(), f.dy()
        size = 64
        total = 0.0
        for i in range(size):
            for j in range(size):
                x = 2 * math.pi * i / size
                y = 2 * math.pi * j / size
                total += evaluate(fx, x, y) ** 2 + evaluate(fy, x, y) ** 2
        total *= (2 * math.pi / size) ** 2
        assert total / math.pi ** 2 == pytest.approx(float(F(43, 20)), rel=1e-12)


class TestKolmogorovFlow:
    def test_rejects_shear(self):
        with pytest.raises(ValueError):
            KolmogorovFlow(3, 0)
        with pytest.raises(ValueError):
            KolmogorovFlow(0, 1)

    @pytest.mark.parametrize("m,n", [(True, True), (True, 2), (3, False)])
    def test_rejects_bool(self, m, n):
        # bool is an int subclass: True must not be read as 1
        with pytest.raises(TypeError, match="^wavenumbers must be integers$"):
            KolmogorovFlow(m, n)

    def test_lambda2(self):
        assert KolmogorovFlow(3, 2).lambda2 == 13

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (2, 5)])
    def test_stream_is_its_two_terms(self, m, n):
        flow = KolmogorovFlow(m, n)
        half = F(-1, 2)
        want = TrigPoly.from_terms([(COS, m, n, half), (COS, m, -n, half)])
        assert list(flow.stream().terms.items()) == list(want.terms.items())

    def test_stream_values(self):
        psi = KolmogorovFlow(1, 1).stream()
        assert evaluate(psi, 0.0, 0.0) == pytest.approx(-1.0)
        assert evaluate(psi, math.pi / 2, 1.234) == pytest.approx(0.0, abs=1e-15)


def _textbook_bracket(p, q):
    return p.dx() * q.dy() - p.dy() * q.dx()


def _textbook_index(phi, flow):
    return sum((2 * c * c * (m.laplace_weight - flow.lambda2) for m, c in phi.terms.items()),
               F(0))


def _big_poly(rng, n_terms, bandwidth, max_den):
    """Random cos/sin mix over negative, zero and positive indices."""
    return TrigPoly.from_terms(
        (rng.choice((COS, SIN)), rng.randint(-bandwidth, bandwidth),
         rng.randint(-bandwidth, bandwidth),
         F(rng.randint(-max_den, max_den), rng.randint(1, max_den)))
        for _ in range(n_terms))


def _mean_zero_poly(rng, max_den=12):
    p = _big_poly(rng, rng.randint(0, 12), 5, max_den)
    return p - TrigPoly.constant(p.constant_coeff)


class TestMisiolekPairing:
    def _flows(self, rng, count=40):
        return [KolmogorovFlow(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(count)]

    def test_equals_the_integral(self, rng):
        # integral of grad p . grad q - lambda^2 p q, over pi^2, from derivatives
        for flow in self._flows(rng):
            p, q = _mean_zero_poly(rng), _mean_zero_poly(rng, 10 ** 6)
            want = (inner(p.dx(), q.dx()) + inner(p.dy(), q.dy())
                    - flow.lambda2 * inner(p, q))
            got = misiolek_gram([p, q], flow)[0][1]
            assert type(got) is F and got == want

    def test_symmetric(self, rng):
        for flow in self._flows(rng):
            p, q = _mean_zero_poly(rng), _mean_zero_poly(rng)
            assert misiolek_gram([p, q], flow)[0][1] == misiolek_gram([q, p], flow)[0][1]

    def test_bilinear(self, rng):
        for flow in self._flows(rng):
            p, q, r = (_mean_zero_poly(rng) for _ in range(3))
            a, b = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), 7)
            gram = misiolek_gram([p.scaled(a) + r.scaled(b), p, r, q], flow)
            assert gram[0][3] == a * gram[1][3] + b * gram[2][3]

    def test_diagonal_is_the_index(self, rng):
        for flow in self._flows(rng):
            phi = bracket(flow.stream(), _big_poly(rng, rng.randint(1, 20), 8, 1000))
            assert misiolek_gram([phi, phi], flow)[0][1] == misiolek_index(phi, flow)
            assert misiolek_gram([phi, TrigPoly.zero()], flow)[0][1] == 0

    def test_functions_of_the_stream_are_in_the_kernel(self):
        # a function of psi is constant on streamlines: its bracket is 0
        psi = KolmogorovFlow(2, 1).stream()
        for f in (psi, psi * psi + psi.scaled(F(1, 3)), TrigPoly.zero()):
            assert bracket(psi, f).is_zero()

    @pytest.mark.parametrize("constant_first", [True, False])
    def test_rejects_constants(self, constant_first):
        flow = KolmogorovFlow(1, 1)
        with_mean = TrigPoly.constant(F(1, 3)) + TrigPoly.cosine(1, 0)
        pair = (with_mean, TrigPoly.cosine(1, 0))
        with pytest.raises(ValueError, match="mean-zero"):
            misiolek_gram(list(pair if constant_first else pair[::-1]), flow)


class TestRepresentation:
    def test_scaling_back_gives_the_same_poly(self, rng):
        # scaling by 6 and then by 1/6 leaves numerators and denominator six
        # times larger; the poly, its hash, its terms and its pairings are p's
        flow = KolmogorovFlow(2, 1)
        for _ in range(60):
            p = _mean_zero_poly(rng)
            q = p.scaled(6).scaled(F(1, 6))
            assert q.is_zero() or (q.den, q.nums) != (p.den, p.nums)
            assert q == p and hash(q) == hash(p)
            assert list(q.terms.items()) == list(p.terms.items())
            index = misiolek_index(p, flow)
            assert misiolek_gram([p, q], flow) == [[index, index], [index, index]]


def _assert_same_poly(got, want):
    assert got.terms == want.terms
    assert all(type(c) is F for c in got.terms.values())


class TestKernelMatchesTextbook:
    """The term-pair bracket and the integer-sum index against their formulas."""

    @pytest.fixture
    def rng(self):
        return random.Random(5)

    @pytest.mark.parametrize("max_den", [1, 12, 10 ** 6])
    def test_bracket(self, rng, max_den):
        for _ in range(60):
            p = _big_poly(rng, rng.randint(1, 6), 5, max_den)
            q = _big_poly(rng, rng.randint(1, 6), 5, max_den)
            if rng.random() < 0.5:
                q = q + TrigPoly.constant(F(rng.randint(-9, 9), rng.randint(1, max_den)))
            _assert_same_poly(bracket(p, q), _textbook_bracket(p, q))

    def test_bracket_with_stream(self, rng):
        for _ in range(20):
            flow = KolmogorovFlow(rng.randint(1, 5), rng.randint(1, 5))
            f = _big_poly(rng, 40, 10, 10 ** 6)
            _assert_same_poly(bracket(flow.stream(), f), _textbook_bracket(flow.stream(), f))

    def test_zero_cross_products(self):
        # every pair of terms below has parallel wavevectors, so each vanishes
        p = TrigPoly.from_terms([(COS, 2, 1, F(3, 7)), (SIN, -4, -2, F(-5, 2)),
                                 (COS, 0, 0, F(1, 3))])
        q = TrigPoly.from_terms([(SIN, 2, 1, F(999999, 1000000)), (COS, 6, 3, 4),
                                 (SIN, -2, -1, 1), (COS, 0, 0, 2)])
        assert bracket(p, q).is_zero() and _textbook_bracket(p, q).is_zero()
        # one non-parallel term on top of them
        r = q + TrigPoly.cosine(1, -3, F(2, 9))
        _assert_same_poly(bracket(p, r), _textbook_bracket(p, r))

    @pytest.mark.parametrize("max_den", [1, 12, 10 ** 6])
    def test_index(self, rng, max_den):
        for _ in range(40):
            flow = KolmogorovFlow(rng.randint(1, 6), rng.randint(1, 6))
            phi = bracket(flow.stream(), _big_poly(rng, rng.randint(1, 30), 8, max_den))
            got = misiolek_index(phi, flow)
            assert type(got) is F and got == _textbook_index(phi, flow)

    def test_index_with_shared_denominators(self, rng):
        # many coefficients over the same few denominators, so sums collect
        flow = KolmogorovFlow(3, 2)
        dens = (1, 2, 7, 10 ** 6, 999983)
        for _ in range(30):
            phi = TrigPoly.from_terms(
                (rng.choice((COS, SIN)), rng.randint(-6, 6), rng.randint(1, 6),
                 F(rng.randint(-10 ** 6, 10 ** 6), rng.choice(dens)))
                for _ in range(25))
            got = misiolek_index(phi, flow)
            assert type(got) is F and got == _textbook_index(phi, flow)


class TestKernelMatchesReference:
    """The integer kernel against the per-operation Fraction references of
    conftest: equal values, the same term order, Fraction coefficients."""

    DENOMINATORS = (1, 2, 3, 7, 10 ** 6, 999983, 2 ** 40, 10 ** 12 + 39)

    @pytest.fixture
    def rng(self):
        return random.Random(22)

    def _poly(self, rng, parities, bandwidth, coeffs):
        return TrigPoly.from_terms(
            (rng.choice(parities), rng.randint(-bandwidth, bandwidth),
             rng.randint(-bandwidth, bandwidth), rng.choice(coeffs))
            for _ in range(rng.randint(1, 12)))

    def _pairs(self, rng):
        """Poly pairs of cos, sin and mixed parity.  Narrow bands with coefficients
        +-1 and +-1/2 make colliding products cancel; wide coefficients over
        large mixed denominators keep sums over many denominators."""
        small = [F(1), F(-1), F(1, 2), F(-1, 2)]
        for parities in ((COS,), (SIN,), (COS, SIN)):
            for _ in range(40):
                p = self._poly(rng, parities, 2, small)
                q = self._poly(rng, rng.choice(((COS,), (SIN,), (COS, SIN))), 2, small)
                yield p, q
                # q sharing p's modes: sin a cos a products reach sin(0,0)
                yield p, p + q.scaled(F(1, 3))
            for _ in range(20):
                big = [F(rng.randint(-10 ** 9, 10 ** 9), rng.choice(self.DENOMINATORS))
                       for _ in range(8)]
                yield self._poly(rng, parities, 6, big), self._poly(rng, parities, 6, big)

    @staticmethod
    def _assert_same(got, sums):
        want = reference_poly(sums)
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is F for c in got.terms.values())

    def test_bracket(self, rng):
        cancelled = 0
        for p, q in self._pairs(rng):
            for a, b in ((p, q), (q, p)):
                sums = reference_bracket_sums(a, b)
                cancelled += sum(c == 0 for c in sums.values())
                self._assert_same(bracket(a, b), sums)
        assert cancelled > 50

    def test_product(self, rng):
        cancelled = sin00 = 0
        for p, q in self._pairs(rng):
            for a, b in ((p, q), (q, p), (p, p)):
                sums = reference_product_sums(a, b)
                cancelled += sum(c == 0 for c in sums.values())
                sin00 += any(m1.parity != m2.parity and (m1.j, m1.k) == (m2.j, m2.k)
                             for m1 in a.terms for m2 in b.terms)
                self._assert_same(a * b, sums)
        assert cancelled > 50 and sin00 > 50

    def test_bracket_with_stream_of_a_rationalized_field(self, rng):
        # the certification shape: psi against many terms over distinct denominators
        for _ in range(10):
            flow = KolmogorovFlow(rng.randint(1, 4), rng.randint(1, 4))
            f = _big_poly(rng, 60, 8, 10 ** 6)
            psi = flow.stream()
            self._assert_same(bracket(psi, f), reference_bracket_sums(psi, f))

    def test_gram(self, rng):
        # the integer core on brackets, whose inputs cancel in many modes,
        # and on mean-zero polys; every entry against the
        # one-Fraction-at-a-time reference
        pairs = list(self._pairs(rng))
        cancelled = 0
        for start in range(0, len(pairs), 3):
            flow = KolmogorovFlow(rng.randint(1, 5), rng.randint(1, 5))
            polys = []
            for p, q in pairs[start:start + 3]:
                cancelled += sum(c == 0 for c in reference_bracket_sums(p, q).values())
                polys += [bracket(p, q), p - TrigPoly.constant(p.constant_coeff)]
            gram = misiolek_gram(polys, flow)
            assert [len(row) for row in gram] == [len(polys)] * len(polys)
            for row, p in zip(gram, polys):
                for got, q in zip(row, polys):
                    assert type(got) is F and got == reference_pairing(p, q, flow)
        assert cancelled > 50

    def test_gram_rejects_only_a_nonzero_constant(self):
        # a constant numerator of 0 is no constant term
        flow = KolmogorovFlow(2, 1)
        cosx = TrigPoly.cosine(1, 0, F(1, 2))
        cancelled = TrigPoly.over({(0, 0, COS): 0, (1, 0, COS): 3}, 6)
        assert misiolek_gram([cosx, cancelled], flow) == [[-2, -2], [-2, -2]]
        with pytest.raises(ValueError, match="mean-zero"):
            misiolek_gram([cosx, TrigPoly.over({(0, 0, COS): 2, (1, 0, COS): 3}, 6)], flow)

    def test_pairing(self, rng):
        for p, q in self._pairs(rng):
            flow = KolmogorovFlow(rng.randint(1, 5), rng.randint(1, 5))
            p, q = (r - TrigPoly.constant(r.constant_coeff) for r in (p, q))
            for a, b in ((p, q), (q, p), (p, p)):
                got = misiolek_gram([a, b], flow)[0][1]
                assert type(got) is F and got == reference_pairing(a, b, flow)
