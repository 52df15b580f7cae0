import fractions
import sys
from fractions import Fraction as F

import pytest

from kolmconj import theorems
from kolmconj.theorems import (DIAG_MIN_DENOMINATOR, DIAG_MIN_NUMERATOR,
                               OFFDIAG_EDGE_COEFFS, diag_candidate, diag_form, diag_reference,
                               diag_reference_candidate, drivas_check,
                               drivas_field, offdiag_candidate, offdiag_form,
                               offdiag_reference, offdiag_reference_candidate,
                               offdiag_scaled_minimum,
                               offdiag_scaled_minimum_reference,
                               QuadraticFormInParams, sign_certificates)
from kolmconj.trigpoly import COS, SIN, KolmogorovFlow, TrigPoly, bracket, misiolek_index

from conftest import (hessian_minors_positive, monomials, random_trigpoly, reference_bracket_sums,
                      reference_evaluate, reference_pairing, reference_poly)


def _linear(form):
    """The form's linear coefficients, its gradient at 0."""
    n = len(form.variables)
    return [form.coefficient(tuple(int(i == j) for j in range(n))) for i in range(n)]


def _hessian(form):
    """The form's second derivatives, from its coefficients of x_i x_j and x_i^2."""
    n = len(form.variables)
    return [[form.coefficient(tuple(int(k == i) + int(k == j) for k in range(n))) * (1 + (i == j))
             for j in range(n)] for i in range(n)]


def _gradient(form, point):
    """H x + g, a quadratic's gradient at x: the system `diag_candidate` solves."""
    return [sum((hij * xj for hij, xj in zip(row, point)), gi)
            for row, gi in zip(_hessian(form), _linear(form))]


class TestOffdiagForm:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 7)
                                     for n in range(1, m)])
    def test_matches_reference(self, m, n):
        form = offdiag_form(m, n)
        ref = offdiag_reference(m, n)
        assert monomials(form) == {k: v for k, v in ref.items() if v}

    def test_golden_values_32(self):
        cand = offdiag_candidate(3, 2)
        assert cand.values["a"] == F(-37, 1513)
        assert cand.values["b"] == F(1, 17)
        assert cand.value == F(-23779, 25721)

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (4, 3), (6, 5)])
    def test_candidate_matches_closed_form(self, m, n):
        cand = offdiag_candidate(m, n)
        ref = offdiag_reference_candidate(m, n)
        assert cand.values == ref.values
        assert cand.value == ref.value

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (5, 4)])
    def test_restricted_first_order_conditions(self, m, n):
        # a0 minimizes H(a, 0) and b0 minimizes H(0, b): the corresponding
        # partial derivative vanishes on its own axis
        form = offdiag_form(m, n)
        cand = offdiag_candidate(m, n)
        a0, b0 = cand.values["a"], cand.values["b"]
        assert _gradient(form, (a0, F(0)))[0] == 0
        assert _gradient(form, (F(0), b0))[1] == 0

    def test_hessian_positive_definite(self):
        for m, n in [(2, 1), (4, 2), (6, 1)]:
            assert hessian_minors_positive(offdiag_form(m, n))

    def test_scaled_minimum_is_integer(self):
        for m, n in [(2, 1), (3, 2), (5, 3)]:
            val = offdiag_scaled_minimum(m, n)
            assert val.denominator == 1
            assert val == offdiag_scaled_minimum_reference(m, n)

    def test_j21_golden(self):
        assert offdiag_scaled_minimum(2, 1) == F(-3083)

    def test_monotone_in_n(self):
        # for fixed m the scaled minimum increases with n, so n = m-1 is
        # the worst case checked by the edge certificate
        for m in range(2, 11):
            vals = [offdiag_scaled_minimum(m, n) for n in range(1, m)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert all(v < 0 for v in vals)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            offdiag_form(2, 2)
        with pytest.raises(ValueError):
            offdiag_form(1, 2)


class TestDiagForm:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_reference(self, n):
        form = diag_form(n)
        ref = diag_reference(n)
        assert monomials(form) == {k: v for k, v in ref.items() if v}

    def test_n1_form_differs_from_reference(self):
        # mode collisions at n = 1 change the quadratic form, so the
        # closed-form displays only apply from n = 2 on
        assert monomials(diag_form(1)) != {k: v for k, v in diag_reference(1).items() if v}

    def test_golden_values_n2(self):
        cand = diag_candidate(2)
        assert cand.values["a"] == F(139425, 1899113)
        assert cand.values["b"] == F(-33231, 3798226)
        assert cand.values["c"] == F(-66661217, 854600850)
        assert cand.values["d"] == F(-19375654, 427300425)
        assert cand.value == F(-802799, 3798226)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_candidate_matches_closed_form(self, n):
        cand = diag_candidate(n)
        ref = diag_reference_candidate(n)
        assert cand.values == ref.values
        assert cand.value == ref.value

    @pytest.mark.parametrize("n", range(2, 6))
    def test_gradient_vanishes(self, n):
        form = diag_form(n)
        cand = diag_candidate(n)
        point = tuple(cand.values[v] for v in ("a", "b", "c", "d"))
        assert _gradient(form, point) == [0, 0, 0, 0]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_hessian_positive_definite(self, n):
        assert hessian_minors_positive(diag_form(n))

    def test_n1_candidate_reported_without_sign_assertion(self):
        cand = diag_candidate(1)
        assert set(cand.values) == {"a", "b", "c", "d"}
        assert cand.value == diag_form(1).evaluate(
            tuple(cand.values[v] for v in ("a", "b", "c", "d")))


@pytest.mark.parametrize("quadratic,expected", [
    ([[0, 0], [0, 1]], False),                   # b^2: leading entry 0
    ([[1, 0], [0, -1]], False),                  # a^2 - b^2: indefinite, diagonal
    ([[1, F(3, 2)], [F(3, 2), 1]], False),       # a^2 + 3ab + b^2: indefinite through ab
    ([[1, F(1, 2)], [F(1, 2), 1]], True),        # a^2 + ab + b^2
])
def test_hessian_minors_positive(quadratic, expected):
    gram = ((F(0),) * 3, *((F(0), *map(F, row)) for row in quadratic))
    assert hessian_minors_positive(QuadraticFormInParams(("a", "b"), gram)) is expected


def _rational_points(rng, nvars, count=5):
    return [tuple(F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(nvars))
            for _ in range(count)]


def _scaled_index(flow, f):
    return misiolek_index(bracket(flow.stream(), f), flow) * 4 / flow.n ** 2


@pytest.mark.parametrize("m,n", [(2, 1), (7, 3), (27, 1), (30, 29)])
def test_offdiag_form_is_the_exact_index(rng, m, n):
    form = offdiag_form(m, n)
    for a, b in _rational_points(rng, 2):
        f = TrigPoly.cosine(1, 0) * (TrigPoly.constant(1) + TrigPoly.cosine(2 * m, 0, a)
                                     + TrigPoly.cosine(0, 2 * n, b))
        assert form.evaluate((a, b)) == _scaled_index(KolmogorovFlow(m, n), f)


@pytest.mark.parametrize("n", [1, 2, 9, 30])
def test_diag_form_is_the_exact_index(rng, n):
    form = diag_form(n)
    for a, b, c, d in _rational_points(rng, 4):
        envelope = (TrigPoly.constant(1) + TrigPoly.cosine(0, 2 * n, a)
                    + TrigPoly.cosine(0, 4 * n, b) + TrigPoly.cosine(2 * n, 0, c))
        f = TrigPoly.cosine(1, 0) * envelope + TrigPoly.sine(1, 0) * TrigPoly.sine(2 * n, 0, d)
        assert form.evaluate((a, b, c, d)) == _scaled_index(KolmogorovFlow(n, n), f)


def _polarized_form(flow, variables, base, directions):
    """Reference: the family form's nonzero monomial coefficients, expanded by
    polarization of the index alone.

    MI(phi_0) is the constant and MI(phi_i) the coefficient of x_i^2;
    MI(p + q) - MI(p) - MI(q) is that of x_i (p, q = phi_0, phi_i) and of
    x_i x_j (p, q = phi_i, phi_j).
    """
    psi = flow.stream()
    phi0 = bracket(psi, base)
    phis = [bracket(psi, d) for d in directions]
    squares = [misiolek_index(phi, flow) for phi in phis]
    const = misiolek_index(phi0, flow)
    nvars = len(variables)

    def mono(*indices):
        return tuple(indices.count(i) for i in range(nvars))

    coeffs = {mono(): const}
    for i, phi in enumerate(phis):
        coeffs[mono(i)] = misiolek_index(phi0 + phi, flow) - const - squares[i]
        coeffs[mono(i, i)] = squares[i]
        for j in range(i + 1, nvars):
            coeffs[mono(i, j)] = (misiolek_index(phi + phis[j], flow)
                                  - squares[i] - squares[j])
    scale = F(4, flow.n ** 2)
    return {k: c * scale for k, c in coeffs.items() if c}


def _random_families(rng):
    """30 seeded random families: (flow, variables, base, directions)."""
    for _ in range(30):
        flow = KolmogorovFlow(rng.randint(1, 5), rng.randint(1, 5))
        nvars = rng.randint(1, 4)
        base, *directions = (random_trigpoly(rng, bandwidth=5, n_terms=4)
                             for _ in range(nvars + 1))
        yield flow, tuple("abcd"[:nvars]), base, directions


def _published_family(m, n):
    """(flow, variables, base, directions) of the off-diagonal family if
    m > n, of the diagonal one if m = n, written out from their displays."""
    cosx = TrigPoly.cosine(1, 0)
    if m > n:
        return (KolmogorovFlow(m, n), ("a", "b"), cosx,
                [cosx * TrigPoly.cosine(2 * m, 0), cosx * TrigPoly.cosine(0, 2 * n)])
    directions = [cosx * TrigPoly.cosine(0, 2 * n), cosx * TrigPoly.cosine(0, 4 * n),
                  cosx * TrigPoly.cosine(2 * n, 0), TrigPoly.sine(1, 0) * TrigPoly.sine(2 * n, 0)]
    return KolmogorovFlow(n, n), ("a", "b", "c", "d"), cosx, directions


def _pairing_matrix(flow, base, directions):
    """F(4, n^2) times the pairing of the family's brackets, entry by entry,
    from conftest's one-Fraction-at-a-time references."""
    psi = flow.stream()
    phis = [reference_poly(reference_bracket_sums(psi, f)) for f in (base, *directions)]
    return tuple(tuple(F(4, flow.n ** 2) * reference_pairing(p, q, flow) for q in phis)
                 for p in phis)


class TestFamilyFormByPairing:
    """`_family_form` pairs the brackets; the polarized index is the reference."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_offdiag_equals_polarization(self, m):
        for n in range(1, m):
            ref = _polarized_form(*_published_family(m, n))
            assert monomials(offdiag_form(m, n)) == ref

    @pytest.mark.parametrize("n", range(1, 13))
    def test_diag_equals_polarization(self, n):
        ref = _polarized_form(*_published_family(n, n))
        assert monomials(diag_form(n)) == ref

    @pytest.mark.parametrize("m", range(1, 31))
    def test_published_gram_is_the_pairing_matrix(self, m):
        # every published family with m <= 30: the form's G is the pairing
        # matrix of its brackets, entry for entry and in both halves
        for n in range(1, m + 1):
            flow, _, base, directions = _published_family(m, n)
            form = offdiag_form(m, n) if m > n else diag_form(n)
            assert form.gram == _pairing_matrix(flow, base, directions)
            assert all(type(g) is F for row in form.gram for g in row)

    def test_published_forms_build_one_fraction_per_gram_entry(self, monkeypatch):
        # every published family with m <= 30: the fields, the scaled stream
        # and the brackets stay integers, so the only Fractions trigpoly
        # builds are G's entries with a <= b, k (k + 1) / 2 for k brackets
        built = []

        def count(new):
            def counting(cls, *args, **kwargs):
                frame = sys._getframe(1)
                while frame.f_code.co_filename == fractions.__file__:
                    frame = frame.f_back  # Fraction arithmetic, on its caller's count
                built.append(frame.f_globals.get("__name__"))
                return new(cls, *args, **kwargs)
            return counting

        monkeypatch.setattr(F, "__new__", staticmethod(count(F.__new__)))
        if hasattr(F, "_from_coprime_ints"):  # Python 3.12+ arithmetic
            inner = F._from_coprime_ints.__func__
            monkeypatch.setattr(F, "_from_coprime_ints", classmethod(count(inner)))

        def fractions_in_trigpoly(build):
            built.clear()
            build()
            return built.count("kolmconj.trigpoly")

        assert fractions_in_trigpoly(lambda: TrigPoly.cosine(1, 0, F(1, 2)).terms) == 1
        ints = [(COS, 1, 0, 1), (SIN, 0, 2, -3)]
        assert fractions_in_trigpoly(lambda: TrigPoly.from_terms(ints)) == 0
        for m in range(1, 31):
            for n in range(1, m):
                assert fractions_in_trigpoly(lambda: offdiag_form(m, n)) == 6, (m, n)
            assert fractions_in_trigpoly(lambda: diag_form(m)) == 15, m

    def test_random_directions_equal_polarization(self, rng):
        for flow, variables, base, directions in _random_families(rng):
            form = theorems._family_form(flow, variables, base, directions)
            assert form.variables == variables
            assert monomials(form) == _polarized_form(flow, variables, base, directions)

    def test_random_gram_is_the_pairing_matrix(self, rng):
        for flow, variables, base, directions in _random_families(rng):
            gram = theorems._family_form(flow, variables, base, directions).gram
            assert gram == tuple(zip(*gram))
            assert gram == _pairing_matrix(flow, base, directions)


class TestEvaluation:
    @pytest.mark.parametrize("nvars", [1, 2, 4])
    def test_evaluate_matches_powers(self, rng, nvars):
        # y^T G y against every monomial's coefficient times x ** e
        for point in _rational_points(rng, nvars, count=10):
            gram = [[None] * (nvars + 1) for _ in range(nvars + 1)]
            for a in range(nvars + 1):
                for b in range(a, nvars + 1):
                    gram[a][b] = gram[b][a] = F(rng.randint(-9, 9), rng.randint(1, 9))
            form = QuadraticFormInParams(tuple("abcd"[:nvars]), tuple(map(tuple, gram)))
            want = F(0)
            for mono, c in monomials(form).items():
                term = c
                for e, x in zip(mono, point):
                    term *= x ** e
                want += term
            assert form.evaluate(point) == want

    @pytest.mark.parametrize("nvars", [0, 1, 2, 4])
    def test_evaluate_matches_reference(self, rng, nvars):
        # integer Y^T N Y / (e d^2) against y^T G y one Fraction at a time, over
        # large mixed denominators, zeros and integers
        dens = (1, 2, 3, 7, 10 ** 6, 999983, 2 ** 40, 10 ** 12 + 39)

        def entry():
            return F(rng.choice((0, 1, rng.randint(-10 ** 9, 10 ** 9))), rng.choice(dens))

        for _ in range(40):
            gram = [[None] * (nvars + 1) for _ in range(nvars + 1)]
            for a in range(nvars + 1):
                for b in range(a, nvars + 1):
                    gram[a][b] = gram[b][a] = entry()
            form = QuadraticFormInParams(tuple("abcd"[:nvars]), tuple(map(tuple, gram)))
            point = [entry() for _ in range(nvars)]
            got = form.evaluate(point)
            assert type(got) is F and got == reference_evaluate(form, point)

    @pytest.mark.parametrize("n", [1, 2, 9, 30])
    def test_candidates_evaluate_as_the_reference(self, n):
        for form, values in ((diag_form(n), diag_candidate(n).values),
                             (offdiag_form(n + 1, n), offdiag_candidate(n + 1, n).values)):
            point = list(values.values())
            assert form.evaluate(point) == reference_evaluate(form, point)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_linear_coefficients_are_the_gradient_at_zero(self, rng, n):
        # f(x) = f(0) + g.x + x^T H x / 2, so H x + g is the gradient of f
        form = diag_form(n)
        h, g = _hessian(form), _linear(form)
        for x in _rational_points(rng, 4):
            quadratic = sum((xi * hij * xj for xi, row in zip(x, h) for hij, xj in zip(row, x)),
                            F(0))
            linear = sum((gi * xi for gi, xi in zip(g, x)), F(0))
            assert form.evaluate(x) == form.evaluate([F(0)] * 4) + linear + quadratic / 2


class TestDrivas:
    def test_value(self):
        assert drivas_check() == F(-3, 200)

    def test_scaling(self):
        # MI is homogeneous of degree 2 in the test field
        flow = KolmogorovFlow(1, 1)
        phi = bracket(flow.stream(), drivas_field().scaled(2))
        assert misiolek_index(phi, flow) == F(-3, 50)

    def test_truncation_changes_value(self):
        # dropping the last correction term loses the certificate value
        flow = KolmogorovFlow(1, 1)
        truncated = drivas_field() - TrigPoly.sine(5, 0, F(1, 100))
        assert misiolek_index(bracket(flow.stream(), truncated), flow) != F(-3, 200)


GOLDENS = (("OFFDIAG_EDGE_COEFFS", OFFDIAG_EDGE_COEFFS),
           ("DIAG_MIN_NUMERATOR", DIAG_MIN_NUMERATOR),
           ("DIAG_MIN_DENOMINATOR", DIAG_MIN_DENOMINATOR))
POSITIONS = [(name, i) for name, golden in GOLDENS for i in range(len(golden))]


def _failing_rows():
    """The positions of the sign block's rows whose two values differ."""
    return [i for i, (_, expected, computed) in enumerate(sign_certificates().rows)
            if expected != computed]


class TestSignCertificates:
    # the block's rows: the edge quintic's signs and samples, the diagonal
    # numerator's and denominator's signs, and the diagonal ratio's samples
    SIGN_ROW = {"OFFDIAG_EDGE_COEFFS": 0, "DIAG_MIN_NUMERATOR": 2, "DIAG_MIN_DENOMINATOR": 3}
    SAMPLE_ROW = {"OFFDIAG_EDGE_COEFFS": 1, "DIAG_MIN_NUMERATOR": 4, "DIAG_MIN_DENOMINATOR": 4}

    def test_golden_coefficients(self):
        rows = sign_certificates().rows
        for name, golden in GOLDENS:
            _, expected, computed = rows[self.SIGN_ROW[name]]
            assert expected == computed == tuple(F(c) for c in golden)
        assert _failing_rows() == []

    def test_spot_checks_negative(self):
        _, edge, _, _, ratio = sign_certificates().rows
        for _, expected, computed in (edge, ratio):
            assert expected == computed
            assert all(v < 0 for v in computed)
        # the quintic at m = 2..11, the ratio at n = 2..12
        assert len(edge[2]) == 10 and len(ratio[2]) == 11
        assert edge[2][0] == F(-3083)
        assert ratio[2][0] == F(-802799, 3798226)

    def test_prints_plain_fractions(self):
        _, edge, _, _, ratio = sign_certificates().rows
        assert str(edge[2]).startswith("(-3083, -23779, ")
        assert str(ratio[2]).startswith("(-802799/3798226, ")

    @pytest.mark.parametrize("name,position", POSITIONS)
    @pytest.mark.parametrize("delta", [1, -1])
    def test_mutated_golden_coefficient_fails(self, monkeypatch, name, position, delta):
        # the signs still hold: only the golden polynomial's samples row fails
        mutated = list(getattr(theorems, name))
        mutated[position] += delta
        monkeypatch.setattr(theorems, name, tuple(mutated))
        assert _failing_rows() == [self.SAMPLE_ROW[name]]

    @pytest.mark.parametrize("name,position", POSITIONS)
    def test_flipped_coefficient_sign_fails(self, monkeypatch, name, position):
        mutated = list(getattr(theorems, name))
        mutated[position] = -mutated[position]
        monkeypatch.setattr(theorems, name, tuple(mutated))
        assert self.SIGN_ROW[name] in _failing_rows()
