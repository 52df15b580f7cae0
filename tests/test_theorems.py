from fractions import Fraction as F

import pytest

from kolmconj.theorems import (DIAG_MIN_DENOMINATOR, DIAG_MIN_NUMERATOR,
                               OFFDIAG_EDGE_COEFFS, VerificationError,
                               diag_candidate, diag_form, diag_reference,
                               diag_reference_candidate, drivas_check,
                               drivas_field, offdiag_candidate, offdiag_form,
                               offdiag_reference, offdiag_reference_candidate,
                               offdiag_scaled_minimum,
                               offdiag_scaled_minimum_reference,
                               QuadraticFormInParams, sign_certificates)
from kolmconj.trigpoly import KolmogorovFlow, TrigPoly, bracket, misiolek_index


class TestOffdiagForm:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 7)
                                     for n in range(1, m)])
    def test_matches_reference(self, m, n):
        form = offdiag_form(m, n)
        ref = offdiag_reference(m, n)
        assert form.coeffs == {k: v for k, v in ref.items() if v}

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
        assert form.gradient((a0, F(0)))[0] == 0
        assert form.gradient((F(0), b0))[1] == 0

    def test_hessian_positive_definite(self):
        for m, n in [(2, 1), (4, 2), (6, 1)]:
            assert offdiag_form(m, n).hessian_minors_positive()

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
        assert form.coeffs == {k: v for k, v in ref.items() if v}

    def test_n1_form_differs_from_reference(self):
        # mode collisions at n = 1 change the quadratic form, so the
        # closed-form displays only apply from n = 2 on
        assert diag_form(1).coeffs != {k: v for k, v in diag_reference(1).items() if v}

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
        assert form.gradient(point) == [0, 0, 0, 0]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_hessian_positive_definite(self, n):
        assert diag_form(n).hessian_minors_positive()

    def test_n1_candidate_reported_without_sign_assertion(self):
        cand = diag_candidate(1)
        assert set(cand.values) == {"a", "b", "c", "d"}
        assert cand.value == diag_form(1).evaluate(
            tuple(cand.values[v] for v in ("a", "b", "c", "d")))


@pytest.mark.parametrize("coeffs,expected", [
    ({(0, 2): 1}, False),                        # leading entry 0
    ({(2, 0): 1, (0, 2): -1}, False),            # indefinite, diagonal
    ({(2, 0): 1, (1, 1): 3, (0, 2): 1}, False),  # indefinite through the cross term
    ({(2, 0): 1, (1, 1): 1, (0, 2): 1}, True),
])
def test_hessian_minors_positive(coeffs, expected):
    form = QuadraticFormInParams(("a", "b"), {mono: F(c) for mono, c in coeffs.items()})
    assert form.hessian_minors_positive() is expected


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


class TestSignCertificates:
    def test_golden_coefficients(self):
        report = sign_certificates(max_check=8)
        assert report.offdiag_edge_coeffs == tuple(F(c) for c in OFFDIAG_EDGE_COEFFS)
        assert report.diag_min_numerator == tuple(F(c) for c in DIAG_MIN_NUMERATOR)
        assert report.diag_min_denominator == tuple(F(c) for c in DIAG_MIN_DENOMINATOR)

    def test_spot_checks_negative(self):
        report = sign_certificates(max_check=6)
        assert all(v < 0 for v in report.offdiag_spot_checks.values())
        assert all(v < 0 for v in report.diag_spot_checks.values())
        assert report.offdiag_spot_checks[2] == F(-3083)
        assert report.diag_spot_checks[2] == F(-802799, 3798226)

    def test_rejects_bad_argument(self):
        with pytest.raises(ValueError):
            sign_certificates(max_check=0)

    def test_verification_error_is_exception(self):
        assert issubclass(VerificationError, Exception)
