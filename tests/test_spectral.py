import random
from fractions import Fraction as F

import numpy as np
import pytest

from kolmconj.eigensolve import sym_eig_min
from kolmconj.spectral import (CertificationError, SpectralWindow,
                               assemble_bracket_matrix, assemble_quadform,
                               certify_candidate, coefficient_vector, constrain,
                               minimizer_coefficients, reduce_symmetric,
                               CoeffVector)
from kolmconj.trigpoly import (COS, SIN, KolmogorovFlow, Mode, TrigPoly,
                               bracket, canonicalize, misiolek_index)


def zeta32_field():
    # cos x (1 - 37/1513 cos 6x + 1/17 cos 4y)
    return TrigPoly.cosine(1, 0) * (TrigPoly.constant(1)
                                    + TrigPoly.cosine(6, 0, F(-37, 1513))
                                    + TrigPoly.cosine(0, 4, F(1, 17)))


def fdiag22_field():
    envelope = (TrigPoly.constant(1)
                + TrigPoly.cosine(0, 4, F(139425, 1899113))
                + TrigPoly.cosine(0, 8, F(-33231, 3798226))
                + TrigPoly.cosine(4, 0, F(-66661217, 854600850)))
    return (TrigPoly.cosine(1, 0) * envelope
            + TrigPoly.sine(1, 0) * TrigPoly.sine(4, 0, F(-19375654, 427300425)))


def random_window_vector(rng, window):
    terms = {}
    values = np.zeros(len(window))
    for i, mode in enumerate(window.modes):
        c = F(rng.randint(-8, 8), 8)
        if c:
            terms[mode] = c
            values[i] = float(c)
    return TrigPoly(terms), values


class TestWindow:
    @pytest.mark.parametrize("N", [1, 2, 5, 8])
    @pytest.mark.parametrize("subspace", [COS, SIN])
    def test_mode_count(self, N, subspace):
        win = SpectralWindow(N, subspace)
        assert len(win) == 2 * N * N + 2 * N

    def test_full_is_direct_sum(self):
        win = SpectralWindow(3, "full")
        assert len(win) == 2 * (2 * 9 + 6)

    def test_constant_mode_excluded(self):
        win = SpectralWindow(4, COS)
        assert Mode(0, 0, COS) not in win.modes

    def test_ordering_deterministic_and_sorted(self):
        win = SpectralWindow(5, COS)
        assert list(win.modes) == sorted(win.modes)
        assert win.modes == SpectralWindow(5, COS).modes

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SpectralWindow(0, COS)
        with pytest.raises(ValueError):
            SpectralWindow(3, "weird")


class TestFoldIndex:
    """A lattice index folds into a window by canonicalize, then window lookup."""

    def test_negative_j(self):
        mode, sign = canonicalize(COS, -2, 3)
        assert (mode, sign) == (Mode(2, -3, COS), 1)
        assert SpectralWindow(4, COS).index_of(mode) is not None

    def test_j_zero(self):
        mode, sign = canonicalize(COS, 0, -4)
        assert (mode, sign) == (Mode(0, 4, COS), 1)
        assert SpectralWindow(4, COS).index_of(mode) is not None

    def test_outside_window(self):
        N = 4
        win = SpectralWindow(N, COS)
        assert win.index_of(canonicalize(COS, N + 1, 0)[0]) is None
        assert win.index_of(canonicalize(COS, 2, N + 1)[0]) is None
        assert win.index_of(canonicalize(COS, -2, -N - 1)[0]) is None

    def test_constant_excluded(self):
        assert SpectralWindow(4, COS).index_of(canonicalize(COS, 0, 0)[0]) is None

    def test_sin_fold_sign(self):
        mode, sign = canonicalize(SIN, -2, 3)
        assert (mode, sign) == (Mode(2, -3, SIN), -1)
        assert SpectralWindow(4, SIN).index_of(mode) is not None


class TestBracketMatrix:
    def test_cosx_column(self):
        flow = KolmogorovFlow(2, 1)
        win = SpectralWindow(1, COS)
        ext = SpectralWindow(3, COS)
        M = assemble_bracket_matrix(flow, win, ext)
        v = np.zeros(len(win))
        v[win.index_of(Mode(1, 0, COS))] = 1.0
        out = M @ v
        expected = {Mode(3, -1, COS): 0.25, Mode(3, 1, COS): -0.25,
                    Mode(1, 1, COS): 0.25, Mode(1, -1, COS): -0.25}
        for i, mode in enumerate(ext.modes):
            assert out[i] == pytest.approx(expected.get(mode, 0.0), abs=1e-14)

    def test_stream_coefficients_in_kernel(self):
        for m, n in [(1, 1), (3, 2), (2, 2)]:
            flow = KolmogorovFlow(m, n)
            win = SpectralWindow(max(m, n), COS)
            ext = SpectralWindow(2 * max(m, n), COS)
            M = assemble_bracket_matrix(flow, win, ext)
            v = coefficient_vector(flow.stream(), win).values
            assert np.max(np.abs(M @ v)) < 1e-14

    def test_sinx_column_matches_bracket(self):
        flow = KolmogorovFlow(1, 1)
        win = SpectralWindow(1, SIN)
        ext = SpectralWindow(2, SIN)
        M = assemble_bracket_matrix(flow, win, ext)
        v = np.zeros(len(win))
        v[win.index_of(Mode(1, 0, SIN))] = 1.0
        want = coefficient_vector(bracket(flow.stream(), TrigPoly.sine(1, 0)),
                                  ext).values
        assert np.max(np.abs(M @ v - want)) < 1e-14

    def test_zero_vector(self):
        flow = KolmogorovFlow(2, 1)
        win = SpectralWindow(2, SIN)
        ext = SpectralWindow(4, SIN)
        M = assemble_bracket_matrix(flow, win, ext)
        assert np.max(np.abs(M @ np.zeros(len(win)))) == 0.0

    def test_undersized_output_rejected(self):
        flow = KolmogorovFlow(3, 2)
        with pytest.raises(ValueError):
            assemble_bracket_matrix(flow, SpectralWindow(4, COS),
                                    SpectralWindow(5, COS))

    def test_mismatched_subspaces_rejected(self):
        flow = KolmogorovFlow(1, 1)
        with pytest.raises(ValueError):
            assemble_bracket_matrix(flow, SpectralWindow(2, SIN), SpectralWindow(4, COS))

    @pytest.mark.parametrize("parity", [COS, SIN])
    def test_matches_exact_bracket_random(self, parity):
        rng = random.Random(7 if parity == COS else 8)
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            flow = KolmogorovFlow(m, n)
            N = rng.randint(1, 6)
            win = SpectralWindow(N, parity)
            ext = SpectralWindow(N + max(m, n), parity)
            M = assemble_bracket_matrix(flow, win, ext)
            f, v = random_window_vector(rng, win)
            want = coefficient_vector(bracket(flow.stream(), f), ext).values
            assert np.max(np.abs(M @ v - want)) < 1e-12


class TestQuadForm:
    def test_diagonal_entry_cosx(self):
        for m, n in [(2, 1), (3, 2), (4, 4)]:
            q = assemble_quadform(KolmogorovFlow(m, n), SpectralWindow(4, COS))
            i = q.window.index_of(Mode(1, 0, COS))
            assert q.matrix[i, i] == pytest.approx(n * n / 4, rel=1e-13)

    def test_symmetry(self):
        q = assemble_quadform(KolmogorovFlow(3, 2), SpectralWindow(6, COS))
        scale = np.max(np.abs(q.matrix))
        assert np.max(np.abs(q.matrix - q.matrix.T)) <= 1e-13 * scale

    def test_matches_exact_index_zeta32(self):
        flow = KolmogorovFlow(3, 2)
        f = zeta32_field()
        win = SpectralWindow(7, COS)
        q = assemble_quadform(flow, win)
        v = coefficient_vector(f, win).values
        got = 2 * float(v @ q.matrix @ v)
        want = float(misiolek_index(bracket(flow.stream(), f), flow))
        assert got == pytest.approx(want, rel=1e-10)

    def test_matches_exact_index_fdiag22(self):
        flow = KolmogorovFlow(2, 2)
        f = fdiag22_field()
        win = SpectralWindow(9, COS)
        q = assemble_quadform(flow, win)
        v = coefficient_vector(f, win).values
        got = 2 * float(v @ q.matrix @ v)
        want = float(misiolek_index(bracket(flow.stream(), f), flow))
        assert got == pytest.approx(want, rel=1e-10)

    def test_random_vectors_match_exact_index(self):
        rng = random.Random(11)
        for _ in range(20):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            parity = rng.choice((COS, SIN))
            flow = KolmogorovFlow(m, n)
            win = SpectralWindow(rng.randint(2, 5), parity)
            q = assemble_quadform(flow, win)
            f, v = random_window_vector(rng, win)
            got = 2 * float(v @ q.matrix @ v)
            want = float(misiolek_index(bracket(flow.stream(), f), flow))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestReduceConstrain:
    def test_p_zero_identity(self):
        q = assemble_quadform(KolmogorovFlow(2, 1), SpectralWindow(4, COS))
        r = reduce_symmetric(q, 0)
        assert np.array_equal(r.matrix, q.matrix)

    def test_unit_weight_mode_unchanged(self):
        q = assemble_quadform(KolmogorovFlow(2, 1), SpectralWindow(4, COS))
        r = reduce_symmetric(q, 2)
        i = q.window.index_of(Mode(1, 0, COS))
        assert r.matrix[i, i] == q.matrix[i, i]

    def test_sign_independent_of_p(self):
        q = assemble_quadform(KolmogorovFlow(3, 2), SpectralWindow(8, COS))
        signs = set()
        for p in (0, 1, 2, 3):
            pair = sym_eig_min(reduce_symmetric(q, p).matrix)
            signs.add(pair.value < 0)
        assert signs == {True}

    def test_constrain_empty_is_identity(self):
        q = assemble_quadform(KolmogorovFlow(2, 1), SpectralWindow(3, COS))
        r = reduce_symmetric(q, 3)
        c = constrain(r, [])
        assert np.array_equal(c.matrix, r.matrix)
        assert c.modes == r.modes

    def test_constrain_unknown_mode_rejected(self):
        q = assemble_quadform(KolmogorovFlow(2, 1), SpectralWindow(3, COS))
        r = reduce_symmetric(q, 3)
        with pytest.raises(ValueError):
            constrain(r, [Mode(99, 0, COS)])

    def test_constrain_everything_rejected(self):
        q = assemble_quadform(KolmogorovFlow(2, 1), SpectralWindow(3, COS))
        r = reduce_symmetric(q, 3)
        with pytest.raises(ValueError):
            constrain(r, list(r.modes))

    def test_diag22_constrained_minimizer_shape(self):
        q = assemble_quadform(KolmogorovFlow(2, 2), SpectralWindow(8, COS))
        r = constrain(reduce_symmetric(q, 3), [Mode(0, 1, COS)])
        pair = sym_eig_min(r.matrix)
        coeffs = minimizer_coefficients(r, pair.vector)
        assert coeffs.dominant_mode() == Mode(1, 0, COS)
        assert coeffs.values[coeffs.window.index_of(Mode(0, 1, COS))] == 0.0


class TestCertify:
    def test_cosx_alone(self):
        flow = KolmogorovFlow(3, 2)
        win = SpectralWindow(2, COS)
        v = np.zeros(len(win))
        v[win.index_of(Mode(1, 0, COS))] = 1.0
        res = certify_candidate(CoeffVector(win, v), flow)
        assert res.mi_over_pi2 == F(flow.n ** 2, 2)
        assert not res.detected

    def test_zeta32_exact(self):
        flow = KolmogorovFlow(3, 2)
        f = zeta32_field()
        win = SpectralWindow(7, COS)
        res = certify_candidate(coefficient_vector(f, win), flow)
        # small denominators survive rationalization exactly
        assert res.mi_over_pi2 == misiolek_index(bracket(flow.stream(), f), flow)
        assert res.detected

    def test_kernel_candidate_rejected(self):
        flow = KolmogorovFlow(2, 1)
        win = SpectralWindow(3, COS)
        with pytest.raises(CertificationError):
            certify_candidate(coefficient_vector(flow.stream(), win), flow)

    def test_zero_vector_rejected(self):
        flow = KolmogorovFlow(2, 1)
        win = SpectralWindow(3, COS)
        with pytest.raises(ValueError):
            certify_candidate(CoeffVector(win, np.zeros(len(win))), flow)


class TestEndToEnd:
    def test_negative_eigenvalue_certified(self):
        # whenever the reduced minimum is clearly negative, certification
        # produces an exact negative rational witness
        for m, n, parity in [(3, 2, COS), (2, 1, COS), (2, 2, COS), (1, 1, SIN)]:
            flow = KolmogorovFlow(m, n)
            q = assemble_quadform(flow, SpectralWindow(8, parity))
            r = reduce_symmetric(q, 3)
            pair = sym_eig_min(r.matrix)
            assert pair.value < -1e-6
            res = certify_candidate(minimizer_coefficients(r, pair.vector), flow)
            assert res.detected and res.mi_over_pi2 < 0
