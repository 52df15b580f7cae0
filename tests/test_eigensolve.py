import random

import numpy as np
import pytest

from kolmconj.eigensolve import ConvergenceError, sym_eig_min


def random_symmetric(rng, n):
    a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    return (a + a.T) / 2


class TestSymEigMin:
    def test_diagonal(self):
        pair = sym_eig_min(np.diag([3.0, -1.0, 2.0]))
        assert pair.value == pytest.approx(-1.0, rel=1e-14)
        assert np.allclose(np.abs(pair.vector), [0, 1, 0], atol=1e-14)

    def test_sign_convention(self):
        # eigenvector of [[0,1],[1,0]] at -1 is (1,-1)/sqrt(2); first
        # significant entry must be positive
        pair = sym_eig_min(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert pair.value == pytest.approx(-1.0, rel=1e-14)
        assert pair.vector[0] > 0
        assert np.allclose(pair.vector, [2 ** -0.5, -(2 ** -0.5)], atol=1e-14)

    def test_unit_norm(self):
        rng = random.Random(3)
        for _ in range(10):
            pair = sym_eig_min(random_symmetric(rng, 12))
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0, rel=1e-13)

    def test_residual_small(self):
        rng = random.Random(4)
        for _ in range(10):
            S = random_symmetric(rng, 20)
            pair = sym_eig_min(S)
            direct = np.linalg.norm(S @ pair.vector - pair.value * pair.vector)
            assert pair.residual == pytest.approx(direct, rel=1e-12, abs=1e-300)
            assert pair.residual <= 1e-10 * max(np.max(np.abs(S)), 1e-300) * 20

    def test_rayleigh_bound(self):
        # the returned value is a true minimum of the Rayleigh quotient
        rng = random.Random(5)
        for _ in range(20):
            S = random_symmetric(rng, 15)
            pair = sym_eig_min(S)
            for _ in range(10):
                v = np.array([rng.uniform(-1, 1) for _ in range(15)])
                assert pair.value <= (v @ S @ v) / (v @ v) + 1e-10

    def test_minimum_below_diagonal(self):
        rng = random.Random(6)
        for _ in range(20):
            S = random_symmetric(rng, 10)
            assert sym_eig_min(S).value <= np.min(np.diag(S)) + 1e-12

    def test_orthogonal_similarity_invariance(self):
        rng = random.Random(7)
        S = random_symmetric(rng, 8)
        q, _ = np.linalg.qr(random_symmetric(rng, 8))
        assert sym_eig_min(q @ S @ q.T).value == pytest.approx(
            sym_eig_min(S).value, rel=1e-9)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym_eig_min(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_eig_min(np.zeros((2, 3)))

    def test_deterministic(self):
        rng = random.Random(8)
        S = random_symmetric(rng, 16)
        a = sym_eig_min(S)
        b = sym_eig_min(S)
        assert a.value == b.value
        assert np.array_equal(a.vector, b.vector)

    def test_convergence_error_exported(self):
        assert issubclass(ConvergenceError, RuntimeError)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_rejects_tolerance_that_disables_the_residual_guard(tol):
    with pytest.raises(ValueError, match="tolerance"):
        sym_eig_min(np.diag([1.0, 2.0]), tol)
