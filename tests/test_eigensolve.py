import random

import numpy as np
import pytest

from kolmconj.eigensolve import (ConvergenceError, eigen_pair, lowest_eigenpairs,
                                 sym_eig_min)


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


def assert_same_pair(got, want):
    assert got.value == want.value
    assert np.array_equal(got.vector, want.vector)
    assert got.residual == want.residual


def assert_stack_matches_one_at_a_time(stack, tol=1e-10):
    values, vectors, failure = lowest_eigenpairs(stack, tol)
    assert failure is None
    for S, value, vector in zip(stack, values, vectors):
        assert_same_pair(eigen_pair(S, value, vector, tol), sym_eig_min(S, tol))


class TestSymEigMinStack:
    """`lowest_eigenpairs` on stacks: it returns the first failure, (i, error)."""

    def test_random_stacks_match_one_at_a_time(self):
        rng = random.Random(9)
        for dim, count in [(1, 5), (2, 40), (3, 17), (7, 9), (12, 4), (30, 3)]:
            stack = np.stack([random_symmetric(rng, dim) for _ in range(count)])
            assert_stack_matches_one_at_a_time(stack)

    def test_sign_convention_per_matrix(self):
        stack = np.stack([np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, -1.0])])
        _, vectors, _ = lowest_eigenpairs(stack)
        assert vectors[0, 0] > 0 and vectors[1, 1] > 0

    def test_one_nonsymmetric_matrix_raises(self):
        rng = random.Random(10)
        stack = np.stack([random_symmetric(rng, 4) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        i, error = lowest_eigenpairs(stack)[2]
        assert i == 3 and isinstance(error, ValueError)
        assert str(error) == "matrix is not symmetric"

    def test_residual_failure_raises_the_per_matrix_error(self):
        # a diagonal matrix is solved with residual 0 and meets any tol; the
        # first random one cannot meet tol = 1e-300
        rng = random.Random(11)
        stack = np.stack([np.diag([1.0, 2.0, 3.0]), random_symmetric(rng, 3),
                          np.diag([4.0, 1.0, 2.0]), random_symmetric(rng, 3)])
        with pytest.raises(ConvergenceError) as want:
            sym_eig_min(stack[1], 1e-300)
        i, error = lowest_eigenpairs(stack, 1e-300)[2]
        assert i == 1 and isinstance(error, ConvergenceError)
        assert str(error) == str(want.value)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0])
    def test_rejects_tolerance_that_disables_the_residual_guard(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            lowest_eigenpairs(np.diag([1.0, 2.0])[None], tol)

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError, match="stack of square matrices"):
            lowest_eigenpairs(np.zeros((2, 3, 2)))
