import ast
import random
from pathlib import Path

import numpy as np
import pytest

from kolmconj import eigensolve
from kolmconj.eigensolve import ConvergenceError, lowest_eigenpairs

from conftest import lowest_pair


def random_symmetric(rng, n):
    a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    return (a + a.T) / 2


class TestLowestPair:
    """One matrix, solved as a stack of one."""

    def test_diagonal(self):
        pair = lowest_pair(np.diag([3.0, -1.0, 2.0]))
        assert pair.value == pytest.approx(-1.0, rel=1e-14)
        assert np.allclose(np.abs(pair.vector), [0, 1, 0], atol=1e-14)

    def test_sign_convention(self):
        # eigenvector of [[0,1],[1,0]] at -1 is (1,-1)/sqrt(2); first
        # significant entry must be positive
        pair = lowest_pair(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert pair.value == pytest.approx(-1.0, rel=1e-14)
        assert pair.vector[0] > 0
        assert np.allclose(pair.vector, [2 ** -0.5, -(2 ** -0.5)], atol=1e-14)

    def test_unit_norm(self):
        rng = random.Random(3)
        for _ in range(10):
            pair = lowest_pair(random_symmetric(rng, 12))
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0, rel=1e-13)

    def test_residual_small(self):
        rng = random.Random(4)
        for _ in range(10):
            S = random_symmetric(rng, 20)
            pair = lowest_pair(S)
            direct = np.linalg.norm(S @ pair.vector - pair.value * pair.vector)
            assert pair.residual == pytest.approx(direct, rel=1e-12, abs=1e-300)
            assert pair.residual <= 1e-10 * max(np.max(np.abs(S)), 1e-300) * 20

    def test_rayleigh_bound(self):
        # the returned value is a true minimum of the Rayleigh quotient
        rng = random.Random(5)
        for _ in range(20):
            S = random_symmetric(rng, 15)
            pair = lowest_pair(S)
            for _ in range(10):
                v = np.array([rng.uniform(-1, 1) for _ in range(15)])
                assert pair.value <= (v @ S @ v) / (v @ v) + 1e-10

    def test_minimum_below_diagonal(self):
        rng = random.Random(6)
        for _ in range(20):
            S = random_symmetric(rng, 10)
            assert lowest_pair(S).value <= np.min(np.diag(S)) + 1e-12

    def test_orthogonal_similarity_invariance(self):
        rng = random.Random(7)
        S = random_symmetric(rng, 8)
        q, _ = np.linalg.qr(random_symmetric(rng, 8))
        assert lowest_pair(q @ S @ q.T).value == pytest.approx(
            lowest_pair(S).value, rel=1e-9)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            lowest_pair(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            lowest_pair(np.zeros((2, 3)))

    def test_deterministic(self):
        rng = random.Random(8)
        S = random_symmetric(rng, 16)
        a = lowest_pair(S)
        b = lowest_pair(S)
        assert a.value == b.value
        assert np.array_equal(a.vector, b.vector)

    def test_convergence_error_exported(self):
        assert issubclass(ConvergenceError, RuntimeError)


# S = diag(1, 2, 3) at value 1 and vector (1, e, 0) has residual e / sqrt(1 + e^2),
# against the bound RESIDUAL_TOL * max|S| * dim = 9e-10
@pytest.mark.parametrize("e,passes", [(0.0, True), (8.5e-10, True), (9.5e-10, False),
                                      (1e-6, False), (1.0, False)])
def test_residual_guard_holds_at_the_constant_tolerance(monkeypatch, e, passes):
    S, vector = np.diag([1.0, 2.0, 3.0]), np.array([1.0, e, 0.0])
    assert eigensolve.RESIDUAL_TOL == 1e-10
    # LAPACK returns the tilted vector, and the solve normalizes and checks it
    columns = np.eye(3)
    columns[:, 0] = vector
    monkeypatch.setattr(np.linalg, "eigh", lambda stack: (np.array([[1.0, 2.0, 3.0]]),
                                                          columns[None]))
    _, vectors, residuals, failures = lowest_eigenpairs(S[None])
    assert np.array_equal(vectors[0], vector / np.sqrt(1.0 + e * e))
    assert residuals[0] == pytest.approx(e / np.sqrt(1.0 + e * e), rel=1e-12, abs=0)
    if passes:
        assert failures == []
        assert lowest_pair(S).residual == residuals[0]
        return
    with pytest.raises(ConvergenceError, match=r"bound 9\.000e-10 \(dim=3, tol=1\.0e-10\)$"):
        lowest_pair(S)
    [(i, error)] = failures
    assert i == 0 and isinstance(error, ConvergenceError)
    assert str(error) == (f"residual {residuals[0]:.3e} exceeds bound 9.000e-10 "
                          "(dim=3, tol=1.0e-10)")


def test_no_function_takes_a_tolerance():
    # the residual tolerance is the constant RESIDUAL_TOL, not a parameter
    for path in sorted(Path(eigensolve.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                assert "tol" not in [a.arg for a in arguments], (path.name, node.lineno)


def assert_stack_matches_one_at_a_time(stack):
    # each row, bit for bit, is the matrix's row when solved alone
    values, vectors, residuals, failures = lowest_eigenpairs(stack)
    assert failures == []
    for S, value, vector, residual in zip(stack, values, vectors, residuals):
        want = lowest_pair(S)
        assert (value.hex(), residual.hex()) == (want.value.hex(), want.residual.hex())
        assert vector.tobytes() == want.vector.tobytes()


class TestLowestEigenpairs:
    """`lowest_eigenpairs` on stacks: it returns every failure, as (i, error) by ascending i."""

    def test_random_stacks_match_one_at_a_time(self):
        rng = random.Random(9)
        for dim, count in [(1, 5), (2, 40), (3, 17), (7, 9), (12, 4), (30, 3)]:
            stack = np.stack([random_symmetric(rng, dim) for _ in range(count)])
            assert_stack_matches_one_at_a_time(stack)

    def test_sign_convention_per_matrix(self):
        stack = np.stack([np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, -1.0])])
        vectors = lowest_eigenpairs(stack)[1]
        assert vectors[0, 0] > 0 and vectors[1, 1] > 0

    def test_one_nonsymmetric_matrix_raises(self):
        rng = random.Random(10)
        stack = np.stack([random_symmetric(rng, 4) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        [(i, error)] = lowest_eigenpairs(stack)[-1]
        assert i == 3 and isinstance(error, ValueError)
        assert str(error) == "matrix is not symmetric"

    def test_residual_failure_raises_the_per_matrix_error(self, monkeypatch):
        # a diagonal matrix is solved with residual 0 and meets any tol; the
        # random ones cannot meet tol = 1e-300, and each fails with its own error
        monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 1e-300)
        rng = random.Random(11)
        stack = np.stack([np.diag([1.0, 2.0, 3.0]), random_symmetric(rng, 3),
                          np.diag([4.0, 1.0, 2.0]), random_symmetric(rng, 3)])
        failures = lowest_eigenpairs(stack)[-1]
        assert [i for i, _ in failures] == [1, 3]
        for i, error in failures:
            with pytest.raises(ConvergenceError, match=r"tol=1\.0e-300\)$") as want:
                lowest_pair(stack[i])
            assert isinstance(error, ConvergenceError)
            assert str(error) == str(want.value)

    def test_every_failure_in_ascending_order(self, monkeypatch):
        # an asymmetric matrix after a residual failure: both come back, by index
        monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 1e-300)
        rng = random.Random(12)
        stack = np.stack([np.diag([1.0, 2.0]), random_symmetric(rng, 2),
                          np.array([[1.0, 2.0], [0.0, 1.0]])])
        failures = lowest_eigenpairs(stack)[-1]
        assert [(i, type(error)) for i, error in failures] == [(1, ConvergenceError),
                                                                (2, ValueError)]
        assert str(failures[1][1]) == "matrix is not symmetric"

    @pytest.mark.parametrize("shape", [(2, 3, 2), (2, 2), (0, 2, 2)])
    def test_rejects_non_stack(self, shape):
        with pytest.raises(ValueError, match=r"stack of square matrices \(count, dim, dim\) "
                                             r"with count, dim >= 1, got shape"):
            lowest_eigenpairs(np.zeros(shape))
