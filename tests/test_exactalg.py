import random
from fractions import Fraction as F

import pytest

from kolmconj.exactalg import poly_eval, solve_linear


def _gauss_jordan(matrix, rhs):
    """Reference: Gauss-Jordan over the rationals, first nonzero pivot per column."""
    n = len(rhs)
    aug = [[F(v) for v in row] + [F(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _random_system(rng, n, zeros=0.0):
    def entry():
        if rng.random() < zeros:
            return F(0)
        return F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
    return [[entry() for _ in range(n)] for _ in range(n)], [entry() for _ in range(n)]


class TestSolveLinear:
    def test_exact_solution(self):
        sol = solve_linear([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
        assert sol == [F(1), F(3)]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])

    def test_empty_system(self):
        assert solve_linear([], []) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("zeros", [0.0, 0.4])
    def test_matches_gauss_jordan(self, n, zeros):
        rng = random.Random(1000 * n + int(10 * zeros))
        for _ in range(40):
            matrix, rhs = _random_system(rng, n, zeros)
            try:
                want = _gauss_jordan(matrix, rhs)
            except ValueError:
                with pytest.raises(ValueError, match="singular linear system"):
                    solve_linear(matrix, rhs)
                continue
            got = solve_linear(matrix, rhs)
            assert got == want and all(type(x) is F for x in got)

    def test_row_swap(self):
        # a zero leading entry, then a zero pivot after the first elimination
        matrix = [[F(0), F(2), F(1)], [F(1, 2), F(1), F(3)], [F(1), F(2), F(-1, 3)]]
        rhs = [F(1), F(-2, 7), F(5)]
        got = solve_linear(matrix, rhs)
        assert got == _gauss_jordan(matrix, rhs)
        assert [sum((a * x for a, x in zip(row, got)), F(0)) for row in matrix] == rhs

    def test_singular_after_elimination(self):
        # rank 2: the third row is the first plus twice the second
        matrix = [[F(1, 3), F(2), F(5)], [F(1), F(-1, 2), F(7)],
                  [F(7, 3), F(1), F(19)]]
        with pytest.raises(ValueError, match="singular linear system"):
            _gauss_jordan(matrix, [F(1)] * 3)
        with pytest.raises(ValueError, match="singular linear system"):
            solve_linear(matrix, [F(1)] * 3)


class TestPolynomials:
    def test_eval(self):
        # 1 + 2x + 3x^2 at x = 1/2
        assert poly_eval([F(1), F(2), F(3)], F(1, 2)) == F(11, 4)

