from fractions import Fraction as F

import pytest

from kolmconj.exactalg import poly_eval, solve_linear


class TestSolveLinear:
    def test_exact_solution(self):
        sol = solve_linear([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
        assert sol == [F(1), F(3)]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])


class TestPolynomials:
    def test_eval(self):
        # 1 + 2x + 3x^2 at x = 1/2
        assert poly_eval([F(1), F(2), F(3)], F(1, 2)) == F(11, 4)
