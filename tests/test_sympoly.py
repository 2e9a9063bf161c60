import random
from fractions import Fraction

import pytest

from affinv.krylov import (
    companion,
    companion_sign,
    krylov_determinant,
)
from affinv.sympoly import (
    FeasibilityBoundError,
    MultiPoly,
    homogeneous_degree,
    symbolic_krylov_determinant,
    term_list_json,
    var_index,
)
from affinv.report import _rand_matrix
from conftest import poly_at


def v(n, i, j):
    return MultiPoly.variable(n * n, var_index(n, i, j))


class TestRingOps:
    def test_add_zero(self):
        a = v(2, 1, 1)
        assert a + MultiPoly(4) == a

    def test_product_of_variables(self):
        p = v(2, 1, 1) * v(2, 2, 2)
        assert p.terms == {(1, 0, 0, 1): Fraction(1)}

    def test_square_of_sum(self):
        s = v(2, 1, 1) + v(2, 2, 2)
        p = s * s
        assert p.terms == {
            (2, 0, 0, 0): Fraction(1),
            (1, 0, 0, 1): Fraction(2),
            (0, 0, 0, 2): Fraction(1),
        }

    def test_zero_coefficients_dropped(self):
        a = v(2, 1, 2)
        assert (a + (-a)).is_zero()

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            v(2, 1, 1) * MultiPoly.const(9, 1)


class TestSymbolicDeterminant:
    def test_n1_constant_one(self):
        assert symbolic_krylov_determinant(1) == MultiPoly.const(1, 1)

    def test_n2_golden(self):
        # det [[0,1],[x21,x22]] = -x21
        p = symbolic_krylov_determinant(2)
        assert p.terms == {(0, 0, 1, 0): Fraction(-1)}

    def test_n3_golden_four_terms(self):
        # hand cofactor expansion: x12*x31^2 + x22*x31*x32 - x11*x31*x32 - x21*x32^2
        p = symbolic_krylov_determinant(3)
        e = lambda i, j: var_index(3, i, j)

        def mono(*pairs):
            exps = [0] * 9
            for idx, k in pairs:
                exps[idx] += k
            return tuple(exps)

        expected = {
            mono((e(1, 2), 1), (e(3, 1), 2)): Fraction(1),
            mono((e(2, 2), 1), (e(3, 1), 1), (e(3, 2), 1)): Fraction(1),
            mono((e(1, 1), 1), (e(3, 1), 1), (e(3, 2), 1)): Fraction(-1),
            mono((e(2, 1), 1), (e(3, 2), 2)): Fraction(-1),
        }
        assert p.terms == expected

    def test_feasibility_guard(self):
        # decided before any expansion; the command-line test with
        # AFFINV_NMAX=5 expands D_5 end to end
        with pytest.raises(FeasibilityBoundError, match="exceeds the symbolic bound 4"):
            symbolic_krylov_determinant(5)
        with pytest.raises(FeasibilityBoundError, match="above the ceiling 5"):
            symbolic_krylov_determinant(2, n_max=6)
        # explicit bound raises the ceiling
        assert homogeneous_degree(symbolic_krylov_determinant(4, n_max=5)) == 6

    def test_degrees_through_n4(self):
        assert homogeneous_degree(symbolic_krylov_determinant(1)) == 0
        assert homogeneous_degree(symbolic_krylov_determinant(2)) == 1
        assert homogeneous_degree(symbolic_krylov_determinant(3)) == 3
        assert homogeneous_degree(symbolic_krylov_determinant(4)) == 6

    def test_agrees_with_numeric_determinant(self):
        rng = random.Random(61)
        for n in range(1, 5):
            p = symbolic_krylov_determinant(n)
            for _ in range(20):
                x = _rand_matrix(rng, n, -6, 6)
                assert poly_at(p, x) == krylov_determinant(x)

    def test_companion_evaluation(self):
        rng = random.Random(67)
        for n in range(1, 5):
            p = symbolic_krylov_determinant(n)
            alpha = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            x = companion(alpha)
            assert poly_at(p, x) == companion_sign(n)

    def test_euler_identity(self):
        rng = random.Random(71)
        for n in range(1, 5):
            p = symbolic_krylov_determinant(n)
            for _ in range(5):
                x = _rand_matrix(rng, n, -6, 6)
                assert poly_at(p, x, euler=True) == n * (n - 1) // 2 * poly_at(p, x)


class TestHomogeneity:
    def test_non_homogeneous_witness(self):
        p = v(2, 1, 1) + v(2, 1, 1) * v(2, 1, 1)
        assert homogeneous_degree(p) is None

    def test_zero_polynomial_sentinel(self):
        assert homogeneous_degree(MultiPoly(4)) is None


class TestSerialization:
    def test_graded_lex_order_and_round_trip(self):
        p = symbolic_krylov_determinant(3)
        items = term_list_json(p)
        keys = [(sum(t["exps"]), tuple(t["exps"])) for t in items]
        assert keys == sorted(keys, reverse=True)
        back = {tuple(t["exps"]): Fraction(t["coef"]) for t in items}
        assert back == p.terms
