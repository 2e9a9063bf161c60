import random
from fractions import Fraction

import pytest

from affinv.exactmat import RatMatrix, commutator, power
from affinv.fields import Mul, Pk, Pow, Var, random_invariant_field
from affinv.invariants import (
    basis_expansion_residual,
    basis_matrix,
    entry_bracket_pairing,
    gradient_commutator_residual,
    gradient_matrix,
    trace_form,
    trace_power,
)
from affinv.report import _rand_matrix
from conftest import rand_rational_matrix


class TestTraceForm:
    def test_dual_basis_pair(self):
        assert trace_form(basis_matrix(2, 1, 2), basis_matrix(2, 2, 1)) == 1

    def test_orthogonal_diagonal_pair(self):
        assert trace_form(basis_matrix(2, 1, 1), basis_matrix(2, 2, 2)) == 0

    def test_pairing_with_identity_is_trace(self):
        x = RatMatrix([[1, 2], [3, 4]])
        assert trace_form(x, RatMatrix.identity(2)) == 5

    def test_symmetry(self):
        rng = random.Random(79)
        for _ in range(10):
            n = rng.randint(1, 4)
            x, y = rand_rational_matrix(rng, n), rand_rational_matrix(rng, n)
            assert trace_form(x, y) == trace_form(y, x)

    def test_gram_matrix_is_permutation(self):
        # B(E_ij, E_kl) = 1 exactly when (k,l) = (j,i): nondegeneracy witness
        n = 3
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for i, j in pairs:
            for k, l in pairs:
                expected = Fraction(int((k, l) == (j, i)))
                assert trace_form(basis_matrix(n, i, j), basis_matrix(n, k, l)) == expected

    def test_ad_invariance(self):
        rng = random.Random(83)
        for _ in range(15):
            n = rng.randint(1, 4)
            a = rand_rational_matrix(rng, n)
            x = rand_rational_matrix(rng, n)
            y = rand_rational_matrix(rng, n)
            lhs = trace_form(commutator(a, x), y) + trace_form(x, commutator(a, y))
            assert lhs == 0


class TestTracePowers:
    def test_identity(self):
        assert trace_power(RatMatrix.identity(3), 1) == 3

    def test_by_hand(self):
        assert trace_power(RatMatrix([[1, 2], [3, 4]]), 2) == Fraction(29, 2)

    def test_zero_matrix(self):
        for k in (1, 2, 5):
            assert trace_power(RatMatrix([[0, 0], [0, 0]]), k) == 0

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            trace_power(RatMatrix.identity(2), 0)

    def test_gradient_values(self):
        # the gradient of tr(x^k)/k under the trace form is x^(k-1)
        x = RatMatrix([[1, 2], [3, 4]])
        expected = [RatMatrix.identity(2), x, RatMatrix([[7, 10], [15, 22]])]
        for k, want in enumerate(expected, start=1):
            assert power(x, k - 1) == want
            assert gradient_matrix(Pk(k), x) == want

    def test_conjugation_invariance(self):
        from affinv.exactmat import determinant, inverse

        rng = random.Random(89)
        for _ in range(10):
            n = rng.randint(2, 4)
            x = _rand_matrix(rng, n, -4, 4)
            g = _rand_matrix(rng, n, -3, 3)
            if determinant(g) == 0:
                continue
            conj = g * x * inverse(g)
            for k in range(1, n + 1):
                assert trace_power(conj, k) == trace_power(x, k)


class TestEntryBracketPairing:
    def test_identity_delta(self):
        for i in (1, 2):
            for j in (1, 2):
                expected = Fraction(int(i == j))
                assert entry_bracket_pairing(RatMatrix.identity(2), 0, i, j) == expected

    def test_by_hand(self):
        assert entry_bracket_pairing(RatMatrix([[1, 2], [3, 4]]), 1, 2, 1) == 3

    def test_equals_power_entry(self):
        from affinv.exactmat import power

        rng = random.Random(97)
        for _ in range(10):
            n = rng.randint(1, 4)
            x = rand_rational_matrix(rng, n)
            for k in range(5):
                xk = power(x, k)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        assert entry_bracket_pairing(x, k, i, j) == xk.entry(i, j)


class TestBasisExpansion:
    def test_k0_trivial(self):
        x = RatMatrix([[5, -2], [7, 1]])
        assert basis_expansion_residual(x, power(x, 0).rows).is_zero()

    def test_k1_trivial(self):
        x = RatMatrix([[1, 2], [3, 4]])
        assert basis_expansion_residual(x, power(x, 1).rows).is_zero()

    def test_random_exact_cancellation(self):
        rng = random.Random(101)
        for n in range(1, 6):
            for _ in range(20):
                x = rand_rational_matrix(rng, n)
                for k in range(n):
                    assert basis_expansion_residual(x, power(x, k).rows).is_zero()


class TestGradientCommutator:
    def test_p2_gradient_commutes(self):
        x = RatMatrix([[1, 2], [3, 4]])
        assert gradient_commutator_residual(Pk(2), x).is_zero()

    def test_product_of_invariants(self):
        x = RatMatrix([[1, 2], [3, 4]])
        f = Mul([Pk(1), Pk(2)])
        assert gradient_commutator_residual(f, x).is_zero()

    def test_non_invariant_witness(self):
        # f = x11 has gradient E11; [E11, E12] = E12 != 0
        x = basis_matrix(2, 1, 2)
        res = gradient_commutator_residual(Var(1, 1), x)
        assert res == basis_matrix(2, 1, 2)

    def test_gradient_convention_locked(self):
        # grad of x12 must be E21 (entry (i,j) holds df/dx_ji)
        x = RatMatrix([[1, 2], [3, 4]])
        assert gradient_matrix(Var(1, 2), x) == basis_matrix(2, 2, 1)

    def test_power_rule(self):
        # d(x12^3)/dx12 = 3 x12^2 = 12 sits at entry (2, 1)
        x = RatMatrix([[1, 2], [3, 4]])
        assert gradient_matrix(Pow(Var(1, 2), 3), x) == RatMatrix([[0, 0], [12, 0]])

    def test_random_invariant_fields_vanish(self):
        rng = random.Random(103)
        for n in (2, 3):
            for _ in range(10):
                f = random_invariant_field(n, rng)
                x = _rand_matrix(rng, n, -4, 4)
                assert gradient_commutator_residual(f, x).is_zero()

    def test_gradient_matches_polynomial_pairing(self):
        # the gradient of p3 is x^2 (sympy differentiates p3 independently
        # in test_sympoly_oracle)
        rng = random.Random(107)
        n = 3
        x = _rand_matrix(rng, n, -3, 3)
        grad = gradient_matrix(Pk(3), x)
        assert grad == power(x, 3 - 1)
