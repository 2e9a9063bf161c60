import random
from fractions import Fraction

import pytest

from affinv.exactmat import (
    RatMatrix,
    RatVector,
    SingularMatrixError,
    _row_rank,
    determinant,
    inverse,
    min_poly,
    power,
)
from affinv.krylov import (
    CompanionSpec,
    NotInPError,
    NotRegular,
    PGroupElement,
    _conjugator,
    companion,
    companion_sign,
    conjugate_into_omega,
    find_cyclic_row,
    homogeneity_check,
    in_omega,
    krylov_determinant,
    krylov_rows,
    p_check,
    pairing_determinant,
    transformation_law,
)
from affinv.report import _rand_matrix, _rand_p_element
from conftest import rand_rational_matrix


def jordan_nilpotent(n: int) -> RatMatrix:
    return RatMatrix(
        [[Fraction(int(j == i + 1)) for j in range(n)] for i in range(n)]
    )


class TestKrylovMatrix:
    def test_identity_rows_repeat(self):
        rows = krylov_rows(RatVector.unit(2, 2), RatMatrix.identity(2))
        assert rows == RatMatrix([[0, 1], [0, 1]])

    def test_generic_2x2(self):
        rows = krylov_rows(RatVector.unit(2, 2), RatMatrix([[1, 2], [3, 4]]))
        assert rows == RatMatrix([[0, 1], [3, 4]])

    def test_companion_2x2(self):
        a1, a2 = Fraction(5), Fraction(-3)
        rows = krylov_rows(RatVector.unit(2, 2), companion(CompanionSpec([a1, a2])))
        assert rows == RatMatrix([[0, 1], [1, a1]])

    def test_rows_match_power_route(self):
        # independent construction: e_n * power(x, k) per row
        rng = random.Random(109)
        for _ in range(15):
            n = rng.randint(1, 5)
            x = rand_rational_matrix(rng, n)
            e_n = RatVector.unit(n, n)
            rows = krylov_rows(e_n, x)
            for k in range(n):
                assert rows.row(k + 1) == e_n * power(x, k)

    def test_n1_convention(self):
        assert krylov_rows(RatVector.unit(1, 1), RatMatrix([[7]])) == RatMatrix([[1]])
        assert krylov_determinant(RatMatrix([[7]])) == 1

    def test_krylov_rows_of_any_row(self):
        rng = random.Random(163)
        for _ in range(15):
            n = rng.randint(1, 5)
            x = rand_rational_matrix(rng, n)
            w = RatVector([rng.randint(-3, 3) for _ in range(n)])
            rows = krylov_rows(w, x)
            for k in range(n):
                assert rows.row(k + 1) == w * power(x, k)


class TestDeterminantD:
    def test_2x2_is_minus_lower_left(self):
        assert krylov_determinant(RatMatrix([[1, 2], [3, 4]])) == -3

    def test_jordan_nilpotent_vanishes(self):
        for n in range(2, 6):
            assert krylov_determinant(jordan_nilpotent(n)) == 0

    def test_agrees_with_pairing_construction(self):
        rng = random.Random(113)
        for n in range(1, 6):
            for _ in range(20):
                x = rand_rational_matrix(rng, n)
                assert krylov_determinant(x) == pairing_determinant(x)

    def test_companion_sign_brute_force(self):
        # the reversal permutation of n rows has n(n-1)/2 inversions
        rng = random.Random(127)
        for n in range(1, 9):
            inversions = n * (n - 1) // 2
            expected = Fraction(-1 if inversions % 2 else 1)
            assert companion_sign(n) == expected
            for _ in range(5):
                alpha = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
                x = companion(CompanionSpec(alpha))
                assert krylov_determinant(x) == expected

    def test_homogeneity(self):
        rng = random.Random(131)
        for n in range(1, 6):
            for _ in range(10):
                x = rand_rational_matrix(rng, n)
                t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                lhs, rhs = homogeneity_check(x, t)
                assert lhs == rhs

    def test_homogeneity_by_hand(self):
        lhs, rhs = homogeneity_check(RatMatrix([[1, 2], [3, 4]]), 2)
        assert lhs == rhs == -6


class TestOmega:
    def test_companion_in_omega(self):
        assert in_omega(companion(CompanionSpec([1, 1])))

    def test_identity_not_in_omega(self):
        for n in (2, 3, 4):
            assert not in_omega(RatMatrix.identity(n))

    def test_generic_2x2_in_omega(self):
        assert in_omega(RatMatrix([[1, 2], [3, 4]]))

    def test_omega_subset_regular(self):
        rng = random.Random(137)
        for n in range(1, 6):
            for _ in range(20):
                x = _rand_matrix(rng, n)
                if in_omega(x):
                    from affinv.krylov import is_regular

                    assert is_regular(x)

    def test_strictness_witness(self):
        # Jordan blocks are regular with D = 0: inclusion is strict
        from affinv.krylov import is_regular

        for n in range(2, 7):
            j = jordan_nilpotent(n)
            assert is_regular(j)
            assert not in_omega(j)

    def test_identity_not_regular(self):
        from affinv.krylov import is_regular

        for n in (2, 3, 4):
            assert not is_regular(RatMatrix.identity(n))
        assert is_regular(RatMatrix.identity(1))


class TestCompanion:
    def test_layout_2x2(self):
        assert companion(CompanionSpec([5, 7])) == RatMatrix([[0, 7], [1, 5]])

    def test_layout_1x1(self):
        assert companion(CompanionSpec([3])) == RatMatrix([[3]])

    def test_char_poly_contract(self):
        from affinv.exactmat import UniPoly, char_poly

        assert char_poly(companion(CompanionSpec([0, 0, 1]))) == UniPoly([-1, 0, 0, 1])
        rng = random.Random(139)
        for n in range(1, 6):
            alpha = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            x = companion(CompanionSpec(alpha))
            expected = UniPoly([-a for a in reversed(alpha)] + [Fraction(1)])
            assert char_poly(x) == expected

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            CompanionSpec([])


class TestPGroup:
    def test_identity_valid(self):
        assert p_check(RatMatrix.identity(3)).det() == 1

    def test_valid_element(self):
        y = p_check(RatMatrix([[2, 5], [0, 1]]))
        assert y.det() == 2

    def test_wrong_last_row(self):
        with pytest.raises(NotInPError):
            p_check(RatMatrix([[1, 0], [1, 1]]))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            p_check(RatMatrix([[0, 0, 1], [0, 0, 2], [0, 0, 1]]))

    def test_n1_trivial_group(self):
        assert p_check(RatMatrix([[1]])).n == 1
        with pytest.raises(NotInPError):
            p_check(RatMatrix([[2]]))

    def test_direct_construction_validates(self):
        with pytest.raises(NotInPError):
            PGroupElement(matrix=RatMatrix([[1, 1], [1, 1]]))


class TestTransformationLaw:
    def test_identity_element(self):
        x = RatMatrix([[1, 2], [3, 4]])
        lhs, rhs = transformation_law(x, RatMatrix.identity(2))
        assert lhs == rhs == -3

    def test_by_hand(self):
        x = RatMatrix([[1, 2], [3, 4]])
        lhs, rhs = transformation_law(x, RatMatrix([[2, 0], [0, 1]]))
        assert lhs == rhs == Fraction(-3, 2)

    def test_random_p_elements(self):
        rng = random.Random(149)
        for n in range(2, 6):
            for _ in range(10):
                x = _rand_matrix(rng, n)
                y = _rand_p_element(rng, n)
                lhs, rhs = transformation_law(x, y)
                assert lhs == rhs
                conj = y.matrix * x * inverse(y.matrix)
                assert in_omega(conj) == in_omega(x)

    def test_companion_value(self):
        rng = random.Random(151)
        n = 3
        x = companion(CompanionSpec([1, 2, 3]))
        y = _rand_p_element(rng, n)
        lhs, rhs = transformation_law(x, y)
        assert lhs == rhs == companion_sign(n) / y.det()


class TestCyclicRowSearch:
    def test_companion_first_try(self):
        x = companion(CompanionSpec([1, 1, 1]))
        assert find_cyclic_row(x) == RatVector.unit(3, 3)

    def test_diagonal_needs_search(self):
        x = RatMatrix([[1, 0], [0, 2]])
        w = find_cyclic_row(x, seed=5)
        assert isinstance(w, RatVector)
        rows = RatMatrix.from_rows([w, w * x])
        assert determinant(rows) != 0

    def test_scalar_matrix_not_regular(self):
        res = find_cyclic_row(RatMatrix.identity(2))
        assert isinstance(res, NotRegular)
        assert res.min_poly.degree == 1

    def test_exhausted_budget_reported(self):
        from affinv.krylov import SearchExhausted

        # regular, deterministic prefixes fail, and zero random draws allowed
        x = RatMatrix([[1, 0], [0, 2]])
        with pytest.raises(SearchExhausted):
            find_cyclic_row(x, seed=0, max_tries=0)


class TestConjugateIntoOmega:
    def test_short_circuit_inside_omega(self):
        x = RatMatrix([[1, 2], [3, 4]])
        assert conjugate_into_omega(x) == RatMatrix.identity(2)

    def test_diag_example(self):
        x = RatMatrix([[1, 0], [0, 2]])
        g = conjugate_into_omega(x, seed=1)
        assert isinstance(g, RatMatrix)
        assert determinant(g) != 0
        assert in_omega(g * x * inverse(g))

    def test_identity_not_regular(self):
        assert isinstance(conjugate_into_omega(RatMatrix.identity(2)), NotRegular)

    def test_random_regular_matrices(self):
        rng = random.Random(157)
        for n in (2, 3, 4):
            done = 0
            while done < 10:
                x = _rand_matrix(rng, n)
                if min_poly(x).degree < n:
                    continue
                g = conjugate_into_omega(x, seed=rng.randint(0, 10**6))
                assert isinstance(g, RatMatrix)
                assert in_omega(g * x * inverse(g))
                done += 1

    def test_conjugator_rows_match_greedy_completion(self):
        # reference: standard basis rows added in index order while they grow
        # the rank, then the cyclic row w
        def greedy(w):
            chosen = []
            for i in range(1, w.n + 1):
                candidate = RatVector.unit(w.n, i).entries
                grows = _row_rank(chosen + [candidate, w.entries]) == len(chosen) + 2
                if len(chosen) < w.n - 1 and grows:
                    chosen.append(candidate)
            return RatMatrix(chosen + [w.entries])

        rng = random.Random(163)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                y = _rand_p_element(rng, n).matrix
                eigen = rng.sample(range(-9, 10), n)
                diag = RatMatrix(
                    [[eigen[i] * (i == j) for j in range(n)] for i in range(n)]
                )
                x = y * diag * inverse(y)  # regular, and D(x) = 0 as y is in P
                seed = rng.randint(0, 10**6)
                w = find_cyclic_row(x, seed=seed)
                g = conjugate_into_omega(x, seed=seed)
                assert w != RatVector.unit(n, n)
                assert g == greedy(w)
                # the analyze path: D and the minimal polynomial already known
                assert _conjugator(x, Fraction(0), min_poly(x), seed) == g

    def test_block_repeated_structure_rejected(self):
        # two identical companion blocks: minimal polynomial degree n/2
        from affinv.krylov import is_regular

        block = companion(CompanionSpec([2, 1]))
        x = RatMatrix(
            [
                [block.entry(1, 1), block.entry(1, 2), 0, 0],
                [block.entry(2, 1), block.entry(2, 2), 0, 0],
                [0, 0, block.entry(1, 1), block.entry(1, 2)],
                [0, 0, block.entry(2, 1), block.entry(2, 2)],
            ]
        )
        assert not is_regular(x)
        assert isinstance(conjugate_into_omega(x), NotRegular)
