import itertools
import random
from fractions import Fraction

import pytest

from affinv.exactmat import (
    NON_UNIQUE,
    NO_SOLUTION,
    DimensionMismatchError,
    MatrixJSONError,
    RatMatrix,
    RatVector,
    SingularMatrixError,
    UniPoly,
    char_poly,
    commutator,
    determinant,
    format_rational,
    inverse,
    matrix_from_json,
    matrix_to_json,
    min_poly,
    parse_rational,
    power,
    rank,
    solve_linear,
)
from affinv.report import _rand_matrix
from conftest import rand_rational_matrix


def leibniz_det(x: RatMatrix) -> Fraction:
    """Independent determinant oracle: signed sum over all permutations."""
    total = Fraction(0)
    for perm in itertools.permutations(range(x.n)):
        sign = 1
        for a in range(x.n):
            for b in range(a + 1, x.n):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = Fraction(1)
        for i, j in enumerate(perm):
            prod *= x.rows[i][j]
        total += sign * prod
    return total


class TestPower:
    def test_identity_fixed_point(self):
        assert power(RatMatrix.identity(2), 5) == RatMatrix.identity(2)

    def test_square_by_hand(self):
        x = RatMatrix([[1, 2], [3, 4]])
        assert power(x, 2) == RatMatrix([[7, 10], [15, 22]])

    def test_zeroth_power_is_identity(self):
        x = RatMatrix([[5, -1], [0, 3]])
        assert power(x, 0) == RatMatrix.identity(2)

    def test_exponent_additivity(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4):
            x = _rand_matrix(rng, n, -3, 3)
            for k1, k2 in [(0, 3), (1, 2), (2, 2), (3, 4)]:
                assert power(x, k1) * power(x, k2) == power(x, k1 + k2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            power(RatMatrix.identity(2), -1)


class TestCommutator:
    def test_self_bracket_vanishes(self):
        x = RatMatrix([[1, 2], [3, 4]])
        assert commutator(x, x).is_zero()

    def test_basis_bracket_by_hand(self):
        e11 = RatMatrix([[1, 0], [0, 0]])
        e12 = RatMatrix([[0, 1], [0, 0]])
        assert commutator(e11, e12) == e12

    def test_identity_is_central(self):
        rng = random.Random(3)
        x = _rand_matrix(rng, 3)
        assert commutator(x, RatMatrix.identity(3)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(RatMatrix.identity(2), RatMatrix.identity(3))


class TestDeterminant:
    def test_identity(self):
        for n in range(1, 6):
            assert determinant(RatMatrix.identity(n)) == 1

    def test_two_by_two_by_hand(self):
        assert determinant(RatMatrix([[1, 2], [3, 4]])) == -2

    def test_repeated_row(self):
        assert determinant(RatMatrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])) == 0

    def test_matches_leibniz_oracle(self):
        rng = random.Random(17)
        for n in range(1, 6):
            for _ in range(20):
                x = rand_rational_matrix(rng, n)
                assert determinant(x) == leibniz_det(x)

    def test_multiplicative(self):
        rng = random.Random(23)
        for n in range(2, 6):
            for _ in range(10):
                a = _rand_matrix(rng, n, -5, 5)
                b = _rand_matrix(rng, n, -5, 5)
                assert determinant(a * b) == determinant(a) * determinant(b)


class TestRank:
    def test_identity_full_rank(self):
        assert rank(RatMatrix.identity(4)) == 4

    def test_zero_matrix(self):
        assert rank(RatMatrix.zeros(3)) == 0

    def test_proportional_rows(self):
        assert rank(RatMatrix([[1, 2], [2, 4]])) == 1

    def test_rank_vs_determinant(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 5)
            x = _rand_matrix(rng, n, -4, 4)
            if determinant(x) != 0:
                assert rank(x) == n
            else:
                assert rank(x) < n


class TestCharPoly:
    def test_diag_by_hand(self):
        # (t-1)(t-2) = t^2 - 3t + 2
        assert char_poly(RatMatrix([[1, 0], [0, 2]])) == UniPoly([2, -3, 1])

    def test_companion_layout_2x2(self):
        # trace a1, determinant -a2 gives t^2 - a1 t - a2
        a1, a2 = Fraction(3), Fraction(-5)
        x = RatMatrix([[0, a2], [1, a1]])
        assert char_poly(x) == UniPoly([-a2, -a1, 1])

    def test_zero_matrix(self):
        assert char_poly(RatMatrix.zeros(3)) == UniPoly([0, 0, 0, 1])

    def test_agrees_with_determinant_oracle(self):
        # char_poly(t0) must equal det(t0*I - x) computed by the other route
        rng = random.Random(31)
        for n in range(1, 6):
            x = _rand_matrix(rng, n, -6, 6)
            p = char_poly(x)
            for t0 in (-2, 0, 1, 3, 7):
                shifted = RatMatrix.identity(n).scale(t0) - x
                assert p(t0) == determinant(shifted)

    def test_cayley_hamilton(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(37)
        for n in range(1, 6):
            for _ in range(10):
                x = rand_rational_matrix(rng, n)
                assert _sympy_at_matrix(sympy, char_poly(x), x).is_zero_matrix


class TestMinPoly:
    def test_identity(self):
        assert min_poly(RatMatrix.identity(3)) == UniPoly([-1, 1])

    def test_jordan_nilpotent(self):
        assert min_poly(RatMatrix([[0, 1], [0, 0]])) == UniPoly([0, 0, 1])

    def test_repeated_eigenvalue(self):
        x = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert min_poly(x) == UniPoly([2, -3, 1])

    def test_annihilates_and_divides_char(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(41)
        for n in range(1, 6):
            for _ in range(10):
                x = _rand_matrix(rng, n, -4, 4)
                m = min_poly(x)
                assert m.coeffs[-1] == 1
                assert _sympy_at_matrix(sympy, m, x).is_zero_matrix
                cp = sympy.Poly(list(reversed(char_poly(x).coeffs)), t)
                assert sympy.rem(cp, sympy.Poly(list(reversed(m.coeffs)), t)).is_zero

    def test_degree_minimality(self):
        # powers strictly below the minimal degree stay independent
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randint(2, 4)
            x = _rand_matrix(rng, n, -3, 3)
            d = min_poly(x).degree
            vecs = []
            xk = RatMatrix.identity(n)
            for _ in range(d):
                vecs.append([e for row in xk.rows for e in row])
                xk = xk * x
            assert _rows_rank(vecs) == d


def _sympy_at_matrix(sympy, p, x):
    """p(x) by Horner's rule over sympy matrices, which share no code with
    RatMatrix."""
    m = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in x.rows])
    acc = sympy.zeros(x.n, x.n)
    for c in reversed(p.coeffs):
        acc = acc * m + sympy.Rational(c.numerator, c.denominator) * sympy.eye(x.n)
    return acc


def _rows_rank(vecs):
    """Exact rank by plain Gaussian elimination over Fraction, independent
    of the library's fraction-free kernel."""
    rows = [[Fraction(e) for e in v] for v in vecs]
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


class TestSolveLinear:
    def test_identity_system(self):
        b = RatVector([1, 2, 3])
        assert solve_linear(RatMatrix.identity(3), b) == b

    def test_swap_by_hand(self):
        sol = solve_linear(RatMatrix([[0, 1], [1, 0]]), RatVector([1, 2]))
        assert sol == RatVector([2, 1])

    def test_inconsistent(self):
        assert solve_linear(RatMatrix.zeros(2), RatVector([1, 0])) is NO_SOLUTION

    def test_underdetermined(self):
        assert solve_linear(RatMatrix.zeros(2), RatVector([0, 0])) is NON_UNIQUE
        assert (
            solve_linear(RatMatrix([[1, 1], [2, 2]]), RatVector([3, 6])) is NON_UNIQUE
        )

    def test_solution_satisfies_system(self):
        rng = random.Random(47)
        found = 0
        while found < 25:
            n = rng.randint(1, 5)
            a = _rand_matrix(rng, n, -6, 6)
            if determinant(a) == 0:
                continue
            b = RatVector([rng.randint(-9, 9) for _ in range(n)])
            s = solve_linear(a, b)
            assert isinstance(s, RatVector)
            recovered = RatVector(
                sum(a.rows[i][j] * s.entries[j] for j in range(n)) for i in range(n)
            )
            assert recovered == b
            found += 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(RatMatrix.identity(2), RatVector([1, 2, 3]))


class TestInverse:
    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(1, 5)
            x = _rand_matrix(rng, n, -5, 5)
            if determinant(x) == 0:
                continue
            assert x * inverse(x) == RatMatrix.identity(n)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            inverse(RatMatrix([[1, 2], [2, 4]]))


class TestUniPoly:
    def test_canonical_form(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert UniPoly([0, 0]).degree is None

    def test_evaluation(self):
        p = UniPoly([Fraction(1, 2), 0, 1])
        assert p(2) == Fraction(9, 2)


class TestJsonRoundTrip:
    def test_parse_and_format(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(5) == Fraction(5)
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(8, 2)) == "4"

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "a/b", "", "1/2/3", True, None])
    def test_malformed_rationals(self, bad):
        with pytest.raises(MatrixJSONError):
            parse_rational(bad)

    def test_round_trip_idempotent(self):
        rng = random.Random(59)
        for _ in range(10):
            n = rng.randint(1, 4)
            x = rand_rational_matrix(rng, n)
            again = matrix_from_json(matrix_to_json(x))
            assert again == x
            assert matrix_to_json(again) == matrix_to_json(x)

    def test_ragged_rows_rejected(self):
        with pytest.raises(MatrixJSONError):
            matrix_from_json({"n": 2, "entries": [["1", "2"], ["3"]]})

    def test_wrong_n_rejected(self):
        with pytest.raises(MatrixJSONError):
            matrix_from_json({"n": 3, "entries": [["1", "2"], ["3", "4"]]})

    def test_extra_keys_rejected(self):
        with pytest.raises(MatrixJSONError):
            matrix_from_json({"n": 1, "entries": [["1"]], "x": 0})
