import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from affinv import exactmat
from affinv.exactmat import (
    DimensionMismatchError,
    ExactmatError,
    MatrixJSONError,
    RatMatrix,
    SingularMatrixError,
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
)
from affinv.krylov import analyze
from affinv.report import _rand_matrix
from conftest import rand_rational_matrix, rows_rank


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
        assert rank(RatMatrix([[0] * 3] * 3)) == 0

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

    def test_low_rank_products_match_elimination_oracle(self):
        # a (n x r) times b (r x n) has rank at most r; compare with plain
        # Gaussian elimination over Fraction
        rng = random.Random(83)
        for n in range(1, 6):
            for r in range(n + 1):
                a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(r)]
                     for _ in range(n)]
                b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
                x = RatMatrix(
                    [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)]
                     for i in range(n)]
                )
                assert rank(x) == rows_rank(x.rows) <= r


class TestCharPoly:
    def test_diag_by_hand(self):
        # (t-1)(t-2) = t^2 - 3t + 2
        assert char_poly(RatMatrix([[1, 0], [0, 2]])) == (2, -3, 1)

    def test_companion_layout_2x2(self):
        # trace a1, determinant -a2 gives t^2 - a1 t - a2
        a1, a2 = Fraction(3), Fraction(-5)
        x = RatMatrix([[0, a2], [1, a1]])
        assert char_poly(x) == (-a2, -a1, 1)

    def test_zero_matrix(self):
        assert char_poly(RatMatrix([[0] * 3] * 3)) == (0, 0, 0, 1)

    def test_agrees_with_determinant_oracle(self):
        # char_poly at t0, summed from its coefficients, must equal
        # det(t0*I - x) by elimination, a route that reads no power trace
        rng = random.Random(31)
        for n in range(1, 6):
            for x in (_rand_matrix(rng, n, -6, 6), rand_rational_matrix(rng, n)):
                coeffs = char_poly(x)
                for t0 in (-2, 0, 1, Fraction(1, 3), 3, 7):
                    shifted = RatMatrix.identity(n).scale(t0) - x
                    value = sum(c * Fraction(t0) ** i for i, c in enumerate(coeffs))
                    assert value == determinant(shifted)

    def test_reads_n_chain_terms_and_no_determinant(self, monkeypatch):
        drawn, dets = [], []
        chain, det = exactmat._krylov_rows, exactmat.determinant

        def counted_chain(w, x):
            for term in chain(w, x):
                drawn.append(term)
                yield term

        def counted_det(x):
            dets.append(x)
            return det(x)

        monkeypatch.setattr(exactmat, "_krylov_rows", counted_chain)
        monkeypatch.setattr(exactmat, "determinant", counted_det)
        rng = random.Random(29)
        for n in range(1, 7):
            for x in (_rand_matrix(rng, n), rand_rational_matrix(rng, n)):
                drawn.clear()
                char_poly(x)
                assert len(drawn) == n
        assert dets == []

    def test_trace_and_determinant_coefficients(self):
        # t^(n-1) carries -tr(x) and t^0 carries (-1)^n det(x)
        rng = random.Random(59)
        for n in range(1, 7):
            for x in (_rand_matrix(rng, n, -7, 7), rand_rational_matrix(rng, n)):
                coeffs = char_poly(x)
                assert len(coeffs) == n + 1 and coeffs[n] == 1
                assert coeffs[n - 1] == -x.trace()
                assert coeffs[0] == (-1) ** n * determinant(x)

    def test_scalar_matrix_is_a_binomial_power(self):
        # c I gives (t - c)^n = sum_i C(n, i) (-c)^(n-i) t^i
        for c in (2, -1, Fraction(-1, 3), Fraction(5, 2)):
            for n in range(1, 7):
                x = RatMatrix.identity(n).scale(c)
                expected = [comb(n, i) * Fraction(-c) ** (n - i) for i in range(n + 1)]
                assert char_poly(x) == tuple(expected)

    def test_strictly_triangular_is_t_to_the_n(self):
        # nilpotent: every power trace is 0, so every lower coefficient is 0
        rng = random.Random(61)
        for n in range(1, 8):
            x = RatMatrix(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if j > i else 0
                  for j in range(n)] for i in range(n)]
            )
            assert char_poly(x) == (0,) * n + (1,)

    def test_triangular_is_the_product_of_diagonal_factors(self):
        rng = random.Random(67)
        for n in range(1, 8):
            diag = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            x = RatMatrix(
                [[diag[i] if i == j else (rng.randint(-9, 9) if j > i else 0)
                  for j in range(n)] for i in range(n)]
            )
            expected = [Fraction(1)]  # coefficients of prod (t - d), low first
            for d in diag:
                expected = [-d * a + b for a, b in zip(expected + [0], [0] + expected)]
            assert char_poly(x) == tuple(expected)

    def test_companion_recovers_its_polynomial(self):
        # ones below the diagonal and a_1..a_n in the last column give
        # t^n - a_n t^(n-1) - ... - a_1, as in the 2x2 layout above
        rng = random.Random(71)
        for n in range(1, 10):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            x = RatMatrix(
                [[a[i] if j == n - 1 else int(i == j + 1) for j in range(n)] for i in range(n)]
            )
            assert char_poly(x) == (*[-c for c in a], 1)

    def test_scaling_divides_coefficients_by_powers(self):
        # char_poly(x / q) has t^i coefficient c_i / q^(n-i)
        rng = random.Random(73)
        for n in range(1, 6):
            x = _rand_matrix(rng, n, -6, 6)
            coeffs = char_poly(x)
            for q in (2, 7, Fraction(3, 5), -4):
                scaled = char_poly(x.scale(Fraction(1, 1) / q))
                assert scaled == tuple(c / Fraction(q) ** (n - i) for i, c in enumerate(coeffs))

    def test_similarity_and_transpose_invariant(self):
        rng = random.Random(79)
        for n in range(1, 6):
            x = rand_rational_matrix(rng, n)
            p = char_poly(x)
            transposed = RatMatrix([[x.rows[j][i] for j in range(n)] for i in range(n)])
            assert char_poly(transposed) == p
            y = _rand_matrix(rng, n, -4, 4)
            if determinant(y) != 0:
                assert char_poly(y * x * inverse(y)) == p

    def test_integral_coefficients_of_rational_input_are_int(self):
        # y x y^-1 has p/q entries but x's integer polynomial; the division
        # by k and by q^(n-i) must hand back int, not an integral Fraction.
        # Every polynomial, from min_poly, char_poly or analyze, holds int
        # for an integral coefficient and Fraction only for another one.
        def exact_types(p):
            return all(
                type(c) is (int if c.denominator == 1 else Fraction) for c in p
            )

        rng = random.Random(89)
        checked = 0
        while checked < 12:
            n = rng.randint(2, 5)
            x, y = _rand_matrix(rng, n, -5, 5), _rand_matrix(rng, n, -3, 3)
            if determinant(y) in (0, 1, -1):
                continue
            conj = y * x * inverse(y)
            if all(type(e) is int for row in conj.rows for e in row):
                continue
            coeffs = char_poly(conj)
            assert all(type(c) is int for c in coeffs)
            assert coeffs == char_poly(x)
            for z in (x, conj, rand_rational_matrix(rng, n)):
                found = analyze(z)
                polys = (min_poly(z), char_poly(z), found.min_poly, found.char_poly)
                assert all(exact_types(p) for p in polys)
                assert polys[0] == polys[2] and polys[1] == polys[3]
            assert all(type(c) is int for c in min_poly(conj))
            checked += 1
        # a p/q input whose polynomials have non-integral coefficients
        p = min_poly(RatMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]))
        assert p == (Fraction(1, 6), Fraction(-5, 6), 1) and exact_types(p)

    def test_cayley_hamilton(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(37)
        for n in range(1, 6):
            for _ in range(10):
                x = rand_rational_matrix(rng, n)
                assert _sympy_at_matrix(sympy, char_poly(x), x).is_zero_matrix


class TestMinPoly:
    def test_identity(self):
        assert min_poly(RatMatrix.identity(3)) == (-1, 1)

    def test_jordan_nilpotent(self):
        assert min_poly(RatMatrix([[0, 1], [0, 0]])) == (0, 0, 1)

    def test_repeated_eigenvalue(self):
        x = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert min_poly(x) == (2, -3, 1)

    def test_annihilates_and_divides_char(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(41)
        for n in range(1, 6):
            for _ in range(10):
                x = _rand_matrix(rng, n, -4, 4)
                m = min_poly(x)
                assert m[-1] == 1
                assert _sympy_at_matrix(sympy, m, x).is_zero_matrix
                cp = sympy.Poly(list(reversed(char_poly(x))), t)
                assert sympy.rem(cp, sympy.Poly(list(reversed(m)), t)).is_zero

    def test_probe_rows_are_fixed_wide_and_nonzero(self):
        # min_poly's probe row is drawn once per n and then kept
        for n in range(1, 13):
            w = exactmat._probe_row(n)
            assert len(w) == n and any(w)
            assert all(type(e) is int and -(2**16) <= e <= 2**16 for e in w)
            assert exactmat._probe_row(n) is w

    def test_degree_minimality(self):
        # powers strictly below the minimal degree stay independent
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randint(2, 4)
            x = _rand_matrix(rng, n, -3, 3)
            d = len(min_poly(x)) - 1
            vecs = []
            xk = RatMatrix.identity(n)
            for _ in range(d):
                vecs.append([e for row in xk.rows for e in row])
                xk = xk * x
            assert rows_rank(vecs) == d


def _sympy_at_matrix(sympy, p, x):
    """p(x) by Horner's rule over sympy matrices, which share no code with
    RatMatrix."""
    m = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in x.rows])
    acc = sympy.zeros(x.n, x.n)
    for c in reversed(p):
        acc = acc * m + sympy.Rational(c.numerator, c.denominator) * sympy.eye(x.n)
    return acc


class _Small(int):
    """An int subclass, which the normal form stores as a plain int."""


def _types(x: RatMatrix) -> list:
    return [[type(e) for e in row] for row in x.rows]


class TestNormalForm:
    """RatMatrix takes all-int rows as they are and normalises every other
    row: each entry exactly int when integral, Fraction otherwise."""

    @pytest.mark.parametrize(
        "entry", [True, False, _Small(3), Fraction(4, 2), Fraction(0)], ids=repr
    )
    def test_integral_entries_become_exactly_int(self, entry):
        for rows in ([[entry]], [[entry, 1], [2, 3]], [[1, 2], [3, entry]]):
            x = RatMatrix(rows)
            assert all(t is int for row in _types(x) for t in row)
            assert x == RatMatrix([[int(e) for e in row] for row in rows])
            assert hash(x) == hash(RatMatrix([[int(e) for e in row] for row in rows]))

    def test_int_rows_are_kept_and_fractions_stay(self):
        x = RatMatrix([[1, 2], [3, 4]])
        assert x.rows == ((1, 2), (3, 4)) and _types(x) == [[int, int], [int, int]]
        y = RatMatrix([[1, Fraction(1, 2)], [Fraction(6, 3), -4]])
        assert y.rows == ((1, Fraction(1, 2)), (2, -4))
        assert _types(y) == [[int, Fraction], [int, int]]

    def test_rows_given_by_generators(self):
        x = RatMatrix((e for e in row) for row in [[1, 2], [3, 4]])
        assert x.rows == ((1, 2), (3, 4))
        y = RatMatrix(iter([(Fraction(1, 2), True), (0, 1)]))
        assert y.rows == ((Fraction(1, 2), 1), (0, 1))
        assert _types(y) == [[Fraction, int], [int, int]]

    @pytest.mark.parametrize(
        "rows", [[[1, 2], [3]], [[1], [2]], [[1, 2]], [[Fraction(1, 2), 2], [3]], []]
    )
    def test_ragged_or_empty_rows_are_rejected(self, rows):
        with pytest.raises(ExactmatError):
            RatMatrix(rows)

    @pytest.mark.parametrize("bad", [1.0, 0.5, "2", None])
    def test_float_or_str_entry_is_a_type_error(self, bad):
        for rows in ([[bad]], [[1, 2], [3, bad]]):
            with pytest.raises(TypeError):
                RatMatrix(rows)

    def test_products_and_scales_normalise(self):
        x = RatMatrix([[Fraction(1, 2), 0], [1, 2]])
        product = x * x  # q = 4 > 1: every entry passes through Fraction
        assert product.rows == ((Fraction(1, 4), 0), (Fraction(5, 2), 4))
        assert _types(product) == [[Fraction, int], [Fraction, int]]
        half = RatMatrix([[2, 3], [4, 6]]).scale(Fraction(1, 2))
        assert half.rows == ((1, Fraction(3, 2)), (2, 3))
        assert _types(half) == [[int, Fraction], [int, int]]
        assert _types(half.scale(Fraction(4, 2))) == [[int, int], [int, int]]


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
