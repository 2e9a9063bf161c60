import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import chain

import pytest

from affinv import exactmat, krylov
from affinv.cli import main
from affinv.exactmat import (
    ExactmatError,
    RatMatrix,
    SingularMatrixError,
    determinant,
    format_rational,
    inverse,
    matrix_to_json,
    min_poly,
    power,
)
from affinv.krylov import (
    NotInPError,
    PGroupElement,
    SearchExhausted,
    analyze,
    companion,
    companion_sign,
    conjugate_into_omega,
    find_cyclic_row,
    homogeneity_check,
    in_omega,
    is_regular,
    krylov_determinant,
    krylov_rows,
    pairing_determinant,
    transformation_law,
)
from affinv.report import _rand_matrix, _rand_p_element
from conftest import rand_rational_matrix, rows_rank


def jordan_nilpotent(n: int) -> RatMatrix:
    return RatMatrix(
        [[Fraction(int(j == i + 1)) for j in range(n)] for i in range(n)]
    )


class TestKrylovMatrix:
    def test_identity_rows_repeat(self):
        rows = krylov_rows((0, 1), RatMatrix.identity(2))
        assert rows == RatMatrix([[0, 1], [0, 1]])

    def test_generic_2x2(self):
        rows = krylov_rows((0, 1), RatMatrix([[1, 2], [3, 4]]))
        assert rows == RatMatrix([[0, 1], [3, 4]])

    def test_companion_2x2(self):
        a1, a2 = Fraction(5), Fraction(-3)
        rows = krylov_rows((0, 1), companion([a1, a2]))
        assert rows == RatMatrix([[0, 1], [1, a1]])

    def test_rows_match_power_route(self):
        # independent construction: row k is e_n x^k, the last row of power(x, k)
        rng = random.Random(109)
        for _ in range(15):
            n = rng.randint(1, 5)
            x = rand_rational_matrix(rng, n)
            rows = krylov_rows((0,) * (n - 1) + (1,), x)
            for k in range(n):
                assert rows.rows[k] == power(x, k).rows[n - 1]

    def test_n1_convention(self):
        assert krylov_rows((1,), RatMatrix([[7]])) == RatMatrix([[1]])
        assert krylov_determinant(RatMatrix([[7]])) == 1

    def test_krylov_rows_of_any_row(self):
        rng = random.Random(163)
        for _ in range(15):
            n = rng.randint(1, 5)
            x = rand_rational_matrix(rng, n)
            w = [rng.randint(-3, 3) for _ in range(n)]
            rows = krylov_rows(w, x)
            for k in range(n):
                xk = power(x, k).rows
                wxk = tuple(sum(w[i] * xk[i][j] for i in range(n)) for j in range(n))
                assert rows.rows[k] == wxk


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
                x = companion(alpha)
                assert krylov_determinant(x) == expected

    def test_homogeneity(self):
        rng = random.Random(131)
        for n in range(1, 6):
            for _ in range(10):
                x = rand_rational_matrix(rng, n)
                t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                lhs, rhs = homogeneity_check(x, t, krylov_determinant(x))
                assert lhs == rhs

    def test_homogeneity_by_hand(self):
        x = RatMatrix([[1, 2], [3, 4]])
        lhs, rhs = homogeneity_check(x, 2, krylov_determinant(x))
        assert lhs == rhs == -6


class TestOmega:
    def test_companion_in_omega(self):
        assert in_omega(companion([1, 1]))

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
                    assert is_regular(x)

    def test_strictness_witness(self):
        # Jordan blocks are regular with D = 0: inclusion is strict
        for n in range(2, 7):
            j = jordan_nilpotent(n)
            assert is_regular(j)
            assert not in_omega(j)

    def test_identity_not_regular(self):
        for n in (2, 3, 4):
            assert not is_regular(RatMatrix.identity(n))
        assert is_regular(RatMatrix.identity(1))


class TestCompanion:
    def test_layout_2x2(self):
        assert companion([5, 7]) == RatMatrix([[0, 7], [1, 5]])

    def test_layout_1x1(self):
        assert companion([3]) == RatMatrix([[3]])

    def test_char_poly_contract(self):
        from affinv.exactmat import char_poly

        assert char_poly(companion([0, 0, 1])) == (-1, 0, 0, 1)
        rng = random.Random(139)
        for n in range(1, 6):
            alpha = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            x = companion(alpha)
            expected = (*[-a for a in reversed(alpha)], 1)
            assert char_poly(x) == expected

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            companion([])


class TestPGroup:
    def test_identity_valid(self):
        assert PGroupElement(matrix=RatMatrix.identity(3)).det() == 1

    def test_valid_element(self):
        y = PGroupElement(matrix=RatMatrix([[2, 5], [0, 1]]))
        assert y.det() == 2

    def test_wrong_last_row(self):
        with pytest.raises(NotInPError):
            PGroupElement(matrix=RatMatrix([[1, 0], [1, 1]]))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            PGroupElement(matrix=RatMatrix([[0, 0, 1], [0, 0, 2], [0, 0, 1]]))

    def test_n1_trivial_group(self):
        assert PGroupElement(matrix=RatMatrix([[1]])).det() == 1
        with pytest.raises(NotInPError):
            PGroupElement(matrix=RatMatrix([[2]]))

    def test_direct_construction_validates(self):
        with pytest.raises(NotInPError):
            PGroupElement(matrix=RatMatrix([[1, 1], [1, 1]]))


class TestTransformationLaw:
    def test_identity_element(self):
        x = RatMatrix([[1, 2], [3, 4]])
        lhs, rhs = transformation_law(
            x, PGroupElement(matrix=RatMatrix.identity(2)), krylov_determinant(x)
        )
        assert lhs == rhs == -3

    def test_by_hand(self):
        x = RatMatrix([[1, 2], [3, 4]])
        y = PGroupElement(matrix=RatMatrix([[2, 0], [0, 1]]))
        lhs, rhs = transformation_law(x, y, krylov_determinant(x))
        assert lhs == rhs == Fraction(-3, 2)

    def test_random_p_elements(self):
        rng = random.Random(149)
        for n in range(2, 6):
            for _ in range(10):
                x = _rand_matrix(rng, n)
                y = _rand_p_element(rng, n)
                lhs, rhs = transformation_law(x, y, krylov_determinant(x))
                assert lhs == rhs
                conj = y.matrix * x * inverse(y.matrix)
                assert in_omega(conj) == in_omega(x)

    def test_companion_value(self):
        rng = random.Random(151)
        n = 3
        x = companion([1, 2, 3])
        y = _rand_p_element(rng, n)
        lhs, rhs = transformation_law(x, y, krylov_determinant(x))
        assert lhs == rhs == companion_sign(n) / y.det()


class TestCyclicRowSearch:
    def test_diagonal_needs_search(self):
        x = RatMatrix([[1, 0], [0, 2]])
        w = find_cyclic_row(x, seed=5)
        assert w != (0, 1)
        w1, w2 = w
        assert determinant(RatMatrix([[w1, w2], [w1, 2 * w2]])) != 0  # rows w, wx

    def test_unit_row_before_random_rows(self):
        # e_1 is cyclic for this off-locus matrix, so no random row is drawn
        x = RatMatrix([[1, 1], [0, 2]])
        assert krylov_determinant(x) == 0
        assert find_cyclic_row(x) == (1, 0)

    def test_exhausted_budget_reported(self, monkeypatch):
        # regular, every unit row fails, and zero random draws allowed
        monkeypatch.setattr(krylov, "MAX_TRIES", 0)
        with pytest.raises(SearchExhausted):
            analyze(RatMatrix([[1, 0], [0, 2]]), conjugate=True)


class TestAnalyze:
    def test_inside_omega_short_circuits(self):
        x = RatMatrix([[1, 2], [3, 4]])
        found = analyze(x, conjugate=True)
        assert (found.d, found.regular) == (-3, True)
        assert found.conjugator == RatMatrix.identity(2)
        assert found.char_poly == found.min_poly == min_poly(x)

    def test_companion_needs_no_search(self):
        found = analyze(companion([1, 1, 1]), conjugate=True)
        assert found.d == companion_sign(3)
        assert found.conjugator == RatMatrix.identity(3)

    def test_no_conjugator_unless_asked(self):
        found = analyze(RatMatrix([[1, 0], [0, 2]]))
        assert found.regular and found.d == 0 and found.conjugator is None

    def test_diag_example(self):
        x = RatMatrix([[1, 0], [0, 2]])
        g = analyze(x, conjugate=True, seed=1).conjugator
        assert determinant(g) != 0
        assert in_omega(g * x * inverse(g))

    def test_scalar_matrix_not_regular(self):
        found = analyze(RatMatrix.identity(2), conjugate=True)
        assert not found.regular and found.conjugator is None
        assert found.min_poly == (-1, 1)
        assert found.char_poly == (1, -2, 1)

    def test_random_regular_matrices(self):
        rng = random.Random(157)
        for n in (2, 3, 4):
            done = 0
            while done < 10:
                x = _rand_matrix(rng, n)
                if len(min_poly(x)) - 1 < n:
                    continue
                g = analyze(x, conjugate=True, seed=rng.randint(0, 10**6)).conjugator
                assert in_omega(g * x * inverse(g))
                done += 1

    def test_conjugator_rows_match_greedy_completion(self):
        # reference: standard basis rows added in index order while they grow
        # the rank, then the cyclic row w
        def greedy(w):
            n, chosen = len(w), []
            for i in range(n):
                candidate = [int(j == i) for j in range(n)]
                grows = rows_rank(chosen + [candidate, w]) == len(chosen) + 2
                if len(chosen) < n - 1 and grows:
                    chosen.append(candidate)
            return RatMatrix(chosen + [w])

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
                g = analyze(x, conjugate=True, seed=seed).conjugator
                assert w != (0,) * (n - 1) + (1,)
                assert g == greedy(w) == conjugate_into_omega(x, w)

    @pytest.mark.parametrize(
        "w, message",
        [
            ((0, 0), "zero row"),
            ((1,), "length 1"),
            ((0, 1, 0), "length 3"),
            ((1, -1), "not cyclic"),  # a left eigenvector of x
            ((0, 1), "not cyclic"),  # e_n, and D(x) = 0
        ],
    )
    def test_conjugate_rejects_a_row_that_is_not_cyclic(self, w, message):
        x = RatMatrix([[1, 1], [0, 2]])  # (1, -1) x = (1, -1)
        with pytest.raises(ExactmatError, match=message):
            conjugate_into_omega(x, w)

    def test_conjugate_accepts_a_rational_cyclic_row(self):
        x = RatMatrix([[1, 0], [0, 2]])
        g = conjugate_into_omega(x, (Fraction(1, 2), Fraction(-3, 4)))
        assert g == RatMatrix([[1, 0], [Fraction(1, 2), Fraction(-3, 4)]])
        assert in_omega(g * x * inverse(g))

    def test_block_repeated_structure_rejected(self):
        # two identical companion blocks: minimal polynomial degree n/2
        block = companion([2, 1])
        x = RatMatrix(
            [
                [block.entry(1, 1), block.entry(1, 2), 0, 0],
                [block.entry(2, 1), block.entry(2, 2), 0, 0],
                [0, 0, block.entry(1, 1), block.entry(1, 2)],
                [0, 0, block.entry(2, 1), block.entry(2, 2)],
            ]
        )
        assert not is_regular(x)
        found = analyze(x, conjugate=True)
        assert not found.regular and found.conjugator is None
        assert len(found.min_poly) - 1 == 2


def _p_element(rng, n):
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
        y = RatMatrix(rows + [[0] * (n - 1) + [1]])
        if determinant(y) != 0:
            return y


def _invertible(rng, n):
    while True:
        y = RatMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if determinant(y) != 0:
            return y


def _scalar(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))


def _digest_matrices():
    """Integer, rational, off-locus y diag y^-1 with y in P and distinct
    eigenvalues, and non-regular u J u^-1 with two Jordan blocks for one
    eigenvalue, in turn; 300 of each, n = 1..6 (2..6 for the last two).
    About a quarter of the off-locus ones fail every unit row and need
    random rows."""
    rng = random.Random(20261019)
    out = []
    for k in range(300):
        n = 1 + k % 6
        out.append(RatMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]))
        out.append(RatMatrix([[_scalar(rng) for _ in range(n)] for _ in range(n)]))
        n = 2 + k % 5
        eigen = []
        while len(eigen) < n:
            e = _scalar(rng)
            if e not in eigen:
                eigen.append(e)
        y = _p_element(rng, n)
        diag = RatMatrix([[eigen[i] if i == j else 0 for j in range(n)] for i in range(n)])
        out.append(y * diag * inverse(y))
        lam, cut = rng.randint(-3, 3), rng.randint(1, n - 1)
        jordan = RatMatrix(
            [[lam if i == j else int(j == i + 1 and j != cut) for j in range(n)] for i in range(n)]
        )
        u = _invertible(rng, n)
        out.append(u * jordan * inverse(u))
    return out


# SHA-256 of (D, min_poly, char_poly, regular, conjugator rows) over the 1,200
# digest matrices, each searched with its index as seed, recorded from the
# command-line flow before analyze existed: it pins the search order (e_n,
# the other unit rows, then random rows) and the random-row stream
ANALYZE_DIGEST = "f89fa847c6fb7f82136594faaa9c4fb27186509230fbe80447d7a2c867d96692"


def test_analyze_reproduces_the_recorded_digest():
    digest = hashlib.sha256()
    for seed, x in enumerate(_digest_matrices()):
        found = analyze(x, conjugate=True, seed=seed)
        g = found.conjugator
        record = {
            "D": str(found.d),
            "min_poly": [format_rational(c) for c in found.min_poly],
            "char_poly": [format_rational(c) for c in found.char_poly],
            "regular": found.regular,
            "conjugator": None if g is None else matrix_to_json(g)["entries"],
        }
        digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == ANALYZE_DIGEST


def _count(monkeypatch, name, calls=None):
    """Record the arguments of every call of krylov's binding ``name``, in
    ``calls`` if given."""
    calls, fn = [] if calls is None else calls, getattr(krylov, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(krylov, name, counted)
    return calls


def _count_chains(monkeypatch):
    """The row w of every Krylov chain, in call order, whether it runs with
    dependence columns (``_krylov_dependence``), bare (``_krylov_det``) or
    content-reduced for a decision alone (``_is_cyclic``)."""
    calls = []
    for name in ("_krylov_dependence", "_krylov_det", "_is_cyclic"):
        _count(monkeypatch, name, calls)
    return calls


def _dependence_starts(monkeypatch):
    """The first vector of every elimination that carries dependence columns
    (``exactmat._with_units``): a Krylov chain's row w (e_n's, or
    ``min_poly``'s probe row), vec(I) for ``min_poly``'s power chain, or an
    inverse's first row."""
    starts, with_units = [], exactmat._with_units

    def recorded(vectors, m):
        vectors = iter(vectors)
        first = next(vectors)
        starts.append(tuple(first))
        return with_units(chain([first], vectors), m)

    monkeypatch.setattr(exactmat, "_with_units", recorded)
    return starts


def _analyze_cli(monkeypatch, x, extra):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix_to_json(x))))
    return main(["analyze", "-", *extra])


@pytest.mark.parametrize("extra, code", [([], 0), (["--conjugate"], 3)])
def test_non_regular_work_order(extra, code, monkeypatch, capsys):
    chains = _count_chains(monkeypatch)
    mins, chars = (_count(monkeypatch, name) for name in ("min_poly", "char_poly"))
    starts = _dependence_starts(monkeypatch)
    x = RatMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]])  # (t - 2)^2 is minimal
    assert _analyze_cli(monkeypatch, x, extra) == code
    capsys.readouterr()
    assert [w for w, *_ in chains] == [(0, 0, 1)]
    assert len(mins) == 1
    assert len(chars) == (0 if code else 1)
    # the e_n chain, then min_poly's probe row, which no row of a non-regular
    # x can be cyclic for, then its fallback, the power chain from vec(I)
    assert starts == [(0, 0, 1), exactmat._probe_row(3), (1, 0, 0, 0, 1, 0, 0, 0, 1)]


def test_regular_off_locus_work_order(monkeypatch, capsys):
    chains = _count_chains(monkeypatch)
    mins, chars = (_count(monkeypatch, name) for name in ("min_poly", "char_poly"))
    starts = _dependence_starts(monkeypatch)
    x = RatMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])  # every unit row fails
    assert _analyze_cli(monkeypatch, x, ["--conjugate"]) == 0
    capsys.readouterr()
    assert [w for w, *_ in chains[:3]] == [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
    assert len(chains) > 3
    assert len(mins) == 1 and chars == []
    # only the e_n chain and min_poly's probe row carry dependence columns:
    # the probe row is cyclic, so min_poly's power chain from vec(I) never
    # runs, and nothing is inverted
    assert starts == [(0, 0, 1), exactmat._probe_row(3)]
