"""Oracle tests for the integer-first exact layer.

sympy shares no code with affinv, so it serves as an independent oracle
for determinant, inverse (and the scaled inverse behind it), rank,
char_poly and min_poly on
hypothesis-drawn integer and rational matrices, and for the Krylov kernel
behind ``analyze`` (D_w and the characteristic polynomial from one
chain) and the ``analyze`` JSON itself.  Uniform draws are almost always
regular and of full rank, so low-rank products and non-regular Jordan
forms are drawn as well, to reach the rank-deficient branches of the
elimination kernel, and chains whose first dependence comes at each power
1..n, to check that the chain kernel stops exactly there.  The same draws check the scalar contract:
entries are ``int`` when integral and ``Fraction`` otherwise, no float ever
appears, and the public scalars are ``Fraction``.
"""

import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from sympy.combinatorics import Permutation  # noqa: E402

from affinv import exactmat  # noqa: E402
from affinv.cli import main  # noqa: E402
from affinv.exactmat import (  # noqa: E402
    RatMatrix,
    SingularMatrixError,
    _chain_dependence,
    _eliminate,
    _krylov_rows,
    _scaled_inverse,
    char_poly,
    commutator,
    determinant,
    format_rational,
    inverse,
    matrix_from_json,
    matrix_to_json,
    min_poly,
    power,
)
from affinv.invariants import (  # noqa: E402
    basis_bracket,
    basis_expansion_residual,
    basis_matrix,
    trace_form,
)
from affinv.krylov import (  # noqa: E402
    MAX_TRIES,
    PGroupElement,
    SearchExhausted,
    _krylov_dependence,
    _krylov_det,
    _scaled_conjugate,
    companion,
    find_cyclic_row,
    in_omega,
    krylov_determinant,
    pairing_determinant,
    pairing_matrix,
    transformation_law,
)
from reference import entry_bracket_pairing, rank, trace, trace_power  # noqa: E402

ORACLE = settings(max_examples=40, deadline=None, derandomize=True)

_int_entry = st.integers(-9, 9)
_rat_entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def _grid(rows, cols, entry=_int_entry):
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def _square(entry, n):
    return _grid(n, n, entry).map(RatMatrix)


def _permuted_triangular(n):
    """Rows of an upper triangular matrix with a nonzero diagonal, permuted:
    the first nonzero entry of row i, its pivot column, is in column perm[i],
    so the pivot columns come out of order, as odd and even permutations."""
    nonzero = _int_entry.filter(bool)

    def build(perm, upper, diagonal):
        rows = [[0] * i + [diagonal[i]] + upper[i][i + 1 :] for i in range(n)]
        return RatMatrix([rows[perm.index(i)] for i in range(n)])

    return st.builds(
        build,
        st.permutations(range(n)),
        _grid(n, n, st.one_of(_int_entry, _rat_entry)),
        st.lists(nonzero, min_size=n, max_size=n),
    )


def matrices(max_n=6):
    """Integer or rational (p/q, q <= 9) matrices with 1 <= n <= max_n, dense
    or permuted triangular."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.one_of(
            _square(_int_entry, n), _square(_rat_entry, n), _permuted_triangular(n)
        )
    )


def int_matrices(max_n=6):
    return st.integers(1, max_n).flatmap(lambda n: _square(_int_entry, n))


def low_rank_matrices(max_n=6):
    """A B with A n x k and B k x n integer, k < n: rank at most k."""

    def product(n, k, a, b):
        return RatMatrix(
            [
                [sum(a[i][l] * b[l][j] for l in range(k)) for j in range(n)]
                for i in range(n)
            ]
        )

    def draw(n, k):
        return st.tuples(_grid(n, k), _grid(k, n)).map(lambda ab: product(n, k, *ab))

    return st.integers(2, max_n).flatmap(
        lambda n: st.integers(0, n - 1).flatmap(lambda k: draw(n, k))
    )


def _jordan(n, blocks):
    """Block-diagonal Jordan matrix; blocks are (size, eigenvalue) pairs."""
    j = sympy.zeros(n, n)
    start = 0
    for size, lam in blocks:
        for a in range(start, start + size):
            j[a, a] = lam
            if a + 1 < start + size:
                j[a, a + 1] = 1
        start += size
    return j


def _unimodular(n, lower, upper):
    """Unit lower times unit upper triangular: integer, det 1."""
    lo = sympy.eye(n)
    up = sympy.eye(n)
    for a in range(n):
        for b in range(a):
            lo[a, b] = lower[a][b]
            up[b, a] = upper[a][b]
    return lo * up


@st.composite
def non_regular_matrices(draw, max_n=6):
    """U J U^-1 where J has two Jordan blocks for one eigenvalue (so the
    minimal polynomial has degree < n) and U is unimodular."""
    n = draw(st.integers(2, max_n))
    s1 = draw(st.integers(1, n - 1))
    s2 = draw(st.integers(1, n - s1))
    lam, mu = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    blocks = [(s1, lam), (s2, lam)] + ([(n - s1 - s2, mu)] if n > s1 + s2 else [])
    small = st.integers(-2, 2)
    u = _unimodular(n, draw(_grid(n, n, small)), draw(_grid(n, n, small)))
    return from_sympy_matrix(u * _jordan(n, blocks) * u.inv())


def to_sympy(x: RatMatrix):
    return sympy.Matrix(
        [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in x.rows]
    )


def from_sympy(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def from_sympy_matrix(m) -> RatMatrix:
    return RatMatrix(
        [[from_sympy(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]
    )


def sympy_min_poly(m) -> list:
    """Ascending monic coefficients of the first dependence among
    vec(I), vec(m), vec(m^2), ..., found by sympy's nullspace."""
    n = m.shape[0]
    powers = [sympy.eye(n)]
    for k in range(1, n + 1):
        powers.append(powers[-1] * m)
        stack = sympy.Matrix.hstack(*(p.reshape(n * n, 1) for p in powers))
        null = stack.nullspace()
        if null:
            v = null[0]
            return [from_sympy(c / v[k]) for c in v]
    raise AssertionError("powers up to n must be dependent")


def assert_exact_scalar(value):
    """int when integral, Fraction otherwise; never a float or bool."""
    assert type(value) in (int, Fraction), type(value)
    if type(value) is Fraction:
        assert value.denominator != 1


def assert_exact_matrix(x: RatMatrix):
    for row in x.rows:
        for e in row:
            assert_exact_scalar(e)


@ORACLE
@given(matrices())
def test_determinant_matches_sympy(x):
    d = determinant(x)
    assert type(d) is Fraction
    assert d == from_sympy(to_sympy(x).det())


@ORACLE
@given(matrices())
def test_inverse_matches_sympy(x):
    m = to_sympy(x)
    if m.det() == 0:
        with pytest.raises(SingularMatrixError):
            inverse(x)
        return
    inv = inverse(x)
    assert_exact_matrix(inv)
    expected = m.inv()
    assert [list(row) for row in inv.rows] == [
        [from_sympy(expected[i, j]) for j in range(x.n)] for i in range(x.n)
    ]


@ORACLE
@given(matrices())
def test_scaled_inverse_is_integer_and_matches_sympy(x):
    m = to_sympy(x)
    if m.det() == 0:
        with pytest.raises(SingularMatrixError):
            _scaled_inverse(x)
        return
    scaled, s = _scaled_inverse(x)
    assert type(s) is int and s != 0
    assert all(type(e) is int for row in scaled for e in row)
    assert sympy.Matrix(scaled) / s == m.inv()


@st.composite
def p_elements(draw, n):
    """An invertible integer y in P: n - 1 rows in [-3, 3] over e_n."""
    top = draw(_grid(n - 1, n, st.integers(-3, 3)))
    rows = top + [[0] * (n - 1) + [1]]
    assume(sympy.Matrix(rows).det() != 0)
    return PGroupElement(matrix=RatMatrix(rows))


@pytest.mark.parametrize("entry", ["integer", "rational"])
@ORACLE
@given(data=st.data())
def test_transformation_law_matches_sympy(entry, data):
    # a p/q x runs the law through the integer multiple q x
    n = data.draw(st.integers(1, 6))
    x = data.draw(_square({"integer": _int_entry, "rational": _rat_entry}[entry], n))
    y = data.draw(p_elements(n))
    e_n = [int(j == n - 1) for j in range(n)]
    my = to_sympy(y.matrix)
    d = krylov_determinant(x)
    a, b = transformation_law(x, y, d)
    assert type(a) is Fraction
    assert a == sympy_krylov_det(my * to_sympy(x) * my.inv(), e_n)
    assert b == d / from_sympy(my.det())


@ORACLE
@given(matrices())
def test_pairing_matrix_matches_sympy(x):
    n, m = x.n, to_sympy(x)
    e = [sympy.Matrix(n, n, lambda a, b: int((a, b) == (j, n - 1))) for j in range(n)]
    expected = [[from_sympy((m**k * e[j]).trace()) for j in range(n)] for k in range(n)]
    assert [list(row) for row in pairing_matrix(x).rows] == expected


@ORACLE
@given(matrices())
def test_rank_matches_sympy(x):
    assert rank(x) == to_sympy(x).rank()


@ORACLE
@given(matrices())
def test_char_poly_matches_sympy(x):
    p = char_poly(x)
    for c in p:
        assert_exact_scalar(c)
    t = sympy.Symbol("t")
    expected = [from_sympy(c) for c in reversed(to_sympy(x).charpoly(t).all_coeffs())]
    assert list(p) == expected


@ORACLE
@given(matrices())
def test_min_poly_matches_sympy(x):
    p = min_poly(x)
    for c in p:
        assert_exact_scalar(c)
    assert list(p) == sympy_min_poly(to_sympy(x))


def bordered_half(x: RatMatrix) -> RatMatrix:
    """[[x / 2, 0], [e_n, 0]], whose e_(n+1) chain is e_(n+1) and then that of
    x / 2 with a 0 appended: a p/q input with D = (-1)^n D(x / 2), whose chain
    has n more inversions in its pivot order than that of x."""
    n = x.n
    rows = [[*row, 0] for row in x.scale(Fraction(1, 2)).rows]
    return RatMatrix(rows + [[int(j == n - 1) for j in range(n + 1)]])


def assert_kernel_matches_sympy(x: RatMatrix):
    m = to_sympy(x)
    assert determinant(x) == from_sympy(m.det())
    assert rank(x) == m.rank()
    assert list(min_poly(x)) == sympy_min_poly(m)
    for y in (x, bordered_half(x)):
        my = to_sympy(y)
        assert list(char_poly(y)) == sympy_char_poly(my)
        d = sympy_krylov_det(my, [int(j == y.n - 1) for j in range(y.n)])
        assert krylov_determinant(y) == d
        assert in_omega(y) is (d != 0)
    if m.det() == 0:
        with pytest.raises(SingularMatrixError):
            inverse(x)
    else:
        assert inverse(x) == from_sympy_matrix(m.inv())


@ORACLE
@given(low_rank_matrices())
def test_low_rank_products_match_sympy(x):
    assert determinant(x) == 0
    assert rank(x) < x.n
    assert_kernel_matches_sympy(x)


@ORACLE
@given(non_regular_matrices())
def test_non_regular_jordan_forms_match_sympy(x):
    assert len(min_poly(x)) - 1 < x.n
    assert_kernel_matches_sympy(x)


@ORACLE
@given(matrices())
def test_sparse_bracket_equals_dense_commutator(x):
    for i in range(1, x.n + 1):
        for j in range(1, x.n + 1):
            bracket = basis_bracket(x, i, j)
            assert_exact_matrix(bracket)
            assert bracket == commutator(basis_matrix(x.n, i, j), x)


def _same_size_pairs(max_n=6):
    """Two matrices of one size n <= max_n, each integer, rational (p/q) or
    permuted triangular with mixed entries, drawn independently."""

    def pair(n):
        one = st.one_of(
            _square(_int_entry, n), _square(_rat_entry, n), _permuted_triangular(n)
        )
        return st.tuples(one, one)

    return st.integers(1, max_n).flatmap(pair)


@ORACLE
@given(_same_size_pairs())
def test_product_matches_sympy(pair):
    a, b = pair
    product = a * b
    assert_exact_matrix(product)
    assert product == from_sympy_matrix(to_sympy(a) * to_sympy(b))


@ORACLE
@given(matrices(max_n=5))
def test_power_chain_entries_are_the_trace_pairings(x):
    """(x^k)_ij, which the identity suite reads off the chain of powers as the
    coefficient of [E_ij, x], equals the dense pairing tr(x^k E_ji), k <= n."""
    powers = _krylov_rows(RatMatrix.identity(x.n).rows, x.rows)
    for k, xk in zip(range(x.n + 1), powers):
        for i in range(1, x.n + 1):
            for j in range(1, x.n + 1):
                assert xk[i - 1][j - 1] == entry_bracket_pairing(x, k, i, j)


@ORACLE
@given(matrices())
def test_no_float_in_entries_or_results(x):
    assert_exact_matrix(x)
    for k in range(x.n + 1):
        assert_exact_matrix(power(x, k))
        residual = basis_expansion_residual(x, power(x, k).rows)
        assert_exact_matrix(residual)
        assert residual.is_zero()
    assert_exact_matrix(x.scale(Fraction(3, 2)))
    assert_exact_matrix(x - x)


@ORACLE
@given(int_matrices())
def test_integer_input_stays_int(x):
    for m in (x, x * x, power(x, 3)):
        assert all(type(e) is int for row in m.rows for e in row)
    assert all(type(c) is int for c in char_poly(x))
    assert all(type(c) is int for c in min_poly(x))


@ORACLE
@given(matrices())
def test_public_scalars_are_fractions(x):
    y = basis_matrix(x.n, x.n, 1)
    scalars = [
        determinant(x),
        trace(x),
        trace_form(x, y),
        krylov_determinant(x),
        pairing_determinant(x),
        trace_power(x, 1),
        trace_power(x, 2),
    ]
    assert all(type(s) is Fraction for s in scalars)
    assert krylov_determinant(x) == pairing_determinant(x)


def test_bool_entries_become_int():
    x = RatMatrix([[True, False], [False, True]])
    assert all(type(e) is int for row in x.rows for e in row)
    assert x == RatMatrix.identity(2)


def test_integral_fraction_entries_are_stored_as_int():
    x = RatMatrix([[Fraction(4, 2), Fraction(1, 3)], [Fraction(0), 5]])
    assert [[type(e) for e in row] for row in x.rows] == [[int, Fraction], [int, int]]


# --- the Krylov kernel behind `analyze`: one elimination of w, wx, ..., wx^n


def _entries(n, entry):
    return st.lists(entry, min_size=n, max_size=n)


def companion_matrices(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: _entries(n, st.one_of(_int_entry, _rat_entry))
    ).map(lambda alpha: companion(alpha))


@st.composite
def off_locus_matrices(draw, max_n=8):
    """u diag u^-1 with distinct eigenvalues and u in P (last row e_n):
    regular, and D = det(u)^-1 D(diag) = 0 for n >= 2."""
    n = draw(st.integers(2, max_n))
    eigen = draw(
        st.lists(st.one_of(_int_entry, _rat_entry), min_size=n, max_size=n, unique=True)
    )
    top = draw(_grid(n - 1, n, st.integers(-2, 2)))
    u = sympy.Matrix(top + [[0] * (n - 1) + [1]])
    assume(u.det() != 0)
    d = sympy.diag(*[sympy.Rational(e.numerator, e.denominator) for e in eigen])
    return from_sympy_matrix(u * d * u.inv())


# each family is drawn on its own: under one_of, hypothesis rarely reached
# the off-locus one, which is the only one that runs the conjugator search
KERNEL_FAMILIES = {
    "uniform": matrices(8),
    "companion": companion_matrices(8),
    "off_locus": off_locus_matrices(8),
    "non_regular": non_regular_matrices(8),
}


def sympy_krylov_det(m, w) -> Fraction:
    rows = [sympy.Matrix([list(w)])]
    for _ in range(m.shape[0] - 1):
        rows.append(rows[-1] * m)
    return from_sympy(sympy.Matrix.vstack(*rows).det())


def sympy_char_poly(m) -> list:
    t = sympy.Symbol("t")
    return [from_sympy(c) for c in reversed(m.charpoly(t).all_coeffs())]


def sympy_is_regular(m) -> bool:
    """I, m, ..., m^(n-1) are linearly independent."""
    n = m.shape[0]
    powers = [sympy.eye(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * m)
    return sympy.Matrix.hstack(*(p.reshape(n * n, 1) for p in powers)).rank() == n


KERNEL_ORACLE = settings(max_examples=30, deadline=None, derandomize=True)


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
@KERNEL_ORACLE
@given(data=st.data())
def test_krylov_dependence_matches_sympy(family, data):
    x = data.draw(KERNEL_FAMILIES[family])
    w = data.draw(_entries(x.n, st.integers(-2, 2)))
    m = to_sympy(x)
    for row in (w, [int(j == x.n - 1) for j in range(x.n)]):  # random w, then e_n
        d, poly = _krylov_dependence(row, x)
        assert type(d) is Fraction
        assert d == sympy_krylov_det(m, row)
        if d == 0:
            assert poly is None
        else:
            for c in poly:
                assert_exact_scalar(c)
            assert list(poly) == sympy_char_poly(m)


# the bare chain test carries no dependence columns, so it is checked on
# its own, also where D_w = 0 at every power: low rank and non-regular x
BARE_FAMILIES = {
    "integer": int_matrices(8),
    "rational": st.integers(1, 8).flatmap(lambda n: _square(_rat_entry, n)),
    "low_rank": low_rank_matrices(8),
    "non_regular": non_regular_matrices(8),
}


@pytest.mark.parametrize("family", sorted(BARE_FAMILIES))
@KERNEL_ORACLE
@given(data=st.data())
def test_bare_krylov_det_matches_sympy(family, data):
    x = data.draw(BARE_FAMILIES[family])
    n, m = x.n, to_sympy(x)
    q = math.lcm(*(e.denominator for row in x.rows for e in row))
    xq = [[int(e * q) for e in row] for row in x.rows]
    e_n = [int(j == n - 1) for j in range(n)]
    for row in (data.draw(_entries(n, st.integers(-2, 2))), e_n):
        d_w = _krylov_det(row, xq)
        assert type(d_w) is int
        assert Fraction(d_w, q ** (n * (n - 1) // 2)) == sympy_krylov_det(m, row)
    d = sympy_krylov_det(m, e_n)
    assert type(krylov_determinant(x)) is Fraction and krylov_determinant(x) == d
    assert in_omega(x) is (d != 0)


def documented_candidates(n, seed):
    """The rows the ``find_cyclic_row`` docstring lists, in order: e_1, ...,
    e_(n-1), then MAX_TRIES draws of ``random.Random(seed)`` with entries in
    [-m, m], m doubling every eight draws, the zero row skipped."""
    for i in range(n - 1):
        yield tuple(int(j == i) for j in range(n))
    rng, m = random.Random(seed), 1
    for tries in range(MAX_TRIES):
        if tries and tries % 8 == 0:
            m *= 2
        w = tuple(rng.randint(-m, m) for _ in range(n))
        if any(w):
            yield w


@pytest.mark.parametrize("family", ["off_locus", "uniform"])
@KERNEL_ORACLE
@given(data=st.data(), seed=st.integers(0, 10**6))
def test_find_cyclic_row_returns_the_first_cyclic_candidate(family, data, seed):
    x = data.draw({"off_locus": off_locus_matrices(6), "uniform": matrices(6)}[family])
    m = to_sympy(x)
    cyclic = (w for w in documented_candidates(x.n, seed) if sympy_krylov_det(m, w))
    expected = next(cyclic, None)
    if expected is None:
        with pytest.raises(SearchExhausted):
            find_cyclic_row(x, seed)
    else:
        assert find_cyclic_row(x, seed) == expected


@ORACLE
@given(data=st.data())
def test_closed_form_conjugate_matches_sympy(data):
    x = data.draw(matrices(8))
    n = x.n
    w = data.draw(_entries(n, st.one_of(_int_entry, _rat_entry)))
    assume(any(w))
    k = max(i for i, e in enumerate(w) if e)
    units = [[int(j == i) for j in range(n)] for i in range(n) if i != k]
    g = to_sympy(RatMatrix(units + [w]))
    closed = _scaled_conjugate(x.rows, w, k)
    w_k = sympy.Rational(w[k].numerator, w[k].denominator)
    assert to_sympy(RatMatrix(closed)) / w_k == g * to_sympy(x) * g.inv()
    if all(type(e) is int for e in w) and all(type(e) is int for r in x.rows for e in r):
        assert all(type(e) is int for row in closed for e in row)


def run_analyze(argv, stdin: str):
    """(exit code, stdout) of the CLI with the given stdin."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
@KERNEL_ORACLE
@given(data=st.data())
def test_analyze_matches_sympy(family, data):
    x = data.draw(KERNEL_FAMILIES[family])
    m = to_sympy(x)
    regular = sympy_is_regular(m)
    char = [format_rational(c) for c in sympy_char_poly(m)]
    e_n = [int(j == x.n - 1) for j in range(x.n)]
    stdin = json.dumps(matrix_to_json(x))
    for argv in (["analyze", "-"], ["analyze", "-", "--conjugate"]):
        code, stdout = run_analyze(argv, stdin)
        if "--conjugate" in argv and not regular:
            assert code == 3 and stdout == ""
            continue
        assert code == 0
        out = json.loads(stdout)
        assert out["regular"] is regular
        assert out["D"] == format_rational(sympy_krylov_det(m, e_n))
        assert out["char_poly"] == char
        if regular:
            assert out["min_poly"] == char
        else:
            assert out["min_poly"] == [format_rational(c) for c in sympy_min_poly(m)]
        if out["conjugator"] is not None:
            g = to_sympy(matrix_from_json(out["conjugator"]))
            assert g.det() != 0
            assert sympy_krylov_det(g * m * g.inv(), e_n) != 0


# min_poly's two routes: Krylov's method on the probe row, which decides a
# regular x whenever that row is cyclic, and else the power chain, the only
# route for a non-regular x.  Each run of the chain kernel is recorded, so
# the tests see which route ran; the second route is also forced on regular
# x by a probe row that is not cyclic for it.


def min_poly_routes(x: RatMatrix, probe=None) -> tuple[tuple, list]:
    """min_poly(x) and the (ncols, independent vectors) of each chain-kernel
    run it made, with ``_probe_row`` replaced by ``probe`` if given."""
    runs, kernel = [], exactmat._chain_dependence

    def recorded(vectors, ncols, dim):
        pivots, last, y = kernel(vectors, ncols, dim)
        runs.append((ncols, len(pivots)))
        return pivots, last, y

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactmat, "_chain_dependence", recorded)
        if probe is not None:
            mp.setattr(exactmat, "_probe_row", lambda n: probe)
        return min_poly(x), runs


@st.composite
def regular_with_left_eigenvector(draw, max_n=8):
    """(x, w) with x = U^-1 diag U, distinct integer or rational eigenvalues,
    U unimodular, and w a row of U: x is regular, and the integer row w is a
    left eigenvector (w x = lambda w), so its chain is dependent at power 1."""
    n = draw(st.integers(2, max_n))
    eigen = draw(
        st.lists(st.one_of(_int_entry, _rat_entry), min_size=n, max_size=n, unique=True)
    )
    small = st.integers(-2, 2)
    u = _unimodular(n, draw(_grid(n, n, small)), draw(_grid(n, n, small)))
    d = sympy.diag(*[sympy.Rational(e.numerator, e.denominator) for e in eigen])
    w = [int(e) for e in u.row(draw(st.integers(0, n - 1)))]
    return from_sympy_matrix(u.inv() * d * u), w


@ORACLE
@given(non_regular_matrices(8))
def test_min_poly_of_non_regular_matrices_takes_the_power_chain(x):
    p, runs = min_poly_routes(x)
    n = x.n
    # the probe chain stops below n, and the power chain of vec(I) decides
    assert len(runs) == 2 and runs[0][0] == n and runs[0][1] < n
    assert runs[1][0] == n * n
    assert all(type(c) is int for c in p)  # an integer x keeps int coefficients
    assert list(p) == sympy_min_poly(to_sympy(x))


@pytest.mark.parametrize("family", ["companion", "off_locus", "uniform"])
@KERNEL_ORACLE
@given(data=st.data())
def test_min_poly_of_regular_matrices_takes_the_probe_row(family, data):
    x = data.draw(KERNEL_FAMILIES[family])
    m = to_sympy(x)
    assume(family != "uniform" or sympy_is_regular(m))  # the others are regular
    p, runs = min_poly_routes(x)
    assert runs == [(x.n, x.n)]  # the probe row is cyclic: one chain of rows
    for c in p:
        assert_exact_scalar(c)
    assert list(p) == sympy_char_poly(m)  # x is regular: mu = chi


@pytest.mark.parametrize("probe", ["zero", "left_eigenvector"])
@ORACLE
@given(pair=regular_with_left_eigenvector())
def test_min_poly_falls_back_when_the_probe_row_is_not_cyclic(probe, pair):
    x, w = pair
    n = x.n
    row = tuple(w) if probe == "left_eigenvector" else (0,) * n
    p, runs = min_poly_routes(x, row)
    stopped = 1 if probe == "left_eigenvector" else 0
    assert runs == [(n, stopped), (n * n, n)]
    for c in p:
        assert_exact_scalar(c)
    assert list(p) == sympy_char_poly(to_sympy(x))  # x is regular: mu = chi


# The chain kernel stops at the first dependent vector, so it is checked on
# chains whose first dependence comes at every power 1..n: low-degree
# (derogatory) x for min_poly, and rows w inside an invariant subspace.


@st.composite
def low_degree_matrices(draw, d, max_n=8):
    """U J U^-1 / s, d < n <= max_n, with J in Jordan form whose minimal
    polynomial has degree d.  Blocks of sizes s_1 + ... + s_k = d carry k
    distinct eigenvalues; the other n - d dimensions are blocks no larger
    than the first block of the same eigenvalue.  U is unimodular and the
    scale s in 1..3 makes the entries rational."""
    n = draw(st.integers(d + 1, max_n))
    k = draw(st.integers(1, d))
    cut_points = st.sets(st.integers(1, max(d - 1, 1)), min_size=k - 1, max_size=k - 1)
    cuts = sorted(draw(cut_points))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    eigen = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k, unique=True))
    blocks = list(zip(sizes, eigen))
    while sum(size for size, _ in blocks) < n:
        i = draw(st.integers(0, k - 1))
        room = n - sum(size for size, _ in blocks)
        blocks.append((draw(st.integers(1, min(sizes[i], room))), eigen[i]))
    small = st.integers(-2, 2)
    u = _unimodular(n, draw(_grid(n, n, small)), draw(_grid(n, n, small)))
    j = _jordan(n, draw(st.permutations(blocks)))
    return from_sympy_matrix(u * j * u.inv() / draw(st.integers(1, 3)))


@st.composite
def invariant_subspace_rows(draw, d, max_n=8):
    """(x, w), d <= n <= max_n, with x = U^-1 B U / s, B block lower
    triangular with a d x d leading block, and w = (u, 0) U: span(e_1, ...,
    e_d) U is invariant under x, so the chain w, wx, ... is dependent at
    power d at the latest (for d = n, at power n, so D_w != 0 is drawn).
    U is unimodular or a permutation; the latter keeps zeros in w and x, so
    that the pivot columns of the chain come out of order too."""
    n = draw(st.integers(max(d, 2), max_n))
    b = draw(_grid(n, n, st.integers(-3, 3)))
    for i in range(d):
        b[i][d:] = [0] * (n - d)
    u = draw(_entries(d, st.integers(-2, 2)))
    assume(any(u))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        g = sympy.Matrix(n, n, lambda i, j: int(perm[i] == j))
    else:
        small = st.integers(-2, 2)
        g = _unimodular(n, draw(_grid(n, n, small)), draw(_grid(n, n, small)))
    x = g.inv() * sympy.Matrix(b) * g / draw(st.integers(1, 3))
    w = sympy.Matrix([u + [0] * (n - d)]) * g
    return from_sympy_matrix(x), [int(e) for e in w]


def sympy_chain(m, w, count):
    """The rows w, wm, ..., wm^(count-1) as one sympy matrix."""
    rows = [sympy.Matrix([list(w)])]
    for _ in range(count - 1):
        rows.append(rows[-1] * m)
    return sympy.Matrix.vstack(*rows)


# few examples per power d, so that every d = 1..7 (8 for rows) is reached
CHAIN_ORACLE = settings(max_examples=8, deadline=None, derandomize=True)


@pytest.mark.parametrize("d", range(1, 8))
@CHAIN_ORACLE
@given(data=st.data())
def test_min_poly_of_low_degree_matrices_matches_sympy(d, data):
    x = data.draw(low_degree_matrices(d))
    p = min_poly(x)
    assert len(p) - 1 == d
    assert list(p) == sympy_min_poly(to_sympy(x))


@pytest.mark.parametrize(
    "family, d",
    [("invariant_subspace", d) for d in range(1, 9)]
    + [("low_degree", d) for d in range(1, 8)],
)
@CHAIN_ORACLE
@given(data=st.data())
def test_chain_kernel_stops_at_the_first_dependence(family, d, data):
    if family == "low_degree":
        x = data.draw(low_degree_matrices(d))
        w = data.draw(_entries(x.n, st.integers(-2, 2)))
        assume(any(w))
    else:
        x, w = data.draw(invariant_subspace_rows(d))
    n = x.n
    q = math.lcm(*(e.denominator for row in x.rows for e in row))
    mq = to_sympy(x) * q
    chain = sympy_chain(mq, w, n + 1)
    xq = [[int(e) for e in row] for row in mq.tolist()]
    formed = []  # every vector the lazy chain forms, w first

    def rows():
        for (v,) in _krylov_rows([w], xq):
            formed.append(v)
            yield v

    pivots, last, y = _chain_dependence(rows(), n, n)
    m = chain.rank()  # the dimension of the Krylov space: the first dependence
    assert len(formed) == m + 1  # w (qx)^m is the last vector formed
    assert sympy.Matrix(formed) == chain[: m + 1, :]
    assert len(pivots) == len(set(pivots)) == m
    assert len(y) == m + 1 and y[m] == last != 0
    assert sympy.Matrix([y]) * chain[: m + 1, :] == sympy.zeros(1, n)
    if m == n:
        sign = Permutation(pivots).signature()
        assert sign * last == chain[:n, :].det()
    d_w, poly = _krylov_dependence(w, x)
    assert d_w == sympy_krylov_det(to_sympy(x), w)
    assert (poly is None) == (m < n)
    if poly is not None:
        assert list(poly) == sympy_char_poly(to_sympy(x))


@ORACLE
@given(data=st.data())
def test_eliminate_draws_nothing_after_the_dependence_its_caller_stops_at(data):
    n = data.draw(st.integers(2, 8))
    k = data.draw(st.integers(1, n - 1))
    rows = data.draw(_grid(n, n))
    rows[k] = list(rows[data.draw(st.integers(0, k - 1))])  # row k repeats one
    drawn = []

    def counting():
        for row in rows:
            drawn.append(row)
            yield row

    for c, _ in _eliminate(counting(), n):
        if c is None:
            break
    # the first row that depends on the earlier ones, at k at the latest
    first = next(i for i in range(n) if sympy.Matrix(rows[: i + 1]).rank() <= i)
    assert first <= k
    assert len(drawn) == first + 1
