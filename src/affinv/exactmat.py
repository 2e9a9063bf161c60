"""Exact dense linear algebra over the rationals.

Entries are stored integer-first: a Python ``int`` when the value is
integral and a ``fractions.Fraction`` otherwise, so integer matrices run
pure-int arithmetic and rational ones exactly the Fraction arithmetic.
Every exact elimination runs through one fraction-free kernel, ``_eliminate``,
which reduces integer vectors one at a time as they are drawn.  Each job scales
its input once to an integer multiple q x and feeds the kernel:
``determinant`` the rows, ``_scaled_inverse`` (the integer M = s x^-1 behind
``inverse`` and the transformation law) the rows and then the unit rows; the
Krylov determinant D, Krylov's method (``_krylov_chain``, behind ``analyze`` and
``min_poly``) and ``min_poly``'s power chain draw the lazy chain
``_krylov_rows`` up to its first dependent vector.  One yes-or-no question
skips the kernel: whether a row is cyclic, which ``_is_cyclic`` decides on a
chain of its own content-reduced rows.  ``min_poly`` takes two routes, both
exact eliminations: Krylov's method on one fixed probe row w, which decides
it whenever w is cyclic for x (then mu_w = chi, and mu_w | mu_x | chi), and
otherwise the chain of powers of q x, the only route for a non-regular x,
which has no cyclic row.
``char_poly`` reads the traces of the first n powers of q x from the same
chain and solves Newton's identities for det(tI - q x).
A product multiplies the integer multiples qa a and qb b and divides once by
qa qb.  The kernel's divisions are exact integer divisions; every other
division goes through ``Fraction``.  So no float can appear, and equality tests
(``determinant(x) != 0``, residual ``== 0``) are decisions, not tolerance
checks.  ``determinant``, the public scalar result, is always a
``Fraction``.  ``RatMatrix`` takes rows whose entries are all exactly
``int`` as they are and normalises any other rows entry by entry.  A
polynomial is the tuple of its exact coefficients in ascending degree, each
``int`` when integral and ``Fraction`` otherwise; the monic ones end in 1,
and the degree is ``len(p) - 1``.  Matrices are immutable; every operation
returns a fresh value and is safe to call concurrently.

Index convention: documentation and all JSON interfaces are 1-based (entry
``(i, j)`` with ``1 <= i, j <= n``); internal storage is 0-based row-major.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Rat = Union[Fraction, int]

_RAT_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class ExactmatError(ValueError):
    """Base class for errors raised by the exact layer."""


class DimensionMismatchError(ExactmatError):
    """Operands have incompatible dimensions."""


class SingularMatrixError(ExactmatError):
    """A matrix required to be invertible has determinant zero."""


class MatrixJSONError(ExactmatError):
    """Matrix JSON input violates the wire schema."""


def _exact_scalar(value: Rat) -> Rat:
    """Normalise an exact scalar: ``int`` when integral (bool included),
    ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _matmul(a, b) -> list[list]:
    """Product of two nested sequences (lists of rows) over any scalars with
    + and *: Python numbers, numpy arrays, dual scalars, MultiPoly."""
    return _times_columns(a, tuple(zip(*b)))


def _times_columns(a, cols) -> list[list]:
    """a times the matrix with columns ``cols``: each entry is ``sum(map(mul,
    row, col))`` from 0, left to right for exact and numpy scalars; a sum of
    Python floats is compensated from Python 3.12 on."""
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _krylov_rows(w, x, cols=None):
    """The lazy chain w, wx, wx^2, ... for nested sequences w (one row, the
    identity or x itself for the powers of x, as ``fields`` draws them for
    ``Pk``) and x, over the same scalars as ``_matmul``; each term is formed
    only when drawn, from the columns of x taken once per chain, or never by
    a caller that runs many chains through one x and passes them as
    ``cols``."""
    cols = cols or tuple(zip(*x))
    while True:
        yield w
        w = _times_columns(w, cols)


def parse_rational(text) -> Fraction:
    """Parse a wire-format rational: a whole string ``"p"`` or ``"p/q"`` in
    ASCII digits (or a bare int)."""
    if isinstance(text, bool):
        raise MatrixJSONError("booleans are not rationals")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RAT_RE.fullmatch(text):
        raise MatrixJSONError(f"malformed rational {text!r}")
    try:
        num, _, den = text.partition("/")
        value = Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise MatrixJSONError(f"zero denominator in {text!r}") from None
    except ValueError:  # beyond the int string-conversion limit
        raise MatrixJSONError(
            f"rational with more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return value


def format_rational(value: Rat) -> str:
    """Render a rational in wire format: ``"p"`` when integral, else ``"p/q"``.

    Raises MatrixJSONError when a part exceeds the int string-conversion
    limit, so results too large to print are reported, not crashed on.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise MatrixJSONError(
            f"value with more than {sys.get_int_max_str_digits()} digits "
            "cannot be written"
        ) from None


class RatMatrix:
    """Immutable square matrix of rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Rat]]):
        # entries that are all exactly int are in normal form already: one
        # C-level scan finds them, and only otherwise is each one normalised
        converted = tuple(map(tuple, rows))
        if not {int}.issuperset(map(type, chain.from_iterable(converted))):
            converted = tuple(tuple(map(_exact_scalar, row)) for row in converted)
        n = len(converted)
        if n < 1:
            raise ExactmatError("matrix must have dimension >= 1")
        if any(len(row) != n for row in converted):
            raise ExactmatError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", converted)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Rat:
        """1-based entry access."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ExactmatError(f"index ({i},{j}) out of range 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.rows for e in row)

    def scale(self, c: Rat) -> "RatMatrix":
        c = _exact_scalar(c)
        return RatMatrix([[c * e for e in row] for row in self.rows])

    def _check_dim(self, other: "RatMatrix"):
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension {self.n} vs {other.n}")

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        self._check_dim(other)
        return RatMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        self._check_dim(other)
        (a, qa), (b, qb) = _integer_multiple(self.rows), _integer_multiple(other.rows)
        product, q = _matmul(a, b), qa * qb
        if q > 1:
            product = [[Fraction(e, q) for e in row] for row in product]
        return RatMatrix(product)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(e) for e in row) for row in self.rows
        )
        return f"RatMatrix[{body}]"


def power(x: RatMatrix, k: int) -> RatMatrix:
    """k-th matrix power, k >= 0; the empty product is the identity."""
    if k < 0:
        raise ExactmatError(f"negative exponent {k}")
    acc = RatMatrix.identity(x.n)
    base = x
    while k:
        if k & 1:
            acc = acc * base
        k >>= 1
        if k:
            base = base * base
    return acc


def commutator(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Bracket ab - ba."""
    return a * b - b * a


def _integer_multiple(rows: Sequence[Sequence[Rat]]) -> tuple[Sequence, int]:
    """(q rows, q) for the least q > 0 that makes q rows integer; the entries
    stay ``int``, and only the ``Fraction`` ones are asked for a denominator."""
    q = lcm(*[e.denominator for row in rows for e in row if type(e) is not int])
    if q == 1:
        return rows, 1
    return [[e.numerator * (q // e.denominator) for e in row] for row in rows], q


def _eliminate(vectors: Iterable[Sequence[int]], ncols: int):
    """Fraction-free elimination (Bareiss 1968), one integer vector at a time.

    Each vector drawn is reduced against the independent ones stored so far
    by row <- (p * row - row[c] * pivot_row) // prev, for the pivot p in
    column c and the pivot prev before it; every entry is a minor of the
    input, so each division is exact.  Yields (pivot column, reduced row) for
    each vector: its pivot column is its first nonzero entry among the first
    ``ncols``, and it is stored; a vector that reduces to zero there is
    dependent, yields None and is not stored.  Entries past ``ncols`` ride
    along, so a unit index appended to each vector records the dependence
    coefficients.  A caller that stops at a vector draws no later one.  The
    pivot of the k-th independent vector is the minor of the first k in
    their pivot columns, so for n independent vectors of length n,
    det(v_1..v_n) = sign(pivot-column order) * last pivot.
    """
    stored: list[tuple[int, Sequence[int]]] = []
    for row in vectors:
        prev = 1
        for c, pivot_row in stored:
            p, f = pivot_row[c], row[c]
            if f or p != prev:  # else the step leaves the row as it is
                row = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
            prev = p
        for c in range(ncols):
            if row[c]:
                stored.append((c, row))
                break
        else:
            c = None
        yield c, row


def _with_units(vectors: Iterable[Sequence[int]], m: int):
    """The first m vectors, the k-th followed by e_k of length m, its unit index.

    The unit indices are dependence columns: ``_eliminate`` carries m more
    entries per row, which only a caller that reads the dependence pays for.
    These are ``_chain_dependence`` (for ``min_poly``'s power chain and
    Krylov's method, ``_krylov_chain``) and ``_scaled_inverse``.  A
    determinant reads only the pivots, and ``_det_rows`` runs without them;
    the cyclic-row test ``_is_cyclic`` runs on its own reduced chain."""
    for k, v in zip(range(m), vectors):
        yield [*v, *[0] * k, 1, *[0] * (m - 1 - k)]


def _order_sign(pivots: Sequence[int]) -> int:
    """The sign of the permutation that sorts ``pivots``."""
    return (-1) ** sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1 :])


def _chain_dependence(vectors: Iterable[Sequence[int]], ncols: int, dim: int):
    """First dependence among the integer vectors v_0, v_1, ... drawn from
    ``vectors``, at most ``dim`` of them independent: ``_eliminate`` on the
    vectors with unit indices, stopped at the first v_m that reduces to zero,
    so no later vector is drawn.  Returns (the pivot columns in draw order,
    last pivot, y) with sum y_k v_k = 0 and y_m = last."""
    pivots: list[int] = []
    for c, row in _eliminate(_with_units(vectors, dim + 1), ncols):
        if c is None:
            y = row[ncols : ncols + len(pivots) + 1]
            return pivots, y[-1], y
        pivots.append(c)
    raise AssertionError(f"more than {dim} independent vectors")  # pragma: no cover


def _krylov_chain(w: Sequence[int], xq) -> tuple[list[int], int, list[int]]:
    """Krylov's method on the integer row w and the integer matrix xq:
    ``_chain_dependence`` on the chain w, w xq, w xq^2, ... of rows of length
    n, stopped at its first dependent row w xq^m, m = deg mu_w.  Returns (the
    pivot columns, last pivot, y) with sum y_k w xq^k = 0.  When w is cyclic
    (m = n), sign(pivot order) * last = det(w, w xq, ..., w xq^(n-1)) and
    sum (y_k / last) t^k = det(t - xq)."""
    n = len(w)
    return _chain_dependence(chain.from_iterable(_krylov_rows([w], xq)), n, n)


def _descaled(y: Sequence[Rat], q: int) -> tuple:
    """The monic polynomial sum_i y_i / (y_m q^(m-i)) t^i, m = len(y) - 1, as
    exact scalars: from a dependence y of the chain of q x, or the reversed
    coefficients of a polynomial of q x, the one for x."""
    m, last = len(y) - 1, y[-1]
    return tuple(_exact_scalar(Fraction(c, last * q ** (m - i))) for i, c in enumerate(y))


def _det_rows(vectors: Iterable[Sequence[int]], n: int) -> int:
    """det(v_1..v_n) of the n integer vectors of length n drawn from
    ``vectors``: sign(pivot-column order) * last pivot, or 0 at the first
    dependent vector, after which none is drawn."""
    pivots = []
    for c, row in _eliminate(vectors, n):
        if c is None:
            return 0
        pivots.append(c)
    return _order_sign(pivots) * row[c]


def _is_cyclic(w: Sequence[int], xq, cols=None) -> bool:
    """Whether det(w, w xq, ..., w xq^(n-1)) != 0 for the integer row w and
    integer matrix xq, decided on a content-reduced chain: each row is
    eliminated without fractions against the stored rows, row <- p * row -
    f * b for the pivot p of b in its column c and f = row[c], and divided
    by its content; the next row is that reduced row b_k times xq.  Before
    the first dependence, b_0, ..., b_k span what w, ..., w xq^k span, and
    a content division keeps a span, so the first row that reduces to zero
    is the first dependent one, and False is returned there.  Only the
    decision comes out, so the rows need not be the minors of
    ``_eliminate``; on structured x they stay far smaller.  A caller
    testing many rows of one xq passes its columns as ``cols``, so they are
    taken once."""
    n = len(w)
    cols = cols or tuple(zip(*xq))
    stored: list[tuple[int, list[int]]] = []
    row = w
    while True:
        for c, b in stored:
            f = row[c]
            if f:
                p = b[c]
                row = [p * a - f * e for a, e in zip(row, b)]
        for c in range(n):
            if row[c]:
                break
        else:
            return False
        content = gcd(*row)
        if content > 1:
            row = [a // content for a in row]
        stored.append((c, row))
        if len(stored) == n:
            return True
        row = _times_columns([row], cols)[0]


def determinant(x: RatMatrix) -> Fraction:
    """Exact determinant of the integer multiple q x, eliminated row by row:
    ``_det_rows`` / q^n."""
    rows, q = _integer_multiple(x.rows)
    return Fraction(_det_rows(rows, x.n), q**x.n)


def char_poly(x: RatMatrix) -> tuple:
    """Monic characteristic polynomial det(tI - x) by Newton's identities.

    The chain ``_krylov_rows`` draws qx, (qx)^2, ..., (qx)^n for the integer
    multiple q x, and s_i = tr((qx)^i).  The coefficients b_k of t^(n-k) in
    det(tI - qx) follow from b_0 = 1 and k b_k = -sum_(i=1..k) b_(k-i) s_i,
    where the division by k goes through ``Fraction``.  The coefficient of
    t^i is q^(n-i) times that for x, so the chain of a rational x runs in
    int arithmetic too.
    """
    n = x.n
    xq, q = _integer_multiple(x.rows)
    s = [sum(p[i][i] for i in range(n)) for p in islice(_krylov_rows(xq, xq), n)]
    b = [1]
    for k in range(1, n + 1):
        b.append(Fraction(-sum(b[k - i] * s[i - 1] for i in range(1, k + 1)), k))
    return _descaled(b[::-1], q)


@cache
def _probe_row(n: int) -> tuple[int, ...]:
    """The fixed probe row of ``min_poly`` for size n: n integers drawn from
    ``random.Random(n)`` in [-2^16, 2^16], at first use, and kept.  For a
    regular x, det(w, wx, ..., wx^(n-1)) is a nonzero polynomial of degree n
    in w, so by Schwartz (1980) and Zippel (1979) at most a share
    n / (2^17 + 1) of the rows in that range is not cyclic for x; such an x
    only takes the slower route."""
    rng = random.Random(n)
    return tuple(rng.randint(-(2**16), 2**16) for _ in range(n))


def min_poly(x: RatMatrix) -> tuple:
    """Monic minimal polynomial of x, by one of two exact routes on the
    integer multiple q x; both end in the same ``_descaled`` normal form of
    a dependence y of q x's chain, whose t^i coefficient is q^(m-i) times
    that for x, and the monic minimal polynomial is unique.

    First, Krylov's method (``_krylov_chain``) on the probe row w =
    ``_probe_row(n)``.  If its n chain rows are independent, w is cyclic,
    so mu_w = chi; since mu_w | mu_x | chi, x is regular and the dependence
    of w (qx)^n is its minimal polynomial.  Otherwise (always for a
    non-regular x, which has no cyclic row) the chain I, qx, (qx)^2, ... of
    powers, flattened to vectors of length n^2: the chain kernel stops at
    the first power m that depends on the lower ones, the degree, so no
    higher one is formed."""
    n = x.n
    xq, q = _integer_multiple(x.rows)
    pivots, _, y = _krylov_chain(_probe_row(n), xq)
    if len(pivots) < n:
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        powers = (sum(p, []) for p in _krylov_rows(ident, xq))
        y = _chain_dependence(powers, n * n, n)[2]
    return _descaled(y, q)


def _scaled_inverse(x: RatMatrix) -> tuple[list[list[int]], int]:
    """(M, s) with M = s x^-1 an integer matrix and s a nonzero integer.
    Eliminates the rows of the integer multiple q x with unit indices, then
    reduces each e_j against them without storing it: sum y_k (q x)_k +
    last e_j = 0, so row j of x^-1 is -q y / last, and M = -q y, s = last.
    Raises SingularMatrixError when det = 0."""
    n = x.n
    rows, q = _integer_multiple(x.rows)
    units = ([int(i == j) for i in range(n)] + [0] * n for j in range(n))
    reduced = _eliminate(chain(_with_units(rows, n), units), n)
    pivots = [row[c] for c, row in islice(reduced, n) if c is not None]
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return [[-q * e for e in row[n:]] for _, row in reduced], pivots[-1]


def inverse(x: RatMatrix) -> RatMatrix:
    """Exact inverse M / s from the scaled inverse (M, s) of
    ``_scaled_inverse``.  Raises SingularMatrixError when det = 0."""
    m, s = _scaled_inverse(x)
    return RatMatrix([[Fraction(e, s) for e in row] for row in m])


def matrix_to_json(x: RatMatrix) -> dict:
    """Wire format: {"n": n, "entries": [["p/q", ...], ...]} with 1-based layout."""
    return {
        "n": x.n,
        "entries": [[format_rational(e) for e in row] for row in x.rows],
    }


def matrix_from_json(obj) -> RatMatrix:
    """Parse the matrix wire format, rejecting malformed input."""
    if not isinstance(obj, dict):
        raise MatrixJSONError("matrix JSON must be an object")
    if set(obj) != {"n", "entries"}:
        raise MatrixJSONError('matrix JSON must have exactly the keys "n" and "entries"')
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MatrixJSONError(f'"n" must be a positive integer, got {n!r}')
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise MatrixJSONError(f'"entries" must be a list of {n} rows')
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise MatrixJSONError("ragged or non-list row in matrix JSON")
        rows.append([parse_rational(e) for e in row])
    return RatMatrix(rows)
