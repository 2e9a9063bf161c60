"""Exact dense linear algebra over the rationals.

Entries are stored integer-first: a Python ``int`` when the value is
integral and a ``fractions.Fraction`` otherwise, so integer matrices run
pure-int arithmetic and rational ones exactly the Fraction arithmetic.
Every division goes through ``Fraction``, so no float can appear, and
equality tests (``determinant(x) != 0``, residual ``== 0``) are decisions,
not tolerance checks.  Public scalar results (``determinant``,
``RatMatrix.trace``) are always ``Fraction``.  Matrices and vectors are
immutable; every operation returns a fresh value and is safe to call
concurrently.

Index convention: documentation and all JSON interfaces are 1-based (entry
``(i, j)`` with ``1 <= i, j <= n``); internal storage is 0-based row-major.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Union

Rat = Union[Fraction, int]

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


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


def parse_rational(text) -> Fraction:
    """Parse a wire-format rational: ``"p"`` or ``"p/q"`` (or a bare int)."""
    if isinstance(text, bool):
        raise MatrixJSONError("booleans are not rationals")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RAT_RE.match(text):
        raise MatrixJSONError(f"malformed rational {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise MatrixJSONError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Rat) -> str:
    """Render a rational in wire format: ``"p"`` when integral, else ``"p/q"``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RatVector:
    """Immutable row vector of rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Rat]):
        object.__setattr__(self, "entries", tuple(_exact_scalar(e) for e in entries))
        if not self.entries:
            raise ExactmatError("empty vector")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __setattr__(self, name, value):
        raise AttributeError("RatVector is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, RatVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RatVector({[format_rational(e) for e in self.entries]})"

    def __mul__(self, m: "RatMatrix") -> "RatVector":
        """Row-vector times matrix."""
        if not isinstance(m, RatMatrix):
            return NotImplemented
        if self.n != m.n:
            raise DimensionMismatchError(f"vector length {self.n} vs matrix size {m.n}")
        return RatVector(sum(map(mul, self.entries, col)) for col in zip(*m.rows))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    @classmethod
    def unit(cls, n: int, i: int) -> "RatVector":
        """Standard basis row e_i, 1-based."""
        if not 1 <= i <= n:
            raise ExactmatError(f"unit index {i} out of range 1..{n}")
        return cls(int(j == i - 1) for j in range(n))


class RatMatrix:
    """Immutable square matrix of rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Rat]]):
        converted = tuple(tuple(_exact_scalar(e) for e in row) for row in rows)
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

    @classmethod
    def zeros(cls, n: int) -> "RatMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[RatVector]) -> "RatMatrix":
        return cls([r.entries for r in rows])

    def entry(self, i: int, j: int) -> Rat:
        """1-based entry access."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ExactmatError(f"index ({i},{j}) out of range 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> RatVector:
        """1-based row access."""
        if not 1 <= i <= self.n:
            raise ExactmatError(f"row index {i} out of range 1..{self.n}")
        return RatVector(self.rows[i - 1])

    def trace(self) -> Fraction:
        return Fraction(sum(self.rows[i][i] for i in range(self.n)))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)]
        )

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.rows for e in row)

    def scale(self, c: Rat) -> "RatMatrix":
        c = _exact_scalar(c)
        return RatMatrix([[c * e for e in row] for row in self.rows])

    def _check_dim(self, other: "RatMatrix"):
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension {self.n} vs {other.n}")

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        self._check_dim(other)
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

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

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-e for e in row] for row in self.rows])

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        self._check_dim(other)
        cols = tuple(zip(*other.rows))
        return RatMatrix(
            [[sum(map(mul, row, col)) for col in cols] for row in self.rows]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(e) for e in row) for row in self.rows
        )
        return f"RatMatrix[{body}]"


class UniPoly:
    """Univariate polynomial over the rationals, coefficients ascending.

    Canonical form strips trailing zeros; the zero polynomial has an empty
    coefficient tuple and ``degree is None`` (the distinguished sentinel).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat]):
        cs = [_exact_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return UniPoly(merged)

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __call__(self, t: Rat) -> Fraction:
        t = _exact_scalar(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def at_matrix(self, x: RatMatrix) -> RatMatrix:
        """Substitute a matrix for the variable (Horner over matrices)."""
        acc = RatMatrix.zeros(x.n)
        for c in reversed(self.coeffs):
            acc = acc * x + RatMatrix.identity(x.n).scale(c)
        return acc

    def divmod(self, divisor: "UniPoly"):
        """Exact polynomial division; returns (quotient, remainder)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dd = len(dcs) - 1
        lead = dcs[-1]
        q = [0] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            shift = len(rem) - 1 - dd
            factor = Fraction(rem[-1], lead)
            q[shift] = factor
            for i, c in enumerate(dcs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(q), UniPoly(rem)

    def divides(self, other: "UniPoly") -> bool:
        """True when ``other`` is an exact multiple of this polynomial."""
        _, r = other.divmod(self)
        return r.is_zero()

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            cs = format_rational(c)
            parts.append(f"{cs}*t^{k}" if k else cs)
        return "UniPoly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class NoSolution:
    """Linear system is inconsistent."""


@dataclass(frozen=True)
class NonUnique:
    """Linear system is consistent but underdetermined."""


NO_SOLUTION = NoSolution()
NON_UNIQUE = NonUnique()


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


def _det_cofactor(rows, n: int) -> Rat:
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    # n == 3, Sarrus
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


def _det_bareiss(rows: list[list[int]], n: int) -> int:
    """Fraction-free single-step Bareiss elimination on integer rows."""
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def determinant(x: RatMatrix) -> Fraction:
    """Exact determinant.

    Cofactor expansion for n <= 3; for larger n each row is scaled to
    integers and a fraction-free Bareiss elimination runs on the integer
    matrix, keeping intermediate entries polynomially sized.
    """
    n = x.n
    if n <= 3:
        return Fraction(_det_cofactor(x.rows, n))
    scale = 1
    int_rows: list[list[int]] = []
    for row in x.rows:
        d = lcm(*(e.denominator for e in row))
        scale *= d
        int_rows.append([int(e * d) for e in row])
    return Fraction(_det_bareiss(int_rows, n), scale)


def rank(x: RatMatrix) -> int:
    """Exact rank over the rationals by Gaussian elimination."""
    return _echelon_rank([list(row) for row in x.rows])


def _echelon_rank(rows: list[list[Rat]]) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = Fraction(rows[i][c], pivot)
                for j in range(c, ncols):
                    rows[i][j] -= f * rows[r][j]
        r += 1
        if r == len(rows):
            break
    return r


def char_poly(x: RatMatrix) -> UniPoly:
    """Monic characteristic polynomial det(tI - x) via Faddeev-LeVerrier."""
    n = x.n
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = RatMatrix.zeros(n)
    ident = RatMatrix.identity(n)
    for k in range(1, n + 1):
        m = x * m + ident.scale(coeffs[n - k + 1])
        coeffs[n - k] = Fraction(-1, k) * (x * m).trace()
    return UniPoly(coeffs)


def _vec(x: RatMatrix) -> list[Rat]:
    return [e for row in x.rows for e in row]


def min_poly(x: RatMatrix) -> UniPoly:
    """Monic minimal polynomial.

    Vectorizes I, x, x^2, ... in the n^2-dimensional entry space and tracks
    an echelon basis with bookkeeping of which power combination produced
    each basis row; the first power that reduces to zero yields the monic
    dependence, which is the minimal polynomial.
    """
    n = x.n
    basis: list[tuple[int, list[Rat], list[Rat]]] = []
    xk = RatMatrix.identity(n)
    for k in range(n + 1):
        v = _vec(xk)
        combo = [0] * (n + 1)
        combo[k] = 1
        for pivot_col, row, row_combo in basis:
            if v[pivot_col] != 0:
                f = Fraction(v[pivot_col], row[pivot_col])
                v = [a - f * b for a, b in zip(v, row)]
                combo = [a - f * b for a, b in zip(combo, row_combo)]
        pivot_col = next((i for i, e in enumerate(v) if e != 0), None)
        if pivot_col is None:
            return UniPoly(combo[: k + 1])
        basis.append((pivot_col, v, combo))
        xk = xk * x
    raise AssertionError("powers up to n must be dependent")  # pragma: no cover


def solve_linear(a: RatMatrix, b: RatVector):
    """Solve the square system a s = b exactly.

    Returns the unique RatVector solution when det(a) != 0, the NO_SOLUTION
    sentinel when the system is inconsistent, and NON_UNIQUE when it is
    consistent but underdetermined.
    """
    n = a.n
    if b.n != n:
        raise DimensionMismatchError(f"matrix size {n} vs vector length {b.n}")
    aug = [list(row) + [be] for row, be in zip(a.rows, b.entries)]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pivot = aug[r][c]
        aug[r] = [Fraction(e, pivot) for e in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(all(aug[i][c] == 0 for c in range(n)) and aug[i][n] != 0 for i in range(n)):
        return NO_SOLUTION
    if r < n:
        return NON_UNIQUE
    sol = [0] * n
    for i, c in enumerate(pivots):
        sol[c] = aug[i][n]
    return RatVector(sol)


def inverse(x: RatMatrix) -> RatMatrix:
    """Exact inverse by Gauss-Jordan; raises SingularMatrixError when det = 0."""
    n = x.n
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(x.rows)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        pivot = aug[c][c]
        aug[c] = [Fraction(e, pivot) for e in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[c])]
    return RatMatrix([row[n:] for row in aug])


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
