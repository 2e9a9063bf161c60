"""Trace-form pairing on gl(n), trace-power invariants and their
gradients, and the exact basis-expansion identity
sum_ij tr(x^k E_ji) [E_ij, x] = 0.

Gradient convention: with the pairing B(x, y) = tr(xy), the gradient
matrix of a scalar field f has (i, j) entry df/dx_ji.  Each partial is
exact: the field evaluator run on dual scalars (forward mode).  The
convention is locked by the identity grad of tr(x^2)/2 = x and verified
against finite differences in the calculus layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Sequence

from .exactmat import (
    DimensionMismatchError,
    ExactmatError,
    RatMatrix,
    commutator,
    power,
)
from .fields import ScalarField, evaluate_on_entries


@lru_cache(maxsize=None)
def basis_matrix(n: int, i: int, j: int) -> RatMatrix:
    """Elementary matrix E_ij (1-based): single 1 at entry (i, j).

    The trace-form dual of E_ij is E_ji, an identity exercised by the
    Gram-matrix test in the property suites.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ExactmatError(f"basis index ({i},{j}) out of range 1..{n}")
    return RatMatrix(
        [[int(a == i - 1 and b == j - 1) for b in range(n)] for a in range(n)]
    )


def trace_form(x: RatMatrix, y: RatMatrix) -> Fraction:
    """B(x, y) = tr(xy), computed as the standard bilinear sum."""
    if x.n != y.n:
        raise DimensionMismatchError(f"dimension {x.n} vs {y.n}")
    # x_ac y_ca over a, then c: x's rows against y's columns, flattened
    return Fraction(
        sum(map(mul, chain.from_iterable(x.rows), chain.from_iterable(zip(*y.rows))))
    )


def trace_power(x: RatMatrix, k: int) -> Fraction:
    """The invariant tr(x^k)/k, k >= 1."""
    if k < 1:
        raise ExactmatError(f"trace power index {k} must be >= 1")
    return power(x, k).trace() / k


def entry_bracket_pairing(x: RatMatrix, k: int, i: int, j: int) -> Fraction:
    """tr(x^k E_ji), which equals entry (i, j) of x^k."""
    return trace_form(power(x, k), basis_matrix(x.n, j, i))


def _add_basis_bracket(acc: list[list], x: RatMatrix, i: int, j: int, coef) -> None:
    """acc += coef * [E_ij, x] in place.

    E_ij x is row j of x moved to row i, and x E_ij is column i of x moved
    to column j, so the bracket touches only row i and column j: O(n) work.
    """
    row_i = acc[i - 1]
    for b, e in enumerate(x.rows[j - 1]):
        row_i[b] += coef * e
    for acc_row, x_row in zip(acc, x.rows):
        acc_row[j - 1] -= coef * x_row[i - 1]


def basis_bracket(x: RatMatrix, i: int, j: int) -> RatMatrix:
    """[E_ij, x] (1-based), built sparsely from one row and one column of x."""
    if not (1 <= i <= x.n and 1 <= j <= x.n):
        raise ExactmatError(f"basis index ({i},{j}) out of range 1..{x.n}")
    acc = [[0] * x.n for _ in range(x.n)]
    _add_basis_bracket(acc, x, i, j, 1)
    return RatMatrix(acc)


def basis_expansion_residual(x: RatMatrix, xk: Sequence[Sequence]) -> RatMatrix:
    """Brute-force sum over all n^2 basis pairs of
    tr(x^k E_ji) [E_ij, x] for the rows xk of the power x^k; identically the
    zero matrix.

    The sum telescopes to [x^k, x] = 0, but it is assembled literally,
    pair by pair: each coefficient tr(x^k E_ji) is read as the entry
    (x^k)_ij (``entry_bracket_pairing`` computes the pairing itself) and
    each bracket is added entry by entry, so exact cancellation is what the
    suites certify.
    """
    n = x.n
    acc = [[0] * n for _ in range(n)]
    for i, row in enumerate(xk, 1):
        for j, coef in enumerate(row, 1):
            if coef != 0:
                _add_basis_bracket(acc, x, i, j, coef)
    return RatMatrix(acc)


class _Dual:
    """a + b*eps with eps^2 = 0 over exact scalars: evaluating a field on
    dual entries carries one directional derivative along (forward mode)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a
        self.b = b

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a + o.a, self.b + o.b)
        return _Dual(self.a + o, self.b)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a * o.a, self.a * o.b + self.b * o.a)
        return _Dual(self.a * o, self.b * o)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k == 0:
            return _Dual(1)
        lower = self.a ** (k - 1)
        return _Dual(lower * self.a, k * lower * self.b)


def gradient_matrix(f: ScalarField, x: RatMatrix) -> RatMatrix:
    """Exact gradient of a polynomial field at x under the trace form.

    Entry (i, j) is df/dx_ji, the eps part of f evaluated at x + eps E_ji
    on dual scalars through the one field evaluator.
    """
    n = x.n
    grad = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            entries = [
                [_Dual(e, int((a, b) == (j, i))) for b, e in enumerate(row)]
                for a, row in enumerate(x.rows)
            ]
            grad[i][j] = evaluate_on_entries([f], entries, lift=_Dual)[0].b
    return RatMatrix(grad)


def gradient_commutator_residual(f: ScalarField, x: RatMatrix) -> RatMatrix:
    """[grad f(x), x], exactly; zero whenever f is a polynomial in the
    trace powers p_1..p_n."""
    return commutator(gradient_matrix(f, x), x)
