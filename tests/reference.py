"""Reference routines that only the tests read.

Each one is the plain, dense form of a quantity the library computes in a
leaner way, or that no command needs, and each still runs on the library's
own routines, so a test that compares against it drives them too:

- ``fd_directional``: one central difference along any direction v, the
  point form that ``calculus.lie_derivatives`` matches bit for bit along
  v = [E_ij, x], through ``calculus._central_differences``;
- ``rank``: the exact rank from ``exactmat._eliminate``;
- ``trace``, ``trace_power``: tr(x) and tr(x^k)/k, as ``Fraction``;
- ``entry_bracket_pairing``: the dense tr(x^k E_ji) that
  ``invariants.basis_expansion_residual`` reads as the entry (x^k)_ij;
- ``_Dual``, ``gradient_matrix``, ``gradient_commutator_residual``: exact
  gradients by ``fields.evaluate_on_entries`` on dual scalars (forward
  mode).

Gradient convention: with the pairing B(x, y) = tr(xy), the gradient
matrix of a scalar field f has (i, j) entry df/dx_ji.  The convention is
locked by the identity grad of tr(x^2)/2 = x and checked against sympy's
derivatives and against finite differences.
"""

from fractions import Fraction

import numpy as np

from affinv.calculus import (
    CalculusError,
    FDConfig,
    FloatMatrix,
    _central_differences,
    _entries,
)
from affinv.exactmat import (
    ExactmatError,
    RatMatrix,
    _eliminate,
    _integer_multiple,
    commutator,
    power,
)
from affinv.fields import ScalarField, evaluate_on_entries
from affinv.invariants import basis_matrix, trace_form


def fd_directional(
    phi: ScalarField, x: FloatMatrix, v: FloatMatrix, cfg: FDConfig = FDConfig()
) -> float:
    """Central-difference directional derivative of phi at x along v, where
    x +- hv must be finite."""
    h, out = cfg.h, np.empty((1, 1))
    xs, vs = np.array(x.entries), np.array(v.entries)
    with np.errstate(over="ignore"):  # reported below
        plus, minus = xs + h * vs, xs - h * vs
    if not (np.isfinite(plus).all() and np.isfinite(minus).all()):
        raise CalculusError(f"x +- hv leaves the float range at h = {h:g}")
    _central_differences([phi], _entries(plus), _entries(minus), h, out)
    return float(out[0, 0])


def rank(x: RatMatrix) -> int:
    """Exact rank over the rationals: the number of independent rows of the
    integer multiple q x."""
    rows, _ = _integer_multiple(x.rows)
    return sum(c is not None for c, _ in _eliminate(rows, x.n))


def trace(x: RatMatrix) -> Fraction:
    """tr(x), as a Fraction."""
    return Fraction(sum(x.rows[i][i] for i in range(x.n)))


def trace_power(x: RatMatrix, k: int) -> Fraction:
    """The invariant tr(x^k)/k, k >= 1."""
    if k < 1:
        raise ExactmatError(f"trace power index {k} must be >= 1")
    return trace(power(x, k)) / k


def entry_bracket_pairing(x: RatMatrix, k: int, i: int, j: int) -> Fraction:
    """tr(x^k E_ji), which equals entry (i, j) of x^k."""
    return trace_form(power(x, k), basis_matrix(x.n, j, i))


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
