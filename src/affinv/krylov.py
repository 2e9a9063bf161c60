"""Krylov rows of the last standard basis vector, their determinant, the
open locus where that determinant is nonzero, companion matrices, the
mirabolic subgroup P (last row (0, ..., 0, 1)), and the conjugation
procedure that moves any regular matrix into the locus.

The determinant of the rows e_n, e_n x, ..., e_n x^(n-1) is written D(x)
throughout, matching the analysis-JSON key ``"D"``.  D is a homogeneous
polynomial of degree n(n-1)/2 in the entries of x, transforms under
conjugation by y in P as D(y x y^-1) = det(y)^-1 D(x), and is nonzero
exactly when e_n is a cyclic row vector for x.  The value of D comes from
the Bareiss kernel of ``exactmat`` (``_krylov_det``); every test of whether
a row is cyclic, D != 0 included, runs the decision-only kernel
``exactmat._is_cyclic`` on a content-reduced chain.  Conventions for n = 1:
the Krylov matrix is [1], D is identically 1, every element is regular,
and P is the trivial group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import mul
from typing import Sequence

from .exactmat import (
    ExactmatError,
    RatMatrix,
    SingularMatrixError,
    _descaled,
    _det_rows,
    _integer_multiple,
    _is_cyclic,
    _krylov_chain,
    _krylov_rows,
    _matmul,
    _order_sign,
    _probe_row,
    _scaled_inverse,
    char_poly,
    determinant,
    min_poly,
)
from .invariants import basis_matrix, trace_form


class NotInPError(ExactmatError):
    """Last row is not (0, ..., 0, 1)."""


class SearchExhausted(ExactmatError):
    """Random cyclic-row search hit its retry budget."""


MAX_TRIES = 64  # random rows find_cyclic_row draws before SearchExhausted


@dataclass(frozen=True)
class PGroupElement:
    """Invertible matrix whose last row is (0, ..., 0, 1)."""

    matrix: RatMatrix
    _det: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y, n = self.matrix, self.matrix.n
        last = y.rows[n - 1]
        if any(last[j] != 0 for j in range(n - 1)) or last[n - 1] != 1:
            raise NotInPError(f"last row {[str(e) for e in last]} is not e_n")
        det = determinant(y)
        if det == 0:
            raise SingularMatrixError("matrix in P candidate is singular")
        object.__setattr__(self, "_det", det)

    def det(self) -> Fraction:
        """det(y), the nonzero determinant found when y was validated."""
        return self._det


def krylov_rows(w: Sequence, x: RatMatrix) -> RatMatrix:
    """The rows w, wx, ..., wx^(n-1), top to bottom, for a row w of exact
    scalars."""
    rows = chain.from_iterable(_krylov_rows([w], x.rows))
    return RatMatrix(islice(rows, x.n))


def _unit_row(n: int, k: int) -> tuple[int, ...]:
    """e_(k+1) of length n, as a tuple of ints."""
    return tuple(int(j == k) for j in range(n))


def _krylov_det(w: Sequence[int], xq) -> int:
    """q^(n(n-1)/2) D_w(x) = det(w, w (qx), ..., w (qx)^(n-1)) for an integer
    row w and the integer multiple xq = q x, 0 at the first dependent row.
    The n chain rows go to ``_eliminate`` alone, with no dependence columns:
    the value of D reads only the pivots.  A test of D_w != 0 alone runs
    ``_is_cyclic`` instead."""
    n = len(w)
    rows = chain.from_iterable(_krylov_rows([w], xq))
    return _det_rows(islice(rows, n), n)


def krylov_determinant(x: RatMatrix) -> Fraction:
    """D(x), the determinant of the Krylov rows of e_n, from the bare
    Bareiss chain ``_krylov_det``: 0 at the first dependent row e_n x^k.  It
    carries no dependence columns; only ``analyze``, which reads the
    characteristic polynomial from the same chain, runs
    ``_krylov_dependence`` instead, and ``in_omega``, which reads only
    whether D != 0, runs ``_is_cyclic``."""
    n = x.n
    xq, q = _integer_multiple(x.rows)
    return Fraction(_krylov_det(_unit_row(n, n - 1), xq), q ** (n * (n - 1) // 2))


def _krylov_dependence(w: Sequence, x: RatMatrix) -> tuple[Fraction, tuple | None]:
    """D_w(x) = det(w, wx, ..., wx^(n-1)) for an integer row w and, if it is
    nonzero, the characteristic polynomial of x (else None), by Krylov's
    method ``_krylov_chain`` on w and the integer multiple q x: it stops at
    the first dependent row, deg mu_w; if that is row n, sign * last =
    q^(n(n-1)/2) D_w(x) and the dependence gives det(t - qx), whose t^i
    coefficient is q^(n-i) x's.  The rows carry n + 1 dependence columns for
    that polynomial, so only ``analyze`` calls this, on e_n; every test that
    needs D_w alone runs the bare ``_krylov_det``, and every test of D_w !=
    0 alone the decision kernel ``_is_cyclic``."""
    n = x.n
    xq, q = _integer_multiple(x.rows)
    pivots, last, y = _krylov_chain(w, xq)
    if len(pivots) < n:
        return Fraction(0), None
    d_w = Fraction(_order_sign(pivots) * last, q ** (n * (n - 1) // 2))
    return d_w, _descaled(y, q)


def pairing_matrix(x: RatMatrix) -> RatMatrix:
    """The matrix with (k+1, j) entry tr(x^k E_jn), built from matrix powers
    by successive products and literal trace pairings.

    An independent construction of the same matrix as the Krylov rows
    krylov_rows(e_n, x), by products of whole matrices instead of the chain
    and with its own ``determinant`` call; the verification suites compare
    its determinant with krylov_determinant exactly.
    """
    n = x.n
    powers = chain([RatMatrix.identity(n)], accumulate(repeat(x), mul, initial=x))
    return RatMatrix(
        [trace_form(xk, basis_matrix(n, j, n)) for j in range(1, n + 1)]
        for xk in islice(powers, n)
    )


def pairing_determinant(x: RatMatrix) -> Fraction:
    """D(x) computed from the trace-pairing construction."""
    return determinant(pairing_matrix(x))


def in_omega(x: RatMatrix) -> bool:
    """Exact test D(x) != 0, i.e. e_n is a cyclic row vector for x, by the
    decision kernel ``_is_cyclic`` on e_n and the integer multiple q x."""
    return _is_cyclic(_unit_row(x.n, x.n - 1), _integer_multiple(x.rows)[0])


def companion(alpha: Sequence) -> RatMatrix:
    """Companion matrix of the exact coefficients (a1, ..., an), n >= 1, with
    subdiagonal 1s and last column a_n, ..., a_1 top to bottom; its
    characteristic polynomial is t^n - a1 t^(n-1) - ... - an."""
    n = len(alpha)
    if n < 1:
        raise ExactmatError("companion coefficients must have length >= 1")
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = rows[i][n - 1] + alpha[n - 1 - i]
    return RatMatrix(rows)


def companion_sign(n: int) -> int:
    """D at any companion matrix: (-1)^(n(n-1)/2), the parity of the row
    reversal hidden in the anti-unitriangular Krylov matrix."""
    return -1 if (n * (n - 1) // 2) % 2 else 1


def is_regular(x: RatMatrix) -> bool:
    """True iff the minimal polynomial has full degree n.  The decision
    kernel ``_is_cyclic`` on ``min_poly``'s probe row decides it when that
    row is cyclic (deg mu_w = n and mu_w | mu_x); only otherwise is
    ``min_poly`` computed."""
    n = x.n
    if _is_cyclic(_probe_row(n), _integer_multiple(x.rows)[0]):
        return True
    return len(min_poly(x)) == n + 1


def transformation_law(
    x: RatMatrix, y: PGroupElement, d: Fraction
) -> tuple[Fraction, Fraction]:
    """Return (D(y x y^-1), det(y)^-1 d) for the D(x) = d that the caller
    holds; the two are equal for y in P.  With the integer multiple q x and
    the scaled inverse M = s y^-1 of ``_scaled_inverse``, y x y^-1 =
    y (q x) M / (q s), and D is homogeneous of degree n(n-1)/2, so D(y x
    y^-1) is D of the product y (q x) M, an integer matrix for an integer
    y, divided once by (q s)^(n(n-1)/2)."""
    n = x.n
    xq, q = _integer_multiple(x.rows)
    m, s = _scaled_inverse(y.matrix)
    conjugated = RatMatrix(_matmul(_matmul(y.matrix.rows, xq), m))
    return krylov_determinant(conjugated) / (q * s) ** (n * (n - 1) // 2), d / y.det()


def homogeneity_check(x: RatMatrix, t, d: Fraction) -> tuple[Fraction, Fraction]:
    """Return (D(t x), t^(n(n-1)/2) d) for the D(x) = d that the caller
    holds; the two are equal."""
    t = Fraction(t)
    e = x.n * (x.n - 1) // 2
    return krylov_determinant(x.scale(t)), t**e * d


@dataclass(frozen=True)
class Analysis:
    """What ``analyze`` found for x: D(x), the minimal polynomial and, if a
    conjugator was asked for and x is regular, g with D(g x g^-1) != 0
    (the identity when D(x) != 0), else None."""

    x: RatMatrix
    d: Fraction
    min_poly: tuple
    conjugator: RatMatrix | None

    @property
    def regular(self) -> bool:
        """The minimal polynomial has degree n; only then does a cyclic row,
        and so a conjugate in the locus, exist."""
        return len(self.min_poly) == self.x.n + 1

    @cached_property
    def char_poly(self) -> tuple:
        """The minimal polynomial when x is regular, else computed on first
        read."""
        return self.min_poly if self.regular else char_poly(self.x)


def analyze(x: RatMatrix, conjugate: bool = False, seed: int = 0) -> Analysis:
    """D(x), both polynomials and, with ``conjugate``, a conjugator into the
    locus, in this order: the e_n chain gives D and, when D != 0, the
    characteristic polynomial, which is then the minimal one; if D = 0,
    ``min_poly``; if a conjugator is asked for and x is regular with D = 0,
    ``find_cyclic_row`` with the seed and ``conjugate_into_omega``.  A
    non-regular x is never searched."""
    n = x.n
    d, mp = _krylov_dependence(_unit_row(n, n - 1), x)
    if mp is None:
        mp = min_poly(x)
    g = None
    if conjugate and len(mp) == n + 1:
        g = RatMatrix.identity(n)
        if not d:
            g = conjugate_into_omega(x, find_cyclic_row(x, seed))
    return Analysis(x, d, mp, g)


def find_cyclic_row(x: RatMatrix, seed: int = 0) -> tuple[int, ...]:
    """A row w with det(w, wx, ..., wx^(n-1)) != 0 for a regular x with
    D(x) = 0: the unit rows e_1, ..., e_(n-1) in order, then random integer
    rows with entries in [-m, m], m doubling every eight draws, deterministic
    given the seed.  Raises SearchExhausted after MAX_TRIES random draws,
    which has probability zero in exact arithmetic for a regular x but is
    certain for a non-regular one.  Each candidate runs the decision kernel
    ``_is_cyclic``, which forms no value of D_w, on the integer multiple q x
    and its columns, formed once for the whole search."""
    n = x.n
    xq, _ = _integer_multiple(x.rows)
    cols = tuple(zip(*xq))
    for i in range(n - 1):
        w = _unit_row(n, i)
        if _is_cyclic(w, xq, cols):
            return w
    rng = random.Random(seed)
    m = 1
    for tries in range(MAX_TRIES):
        if tries and tries % 8 == 0:
            m *= 2
        w = tuple(rng.randint(-m, m) for _ in range(n))
        if any(w) and _is_cyclic(w, xq, cols):
            return w
    raise SearchExhausted(f"no cyclic row found in {MAX_TRIES} random draws")


def _scaled_conjugate(rows, w: Sequence, k: int) -> list[list]:
    """w_k g x g^-1 for the rows of x and the g of ``conjugate_into_omega``,
    in closed form.  Take h = I + e_k^T (w - e_k), the identity with row k
    replaced by w: h^-1 = I - e_k^T (w - e_k) / w_k, so with M = h x (x with
    row k replaced by w x), w_k h x h^-1 = w_k M - M e_k^T (w - e_k), a
    rank-one update.  g is h with row k moved last, so g x g^-1 is h x h^-1
    with row and column k moved last.  Integer rows and w give an integer
    result."""
    n, wk = len(w), w[k]
    m = list(rows)
    m[k] = _matmul([w], rows)[0]
    v = [e - (j == k) for j, e in enumerate(w)]
    order = [i for i in range(n) if i != k] + [k]
    return [[wk * m[a][b] - m[a][k] * v[b] for b in order] for a in order]


def conjugate_into_omega(x: RatMatrix, w: Sequence) -> RatMatrix:
    """The invertible g whose last row is the cyclic row w of x, completed
    by the standard basis rows but e_k, for the last k with w_k != 0, in
    index order (det g = +-w_k).  Then e_n (g x g^-1)^k = w x^k g^-1, so
    D(g x g^-1) = det(g)^-1 det(w, wx, ..., wx^(n-1)) != 0, checked exactly:
    D is homogeneous, so the decision kernel ``_is_cyclic`` decides it on
    e_n and the integer matrix q w_k g x g^-1 of ``_scaled_conjugate``, with
    no inverse and no value of D.  (A rational w is first scaled to an
    integer multiple c w; that moves g by diag(1, ..., 1, c) in P, which
    keeps D != 0 as it is.)  Raises ExactmatError when w has the wrong
    length, is zero, or is not cyclic for x."""
    n = x.n
    if len(w) != n:
        raise ExactmatError(f"cyclic row has length {len(w)}, expected {n}")
    if not any(w):
        raise ExactmatError("the zero row is not cyclic")
    k = max(i for i, e in enumerate(w) if e != 0)
    g = RatMatrix([_unit_row(n, i) for i in range(n) if i != k] + [w])
    xq, _ = _integer_multiple(x.rows)
    (wq,), _ = _integer_multiple(g.rows[-1:])
    if not _is_cyclic(_unit_row(n, n - 1), _scaled_conjugate(xq, wq, k)):
        raise ExactmatError("row is not cyclic for x: D(g x g^-1) = 0")
    return g
