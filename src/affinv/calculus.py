"""Floating-point layer: finite-difference Lie derivatives along the
adjoint fields, the reduced linear system in the last-row bracket
derivatives, and a quadrature analogue of the weak (distributional) form
of local invariance.

All derivative estimates use one central-difference kernel,
(f(x+hv) - f(x-hv))/2h along the adjoint direction v = [E_ij, x], that
writes into the caller's arrays, works on an (n, n) point and on an
(n, n, N) batch of samples alike, and evaluates a family of fields on each
side at once; one builder forms every shifted point x +- hv.  At a point,
where x +- hv must be finite, ``lie_derivatives`` stacks all n^2
directions into one batch, reads its + side plus 0.0 (a -0.0 entry as
+0.0, as x + h * 0 does) and returns one table per field as a nested list
of Python floats.  Each point check (P-invariance, the full contraction
identity, the reduced system) reads a table and x's float powers
``FloatMatrix.powers`` as plain floats: its maxima keep a NaN and its dot
products, the powers' entries among them, add left to right on every
Python version.  The reduced system is checked at rational points only:
its gate |D(x)| >= delta, which keeps it away from the hypersurface where
finite differences degrade, reads |D| from the exact determinant the
caller holds.  Scalar fields built from trace powers are exactly
invariant, so their Lie derivatives measure pure finite-difference noise;
the default tolerances are sized for entries clamped to [-2, 2] at
h = 1e-5.

The point type ``FloatMatrix`` holds a tuple of row tuples of Python
floats and needs no numpy.  numpy serves only where a batch of samples is
evaluated (the shifted points of ``lie_derivatives``, the differences, the
weak suite), and each function that needs it imports it itself, so the
command-line tool loads this module without numpy until a lemma or weak
suite runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Sequence

from .fields import ScalarField, evaluate_on_entries
from .invariants import basis_bracket, basis_matrix


class CalculusError(ValueError):
    pass


class PreconditionViolated(CalculusError):
    """The Krylov determinant at x is inside the safety cutoff."""


class BoundaryLeak(CalculusError):
    """Test function does not vanish near the integration-box boundary."""


@dataclass(frozen=True)
class FloatMatrix:
    """Square matrix of finite Python floats, a tuple of row tuples."""

    entries: tuple

    def __init__(self, entries):
        try:
            rows = tuple(tuple(map(float, row)) for row in entries)
        except OverflowError:  # an int or Fraction beyond the float range
            raise CalculusError("matrix entries must be finite") from None
        except (TypeError, ValueError):  # a 1-D or 3-D list, a non-numeric string
            rows = ()
        if not rows or any(len(row) != len(rows) for row in rows):
            raise CalculusError("expected a non-empty square matrix of real numbers")
        if not all(map(math.isfinite, chain.from_iterable(rows))):
            raise CalculusError("matrix entries must be finite")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def powers(self) -> tuple:
        """x^0, ..., x^(n-1) as nested float lists, formed on first use by
        successive products whose entries are each one _dot, added left to
        right on every Python version."""
        cols = list(zip(*self.entries))
        powers = [[[float(a == b) for b in range(self.n)] for a in range(self.n)]]
        for _ in range(1, self.n):
            powers.append([[_dot(row, col) for col in cols] for row in powers[-1]])
        return tuple(powers)


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference step, scheme, and tolerance schedule."""

    h: float = 1e-5
    scheme: str = "central"
    tau_res: float = 1e-6
    tau_sys: float = 1e-5
    tau_lemma: float = 1e-5
    tau_comb: float = 1e-5
    delta: float = 0.1

    def __post_init__(self):
        limits = (
            self.h, self.tau_res, self.tau_sys, self.tau_lemma, self.tau_comb, self.delta
        )
        if not all(math.isfinite(v) for v in limits):
            raise CalculusError("h, tau_* and delta must be finite")
        if not all(v > 0 for v in limits):
            raise CalculusError("h, tau_* and delta must be positive")
        if not 1.0 + self.h > 1.0:  # the step is relative to the entries
            raise CalculusError(f"h = {self.h:g} cannot move a unit entry (1 + h == 1)")
        if self.scheme != "central":
            raise CalculusError(f"unsupported scheme {self.scheme!r}")


QUAD_CHUNK = 200_000  # samples per Monte-Carlo chunk
QUAD_BLOCK = 16_384  # samples per field evaluation within a chunk
SHELL_FRACTION = 0.01  # boundary shell width, as a fraction of the half width
LEAK_RATIO = 0.02  # largest shell-to-interior ratio of |psi| that counts as decayed


@dataclass(frozen=True)
class QuadratureSpec:
    """Monte-Carlo box quadrature: per-coordinate interval [-a, a]."""

    half_width: float = 2.0
    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < 2.0 * self.half_width < math.inf:  # NaN fails too
            raise CalculusError("quadrature half_width a must be > 0 with 2a finite")
        n, seed = self.n_samples, self.seed
        if not (type(n) is type(seed) is int and n >= 1 and seed >= 0):  # bools fail
            raise CalculusError("n_samples must be an integer >= 1 and seed one >= 0")


def _entries(arr: np.ndarray) -> list:
    """Entry lists of an (n, n) point or an (n, n, N) batch (sample-axis views)."""
    return [list(row) for row in arr]


def _shifted_entries(x: list, i: int, j: int, h: float) -> tuple:
    """x +- hv for v = [E_ij, x] as entry lists, the one builder of the
    shifted points: only row i and column j are new, their v entries formed
    from 0.0 by adding x_jb (row i) and then subtracting x_ai (column j),
    and h * v once; the rest are x's own entries, handed on unchanged."""
    plus, minus = [list(row) for row in x], [list(row) for row in x]
    for a, row in enumerate(x):
        for b, e in enumerate(row):
            if a == i - 1 or b == j - 1:
                v = 0.0 + x[j - 1][b] if a == i - 1 else 0.0
                if b == j - 1:
                    v = v - x[a][i - 1]
                hv = h * v
                plus[a][b], minus[a][b] = e + hv, e - hv
    return plus, minus


def _central_differences(
    phis: Sequence[ScalarField], plus: list, minus: list, h: float, out
) -> None:
    """Write (phi(x + hv) - phi(x - hv)) / 2h of each phi, from the shifted
    entry lists, into ``out``, one writable array per phi; each side
    evaluates the phis as one family."""
    import numpy as np

    sides = zip(evaluate_on_entries(phis, plus), evaluate_on_entries(phis, minus))
    for row, (p, m) in zip(out, sides):
        np.subtract(p, m, out=row)
        np.divide(row, 2.0 * h, out=row)


def abs_max(values) -> float:
    """max |v| over values, 0.0 if none; unlike Python's max, a NaN wins."""
    magnitudes = [abs(v) for v in values]
    if any(v != v for v in magnitudes):  # Python's max keeps a NaN only when first
        return math.nan
    return float(max(magnitudes, default=0.0))


def _dot(a, b) -> float:
    """sum_i a_i b_i from 0.0, left to right (sum() is compensated from 3.12 on)."""
    total = 0.0
    for c, d in zip(a, b):
        total += c * d
    return total


def lie_derivatives(
    phis: Sequence[ScalarField], x: FloatMatrix, cfg: FDConfig = FDConfig()
) -> list:
    """The (phis, n, n) nested list of Python floats L_ij phi(x), one (n, n)
    table per phi, from one central difference over all 2n^2 shifted points,
    built by _shifted_entries and evaluated as one batch for the whole
    family, where x +- hv must be finite.  The + side is read plus 0.0, as
    x + hv reads an entry that hv leaves at 0, so entry [m][i][j] equals the
    central difference of phis[m] along [E_ij, x] at x +- hv
    (``fd_directional`` in ``tests/reference.py``) bit for bit, but for the
    sign of a zero where h * v underflows to -0.0 at a -0.0 entry.  The point
    checks read a table with x's float powers."""
    import numpy as np

    n, h, entries = x.n, cfg.h, x.entries
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    # (2, n, n, n^2): the + and - sides, one sample per (i, j)
    points = np.moveaxis(np.array([_shifted_entries(entries, i, j, h) for i, j in pairs]), 0, -1)
    if not np.isfinite(points).all():
        raise CalculusError(f"x +- hv leaves the float range at h = {h:g}")
    points[0] += 0.0  # x + h * 0 turns a -0.0 entry into +0.0; x - h * 0 keeps it
    plus, minus = points
    out = np.empty((len(phis), n * n))
    _central_differences(phis, _entries(plus), _entries(minus), h, out)
    return [table.reshape(n, n).tolist() for table in out]


def lie_derivative(
    phi: ScalarField, i: int, j: int, x: FloatMatrix, cfg: FDConfig = FDConfig()
) -> float:
    """Derivative of phi along the adjoint field x -> [E_ij, x]."""
    if not (1 <= i <= x.n and 1 <= j <= x.n):
        raise CalculusError(f"index ({i},{j}) out of range 1..{x.n}")
    return lie_derivatives([phi], x, cfg)[0][i - 1][j - 1]


def p_invariance_residual(table: list) -> float:
    """max |L_ij phi| over i = 1..n-1, j = 1..n of a lie_derivatives table;
    zero for n = 1.

    Small values certify local invariance under the subgroup that fixes
    the last basis row.  A NaN derivative is the residual.
    """
    return abs_max(chain.from_iterable(table[:-1]))


def full_identity_residual(table: list, x: FloatMatrix, k: int) -> float:
    """|sum_ij (x^k)_ij L_ij phi| from a lie_derivatives table at x and the
    float power ``x.powers[k]``, summed left to right in row-major order.

    The underlying vector field sum_ij (x^k)_ij [E_ij, .] is [x^k, x] = 0,
    so the residual is pure finite-difference error for every C^1 field.
    """
    if not 0 <= k <= x.n - 1:
        raise CalculusError(f"power index {k} out of range 0..{x.n - 1}")
    return abs(_dot(chain.from_iterable(x.powers[k]), chain.from_iterable(table)))


def reduced_system_check(
    table: list, x: FloatMatrix, abs_d: float, cfg: FDConfig = FDConfig()
) -> tuple:
    """The residuals r_k = sum_j (x^k)_nj s_j, k = 0..n-1, of the n-unknown
    linear system in the last-row derivatives s_j = L_nj phi, the last row
    ``table[-1]`` of a lie_derivatives table at x.

    Precondition (checked here): |D(x)| = abs_d >= delta, where the caller
    takes abs_d from the exact determinant it holds.  Precondition
    (caller-checked): phi should have p_invariance_residual <= tau_res,
    otherwise the system says nothing about phi.  Wherever D != 0 the lemma
    asserts max_k |r_k| <= tau_sys and max_j |s_j| <= tau_lemma.  The rows
    e_n x^k of the residuals come from the float powers ``x.powers``,
    independently of the exact Krylov rows; each r_k adds left to right.
    """
    if abs_d < cfg.delta:
        raise PreconditionViolated(f"|D(x)| = {abs_d:.3g} < delta = {cfg.delta}")
    return tuple(_dot(p[-1], table[-1]) for p in x.powers)


def adjoint_field_divergence(n: int, i: int, j: int) -> Fraction:
    """Exact divergence of x -> [E_ij, x] on matrix space.

    The field is linear, so the divergence is sum_ab of the (a, b) entry
    of [E_ij, E_ab]; it vanishes identically, which is what licenses the
    single-integral weak derivative below.
    """
    total = Fraction(0)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            total += basis_bracket(basis_matrix(n, a, b), i, j).entry(a, b)
    return total


# rng stream for the boundary-shell check; sampling chunks start at 1
_BOUNDARY_STREAM = 0


def check_boundary_decay(
    psis: Sequence[ScalarField], n: int, quad: QuadratureSpec
) -> list:
    """Verify each psi is negligible on the outer shell of the box.

    Draws one block of interior samples and one of shell samples (one
    coordinate forced within SHELL_FRACTION of the wall), shared by every
    psi; raises BoundaryLeak at the first psi, in order, whose shell maximum
    exceeds LEAK_RATIO times its interior maximum.  Returns the measured
    ratio of each psi.
    """
    import numpy as np

    a = quad.half_width
    rng = np.random.default_rng([quad.seed, _BOUNDARY_STREAM])
    m = 512
    interior = _entries(rng.uniform(-a, a, size=(n, n, m)))
    shell = rng.uniform(-a, a, size=(n, n, m))
    coords = rng.integers(0, n * n, size=m)
    signs = rng.choice([-1.0, 1.0], size=m)
    radii = rng.uniform(a * (1.0 - SHELL_FRACTION), a, size=m)
    shell[coords // n, coords % n, np.arange(m)] = signs * radii
    ratios = []
    for inside, outside in zip(
        evaluate_on_entries(psis, interior), evaluate_on_entries(psis, _entries(shell))
    ):
        interior_max = float(np.max(np.abs(inside)))
        shell_max = float(np.max(np.abs(outside)))
        ratios.append(shell_max / max(interior_max, 1e-12))
        if ratios[-1] > LEAK_RATIO:
            raise BoundaryLeak(
                f"shell max {shell_max:.3g} vs interior max {interior_max:.3g}"
            )
    return ratios


def weak_lie_derivative(
    densities: Sequence[ScalarField],
    psis: Sequence[ScalarField],
    pairs: Sequence[tuple],
    quad: QuadratureSpec = QuadratureSpec(),
    cfg: FDConfig = FDConfig(),
    n: int = 2,
    paired: Sequence[Sequence[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimates of the weak derivative pairings
    -integral of u * (L_ij psi) over the box and their standard errors: two
    float arrays (estimate, std_error) of shape (psis, densities, pairs),
    entry [m, d, p] for psi = psis[m], u = densities[d] and (i, j) = pairs[p].
    ``paired[d]``, when given, lists the indices m of the psis that density d
    is paired with; only those pairings are formed, and every other entry is
    NaN.  Raises CalculusError when ``paired`` does not list one sequence of
    psi indices per density, when the box volume (2a)^(n^2) is zero or
    infinite in floating point, or when x +- hv can leave the float range.

    Realizes each density u as a distribution T(psi) = integral(u psi); the
    adjoint fields are divergence free (the weak suite decides it exactly),
    so the weak derivative (L_ij T)(psi) reduces to the single integral
    above when psi vanishes near the boundary (checked by shell sampling).

    Sampling is chunked; chunk c is drawn from default_rng([seed, c]) once
    and shared by every (psi, u, i, j), so a sharded parallel run recombines
    to the identical result.  Fields are evaluated over QUAD_BLOCK-sample
    blocks of a chunk, which stay in cache: the densities once per block,
    and the psis as one family at the two shifted points of each block and
    pair.  The products u * L_ij psi and their sums run over the whole
    chunk.
    """
    import numpy as np

    a, h, samples, seed = quad.half_width, cfg.h, quad.n_samples, quad.seed
    try:
        volume = (2.0 * a) ** (n * n)
    except OverflowError:
        volume = math.inf
    if not 0.0 < volume < math.inf:
        raise CalculusError(f"quadrature box volume (2a)^{n * n} is zero or infinite")
    if not a * (1.0 + 2.0 * h) < math.inf:  # >= |x +- h[E_ij, x]|
        raise CalculusError(f"bad fd config: x +- hv overflows at h = {h:g}")
    formed = np.full((len(psis), len(densities)), paired is None)
    if paired is not None:
        if len(paired) != len(densities):
            raise CalculusError(f"paired lists {len(paired)} densities, not {len(densities)}")
        for d, ms in enumerate(paired):
            if not all(0 <= m < len(psis) for m in ms):
                raise CalculusError(f"paired[{d}] = {ms!r} holds an index outside the psis")
            formed[list(ms), d] = True
    check_boundary_decay(psis, n, quad)
    sums = np.zeros((len(psis), len(densities), len(pairs), 2))
    for chunk_idx, start in enumerate(range(0, samples, QUAD_CHUNK), start=1):
        count = min(QUAD_CHUNK, samples - start)
        rng = np.random.default_rng([seed, chunk_idx])
        x = rng.uniform(-a, a, size=(n, n, count))
        blocks = [slice(b, b + QUAD_BLOCK) for b in range(0, count, QUAD_BLOCK)]
        u_vals = np.empty((len(densities), count))
        for block in blocks:
            values = evaluate_on_entries(densities, _entries(x[..., block]))
            for u_row, u_val in zip(u_vals, values):
                u_row[block] = u_val
        lie = np.empty((len(psis), count))
        vals, squares = np.empty(count), np.empty(count)
        for p, (i, j) in enumerate(pairs):
            for block in blocks:
                plus, minus = _shifted_entries(_entries(x[..., block]), i, j, h)
                _central_differences(psis, plus, minus, h, lie[:, block])
            for m, d in zip(*np.nonzero(formed)):
                np.multiply(u_vals[d], lie[m], out=vals)
                np.multiply(vals, vals, out=squares)
                sums[m, d, p] += np.sum(vals), np.sum(squares)
    sums[~formed] = math.nan
    mean = sums[..., 0] / samples
    var = np.maximum(sums[..., 1] / samples - mean * mean, 0.0)
    return -volume * mean, volume * np.sqrt(var / samples)
