"""Floating-point layer: finite-difference directional and Lie
derivatives, the reduced linear system in the last-row bracket
derivatives, and a quadrature analogue of the weak (distributional) form
of local invariance.

All derivative estimates use one central-difference kernel,
(f(x+hv) - f(x-hv))/2h along the adjoint direction v = [E_ij, x], that
works on an (n, n) point and on an (n, n, N) batch of samples alike.  At
a point, where x +- hv must be finite, ``lie_derivatives`` stacks all n^2
directions into one batch; every Lie-derivative check reads that table,
and its maxima keep a NaN.  The reduced system is checked at rational
points only: its gate |D(x)| >= delta, which keeps it away from the
hypersurface where finite differences degrade, is decided from the exact
determinant.  Scalar fields built from trace powers are exactly invariant,
so their Lie derivatives measure pure finite-difference noise; the default
tolerances are sized for entries clamped to [-2, 2] at h = 1e-5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactmat import RatMatrix
from .fields import ScalarField, evaluate_on_entries
from .invariants import basis_bracket, basis_matrix
from .krylov import krylov_determinant


class CalculusError(ValueError):
    pass


class PreconditionViolated(CalculusError):
    """The Krylov determinant at x is inside the safety cutoff."""


class BoundaryLeak(CalculusError):
    """Test function does not vanish near the integration-box boundary."""


@dataclass(frozen=True)
class FloatMatrix:
    """Square float64 matrix with finite entries."""

    entries: np.ndarray

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise CalculusError(f"expected square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise CalculusError("matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_rat(cls, x: RatMatrix) -> "FloatMatrix":
        return cls([[float(e) for e in row] for row in x.rows])


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
        if self.h <= 0 or self.tau_res <= 0 or self.delta <= 0:
            raise CalculusError("h, tau_res and delta must be positive")
        if self.scheme != "central":
            raise CalculusError(f"unsupported scheme {self.scheme!r}")


QUAD_CHUNK = 200_000  # samples per Monte-Carlo chunk
SHELL_FRACTION = 0.01  # boundary shell width, as a fraction of the half width
LEAK_RATIO = 0.02  # largest shell-to-interior ratio of |psi| that counts as decayed


@dataclass(frozen=True)
class QuadratureSpec:
    """Monte-Carlo box quadrature: per-coordinate interval [-a, a]."""

    half_width: float = 2.0
    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.half_width <= 0 or self.n_samples < 1:
            raise CalculusError("half_width must be > 0 and n_samples >= 1")


def _evaluate(phi: ScalarField, arr: np.ndarray):
    """phi on an (n, n) point or an (n, n, N) batch, fed entry by entry
    (views along the sample axis for a batch)."""
    n = arr.shape[0]
    entries = [[arr[a, b] for b in range(n)] for a in range(n)]
    return evaluate_on_entries(phi, entries, lift=float)


def _adjoint_direction(arr: np.ndarray, i: int, j: int) -> np.ndarray:
    """[E_ij, x] for an (n, n) point or an (n, n, N) batch."""
    v = np.zeros_like(arr)
    v[i - 1] += arr[j - 1]
    v[:, j - 1] -= arr[:, i - 1]
    return v


def _central_difference(phi: ScalarField, plus, minus, h: float):
    """(phi(x + hv) - phi(x - hv)) / 2h from the shifted points or batches."""
    return (_evaluate(phi, plus) - _evaluate(phi, minus)) / (2.0 * h)


def _point_difference(phi: ScalarField, arr: np.ndarray, v: np.ndarray, h: float):
    """_central_difference at points, where x +- hv must be finite."""
    with np.errstate(over="ignore"):  # reported below
        plus, minus = arr + h * v, arr - h * v
    if not (np.isfinite(plus).all() and np.isfinite(minus).all()):
        raise CalculusError(f"x +- hv leaves the float range at h = {h:g}")
    return _central_difference(phi, plus, minus, h)


def _abs_max(values) -> float:
    """max |v| over values, 0.0 if none; unlike Python's max, a NaN wins."""
    return float(np.abs(np.asarray(values, dtype=np.float64)).max(initial=0.0))


def eval_field(phi: ScalarField, x: FloatMatrix) -> float:
    """Recursive evaluation; a pk(k) node evaluates tr(x^k)/k in floats."""
    return float(_evaluate(phi, x.entries))


def fd_directional(
    phi: ScalarField, x: FloatMatrix, v: FloatMatrix, cfg: FDConfig = FDConfig()
) -> float:
    """Central-difference directional derivative of phi at x along v."""
    return float(_point_difference(phi, x.entries, v.entries, cfg.h))


def lie_derivatives(
    phi: ScalarField, x: FloatMatrix, cfg: FDConfig = FDConfig()
) -> np.ndarray:
    """The (n, n) table of L_ij phi(x) from one central difference over all
    2n^2 shifted points; entry (i, j) equals fd_directional along [E_ij, x]
    bit for bit."""
    n, arr = x.n, x.entries
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    v = np.stack([_adjoint_direction(arr, i, j) for i, j in pairs], axis=-1)
    table = _point_difference(phi, arr[..., None], v, cfg.h)
    # a constant field evaluates to one float, not to a batch
    return np.broadcast_to(table, (n * n,)).reshape(n, n)


def lie_derivative(
    phi: ScalarField, i: int, j: int, x: FloatMatrix, cfg: FDConfig = FDConfig()
) -> float:
    """Derivative of phi along the adjoint field x -> [E_ij, x]."""
    if not (1 <= i <= x.n and 1 <= j <= x.n):
        raise CalculusError(f"index ({i},{j}) out of range 1..{x.n}")
    return float(lie_derivatives(phi, x, cfg)[i - 1, j - 1])


def p_invariance_residual(
    phi: ScalarField, x: FloatMatrix, cfg: FDConfig = FDConfig()
) -> float:
    """max |L_ij phi| over i = 1..n-1, j = 1..n; zero for n = 1.

    Small values certify local invariance under the subgroup that fixes
    the last basis row.  A NaN derivative is the residual.
    """
    return _abs_max(lie_derivatives(phi, x, cfg)[:-1])


def _contraction_residual(table: np.ndarray, x: FloatMatrix, k: int) -> float:
    """|sum_ij (x^k)_ij L_ij phi| from a lie_derivatives table, summed left to
    right in row-major order."""
    if not 0 <= k <= x.n - 1:
        raise CalculusError(f"power index {k} out of range 0..{x.n - 1}")
    total = 0.0
    for c, d in zip(np.linalg.matrix_power(x.entries, k).flat, table.flat):
        total += c * d
    return float(abs(total))


def full_identity_residual(
    phi: ScalarField, x: FloatMatrix, k: int, cfg: FDConfig = FDConfig()
) -> float:
    """|sum_ij (x^k)_ij L_ij phi| at x.

    The underlying vector field sum_ij (x^k)_ij [E_ij, .] is [x^k, x] = 0,
    so the residual is pure finite-difference error for every C^1 field.
    """
    return _contraction_residual(lie_derivatives(phi, x, cfg), x, k)


@dataclass(frozen=True)
class ReducedSystemResult:
    residuals: tuple      # r_k = sum_j (x^k)_nj L_nj phi, k = 0..n-1
    solution: tuple       # s_j = L_nj phi, j = 1..n
    lemma_pass: bool
    abs_D: float


def _float_krylov_rows(x: FloatMatrix, abs_d: float, cfg: FDConfig) -> list:
    """Rows e_n x^k, k < n, of float powers of x, if its |D| passes delta."""
    if abs_d < cfg.delta:
        raise PreconditionViolated(f"|D(x)| = {abs_d:.3g} < delta = {cfg.delta}")
    powers = [np.eye(x.n)]
    for _ in range(x.n - 1):
        powers.append(powers[-1] @ x.entries)
    return [p[-1] for p in powers]


def _reduced_system(table, rows, abs_d: float, cfg: FDConfig) -> ReducedSystemResult:
    """The reduced system read off a lie_derivatives table."""
    solution = tuple(table[-1].tolist())
    residuals = tuple(float(sum(c * s for c, s in zip(row, solution))) for row in rows)
    ok = _abs_max(residuals) <= cfg.tau_sys and _abs_max(solution) <= cfg.tau_lemma
    return ReducedSystemResult(residuals, solution, ok, abs_d)


def reduced_system_check(
    phi: ScalarField, x: RatMatrix, cfg: FDConfig = FDConfig()
) -> ReducedSystemResult:
    """Evaluate the n-unknown linear system in the last-row derivatives at
    a rational point x.

    Precondition (checked here): |D(x)| >= delta, decided from the exact
    determinant (the lemma suite decides it once per point from the D it
    holds).  Precondition (caller-checked): phi should have
    p_invariance_residual <= tau_res, otherwise lemma_pass is vacuous.
    lemma_pass certifies both max_k |r_k| <= tau_sys and max_j |s_j| <=
    tau_lemma, NaN failing, the executable form of "all last-row Lie
    derivatives vanish wherever D != 0".  The residuals r_k are formed
    from float powers of x, independently of the exact Krylov rows.
    """
    abs_d = abs(float(krylov_determinant(x)))
    fx = FloatMatrix.from_rat(x)
    rows = _float_krylov_rows(fx, abs_d, cfg)
    return _reduced_system(lie_derivatives(phi, fx, cfg), rows, abs_d, cfg)


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


@dataclass(frozen=True)
class WeakDerivativeResult:
    estimate: float
    std_error: float
    n_samples: int
    seed: int


# rng stream for the boundary-shell check; sampling chunks start at 1
_BOUNDARY_STREAM = 0


def check_boundary_decay(psi: ScalarField, n: int, quad: QuadratureSpec) -> float:
    """Verify psi is negligible on the outer shell of the box.

    Samples the shell (one coordinate forced within SHELL_FRACTION of the
    wall) against interior samples; raises BoundaryLeak when the shell
    maximum exceeds LEAK_RATIO times the interior maximum.  Returns the
    measured ratio.
    """
    a = quad.half_width
    rng = np.random.default_rng([quad.seed, _BOUNDARY_STREAM])
    m = 512
    interior = rng.uniform(-a, a, size=(n, n, m))
    interior_max = float(np.max(np.abs(_evaluate(psi, interior))))
    shell = rng.uniform(-a, a, size=(n, n, m))
    coords = rng.integers(0, n * n, size=m)
    signs = rng.choice([-1.0, 1.0], size=m)
    radii = rng.uniform(a * (1.0 - SHELL_FRACTION), a, size=m)
    shell[coords // n, coords % n, np.arange(m)] = signs * radii
    shell_max = float(np.max(np.abs(_evaluate(psi, shell))))
    scale = max(interior_max, 1e-12)
    ratio = shell_max / scale
    if ratio > LEAK_RATIO:
        raise BoundaryLeak(
            f"shell max {shell_max:.3g} vs interior max {interior_max:.3g}"
        )
    return ratio


def weak_lie_derivative(
    densities: Sequence[ScalarField],
    psi: ScalarField,
    pairs: Sequence[tuple],
    quad: QuadratureSpec = QuadratureSpec(),
    cfg: FDConfig = FDConfig(),
    n: int = 2,
) -> list:
    """Monte-Carlo estimates of the weak derivative pairings
    -integral of u * (L_ij psi) over the box, with their standard errors:
    ``results[d][p]`` for u = densities[d] and (i, j) = pairs[p].

    Realizes each density u as a distribution T(psi) = integral(u psi); the
    adjoint fields are divergence free (the weak suite decides it exactly),
    so the weak derivative (L_ij T)(psi) reduces to the single integral
    above when psi vanishes near the boundary (checked by shell sampling).

    Sampling is chunked; chunk c draws from default_rng([seed, c]) once for
    every (u, i, j), so a sharded parallel run recombines to the identical
    result.
    """
    check_boundary_decay(psi, n, quad)
    a, h, samples, seed = quad.half_width, cfg.h, quad.n_samples, quad.seed
    sums = np.zeros((len(densities), len(pairs), 2))
    for chunk_idx, start in enumerate(range(0, samples, QUAD_CHUNK), start=1):
        count = min(QUAD_CHUNK, samples - start)
        rng = np.random.default_rng([seed, chunk_idx])
        block = rng.uniform(-a, a, size=(n, n, count))
        lie_psi = []
        for i, j in pairs:
            v = _adjoint_direction(block, i, j)
            lie_psi.append(_central_difference(psi, block + h * v, block - h * v, h))
        for d, u in enumerate(densities):
            u_vals = _evaluate(u, block)
            for p, lie in enumerate(lie_psi):
                vals = np.asarray(u_vals * lie, dtype=np.float64)
                sums[d, p] += np.sum(vals), np.sum(vals * vals)
    mean = sums[..., 0] / samples
    var = np.maximum(sums[..., 1] / samples - mean * mean, 0.0)
    volume = (2.0 * a) ** (n * n)
    std_error = volume * np.sqrt(var / samples)
    return [
        [WeakDerivativeResult(float(e), float(s), samples, seed) for e, s in zip(es, ss)]
        for es, ss in zip(-volume * mean, std_error)
    ]


def weak_lie_derivative_grid(
    u: ScalarField,
    psi: ScalarField,
    i: int,
    j: int,
    half_width: float = 2.0,
    points_per_axis: int = 20,
    cfg: FDConfig = FDConfig(),
) -> float:
    """Deterministic midpoint-rule cross-check of the weak derivative,
    n = 2 only (a tensor grid in 4 entry coordinates)."""
    n = 2
    a = half_width
    step = 2.0 * a / points_per_axis
    axis = -a + step * (np.arange(points_per_axis) + 0.5)
    grids = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    block = np.stack(
        [g.ravel() for g in grids], axis=0
    ).reshape(n, n, points_per_axis**4)
    v = _adjoint_direction(block, i, j)
    lie_psi = _central_difference(psi, block + cfg.h * v, block - cfg.h * v, cfg.h)
    u_vals = _evaluate(u, block)
    return float(-(step**4) * np.sum(np.asarray(u_vals * lie_psi)))
