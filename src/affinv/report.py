"""Verification suites and machine-readable reports.

Each suite draws seeded samples, checks a fixed list of properties, and
returns its report as a JSON-ready dict: ``"pass"`` is true exactly when
every property record has zero failures, and every failure carries a
replayable witness (the offending input in wire format).  A report is a
function of (config, seed) alone: it reads no clock, so equal inputs give
byte-identical output.
Only the lemma and weak suites import numpy, so ``verify`` of an identity
config runs without it.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Union

from . import __version__
from .calculus import (
    LEAK_RATIO,
    QUAD_CHUNK,
    SHELL_FRACTION,
    CalculusError,
    FDConfig,
    FloatMatrix,
    QuadratureSpec,
    abs_max,
    adjoint_field_divergence,
    dot,
    full_identity_residual,
    lie_derivatives,
    p_invariance_residual,
    reduced_system_check,
    weak_lie_derivative,
)
from .exactmat import (
    RatMatrix,
    SingularMatrixError,
    _krylov_rows,
    format_rational,
    matrix_to_json,
)
from .fields import (
    Add,
    Const,
    Mul,
    Pk,
    Pow,
    Var,
    bump_field,
    field_to_json,
    random_invariant_field,
    random_polynomial_field,
)
from .invariants import basis_expansion_residual
from .krylov import (
    PGroupElement,
    companion,
    companion_sign,
    homogeneity_check,
    is_regular,
    krylov_determinant,
    krylov_rows,
    pairing_determinant,
    transformation_law,
)

LEMMA_FIELDS = 20  # random invariant fields per lemma suite
WEAK_ZERO_TOL_FLOOR = 1e-2  # smallest tolerance of a weak zero check
WITNESS_SIGMA = 5.0  # standard errors the non-invariant density must reach


class SuiteConfigError(ValueError):
    pass


@dataclass
class PropertyRecord:
    name: str
    checked: int = 0
    failures: int = 0
    worst_residual: Union[float, str] = "exact"
    witness: Optional[dict] = None

    def check_exact(self, ok: bool, witness: dict):
        self.checked += 1
        if not ok:
            self.failures += 1
            if self.witness is None:
                self.witness = witness

    def check_residual(self, residual: float, tol: float, witness: dict):
        self.checked += 1
        worst = self.worst_residual
        # a NaN residual stays the worst: nothing compares greater than it
        if worst == "exact" or residual > worst or math.isnan(residual):
            self.worst_residual = float(residual)
        if not residual <= tol:  # NaN fails too
            self.failures += 1
            if self.witness is None:
                self.witness = witness


def _finish(suite, n, samples, seed, records, config) -> dict:
    return {
        "suite": suite,
        "n": n,
        "samples": samples,
        "seed": seed,
        "pass": all(r.failures == 0 for r in records),
        "properties": [asdict(r) for r in records],
        "config": config,
        "version": __version__,
    }


def _mix(*parts: int) -> int:
    acc = 0x9E3779B9
    for p in parts:
        acc = (acc * 1_000_003 + p) % (1 << 62)
    return acc


def _rand_matrix(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> RatMatrix:
    return RatMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def _rand_p_element(rng: random.Random, n: int):
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
        rows.append([0] * (n - 1) + [1])
        try:
            return PGroupElement(matrix=RatMatrix(rows))
        except SingularMatrixError:  # draw again
            pass


def run_identity_suite(n: int, samples: int, seed: int) -> dict:
    """Exact-layer properties: basis expansion, dual determinant
    constructions, homogeneity, the mirabolic transformation law, the
    regularity inclusion, and the companion sign.  Each sample computes each
    exact value once: the powers x^0..x^(n-1) from one chain, D(x) once for
    every check that uses it, det(y) once at validation."""
    rng = random.Random(_mix(seed, n, 1))
    rec_basis = PropertyRecord("basis_expansion_zero")
    rec_dets = PropertyRecord("krylov_vs_pairing_determinant")
    rec_hom = PropertyRecord("homogeneity_degree")
    rec_law = PropertyRecord("mirabolic_transformation_law")
    rec_omega = PropertyRecord("omega_subset_regular")
    rec_sign = PropertyRecord("companion_sign")
    for _ in range(samples):
        x = _rand_matrix(rng, n)
        wit = {"matrix": matrix_to_json(x)}
        powers = _krylov_rows(RatMatrix.identity(n).rows, x.rows)
        for k, xk in zip(range(n), powers):
            residual = basis_expansion_residual(x, xk)
            rec_basis.check_exact(residual.is_zero(), {**wit, "k": k})
        d = krylov_determinant(x)
        rec_dets.check_exact(d == pairing_determinant(x), wit)
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        lhs, rhs = homogeneity_check(x, t, d)
        rec_hom.check_exact(lhs == rhs, {**wit, "t": format_rational(t)})
        if n >= 2:
            y = _rand_p_element(rng, n)
            a, b = transformation_law(x, y, d)
            rec_law.check_exact(a == b, {**wit, "y": matrix_to_json(y.matrix)})
        if d != 0:
            rec_omega.check_exact(is_regular(x), wit)
        alpha = [rng.randint(-9, 9) for _ in range(n)]
        c = companion(alpha)
        rec_sign.check_exact(
            krylov_determinant(c) == companion_sign(n),
            {"alpha": [format_rational(a) for a in alpha]},
        )
    records = [rec_basis, rec_dets, rec_hom, rec_law, rec_omega, rec_sign]
    return _finish(
        "identity", n, samples, seed, records, {"n": n, "samples": samples, "seed": seed}
    )


def _lemma_point(rng: random.Random, n: int) -> tuple:
    """Integer x in [-2, 2]^(n x n) with D(x) != 0, its Krylov rows and D(x);
    exact D keeps x at least 1 away from the hypersurface, beyond the cutoff."""
    while True:
        x = _rand_matrix(rng, n, -2, 2)
        d = krylov_determinant(x)
        if d != 0:
            return x, krylov_rows((0,) * (n - 1) + (1,), x), d


def run_lemma_suite(n: int, samples: int, seed: int, cfg: FDConfig = FDConfig()) -> dict:
    """Finite-difference harness for the reduced linear system.

    Invariant fields (polynomials in the trace powers) must be locally
    invariant under the last-row-fixing subgroup within tau_res, and their
    last-row Lie derivatives must vanish within tau_lemma wherever the
    Krylov determinant clears the delta cutoff.  Arbitrary fields check the
    full contraction identity at tau_comb, and the residual vector is tied
    to the exact Krylov matrix.
    """
    if n < 2:
        raise SuiteConfigError("lemma suite needs n >= 2")
    if cfg.delta > 1:  # integer points with D != 0 only guarantee |D| >= 1
        raise SuiteConfigError("lemma suite needs fd.delta <= 1")
    rng = random.Random(_mix(seed, n, 2))
    fields = [random_invariant_field(n, rng) for _ in range(LEMMA_FIELDS)]
    fields_json = [field_to_json(f) for f in fields]
    points = [_lemma_point(rng, n) for _ in range(samples)]
    rec_pres = PropertyRecord("p_invariance_of_invariant_fields")
    rec_lemma = PropertyRecord("last_row_derivatives_vanish")
    rec_sys = PropertyRecord("reduced_system_residuals")
    rec_tie = PropertyRecord("float_residuals_tie_to_exact_krylov")
    rec_full = PropertyRecord("full_identity_arbitrary_fields")
    for x, krylov, d in points:
        fx = FloatMatrix(x.rows)
        exact_rows = [[float(e) for e in row] for row in krylov.rows]
        abs_d = abs(float(d))
        wit_x = {"matrix": matrix_to_json(x)}
        f_any = random_polynomial_field(n, rng)
        *tables, table_any = lie_derivatives(fields + [f_any], fx, cfg)
        for f_json, table in zip(fields_json, tables):
            wit = {**wit_x, "field": f_json}
            rec_pres.check_residual(p_invariance_residual(table), cfg.tau_res, wit)
            residuals = reduced_system_check(table, fx, abs_d, cfg)
            rec_lemma.check_residual(abs_max(table[-1]), cfg.tau_lemma, wit)
            rec_sys.check_residual(abs_max(residuals), cfg.tau_sys, wit)
            tie = [r - dot(row, table[-1]) for r, row in zip(residuals, exact_rows)]
            rec_tie.check_residual(abs_max(tie), 1e-10, wit)
        wit_any = {**wit_x, "field": field_to_json(f_any)}
        for k in range(n):
            rec_full.check_residual(
                full_identity_residual(table_any, fx, k), cfg.tau_comb, {**wit_any, "k": k}
            )
    records = [rec_pres, rec_lemma, rec_sys, rec_tie, rec_full]
    config = {
        "n": n,
        "samples": samples,
        "seed": seed,
        "n_fields": LEMMA_FIELDS,
        "fd": asdict(cfg),
    }
    return _finish("lemma", n, samples, seed, records, config)


def weak_test_functions(n: int, half_width) -> list:
    """The five bump test functions used by the weak suite: the prefactors
    1, p1, p2, x12 and x11 + x21 on one bump W.

    W is even in every entry, so a pairing vanishes whenever its integrand
    is odd in some entry, and the mixed parity of the prefactors does not
    stop a non-invariant density from hiding by symmetry.  At degree 2 some
    do: with 1 + x11^2 or 1 + x11 x22 in place of the invariant density the
    weak suite still passes, while 1 + x12 fails it (ROADMAP item 5)."""
    prefactors = [
        Const(1),
        Pk(1),
        Pk(2),
        Var(1, 2),
        Add([Var(1, 1), Var(2, 1)]),
    ]
    return [bump_field(n, half_width, prefactor=p) for p in prefactors]


def invariant_density(n: int = 2):
    """1 + p1^2/4 + p2/2, a conjugation-invariant polynomial density."""
    return Add(
        [
            Const(1),
            Mul([Const(Fraction(1, 4)), Pow(Pk(1), 2)]),
            Mul([Const(Fraction(1, 2)), Pk(2)]),
        ]
    )


def run_weak_suite(
    samples: int,
    seed: int,
    half_width: float = 2.0,
    cfg: FDConfig = FDConfig(),
) -> dict:
    """Quadrature analogue of local invariance in the weak sense, n = 2.

    An invariant density must annihilate every adjoint direction against
    every bump test function within max(3 * std_error, WEAK_ZERO_TOL_FLOOR);
    the coordinate density x11 must light up at least one direction at
    WITNESS_SIGMA standard errors.
    """
    import numpy as np

    n = 2
    quad = QuadratureSpec(half_width=half_width, n_samples=samples, seed=seed)
    psis = weak_test_functions(n, half_width)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    rec_div = PropertyRecord("adjoint_fields_divergence_free")
    rec_inv = PropertyRecord("invariant_density_weak_zero")
    rec_leb = PropertyRecord("lebesgue_weak_zero")
    rec_wit = PropertyRecord("noninvariant_density_detected")
    for i, j in pairs:
        rec_div.check_exact(
            adjoint_field_divergence(n, i, j) == 0, {"i": i, "j": j}
        )
    u_wit = Var(1, 1)
    densities = [invariant_density(n), u_wit, Const(1)]
    # [m, d, p] for psis[m], densities[d] and pairs[p]; the Lebesgue density
    # Const(1) is paired with psis[0] only
    every_psi = range(len(psis))
    estimate, error = weak_lie_derivative(
        densities, psis, pairs, quad, cfg, n=n, paired=[every_psi, every_psi, [0]]
    )
    ratio = (np.abs(estimate) / np.maximum(3.0 * error, WEAK_ZERO_TOL_FLOOR)).tolist()
    for m, by_density in enumerate(ratio):
        for (i, j), r in zip(pairs, by_density[0]):
            rec_inv.check_residual(r, 1.0, {"psi": m, "i": i, "j": j})
    for (i, j), r in zip(pairs, ratio[0][2]):
        rec_leb.check_residual(r, 1.0, {"i": i, "j": j})
    wit = error[:, 1] > 0
    best_ratio = max([0.0] + (np.abs(estimate[:, 1][wit]) / error[:, 1][wit]).tolist())
    rec_wit.checked = 1
    rec_wit.worst_residual = best_ratio
    if best_ratio < WITNESS_SIGMA:
        rec_wit.failures = 1
        rec_wit.witness = {"density": field_to_json(u_wit)}
    records = [rec_div, rec_inv, rec_leb, rec_wit]
    config = {
        "n": n,
        "samples": samples,
        "seed": seed,
        "quadrature": {
            "half_width": half_width,
            "chunk": QUAD_CHUNK,
            "shell_fraction": SHELL_FRACTION,
            "leak_ratio": LEAK_RATIO,
        },
        "fd": {"h": cfg.h},
        "zero_tol_floor": WEAK_ZERO_TOL_FLOOR,
        "witness_sigma": WITNESS_SIGMA,
    }
    return _finish("weak", n, samples, seed, records, config)


_SUITE_KEYS = {
    # suite: (its integer keys with their defaults and inclusive ranges, its
    # sections with their keys)
    "identity": (
        {"n": (3, 1, 12), "samples": (200, 1, 10**4), "seed": (0, -math.inf, math.inf)},
        {},
    ),
    "lemma": (
        {"n": (2, 2, 5), "samples": (50, 1, 10**3), "seed": (0, -math.inf, math.inf)},
        {"fd": set(asdict(FDConfig()))},
    ),
    "weak": (
        {"n": (2, 2, 2), "samples": (10**6, 1, 10**7), "seed": (0, 0, math.inf)},
        {"fd": {"h"}, "quadrature": {"half_width"}},
    ),
}


def _read_config(config: dict, suite: str) -> tuple:
    """n, samples and seed of a config that holds only keys in the suite's table,
    each in its range, with a JSON number for every section value but
    ``fd.scheme``."""
    ints, sections = _SUITE_KEYS[suite]
    for key, value in config.items():
        if key in ints:
            if type(value) is not int:  # a bool is not a JSON integer
                raise SuiteConfigError(f"{key} must be a JSON integer, got {value!r}")
            _, low, high = ints[key]
            if not low <= value <= high:
                raise SuiteConfigError(
                    f"{key} must be in [{low}, {high}] for the {suite} suite, got {value}"
                )
        elif key in sections:
            if not isinstance(value, dict):
                raise SuiteConfigError(f"{key} config must be a JSON object")
            unknown = sorted(set(value) - sections[key])
            if unknown:
                raise SuiteConfigError(
                    f"unknown {key} key {unknown[0]!r} for the {suite} suite"
                )
            for name, number in value.items():
                # a bool or a string is not a JSON number
                if name != "scheme" and type(number) not in (int, float):
                    raise SuiteConfigError(
                        f"{key} {name} must be a JSON number, got {number!r}"
                    )
        elif key != "suite":
            raise SuiteConfigError(f"unknown key {key!r} for the {suite} suite")
    return tuple(config.get(key, spec[0]) for key, spec in ints.items())


def run_suite_from_config(config: dict) -> dict:
    """Dispatch {"suite": ..., "n": ..., "samples": ..., "seed": ...,
    "fd": {...}, "quadrature": {...}} to the named suite; a key the suite
    does not read is an error."""
    if not isinstance(config, dict):
        raise SuiteConfigError("config must be a JSON object")
    suite = config.get("suite")
    if not isinstance(suite, str) or suite not in _SUITE_KEYS:
        raise SuiteConfigError(
            f"unknown suite {suite!r}; expected one of {', '.join(_SUITE_KEYS)}"
        )
    n, samples, seed = _read_config(config, suite)
    try:
        fd_cfg = FDConfig(**config.get("fd", {}))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SuiteConfigError(f"bad fd config: {exc}") from exc
    if suite == "identity":
        return run_identity_suite(n, samples, seed)
    import numpy as np

    # an overflow fails its check with a NaN and a witness
    with np.errstate(all="ignore"):
        if suite == "lemma":
            try:
                return run_lemma_suite(n, samples, seed, fd_cfg)
            except CalculusError as exc:  # a step that throws x +- hv out of range
                raise SuiteConfigError(f"bad fd config: {exc}") from exc
        try:
            half_width = float(config.get("quadrature", {}).get("half_width", 2.0))
        except OverflowError as exc:  # an integer beyond the float range
            raise SuiteConfigError(f"bad quadrature half_width: {exc}") from exc
        try:
            return run_weak_suite(samples, seed, half_width=half_width, cfg=fd_cfg)
        except CalculusError as exc:  # a box or a step x +- hv out of the float range
            raise SuiteConfigError(str(exc)) from exc
