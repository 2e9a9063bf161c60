import math
import random
from fractions import Fraction

import numpy as np
import pytest

from affinv import calculus
from affinv.calculus import (
    LEAK_RATIO,
    QUAD_CHUNK,
    BoundaryLeak,
    CalculusError,
    FDConfig,
    FloatMatrix,
    PreconditionViolated,
    QuadratureSpec,
    adjoint_field_divergence,
    check_boundary_decay,
    eval_field,
    fd_directional,
    full_identity_residual,
    lie_derivative,
    lie_derivatives,
    p_invariance_residual,
    reduced_system_check,
    weak_lie_derivative,
    weak_lie_derivative_grid,
)
from affinv.exactmat import RatMatrix, commutator, power
from affinv.fields import (
    Add,
    Const,
    Mul,
    Pk,
    Pow,
    Var,
    bump_field,
    random_invariant_field,
    random_polynomial_field,
)
from affinv.invariants import basis_matrix, trace_form
from affinv.krylov import CompanionSpec, companion, krylov_matrix
from affinv.report import _lemma_point, _rand_matrix, invariant_density

CFG = FDConfig()


class TestEvalField:
    def test_trace_power_on_identity(self):
        assert eval_field(Pk(1), FloatMatrix(np.eye(2))) == pytest.approx(2.0)

    def test_entry_variable(self):
        x = FloatMatrix([[1, 2], [3, 4]])
        assert eval_field(Var(2, 1), x) == pytest.approx(3.0)

    def test_p2_value(self):
        x = FloatMatrix([[1, 2], [3, 4]])
        assert eval_field(Pk(2), x) == pytest.approx(14.5)


class TestFdDirectional:
    def test_linear_field_machine_accuracy(self):
        rng = random.Random(179)
        x = FloatMatrix([[0.3, -1.2], [2.0, 0.7]])
        v = FloatMatrix([[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)])
        got = fd_directional(Var(1, 1), x, v, CFG)
        assert got == pytest.approx(v.entries[0, 0], abs=1e-9)

    def test_constant_field(self):
        x = FloatMatrix(np.zeros((2, 2)))
        v = FloatMatrix(np.eye(2))
        assert fd_directional(Const(5), x, v, CFG) == 0.0

    def test_p2_gradient_pairing(self):
        rng = random.Random(181)
        for _ in range(5):
            x = _lemma_point(rng, 3)
            v = _rand_matrix(rng, 3, -2, 2)
            expected = float(trace_form(x, v))
            got = fd_directional(Pk(2), FloatMatrix.from_rat(x), FloatMatrix.from_rat(v), CFG)
            assert got == pytest.approx(expected, abs=1e-8)

    def test_consistency_order(self):
        # aggregate error at h must be ~4x the error at h/2 (truncation regime)
        rng = random.Random(191)
        for k in (3, 4):
            num = den = 0.0
            count = 0
            while count < 15:
                n = rng.choice([2, 3])
                x = _rand_matrix(rng, n, -2, 2)
                v = _rand_matrix(rng, n, -2, 2)
                exact = float(trace_form(power(x, k - 1), v))
                if abs(exact) < 0.5:
                    continue
                fx, fv = FloatMatrix.from_rat(x), FloatMatrix.from_rat(v)
                num += abs(fd_directional(Pk(k), fx, fv, FDConfig(h=1e-3)) - exact)
                den += abs(fd_directional(Pk(k), fx, fv, FDConfig(h=5e-4)) - exact)
                count += 1
            assert 3.5 <= num / den <= 4.5


class TestLieDerivative:
    def test_hand_bracket_values(self):
        x = FloatMatrix.from_rat(basis_matrix(2, 1, 2))
        assert lie_derivative(Var(1, 1), 1, 1, x, CFG) == pytest.approx(0.0, abs=1e-12)
        assert lie_derivative(Var(1, 1), 2, 1, x, CFG) == pytest.approx(-1.0, abs=1e-9)

    def test_invariant_fields_annihilated(self):
        rng = random.Random(193)
        for n in (2, 3):
            f = random_invariant_field(n, rng)
            x = FloatMatrix.from_rat(_lemma_point(rng, n))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert abs(lie_derivative(f, i, j, x, CFG)) <= CFG.tau_res

    def test_zero_point(self):
        x = FloatMatrix(np.zeros((2, 2)))
        assert lie_derivative(Var(1, 2), 1, 2, x, CFG) == 0.0


class TestLieDerivatives:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_matches_fd_directional_bit_for_bit(self, n):
        rng = random.Random(223 + n)
        fields = [
            random_invariant_field(n, rng),
            random_polynomial_field(n, rng),
            bump_field(n, 2, prefactor=Pk(1)),
            Const(3),
        ]
        for _ in range(3):
            x = _lemma_point(rng, n)
            fx = FloatMatrix.from_rat(x)
            for phi in fields:
                table = lie_derivatives(phi, fx, CFG)
                assert table.shape == (n, n)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        v = FloatMatrix.from_rat(commutator(basis_matrix(n, i, j), x))
                        ref = fd_directional(phi, fx, v, CFG)
                        assert table[i - 1, j - 1].hex() == ref.hex()

    def test_constant_field_reads_zero_everywhere(self):
        # a constant tree evaluates to one float, which the table broadcasts
        x = FloatMatrix([[1, 2], [3, 4]])
        assert lie_derivatives(Const(3), x, CFG).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert p_invariance_residual(Const(3), x, CFG) == 0.0
        assert full_identity_residual(Const(3), x, 1, CFG) == 0.0

    def test_shift_out_of_float_range_rejected(self):
        with pytest.raises(CalculusError):
            lie_derivatives(Pk(2), FloatMatrix([[1, 2], [3, 4]]), FDConfig(h=1.7e308))


class TestPInvarianceResidual:
    def test_invariant_fields_below_tolerance(self):
        rng = random.Random(197)
        for n in (2, 3):
            for _ in range(10):
                f = random_invariant_field(n, rng)
                x = FloatMatrix.from_rat(_lemma_point(rng, n))
                assert p_invariance_residual(f, x, CFG) <= CFG.tau_res

    def test_coordinate_field_detected(self):
        x = FloatMatrix([[1, 2], [3, 4]])
        assert p_invariance_residual(Var(2, 2), x, CFG) > CFG.tau_res

    def test_n1_empty_range(self):
        assert p_invariance_residual(Pk(1), FloatMatrix([[3.0]]), CFG) == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_derivative_is_the_residual(self):
        # at diag(1, 2) the direction [E_11, x] is 0, so L_11 = 0 comes first;
        # along [E_12, x] the step overflows (x_12 +- h)^2 to inf - inf = NaN
        x = FloatMatrix([[1.0, 0.0], [0.0, 2.0]])
        res = p_invariance_residual(Pow(Var(1, 2), 2), x, FDConfig(h=1e300))
        assert math.isnan(res)


class TestFullIdentityResidual:
    def test_all_fields_all_k(self):
        rng = random.Random(199)
        for n in (2, 3):
            for _ in range(10):
                f = random_polynomial_field(n, rng)
                x = FloatMatrix.from_rat(_lemma_point(rng, n))
                for k in range(n):
                    assert full_identity_residual(f, x, k, CFG) <= CFG.tau_comb

    def test_hand_case(self):
        x = FloatMatrix([[1, 2], [3, 4]])
        assert full_identity_residual(Var(1, 2), x, 1, CFG) <= CFG.tau_comb

    def test_k_out_of_range(self):
        with pytest.raises(CalculusError):
            full_identity_residual(Pk(1), FloatMatrix(np.eye(2)), 2, CFG)


class TestReducedSystem:
    def test_invariant_field_on_companion(self):
        phi = Add([Pk(2), Pow(Pk(1), 2)])
        x = companion(CompanionSpec([1, 1]))
        res = reduced_system_check(phi, x, CFG)
        assert res.lemma_pass
        assert res.abs_D == pytest.approx(1.0)

    def test_precondition_violated_on_identity(self):
        with pytest.raises(PreconditionViolated):
            reduced_system_check(Pk(1), RatMatrix.identity(2), CFG)

    def test_coordinate_field_is_vacuous(self):
        # the P-invariance precondition fails, so no lemma conclusion applies
        phi = Var(2, 1)
        x = RatMatrix([[1, 2], [3, 4]])
        assert p_invariance_residual(phi, FloatMatrix.from_rat(x), CFG) > CFG.tau_res

    def test_r_equals_krylov_times_s(self):
        rng = random.Random(211)
        for n in (2, 3):
            for _ in range(5):
                f = random_invariant_field(n, rng)
                x = _lemma_point(rng, n)
                res = reduced_system_check(f, x, CFG)
                km = krylov_matrix(x)
                for k in range(n):
                    tied = sum(
                        float(km.rows.entry(k + 1, j + 1)) * res.solution[j]
                        for j in range(n)
                    )
                    assert res.residuals[k] == pytest.approx(tied, abs=1e-12)


class TestConfigValidation:
    def test_bad_step(self):
        with pytest.raises(CalculusError):
            FDConfig(h=0.0)

    def test_bad_scheme(self):
        with pytest.raises(CalculusError):
            FDConfig(scheme="forward")

    def test_bad_box(self):
        with pytest.raises(CalculusError):
            QuadratureSpec(half_width=-1.0)

    def test_nonfinite_matrix_rejected(self):
        with pytest.raises(CalculusError):
            FloatMatrix([[1.0, float("nan")], [0.0, 1.0]])


class TestWeakDerivative:
    QUAD = QuadratureSpec(half_width=2.0, n_samples=50_000, seed=7)
    PAIRS = [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_divergence_free(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert adjoint_field_divergence(n, i, j) == 0

    def test_boundary_leak_detected(self):
        with pytest.raises(BoundaryLeak):
            check_boundary_decay(Pk(1), 2, self.QUAD)

    def test_bump_passes_boundary_check(self):
        psi = bump_field(2, 2, prefactor=Pk(1))
        assert check_boundary_decay(psi, 2, self.QUAD) <= LEAK_RATIO

    def test_lebesgue_density_annihilated(self):
        psi = bump_field(2, 2, prefactor=Pk(1))
        [results] = weak_lie_derivative([Const(1)], psi, self.PAIRS, self.QUAD)
        for r in results:
            assert abs(r.estimate) <= max(4 * r.std_error, 1e-2)

    def test_invariant_density_annihilated(self):
        u = Add([Const(1), Mul([Const(Fraction(1, 2)), Pk(2)])])
        psi = bump_field(2, 2, prefactor=Var(1, 2))
        [results] = weak_lie_derivative([u], psi, [(1, 1), (2, 1)], self.QUAD)
        for r in results:
            assert abs(r.estimate) <= max(4 * r.std_error, 1e-2)

    def test_noninvariant_witness_detected(self):
        psi = bump_field(2, 2, prefactor=Var(1, 2))
        [[r]] = weak_lie_derivative([Var(1, 1)], psi, [(2, 1)], self.QUAD)
        assert abs(r.estimate) > 20 * r.std_error

    def test_deterministic_given_seed(self):
        psi = bump_field(2, 2, prefactor=Pk(1))
        quad = QuadratureSpec(half_width=2.0, n_samples=30_000, seed=3)
        r1 = weak_lie_derivative([Var(1, 1)], psi, [(1, 2)], quad)
        r2 = weak_lie_derivative([Var(1, 1)], psi, [(1, 2)], quad)
        assert r1 == r2

    def test_one_pass_equals_single_calls(self, monkeypatch):
        # two chunks, the second one short; every (density, pair) estimate
        # of the shared pass must equal its own single-density, single-pair
        # pass exactly, and the boundary check runs once per call
        quad = QuadratureSpec(half_width=2.0, n_samples=QUAD_CHUNK + 1_000, seed=11)
        psi = bump_field(2, 2, prefactor=Var(1, 2))
        densities = [invariant_density(2), Var(1, 1), Const(1)]
        checks = []
        real_check = calculus.check_boundary_decay
        monkeypatch.setattr(
            calculus,
            "check_boundary_decay",
            lambda *args: checks.append(args) or real_check(*args),
        )
        together = weak_lie_derivative(densities, psi, self.PAIRS, quad)
        assert len(checks) == 1
        assert [len(row) for row in together] == [4, 4, 4]
        for u, row in zip(densities, together):
            for pair, r in zip(self.PAIRS, row):
                assert [[r]] == weak_lie_derivative([u], psi, [pair], quad)

    def test_grid_cross_validation(self):
        psi = bump_field(2, 2, prefactor=Var(1, 2))
        [[mc]] = weak_lie_derivative([Var(1, 1)], psi, [(2, 1)], self.QUAD)
        grid = weak_lie_derivative_grid(Var(1, 1), psi, 2, 1)
        tol = 0.03 * max(1.0, abs(mc.estimate)) + 5 * mc.std_error
        assert math.isclose(grid, mc.estimate, abs_tol=tol)
