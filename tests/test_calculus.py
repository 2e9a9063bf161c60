import builtins
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
    abs_max,
    adjoint_field_divergence,
    check_boundary_decay,
    full_identity_residual,
    lie_derivative,
    lie_derivatives,
    p_invariance_residual,
    reduced_system_check,
    weak_lie_derivative,
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
    evaluate_on_entries,
    random_invariant_field,
    random_polynomial_field,
)
from affinv.invariants import basis_matrix, trace_form
from affinv.krylov import companion, krylov_determinant, krylov_rows
from affinv.report import (
    SuiteConfigError,
    _lemma_point,
    _rand_matrix,
    invariant_density,
    run_suite_from_config,
)
from reference import fd_directional

CFG = FDConfig()


class TestEvalField:
    # a field at a float point: the evaluator over the point's entry lists
    def test_trace_power_on_identity(self):
        assert evaluate_on_entries([Pk(1)], np.eye(2).tolist())[0] == pytest.approx(2.0)

    def test_entry_variable(self):
        x = FloatMatrix([[1, 2], [3, 4]])
        assert evaluate_on_entries([Var(2, 1)], x.entries)[0] == pytest.approx(3.0)

    def test_p2_value(self):
        x = FloatMatrix([[1, 2], [3, 4]])
        assert evaluate_on_entries([Pk(2)], x.entries)[0] == pytest.approx(14.5)


class TestFdDirectional:
    def test_linear_field_machine_accuracy(self):
        rng = random.Random(179)
        x = FloatMatrix([[0.3, -1.2], [2.0, 0.7]])
        v = FloatMatrix([[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)])
        got = fd_directional(Var(1, 1), x, v, CFG)
        assert got == pytest.approx(v.entries[0][0], abs=1e-9)

    def test_constant_field(self):
        x = FloatMatrix(np.zeros((2, 2)))
        v = FloatMatrix(np.eye(2))
        assert fd_directional(Const(5), x, v, CFG) == 0.0

    def test_p2_gradient_pairing(self):
        rng = random.Random(181)
        for _ in range(5):
            x = _lemma_point(rng, 3)[0]
            v = _rand_matrix(rng, 3, -2, 2)
            expected = float(trace_form(x, v))
            got = fd_directional(Pk(2), FloatMatrix(x.rows), FloatMatrix(v.rows), CFG)
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
                fx, fv = FloatMatrix(x.rows), FloatMatrix(v.rows)
                num += abs(fd_directional(Pk(k), fx, fv, FDConfig(h=1e-3)) - exact)
                den += abs(fd_directional(Pk(k), fx, fv, FDConfig(h=5e-4)) - exact)
                count += 1
            assert 3.5 <= num / den <= 4.5


class TestLieDerivative:
    def test_hand_bracket_values(self):
        x = FloatMatrix(basis_matrix(2, 1, 2).rows)
        assert lie_derivative(Var(1, 1), 1, 1, x, CFG) == pytest.approx(0.0, abs=1e-12)
        assert lie_derivative(Var(1, 1), 2, 1, x, CFG) == pytest.approx(-1.0, abs=1e-9)

    def test_invariant_fields_annihilated(self):
        rng = random.Random(193)
        for n in (2, 3):
            f = random_invariant_field(n, rng)
            x = FloatMatrix(_lemma_point(rng, n)[0].rows)
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
            x = _lemma_point(rng, n)[0]
            fx = FloatMatrix(x.rows)
            tables = lie_derivatives(fields, fx, CFG)
            assert np.shape(tables) == (len(fields), n, n)
            for phi, table in zip(fields, tables):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        v = FloatMatrix(commutator(basis_matrix(n, i, j), x).rows)
                        ref = fd_directional(phi, fx, v, CFG)
                        assert table[i - 1][j - 1].hex() == ref.hex()

    @pytest.mark.parametrize(
        "rows, phi, i, j, v, want",
        [
            (
                [[-0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                Mul([Var(1, 1), Var(2, 1)]),
                2, 3,
                [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                0.0,
            ),
            (
                [[-0.0, 1.0], [0.0, -1.0]],
                Mul([Var(1, 1), Var(2, 2), Var(2, 1)]),
                1, 1,
                [[0.0, 1.0], [0.0, 0.0]],
                -0.0,
            ),
        ],
    )
    def test_negative_zero_entry_reads_as_fd_directional_does(self, rows, phi, i, j, v, want):
        # x + h * 0 turns x11 = -0.0 into +0.0 and x - h * 0 keeps it; the
        # first probe reads -0.0 when the + side keeps it too, the second
        # reads 0.0 when the - side turns it as well (v = [E_ij, x])
        x = FloatMatrix(rows)
        got = lie_derivatives([phi], x, CFG)[0][i - 1][j - 1]
        assert got.hex() == fd_directional(phi, x, FloatMatrix(v), CFG).hex() == want.hex()

    def test_shift_out_of_float_range_is_rejected_at_points(self):
        # x + h [E_11, x] has the entry 1e308 + 1e308 at h = 1
        x = FloatMatrix([[1e308, 1e308], [0.0, 1.0]])
        v = FloatMatrix([[0.0, 1e308], [0.0, 0.0]])
        cfg = FDConfig(h=1.0)
        calls = [
            lambda: lie_derivatives([Var(1, 1)], x, cfg),
            lambda: fd_directional(Var(1, 1), x, v, cfg),
        ]
        for call in calls:
            with pytest.raises(CalculusError) as err:
                call()
            assert str(err.value) == "x +- hv leaves the float range at h = 1"

    def test_constant_field_reads_zero_everywhere(self):
        # a constant tree evaluates to one float, which the table broadcasts
        x = FloatMatrix([[1, 2], [3, 4]])
        assert lie_derivatives([Const(3)], x, CFG)[0] == [[0.0, 0.0], [0.0, 0.0]]
        table = lie_derivatives([Const(3)], x, CFG)[0]
        assert p_invariance_residual(table) == 0.0
        assert full_identity_residual(table, x, 1) == 0.0

    def test_shift_out_of_float_range_rejected(self):
        with pytest.raises(CalculusError):
            lie_derivatives([Pk(2)], FloatMatrix([[1, 2], [3, 4]]), FDConfig(h=1.7e308))


class TestPInvarianceResidual:
    def test_invariant_fields_below_tolerance(self):
        rng = random.Random(197)
        for n in (2, 3):
            for _ in range(10):
                f = random_invariant_field(n, rng)
                x = FloatMatrix(_lemma_point(rng, n)[0].rows)
                assert p_invariance_residual(lie_derivatives([f], x, CFG)[0]) <= CFG.tau_res

    def test_coordinate_field_detected(self):
        x = FloatMatrix([[1, 2], [3, 4]])
        assert p_invariance_residual(lie_derivatives([Var(2, 2)], x, CFG)[0]) > CFG.tau_res

    def test_n1_empty_range(self):
        assert p_invariance_residual(lie_derivatives([Pk(1)], FloatMatrix([[3.0]]), CFG)[0]) == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_derivative_is_the_residual(self):
        # at diag(1, 2) the direction [E_11, x] is 0, so L_11 = 0 comes first;
        # along [E_12, x] the step overflows (x_12 +- h)^2 to inf - inf = NaN
        x = FloatMatrix([[1.0, 0.0], [0.0, 2.0]])
        (table,) = lie_derivatives([Pow(Var(1, 2), 2)], x, FDConfig(h=1e300))
        res = p_invariance_residual(table)
        assert math.isnan(res)


class TestFullIdentityResidual:
    def test_all_fields_all_k(self):
        rng = random.Random(199)
        for n in (2, 3):
            for _ in range(10):
                f = random_polynomial_field(n, rng)
                x = FloatMatrix(_lemma_point(rng, n)[0].rows)
                table = lie_derivatives([f], x, CFG)[0]
                for k in range(n):
                    assert full_identity_residual(table, x, k) <= CFG.tau_comb

    def test_hand_case(self):
        x = FloatMatrix([[1, 2], [3, 4]])
        table = lie_derivatives([Var(1, 2)], x, CFG)[0]
        assert full_identity_residual(table, x, 1) <= CFG.tau_comb

    def test_k_out_of_range(self):
        with pytest.raises(CalculusError):
            x = FloatMatrix(np.eye(2))
            full_identity_residual(lie_derivatives([Pk(1)], x, CFG)[0], x, 2)


def _reduced(phi, x: RatMatrix):
    """The solution s = table[-1] and the residuals of reduced_system_check
    at a rational x, with |D| from the exact determinant."""
    fx = FloatMatrix(x.rows)
    abs_d = abs(float(krylov_determinant(x)))
    table = lie_derivatives([phi], fx, CFG)[0]
    return table[-1], reduced_system_check(table, fx, abs_d, CFG)


class TestReducedSystem:
    def test_invariant_field_on_companion(self):
        phi = Add([Pk(2), Pow(Pk(1), 2)])
        x = companion([1, 1])
        assert abs(float(krylov_determinant(x))) == pytest.approx(1.0)
        solution, residuals = _reduced(phi, x)
        assert abs_max(solution) <= CFG.tau_lemma
        assert abs_max(residuals) <= CFG.tau_sys

    def test_precondition_violated_on_identity(self):
        with pytest.raises(PreconditionViolated):
            _reduced(Pk(1), RatMatrix.identity(2))

    def test_gate_reads_the_given_abs_d(self):
        x = FloatMatrix([[1, 2], [3, 4]])
        table = lie_derivatives([Pk(2)], x, CFG)[0]
        assert len(reduced_system_check(table, x, CFG.delta, CFG)) == 2
        with pytest.raises(PreconditionViolated):
            reduced_system_check(table, x, math.nextafter(CFG.delta, 0.0), CFG)

    def test_coordinate_field_is_vacuous(self):
        # the P-invariance precondition fails, so no lemma conclusion applies
        phi = Var(2, 1)
        x = RatMatrix([[1, 2], [3, 4]])
        table = lie_derivatives([phi], FloatMatrix(x.rows), CFG)[0]
        assert p_invariance_residual(table) > CFG.tau_res

    def test_r_equals_krylov_times_s(self):
        rng = random.Random(211)
        for n in (2, 3):
            for _ in range(5):
                f = random_invariant_field(n, rng)
                x = _lemma_point(rng, n)[0]
                solution, residuals = _reduced(f, x)
                rows = krylov_rows((0,) * (n - 1) + (1,), x)
                for k in range(n):
                    tied = sum(
                        float(rows.entry(k + 1, j + 1)) * solution[j]
                        for j in range(n)
                    )
                    assert residuals[k] == pytest.approx(tied, abs=1e-12)

    def test_dot_products_add_left_to_right(self):
        # 1e16 + 1 rounds to 1e16, so r_1 = 1e16 + 1 - 1e16 is 0.0 left to
        # right; a compensated sum (math.fsum, the builtin sum of floats from
        # Python 3.12 on) gives 1.0
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0
        x = FloatMatrix([[1, 0, 0], [0, 1, 0], [1e16, 1, -1e16]])
        table = [[0.0] * 3, [0.0] * 3, [1.0] * 3]
        assert reduced_system_check(table, x, 1.0, CFG)[1] == 0.0
        assert full_identity_residual(table, x, 1) == 0.0

    def test_float_powers_add_left_to_right(self, monkeypatch):
        # (x^2)_11 = 1 + 1e16 - 1e16 is 0.0 left to right and 1.0 compensated;
        # with the builtin sum made compensated, as it is for floats from
        # Python 3.12 on, the powers must still read 0.0
        monkeypatch.setattr(builtins, "sum", math.fsum)
        x = FloatMatrix([[1, 1e16, -1e16], [1, 0.5, 0.25], [1, 3, 1]])
        assert x.powers[2][0][0] == 0.0
        assert x.powers[1] == [list(row) for row in x.entries]
        assert x.powers[0] == np.eye(3).tolist()


class TestAbsMax:
    @pytest.mark.parametrize(
        "values", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]]
    )
    def test_nan_wins_wherever_it_stands(self, values):
        assert math.isnan(abs_max(values))

    def test_empty_input_is_zero(self):
        assert abs_max([]) == 0.0

    def test_negative_infinity_reads_infinity(self):
        assert abs_max([1.0, -math.inf, 2.0]) == math.inf

    def test_generator_input(self):
        assert abs_max(v - 3.5 for v in range(5)) == 3.5

    @pytest.mark.parametrize("values", [[], [-2], [np.float64(-1.5)], [1, -3.0], [math.nan]])
    def test_result_is_a_python_float(self, values):
        assert type(abs_max(values)) is float


class TestConfigValidation:
    def test_bad_step(self):
        with pytest.raises(CalculusError):
            FDConfig(h=0.0)

    def test_step_below_the_unit_spacing(self):
        for h in (1e-16, 1e-17, 1e-320, 5e-324):
            with pytest.raises(CalculusError, match="cannot move a unit entry"):
                FDConfig(h=h)
        assert FDConfig(h=math.ulp(1.0)).h == math.ulp(1.0)

    @pytest.mark.parametrize(
        "bad", [{"tau_sys": -1}, {"tau_lemma": -1e-9}, {"tau_comb": 0}]
    )
    def test_non_positive_tolerance(self, bad):
        with pytest.raises(CalculusError):
            FDConfig(**bad)

    def test_bad_scheme(self):
        with pytest.raises(CalculusError):
            FDConfig(scheme="forward")

    @pytest.mark.parametrize(
        "bad",
        [
            {"half_width": -1.0},
            {"half_width": math.nan},
            {"half_width": math.inf},
            {"half_width": 1e308},  # 2a overflows
            {"n_samples": 1000.0},
            {"n_samples": True},
            {"seed": -1},
        ],
        ids=["negative_half_width", "nan_half_width", "inf_half_width", "overflowing_2a",
             "float_n_samples", "bool_n_samples", "negative_seed"],
    )
    def test_bad_quadrature(self, bad):
        with pytest.raises(CalculusError):
            QuadratureSpec(**bad)

    @pytest.mark.parametrize(
        "entries",
        [
            [[1, 2], [3]],
            [],
            [1.0, 2.0],
            [[[1.0]]],
            [[1, 2], [3, 4], [5, 6]],
            [[1.0, float("inf")], [0.0, 1.0]],
            [[1.0, float("nan")], [0.0, 1.0]],
            [[Fraction(10**400, 3)]],
        ],
        ids=["ragged", "empty", "one_dimensional", "three_dimensional", "three_by_two",
             "inf_entry", "nan_entry", "fraction_beyond_float_range"],
    )
    def test_malformed_matrix_rejected(self, entries):
        with pytest.raises(CalculusError):
            FloatMatrix(entries)


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
            check_boundary_decay([Pk(1)], 2, self.QUAD)

    def test_bump_passes_boundary_check(self):
        psi = bump_field(2, 2, prefactor=Pk(1))
        [ratio] = check_boundary_decay([psi], 2, self.QUAD)
        assert ratio <= LEAK_RATIO

    def test_one_boundary_draw_serves_every_test_function(self, monkeypatch):
        psis = [bump_field(2, 2, prefactor=p) for p in (Const(1), Pk(1), Var(1, 2))]
        alone = [check_boundary_decay([psi], 2, self.QUAD) for psi in psis]
        draws = []
        real_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda *a: draws.append(a) or real_rng(*a)
        )
        assert [[r] for r in check_boundary_decay(psis, 2, self.QUAD)] == alone
        assert len(draws) == 1

    def test_leak_raised_at_the_first_leaking_test_function(self):
        psis = [bump_field(2, 2), Pk(2), Pk(1)]
        with pytest.raises(BoundaryLeak) as together:
            check_boundary_decay(psis, 2, self.QUAD)
        with pytest.raises(BoundaryLeak) as first:
            check_boundary_decay([Pk(2)], 2, self.QUAD)
        with pytest.raises(BoundaryLeak) as second:
            check_boundary_decay([Pk(1)], 2, self.QUAD)
        assert str(together.value) == str(first.value) != str(second.value)

    def test_lebesgue_density_annihilated(self):
        psi = bump_field(2, 2, prefactor=Pk(1))
        estimate, error = weak_lie_derivative([Const(1)], [psi], self.PAIRS, self.QUAD)
        assert estimate.shape == error.shape == (1, 1, 4)
        for e, s in zip(estimate[0, 0], error[0, 0]):
            assert abs(e) <= max(4 * s, 1e-2)

    def test_invariant_density_annihilated(self):
        u = Add([Const(1), Mul([Const(Fraction(1, 2)), Pk(2)])])
        psi = bump_field(2, 2, prefactor=Var(1, 2))
        estimate, error = weak_lie_derivative([u], [psi], [(1, 1), (2, 1)], self.QUAD)
        for e, s in zip(estimate[0, 0], error[0, 0]):
            assert abs(e) <= max(4 * s, 1e-2)

    def test_noninvariant_witness_detected(self):
        psi = bump_field(2, 2, prefactor=Var(1, 2))
        [[[e]]], [[[s]]] = weak_lie_derivative([Var(1, 1)], [psi], [(2, 1)], self.QUAD)
        assert abs(e) > 20 * s

    def test_deterministic_given_seed(self):
        psi = bump_field(2, 2, prefactor=Pk(1))
        quad = QuadratureSpec(half_width=2.0, n_samples=30_000, seed=3)
        r1 = weak_lie_derivative([Var(1, 1)], [psi], [(1, 2)], quad)
        r2 = weak_lie_derivative([Var(1, 1)], [psi], [(1, 2)], quad)
        assert [a.tobytes() for a in r1] == [a.tobytes() for a in r2]

    def test_one_pass_equals_single_calls(self, monkeypatch):
        # two chunks, the second one short; every (psi, density, pair)
        # estimate of the shared pass must equal its own single-psi,
        # single-density, single-pair pass exactly, and one boundary check
        # covers every psi
        quad = QuadratureSpec(half_width=2.0, n_samples=QUAD_CHUNK + 1_000, seed=11)
        psis = [bump_field(2, 2, prefactor=p) for p in (Var(1, 2), Pk(2), Const(1))]
        densities = [invariant_density(2), Var(1, 1), Const(1)]
        checks = []
        real_check = calculus.check_boundary_decay
        monkeypatch.setattr(
            calculus,
            "check_boundary_decay",
            lambda *args: checks.append(args) or real_check(*args),
        )
        estimate, error = weak_lie_derivative(densities, psis, self.PAIRS, quad)
        assert [args[0] for args in checks] == [psis]
        assert estimate.shape == error.shape == (3, 3, 4)
        for m, psi in enumerate(psis):
            for d, u in enumerate(densities):
                for p, pair in enumerate(self.PAIRS):
                    e, s = weak_lie_derivative([u], [psi], [pair], quad)
                    assert (e.item(), s.item()) == (estimate[m, d, p], error[m, d, p])

    def test_only_the_chosen_pairings_are_formed(self):
        # each density is paired with the psis listed for it (a repeat
        # forms a pairing once); every other entry is NaN, and every formed
        # one equals the full pass bit for bit
        quad = QuadratureSpec(half_width=2.0, n_samples=20_000, seed=5)
        psis = [bump_field(2, 2, prefactor=p) for p in (Const(1), Pk(1), Var(1, 2))]
        densities = [invariant_density(2), Const(1)]
        full = weak_lie_derivative(densities, psis, self.PAIRS, quad)
        chosen = weak_lie_derivative(densities, psis, self.PAIRS, quad, paired=[[0, 2], [0, 0]])
        formed = np.zeros((3, 2), dtype=bool)
        formed[[0, 2], 0] = formed[0, 1] = True
        for got, want in zip(chosen, full):
            assert np.isnan(got[~formed]).all()
            assert got[formed].tobytes() == want[formed].tobytes()

    @pytest.mark.parametrize("paired", [[[0]], [[0], [1]], [[0], [-1]]])
    def test_pairings_must_name_one_psi_list_per_density(self, paired):
        psi = bump_field(2, 2)
        with pytest.raises(CalculusError, match="paired"):
            weak_lie_derivative([Const(1), Var(1, 1)], [psi], [(1, 2)], self.QUAD, paired=paired)

    @pytest.mark.parametrize("n", [2, 3])
    def test_shifted_entries_equal_the_full_shift(self, n):
        # bit for bit against x +- h [E_ij, x] on the whole block, with every
        # entry outside row i and column j handed on as the block's own view
        block = np.random.default_rng(n).uniform(-2.0, 2.0, size=(n, n, 64))
        x = calculus._entries(block)
        h = 1e-3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                v = np.zeros_like(block)
                v[i - 1] += block[j - 1]
                v[:, j - 1] -= block[:, i - 1]
                plus, minus = calculus._shifted_entries(x, i, j, h)
                for got, want in [(plus, block + h * v), (minus, block - h * v)]:
                    assert np.stack([np.stack(row) for row in got]).tobytes() == want.tobytes()
                    for a in range(n):
                        for b in range(n):
                            if a != i - 1 and b != j - 1:
                                assert got[a][b] is x[a][b]

    @pytest.mark.parametrize("half_width", [1e-90, 1e80])
    def test_box_volume_out_of_float_range_is_rejected(self, half_width):
        # (2a)^4 underflows to 0 (a vacuous estimate 0 +- 0) or overflows; the
        # library call and the weak suite's config reject it alike
        quad = QuadratureSpec(half_width=half_width, n_samples=1_000, seed=0)
        psi = bump_field(2, half_width)
        with pytest.raises(CalculusError, match="box volume") as lib:
            weak_lie_derivative([Var(1, 1)], [psi], [(2, 1)], quad)
        cfg = {"suite": "weak", "samples": 1_000, "quadrature": {"half_width": half_width}}
        with pytest.raises(SuiteConfigError) as suite:
            run_suite_from_config(cfg)
        assert str(suite.value) == str(lib.value)
