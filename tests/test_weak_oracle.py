"""The Monte-Carlo weak pairings against exact rationals from sympy, an
oracle that shares no code with the library.

For psi = P * W, with W the product of the walls ((a^2 - t^2)/a^2)^2 over
the four entries of a 2 x 2 matrix, the pairing -integral of u * L_ij psi
over the box [-a, a]^4 equals the integral of W * P * L_ij u: the adjoint
fields x -> [E_ij, x] are divergence free and W vanishes to second order
on the walls, so one integration by parts leaves no boundary term.  Each
monomial of P * L_ij u then integrates to a product of the 1-D moments
M_e = integral of t^e ((a^2 - t^2)/a^2)^2 over [-a, a].  That form is
checked against sympy's integral of -u * L_ij psi as it stands on one zero
and one nonzero pairing, and the estimator against it.
"""

import functools
from fractions import Fraction
from math import prod

import pytest

sympy = pytest.importorskip("sympy")

from affinv.calculus import QuadratureSpec, weak_lie_derivative  # noqa: E402
from affinv.fields import Const, Var, bump_field, evaluate_on_entries  # noqa: E402
from affinv.report import invariant_density, weak_test_functions  # noqa: E402

A = 2  # the weak suite's default half width
X = sympy.Matrix(2, 2, lambda i, j: sympy.Symbol(f"x{i + 1}{j + 1}"))
ENTRIES = list(X)  # row-major: x11, x12, x21, x22
X11, X12, X21, _ = ENTRIES
P1, P2 = X.trace(), (X * X).trace() / 2
# the weak suite's test-function prefactors and densities, written out here
PREFACTORS = [sympy.Integer(1), P1, P2, X12, X11 + X21]
DENSITIES = [1 + P1**2 / 4 + P2 / 2, X11, sympy.Integer(1)]
PAIRS = [(1, 1), (1, 2), (2, 1), (2, 2)]
# per density, the prefactors the weak suite pairs it with
PAIRED = [range(5), range(5), [0]]
# -integral of x11 * L_21 (x12 W) = -M_2 M_0^3
WITNESS = Fraction(-4194304, 354375)


def _wall(t):
    return ((A**2 - t**2) / A**2) ** 2


def _lie(f, i, j):
    """L_ij f = sum_ab [E_ij, X]_ab df/dx_ab."""
    e = sympy.zeros(2, 2)
    e[i - 1, j - 1] = 1
    v = e * X - X * e
    return sympy.expand(sum(v_ab * sympy.diff(f, x_ab) for v_ab, x_ab in zip(v, ENTRIES)))


@functools.cache
def _moment(e: int):
    t = sympy.Symbol("t")
    return sympy.integrate(t**e * _wall(t), (t, -A, A))


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def exact_pairing(u, prefactor, i, j) -> Fraction:
    """-integral of u * L_ij (P W) as the integral of W * P * L_ij u, one
    product of moments per monomial."""
    poly = sympy.Poly(prefactor * _lie(u, i, j), *ENTRIES)
    return _fraction(
        sum(c * prod(_moment(e) for e in exps) for exps, c in poly.terms())
    )


def direct_pairing(u, prefactor, i, j) -> Fraction:
    """-integral of u * L_ij (P W) over the box, integrated as it stands."""
    poly = sympy.Poly(-u * _lie(prefactor * prod(map(_wall, ENTRIES)), i, j), *ENTRIES)
    for x_ab in ENTRIES:
        poly = poly.integrate(x_ab)
        poly = poly.eval(x_ab, A) - poly.eval(x_ab, -A)
    return _fraction(poly)


@functools.cache
def exact_table() -> dict:
    """(m, d, p) -> the exact pairing of PREFACTORS[m] W, DENSITIES[d] and
    PAIRS[p], for every pairing the weak suite forms."""
    return {
        (m, d, p): exact_pairing(u, PREFACTORS[m], i, j)
        for d, u in enumerate(DENSITIES)
        for m in PAIRED[d]
        for p, (i, j) in enumerate(PAIRS)
    }


def test_written_out_fields_are_the_weak_suites():
    x = [[Fraction(3, 2), Fraction(-1, 3)], [Fraction(5, 4), Fraction(2, 7)]]
    at_x = dict(zip(ENTRIES, sum(x, [])))
    walls = prod(_wall(v) for v in at_x.values())
    library = evaluate_on_entries(
        weak_test_functions(2, A) + [invariant_density(2)], x, lift=Fraction
    )
    written = [p.subs(at_x) * walls for p in PREFACTORS] + [DENSITIES[0].subs(at_x)]
    assert library == [_fraction(w) for w in written]


@pytest.mark.parametrize(
    "d, m, pair", [(1, 3, (2, 1)), (0, 2, (1, 2))], ids=["witness", "invariant"]
)
def test_moment_form_equals_the_direct_integral(d, m, pair):
    u, prefactor = DENSITIES[d], PREFACTORS[m]
    direct = direct_pairing(u, prefactor, *pair)
    assert direct == exact_pairing(u, prefactor, *pair)
    assert direct == (WITNESS if d == 1 else 0)


def test_only_the_two_witness_pairings_are_nonzero():
    nonzero = {key: value for key, value in exact_table().items() if value}
    assert len(exact_table()) == 44
    assert nonzero == {(3, 1, 2): WITNESS, (4, 1, 1): -WITNESS}


def test_estimate_lies_within_five_sigma_of_the_exact_value():
    quad = QuadratureSpec(half_width=A, n_samples=50_000, seed=7)
    psi = bump_field(2, A, prefactor=Var(1, 2))
    [[[estimate]]], [[[error]]] = weak_lie_derivative([Var(1, 1)], [psi], [(2, 1)], quad)
    assert abs(estimate - float(WITNESS)) <= 5 * error


def test_weak_suite_pairings_lie_within_five_sigma_of_their_exact_values():
    # one pass over the weak suite's fields and pairings at 200,000 samples
    # (one chunk), seed 0; bound and seed fixed before the first run
    quad = QuadratureSpec(half_width=A, n_samples=200_000, seed=0)
    densities = [invariant_density(2), Var(1, 1), Const(1)]
    estimate, error = weak_lie_derivative(
        densities, weak_test_functions(2, A), PAIRS, quad, paired=PAIRED
    )
    for (m, d, p), exact in exact_table().items():
        assert abs(estimate[m, d, p] - float(exact)) <= 5 * error[m, d, p], (m, d, p)
