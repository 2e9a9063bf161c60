"""The symbolic layer against sympy, an oracle that shares no code with it.

D_n (n <= 4) is compared term by term with sympy's Berkowitz determinant
of the rows e_n X^k of a symbol matrix X, and checked against the Euler
identity and the transformation law as polynomial identities.  The exact
gradients, read from dual scalars through the field evaluator, are
compared with sympy's derivatives of the same field tree, built here node
by node.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from affinv.exactmat import RatMatrix  # noqa: E402
from affinv.fields import (  # noqa: E402
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
from affinv.invariants import trace_form  # noqa: E402
from affinv.sympoly import symbolic_krylov_determinant  # noqa: E402
from conftest import rand_rational_matrix  # noqa: E402
from reference import _Dual, gradient_matrix  # noqa: E402


def _symbol_matrix(n):
    """X with entry (i, j) the symbol x_ij; row-major order is the
    variable order of MultiPoly."""
    return sympy.Matrix(n, n, lambda i, j: sympy.Symbol(f"x{i + 1}_{j + 1}"))


def _terms(expr, x):
    """Exponent tuple -> Fraction coefficient of the expanded expression."""
    poly = sympy.Poly(sympy.expand(expr), *x)
    return {
        monom: Fraction(int(c.p), int(c.q))
        for monom, c in poly.terms()
        if c != 0
    }


def _rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def _fraction(r):
    return Fraction(int(r.p), int(r.q))


def _expr(p, x):
    """The MultiPoly p as a sympy expression in the entries of x."""
    return sympy.Add(
        *[
            _rational(coef) * sympy.Mul(*[s**e for s, e in zip(x, exps)])
            for exps, coef in p.terms.items()
        ]
    )


def _field_to_sympy(node, x):
    if isinstance(node, Const):
        return _rational(node.value)
    if isinstance(node, Var):
        return x[node.i - 1, node.j - 1]
    if isinstance(node, Add):
        return sympy.Add(*[_field_to_sympy(a, x) for a in node.args])
    if isinstance(node, Mul):
        return sympy.Mul(*[_field_to_sympy(a, x) for a in node.args])
    if isinstance(node, Pow):
        return _field_to_sympy(node.base, x) ** node.exp
    if isinstance(node, Pk):
        return (x**node.k).trace() / node.k
    raise TypeError(f"unknown node {node!r}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_krylov_determinant_matches_berkowitz(n):
    x = _symbol_matrix(n)
    e_n = sympy.Matrix(1, n, lambda _, j: int(j == n - 1))
    krylov = sympy.Matrix.vstack(*[e_n * x**k for k in range(n)])
    expected = _terms(krylov.det(method="berkowitz"), x)
    assert symbolic_krylov_determinant(n).terms == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_euler_identity(n):
    # sum_i x_i dD/dx_i = d D with d = n(n-1)/2, as a polynomial identity
    x = _symbol_matrix(n)
    d = _expr(symbolic_krylov_determinant(n), x)
    euler = sympy.Add(*[s * sympy.diff(d, s) for s in x])
    assert sympy.expand(euler - n * (n - 1) // 2 * d) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_symbolic_relative_invariance(n):
    # D(y X y^-1) = det(y)^-1 D(X) as polynomials, for y in P
    rng = random.Random(71 + n)
    x = _symbol_matrix(n)
    d = _expr(symbolic_krylov_determinant(n), x)
    done = 0
    while done < 10:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        y = sympy.Matrix(rows + [[0] * (n - 1) + [1]])
        if y.det() == 0:
            continue
        conjugated = d.xreplace(dict(zip(x, y * x * y.inv())))
        assert sympy.expand(conjugated - d / y.det()) == 0
        done += 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_matches_sympy_derivative(n):
    rng = random.Random(409 + n)
    fields = [random_invariant_field(n, rng) for _ in range(8)]
    fields += [random_polynomial_field(n, rng) for _ in range(8)]
    fields.append(Pow(Add([Pk(n), Mul([Const(-3), Var(1, n)])]), 2))
    if n <= 2:
        fields.append(bump_field(n, 2, prefactor=Pk(2)))
    x = _symbol_matrix(n)
    for f in fields:
        expr = _field_to_sympy(f, x)
        at = rand_rational_matrix(rng, n)
        values = dict(zip(x, map(_rational, (e for row in at.rows for e in row))))
        # entry (i, j) of the gradient is df/dx_ji
        want = [
            [_fraction(sympy.diff(expr, x[j, i]).subs(values)) for j in range(n)]
            for i in range(n)
        ]
        assert gradient_matrix(f, at) == RatMatrix(want), f
        # the value part at x + eps E_1n is f(x)
        entries = [[_Dual(e) for e in row] for row in at.rows]
        entries[0][n - 1] = _Dual(at.rows[0][n - 1], 1)
        (dual,) = evaluate_on_entries([f], entries, lift=_Dual)
        assert [dual.a] == evaluate_on_entries([f], at.rows, lift=lambda c: c), f


def test_gradient_pairs_to_directional_derivative():
    # d/dt p3(x + t v) at t = 0 equals B(grad p3(x), v) = tr(grad p3(x) v)
    rng = random.Random(107)
    x, v = rand_rational_matrix(rng, 3), rand_rational_matrix(rng, 3)
    t = sympy.Symbol("t")
    line = sympy.Matrix(
        3, 3, lambda a, b: _rational(x.rows[a][b]) + t * _rational(v.rows[a][b])
    )
    p3 = (line**3).trace() / 3
    want = _fraction(sympy.diff(p3, t).subs(t, 0))
    assert trace_form(gradient_matrix(Pk(3), x), v) == want
