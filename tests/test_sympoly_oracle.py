"""The symbolic layer against sympy, an oracle that shares no code with it.

D_n (n <= 4) is compared term by term with sympy's Berkowitz determinant
of the rows e_n X^k of a symbol matrix X, and ``to_multipoly`` with a
sympy expansion of the same field tree, built here node by node.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from affinv.fields import (  # noqa: E402
    Add,
    Const,
    Mul,
    Pk,
    Pow,
    Var,
    bump_field,
    random_invariant_field,
    random_polynomial_field,
    to_multipoly,
)
from affinv.sympoly import symbolic_krylov_determinant  # noqa: E402


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


def _field_to_sympy(node, x):
    if isinstance(node, Const):
        return sympy.Rational(node.value.numerator, node.value.denominator)
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_to_multipoly_matches_sympy_expansion(n):
    rng = random.Random(409 + n)
    fields = [random_invariant_field(n, rng) for _ in range(8)]
    fields += [random_polynomial_field(n, rng) for _ in range(8)]
    fields.append(Pow(Add([Pk(n), Mul([Const(-3), Var(1, n)])]), 2))
    if n <= 2:
        fields.append(bump_field(n, 2, prefactor=Pk(2)))
    x = _symbol_matrix(n)
    for f in fields:
        assert to_multipoly(f, n).terms == _terms(_field_to_sympy(f, x), x), f
