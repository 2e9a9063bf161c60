"""Scalar fields on matrix space: expression trees with node kinds
const, var(i,j), add, mul, pow, pk(k).

A ``Pk(k)`` node denotes the built-in conjugation invariant tr(x^k)/k.
Every tree is a polynomial in the matrix entries.  One evaluator,
duck-typed over the entry scalars, serves every layer: fast with floats
or numpy float64 arrays, exact with Fraction entries, and exactly differentiated
with dual scalars (the invariant layer's gradients).  It takes a family
of fields and evaluates a node object that several of them hold once;
the generators build families that share such nodes (each p_k and its
powers, each bump wall), so the suites evaluate every shared value once
per point set, by the same operations in the same order as alone.

JSON wire format (shared by the invariant and calculus layers)::

    {"kind": "const", "value": "3/2"}
    {"kind": "var", "i": 1, "j": 2}
    {"kind": "add", "args": [...]}        # n-ary
    {"kind": "mul", "args": [...]}
    {"kind": "pow", "base": {...}, "exp": 3}
    {"kind": "pk", "k": 2}

``i``, ``j``, ``exp`` and ``k`` are JSON integers; the reader rejects any
other value with FieldError rather than truncate it, and likewise a
missing key, ``args`` that are not a list and a malformed constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
from operator import mul
from typing import Callable, Sequence

from .exactmat import MatrixJSONError, _krylov_rows, format_rational, parse_rational


class FieldError(ValueError):
    pass


class ScalarField:
    """Base class; concrete nodes below."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(ScalarField):
    value: Fraction

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

    @cached_property
    def float_value(self) -> float:
        """float(value), converted once per node, at its first float evaluation."""
        return float(self.value)


@dataclass(frozen=True)
class Var(ScalarField):
    i: int
    j: int

    def __post_init__(self):
        if self.i < 1 or self.j < 1:
            raise FieldError(f"var indices ({self.i},{self.j}) must be >= 1")


@dataclass(frozen=True)
class Add(ScalarField):
    args: tuple

    def __init__(self, args: Sequence[ScalarField]):
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Mul(ScalarField):
    args: tuple

    def __init__(self, args: Sequence[ScalarField]):
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Pow(ScalarField):
    base: ScalarField
    exp: int

    def __post_init__(self):
        if self.exp < 0:
            raise FieldError(f"pow exponent {self.exp} must be >= 0")


@dataclass(frozen=True)
class Pk(ScalarField):
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise FieldError(f"pk degree {self.k} must be >= 1")

    @cached_property
    def weight(self) -> Const:
        """The factor 1/k of tr(x^k)/k, as a constant node of its own."""
        return Const(Fraction(1, self.k))


def evaluate_on_entries(fields: Sequence[ScalarField], entries, lift: Callable = float) -> list:
    """The values of ``fields``, in order, over one n x n nested sequence
    of scalars.

    ``lift`` converts Const values into the scalar domain: ``float`` for the
    numeric layer, identity for exact evaluation, a dual scalar for exact
    derivatives.  The float lift of a Const value, of a Pk(k) node's 1/k and
    of the 0 and 1 that start sums and empty products is formed once per
    node object and kept on it, with the bits ``float`` gives; every other
    lift is applied at each evaluation.  Scalars only need +, * and
    integer **, so numpy arrays broadcast through unchanged.  Arrays must
    hold float64: a sum or a product takes its later terms in place (+=,
    *=), in the dtype of its first result.

    A node object that occurs more than once in the family is evaluated
    once: one pass counts its occurrences, and a memo keyed by node identity
    keeps its value for the call and hands it to each later occurrence.
    Every other value is released as soon as its parent has used it.  Each
    value is formed by the same operations in the same order as when its
    field is evaluated alone, and equals (bit for bit over floats) the value
    of the plain recursion that starts every sum at lift(0) and every
    product at lift(1).
    """
    fields = list(fields)
    uses: dict = {}
    for field in fields:
        _count_uses(field, uses)
    memo = {key: None for key, count in uses.items() if count > 1}
    return [_evaluate_node(field, entries, lift, memo) for field in fields]


def _count_uses(node: ScalarField, uses: dict) -> None:
    """Adds one occurrence of ``node`` to ``uses`` (keyed by identity); a
    node's children are counted only at its first occurrence, because a
    node is evaluated only once."""
    key = id(node)
    if key in uses:
        uses[key] += 1
        return
    uses[key] = 1
    kind = type(node)
    if kind is Add or kind is Mul:
        for a in node.args:
            _count_uses(a, uses)
    elif kind is Pow:
        _count_uses(node.base, uses)


_ZERO, _ONE = Const(0), Const(1)


def _lifted(const: Const, lift: Callable):
    """lift(const.value); the float lift is the one the node keeps."""
    return const.float_value if lift is float else lift(const.value)


def _evaluate_node(node: ScalarField, entries, lift: Callable, memo: dict):
    # A module-level recursion, not a nested closure: a closure that calls
    # itself is a reference cycle, which would keep ``entries`` (whole
    # sample blocks in the weak suite) alive until the cyclic garbage
    # collector happens to run.  ``memo`` maps each shared node's id to
    # None until the node is evaluated, and to its value after.
    key = id(node)
    value = memo.get(key)
    if value is not None:
        return value
    kind = type(node)
    if kind is Pow:
        value = _evaluate_node(node.base, entries, lift, memo) ** node.exp
    elif kind is Mul:
        # a product starts from its first factor (x * lift(1) is x: bit for
        # bit over floats, equal over exact scalars); once formed it is this
        # node's own value, which takes the later factors in place
        args = node.args
        value = _evaluate_node(args[0], entries, lift, memo) if args else _lifted(_ONE, lift)
        if len(args) > 1:
            value = value * _evaluate_node(args[1], entries, lift, memo)
            for a in args[2:]:
                value *= _evaluate_node(a, entries, lift, memo)
    elif kind is Add:
        # a sum keeps its lift(0) start (0.0 + -0.0 is +0.0), after which it
        # is this node's own value and takes the later terms in place
        args = node.args
        value = _lifted(_ZERO, lift)
        if args:
            value = value + _evaluate_node(args[0], entries, lift, memo)
            for a in args[1:]:
                value += _evaluate_node(a, entries, lift, memo)
    elif kind is Var:
        n = len(entries)
        if node.i > n or node.j > n:
            raise FieldError(f"var({node.i},{node.j}) out of range for n={n}")
        value = entries[node.i - 1][node.j - 1]
    elif kind is Const:
        value = _lifted(node, lift)
    elif kind is Pk:
        # tr(x^k) reads only the diagonal of x^(k-1) x: x^(k-1) is drawn from
        # the Krylov-row chain of x, and each diagonal entry is summed as the
        # chain sums its products
        n, k = len(entries), node.k
        if k == 1:
            diagonal = [row[i] for i, row in enumerate(entries)]
        else:
            cols = tuple(zip(*entries))
            acc = next(islice(_krylov_rows(entries, entries, cols), k - 2, None))
            diagonal = [sum(map(mul, acc[i], cols[i])) for i in range(n)]
        value = diagonal[0]
        for d in diagonal[1:]:
            value = value + d
        if k != 1:  # tr * lift(1) is tr
            value = value * _lifted(node.weight, lift)
    else:
        raise FieldError(f"unknown node {node!r}")
    if key in memo:
        memo[key] = value
    return value


def field_to_json(field: ScalarField) -> dict:
    if isinstance(field, Const):
        return {"kind": "const", "value": format_rational(field.value)}
    if isinstance(field, Var):
        return {"kind": "var", "i": field.i, "j": field.j}
    if isinstance(field, Add):
        return {"kind": "add", "args": [field_to_json(a) for a in field.args]}
    if isinstance(field, Mul):
        return {"kind": "mul", "args": [field_to_json(a) for a in field.args]}
    if isinstance(field, Pow):
        return {"kind": "pow", "base": field_to_json(field.base), "exp": field.exp}
    if isinstance(field, Pk):
        return {"kind": "pk", "k": field.k}
    raise FieldError(f"unknown node {field!r}")


def field_from_json(obj) -> ScalarField:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FieldError(f"field JSON node must be an object with a kind: {obj!r}")
    kind = obj["kind"]
    if kind == "const":
        try:
            return Const(parse_rational(obj.get("value")))
        except MatrixJSONError as exc:
            raise FieldError(f"const value: {exc}") from None
    if kind == "var":
        return Var(i=_json_int(obj, "i"), j=_json_int(obj, "j"))
    if kind in ("add", "mul"):
        args = obj.get("args")
        if not isinstance(args, list):
            raise FieldError(f"{kind} args must be a JSON list, got {args!r}")
        return (Add if kind == "add" else Mul)([field_from_json(a) for a in args])
    if kind == "pow":
        exp = _json_int(obj, "exp")
        return Pow(base=field_from_json(obj.get("base")), exp=exp)
    if kind == "pk":
        return Pk(k=_json_int(obj, "k"))
    raise FieldError(f"unknown field node kind {kind!r}")


def _json_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: a bool, a float (1.7, 2.0 or
    Infinity), a string or a missing key is a FieldError, never truncated."""
    value = obj.get(key)
    if type(value) is not int:
        raise FieldError(f"{obj['kind']} {key} must be a JSON integer, got {value!r}")
    return value


# -- generators used by the verification suites ------------------------------

_INVARIANT_MONOMIALS = {
    # exponent tuples (e1, e2, e3) on (p1, p2, p3); weighted degree <= 3
    2: [(1, 0), (2, 0), (0, 1), (3, 0), (1, 1)],
    3: [(1, 0, 0), (2, 0, 0), (0, 1, 0), (3, 0, 0), (1, 1, 0), (0, 0, 1)],
}

_COEFS = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
]


def random_invariant_field(n: int, rng: random.Random) -> ScalarField:
    """Random polynomial in the trace powers p_1..p_n.

    Monomials are capped at weighted degree 3 (degree of p_k counted as k)
    and coefficients at |c| <= 2 so that finite-difference checks on
    entries in [-2, 2] stay far inside the documented tolerances.
    """
    monos = _INVARIANT_MONOMIALS.get(n)
    if monos is None:
        monos = [
            tuple(int(t == k) for t in range(n)) for k in range(n)
        ] + [(2,) + (0,) * (n - 1)]
    terms = []
    for mono in rng.sample(monos, rng.randint(1, min(3, len(monos)))):
        factors: list[ScalarField] = [Const(rng.choice(_COEFS))]
        factors += [_trace_power_factor(k, e) for k, e in enumerate(mono, start=1) if e]
        terms.append(Mul(factors) if len(factors) > 1 else factors[0])
    return Add(terms) if len(terms) > 1 else terms[0]


@lru_cache(maxsize=None)  # k <= n and e <= 3: a few dozen keys
def _trace_power_factor(k: int, e: int) -> ScalarField:
    """p_k^e as one node object per (k, e), so that a family of random
    invariant fields evaluates each p_k and each power of it once."""
    return Pow(_trace_power_factor(k, 1), e) if e > 1 else Pk(k)


def random_polynomial_field(n: int, rng: random.Random) -> ScalarField:
    """Random low-degree polynomial in individual entries; generically not
    conjugation invariant."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors: list[ScalarField] = [Const(rng.choice(_COEFS))]
        for _ in range(rng.randint(1, 2)):
            v = Var(rng.randint(1, n), rng.randint(1, n))
            e = rng.randint(1, 2)
            factors.append(v if e == 1 else Pow(v, e))
        terms.append(Mul(factors))
    return Add(terms) if len(terms) > 1 else terms[0]


def bump_field(n: int, half_width, prefactor: ScalarField | None = None) -> ScalarField:
    """Test function that vanishes to second order on the cube boundary
    |x_ij| = half_width: prefactor * prod_ij ((a^2 - x_ij^2)/a^2)^2.
    Bumps on the same cube share their wall factors as node objects, so a
    family of them evaluates each wall once."""
    a = Fraction(half_width)
    if a <= 0:
        raise FieldError("half_width must be positive")
    factors = [] if prefactor is None else [prefactor]
    return Mul(factors + list(_bump_walls(n, a)))


@lru_cache(maxsize=8)
def _bump_walls(n: int, a: Fraction) -> tuple:
    """The n^2 factors ((a^2 - x_ij^2)/a^2)^2 of a bump on the cube of half
    width a, in row-major order."""
    inv_a2 = Fraction(1) / (a * a)
    return tuple(
        Pow(Add([Const(1), Mul([Const(-inv_a2), Pow(Var(i, j), 2)])]), 2)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
