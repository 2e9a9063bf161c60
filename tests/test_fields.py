import gc
import itertools
import json
import math
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from affinv.calculus import QUAD_BLOCK
from affinv.exactmat import RatMatrix
from affinv.fields import (
    Add,
    Const,
    FieldError,
    Mul,
    Pk,
    Pow,
    Var,
    bump_field,
    evaluate_on_entries,
    field_from_json,
    field_to_json,
    random_invariant_field,
    random_polynomial_field,
)
from affinv.report import weak_test_functions
from conftest import rand_rational_matrix
from reference import _Dual


def evaluate_exact(field, x: RatMatrix):
    """Exact rational evaluation: the evaluator with Const values unlifted."""
    return evaluate_on_entries([field], x.rows, lift=lambda c: c)[0]


class TestExactEvaluation:
    def test_constant(self):
        assert evaluate_exact(Const(Fraction(3, 2)), RatMatrix.identity(2)) == Fraction(3, 2)

    def test_entry_variable(self):
        x = RatMatrix([[1, 2], [3, 4]])
        assert evaluate_exact(Var(2, 1), x) == 3

    def test_trace_power_node(self):
        x = RatMatrix([[1, 2], [3, 4]])
        assert evaluate_exact(Pk(2), x) == Fraction(29, 2)

    def test_compound_expression(self):
        x = RatMatrix([[1, 2], [3, 4]])
        f = Add([Mul([Const(2), Var(1, 1)]), Pow(Var(2, 2), 2)])
        assert evaluate_exact(f, x) == 2 + 16

    def test_out_of_range_var(self):
        with pytest.raises(FieldError):
            evaluate_exact(Var(3, 1), RatMatrix.identity(2))

    def test_entries_are_freed_on_return(self):
        # entries may be whole sample batches: evaluation must hold no
        # reference to them once it returns, even with the cyclic
        # garbage collector off; the memo of a family call, which holds
        # shared values, dies with the call
        batch = np.ones((2, 2, 8))
        entries = [[batch[a, b] for b in range(2)] for a in range(2)]
        ref = weakref.ref(batch)
        p2 = Pk(2)
        family = [Add([p2, Mul([Const(2), Var(1, 2)])]), Pow(p2, 2), bump_field(2, 2)]
        gc.disable()
        try:
            evaluate_on_entries(family, entries)
            del batch, entries
            assert ref() is None
        finally:
            gc.enable()


class TestJsonRoundTrip:
    def test_round_trip(self):
        rng = random.Random(173)
        for n in (2, 3):
            for gen in (random_invariant_field, random_polynomial_field):
                f = gen(n, rng)
                j = field_to_json(f)
                again = field_from_json(j)
                assert field_to_json(again) == j
                x = rand_rational_matrix(rng, n)
                assert evaluate_exact(again, x) == evaluate_exact(f, x)

    def test_known_shape(self):
        f = Pow(Pk(2), 3)
        assert field_to_json(f) == {
            "kind": "pow",
            "base": {"kind": "pk", "k": 2},
            "exp": 3,
        }

    def test_bad_kind_rejected(self):
        with pytest.raises(FieldError):
            field_from_json({"kind": "sin", "arg": {"kind": "pk", "k": 1}})

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "var", "i": 1.7, "j": 1}',
            '{"kind": "var", "i": true, "j": 1}',
            '{"kind": "var", "i": 1}',
            '{"kind": "pow", "base": {"kind": "pk", "k": 1}, "exp": 2.5}',
            '{"kind": "pow", "base": {"kind": "pk", "k": 1}, "exp": 2.0}',
            '{"kind": "pow", "base": {"kind": "pk", "k": 1}, "exp": Infinity}',
            '{"kind": "pk", "k": "3"}',
        ],
    )
    def test_non_integer_index_or_exponent_rejected(self, text):
        # once truncated to var(1,1) or pow(., 2), or a raw OverflowError
        with pytest.raises(FieldError, match="must be a JSON integer"):
            field_from_json(json.loads(text))

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "add"}',
            '{"kind": "pow", "exp": 2}',
            '{"kind": "const"}',
            '{"kind": "add", "args": 5}',
            '{"kind": "const", "value": 1.5}',
            '{"kind": "const", "value": true}',
        ],
    )
    def test_malformed_node_raises_field_error(self, text):
        # once a raw KeyError or TypeError, or MatrixJSONError for a constant
        with pytest.raises(FieldError):
            field_from_json(json.loads(text))


class TestValidation:
    def test_negative_pow_rejected(self):
        with pytest.raises(FieldError):
            Pow(Var(1, 1), -1)

    def test_pk_zero_rejected(self):
        with pytest.raises(FieldError):
            Pk(0)

    def test_bump_vanishes_on_wall(self):
        psi = bump_field(2, 2, prefactor=Pk(1))
        on_wall = RatMatrix([[2, 1], [0, 1]])
        assert evaluate_exact(psi, on_wall) == 0
        inside = RatMatrix([[1, 0], [0, 1]])
        assert evaluate_exact(psi, inside) != 0


def test_family_of_nodes_built_on_the_fly():
    # a generator drops each node once it is evaluated; the memo keeps the
    # nodes alive for the call, so a later node cannot inherit a freed
    # node's identity and its memoised value
    x = RatMatrix([[1, 2], [3, 4]])
    family = (Pk(k) for k in (1, 2, 3, 1, 2, 3))
    values = evaluate_on_entries(family, x.rows, lift=lambda c: c)
    assert values == [evaluate_exact(Pk(k), x) for k in (1, 2, 3, 1, 2, 3)]


def _plain(node, entries, lift):
    """Reference arithmetic for the evaluator, with no sharing and no
    shortcut: every sum starts at lift(0), every product at lift(1), and
    tr(x^k)/k is multiplied by lift(1/k) for k = 1 too."""
    if isinstance(node, Const):
        return lift(node.value)
    if isinstance(node, Var):
        return entries[node.i - 1][node.j - 1]
    if isinstance(node, Add):
        value = lift(Fraction(0))
        for a in node.args:
            value = value + _plain(a, entries, lift)
        return value
    if isinstance(node, Mul):
        value = lift(Fraction(1))
        for a in node.args:
            value = value * _plain(a, entries, lift)
        return value
    if isinstance(node, Pow):
        return _plain(node.base, entries, lift) ** node.exp
    n = len(entries)
    acc = entries
    for _ in range(node.k - 2):
        acc = [[sum(acc[a][c] * entries[c][b] for c in range(n)) for b in range(n)] for a in range(n)]
    if node.k == 1:
        diagonal = [entries[a][a] for a in range(n)]
    else:
        diagonal = [sum(acc[a][c] * entries[c][a] for c in range(n)) for a in range(n)]
    tr = diagonal[0]
    for d in diagonal[1:]:
        tr = tr + d
    return tr * lift(Fraction(1, node.k))


def _bits(value, size: int) -> bytes:
    return np.broadcast_to(np.asarray(value, dtype=np.float64), (size,)).tobytes()


class TestEvaluatorShortcuts:
    """The evaluator starts a product at its first factor and skips
    tr(x)'s factor 1/1; over floats neither changes a bit, signed zeros,
    infinities and NaNs included, and over exact scalars no value."""

    SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.0)
    FIELDS = (
        Mul([Var(1, 1)]),
        Mul([Const(1), Var(1, 2)]),
        Mul([Var(1, 1), Var(2, 2), Const(-3)]),
        Add([Var(2, 1)]),
        Add([Var(1, 1), Mul([Const(-1), Var(2, 2)])]),
        Pk(1),
        Pk(2),
        Pk(3),
        Pow(Pk(1), 2),
        Mul([Pk(1), Pk(1)]),
    )

    def _grid(self):
        # every combination of special values over the four entries
        grid = np.array(list(itertools.product(self.SPECIAL, repeat=4))).T.reshape(2, 2, -1)
        return [list(row) for row in grid], grid.shape[-1]

    def test_special_floats_keep_their_bits(self):
        entries, size = self._grid()
        rng = random.Random(7)
        family = list(self.FIELDS) + [bump_field(2, 2, prefactor=p) for p in (None, Pk(1))]
        family += [random_invariant_field(2, rng) for _ in range(4)]
        family += [random_polynomial_field(2, rng) for _ in range(4)]
        with np.errstate(all="ignore"):
            together = evaluate_on_entries(family, entries)
            for field, value in zip(family, together):
                copy = field_from_json(field_to_json(field))  # shares no node
                (alone,) = evaluate_on_entries([copy], entries)
                assert _bits(value, size) == _bits(alone, size), field
                assert _bits(value, size) == _bits(_plain(field, entries, float), size), field

    def test_exact_values_equal_the_plain_recursion(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            x = rand_rational_matrix(rng, n)
            family = [f for f in self.FIELDS if n >= 2 or f in (Pk(1), Pk(2), Pk(3))]
            family += [random_invariant_field(n, rng) for _ in range(3)]
            exact = lambda c: c  # noqa: E731
            assert evaluate_on_entries(family, x.rows, exact) == [
                _plain(f, x.rows, exact) for f in family
            ]
            duals = [[_Dual(e, Fraction(rng.randint(-3, 3))) for e in row] for row in x.rows]
            got = evaluate_on_entries(family, duals, _Dual)
            want = [_plain(f, duals, _Dual) for f in family]
            assert [(d.a, d.b) for d in got] == [(d.a, d.b) for d in want]

    def test_empty_sum_and_product(self):
        empty = [Add([]), Mul([])]
        block = [[np.full(3, -0.0)] * 2] * 2
        assert evaluate_on_entries(empty, block) == [0.0, 1.0]
        assert [type(v) for v in evaluate_on_entries(empty, block)] == [float, float]
        rows = RatMatrix([[1, 2], [3, 4]]).rows
        values = evaluate_on_entries(empty, rows, lambda c: c)
        assert values == [0, 1] and [type(v) for v in values] == [Fraction, Fraction]
        duals = [[_Dual(e, 1) for e in row] for row in rows]
        values = evaluate_on_entries(empty, duals, _Dual)
        assert [(d.a, d.b) for d in values] == [(0, 0), (1, 0)]

    def test_weak_family_call_holds_few_block_arrays(self):
        # one family call of the weak suite's test functions on one sample
        # block: the four shared walls, the five results and a few
        # temporaries are alive at once; a memo that kept every node's
        # value until the call returned peaked at 25 block arrays
        block = np.random.default_rng(0).uniform(-2.0, 2.0, size=(2, 2, QUAD_BLOCK))
        entries = [list(row) for row in block]
        psis = weak_test_functions(2, 2.0)
        evaluate_on_entries(psis, entries)  # fills the lazy caches of numpy and Fraction
        tracemalloc.start()
        try:
            values = evaluate_on_entries(psis, entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(values) == 5
        assert peak <= 12 * block[0, 0].nbytes
