import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

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
from conftest import rand_rational_matrix


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
