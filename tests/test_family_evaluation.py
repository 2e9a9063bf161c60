"""A family evaluation equals its fields evaluated one at a time, exactly.

``evaluate_on_entries`` evaluates a node object that occurs more than once
in a family only once.  These properties check that the sharing changes
no value: over float arrays (NaNs and infinities included), Fraction
entries and dual scalars, for families whose fields share node objects
(as the generators build them) and for copies that share none.  The
Lie-derivative tables of a family equal the one-field tables bit for bit.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from affinv.calculus import FloatMatrix, lie_derivatives  # noqa: E402
from affinv.fields import (  # noqa: E402
    Const,
    Pk,
    Var,
    bump_field,
    evaluate_on_entries,
    field_from_json,
    field_to_json,
    random_invariant_field,
    random_polynomial_field,
)
from reference import _Dual  # noqa: E402

FAMILY = settings(max_examples=40, deadline=None, derandomize=True)


def _family(n: int, seed: int, shared: bool) -> list:
    """Random invariant, polynomial and bump fields on one n; with
    ``shared`` False, JSON copies that share no node object."""
    rng = random.Random(seed)
    fields = [random_invariant_field(n, rng) for _ in range(4)]
    fields += [random_polynomial_field(n, rng) for _ in range(2)]
    fields += [bump_field(n, 2, prefactor=p) for p in (None, Pk(1), Var(1, n))]
    fields.append(Const(Fraction(-3, 2)))
    rng.shuffle(fields)
    if not shared:
        fields = [_copy(f) for f in fields]
    return fields


# (n, family) pairs
families = st.tuples(st.integers(1, 4), st.integers(0, 2**32), st.booleans()).map(
    lambda t: (t[0], _family(*t))
)


def _alone(family, entries, lift) -> list:
    """Each field evaluated by itself, from a JSON copy: no node object is
    shared, within the field or with another."""
    return [evaluate_on_entries([_copy(f)], entries, lift)[0] for f in family]


def _copy(field):
    return field_from_json(field_to_json(field))


@FAMILY
@given(n_family=families, data=st.data())
def test_family_equals_fields_alone_over_float_arrays(n_family, data):
    n, family = n_family
    # wide exponents overflow the walls and powers to inf, and inf - inf to
    # NaN; signed zeros are drawn too
    values = st.floats(allow_nan=True, allow_infinity=True, width=64)
    flat = data.draw(st.lists(values, min_size=n * n * 3, max_size=n * n * 3))
    batch = np.array(flat).reshape(n, n, 3)
    entries = [list(row) for row in batch]
    with np.errstate(all="ignore"):
        together = evaluate_on_entries(family, entries)
        alone = _alone(family, entries, float)
    assert len(together) == len(alone) == len(family)
    for a, b in zip(together, alone):  # bits: signed zeros and NaN payloads too
        assert np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@FAMILY
@given(n_family=families, seed=st.integers(0, 2**32))
def test_family_equals_fields_alone_over_fractions_and_duals(n_family, seed):
    n, family = n_family
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    exact = lambda c: c  # noqa: E731
    assert evaluate_on_entries(family, rows, exact) == _alone(family, rows, exact)
    duals = [[_Dual(e, Fraction(rng.randint(-3, 3))) for e in row] for row in rows]
    together = evaluate_on_entries(family, duals, _Dual)
    alone = _alone(family, duals, _Dual)
    assert [(d.a, d.b) for d in together] == [(d.a, d.b) for d in alone]


@FAMILY
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32), shared=st.booleans())
def test_family_tables_equal_one_field_tables_bit_for_bit(n, seed, shared):
    family = _family(n, seed, shared)
    rng = random.Random(seed)
    x = FloatMatrix([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
    tables = lie_derivatives(family, x)
    assert np.shape(tables) == (len(family), n, n)
    for f, table in zip(family, tables):
        alone = lie_derivatives([_copy(f)], x)[0]
        assert np.array(table).tobytes() == np.array(alone).tobytes()

