import random
from fractions import Fraction
from math import prod

from affinv.exactmat import RatMatrix


def rand_rational_matrix(rng: random.Random, n: int) -> RatMatrix:
    return RatMatrix(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def poly_at(p, x: RatMatrix, euler: bool = False) -> Fraction:
    """A MultiPoly at x, summed from its term list; with ``euler``, the
    Euler operator sum_i x_i d/dx_i applied first, term by term: it scales
    each term by its total degree."""
    values = [e for row in x.rows for e in row]
    total = Fraction(0)
    for exps, coef in p.terms.items():
        term = coef * prod(v**e for v, e in zip(values, exps))
        total += sum(exps) * term if euler else term
    return total
