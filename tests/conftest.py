import random
from fractions import Fraction

from affinv.exactmat import RatMatrix


def rand_rational_matrix(rng: random.Random, n: int) -> RatMatrix:
    return RatMatrix(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
    )
