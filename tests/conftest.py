import random
import signal
from fractions import Fraction
from math import prod

import pytest

from affinv.exactmat import RatMatrix

# well above the slowest test on working code (about 6 s), so that a fault
# which makes a test crawl fails it instead of stalling the run
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_TIME_LIMIT_S.  A BaseException,
    so that hypothesis reports it at once instead of replaying the example
    with no time limit left."""


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):  # Windows has no alarm
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def rows_rank(vecs) -> int:
    """Exact rank of a list of rows (any shape) by plain Gaussian elimination
    over Fraction, independent of the library's fraction-free kernel."""
    rows = [[Fraction(e) for e in v] for v in vecs]
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r
