"""Workload definitions: request pools, per-cycle mixes and seeded schedules.

Every request is a pure function of its id, so the harness, the worker, the
correctness oracle and the reference capture all rebuild the same argv,
stdin and environment from the id alone.  A run's seed only picks which pool
items fill each slot of a cycle and in which order the slots run; the mix of
request kinds per cycle is fixed, so rates stay comparable across seeds.

Every pool item's output was captured once into ``refs/<workload>.json``
(see ``capture.py``), which is what makes byte-for-byte checking possible
for any seed.

Stdlib only: the program under test never sees anything but the generated
argv, stdin JSON and environment.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

IDENTITY_SAMPLES = 3
LEMMA_SAMPLES = 2
WEAK_SAMPLES = 200_000  # one sampling chunk of the weak suite
ANALYZE_NS = (2, 3, 4, 5, 6, 7, 8, 10, 12)
ANALYZE_CLASSES = ("int", "rat", "offlocus", "nonregular")


def analyze_draws(cls: str, n: int) -> int:
    """Draws per cycle of one (class, n).  Two for n <= 5 put the median
    request of a run inside the n = 5 integer group.  Seven off-locus
    matrices at n = 12, the dearest requests (about 0.55 s against 0.47 s
    for rational ones), put the latency tail (the 11th-largest request)
    inside their group in any run of two or more cycles."""
    if n <= 5:
        return 2
    if n == 12 and cls == "offlocus":
        return 7
    return 1


@dataclass(frozen=True)
class Request:
    id: str
    kind: str
    argv: tuple
    stdin: str | None = None
    env: tuple = ()  # (name, value) pairs set for the duration of the call

    def digest(self) -> str:
        """Fingerprint of what the program receives, stored next to each
        reference so that a changed generator cannot pass silently."""
        blob = json.dumps([self.argv, self.stdin, self.env])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Slot:
    """One position in a cycle: a pool of request ids to draw from."""

    ids: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple  # one Slot per request of a cycle
    warmup: str  # smallest request: used for warm-up and for setup_s
    cycle_s: float  # nominal seconds per cycle on a 2-core x86 box

    def pool(self) -> list[str]:
        return sorted({i for s in self.slots for i in s.ids})

    def cycles(self, seed: int):
        """Endless seeded sequence of cycles, each a shuffled list of ids.

        Each pool is dealt like a shuffled deck, shared by the slots that
        draw from it: no item repeats before the whole pool has been used,
        so a run covers its pools evenly whatever the seed."""
        rng = random.Random(f"{self.name}:{seed}")
        decks: dict[tuple, list] = {}
        while True:
            ids = []
            for slot in self.slots:
                deck = decks.setdefault(slot.ids, [])
                if not deck:
                    deck.extend(slot.ids)
                    rng.shuffle(deck)
                ids.append(deck.pop())
            rng.shuffle(ids)
            yield ids


_TIMESTAMP_LINE = re.compile(r'^\s*"timestamp": "[^"]*",?\n', re.M)


def output_digest(text: str) -> str:
    """sha256 of an output with its ``timestamp`` line removed: the only
    part of any affinv output that may differ between identical runs."""
    return hashlib.sha256(_TIMESTAMP_LINE.sub("", text).encode()).hexdigest()


# ---------------------------------------------------------------- requests


def _verify(kind: str, config: dict, rid: str) -> Request:
    return Request(rid, kind, ("verify", "-"), json.dumps(config, sort_keys=True))


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _unitriangular(rng: random.Random, n: int, upper: bool) -> list[list[int]]:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (j > i if upper else j < i) and rng.random() < 0.3:
                m[i][j] = rng.choice((-1, 1))
    return m


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)] for i in range(n)]


def _unitriangular_inverse(m, upper: bool):
    """Exact inverse of a unit triangular integer matrix (integer again)."""
    n = len(m)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    order = range(n - 1, -1, -1) if upper else range(n)
    for i in order:
        for j in range(n):
            span = range(i + 1, n) if upper else range(i)
            inv[i][j] -= sum(m[i][l] * inv[l][j] for l in span)
    return inv


def _conjugate(x, rng: random.Random, lower: bool):
    """u x u^-1 for a random unimodular u.  An upper unitriangular u lies in
    the mirabolic subgroup P, so it keeps D = 0; ``lower`` also conjugates
    by a lower unitriangular matrix.  Conjugation always keeps regularity."""
    up = _unitriangular(rng, len(x), upper=True)
    y = _matmul(_matmul(up, x), _unitriangular_inverse(up, True))
    if lower:
        lo = _unitriangular(rng, len(x), upper=False)
        y = _matmul(_matmul(lo, y), _unitriangular_inverse(lo, False))
    return y


def analyze_matrix(cls: str, n: int, k: int) -> list[list[Fraction]]:
    rng = random.Random(f"analyze-{cls}-n{n}-k{k}")
    if cls == "int":
        return [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    if cls == "rat":
        return [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
    if cls == "offlocus":
        # distinct eigenvalues (regular) but e_n is an eigenvector (D = 0)
        diag = rng.sample(range(-12, 13), n)
        x = [[Fraction(diag[i] if i == j else 0) for j in range(n)] for i in range(n)]
        return _conjugate(x, rng, lower=False)
    if cls == "nonregular":
        # two or more Jordan blocks for one eigenvalue: minimal polynomial
        # degree < n; every third variant is nilpotent
        lam = 0 if k % 3 == 0 else rng.randint(-3, 3)
        cut = rng.randint(1, n - 1)
        x = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            x[i][i] = Fraction(lam)
            if i + 1 < n and i + 1 != cut:
                x[i][i + 1] = Fraction(1)
        return _conjugate(x, rng, lower=True)
    raise ValueError(f"unknown matrix class {cls!r}")


def build(rid: str) -> Request:
    """Rebuild the request with this id."""
    parts = rid.split("-")
    kind = parts[0]
    if kind == "identity":
        n, seed = int(parts[1][1:]), int(parts[2][1:])
        cfg = {"suite": "identity", "n": n, "samples": IDENTITY_SAMPLES, "seed": seed}
        return _verify(kind, cfg, rid)
    if kind == "lemma":
        n, seed = int(parts[1][1:]), int(parts[2][1:])
        cfg = {"suite": "lemma", "n": n, "samples": LEMMA_SAMPLES, "seed": seed}
        return _verify(kind, cfg, rid)
    if kind == "weak":
        seed = int(parts[1][1:])
        cfg = {"suite": "weak", "n": 2, "samples": WEAK_SAMPLES, "seed": seed}
        return _verify(kind, cfg, rid)
    if kind == "analyze":
        cls, n, k = parts[1], int(parts[2][1:]), int(parts[3][1:])
        x = analyze_matrix(cls, n, k)
        stdin = json.dumps({"n": n, "entries": [[format_rational(e) for e in row] for row in x]})
        return Request(rid, kind, ("analyze", "-", "--conjugate", "--seed", str(k)), stdin)
    if kind == "sympoly":
        return Request(rid, kind, ("sympoly", "--n", parts[1][1:]), None, (("AFFINV_NMAX", "5"),))
    raise ValueError(f"unknown request id {rid!r}")


# --------------------------------------------------------------- workloads


def _ids(fmt: str, count: int) -> Slot:
    return Slot(tuple(fmt.format(i) for i in range(count)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-identity",
            why=(
                "verify identity, n = 3, 4, 5 in turn, integer entries in [-9, 9], "
                f"{IDENTITY_SAMPLES} samples, fresh seed per request: integer exactmat and "
                "invariants (basis expansion, commutators)"
            ),
            slots=tuple(_ids(f"identity-n{n}-s{{}}", 64) for n in (3, 4, 5)),
            warmup="identity-n3-s0",
            cycle_s=0.85,
        ),
        Workload(
            name="analyze-mix",
            why=(
                "analyze --conjugate, n = 2..12; per n an integer, a rational, an "
                "off-locus and a non-regular (exit 3) matrix; twice each for n <= 5, "
                "and 7 off-locus at n = 12, which set the tail"
            ),
            slots=tuple(
                _ids(f"analyze-{cls}-n{n}-k{{}}", 12)
                for n in ANALYZE_NS
                for cls in ANALYZE_CLASSES
                for _ in range(analyze_draws(cls, n))
            ),
            warmup="analyze-int-n2-k0",
            cycle_s=7.0,
        ),
        Workload(
            name="float-suites",
            why=(
                f"verify weak (n = 2, {WEAK_SAMPLES} samples = one chunk) between lemma "
                f"requests (n = 2 once, n = 3 three times, {LEMMA_SAMPLES} samples): batched "
                "numpy path next to the scalar path"
            ),
            # three lemma n = 3 draws per cycle put the median inside their
            # group and average over the seed-dependent cost of their fields
            slots=(
                _ids("lemma-n2-s{}", 64),
                *[_ids("lemma-n3-s{}", 64)] * 3,
                _ids("weak-s{}", 24),
            ),
            warmup="lemma-n2-s0",
            cycle_s=1.4,
        ),
        Workload(
            name="symbolic-export",
            why=(
                "sympoly --n 4 nine times per --n 5 with AFFINV_NMAX=5; only workload "
                "that expands D_n symbolically, memory-heavy (3.9 MB term list at n = 5)"
            ),
            slots=(Slot(("sympoly-n4",)),) * 9 + (Slot(("sympoly-n5",)),),
            warmup="sympoly-n4",
            cycle_s=6.2,
        ),
    )
}
