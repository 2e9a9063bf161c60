"""Sparse multivariate polynomials over the rationals in matrix-entry
variables, and the symbolic Krylov-row determinant.

Variables are the n^2 entries of a generic n x n matrix, ordered
x11, x12, ..., x1n, x21, ..., xnn; variable index of entry (i, j) is
(i-1)*n + (j-1) with 1-based (i, j).  Serialized term lists are sorted in
graded lexicographic order (total degree descending, then exponent tuple
descending), which keeps golden files byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .exactmat import RatMatrix, _matmul, format_rational, parse_rational

DEFAULT_N_MAX = 4


class SympolyError(ValueError):
    pass


class FeasibilityBoundError(SympolyError):
    """Requested dimension exceeds the configured symbolic bound."""


def var_index(n: int, i: int, j: int) -> int:
    """Variable index of entry (i, j), 1-based, in the x11..xnn order."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise SympolyError(f"entry ({i},{j}) out of range 1..{n}")
    return (i - 1) * n + (j - 1)


class MultiPoly:
    """Immutable sparse polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Fraction] | None = None):
        clean = {}
        for exps, coef in (terms or {}).items():
            if coef == 0:
                continue
            if len(exps) != nvars:
                raise SympolyError(f"exponent tuple {exps} has wrong length")
            clean[tuple(int(e) for e in exps)] = Fraction(coef)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        c = Fraction(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, idx: int) -> "MultiPoly":
        if not 0 <= idx < nvars:
            raise SympolyError(f"variable index {idx} out of range")
        exps = tuple(int(k == idx) for k in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise SympolyError(f"variable count {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coef
        return MultiPoly(self.nvars, out)

    def __radd__(self, other) -> "MultiPoly":
        """0 + p, so that ``sum`` over polynomials may start from 0."""
        if other == 0:
            return self
        return NotImplemented

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[tuple, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return MultiPoly(self.nvars, out)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise SympolyError("negative power")
        acc = MultiPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def partial(self, idx: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable idx."""
        out: dict[tuple, Fraction] = {}
        for exps, coef in self.terms.items():
            k = exps[idx]
            if k == 0:
                continue
            lowered = list(exps)
            lowered[idx] = k - 1
            key = tuple(lowered)
            out[key] = out.get(key, Fraction(0)) + coef * k
        return MultiPoly(self.nvars, out)

    def eval(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != self.nvars:
            raise SympolyError(f"expected {self.nvars} values, got {len(values)}")
        total = Fraction(0)
        for exps, coef in self.terms.items():
            prod = coef
            for v, e in zip(values, exps):
                if e:
                    prod *= v**e
            total += prod
        return total

    def compose(self, mapping: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute mapping[idx] for each variable idx."""
        if len(mapping) != self.nvars:
            raise SympolyError("substitution list has wrong length")
        nvars_out = mapping[0].nvars if mapping else self.nvars
        pow_cache: dict[tuple[int, int], MultiPoly] = {}

        def cached_pow(idx: int, e: int) -> MultiPoly:
            key = (idx, e)
            if key not in pow_cache:
                pow_cache[key] = mapping[idx] ** e
            return pow_cache[key]

        total = MultiPoly(nvars_out)
        for exps, coef in self.terms.items():
            prod = MultiPoly.const(nvars_out, coef)
            for idx, e in enumerate(exps):
                if e:
                    prod = prod * cached_pow(idx, e)
            total = total + prod
        return total

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in graded-lex order: degree descending, exps descending."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exps, coef in self.sorted_terms()[:8]:
            mono = "*".join(
                f"v{idx}^{e}" if e > 1 else f"v{idx}"
                for idx, e in enumerate(exps)
                if e
            )
            bits.append(f"{format_rational(coef)}{'*' + mono if mono else ''}")
        tail = " + ..." if len(self.terms) > 8 else ""
        return "MultiPoly(" + " + ".join(bits) + tail + ")"


def generic_matrix(n: int) -> list[list[MultiPoly]]:
    """The n x n matrix whose (i, j) entry is the variable x_ij."""
    nvars = n * n
    return [
        [MultiPoly.variable(nvars, var_index(n, i, j)) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def _cofactor_det(rows: list[list[MultiPoly]], nvars: int) -> MultiPoly:
    m = len(rows)
    if m == 1:
        return rows[0][0]
    total = MultiPoly(nvars)
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        sub = _cofactor_det(minor, nvars)
        term = entry * sub
        total = total + (term if j % 2 == 0 else -term)
    return total


def symbolic_krylov_determinant(n: int, n_max: int | None = None) -> MultiPoly:
    """The Krylov-row determinant of a generic matrix, fully expanded.

    Rows are built by repeated symbolic row-times-matrix products starting
    from e_n.  The first row is e_n itself, so the n x n determinant
    collapses to a single (n-1) x (n-1) cofactor, which is then expanded
    recursively.  Guarded by ``n_max`` (default 4) because the expansion is
    meant for desk-scale dimensions only.
    """
    bound = DEFAULT_N_MAX if n_max is None else n_max
    if n < 1:
        raise SympolyError(f"dimension {n} must be >= 1")
    if n > bound:
        raise FeasibilityBoundError(f"n = {n} exceeds the symbolic bound {bound}")
    nvars = n * n
    if n == 1:
        return MultiPoly.const(nvars, 1)
    x = generic_matrix(n)
    rows = [[MultiPoly.const(nvars, int(j == n - 1)) for j in range(n)]]
    for _ in range(n - 1):
        rows.append(_matmul(rows[-1:], x)[0])
    # expand along the first row e_n: single nonzero entry at column n,
    # cofactor sign (-1)^(1+n)
    minor = [r[: n - 1] for r in rows[1:]]
    det = _cofactor_det(minor, nvars)
    if n % 2 == 0:
        det = -det
    return det


@lru_cache(maxsize=None)
def trace_power_poly(n: int, k: int) -> MultiPoly:
    """tr(X^k)/k of the generic n x n matrix as an explicit polynomial."""
    if k < 1:
        raise SympolyError(f"trace power index {k} must be >= 1")
    nvars = n * n
    x = generic_matrix(n)
    acc = x
    for _ in range(k - 1):
        acc = _matmul(acc, x)
    tr = sum((acc[i][i] for i in range(n)), MultiPoly(nvars))
    return tr.scale(Fraction(1, k))


@dataclass(frozen=True)
class NotHomogeneous:
    """Witness pair of terms with different total degrees."""

    term_a: tuple
    degree_a: int
    term_b: tuple
    degree_b: int


@dataclass(frozen=True)
class AllDegrees:
    """Sentinel for the zero polynomial, homogeneous of every degree."""


ALL_DEGREES = AllDegrees()


def homogeneous_degree(p: MultiPoly):
    """Common total degree of all terms, NotHomogeneous with a witness pair,
    or the ALL_DEGREES sentinel for the zero polynomial."""
    if p.is_zero():
        return ALL_DEGREES
    by_degree: dict[int, tuple] = {}
    for exps in p.terms:
        by_degree.setdefault(sum(exps), exps)
        if len(by_degree) > 1:
            (da, ta), (db, tb) = sorted(by_degree.items())[:2]
            return NotHomogeneous(term_a=ta, degree_a=da, term_b=tb, degree_b=db)
    return next(iter(by_degree))


def poly_eval(p: MultiPoly, x: RatMatrix) -> Fraction:
    """Evaluate at a concrete matrix (variable count must be n^2)."""
    if p.nvars != x.n * x.n:
        raise SympolyError(f"polynomial in {p.nvars} vars vs matrix size {x.n}")
    values = [e for row in x.rows for e in row]
    return p.eval(values)


def euler_residual(p: MultiPoly, degree: int) -> MultiPoly:
    """sum_i x_i * dp/dx_i - degree * p; zero iff p is homogeneous of that degree."""
    acc = MultiPoly(p.nvars)
    for idx in range(p.nvars):
        acc = acc + MultiPoly.variable(p.nvars, idx) * p.partial(idx)
    return acc - p.scale(degree)


def term_list_json(p: MultiPoly) -> list[dict]:
    """Canonical serialized term list (graded-lex order, wire rationals)."""
    return [
        {"coef": format_rational(coef), "exps": list(exps)}
        for exps, coef in p.sorted_terms()
    ]


def poly_from_term_list(nvars: int, items: Sequence[Mapping]) -> MultiPoly:
    terms: dict[tuple, Fraction] = {}
    for item in items:
        exps = tuple(int(e) for e in item["exps"])
        coef = parse_rational(item["coef"])
        terms[exps] = terms.get(exps, Fraction(0)) + coef
    return MultiPoly(nvars, terms)
