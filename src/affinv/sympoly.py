"""Sparse multivariate polynomials over the rationals in matrix-entry
variables, and the symbolic Krylov-row determinant.

Variables are the n^2 entries of a generic n x n matrix, ordered
x11, x12, ..., x1n, x21, ..., xnn; variable index of entry (i, j) is
(i-1)*n + (j-1) with 1-based (i, j).  Serialized term lists are sorted in
graded lexicographic order (total degree descending, then exponent tuple
descending), which keeps golden files byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from typing import Mapping

from .exactmat import _krylov_rows, format_rational

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
        """Rebuilds every term into a fresh dict: keeping the caller's dict
        expands D_5 faster but raises ``sympoly --n 5``'s peak RSS by 14 %."""
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

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[tuple, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return MultiPoly(self.nvars, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

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

    Rows are the Krylov rows of e_n for the generic matrix, built by the
    exact layer's row builder over MultiPoly entries.  The first row is e_n
    itself, so the n x n determinant collapses to a single (n-1) x (n-1)
    cofactor, which is then expanded recursively.  Guarded by ``n_max``
    (default 4, at most 5: D_6 does not fit in desk-scale memory) because the
    expansion is meant for desk-scale dimensions only.
    """
    bound = DEFAULT_N_MAX if n_max is None else n_max
    if bound > 5:
        raise FeasibilityBoundError(f"bound {bound} is above the ceiling 5")
    if n < 1:
        raise SympolyError(f"dimension {n} must be >= 1")
    if n > bound:
        raise FeasibilityBoundError(f"n = {n} exceeds the symbolic bound {bound}")
    nvars = n * n
    if n == 1:
        return MultiPoly.const(nvars, 1)
    e_n = [MultiPoly.const(nvars, int(j == n - 1)) for j in range(n)]
    rows = list(islice(chain.from_iterable(_krylov_rows([e_n], generic_matrix(n))), n))
    # expand along the first row e_n: single nonzero entry at column n,
    # cofactor sign (-1)^(1+n)
    minor = [r[: n - 1] for r in rows[1:]]
    det = _cofactor_det(minor, nvars)
    if n % 2 == 0:
        det = -det
    return det


def homogeneous_degree(p: MultiPoly) -> int | None:
    """Common total degree of all terms, or None for the zero polynomial and
    for one of mixed degree."""
    degrees = {sum(exps) for exps in p.terms}
    return degrees.pop() if len(degrees) == 1 else None


def term_list_json(p: MultiPoly) -> list[dict]:
    """Canonical serialized term list (graded-lex order, wire rationals)."""
    return [
        {"coef": format_rational(coef), "exps": list(exps)}
        for exps, coef in p.sorted_terms()
    ]

