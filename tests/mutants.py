"""The mutant catalogue: faults once planted by hand, which named tests must
catch.

Each entry is one small edit to one module of ``src/affinv``: anchor text
that occurs exactly once in it, its replacement, the test node ids that must
each fail on the edited tree, and the CHANGES.md line that first reported
the mutant.  Run from anywhere as

    python tests/mutants.py

It copies src/, tests/, pyproject.toml, README.md, BENCHMARK.json and
perfbench/ to a temporary directory (a README test reads the README; the
pool replays read perfbench/refs/ and perfbench's workloads and oracle),
checks that the unmutated copy passes every named test, then applies one
mutant at a time and runs only its tests with ``pytest -q -p
no:cacheprovider``.  It exits 1 when an anchor is stale, when the unmutated
copy fails a named test, or when a mutant survives: some named test passes
on it.  ``tests/test_mutants.py`` checks every anchor against the current
``src/`` in the tier-1 suite, so a refactor that moves an anchor's code
must update the catalogue with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md", "BENCHMARK.json", "perfbench")
TIMEOUT_S = 900  # per pytest run; a run that hangs has not passed its tests


class Mutant(NamedTuple):
    id: str
    file: str  # a module of src/affinv
    anchor: str  # occurs exactly once in the module
    replacement: str
    tests: tuple  # node ids that must each fail on the mutated tree
    reported: str  # the CHANGES.md line that first reported the mutant


# find_cyclic_row's two candidate loops, swapped by one mutant
_UNIT_ROWS = """\
    for i in range(n - 1):
        w = _unit_row(n, i)
        if _krylov_det(w, xq, cols):
            return w
"""
_RANDOM_ROWS = """\
    rng = random.Random(seed)
    m = 1
    for tries in range(MAX_TRIES):
        if tries and tries % 8 == 0:
            m *= 2
        w = tuple(rng.randint(-m, m) for _ in range(n))
        if any(w) and _krylov_det(w, xq, cols):
            return w
"""

MUTANTS = [
    Mutant(
        "shift-i-j-swapped",
        "calculus.py",
        "def _shifted_entries(x: list, i: int, j: int, h: float) -> tuple:",
        "def _shifted_entries(x: list, j: int, i: int, h: float) -> tuple:",
        (
            "tests/test_calculus.py::TestLieDerivative::test_hand_bracket_values",
            "tests/test_calculus.py::TestWeakDerivative::test_shifted_entries_equal_the_full_shift[2]",
            "tests/test_weak_oracle.py::test_estimate_lies_within_five_sigma_of_the_exact_value",
        ),
        "CHANGES.md:61",
    ),
    Mutant(
        "shift-minus-side-plus",
        "calculus.py",
        "plus[a][b], minus[a][b] = e + hv, e - hv",
        "plus[a][b], minus[a][b] = e + hv, e + hv",
        (
            "tests/test_calculus.py::TestLieDerivatives::test_table_matches_fd_directional_bit_for_bit[2]",
            "tests/test_calculus.py::TestWeakDerivative::test_shifted_entries_equal_the_full_shift[2]",
            "tests/test_cli.py::TestVerify::test_weak_suite_small",
        ),
        "CHANGES.md:36",
    ),
    Mutant(
        "difference-over-h",
        "calculus.py",
        "np.divide(row, 2.0 * h, out=row)",
        "np.divide(row, h, out=row)",
        (
            "tests/test_acceptance.py::test_criterion_08_finite_difference_gradients",
            "tests/test_calculus.py::TestFdDirectional::test_p2_gradient_pairing",
            "tests/test_float_digests.py::test_lemma_report_digest[2-0]",
        ),
        "CHANGES.md:69",
    ),
    Mutant(
        "plus-side-keeps-negative-zero",
        "calculus.py",
        "    points[0] += 0.0  # x + h * 0 turns a -0.0 entry into +0.0; x - h * 0 keeps it\n",
        "",
        (
            "tests/test_calculus.py::TestLieDerivatives::test_negative_zero_entry_reads_as_fd_directional_does[rows0-phi0-2-3-v0-0.0]",
        ),
        "CHANGES.md:69",
    ),
    Mutant(
        "dot-compensated",
        "calculus.py",
        "    total = 0.0\n    for c, d in zip(a, b):\n        total += c * d\n    return total\n",
        "    return math.fsum(c * d for c, d in zip(a, b))\n",
        (
            "tests/test_calculus.py::TestReducedSystem::test_dot_products_add_left_to_right",
            "tests/test_calculus.py::TestReducedSystem::test_float_powers_add_left_to_right",
            "tests/test_float_digests.py::test_lemma_report_digest[2-0]",
        ),
        "CHANGES.md:54",
    ),
    Mutant(
        "weak-sign-dropped",
        "calculus.py",
        "return -volume * mean, volume * np.sqrt(var / samples)",
        "return +volume * mean, volume * np.sqrt(var / samples)",
        (
            "tests/test_weak_oracle.py::test_estimate_lies_within_five_sigma_of_the_exact_value",
            "tests/test_weak_oracle.py::test_weak_suite_pairings_lie_within_five_sigma_of_their_exact_values",
        ),
        "CHANGES.md:61",
    ),
    Mutant(
        "bareiss-without-divisor",
        "exactmat.py",
        "row = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]",
        "row = [p * a - f * b for a, b in zip(row, pivot_row)]",
        (
            "tests/test_exactmat.py::TestDeterminant::test_matches_leibniz_oracle",
            "tests/test_exactmat.py::TestDeterminant::test_multiplicative",
            "tests/test_exactmat.py::TestInverse::test_round_trip",
        ),
        "CHANGES.md:23",
    ),
    Mutant(
        "inverse-first-pivot",
        "exactmat.py",
        "for _, row in reduced], pivots[-1]",
        "for _, row in reduced], pivots[0]",
        (
            "tests/test_exactmat.py::TestInverse::test_round_trip",
            "tests/test_exactmat_oracle.py::test_scaled_inverse_is_integer_and_matches_sympy",
            "tests/test_krylov.py::TestTransformationLaw::test_random_p_elements",
        ),
        "CHANGES.md:25",
    ),
    Mutant(
        "min-poly-fallback-without-pivot",
        "exactmat.py",
        "    if len(pivots) < n:\n        ident = ",
        "    if not pivots:\n        ident = ",
        (
            "tests/test_exactmat_oracle.py::test_min_poly_of_non_regular_matrices_takes_the_power_chain",
            "tests/test_krylov.py::test_non_regular_work_order[extra0-0]",
        ),
        "CHANGES.md:63",
    ),
    Mutant(
        "char-poly-without-1/k",
        "exactmat.py",
        "b.append(Fraction(-sum(b[k - i] * s[i - 1] for i in range(1, k + 1)), k))",
        "b.append(Fraction(-sum(b[k - i] * s[i - 1] for i in range(1, k + 1))))",
        (
            "tests/test_exactmat.py::TestCharPoly::test_diag_by_hand",
            "tests/test_exactmat.py::TestCharPoly::test_companion_recovers_its_polynomial",
            "tests/test_exactmat_oracle.py::test_char_poly_matches_sympy",
        ),
        "CHANGES.md:42",
    ),
    Mutant(
        "fast-path-admits-bool",
        "exactmat.py",
        "if not {int}.issuperset(map(type, chain.from_iterable(converted))):",
        "if not {int, bool}.issuperset(map(type, chain.from_iterable(converted))):",
        (
            "tests/test_exactmat.py::TestNormalForm::test_integral_entries_become_exactly_int[True]",
            "tests/test_exactmat_oracle.py::test_bool_entries_become_int",
        ),
        "CHANGES.md:66",
    ),
    Mutant(
        "bracket-wrong-row",
        "invariants.py",
        "for b, e in enumerate(x.rows[j - 1]):",
        "for b, e in enumerate(x.rows[i - 1]):",
        (
            "tests/test_exactmat_oracle.py::test_sparse_bracket_equals_dense_commutator",
            "tests/test_cli.py::TestVerify::test_identity_report_golden",
            "tests/test_calculus.py::TestWeakDerivative::test_divergence_free",
        ),
        "CHANGES.md:2",
    ),
    Mutant(
        "pk-without-1/k",
        "fields.py",
        "value = value * lift(Fraction(1, k))",
        "value = value * lift(1)",
        (
            "tests/test_fields.py::TestExactEvaluation::test_trace_power_node",
            "tests/test_calculus.py::TestEvalField::test_p2_value",
            "tests/test_cli.py::TestVerify::test_lemma_report_golden[cfg0-lemma_n2_s50_seed1.json-0]",
        ),
        "CHANGES.md:12",
    ),
    Mutant(
        "chain-order-sign-dropped",
        "krylov.py",
        "d_w = Fraction(_order_sign(pivots) * last, q ** (n * (n - 1) // 2))",
        "d_w = Fraction(last, q ** (n * (n - 1) // 2))",
        (
            "tests/test_cli.py::TestAnalyze::test_golden_outputs",
            "tests/test_exactmat_oracle.py::test_krylov_dependence_matches_sympy[companion]",
            "tests/test_exactmat_oracle.py::test_analyze_matches_sympy[companion]",
        ),
        "CHANGES.md:28",
    ),
    Mutant(
        "law-divisor-without-q",
        "krylov.py",
        "krylov_determinant(conjugated) / (q * s) ** (n * (n - 1) // 2)",
        "krylov_determinant(conjugated) / s ** (n * (n - 1) // 2)",
        (
            "tests/test_exactmat_oracle.py::test_transformation_law_matches_sympy[rational]",
        ),
        "CHANGES.md:66",
    ),
    Mutant(
        "random-rows-before-unit-rows",
        "krylov.py",
        _UNIT_ROWS + _RANDOM_ROWS,
        _RANDOM_ROWS + _UNIT_ROWS,
        (
            "tests/test_krylov.py::TestCyclicRowSearch::test_unit_row_before_random_rows",
            "tests/test_krylov.py::test_analyze_reproduces_the_recorded_digest",
            "tests/test_pool_replay.py::test_pool_outputs_match_the_captured_references[analyze-mix]",
        ),
        "CHANGES.md:34",
    ),
]


def stale_anchors(root: Path = ROOT) -> list:
    """The ids of the mutants whose anchor does not occur exactly once in
    their module under ``root``."""
    return [
        m.id
        for m in MUTANTS
        if (root / "src" / "affinv" / m.file).read_text().count(m.anchor) != 1
    ]


def _run(tree: Path, node_ids) -> tuple:
    """(pytest's exit code, None past TIMEOUT_S; the node ids, among
    ``node_ids``, that fail or error) for a run of ``node_ids`` in ``tree``.
    A run that hangs has passed none of its tests.  Bytecode is not cached,
    because a mutant of the same length and second as its original would
    reuse it."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE"]
    try:
        done = subprocess.run(
            argv + list(node_ids), cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, set(node_ids)
    # "FAILED <node id> - <message>" or "ERROR <path>": a collection error
    # fails every test of the file
    reported = [
        line.split()[1]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    failed = {t for t in node_ids if any(t == r or t.startswith(r + "::") for r in reported)}
    return done.returncode, failed


def main() -> int:
    stale = stale_anchors()
    for mutant_id in stale:
        print(f"STALE    {mutant_id}: its anchor does not occur exactly once")
    started = time.perf_counter()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="affinv-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source, target = ROOT / name, tree / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        # a test that fails, or is missing, on the unmutated tree kills nothing
        code, failed = _run(tree, sorted({t for m in MUTANTS for t in m.tests}))
        if code != 0:
            print(f"unmutated tree: pytest exit code {code}, failing {sorted(failed)}")
            return 1
        for m in MUTANTS:
            if m.id in stale:
                continue
            path = tree / "src" / "affinv" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.anchor, m.replacement))
            try:
                code, failed = _run(tree, m.tests)
            finally:
                path.write_text(original)
            passed = [t for t in m.tests if t not in failed]
            if passed:
                survivors.append(m.id)
                print(f"SURVIVED {m.id}")
                for t in passed:
                    print(f"         passes: {t}")
            else:
                print(f"killed   {m.id} by {len(m.tests)} tests{' (timeout)' * (code is None)}")
    print(
        f"{len(MUTANTS) - len(survivors) - len(stale)} of {len(MUTANTS)} mutants killed, "
        f"{len(stale)} stale, in {time.perf_counter() - started:.0f} s"
    )
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
