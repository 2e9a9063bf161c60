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
        if _is_cyclic(w, xq, cols):
            return w
"""
_RANDOM_ROWS = """\
    rng = random.Random(seed)
    m = 1
    for tries in range(MAX_TRIES):
        if tries and tries % 8 == 0:
            m *= 2
        w = tuple(rng.randint(-m, m) for _ in range(n))
        if any(w) and _is_cyclic(w, xq, cols):
            return w
"""

# cli._emit's two writes, swapped by one mutant: --out, then stdout
_EMIT_OUT = """\
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                _dump(payload, fh)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise _InputError(f"cannot write output: {exc}") from None
"""
_EMIT_STDOUT = """\
    if render is not None and args.markdown:
        sys.stdout.write(render(payload))
    elif not args.out:
        _dump(payload, sys.stdout)
"""
_IS_CYCLIC = "tests/test_exactmat_oracle.py::test_is_cyclic_matches_sympy_and_the_bareiss_chain"
_FIRST_CYCLIC = "tests/test_exactmat_oracle.py::test_find_cyclic_row_returns_the_first_cyclic_candidate"
_UNWRITABLE = "tests/test_cli.py::test_unwritable_out_exits_2_with_one_error_line"
_RATIONAL = "tests/test_cli.py::TestAnalyze::test_rational_beyond_ascii_p_or_p_over_q_exits_2"
_BAD_NUMERIC = "tests/test_cli.py::TestVerify::test_bad_numeric_config_exits_2_with_one_error_line"
_CLOSED_STDOUT = "tests/test_cli.py::test_closed_stdout_exits_141_without_a_traceback"
_TWIN = "tests/test_calculus.py::TestWeakDerivative::test_twin_diagonal_pair_equals_its_own_pass"
_TREE = "tests/test_calculus.py::TestWeakDerivative::test_leaf_sums_follow_numpys_pairwise_tree"
_LEAF_LIMIT = "tests/test_calculus.py::TestWeakDerivative::test_sums_do_not_depend_on_the_leaf_limit"
_PAIR_RANGE = "tests/test_calculus.py::TestWeakDerivative::test_pair_out_of_range_is_rejected"

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
        "weak-twin-not-negated",
        "calculus.py",
        "sums[:, :, twins] = sums[:, :, diagonal[:1]] * (-1.0, 1.0)",
        "sums[:, :, twins] = sums[:, :, diagonal[:1]]",
        (
            _TWIN + "[one-chunk]",
            _TWIN + "[twin-is-1-1]",
            "tests/test_calculus.py::TestWeakDerivative::test_one_pass_equals_single_calls",
            "tests/test_weak_oracle.py::test_the_twin_pair_reads_the_opposite_sign_of_the_1_1_pair",
        ),
        "CHANGES.md:82",
    ),
    Mutant(
        "weak-twin-at-n-3",
        "calculus.py",
        "if n == 2 and tuple(ij) in ((1, 1), (2, 2))",
        "if n in (2, 3) and tuple(ij) in ((1, 1), (2, 2))",
        ("tests/test_calculus.py::TestWeakDerivative::test_no_pair_has_a_twin_at_n_3",),
        "CHANGES.md:82",
    ),
    Mutant(
        "weak-leaf-sums-folded-left",  # QUAD_BLOCK-sample blocks added in order
        "calculus.py",
        "    half = count // 2 // 8 * 8\n"
        "    return _pairwise_tree(leaf, x[..., :half]) + _pairwise_tree(leaf, x[..., half:])\n",
        "    total = leaf(x[..., :QUAD_BLOCK])\n"
        "    for b in range(QUAD_BLOCK, count, QUAD_BLOCK):\n"
        "        total = total + leaf(x[..., b:b + QUAD_BLOCK])\n"
        "    return total\n",
        (
            _TREE + "[16385-16384]",
            _TREE + "[200000-16384]",
            _LEAF_LIMIT + "[whole-chunk]",
            "tests/test_float_digests.py::test_weak_report_digest[50000-3]",
        ),
        "CHANGES.md:85",
    ),
    Mutant(
        "weak-leaf-split-at-half",
        "calculus.py",
        "half = count // 2 // 8 * 8",
        "half = count // 2",
        (_TREE + "[50001-128]", _TREE + "[200000-128]", _LEAF_LIMIT + "[64-leaves]"),
        "CHANGES.md:85",
    ),
    Mutant(
        "weak-pair-range-unchecked",
        "calculus.py",
        "if i not in range(1, n + 1) or j not in range(1, n + 1):",
        "if False:",
        tuple(_PAIR_RANGE + f"[{ij}]" for ij in ("3-3", "0-5", "-1-1", "1.5-1")),
        "CHANGES.md:83",
    ),
    Mutant(
        "lie-derivatives-without-finite-check",
        "calculus.py",
        '    if not np.isfinite(points).all():\n'
        '        raise CalculusError(f"x +- hv leaves the float range at h = {h:g}")\n',
        "",
        (
            "tests/test_calculus.py::TestLieDerivatives::test_shift_out_of_float_range_is_rejected_at_points",
            "tests/test_calculus.py::TestLieDerivatives::test_shift_out_of_float_range_rejected",
            _BAD_NUMERIC + '[{"suite":"lemma","n":3,"samples":3,"seed":0,"fd":{"h":1.7e308}}]',
        ),
        "CHANGES.md:69",
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
        "    if len(pivots) < n:\n        return Fraction(0), None",
        "    if not pivots:\n        return Fraction(0), None",
        (
            "tests/test_exactmat_oracle.py::test_min_poly_of_non_regular_matrices_takes_the_power_chain",
            "tests/test_krylov.py::test_non_regular_work_order[extra0-0]",
        ),
        "CHANGES.md:63",
    ),
    Mutant(
        "cyclic-content-without-last-entry",
        "exactmat.py",
        "content = gcd(*row)",
        "content = gcd(*row[:-1])",
        (
            _IS_CYCLIC + "[integer]",
            _FIRST_CYCLIC + "[off_locus]",
            "tests/test_krylov.py::test_analyze_reproduces_the_recorded_digest",
        ),
        "CHANGES.md:76",
    ),
    Mutant(
        "cyclic-reduced-against-the-first-row-only",
        "exactmat.py",
        "        for c, b in stored:\n",
        "        for c, b in stored[:1]:\n",
        (
            _IS_CYCLIC + "[non_regular]",
            _IS_CYCLIC + "[off_locus]",
            _FIRST_CYCLIC + "[off_locus]",
        ),
        "CHANGES.md:76",
    ),
    Mutant(
        "cyclic-pivot-search-skips-column-1",
        "exactmat.py",
        "        for c in range(n):\n            if row[c]:\n",
        "        for c in range(1, n):\n            if row[c]:\n",
        (
            _IS_CYCLIC + "[off_locus]",
            "tests/test_krylov.py::TestCyclicRowSearch::test_unit_row_before_random_rows",
            "tests/test_pool_replay.py::test_pool_outputs_match_the_captured_references[analyze-mix]",
        ),
        "CHANGES.md:76",
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
        "return Const(Fraction(1, self.k))",
        "return Const(Fraction(1))",
        (
            "tests/test_fields.py::TestExactEvaluation::test_trace_power_node",
            "tests/test_calculus.py::TestEvalField::test_p2_value",
            "tests/test_cli.py::TestVerify::test_lemma_report_golden[cfg0-lemma_n2_s50_seed1.json-0]",
        ),
        "CHANGES.md:12",
    ),
    Mutant(
        "chain-order-sign-dropped",
        "exactmat.py",
        "Fraction(_order_sign(pivots) * last, q ** (n * (n - 1) // 2))",
        "Fraction(last, q ** (n * (n - 1) // 2))",
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
        "conjugated, r * q * s)",
        "conjugated, r * s)",
        (
            "tests/test_exactmat_oracle.py::test_transformation_law_matches_sympy[rational]",
        ),
        "CHANGES.md:66",
    ),
    Mutant(
        "law-divisor-without-r",  # a rational y scaled to r y, and D not divided by r
        "krylov.py",
        "conjugated, r * q * s)",
        "conjugated, q * s)",
        ("tests/test_krylov.py::TestTransformationLaw::test_rational_p_element",),
        "CHANGES.md:86",
    ),
    Mutant(
        "law-exponent-n-plus-1",
        "exactmat.py",
        "_det_rows(islice(rows, n), n), q ** (n * (n - 1) // 2)",
        "_det_rows(islice(rows, n), n), q ** (n * (n + 1) // 2)",
        (
            "tests/test_krylov.py::TestTransformationLaw::test_by_hand",
            "tests/test_exactmat_oracle.py::test_transformation_law_matches_sympy[integer]",
            "tests/test_cli.py::TestVerify::test_identity_report_golden",
        ),
        "CHANGES.md:66",
    ),
    Mutant(
        "law-conjugates-by-y-inverse",  # y^-1 x y in place of y x y^-1
        "krylov.py",
        "_matmul(_matmul(yr, xq), m)",
        "_matmul(_matmul(m, xq), yr)",
        (
            "tests/test_krylov.py::TestTransformationLaw::test_random_p_elements",
            "tests/test_krylov.py::TestTransformationLaw::test_companion_value",
            "tests/test_acceptance.py::test_criterion_04_homogeneity_and_relative_invariance",
        ),
        "CHANGES.md:66",
    ),
    Mutant(
        "pairing-powers-without-identity",  # x^1..x^n in place of x^0..x^(n-1)
        "krylov.py",
        "chain([RatMatrix.identity(n)], accumulate(repeat(x), mul, initial=x))",
        "accumulate(repeat(x), mul, initial=x)",
        (
            "tests/test_exactmat_oracle.py::test_pairing_matrix_matches_sympy",
            "tests/test_krylov.py::TestDeterminantD::test_agrees_with_pairing_construction",
            "tests/test_acceptance.py::test_criterion_02_determinant_consistency",
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
    Mutant(
        "memo-keeps-only-unshared-nodes",
        "fields.py",
        "    if key in memo:\n        memo[key] = value\n",
        "    if key not in memo:\n        memo[key] = value\n",
        (
            "tests/test_report.py::test_weak_suite_evaluates_each_wall_once_per_block_and_side",
            "tests/test_report.py::test_lemma_suite_evaluates_each_trace_power_once_per_family_and_side",
        ),
        "CHANGES.md:74",
    ),
    Mutant(
        "pk-one-product-too-many",
        "fields.py",
        "islice(_krylov_rows(entries, entries, cols), k - 2, None)",
        "islice(_krylov_rows(entries, entries, cols), k - 1, None)",
        (
            "tests/test_fields.py::TestExactEvaluation::test_trace_power_node",
            "tests/test_calculus.py::TestEvalField::test_p2_value",
            "tests/test_cli.py::TestVerify::test_lemma_report_golden[cfg0-lemma_n2_s50_seed1.json-0]",
        ),
        "CHANGES.md:74",
    ),
    Mutant(
        "tie-reads-the-first-row",
        "report.py",
        "tie = [r - dot(row, table[-1]) for r, row in zip(residuals, exact_rows)]",
        "tie = [r - dot(row, table[0]) for r, row in zip(residuals, exact_rows)]",
        (
            "tests/test_cli.py::TestVerify::test_lemma_suite_small",
            "tests/test_cli.py::TestVerify::test_lemma_report_golden[cfg0-lemma_n2_s50_seed1.json-0]",
            "tests/test_float_digests.py::test_lemma_report_digest[3-0]",
        ),
        "CHANGES.md:74",
    ),
    Mutant(
        "emit-stdout-before-out",
        "cli.py",
        _EMIT_OUT + _EMIT_STDOUT,
        _EMIT_STDOUT + _EMIT_OUT,
        (
            _UNWRITABLE + '[argv1-{"n":2,"entries":[["1","2"],["3","4"]]}-missing]',
            _UNWRITABLE + '[argv4-{"suite":"identity","n":1,"samples":1}-directory]',
        ),
        "CHANGES.md:74",
    ),
    Mutant(
        "stdout-flushed-at-interpreter-exit",
        "cli.py",
        "sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit",
        "pass",
        (
            _CLOSED_STDOUT + '[argv0-{"suite":"identity","n":1,"samples":1}-buffered]',
            _CLOSED_STDOUT + '[argv1-{"n":2,"entries":[["1","2"],["3","4"]]}-buffered]',
            _CLOSED_STDOUT + "[argv2--buffered]",
        ),
        "CHANGES.md:77",
    ),
    Mutant(
        "help-write-error-dropped",  # argparse's own writer, which drops an OSError
        "cli.py",
        "    def print_help(self, file=None):",
        "    def print_help_unused(self, file=None):",
        (_CLOSED_STDOUT + "[argv3--unbuffered]",),
        "CHANGES.md:82",
    ),
    Mutant(
        "rational-prefix-match",
        "exactmat.py",
        "not _RAT_RE.fullmatch(text)",
        "not _RAT_RE.match(text)",
        (
            _RATIONAL + "[5\\n]",
            _RATIONAL + "[1/2\\n]",
        ),
        "CHANGES.md:74",
    ),
    Mutant(
        "rational-unicode-digits",
        "exactmat.py",
        '_RAT_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")',
        '_RAT_RE = re.compile(r"[+-]?\\d+(/\\d+)?")',
        (
            _RATIONAL + "[\\u0663]",
            _RATIONAL + "[\\uff13]",
            _RATIONAL + "[\\u0661/\\u0662]",
        ),
        "CHANGES.md:74",
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
