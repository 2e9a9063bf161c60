"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines as they complete).  Sample counts, seeds, and
tolerances are pinned here; the library suites cover the same ground with
configurable parameters.
"""

import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from affinv.calculus import (
    FDConfig,
    FloatMatrix,
    abs_max,
    lie_derivatives,
    p_invariance_residual,
    reduced_system_check,
)
from affinv.exactmat import (
    RatMatrix,
    determinant,
    inverse,
    min_poly,
    power,
)
from affinv.fields import Pk, random_invariant_field
from affinv.invariants import basis_expansion_residual, trace_form
from affinv.krylov import (
    analyze,
    companion,
    companion_sign,
    homogeneity_check,
    in_omega,
    is_regular,
    krylov_determinant,
    pairing_determinant,
    transformation_law,
)
from affinv.report import _rand_matrix, _rand_p_element, run_weak_suite
from affinv.sympoly import homogeneous_degree, symbolic_krylov_determinant, var_index
from conftest import poly_at
from reference import fd_directional

GOLDEN = Path(__file__).parent / "golden"
MASTER_SEED = 20260811


def _report(num: int, label: str):
    print(f"ACCEPTANCE criterion {num:2d} ({label}): PASS", flush=True)


@pytest.fixture(scope="module")
def identity_samples():
    """200 seeded integer matrices per n in 1..5, shared by criteria 1-2."""
    rng = random.Random(MASTER_SEED)
    return {n: [_rand_matrix(rng, n) for _ in range(200)] for n in range(1, 6)}


def test_criterion_01_exact_identity_suite(identity_samples):
    start = time.monotonic()
    checked = 0
    for n, samples in identity_samples.items():
        for x in samples:
            for k in range(n):
                assert basis_expansion_residual(x, power(x, k).rows).is_zero(), (n, k, x)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s"
    assert checked == sum(200 * n for n in range(1, 6))
    _report(1, f"basis expansion exactly zero, {checked} checks in {elapsed:.1f}s")


def test_criterion_02_determinant_consistency(identity_samples):
    for samples in identity_samples.values():
        for x in samples:
            assert krylov_determinant(x) == pairing_determinant(x)
    _report(2, "Krylov-row and trace-pairing determinants agree exactly")


def test_criterion_03_companion_values():
    rng = random.Random(MASTER_SEED + 3)
    for n in range(1, 9):
        expected = companion_sign(n)
        for _ in range(20):
            alpha = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
            assert krylov_determinant(companion(alpha)) == expected
    _report(3, "companion determinant is (-1)^(n(n-1)/2) for n = 1..8")


def test_criterion_04_homogeneity_and_relative_invariance():
    rng = random.Random(MASTER_SEED + 4)
    for n in range(2, 6):
        for _ in range(100):
            x = _rand_matrix(rng, n)
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            d = krylov_determinant(x)
            lhs, rhs = homogeneity_check(x, t, d)
            assert lhs == rhs
            y = _rand_p_element(rng, n)
            ym = y.matrix
            a, b = transformation_law(x, y, d)
            assert a == b
            conj = ym * x * inverse(ym)
            assert in_omega(conj) == in_omega(x)
    _report(4, "homogeneity and mirabolic transformation law, exact")


def test_criterion_05_omega_in_regular_with_strictness():
    rng = random.Random(MASTER_SEED + 5)
    hits = 0
    for n in range(1, 6):
        for _ in range(100):
            x = _rand_matrix(rng, n)
            if in_omega(x):
                assert is_regular(x)
                hits += 1
    assert hits > 100
    for n in range(2, 7):
        j = RatMatrix(
            [[Fraction(int(b == a + 1)) for b in range(n)] for a in range(n)]
        )
        assert is_regular(j)
        assert krylov_determinant(j) == 0
    _report(5, "D != 0 implies regular; nilpotent Jordan blocks show strictness")


def _block_repeated_nonregular(rng, n):
    """Conjugated direct sum with a repeated companion block: the minimal
    polynomial degree drops below n by construction."""
    d = rng.randint(1, n // 2)
    q = [Fraction(rng.randint(-4, 4)) for _ in range(d)]
    blocks = [companion(q), companion(q)]
    if n - 2 * d:
        blocks.append(
            companion([Fraction(rng.randint(-4, 4)) for _ in range(n - 2 * d)])
        )
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for blk in blocks:
        for a in range(blk.n):
            for b in range(blk.n):
                rows[offset + a][offset + b] = blk.entry(a + 1, b + 1)
        offset += blk.n
    m = RatMatrix(rows)
    while True:
        g = _rand_matrix(rng, n, -3, 3)
        if determinant(g) != 0:
            return g * m * inverse(g)


def test_criterion_06_saturation():
    rng = random.Random(MASTER_SEED + 6)
    for n in (2, 3, 4):
        done = 0
        while done < 100:
            x = _rand_matrix(rng, n)
            if len(min_poly(x)) - 1 < n:
                continue
            g = analyze(x, conjugate=True, seed=rng.randint(0, 1 << 30)).conjugator
            assert determinant(g) != 0
            assert in_omega(g * x * inverse(g))
            done += 1
        for _ in range(100):
            x = _block_repeated_nonregular(rng, n)
            assert not is_regular(x)
            res = analyze(x, conjugate=True, seed=rng.randint(0, 1 << 30))
            assert not res.regular and res.conjugator is None
            assert len(res.min_poly) - 1 < n
    _report(6, "regular matrices conjugate into the locus; non-regular never do")


def test_criterion_07_symbolic_layer():
    rng = random.Random(MASTER_SEED + 7)
    d2 = symbolic_krylov_determinant(2)
    assert d2.terms == {(0, 0, 1, 0): Fraction(-1)}
    d3 = symbolic_krylov_determinant(3)
    e = lambda i, j: var_index(3, i, j)
    expected3 = {}
    for pairs, coef in [
        ([(e(1, 2), 1), (e(3, 1), 2)], 1),
        ([(e(2, 2), 1), (e(3, 1), 1), (e(3, 2), 1)], 1),
        ([(e(1, 1), 1), (e(3, 1), 1), (e(3, 2), 1)], -1),
        ([(e(2, 1), 1), (e(3, 2), 2)], -1),
    ]:
        exps = [0] * 9
        for idx, k in pairs:
            exps[idx] += k
        expected3[tuple(exps)] = Fraction(coef)
    assert d3.terms == expected3
    for n, deg in [(1, 0), (2, 1), (3, 3), (4, 6)]:
        p = symbolic_krylov_determinant(n)
        assert homogeneous_degree(p) == deg
        for _ in range(50):
            x = _rand_matrix(rng, n)
            value = poly_at(p, x)
            assert value == krylov_determinant(x)
            assert poly_at(p, x, euler=True) == deg * value
    _report(7, "symbolic determinant: goldens, degrees, Euler, exact agreement")


def test_criterion_08_finite_difference_gradients():
    rng = random.Random(MASTER_SEED + 8)

    def sample(k):
        while True:
            n = rng.choice([2, 3])
            x = _rand_matrix(rng, n, -2, 2)
            v = _rand_matrix(rng, n, -2, 2)
            exact = float(trace_form(power(x, k - 1), v))
            if abs(exact) >= 0.5:
                return x, v, exact

    for k in (1, 2, 3, 4):
        for _ in range(30):
            x, v, exact = sample(k)
            got = fd_directional(Pk(k), FloatMatrix(x.rows), FloatMatrix(v.rows), FDConfig(h=1e-5))
            assert abs(got - exact) / abs(exact) <= 1e-6
    # halving check in the truncation-dominated regime (k <= 2 is exact for
    # central differences, so only k = 3, 4 carry an O(h^2) term)
    for k in (3, 4):
        err_h = err_half = 0.0
        for _ in range(25):
            x, v, exact = sample(k)
            fx, fv = FloatMatrix(x.rows), FloatMatrix(v.rows)
            err_h += abs(fd_directional(Pk(k), fx, fv, FDConfig(h=1e-3)) - exact)
            err_half += abs(fd_directional(Pk(k), fx, fv, FDConfig(h=5e-4)) - exact)
        assert 3.5 <= err_h / err_half <= 4.5
    _report(8, "gradient of tr(x^k)/k matches x^(k-1) pairing; O(h^2) decay")


def test_criterion_09_lemma_harness():
    rng = random.Random(MASTER_SEED + 9)
    cfg = FDConfig()
    for n in (2, 3):
        fields = [random_invariant_field(n, rng) for _ in range(20)]
        points = []
        while len(points) < 50:
            x = _rand_matrix(rng, n, -2, 2)
            abs_d = abs(float(krylov_determinant(x)))
            if abs_d >= 0.1:
                points.append((x, abs_d))
        for x, abs_d in points:
            fx = FloatMatrix(x.rows)
            for table in lie_derivatives(fields, fx, cfg):
                assert p_invariance_residual(table) <= 1e-6
                residuals = reduced_system_check(table, fx, abs_d, cfg)
                assert max(abs(s) for s in table[-1]) <= 1e-5
                assert abs_max(table[-1]) <= cfg.tau_lemma
                assert abs_max(residuals) <= cfg.tau_sys
    _report(9, "invariant fields: last-row Lie derivatives vanish on |D| >= 0.1")


def test_criterion_10_weak_form():
    start = time.monotonic()
    report = run_weak_suite(1_000_000, seed=4)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"weak suite took {elapsed:.1f}s"
    by_name = {p["name"]: p for p in report["properties"]}
    assert by_name["invariant_density_weak_zero"]["failures"] == 0
    assert by_name["invariant_density_weak_zero"]["checked"] == 20
    assert by_name["lebesgue_weak_zero"]["failures"] == 0
    assert by_name["noninvariant_density_detected"]["failures"] == 0
    assert by_name["noninvariant_density_detected"]["worst_residual"] > 5.0
    assert report["pass"]
    _report(10, f"weak-form checks at 1e6 samples in {elapsed:.1f}s")


def test_criterion_11_cli_determinism(tmp_path, monkeypatch, capsys):
    from affinv.cli import main
    from affinv.report import run_suite_from_config

    cfg = {"suite": "identity", "n": 3, "samples": 25, "seed": 13}
    a = run_suite_from_config(cfg)
    b = run_suite_from_config(cfg)
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True).encode() == json.dumps(b, sort_keys=True).encode()

    cases = [
        ('{"n":2,"entries":[["1","2"],["3","4"]]}', "analyze_generic_2x2.json"),
        ('{"n":2,"entries":[["0","1"],["1","1"]]}', "analyze_companion_n2.json"),
    ]
    for stdin_text, golden in cases:
        target = tmp_path / golden
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        assert main(["analyze", "-", "--out", str(target)]) == 0
        assert target.read_bytes() == (GOLDEN / golden).read_bytes()
    for n in (1, 2, 3):
        target = tmp_path / f"sympoly_n{n}.json"
        assert main(["sympoly", "--n", str(n), "--out", str(target)]) == 0
        assert target.read_bytes() == (GOLDEN / f"sympoly_n{n}.json").read_bytes()
    capsys.readouterr()
    _report(11, "seeded reports byte-identical; golden files reproduced")


# analyze outputs: with --conjugate, ones that run the random-row search (e_n
# and every other unit row fail on these off-locus inputs), a rational input,
# the exit-3 message of a non-regular input and one --markdown rendering;
# without it, the char_poly of a nilpotent and of a rational non-regular input
# (a Jordan form conjugated by a p/q matrix in P): input stem, extra argv, exit
# code, golden file (stdout, or stderr on exit 3)
SEARCH_GOLDENS = [
    ("analyze_offlocus_n6", ["--conjugate"], 0, "analyze_offlocus_n6.json"),
    ("analyze_offlocus_n6", ["--conjugate", "--markdown"], 0, "analyze_offlocus_n6.md"),
    ("analyze_offlocus_n12", ["--conjugate", "--seed", "7"], 0, "analyze_offlocus_n12.json"),
    ("analyze_rational_n5", ["--conjugate"], 0, "analyze_rational_n5.json"),
    ("analyze_nonregular_n5", ["--conjugate"], 3, "analyze_nonregular_n5.stderr"),
    ("analyze_nonregular_n5", [], 0, "analyze_nonregular_n5.json"),
    ("analyze_nonregular_rational_n5", [], 0, "analyze_nonregular_rational_n5.json"),
]


@pytest.mark.parametrize("stem, extra, code, golden", SEARCH_GOLDENS)
def test_conjugator_search_goldens(stem, extra, code, golden, monkeypatch, capsys):
    from affinv.cli import main

    stdin_text = (GOLDEN / f"{stem}.input.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    assert main(["analyze", "-", *extra]) == code
    out, err = capsys.readouterr()
    expected = (GOLDEN / golden).read_text()
    assert (out, err) == ((expected, "") if code == 0 else ("", expected))
    if golden.endswith(".json") and "--conjugate" in extra:
        # the cyclic row found is not a unit row
        last_row = json.loads(out)["conjugator"]["entries"][-1]
        assert [e for e in last_row if e != "0"] != ["1"]
