import math
import numbers
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from affinv import calculus, exactmat, fields, invariants, krylov, report
from affinv.exactmat import matrix_from_json, power
from affinv.fields import Add, Const, Mul, Pk, Pow, Var
from affinv.report import PropertyRecord


class TestPropertyRecord:
    def test_residual_within_tolerance_passes(self):
        rec = PropertyRecord("p")
        rec.check_residual(0.5, 1.0, {"k": 0})
        rec.check_residual(1.0, 1.0, {"k": 1})
        assert (rec.checked, rec.failures, rec.witness) == (2, 0, None)
        assert rec.worst_residual == 1.0

    def test_nan_residual_fails_with_witness(self):
        rec = PropertyRecord("p")
        rec.check_residual(0.5, 1.0, {"k": 0})
        rec.check_residual(math.nan, 1.0, {"k": 1})
        rec.check_residual(2.0, 1.0, {"k": 2})
        assert (rec.checked, rec.failures) == (3, 2)
        assert rec.witness == {"k": 1}

    def test_nan_after_finite_is_the_worst_residual(self):
        rec = PropertyRecord("p")
        rec.check_residual(0.5, 1.0, {"k": 0})
        rec.check_residual(math.nan, 1.0, {"k": 1})
        assert rec.failures == 1
        assert math.isnan(rec.worst_residual)

    def test_nan_before_finite_stays_the_worst_residual(self):
        rec = PropertyRecord("p")
        rec.check_residual(math.nan, 1.0, {"k": 0})
        rec.check_residual(0.5, 1.0, {"k": 1})
        assert rec.failures == 1
        assert math.isnan(rec.worst_residual)


def test_identity_suite_computes_d_once_per_sample_and_det_once_per_p_element(
    monkeypatch,
):
    chains, dependence, det_args, p_elements = [], [], [], []
    chain, cyclic, dep = krylov._krylov_det, krylov._is_cyclic, krylov._krylov_dependence
    det, rand_p = krylov.determinant, report._rand_p_element

    def counted_chain(w, xq):
        chains.append((w, chain(w, xq)))
        return chains[-1][1]

    def counted_cyclic(w, xq, cols=None):
        chains.append((w, cyclic(w, xq, cols)))
        return chains[-1][1]

    def counted_dependence(w, x):
        dependence.append(w)
        return dep(w, x)

    def counted_det(x):
        det_args.append(x)
        return det(x)

    def recorded_p_element(rng, n):
        p_elements.append(rand_p(rng, n))
        return p_elements[-1]

    def forbidden(*args):
        raise AssertionError("the identity suite must not call this")

    monkeypatch.setattr(krylov, "_krylov_det", counted_chain)
    monkeypatch.setattr(krylov, "_is_cyclic", counted_cyclic)
    monkeypatch.setattr(krylov, "_krylov_dependence", counted_dependence)
    monkeypatch.setattr(krylov, "determinant", counted_det)
    monkeypatch.setattr(report, "_rand_p_element", recorded_p_element)
    # no power from scratch, no rational inverse, no minimal polynomial
    for name in ("power", "inverse", "min_poly"):
        for module in (exactmat, krylov, invariants, report):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert report.run_identity_suite(4, 3, 7)["pass"]
    # per sample: D(x), D(t x), D(y x y^-1), the probe row's chain when
    # D(x) != 0 (the regularity test) and D of the companion matrix
    e_n, probe = (0, 0, 0, 1), exactmat._probe_row(4)
    rows, expected = [w for w, _ in chains], []
    while len(expected) < len(chains):
        d_x = chains[len(expected)][1]  # the sample's first chain is D(x)
        expected += [e_n] * 3 + [probe] * (d_x != 0) + [e_n]
    assert rows == expected
    assert rows.count(e_n) == 12 and 0 < rows.count(probe) <= 3
    assert dependence == []  # no characteristic polynomial is read from them
    assert len(p_elements) == 3
    assert [sum(a is y.matrix for a in det_args) for y in p_elements] == [1, 1, 1]


def _failing(report_, name):
    (record,) = [p for p in report_["properties"] if p["name"] == name]
    assert record["failures"] > 0 and record["witness"] is not None
    return record["witness"]


def test_basis_expansion_with_a_sign_flipped_bracket_fails_with_a_witness(monkeypatch):
    def flipped(acc, x, i, j, coef):  # -E_ij x - x E_ij in place of [E_ij, x]
        for b, e in enumerate(x.rows[j - 1]):
            acc[i - 1][b] -= coef * e
        for acc_row, x_row in zip(acc, x.rows):
            acc_row[j - 1] -= coef * x_row[i - 1]

    monkeypatch.setattr(invariants, "_add_basis_bracket", flipped)
    witness = _failing(report.run_identity_suite(3, 3, 0), "basis_expansion_zero")
    x = matrix_from_json(witness["matrix"])
    xk = power(x, witness["k"]).rows
    assert not invariants.basis_expansion_residual(x, xk).is_zero()
    monkeypatch.undo()
    assert invariants.basis_expansion_residual(x, xk).is_zero()


@pytest.mark.parametrize(
    "check, name",
    [
        ("homogeneity_check", "homogeneity_degree"),
        ("transformation_law", "mirabolic_transformation_law"),
    ],
)
def test_a_wrong_d_handed_to_a_check_fails_with_a_witness(check, name, monkeypatch):
    true_check = getattr(report, check)
    monkeypatch.setattr(report, check, lambda x, other, d: true_check(x, other, d + 1))
    witness = _failing(report.run_identity_suite(3, 3, 0), name)
    x = matrix_from_json(witness["matrix"])
    if "t" in witness:
        other = Fraction(witness["t"])
    else:
        other = krylov.PGroupElement(matrix=matrix_from_json(witness["y"]))
    d = krylov.krylov_determinant(x)
    lhs, rhs = true_check(x, other, d)
    assert lhs == rhs
    lhs, rhs = true_check(x, other, d + 1)
    assert lhs != rhs


def test_weak_suite_draws_each_chunk_once_for_all_test_functions(monkeypatch):
    # one 200,000-sample chunk: one boundary stream shared by the five test
    # functions and one sampling stream.  Fields are evaluated as families:
    # the test functions once on the interior and once on the shell
    # samples, then per block of the chunk (13 of QUAD_BLOCK = 16,384
    # samples) the densities once and the test functions at the two
    # shifted points of three of the four pairs, (2, 2) being the twin of
    # (1, 1) at n = 2: 2 + 13 + 13 * 3 * 2 = 93
    counts = {"default_rng": 0, "evaluate_on_entries": 0, "weak_lie_derivative": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        np.random, "default_rng", counted("default_rng", np.random.default_rng)
    )
    monkeypatch.setattr(
        calculus,
        "evaluate_on_entries",
        counted("evaluate_on_entries", calculus.evaluate_on_entries),
    )
    monkeypatch.setattr(
        report,
        "weak_lie_derivative",
        counted("weak_lie_derivative", report.weak_lie_derivative),
    )
    report.run_weak_suite(200_000, 0)
    assert calculus.QUAD_BLOCK == 16_384
    assert counts == {"default_rng": 2, "evaluate_on_entries": 93, "weak_lie_derivative": 1}


def test_lemma_suite_runs_each_check_through_its_public_routine(monkeypatch):
    # n = 3, two points: one family of tables per point for the 20
    # invariant fields and the arbitrary one; the P-invariance and
    # reduced-system checks per invariant field, the contraction identity
    # per k = 0..2
    names = (
        "lie_derivatives",
        "p_invariance_residual",
        "reduced_system_check",
        "full_identity_residual",
    )
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(report, name, counted(name, getattr(report, name)))
    report.run_lemma_suite(3, 2, 0)
    assert counts == {
        "lie_derivatives": 2,
        "p_invariance_residual": 40,
        "reduced_system_check": 40,
        "full_identity_residual": 6,
    }


def _computations(monkeypatch) -> Counter:
    """Counts, by node object, the evaluations that the memo of a family
    call does not answer: the memo maps a shared node's id to None until it
    is evaluated and to its value after, and holds no entry for a node that
    occurs once."""
    computed = Counter()
    evaluate = fields._evaluate_node

    def counted(node, entries, lift, memo):
        if memo.get(id(node)) is None:
            computed[id(node)] += 1
        return evaluate(node, entries, lift, memo)

    monkeypatch.setattr(fields, "_evaluate_node", counted)
    return computed


def _recorded(monkeypatch, module, name) -> list:
    """The return values of module.name during the test, kept alive so that
    node identities stay unique."""
    returned, fn = [], getattr(module, name)

    def recording(*args, **kwargs):
        returned.append(fn(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, name, recording)
    return returned


def test_weak_suite_evaluates_each_wall_once_per_block_and_side(monkeypatch):
    # the five test functions share their four wall factors as node
    # objects: each wall is evaluated once on the interior and once on the
    # shell samples, then once per block (13), evaluated pair (3: (2, 2)
    # is the twin of (1, 1) at n = 2) and side (2) of the 200,000-sample
    # chunk: 2 + 13 * 3 * 2 = 80
    computed = _computations(monkeypatch)
    built = _recorded(monkeypatch, report, "weak_test_functions")
    report.run_weak_suite(200_000, 0)
    (psis,) = built
    walls = psis[0].args[-4:]
    assert all(a is b for psi in psis for a, b in zip(psi.args[-4:], walls))
    assert [computed[id(w)] for w in walls] == [2 + 13 * 3 * 2] * 4


def test_lemma_suite_evaluates_each_trace_power_once_per_family_and_side(monkeypatch):
    # n = 3, two points: each p_k and each power p_k^e is one node object,
    # shared by the 20 invariant fields, so each is evaluated once per
    # point and side of the central difference
    computed = _computations(monkeypatch)
    fields_ = _recorded(monkeypatch, report, "random_invariant_field")
    report.run_lemma_suite(3, 2, 0)
    assert len(fields_) == report.LEMMA_FIELDS
    shared = {}
    for field in fields_:
        for node in _nodes(field):
            if isinstance(node, Pk) or isinstance(node, Pow) and isinstance(node.base, Pk):
                shared.setdefault(node, node)
                assert shared[node] is node
    assert len(shared) == 5  # p_1, p_2, p_3, p_1^2 and p_1^3
    assert [computed[id(node)] for node in shared] == [4] * 5


@pytest.mark.parametrize(
    "run",
    [lambda: report.run_weak_suite(200_000, 0), lambda: report.run_lemma_suite(3, 2, 0)],
    ids=["weak", "lemma-n3"],
)
def test_each_constant_is_lifted_to_float_once_per_node(monkeypatch, run):
    # a float evaluation reads the float of each Const, of each Pk(k)'s 1/k
    # and of the 0 and 1 that start sums and empty products from the node,
    # which converts it at its first use: at most one float(Fraction) per
    # such node of the evaluated families (lifting at every evaluation made
    # 1,668 conversions on this weak request and 248 on this lemma one);
    # ``nodes`` keeps each node alive, so that no two share an id
    nodes = {id(node): node for node in (fields._ZERO, fields._ONE)}
    conversions, evaluating = [], []
    evaluate = calculus.evaluate_on_entries

    def recording(family, entries, lift=float):
        family = list(family)
        for field in family:
            nodes.update((id(n), n) for n in _nodes(field) if isinstance(n, (Const, Pk)))
        evaluating.append(family)
        try:
            return evaluate(family, entries, lift)
        finally:
            evaluating.pop()

    def counted(q):
        if evaluating:
            conversions.append(q)
        return numbers.Rational.__float__(q)

    monkeypatch.setattr(calculus, "evaluate_on_entries", recording)
    monkeypatch.setattr(Fraction, "__float__", counted)
    run()
    assert len(conversions) <= len(nodes)


def _nodes(field):
    yield field
    for child in getattr(field, "args", ()) + ((field.base,) if isinstance(field, Pow) else ()):
        yield from _nodes(child)


def _weak_with_density(monkeypatch, density) -> dict:
    """The weak suite at 200,000 samples, seed 1, with ``density`` in place
    of the invariant density."""
    monkeypatch.setattr(report, "invariant_density", lambda n=2: density)
    return report.run_weak_suite(200_000, 1)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: these degree-2 densities pass the weak suite, which "
    "cannot tell them from an invariant density with its five test functions",
)
@pytest.mark.parametrize(
    "density",
    [
        Add([Const(1), Pow(Var(1, 1), 2)]),
        Add([Const(1), Mul([Var(1, 1), Var(2, 2)])]),
    ],
    ids=["1+x11^2", "1+x11*x22"],
)
def test_weak_suite_rejects_a_degree_two_noninvariant_density(monkeypatch, density):
    assert not _weak_with_density(monkeypatch, density)["pass"]


def test_weak_suite_rejects_the_noninvariant_density_one_plus_x12(monkeypatch):
    result = _weak_with_density(monkeypatch, Add([Const(1), Var(1, 2)]))
    (record,) = [p for p in result["properties"] if p["name"] == "invariant_density_weak_zero"]
    assert not result["pass"] and record["failures"] > 0 and record["worst_residual"] > 10
