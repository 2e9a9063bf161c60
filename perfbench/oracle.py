"""Correctness oracle, run after the timed loop.

Every response is compared with the reference captured for its request id
(``refs/<workload>.json``):

* exact outputs (identity reports, analyze JSON, sympoly term lists) must
  match byte for byte, ignoring ``timestamp``;
* float reports (lemma, weak) must match exactly in everything except the
  ``worst_residual`` numbers, that is ``pass``, every ``checked`` and
  ``failures`` count and whether a witness is present; each residual must
  agree within REL_TOL relative, plus TOL_SHARE of the property's own
  tolerance, so that re-ordered float accumulation is not a failure;
* every analyze response is also checked against sympy, which shares no
  code with affinv: D is the determinant of the Krylov rows, char_poly is
  sympy's, a returned conjugator g is invertible with D(g x g^-1) != 0, and
  exit code 3 is returned exactly when I, x, ..., x^(n-1) are dependent.

``check`` returns a list of problems; an empty list means the response is
correct.  Any problem makes the request count as failed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import build, format_rational

REFS_DIR = Path(__file__).resolve().parent / "refs"

REL_TOL = 1e-6
TOL_SHARE = 1e-2
# the pass/fail tolerance of each float property (report.py and FDConfig)
PROPERTY_TOL = {
    "p_invariance_of_invariant_fields": 1e-6,
    "last_row_derivatives_vanish": 1e-5,
    "reduced_system_residuals": 1e-5,
    "float_residuals_tie_to_exact_krylov": 1e-10,
    "full_identity_arbitrary_fields": 1e-5,
    "invariant_density_weak_zero": 1.0,
    "lebesgue_weak_zero": 1.0,
    "noninvariant_density_detected": 5.0,
}
FLOAT_KINDS = ("lemma", "weak")


def load_refs(workload: str) -> dict:
    with open(REFS_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["items"]


def float_summary(text: str) -> dict:
    """The parts of a float report that the oracle compares."""
    rep = json.loads(text)
    rep.pop("timestamp", None)
    props = []
    for p in rep["properties"]:
        props.append(
            [p["name"], p["checked"], p["failures"], p["witness"] is not None,
             p["worst_residual"]]
        )
        if not isinstance(p["worst_residual"], str):
            p["worst_residual"] = "float"
    struct = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    return {"pass": rep["pass"], "props": props, "struct": struct}


def reference(req, resp: dict) -> dict:
    """The reference record for one captured response."""
    ref = {"req": req.digest(), "exit": resp["exit"], "out": resp["digest"]}
    if req.kind in FLOAT_KINDS:
        ref.update(float_summary(resp["stdout"]))
        del ref["out"]
    return ref


def _close(a, b, name: str) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    slack = REL_TOL * max(abs(a), abs(b)) + TOL_SHARE * PROPERTY_TOL.get(name, 0.0)
    return abs(a - b) <= slack


def _check_float(text: str, ref: dict) -> list[str]:
    got = float_summary(text)
    problems = []
    if got["pass"] != ref["pass"]:
        problems.append(f"pass is {got['pass']}, reference {ref['pass']}")
    if len(got["props"]) != len(ref["props"]):
        return problems + ["property list differs from the reference"]
    for g, r in zip(got["props"], ref["props"]):
        name = r[0]
        if g[:4] != r[:4]:
            problems.append(
                f"{name}: (name, checked, failures, witness) {g[:4]} != reference {r[:4]}"
            )
        elif not _close(g[4], r[4], name):
            problems.append(f"{name}: worst_residual {g[4]!r} != reference {r[4]!r}")
    if not problems and got["struct"] != ref["struct"]:
        problems.append("report differs from the reference outside the residuals")
    return problems


# ------------------------------------------------------------ sympy checks


def _frac(text) -> Fraction:
    return Fraction(text) if isinstance(text, str) else Fraction(int(text))


def _dm(rows):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = len(rows)
    return DomainMatrix(
        [[QQ(e.numerator, e.denominator) for e in row] for row in rows], (n, n), QQ
    )


def _krylov_det(x):
    """det of the rows e_n, e_n x, ..., e_n x^(n-1), built in sympy."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = x.shape[0]
    row = DomainMatrix([[QQ(int(j == n - 1)) for j in range(n)]], (1, n), QQ)
    rows = []
    for _ in range(n):
        rows.append(row)
        row = row * x
    return DomainMatrix.vstack(*rows).det()


def _powers_rank(x) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = x.shape[0]
    p = DomainMatrix.eye(n, QQ).to_dense()
    flat = []
    for _ in range(n):
        flat.append([e for row in p.to_list() for e in row])
        p = p * x
    return DomainMatrix(flat, (n, n * n), QQ).rank()


def _fmt(q) -> str:
    return format_rational(Fraction(int(q.numerator), int(q.denominator)))


def check_analyze(req, code, text: str) -> list[str]:
    """Problems sympy finds with one analyze response (exit code, stdout)."""
    matrix = json.loads(req.stdin)
    x = _dm([[_frac(e) for e in row] for row in matrix["entries"]])
    n = matrix["n"]
    regular = _powers_rank(x) == n
    if code == 3:
        return [] if not regular else ["exit 3 on a regular matrix"]
    if code != 0:
        return [f"exit {code}"]
    if not regular:
        return ["exit 0 on a non-regular matrix (powers of x are dependent)"]
    out = json.loads(text)
    problems = []
    d = _krylov_det(x)
    if _frac(out["D"]) != Fraction(int(d.numerator), int(d.denominator)):
        problems.append(f"D {out['D']} != sympy {_fmt(d)}")
    if out["in_omega"] != (d != 0):
        problems.append("in_omega disagrees with sympy D")
    if out["regular"] is not True:
        problems.append("regular is not true on a regular matrix")
    char = [_fmt(c) for c in reversed(x.charpoly())]
    if out["char_poly"] != char:
        problems.append(f"char_poly {out['char_poly']} != sympy {char}")
    if out["min_poly"] != char:  # regular: minimal = characteristic polynomial
        problems.append("min_poly differs from the characteristic polynomial")
    g = out["conjugator"]
    if g is None:
        problems.append("no conjugator although --conjugate was given")
    else:
        gm = _dm([[_frac(e) for e in row] for row in g["entries"]])
        if gm.det() == 0:
            problems.append("conjugator is singular")
        elif _krylov_det(gm * x * gm.inv()) == 0:
            problems.append("D(g x g^-1) = 0 for the returned conjugator")
    return problems


def check(resp: dict, ref: dict | None, verified: dict | None = None) -> list[str]:
    """Problems with one response; ``verified`` memoises the sympy checks
    of (id, digest) pairs already found correct in this run."""
    req = build(resp["id"])
    if ref is None:
        return [f"no reference for {resp['id']}"]
    if ref["req"] != req.digest():
        return ["request generator changed since the reference was captured"]
    if resp["error"]:
        return [f"raised {resp['error']}"]
    if resp["exit"] != ref["exit"]:
        return [f"exit {resp['exit']}, reference {ref['exit']}"]
    if req.kind in FLOAT_KINDS:
        return _check_float(resp["stdout"], ref)
    if resp["digest"] != ref["out"]:
        return ["output differs from the reference (ignoring timestamp)"]
    if req.kind == "analyze":
        key = (resp["id"], resp["digest"])
        if verified is not None and key in verified:
            return []
        problems = check_analyze(req, resp["exit"], resp["stdout"])
        if verified is not None and not problems:
            verified[key] = True
        return problems
    return []
