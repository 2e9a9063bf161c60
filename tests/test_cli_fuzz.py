"""Derandomised CLI fuzz test of the exit-code contract.

``analyze`` gets small matrices (n <= 5), diagonal ones among them (off the
locus, and not regular when an entry repeats), whose JSON is mutated: ragged
rows, bools, floats, ``p/0``, long digit strings under the int
string-conversion limit, wrong ``n``, extra keys and truncated text.
``verify`` gets small configs (n <= 3, samples <= 3, weak samples <= 2000)
with wrong types, out-of-range values (among them n and samples one past the
suite's upper bound, which must be refused before anything runs), unknown
keys and bad sections.
Whatever the input, the exit code is 0, 1, 2 or 3; stderr never holds a
traceback; exit 2 (and exit 3, a non-regular matrix under ``--conjugate``)
comes with exactly one ``error:`` line and nothing else, exits 0 and 1 with
an empty stderr; and exit 1 happens exactly when a report says
``"pass": false``.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from affinv.cli import main  # noqa: E402
from affinv.report import _SUITE_KEYS  # noqa: E402

FUZZ = settings(deadline=None, derandomize=True)

_entry = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9)),
)
_bad_entry = st.one_of(
    st.booleans(),
    st.floats(-10, 10, allow_nan=False),
    st.integers(-9, 9).map(lambda p: f"{p}/0"),
    st.integers(1, 4300).map(lambda k: "7" * k),  # within the digit limit
    st.integers(1, 4300).map(lambda k: int("7" * k)),  # a bare JSON number
    st.sampled_from(["", "1.5", "x", "1/-2", None]),
)


MUTATIONS = ["none", "diagonal", "entry", "ragged", "n", "extra_key", "truncate"]


@st.composite
def analyze_inputs(draw, mutation):
    """(argv, stdin text) for one analyze call with the named mutation."""
    n = draw(st.integers(1, 5))
    entries = draw(st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n))
    doc = {"n": n, "entries": entries}
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if mutation == "diagonal":  # off the locus; not regular if an entry repeats
        diag = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        doc["entries"] = [[str(diag[a]) if a == b else "0" for b in range(n)] for a in range(n)]
    elif mutation == "entry":
        entries[i][j] = draw(_bad_entry)
    elif mutation == "ragged":
        if draw(st.booleans()):
            entries[i].append("1")
        else:
            entries[i].pop()
    elif mutation == "n":
        doc["n"] = draw(st.sampled_from([0, -1, n + 1, True, "2", 2.0, None]))
    elif mutation == "extra_key":
        doc["m"] = n
    text = json.dumps(doc)
    if mutation == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    flags = draw(st.sets(st.sampled_from(["--conjugate", "--markdown"])))
    seed = draw(st.integers(0, 5))
    return ["analyze", "-", *sorted(flags), "--seed", str(seed)], text


_bad_int = st.sampled_from(["2", 2.0, True, None, [2], -1, 0, 4])


def _past_the_bound(suite, key):
    """The suite's upper bound for key plus one (the identity table's for an
    unknown suite)."""
    return _SUITE_KEYS.get(suite, _SUITE_KEYS["identity"])[0][key][2] + 1


def _mostly(draw, good, bad):
    """A draw from ``good``, or about one time in four from ``bad``."""
    return draw(bad) if draw(st.integers(0, 3)) == 3 else draw(good)


@st.composite
def verify_configs(draw, suite):
    """Config JSON text for one verify call of the named suite."""
    lowest_n, max_samples = {"lemma": (2, 3), "weak": (2, 2000)}.get(suite, (1, 3))
    cfg = {
        "suite": suite,
        "n": _mostly(draw, st.integers(lowest_n, 2 if suite == "weak" else 3), _bad_int),
        "samples": _mostly(draw, st.integers(1, max_samples), _bad_int),
        "seed": _mostly(draw, st.integers(0, 50), _bad_int),
    }
    if draw(st.integers(0, 3)) == 3:
        key = draw(st.sampled_from(["n", "samples"]))
        cfg[key] = _past_the_bound(suite, key)
    for key in ("n", "seed"):  # each is optional
        if draw(st.integers(0, 3)) == 3:
            del cfg[key]
    if draw(st.integers(0, 2)) == 2:
        fd = {"h": st.sampled_from([1e-4, 1e-3]), "delta": st.sampled_from([0.1, 0.5])}
        bad_fd = st.one_of(
            st.fixed_dictionaries({"h": st.sampled_from([-1.0, 0.0, 1.7e308, "x"])}),
            st.fixed_dictionaries({"delta": st.sampled_from([2.0, 0.0])}),
            st.just({"nosuch": 1}),
            st.just([1]),
        )
        cfg["fd"] = _mostly(draw, st.fixed_dictionaries({}, optional=fd), bad_fd)
    if suite == "weak" and draw(st.booleans()):
        half_width = st.sampled_from([2.0, 1.0])
        bad_half_width = st.sampled_from([0.0, -1.0, 1e300, "x"])
        cfg["quadrature"] = {"half_width": _mostly(draw, half_width, bad_half_width)}
    if draw(st.integers(0, 5)) == 5:
        cfg["sampels"] = 3
    return json.dumps(cfg)


def run(argv, stdin_text):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == ""
    else:
        assert err == ""


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(FUZZ, max_examples=15)
@given(data=st.data())
def test_analyze_exit_codes(mutation, data):
    argv, text = data.draw(analyze_inputs(mutation))
    code, out, err = run(argv, text)
    assert_contract(code, out, err)
    assert code != 1
    if code == 3:
        assert "--conjugate" in argv
    if code == 0 and "--markdown" not in argv:
        assert set(json.loads(out)) >= {"D", "min_poly", "char_poly", "conjugator"}


@pytest.mark.parametrize("suite", ["identity", "lemma", "weak", "nosuch"])
@settings(FUZZ, max_examples=20)
@given(data=st.data())
def test_verify_exit_codes(suite, data):
    text = data.draw(verify_configs(suite))
    code, out, err = run(["verify", "-"], text)
    assert_contract(code, out, err)
    assert code != 3
    if code in (0, 1):
        assert (code == 1) == (json.loads(out)["pass"] is False)
