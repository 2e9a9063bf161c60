"""The mutant catalogue of ``tests/mutants.py`` moves with the code: every
anchor occurs exactly once in the current ``src/``, and pytest collects
every named test node id, parameters included.  The catalogue itself runs
as ``python tests/mutants.py``; a mutant that makes a test crawl fails it
at ``conftest.TEST_TIME_LIMIT_S``."""

import os
import re
import subprocess
import sys
import textwrap

from mutants import MUTANTS, ROOT, stale_anchors


def test_every_anchor_occurs_once_in_src():
    assert stale_anchors() == []


def test_every_mutant_names_its_report_and_tests():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS) >= 12
    for m in MUTANTS:
        assert m.anchor != m.replacement and re.fullmatch(r"CHANGES\.md:\d+", m.reported), m.id
        assert m.tests, m.id


def test_pytest_collects_every_named_test():
    node_ids = sorted({t for m in MUTANTS for t in m.tests})
    # pytest exits 4 and prints "ERROR: not found" for an unknown node id
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert set(node_ids) <= set(done.stdout.splitlines())


def test_a_test_past_the_time_limit_fails_with_its_node_id(tmp_path):
    conftest = (ROOT / "tests" / "conftest.py").read_text()
    conftest, count = re.subn(r"(?m)^TEST_TIME_LIMIT_S = \d+$", "TEST_TIME_LIMIT_S = 1", conftest)
    assert count == 1
    (tmp_path / "conftest.py").write_text(conftest)
    (tmp_path / "test_stall.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st

        def test_loop():
            while True:
                pass

        @given(st.integers())
        def test_property(i):
            while True:
                pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=line"],
        cwd=tmp_path, capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    for name in ("test_loop", "test_property"):
        assert f"test_stall.py::{name} ran past 1 s" in done.stdout
    assert "2 failed" in done.stdout
