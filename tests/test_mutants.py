"""The mutant catalogue of ``tests/mutants.py`` moves with the code: every
anchor occurs exactly once in the current ``src/``, and pytest collects
every named test node id, parameters included.  The catalogue itself runs
as ``python tests/mutants.py``."""

import re
import subprocess
import sys

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
