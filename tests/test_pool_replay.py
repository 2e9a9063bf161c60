"""Replay of the benchmark's request pools, symbolic-export's excepted.

Every request of the exact-identity, analyze-mix and float-suites pools is
rebuilt with ``perfbench/workloads.py`` and run in process through
``affinv.cli.main``.  For the exact pools its exit code and its output
digest (perfbench's ``output_digest``) must equal those
captured in ``perfbench/refs/<workload>.json``, which is what the
benchmark's correctness oracle checks byte for byte.  A float-suites report
is judged by ``perfbench/oracle.py`` itself: the exit code, every count and
verdict exactly, and each worst residual within the oracle's REL_TOL and
TOL_SHARE.  So a change to any output fails here before a benchmark run.
symbolic-export is left out: its n = 5 export alone takes seconds.  The
perfbench files are only read.
"""

import importlib.util
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest

from affinv.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    """perfbench/workloads.py, loaded once under a name of its own."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _oracle():
    """perfbench/oracle.py, loaded once under a name of its own; it imports
    the workloads module as ``workloads``, which names the loaded one while
    it loads."""
    name = "perfbench_oracle"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / "oracle.py")
        module = importlib.util.module_from_spec(spec)
        with patch.dict(sys.modules, workloads=_workloads()):
            spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _run(req) -> tuple:
    """(exit code, stdout) of the CLI on the request's argv, stdin and env."""
    out, saved_stdin = io.StringIO(), sys.stdin
    saved_env = {k: os.environ.get(k) for k, _ in req.env}
    os.environ.update(dict(req.env))
    sys.stdin = io.StringIO(req.stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(req.argv))
    finally:
        sys.stdin = saved_stdin
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue()


@pytest.mark.parametrize("workload", ["exact-identity", "analyze-mix"])
def test_pool_outputs_match_the_captured_references(workload):
    wl = _workloads()
    refs = json.loads((BENCH / "refs" / f"{workload}.json").read_text())["items"]
    pool = wl.WORKLOADS[workload].pool()
    assert sorted(refs) == pool
    mismatched = []
    for rid in pool:
        req, ref = wl.build(rid), refs[rid]
        assert req.digest() == ref["req"], rid  # the generator is unchanged
        code, text = _run(req)
        if (code, wl.output_digest(text)) != (ref["exit"], ref["out"]):
            mismatched.append(rid)
    assert mismatched == []


def test_float_pool_passes_the_oracle():
    wl, oracle = _workloads(), _oracle()
    refs = oracle.load_refs("float-suites")
    pool = wl.WORKLOADS["float-suites"].pool()
    assert sorted(refs) == pool
    mismatched = {}
    for rid in pool:
        code, text = _run(wl.build(rid))
        resp = {"id": rid, "error": None, "exit": code, "stdout": text}
        problems = oracle.check(resp, refs[rid])
        if problems:
            mismatched[rid] = problems
    assert mismatched == {}
