"""Replay of the benchmark's exact request pools.

Every request of the exact-identity and analyze-mix pools is rebuilt with
``perfbench/workloads.py`` and run in process through ``affinv.cli.main``.
Its exit code and its output digest (sha256 with the ``timestamp`` line
removed) must equal those captured in ``perfbench/refs/<workload>.json``,
which is what the benchmark's correctness oracle checks byte for byte, so a
change to any exact output fails here before a benchmark run.  The perfbench
files are only read.
"""

import importlib.util
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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
