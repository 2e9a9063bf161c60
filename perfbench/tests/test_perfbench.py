"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Run from the root of a checkout; the smoke tests drive every workload once
at its smallest size (one cycle) and take about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from worker import Tracer, call  # noqa: E402
from workloads import WORKLOADS, build, output_digest  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _respond(rid: str) -> tuple[dict, dict]:
    import affinv.cli

    resp = call(affinv.cli.main, build(rid))
    workload = next(w for w in WORKLOADS.values() if rid in w.pool())
    return resp, oracle.load_refs(workload.name)[rid]


def _tamper(resp: dict, edit) -> dict:
    payload = json.loads(resp["stdout"])
    edit(payload)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return {**resp, "stdout": text, "digest": output_digest(text)}


def _fail_rate(responses: list[dict], refs: dict) -> float:
    failed = run.judge(responses, refs, {})
    result = {"responses": [{**r, "cal": (1.0, 1.0)} for r in responses],
              "cal_end": (1.0, 1.0), "cycles": 1, "peak_rss_mb": 1.0}
    setup = [{"wall_s": 1.0, "ref_s": 1.0}]
    return run.end_to_end(result, setup, len(failed), len(responses))["fail_rate"]["value"]


def test_oracle_accepts_reference_outputs():
    for rid in ("analyze-rat-n4-k1", "analyze-offlocus-n3-k2", "analyze-nonregular-n4-k0",
                "lemma-n2-s0", "identity-n3-s0"):
        resp, ref = _respond(rid)
        assert oracle.check(resp, ref) == [], rid


def test_corrupted_determinant_raises_fail_rate():
    resp, ref = _respond("analyze-int-n4-k0")
    bad = _tamper(resp, lambda p: p.update(D=str(int(p["D"]) + 1)))
    assert _fail_rate([resp, resp], {resp["id"]: ref}) == 0
    assert _fail_rate([resp, bad], {resp["id"]: ref}) > 0
    # the sympy check catches it on its own, without the reference digest
    problems = oracle.check_analyze(build(resp["id"]), 0, bad["stdout"])
    assert any(p.startswith("D ") for p in problems)


def test_flipped_pass_raises_fail_rate():
    resp, ref = _respond("lemma-n2-s3")
    bad = _tamper(resp, lambda p: p.update({"pass": not p["pass"]}))
    assert _fail_rate([resp, bad], {resp["id"]: ref}) > 0
    assert any("pass is" in p for p in oracle.check(bad, ref))


def test_float_residuals_compare_within_tolerance():
    resp, ref = _respond("weak-s0")
    name = "invariant_density_weak_zero"

    def scale(factor):
        def edit(payload):
            for p in payload["properties"]:
                if p["name"] == name:
                    p["worst_residual"] *= factor
        return _tamper(resp, edit)

    assert oracle.check(scale(1 + 1e-9), ref) == []
    assert oracle.check(scale(1.5), ref) != []


def test_tracer_patches_every_binding(tmp_path):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(
        "def leaf(k):\n    return leaf(k - 1) if k else 0\n"
    )
    (pkg / "high.py").write_text(
        "from .low import leaf\n\ndef top():\n    return leaf(3) + leaf(0)\n"
    )
    sys.path.insert(0, str(tmp_path))
    try:
        import fakepkg.high

        tracer = Tracer()
        tracer.install("fakepkg")
        tracer.request = 0
        fakepkg.high.top()
    finally:
        sys.path.remove(str(tmp_path))
    agg = tracer.aggregate()
    funcs = agg["functions"]
    assert funcs["low.leaf"]["calls"] == 5  # recursion counted, not split
    assert funcs["high.top"]["calls"] == 1
    assert agg["spans"] == 3
    total = sum(f["self_s"] for f in funcs.values())
    assert total == pytest.approx(agg["root_s"], rel=1e-9)


def _run(workload: str, trace: int, tmp_path) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--history", str(tmp_path / "h.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smallest_run_reports_every_metric(workload, tmp_path):
    out, result = _run(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in {**expected, "fail_rate": "ratio"}.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in out.splitlines())
    assert all(v["value"] > 0 for v in result["metrics"].values())

    out, result = _run(workload, 1, tmp_path)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    history = [json.loads(line) for line in (tmp_path / "h.jsonl").read_text().splitlines()]
    assert [r["trace"] for r in history] == [0, 1]
    assert {"sha", "python", "numpy", "nproc", "metrics"} <= set(history[0])


def test_without_sources_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").symlink_to(BENCH, target_is_directory=True)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
