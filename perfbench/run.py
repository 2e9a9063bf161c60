"""affinv benchmark: one closed-loop workload per run, checked for correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--history FILE]

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics.  It times SETUP_RUNS fresh
interpreters that import ``affinv.cli`` and send the workload's smallest
request (``setup_s`` is their median), then starts one fresh worker process
that drives whole cycles of the workload's seeded request mix through
``affinv.cli.main`` for about S seconds, one request at a time.

``--trace 1`` measures the per-layer metrics.  It runs a fixed number of
cycles twice, each in a fresh worker: untraced, then with every public
function of every ``affinv`` module wrapped in a span.  Self times and call
counts come from the traced worker; ``trace.overhead`` is traced over
untraced throughput on the same requests.

Every response is checked by ``oracle.check`` after the timed loop.  The
metrics are printed by name with their units, a perf-history record is
appended to ``.perfbench-work/history.jsonl`` (or ``--history FILE``), and
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from worker import CALIBRATION_REF_S, calibrate
from workloads import WORKLOADS, build, output_digest

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7
SETUP_CODE = "import sys, affinv.cli; sys.exit(affinv.cli.main(sys.argv[1:]))"
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10  # requests that must lie beyond the tail percentile
SAMPLE_S = 0.2  # calibration period inside long requests (end-to-end runs)

LAYERS = ("cli", "report", "exactmat", "invariants", "krylov", "sympoly", "fields", "calculus")
PER_REQUEST = (
    "exactmat.min_poly",
    "calculus.weak_lie_derivative",
    "fields.evaluate_on_entries",
    "krylov.krylov_determinant",
)


class BenchError(RuntimeError):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, requests beyond it) for the highest percentile
    that leaves at least TAIL_BEYOND requests beyond it; the maximum, with
    none beyond, when there are too few requests."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / n, n - k - 1


def source_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def program_env(root: Path, extra=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(dict(extra))
    return env


def fresh_interpreter(root: Path, req) -> dict:
    """One cold CLI invocation: interpreter start, import, request, exit,
    with a calibration just before and just after it."""
    before = calibrate()[0]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *req.argv],
            input=req.stdin or "",
            capture_output=True,
            text=True,
            env=program_env(root, req.env),
            cwd=root,
            timeout=60,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a set-up interpreter exceeded 60 s") from exc
    wall = time.perf_counter() - t0
    return {
        "id": req.id,
        "exit": proc.returncode,
        "wall_s": wall,
        "ref_s": to_reference(wall, [], [before, calibrate()[0]]),
        "digest": output_digest(proc.stdout),
        "stdout": proc.stdout,
        "stderr": proc.stderr[-500:],
        "error": None,
    }


def run_worker(root: Path, work: Path, job: dict) -> dict:
    tag = f"{job['workload']}-s{job['seed']}-{'traced' if job['trace'] else 'plain'}"
    job = {**job, "src": str(root / "src"), "out": str(work / f"{tag}.result.json"),
           "spans": str(work / f"{tag}.spans.jsonl")}
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            capture_output=True,
            text=True,
            env=program_env(root),
            cwd=root,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        with open(job["out"], encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    finally:
        job_path.unlink()
        Path(job["out"]).unlink(missing_ok=True)


def judge(responses: list[dict], refs: dict, verified: dict) -> list[tuple[str, list]]:
    """(id, problems) for every failed response."""
    failed = []
    for resp in responses:
        problems = oracle.check(resp, refs.get(resp["id"]), verified)
        if problems:
            failed.append((resp["id"], problems))
    return failed


def to_reference(total: float, offsets: list[float], cals: list[float]) -> float:
    """Reference seconds of ``total`` seconds of work that was calibrated
    just before it, at each offset into it and just after it: each segment
    between two calibrations is scaled by CALIBRATION_REF_S over their mean."""
    bounds = [0.0, *(min(o, total) for o in offsets), total]
    return sum(
        (bounds[j + 1] - bounds[j]) * 2 * CALIBRATION_REF_S / (cals[j] + cals[j + 1])
        for j in range(len(bounds) - 1)
    )


def reference_times(result: dict) -> tuple[list[float], list[float]]:
    """(wall, CPU) times of the measured requests in reference seconds."""
    resp = result["responses"]
    cals = [r["cal"] for r in resp] + [result["cal_end"]]
    wall, cpu = [], []
    for i, r in enumerate(resp):
        inner = r.get("samples", [])
        for out, total, k in ((wall, r["wall_s"], 0), (cpu, r["cpu_s"], 1)):
            out.append(to_reference(
                total, [s[k] for s in inner],
                [cals[i][k], *(s[2 + k] for s in inner), cals[i + 1][k]]))
    return wall, cpu


def timing(values: list[float], wall: list[float]) -> dict:
    """Median, quartiles and tail of reference times, with the wall figures."""
    q1, med, q3 = quartiles(values)
    t_val, t_pct, t_beyond = tail(values)
    return {"p50": med, "q1": q1, "q3": q3, "tail": t_val, "percentile": round(t_pct, 2),
            "beyond": t_beyond, "wall_p50": statistics.median(wall), "wall_tail": tail(wall)[0]}


def end_to_end(result: dict, setup: list[dict], failed: int, attempted: int) -> dict:
    resp = result["responses"]
    n = len(resp)
    wall = [r["wall_s"] for r in resp]
    cpu = [r["cpu_s"] for r in resp]
    ref_wall, ref_cpu = reference_times(result)
    lat = timing(ref_wall, wall)
    s1, s_med, s3 = quartiles([r["ref_s"] for r in setup])
    return {
        "throughput_rps": {"value": n / sum(ref_wall), "unit": "1/s", "wall": n / sum(wall),
                           "requests": n, "cycles": result["cycles"]},
        "latency_p50_s": {"value": lat["p50"], "unit": "s", "wall": lat["wall_p50"],
                          "q1": lat["q1"], "q3": lat["q3"], "requests": n},
        "latency_tail_s": {"value": lat["tail"], "unit": "s", "wall": lat["wall_tail"],
                           "percentile": lat["percentile"], "beyond": lat["beyond"],
                           "requests": n},
        "cpu_per_request_s": {"value": sum(ref_cpu) / n, "unit": "s", "wall": sum(cpu) / n,
                              "requests": n},
        "fail_rate": {"value": failed / attempted, "unit": "ratio", "failed": failed,
                      "attempted": attempted},
        "setup_s": {"value": s_med, "unit": "s",
                    "wall": statistics.median(r["wall_s"] for r in setup),
                    "q1": s1, "q3": s3, "runs": len(setup)},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(plain: dict, traced: dict) -> dict:
    agg = traced["trace"]
    funcs = agg["functions"]
    layers: dict[str, list] = {}
    for name, f in funcs.items():
        acc = layers.setdefault(name.split(".")[0], [0.0, 0])
        acc[0] += f["self_s"]
        acc[1] += f["calls"]
    total_self = sum(v[0] for v in layers.values())
    if abs(total_self - agg["root_s"]) > 1e-6 * max(agg["root_s"], 1.0):
        raise BenchError(f"layer self times sum to {total_self}, root spans to {agg['root_s']}")
    metrics = {}
    for layer in sorted(set(LAYERS) | set(layers)):
        self_s, calls = layers.get(layer, (0.0, 0))
        metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
    for name, f in sorted(funcs.items()):
        metrics[f"{name}.self_s"] = {"value": f["self_s"], "unit": "s"}
        metrics[f"{name}.calls"] = {"value": f["calls"], "unit": "count"}
    for name in PER_REQUEST:
        f = funcs[name]
        value = f["calls"] / f["requests"] if f["requests"] else 0.0
        metrics[f"{name}.per_request"] = {"value": value, "unit": "count",
                                          "requests_calling": f["requests"]}
    metrics["trace.overhead"] = {
        "value": sum(reference_times(plain)[0]) / sum(reference_times(traced)[0]),
        "unit": "ratio",
    }
    metrics["trace.root_s"] = {"value": agg["root_s"], "unit": "s", "spans": agg["spans"]}
    return metrics


def print_metrics(metrics: dict, names: list[str]):
    for name in names:
        m = metrics[name]
        extra = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {extra}")


def measure(root: Path, args, spec, refs: dict) -> tuple[dict, list, list, int, str]:
    """(metrics, checked responses, failures, measured requests, numpy version)"""
    work = root / ".perfbench-work"
    work.mkdir(exist_ok=True)
    verified: dict = {}
    base = {"workload": spec.name, "seed": args.seed}
    if args.trace:
        cycles = max(1, round(args.seconds / 2 / spec.cycle_s))
        plain = run_worker(root, work, {**base, "trace": False, "cycles": cycles})
        traced = run_worker(root, work, {**base, "trace": True, "cycles": cycles})
        checked = [plain["warmup"], traced["warmup"]] + plain["responses"] + traced["responses"]
        failed = judge(checked, refs, verified)
        metrics = per_layer(plain, traced)
        return metrics, checked, failed, len(traced["responses"]), traced["numpy"]
    warm = build(spec.warmup)
    fresh_interpreter(root, warm)  # untimed: fills bytecode and disk caches
    setup_resps = [fresh_interpreter(root, warm) for _ in range(SETUP_RUNS)]
    result = run_worker(root, work, {**base, "trace": False, "seconds": args.seconds,
                                     "sample_s": SAMPLE_S})
    checked = setup_resps + [result["warmup"]] + result["responses"]
    failed = judge(checked, refs, verified)
    metrics = end_to_end(result, setup_resps, len(failed), len(checked))
    return metrics, checked, failed, len(result["responses"]), result["numpy"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--history", type=Path, default=None,
                        help="perf-history file to append to")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its worker: subprocess.run does
    # so on any exception raised while it waits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one core for the harness and every process it starts, so that each
    # calibration measures the core the timed work runs on
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    root = Path.cwd()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (root / "src" / "affinv" / "cli.py").is_file():
        print(f"error: no affinv sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = WORKLOADS[args.workload]
    refs = oracle.load_refs(spec.name)
    try:
        metrics, checked, failures, measured, numpy_version = measure(root, args, spec, refs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rid, problems in failures[:20]:
        print(f"FAILED {rid}: {'; '.join(problems)}")
    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    missing = [m for m in listed if m not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"workload {spec.name}  seed {args.seed}  trace {args.trace}  "
          f"{measured} measured requests, closed loop, 1 client")
    extra = [m for m in metrics if m not in listed and (args.trace or m == "fail_rate")]
    print_metrics(metrics, listed + extra)
    record = {
        "sha": source_sha(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(cores),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }
    history = args.history or root / ".perfbench-work" / "history.jsonl"
    with open(history, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m]["value"], "unit": metrics[m]["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
