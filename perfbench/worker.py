"""Closed-loop client for one workload, run in a fresh process per run.

    python3 perfbench/worker.py JOB.json

JOB.json names the workload, seed, checkout ``src`` directory, output paths
and either a time budget (``seconds``, whole cycles only, at least
MIN_CYCLES) or a fixed number
of ``cycles``.  One client calls ``affinv.cli.main`` in-process and sends the
next request only when the previous one has returned.  Only the call itself
is timed; hashing the output and bookkeeping happen between requests.
``calibrate()`` runs before each request and once after the last one; with
``"sample_s"`` in the job it also runs every that many seconds inside a
request, from a timer signal, and its own time is left out of the request's.

With ``"trace": true`` every public function of every ``affinv`` module is
wrapped at each of its bindings (``from .x import y`` copies included) and
each call records a span; spans stay in memory and are written out once at
the end, with the per-layer aggregates.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from workloads import WORKLOADS, build, output_digest

KEEP_STDOUT_BYTES = 256 * 1024  # larger outputs are checked by digest only
MIN_CYCLES = 2  # a timed run completes at least this many cycles
# Wall seconds of calibrate() on the 2-core Xeon box the baseline comes from,
# when nothing else shares its cores: the unit of reference seconds.
CALIBRATION_REF_S = 0.0034

_FUNCTION_TYPES = (types.FunctionType, type(lru_cache()(lambda: None)))


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python computation (rationals,
    integers, a dict), independent of affinv.  Run next to each request, it
    measures how fast the core is at that moment: on a shared box the same
    request can take 1.7 times longer while another tenant loads the core."""
    t0, c0 = time.perf_counter(), time.process_time()
    f, s, d = Fraction(0), 0, {}
    for i in range(1500):
        f += Fraction(i % 13 - 6, i % 7 + 1)
        s += (i * 7919) % 104729
        d[i % 97] = d.get(i % 97, 0) + s
    return time.perf_counter() - t0, time.process_time() - c0


def call(main, req, sample_s: float | None = None) -> dict:
    """Send one request to the CLI entry point and record the response.

    With ``sample_s``, a calibration also runs every ``sample_s`` seconds
    while the request runs, so that a long request is scaled by the core's
    speed over its whole length, not only at its two ends.  Each sample is
    recorded as [wall offset, CPU offset, calibration wall, calibration
    CPU], offsets into the request's own time, which excludes the samples.
    """
    saved = {k: os.environ.get(k) for k, _ in req.env}
    os.environ.update(dict(req.env))
    sys.stdin = io.StringIO(req.stdin or "")
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    samples: list[list[float]] = []
    paused = [0.0, 0.0]  # wall and CPU seconds spent in samples

    def sample(*_):
        w, c = time.perf_counter(), time.process_time()
        cal = calibrate()
        samples.append([w - t0 - paused[0], c - c0 - paused[1], *cal])
        paused[0] += time.perf_counter() - w
        paused[1] += time.process_time() - c

    if sample_s:
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, sample_s, sample_s)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(req.argv))
    except SystemExit as exc:  # argparse rejects argv this way
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a crash is a failed request, not a harness error
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if sample_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0 - paused[0]
    cpu = time.process_time() - c0 - paused[1]
    sys.stdin = sys.__stdin__
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    text = out.getvalue()
    return {
        "id": req.id,
        "exit": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "samples": samples,
        "digest": output_digest(text),
        "stdout": text if len(text) <= KEEP_STDOUT_BYTES else None,
        "stderr": err.getvalue()[:500],
        "error": error,
    }


class Tracer:
    """Spans at the public-function boundaries of the package's modules.

    A span is [function index, start, end, parent span index, request id].
    A direct recursive call of the function already on top of the stack is
    counted but merged into the open span, which leaves every function's
    self time unchanged.
    """

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None

    def wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, spans, stack, clock = self.calls, self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            calls[idx] += 1
            if stack and spans[stack[-1]][0] == idx:
                return fn(*args, **kwargs)
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "affinv"):
        """Replace every binding of each public function, found by identity."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        }
        wrappers = {}
        for name, mod in sorted(modules.items()):
            layer = name.rpartition(".")[2]
            for attr, obj in sorted(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and isinstance(obj, _FUNCTION_TYPES)
                    and obj.__module__ == name
                ):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def aggregate(self) -> dict:
        """Per-function self time, calls and requests that made a call."""
        n = len(self.names)
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * n
        requests: list[set] = [set() for _ in range(n)]
        roots = 0.0
        for k, (idx, start, end, parent, req) in enumerate(self.spans):
            self_s[idx] += (end - start) - child[k]
            requests[idx].add(req)
            if parent < 0:
                roots += end - start
        return {
            "functions": {
                name: {
                    "self_s": self_s[i],
                    "calls": self.calls[i],
                    "requests": len(requests[i]),
                }
                for i, name in enumerate(self.names)
            },
            "root_s": roots,
            "spans": len(self.spans),
        }

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, start, end, parent, req in self.spans:
                fh.write(
                    json.dumps(
                        {"name": self.names[idx], "start": start, "end": end,
                         "parent": parent, "request": req}
                    )
                    + "\n"
                )


def run(job: dict) -> dict:
    import affinv
    import affinv.cli
    import numpy

    src = Path(job["src"]).resolve()
    if src not in Path(affinv.__file__).resolve().parents:
        raise RuntimeError(f"affinv imported from {affinv.__file__}, not {src}")
    spec = WORKLOADS[job["workload"]]
    warmup = call(affinv.cli.main, build(spec.warmup))
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    main = affinv.cli.main  # looked up after install: the traced binding
    responses = []
    cycles = 0
    budget, fixed = job.get("seconds"), job.get("cycles")
    start = time.perf_counter()
    for ids in spec.cycles(job["seed"]):
        elapsed = time.perf_counter() - start
        if fixed is not None and cycles >= fixed:
            break
        if fixed is None and cycles >= MIN_CYCLES and elapsed + elapsed / cycles > budget:
            break
        for rid in ids:
            req = build(rid)
            if tracer is not None:
                tracer.request = f"{len(responses)}:{rid}"
            cal = calibrate()
            responses.append({**call(main, req, job.get("sample_s")), "cal": cal})
        cycles += 1
    result = {
        "warmup": warmup,
        "responses": responses,
        "cal_end": calibrate(),
        "cycles": cycles,
        "loop_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        tracer.write_spans(Path(job["spans"]))
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
