"""Capture the reference outputs the oracle compares against.

    python3 perfbench/capture.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose outputs are to be the
references.  Each pool item of each named workload (default: all) is sent
once through ``affinv.cli.main``; its exit code and output digest (float
reports: verdicts, counts and residuals) are written to
``perfbench/refs/<workload>.json``.  Every analyze response is also checked
against sympy before it is accepted, and a summary of the outcomes per
request class is printed.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import oracle
from run import source_sha
from workloads import WORKLOADS, build
from worker import call


def capture(name: str, main) -> dict:
    items, outcomes = {}, Counter()
    for rid in WORKLOADS[name].pool():
        req = build(rid)
        resp = call(main, req)
        # exit 1 is a float suite whose Monte-Carlo check failed at this
        # seed: a deterministic outcome, checked like any other
        if resp["error"] or resp["exit"] not in (0, 1, 3):
            raise SystemExit(f"{rid}: exit {resp['exit']} {resp['error'] or resp['stderr']}")
        if req.kind == "analyze":
            problems = oracle.check_analyze(req, resp["exit"], resp["stdout"])
            if problems:
                raise SystemExit(f"{rid}: sympy disagrees: {problems}")
            klass = rid.split("-")[1]
            if resp["exit"] == 3:
                outcomes[(klass, "non-regular")] += 1
            else:
                in_omega = json.loads(resp["stdout"])["in_omega"]
                outcomes[(klass, "in locus" if in_omega else "off locus")] += 1
        else:
            outcomes[(req.kind, f"exit {resp['exit']}")] += 1
        items[rid] = oracle.reference(req, resp)
    for (klass, outcome), count in sorted(outcomes.items()):
        print(f"  {name} {klass:>10}: {count:4d} {outcome}")
    return items


def main(argv) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import affinv.cli

    names = argv or sorted(WORKLOADS)
    oracle.REFS_DIR.mkdir(exist_ok=True)
    for name in names:
        items = capture(name, affinv.cli.main)
        doc = {"source": source_sha(root), "workload": name, "items": items}
        path = oracle.REFS_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(items)} references -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
