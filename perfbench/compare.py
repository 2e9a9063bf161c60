"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds perf-history records, one JSON object per line, as
``run.py`` appends them.  For every workload and end-to-end metric named in
BENCHMARK.json it prints each side's median and quartiles over the untraced
runs and a verdict, judged against the metric's ``bound``:

* unresolved: either side's quartile spread exceeds the bound, unless every
  new run is better (improved) or worse (worse) than every base run;
* worse: the new median is worse than the base median by more than the bound;
* improved: the new median is better by more than both sides' spreads;
* unchanged: otherwise.

It then prints the per-layer medians of the traced runs and their change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values(records, workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive change = worse
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "improved"
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > spread:
        return "improved"
    return "unchanged"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    bench = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':<16} {'metric':<18} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            b, n = values(base, w, 0, m["name"]), values(new, w, 0, m["name"])
            if not b or not n:
                continue
            cells = []
            for vals in (b, n):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] x{len(vals)}")
            print(f"{w:<16} {m['name']:<18} {cells[0]:>34} {cells[1]:>34}  "
                  f"{verdict(b, n, m['better'], m['bound'])}")
    print()
    print(f"{'workload':<16} {'per-layer metric':<48} {'base':>12} {'new':>12} {'change':>8}")
    for w in workloads:
        for m in bench["per_layer"]:
            b, n = values(base, w, 1, m["name"]), values(new, w, 1, m["name"])
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            if bm == 0 and nm == 0:
                continue
            change = f"{(nm - bm) / bm:+.1%}" if bm else "new"
            print(f"{w:<16} {m['name']:<48} {bm:>12.5g} {nm:>12.5g} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
