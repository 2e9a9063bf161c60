"""Per-call times of traced functions, by request dimension.

    python3 perfbench/spans.py SPANS.jsonl [FUNCTION ...]

Reads a spans file written by a ``--trace 1`` run and prints, for each named
function (default: the ROADMAP baseline set) and each request dimension n,
the number of spans and the mean self and inclusive time per span.  Direct
recursive calls are merged into one span, so for a recursive function a
span can cover several calls.
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict

BASELINE = (
    "krylov.krylov_determinant",
    "krylov.pairing_determinant",
    "exactmat.min_poly",
    "sympoly.symbolic_krylov_determinant",
)


def per_call(path: str, names) -> dict:
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    acc = defaultdict(lambda: [0, 0.0, 0.0])
    for k, s in enumerate(spans):
        if s["name"] in names:
            n = int(re.search(r"-n(\d+)", s["request"]).group(1))
            a = acc[(s["name"], n)]
            a[0] += 1
            a[1] += s["end"] - s["start"] - child[k]
            a[2] += s["end"] - s["start"]
    return acc


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    names = set(argv[1:]) or set(BASELINE)
    print(f"{'function':<38} {'n':>3} {'spans':>6} {'self ms/span':>13} {'incl ms/span':>13}")
    for (name, n), (count, self_s, incl) in sorted(per_call(argv[0], names).items()):
        print(f"{name:<38} {n:>3} {count:>6} {self_s / count * 1e3:>13.3f} {incl / count * 1e3:>13.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
