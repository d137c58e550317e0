"""Compare benchmark runs of a parent commit (A) against a change (B).

    python bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is the ``--out`` of one ``bench/run.py`` run.  Runs pair up in
the order given (A1 with B1, ...), so run the two sides interleaved,
alternating which goes first.  Each (workload, metric) row gives both
sides' median and quartiles, the share of pairs the change won, and a
verdict:

* ``regression`` — B's median is worse than A's by more than the
  metric's bound in BENCHMARK.json;
* ``gain`` — at least ten pairs were run, B wins at least 9 in 10 of
  them (ties count for neither) and the medians differ by more than A's
  interquartile range.  With fewer pairs a same-commit run wins all of
  them by chance too often: one time in 32 per row at five pairs;
* ``unresolved`` — either side's spread (IQR over median) exceeds the
  bound and not every B run beats every A run;
* ``same`` — none of the above.

Per-layer metrics have no bound, so they can read ``gain`` or ``same``
only.  The exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)

#: Share of pairs the change must win to claim a gain, and the fewest
#: pairs a gain can rest on.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def metric_specs() -> Dict[str, Tuple[str, Optional[float]]]:
    """``name -> (better, bound)``; per-layer metrics have no bound."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def load_side(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values``, one per file, in file order."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for workload, res in doc["workloads"].items():
            for name, value in {**res["metrics"], **res["layers"]}.items():
                values.setdefault((workload, name), []).append(float(value))
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: Optional[float]
) -> Dict[str, object]:
    """The row for one (workload, metric): both sides' quartiles, the
    change's pair wins, and the verdict described in the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    row: Dict[str, object] = {"a": qa, "b": qb, "wins": wins, "pairs": len(pairs)}
    med_a, med_b = qa[1], qb[1]
    worse = sign * (med_a - med_b) / abs(med_a) if med_a else 0.0
    spread = max(
        (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0,
        (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0,
    )
    row["change"] = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if bound is not None and worse > bound:
        row["verdict"] = "regression"
    elif (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (med_b - med_a) > qa[2] - qa[0]
    ):
        row["verdict"] = "gain"
    elif (
        bound is not None
        and spread > bound
        and not all(sign * (y - x) > 0 for x in a for y in b)
    ):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "same"
    return row


def compare(a_paths: Sequence[str], b_paths: Sequence[str], specs=None) -> List[Dict[str, object]]:
    specs = metric_specs() if specs is None else specs
    a, b = load_side(a_paths), load_side(b_paths)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in specs:
            continue
        better, bound = specs[name]
        row = verdict(a[key], b[key], better, bound)
        row.update(workload=workload, metric=name)
        rows.append(row)
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1 :]
    if not a_paths or not b_paths:
        print("need at least one file on each side of --", file=sys.stderr)
        return 2
    rows = compare(a_paths, b_paths)
    print(f"{'workload':<12} {'metric':<30} {'A q1/med/q3':>32} "
          f"{'B q1/med/q3':>32} {'change':>8} {'B wins':>7}  verdict")
    for r in rows:
        qa = "/".join(f"{x:.4g}" for x in r["a"])
        qb = "/".join(f"{x:.4g}" for x in r["b"])
        print(f"{r['workload']:<12} {r['metric']:<30} {qa:>32} {qb:>32} "
              f"{100 * r['change']:>+7.1f}% {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
