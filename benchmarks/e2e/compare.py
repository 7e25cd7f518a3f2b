"""Compare two sets of benchmark runs: ``python3 compare.py A B``.

``A`` and ``B`` are each a ``result.json`` written by ``run.py`` or a
directory of such files (one file per run: a *set*).  One row is printed per
(workload, metric) with both medians, the change, the bound and a verdict:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  the spread inside A or inside B is wider than the bound,
                  so the two medians cannot be told apart at that bound;
* ``same`` / ``differs``  for the counts that must repeat exactly;
* ``-``           per-layer metrics carry no bound: the change is information.

The spread of a set is the distance between the first and third quartile of
its values (``statistics.quantiles(values, n=4)``) as a share of their
median.  Every ratio is printed with its base.  The exit code is 1 when any
row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import metrics  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def load(path: str) -> Dict[Key, List[float]]:
    """Every value of every (workload, metric) in a result file or a set."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name) for name in os.listdir(path) if name.endswith(".json")
        )
    else:
        files = [path]
    values: Dict[Key, List[float]] = {}
    for file in files:
        with open(file, encoding="utf-8") as handle:
            document = json.load(handle)
        for result in document.get("results", []):
            for name, value in result.get("metrics", {}).items():
                values.setdefault((result["workload"], name), []).append(value)
    return values


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def worsening(a: float, b: float, better: str) -> float:
    """By what share of ``a`` the value ``b`` is worse (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: Optional[float], exact: bool
) -> str:
    if exact:
        return "same" if sorted(set(a)) == sorted(set(b)) and len(set(a)) == 1 else "differs"
    if bound is None:
        return "-"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    return "worse" if worsening(statistics.median(a), statistics.median(b), better) > bound else "ok"


def rows(a: Dict[Key, List[float]], b: Dict[Key, List[float]]) -> List[Dict[str, object]]:
    bounds = {name: (better, bound) for name, _unit, better, bound in metrics.END_TO_END}
    layers = {name: better for name, _unit, better in metrics.per_layer()}
    units = metrics.units()
    out = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        better, bound = bounds.get(name, (layers.get(name, "lower"), None))
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        out.append(
            {
                "workload": workload,
                "metric": name,
                "unit": units.get(name, ""),
                "a": med_a,
                "b": med_b,
                "n": (len(a[key]), len(b[key])),
                "change": (med_b - med_a) / abs(med_a) if med_a else 0.0,
                "bound": bound,
                "spread": (spread(a[key]), spread(b[key])),
                "verdict": verdict(a[key], b[key], better, bound, name in metrics.EXACT_COUNTS),
            }
        )
    return out


def render(table: Sequence[Dict[str, object]]) -> List[str]:
    lines = [
        f"{'workload':14s} {'metric':32s} {'A (median)':>14s} {'B (median)':>14s} "
        f"{'change (of A)':>22s} {'bound':>6s} {'spread A/B':>13s}  verdict"
    ]
    for row in table:
        a, b, unit = row["a"], row["b"], row["unit"]
        change = f"{row['change']:+.1%} of {a:.4g} {unit}"
        bound = "" if row["bound"] is None else f"{row['bound']:.0%}"
        spreads = "{:.1%}/{:.1%}".format(*row["spread"])
        lines.append(
            f"{row['workload']:14s} {row['metric']:32s} {a:14.4f} {b:14.4f} "
            f"{change:>22s} {bound:>6s} {spreads:>13s}  {row['verdict']}"
        )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    table = rows(load(argv[0]), load(argv[1]))
    for line in render(table):
        print(line)
    tally: Dict[str, int] = {}
    for row in table:
        tally[str(row["verdict"])] = tally.get(str(row["verdict"]), 0) + 1
    print(
        "runs per set: A {} B {}; ".format(*table[0]["n"]) if table else "no common metrics; ",
        ", ".join(f"{count} {name}" for name, count in sorted(tally.items())),
        sep="",
    )
    return 1 if tally.get("worse") else 0


if __name__ == "__main__":
    raise SystemExit(main())
