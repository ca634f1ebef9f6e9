#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A_DIR B_DIR
    python3 benchmarks/e2e/compare.py --summary DIR > baseline.json

``A_DIR`` is the parent (or first) side, ``B_DIR`` the change. For
every workload, end-to-end metric and timing it prints both medians,
both quartile ranges, the fraction of run pairs B wins, and a verdict:

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: A's own quartile spread is wider than the bound, and
  B does not beat every A run;
* ``improved``: B wins at least nine tenths of the pairs and the
  medians differ by more than A's quartile spread;
* ``unchanged``: otherwise.

Timings have no bound, so they are never ``worse`` or ``unresolved``:
they read ``improved`` or ``-``, and a slower B shows in the medians.
Runs pair up in file order, so alternate A and B runs when making
them. Each side's failed-operation share is printed too. Exits 1 when
any pair is worse or unresolved.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from run import TIMINGS

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: str) -> Dict[str, List[dict]]:
    """Untraced results in ``directory`` per workload, in run order."""
    runs: Dict[str, List[tuple]] = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        match = re.search(r"\.seed(\d+)\.(\d+)\.json$", path)
        if match is None:
            continue
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        order = (int(match.group(2)), int(match.group(1)))
        runs.setdefault(result["workload"], []).append((order, result))
    return {name: [result for _, result in sorted(rows)] for name, rows in runs.items()}


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], better: str, bound: Optional[float]) -> dict:
    """Judge B against A for one metric (see the module docstring);
    ``bound`` None marks a timing."""
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    worse_by = sign * (ma - mb) / abs(ma) if ma else 0.0
    spread = (q3a - q1a) / abs(ma) if ma else 0.0
    every_run_better = min(sign * y for y in b) > max(sign * x for x in a)
    if bound is not None and worse_by > bound:
        label = "worse"
    elif bound is not None and spread > bound and not every_run_better:
        label = "unresolved"
    elif pairs and wins / len(pairs) >= 0.9 and sign * (mb - ma) > q3a - q1a:
        label = "improved"
    else:
        label = "unchanged" if bound is not None else "-"
    return {
        "a": {"median": ma, "q1": q1a, "q3": q3a},
        "b": {"median": mb, "q1": q1b, "q3": q3b},
        "win_fraction": wins / len(pairs) if pairs else 0.0,
        "worse_by": worse_by,
        "verdict": label,
    }


def failed_share(results: List[dict]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / attempted if attempted else 0.0


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_rows(spec: dict) -> List[tuple]:
    """(result section, name, unit, better, bound) of every end-to-end
    metric, then of every timing; a timing's direction is its
    per-layer entry's."""
    rows = [
        ("end_to_end", m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ]
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    return rows + [("timings", name, unit, better[name], None) for name, unit in TIMINGS]


def compare(a_dir: str, b_dir: str) -> int:
    spec = load_benchmark()
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    bad = 0
    print(
        f"{'workload':<18} {'metric':<12} {'A median':>12} {'A q1..q3':>23} "
        f"{'B median':>12} {'B q1..q3':>23} {'B wins':>6}  verdict"
    )
    for workload in (entry["name"] for entry in spec["workloads"]):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"{workload:<18} missing runs (A {len(a)}, B {len(b)})")
            bad += 1
            continue
        for section, name, _, better, bound in metric_rows(spec):
            row = verdict(
                [r[section][name] for r in a], [r[section][name] for r in b], better, bound
            )
            bad += row["verdict"] in ("worse", "unresolved")
            print(
                f"{workload:<18} {name:<12} {_side(row['a'])} {_side(row['b'])} "
                f"{row['win_fraction']:>6.2f}  {row['verdict']}"
            )
        print(
            f"{workload:<18} failed ops: A {failed_share(a):.3g} ({len(a)} runs), "
            f"B {failed_share(b):.3g} ({len(b)} runs)"
        )
    return 1 if bad else 0


def _side(stats: dict) -> str:
    return f"{stats['median']:>12.5g} {stats['q1']:>11.5g}..{stats['q3']:<11.5g}"


def summary(directory: str) -> dict:
    """Medians and quartiles of every end-to-end metric per workload."""
    spec = load_benchmark()
    runs = load_runs(directory)
    out = {"workloads": {}}
    for workload, results in sorted(runs.items()):
        out["workloads"][workload] = {
            "runs": len(results),
            "seeds": sorted({result["seed"] for result in results}),
            "failed_share": failed_share(results),
            "metrics": {},
        }
        for section, name, unit, _, _ in metric_rows(spec):
            q1, median, q3 = quartiles([result[section][name] for result in results])
            out["workloads"][workload]["metrics"][name] = {
                "unit": unit,
                "median": median,
                "q1": q1,
                "q3": q3,
            }
        out["machine"] = results[0].get("machine")
        out["commit"] = results[0].get("commit")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument(
        "--summary", action="store_true", help="summarize one directory as JSON instead"
    )
    args = parser.parse_args(argv)
    if args.summary:
        if len(args.dirs) != 1:
            parser.error("--summary takes one directory")
        json.dump(summary(args.dirs[0]), sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    if len(args.dirs) != 2:
        parser.error("give A_DIR and B_DIR")
    return compare(*args.dirs)


if __name__ == "__main__":
    sys.exit(main())
