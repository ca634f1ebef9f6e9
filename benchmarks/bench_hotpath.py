"""CI bench-regression gate: hot-path throughput floors over a perf report.

``python benchmarks/bench_hotpath.py REPORT`` reads a report written by
``repro-experiments perf`` (:func:`repro.perf.bench.run_perf`), checks
its hot-path rows (accesses/sec per policy through ``access`` and
``access_many``) and its wide-shard row (requests/sec through one
512-way online shard) against the pinned floors in
``benchmarks/baselines.json``, prints every violation and exits 1 on
any. It measures nothing itself, so CI times the hot path once:

    repro-experiments perf --quick --workers 2 --perf-out REPORT
    python benchmarks/bench_hotpath.py REPORT

The floors are deliberately conservative (roughly half of a 1-CPU
container's measurement) so runner-to-runner variance does not flake
the gate, while a regression to the pre-optimization kernel — several
times slower — or to LFU victims linear in a shard's ways still trips
it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BASELINES_PATH = pathlib.Path(__file__).resolve().parent / "baselines.json"


def load_baselines(path: pathlib.Path = BASELINES_PATH) -> dict:
    """The pinned throughput floors (accesses/sec) and margin."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_against_baselines(
    measured: dict, baselines: dict
) -> "list[str]":
    """Compare measured rows (``{kind: {metric: value}}``) against the
    pinned floors.

    Returns a list of violation messages (empty = pass). A policy/entry
    point regresses when its measured accesses/sec falls below
    ``floor * (1 - margin)``; a floor whose policy or metric was not
    measured is a violation too.
    """
    margin = float(baselines.get("regression_margin", 0.15))
    violations = []
    for kind, floors in baselines["floors"].items():
        row = measured.get(kind)
        if row is None:
            violations.append(f"{kind}: not measured")
            continue
        for metric, floor in floors.items():
            value = row.get(metric)
            if value is None:
                violations.append(f"{kind}.{metric}: not measured")
                continue
            threshold = floor * (1.0 - margin)
            if value < threshold:
                violations.append(
                    f"{kind}.{metric}: {value:,.0f}/s is below "
                    f"{threshold:,.0f}/s (floor {floor:,.0f} - "
                    f"{margin:.0%} margin)"
                )
    return violations


def main(argv=None) -> int:
    """CI gate entry point: load a perf report, check it against the
    floors, exit 1 on any violation."""
    parser = argparse.ArgumentParser(
        description="Hot-path throughput regression gate over a "
        "'repro-experiments perf' report."
    )
    parser.add_argument("report", metavar="REPORT",
                        help="perf report JSON (repro-experiments perf)")
    parser.add_argument("--baselines", default=str(BASELINES_PATH),
                        help="floors file (default benchmarks/baselines.json)")
    args = parser.parse_args(argv)

    with open(args.report, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    measured = {**report["hotpath"], "wide-shard": report.get("wide_shard")}
    violations = check_against_baselines(
        measured, load_baselines(pathlib.Path(args.baselines))
    )
    for violation in violations:
        print(f"REGRESSION: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
