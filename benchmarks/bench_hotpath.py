"""CI bench-regression gate: hot-path kernel throughput (accesses/sec).

``python benchmarks/bench_hotpath.py --quick`` measures accesses/sec
through :func:`repro.perf.bench.bench_hotpath` (which also raises if
the per-call and batched entry points disagree on misses) and
requests/sec through one 512-way online shard
(:func:`repro.perf.bench.bench_wide_shard`, the ``wide-shard`` row),
compares each number against the pinned floors in
``benchmarks/baselines.json`` and exits non-zero when any falls more
than the allowed margin below its floor. The floors are deliberately
conservative (roughly half of a 1-CPU container's measurement) so
runner-to-runner variance does not flake the gate, while a regression
to the pre-optimization kernel — several times slower — or to LFU
victims linear in a shard's ways still trips it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.perf.bench import bench_hotpath, bench_wide_shard

BASELINES_PATH = pathlib.Path(__file__).resolve().parent / "baselines.json"

#: Stream lengths for the two modes.
FULL_ACCESSES = 200_000
QUICK_ACCESSES = 20_000


def load_baselines(path: pathlib.Path = BASELINES_PATH) -> dict:
    """The pinned throughput floors (accesses/sec) and margin."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_against_baselines(
    measured: dict, baselines: dict
) -> "list[str]":
    """Compare a :func:`bench_hotpath` result against the pinned floors.

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
    """CI gate entry point: measure, compare, report, exit non-zero on
    regression."""
    parser = argparse.ArgumentParser(
        description="Hot-path throughput regression gate."
    )
    parser.add_argument("--quick", action="store_true",
                        help="10x shorter stream (CI mode)")
    parser.add_argument("--baselines", default=str(BASELINES_PATH),
                        help="floors file (default benchmarks/baselines.json)")
    parser.add_argument("--json-out", default=None, metavar="PATH",
                        help="also write the measurements as JSON")
    args = parser.parse_args(argv)

    accesses = QUICK_ACCESSES if args.quick else FULL_ACCESSES
    start = time.perf_counter()
    measured = bench_hotpath(accesses=accesses)
    wide = bench_wide_shard(ops=accesses)
    elapsed = time.perf_counter() - start

    print(f"hot-path throughput ({accesses} accesses/policy, "
          f"{elapsed:.1f}s total):")
    for kind, row in sorted(measured.items()):
        print(f"  {kind:10s} access {row['access_per_sec']:>12,.0f}/s   "
              f"access_many {row['access_many_per_sec']:>12,.0f}/s   "
              f"miss ratio {row['miss_ratio']:.3f}   "
              f"kernel {row.get('kernel', 'scalar')}")
    print(f"  wide-shard get_or_compute "
          f"{wide['get_or_compute_per_sec']:>12,.0f}/s   "
          f"hit ratio {wide['hit_ratio']:.3f}   "
          f"({wide['ops']} ops, {wide['ways']} ways)")
    measured["wide-shard"] = wide

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(measured, handle, indent=1, sort_keys=True)
            handle.write("\n")

    baselines = load_baselines(pathlib.Path(args.baselines))
    violations = check_against_baselines(measured, baselines)
    if violations:
        print("REGRESSION: hot-path throughput fell below the pinned "
              "floors:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("all floors cleared "
          f"(margin {baselines.get('regression_margin', 0.15):.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
