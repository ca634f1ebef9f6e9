"""CI perf-trend report: this run's perf numbers vs the previous run's.

Used by the bench-regression workflow job: the previous run's
``perf-report`` artifact (when one exists) is downloaded next to the
fresh ``BENCH_perf_ci.json`` and this script prints a per-policy delta
table — throughput per entry point, which kernel each side measured,
and the sweep wall-clocks.

The trend is *informational only* and always exits 0: CI runners vary
too much run-to-run for raw deltas to gate anything. Regressions fail
through the pinned floors in ``benchmarks/baselines.json``
(``bench_hotpath.py``), which are conservative for exactly that reason.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: Hot-path metrics compared per policy (accesses/sec, higher better).
HOTPATH_METRICS = ("access_per_sec", "access_many_per_sec")


def load_report(path: pathlib.Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _delta(previous: float, current: float) -> str:
    if not previous:
        return "n/a"
    change = (current - previous) / previous
    return f"{change:+.1%}"


def render_trend(previous: dict, current: dict) -> str:
    """The delta table between two :func:`repro.perf.bench.run_perf`
    reports, as printable text."""
    lines = [
        "perf trend (previous artifact vs this run; informational only):",
        f"  {'policy.metric':<28s} {'previous':>14s} {'current':>14s} "
        f"{'delta':>8s}  kernel",
    ]
    prev_hot = previous.get("hotpath", {})
    curr_hot = current.get("hotpath", {})
    for kind in sorted(set(prev_hot) | set(curr_hot)):
        prev_row = prev_hot.get(kind, {})
        curr_row = curr_hot.get(kind, {})
        kernels = (f"{prev_row.get('kernel', 'scalar')} -> "
                   f"{curr_row.get('kernel', 'scalar')}")
        for metric in HOTPATH_METRICS:
            prev_value = prev_row.get(metric)
            curr_value = curr_row.get(metric)
            if prev_value is None and curr_value is None:
                continue
            lines.append(
                f"  {kind + '.' + metric:<28s}"
                f" {prev_value if prev_value is not None else 0:>14,.0f}"
                f" {curr_value if curr_value is not None else 0:>14,.0f}"
                f" {_delta(prev_value or 0, curr_value or 0):>8s}"
                f"  {kernels}"
            )
    prev_sweep = previous.get("sweep", {}).get("wall_clock_sec_by_workers", {})
    curr_sweep = current.get("sweep", {}).get("wall_clock_sec_by_workers", {})
    for workers in sorted(set(prev_sweep) | set(curr_sweep),
                          key=lambda key: int(key)):
        prev_value = prev_sweep.get(workers)
        curr_value = curr_sweep.get(workers)
        lines.append(
            f"  {'sweep.workers=' + workers:<28s}"
            f" {prev_value if prev_value is not None else 0:>13,.3f}s"
            f" {curr_value if curr_value is not None else 0:>13,.3f}s"
            f" {_delta(prev_value or 0, curr_value or 0):>8s}"
            "  (wall clock, lower better)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print the perf delta between two perf-report JSONs "
        "(informational; never fails the build)."
    )
    parser.add_argument("--previous", required=True, metavar="PATH",
                        help="previous run's perf report JSON")
    parser.add_argument("--current", required=True, metavar="PATH",
                        help="this run's perf report JSON")
    args = parser.parse_args(argv)

    current_path = pathlib.Path(args.current)
    previous_path = pathlib.Path(args.previous)
    if not current_path.exists():
        print(f"perf trend: no current report at {current_path}; skipping")
        return 0
    if not previous_path.exists():
        print(f"perf trend: no previous artifact at {previous_path} "
              "(first run on this branch?); skipping")
        return 0
    try:
        previous = load_report(previous_path)
        current = load_report(current_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perf trend: could not read reports ({exc}); skipping")
        return 0
    print(render_trend(previous, current))
    return 0


if __name__ == "__main__":
    sys.exit(main())
