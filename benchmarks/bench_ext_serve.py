"""CI regression gate: open-loop serving SLOs (repro.serve).

``python benchmarks/bench_ext_serve.py --quick`` checks the
*committed* ``BENCH_serve.json`` against the ``serve`` floors in
``benchmarks/baselines.json``, then runs the five-regime serving
harness fresh (seed 0, quick scale) and checks that report too,
exiting non-zero on any violation. It is the harness's one gate; the
qualitative SLO story is the ext-serve check in
``tests/experiments/test_paper_shapes.py``.

Unlike the wall-clock throughput gates, these numbers come from a
virtual-time event loop: they are deterministic per seed, so the
floors need no variance margin — a violation is a behavior change,
not runner noise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.serve.harness import check_floors, run_serve

BASELINES_PATH = pathlib.Path(__file__).resolve().parent / "baselines.json"
BENCH_SERVE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve.json"
)


def load_serve_floors(path: pathlib.Path = BASELINES_PATH) -> dict:
    """The ``serve`` section of the pinned baselines."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["serve"]


def main(argv=None) -> int:
    """CI gate: committed report and a fresh run both clear the floors."""
    parser = argparse.ArgumentParser(
        description="Open-loop serving SLO regression gate."
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale fresh run (shorter measured phase)")
    parser.add_argument("--baselines", default=str(BASELINES_PATH),
                        help="floors file (default benchmarks/baselines.json)")
    parser.add_argument("--committed", default=str(BENCH_SERVE_PATH),
                        help="committed report (default BENCH_serve.json)")
    args = parser.parse_args(argv)

    floors = load_serve_floors(pathlib.Path(args.baselines))
    failures = []

    committed_path = pathlib.Path(args.committed)
    if committed_path.exists():
        with open(committed_path, "r", encoding="utf-8") as handle:
            committed = json.load(handle)
        for violation in check_floors(committed, floors):
            failures.append(f"committed {committed_path.name}: {violation}")
    else:
        failures.append(f"missing committed report {committed_path}")

    fresh = run_serve(quick=args.quick, seed=0).to_dict()
    for violation in check_floors(fresh, floors):
        failures.append(f"fresh run: {violation}")

    for name, regime in sorted(fresh["regimes"].items()):
        print(f"  {name:9s} offered {regime['offered_rps']:>8.1f}/s  "
              f"goodput {regime['goodput_rps']:>8.1f}/s  "
              f"p99 {regime['p99_ms']:>6.2f} ms  "
              f"shed {100.0 * regime['shed_rate']:>5.1f}%  "
              f"stale {100.0 * regime['stale_fraction']:>5.2f}%  "
              f"wrong {regime['wrong_values']}")

    if failures:
        print("REGRESSION: serving SLOs fell below the pinned floors:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("all serve floors cleared (deterministic virtual-time run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
