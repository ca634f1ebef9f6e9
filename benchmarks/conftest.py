"""Shared benchmark configuration: the ``--quick`` flag.

``pytest benchmarks/ --quick`` is what the CI bench job runs: the
oracle timings (``bench_oracle.py``), the serving SLO floors at the
CI-sized harness (``bench_ext_serve.py``) and the wall-clock
benchmark's self-tests (``e2e/``). The hot-path gate
(``bench_hotpath.py``) is a script and takes the same flag standalone.

The paper's shape checks are not here: they run as tier-1 tests, one
per registered experiment, in ``tests/experiments/test_paper_shapes.py``.
"""

from __future__ import annotations


def pytest_addoption(parser):
    """Register the shared ``--quick`` benchmark flag."""
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run the CI-sized variant of each benchmark",
    )
