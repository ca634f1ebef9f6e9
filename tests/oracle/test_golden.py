"""Golden-trace regression: pinned digests stay pinned.

The committed ``tests/golden/golden.json`` freezes end-to-end MPKI and
per-set selector behavior for a grid of workloads x policies. Any
semantic change to the simulator shows up as a named, dotted-path diff
here before it can silently shift the paper's reproduced numbers.
"""

import json
import pathlib

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.experiments.base import build_l2_policy, make_setup
from repro.oracle.golden import (
    GOLDEN_ACCESSES,
    GOLDEN_POLICIES,
    GOLDEN_SCALE,
    GOLDEN_WORKLOADS,
    check_golden,
    compute_digests,
    default_golden_path,
    diff_digests,
    regen_golden,
    render_digests,
)
from repro.perf.kernel import kernel_name
from repro.workloads.suite import build_workload


@pytest.fixture(scope="module")
def digests():
    """Compute the digest grid once for the whole module."""
    return compute_digests()


class TestGolden:
    def test_pinned_file_matches_current_tree(self):
        ok, message = check_golden()
        assert ok, message

    def test_regen_is_byte_deterministic(self, tmp_path, digests):
        first = pathlib.Path(regen_golden(tmp_path / "a" / "golden.json"))
        second = pathlib.Path(regen_golden(tmp_path / "b" / "golden.json"))
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == (
            pathlib.Path(default_golden_path()).read_bytes()
        )

    def test_digest_grid_is_complete(self, digests):
        grid = digests["experiments"]
        assert sorted(grid) == sorted(GOLDEN_WORKLOADS)
        for workload in GOLDEN_WORKLOADS:
            assert sorted(grid[workload]) == sorted(GOLDEN_POLICIES)
            for policy in GOLDEN_POLICIES:
                entry = grid[workload][policy]
                assert entry["accesses"] > 0
                assert entry["mpki"] >= 0.0
            # Adaptive digests additionally pin selector behavior.
            selector = grid[workload]["adaptive"]["selector"]
            assert len(selector["per_set_majority"]) > 0
            assert all(v >= 0 for v in selector["votes"])

    def test_adaptive_cells_run_on_the_columnar_kernel(self):
        # The pinned digests therefore also pin the kernel's decisions:
        # every adaptive cell is one batch the dispatch rule sends to it.
        setup = make_setup(GOLDEN_SCALE, accesses=GOLDEN_ACCESSES)
        for workload in GOLDEN_WORKLOADS:
            trace = build_workload(workload, setup.l2,
                                   accesses=GOLDEN_ACCESSES)
            cache = SetAssociativeCache(
                setup.l2, build_l2_policy(setup.l2, "adaptive")
            )
            addresses, _ = trace.memory_stream()
            assert kernel_name(cache, len(addresses)) == "columnar", workload

    def test_perturbed_digest_fails_check(self, tmp_path, digests):
        perturbed = json.loads(render_digests(digests))
        workload = GOLDEN_WORKLOADS[0]
        perturbed["experiments"][workload]["lru"]["mpki"] += 1.0
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(perturbed), encoding="utf-8")
        ok, message = check_golden(path)
        assert not ok
        assert f"experiments.{workload}.lru.mpki" in message

    def test_diff_names_every_changed_leaf(self, digests):
        current = json.loads(render_digests(digests))
        pinned = json.loads(render_digests(digests))
        pinned["experiments"]["mcf"]["lfu"]["misses"] += 5
        pinned["format"] = 99
        diff = diff_digests(pinned, current)
        assert len(diff) == 2
        assert any("experiments.mcf.lfu.misses" in line for line in diff)
        assert any("format" in line for line in diff)
