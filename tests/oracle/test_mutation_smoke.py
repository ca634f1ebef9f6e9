"""Mutation smoke test: the oracle must catch a seeded Algorithm 1 bug.

A differential harness that never fires is worthless, so we prove this
one can fail: the existing fault-injection hooks corrupt the adaptive
policy's per-set miss histories — the state Algorithm 1's component
comparison reads — and the harness must report a divergence. The armed
-but-quiet control shows the detection is the mutation's doing, not an
artifact of arming.
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import SITE_HISTORY, FaultPlan, FaultSpec
from repro.oracle.harness import build_hardware_pair, run_differential
from repro.oracle.streams import hardware_stream

pytestmark = pytest.mark.faults

NUM_SETS = 4
WAYS = 4
STREAM = hardware_stream(seed=11, num_sets=NUM_SETS, ways=WAYS, length=400)


def armed_pair(rate, mode="scramble"):
    """An adaptive hardware pair whose engine-side histories are faulted."""
    pair = build_hardware_pair("adaptive", NUM_SETS, WAYS, seed=0)
    plan = FaultPlan(specs=[FaultSpec(SITE_HISTORY, rate, mode=mode)], seed=5)
    FaultInjector(plan).arm(pair.policy)
    return pair


class TestMutationSmoke:
    @pytest.mark.parametrize("mode", ["scramble", "clear"])
    def test_history_mutation_is_caught(self, mode):
        pair = armed_pair(rate=1.0, mode=mode)
        divergence = run_differential(pair, STREAM, seed=11)
        assert divergence is not None, (
            "harness failed to catch a miss-history mutation"
        )
        # The report must localize the first bad decision and show both
        # sides' history state so the bug is diagnosable from it alone.
        assert divergence.engine != divergence.spec
        assert "hardware:adaptive" in divergence.describe()

    def test_quiet_injector_is_not_reported(self):
        pair = armed_pair(rate=0.0)
        assert run_differential(pair, STREAM, seed=11) is None

    def test_rare_mutations_still_caught(self):
        """Even a low-rate corruption diverges within a long stream —
        the harness checks state every access, not just at the end."""
        pair = armed_pair(rate=0.05)
        long_stream = hardware_stream(seed=12, num_sets=NUM_SETS,
                                      ways=WAYS, length=1500)
        assert run_differential(pair, long_stream, seed=12) is not None
