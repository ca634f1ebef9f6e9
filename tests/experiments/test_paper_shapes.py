"""The paper's shape claims: one check per registered experiment.

Every entry of :data:`repro.experiments.cli.EXPERIMENTS` has one check
here. It runs the experiment and asserts the *direction and rough
magnitude* of its claim (who wins, where the knee is, which bound
holds): the paper's claim for a figure or table, the design claim for
an ``ext-*`` entry. The test is parametrized over the registry, so an
experiment registered without a check fails.

Each check runs at two scales of the 16 KB ``mini`` geometry:

* ``quick``: 1500 accesses per workload, and a 4-program slice for the
  parameter sweeps. It runs in every test selection.
* ``default``: 6000 accesses and an 8-program slice, marked ``slow``.

A few checks pin their own inputs at both scales: fig7 needs a long
trace for its phases to show, ext-skew builds its own 10k-access
streams, and storage and theory take no setup. A check narrows an
experiment through its module constants (``ASSOCIATIVITIES``, ...),
not through options the CLI never passes.
"""

import json
import pathlib
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.experiments.base import Setup, make_setup
from repro.experiments.cli import EXPERIMENTS

from tests.conftest import serve_report
from tests.experiments.helpers import (
    acceptance_score,
    adaptive_vs_best_fixed,
    crash_hit_cost,
    row_by_label,
    run_experiment,
)

BASELINES = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
    / "baselines.json"
)


@dataclass(frozen=True)
class Scale:
    """One configuration every check runs at."""

    accesses: int
    #: The parameter sweeps' workload slice; it covers every locality
    #: class.
    subset: Tuple[str, ...]
    quick: bool

    @property
    def setup(self) -> Setup:
        return make_setup("mini", accesses=self.accesses)


QUICK = Scale(1500, ("lucas", "art-1", "ammp", "mcf"), quick=True)
DEFAULT = Scale(
    6000,
    ("lucas", "gcc-2", "art-1", "tiff2rgba", "ammp", "mcf", "swim", "unepic"),
    quick=False,
)

#: Registry key -> check(experiment module, scale).
CHECKS = {}


def check(name):
    """Register the decorated function as experiment ``name``'s check."""

    def register(function):
        CHECKS[name] = function
        return function

    return register


@pytest.mark.parametrize("scale", [
    pytest.param(QUICK, id="quick"),
    pytest.param(DEFAULT, id="default", marks=pytest.mark.slow),
])
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_paper_shape(name, scale):
    assert name in CHECKS, f"experiment {name!r} has no shape check"
    CHECKS[name](EXPERIMENTS[name], scale)


def test_every_check_names_a_registered_experiment():
    assert sorted(CHECKS) == sorted(EXPERIMENTS)


# ---------------------------------------------------------------------------
# The paper's tables and figures
# ---------------------------------------------------------------------------


@check("storage")
def _storage(storage, scale):
    """§3.2/§4.7: 544/598/566 KB; 4.0%, 2.1% and 0.16% overhead."""
    totals = {row[0]: (row[1], row[2])
              for row in run_experiment("storage", scale.setup).rows}
    assert totals["conventional (data+tags+state)"][0] == pytest.approx(544.0)
    assert totals["adaptive, full tags"][0] == pytest.approx(598.0)
    assert totals["adaptive, 8-bit partial tags"][0] == pytest.approx(566.0)
    assert totals["adaptive, 8-bit partial tags"][1] == pytest.approx(
        4.0, abs=0.1)
    assert totals["adaptive, 8-bit tags, 128B lines"][1] == pytest.approx(
        2.1, abs=0.1)
    assert totals["SBAR, 16 leaders, full tags"][1] == pytest.approx(
        0.16, abs=0.01)


@check("fig3")
def _fig3(fig3, scale):
    """Adaptive matches the better of LRU/LFU on average MPKI (a small
    epsilon for tracking overhead) and beats the worse."""
    average = row_by_label(run_experiment("fig3", scale.setup), "Average")
    adaptive, lfu, lru = average[1], average[2], average[3]
    assert adaptive <= 1.05 * min(lfu, lru)
    assert adaptive < max(lfu, lru)


@check("fig4")
def _fig4(fig4, scale):
    """Adaptive beats LRU on average CPI."""
    average = row_by_label(run_experiment("fig4", scale.setup), "Average")
    assert average[1] < average[3]


@check("fig5")
def _fig5(fig5, scale):
    """8-bit tags stay within a few percent of full tags; the narrowest
    are never better than wide ones by a wide margin."""
    result = run_experiment("fig5", scale.setup, scale.subset)
    assert abs(row_by_label(result, "8-bit")[4]) < 5.0
    assert (row_by_label(result, "4-bit")[3]
            >= row_by_label(result, "12-bit")[3] - 2.0)


@check("fig6")
def _fig6(fig6, scale):
    """8-bit-tag adaptivity is competitive with a 25% larger 10-way LRU
    cache. Full primary set: a slice over-weights loops that exactly
    fit the larger cache."""
    result = run_experiment("fig6", scale.setup)
    adaptive = row_by_label(result, "Adaptive (8-bit tags)")[1]
    ten_way = next(row[1] for row in result.rows if "10-way" in row[0])
    assert adaptive < ten_way * 1.05


@check("fig7")
def _fig7(fig7, scale):
    """ammp's middle quanta are LFU-heavy, its final ones LRU-dominant."""
    result = run_experiment("fig7", make_setup("mini", accesses=12_000),
                            SAMPLES=8)
    ammp = row_by_label(result, "ammp")
    assert ammp[-1] < 0.5
    assert max(ammp[1:-2]) > 0.5


@check("fig8")
def _fig8(fig8, scale):
    """FIFO/MRU adaptivity tracks the better component; MRU wins on art."""
    result = run_experiment("fig8", scale.setup)
    average = row_by_label(result, "Average")
    assert average[1] <= min(average[2], average[3]) * 1.1
    art = row_by_label(result, "art-1")
    assert art[3] < art[2]


@check("fig9")
def _fig9(fig9, scale):
    """A real miss reduction exists at every associativity."""
    result = run_experiment("fig9", scale.setup, scale.subset,
                            ASSOCIATIVITIES=(4, 8, 16))
    for row in result.rows:
        assert row[2] > 0.0, f"{row[0]}-way shows no miss reduction"


@check("fig10")
def _fig10(fig10, scale):
    """Bigger store buffers lower the LRU CPI (the tolerance covers
    store-stall/load-overlap interactions that reorder near-identical
    CPIs by <0.5%), and a benefit remains at 256 entries."""
    result = run_experiment("fig10", scale.setup, scale.subset,
                            BUFFER_SIZES=(4, 16, 64, 256))
    lru_cpis = result.column("LRU avg CPI")
    assert all(a >= b - 0.005 * a for a, b in zip(lru_cpis, lru_cpis[1:]))
    assert result.rows[-1][3] > 0.0


@check("sec44")
def _sec44(sec44, scale):
    """Five-policy adaptivity is virtually identical to LRU/LFU."""
    average = row_by_label(
        run_experiment("sec44", scale.setup, scale.subset), "Average")
    two, five = average[1], average[2]
    assert abs(five - two) / two < 0.25


@check("sec46")
def _sec46(sec46, scale):
    """The L1I gains more than the L1D, and neither regresses badly."""
    result = run_experiment("sec46", scale.setup, scale.subset)
    l1i = row_by_label(result, "L1 instruction")
    l1d = row_by_label(result, "L1 data")
    assert l1i[3] > l1d[3]
    assert l1d[3] > -5.0


@check("sec47")
def _sec47(sec47, scale):
    """SBAR improves on LRU while staying near full adaptivity."""
    average = row_by_label(run_experiment(
        "sec47", scale.setup, scale.subset, NUM_LEADERS=8), "Average")
    adaptive, sbar, lru = average[1], average[2], average[4]
    assert sbar < lru
    assert sbar >= adaptive * 0.9


@check("theory")
def _theory(theory, scale):
    """Appendix: at most 2x the better component's misses, per set."""
    result = run_experiment("theory", scale.setup, SEEDS=3,
                            TRACE_LENGTH=10_000)
    assert all(row[2] for row in result.rows)
    assert max(row[1] for row in result.rows) <= 2.0


# ---------------------------------------------------------------------------
# Methodology and ablations
# ---------------------------------------------------------------------------


@check("ablations")
def _ablations(ablations, scale):
    """No mechanism variant the paper leaves untuned collapses."""
    result = run_experiment("ablations", scale.setup, scale.subset[:5])
    baseline = next(row[2] for row in result.rows if row[0] == "baseline")
    for row in result.rows:
        assert row[2] < 1.6 * baseline, (row, baseline)


@check("seeds")
def _seeds(seeds, scale):
    """The MPKI reduction is positive on every trace seed, with a spread
    small relative to the mean."""
    result = run_experiment("seeds", scale.setup,
                            ["lucas", "art-1", "tiff2rgba", "ammp"], SEEDS=3)
    per_seed = [row[1] for row in result.rows if row[0] != "mean"]
    mean = row_by_label(result, "mean")[1]
    assert mean > 0.0
    assert all(value > 0.0 for value in per_seed)
    assert max(per_seed) - min(per_seed) < max(6.0, 0.8 * mean)


@check("ext-validate")
def _ext_validate(ext_validate, scale):
    """The aggregate and scoreboard timing models agree on the sign of
    every material adaptive-vs-LRU difference."""
    workloads = ["lucas", "art-1", "tiff2rgba", "mcf"]
    result = run_experiment("ext-validate", scale.setup, workloads)
    for name in workloads:
        aggregate, scoreboard = row_by_label(result, name)[1:3]
        if abs(aggregate) >= 2.0 or abs(scoreboard) >= 2.0:
            assert (aggregate > 0) == (scoreboard > 0), name


# ---------------------------------------------------------------------------
# Extensions of the paper
# ---------------------------------------------------------------------------


@check("ext-shared")
def _ext_shared(ext_shared, scale):
    """On two-core mixes the adaptive shared L2 beats LRU and stays
    near the best fixed policy."""
    result = run_experiment("ext-shared", scale.setup, PAIRS=[
        ("lucas", "tiff2rgba"), ("gcc-2", "art-1"), ("bzip2", "xanim"),
    ])
    for row in result.rows:
        assert row[4] > 0.0, f"{row[0]}: adaptive lost to LRU"
        assert row[5] > -15.0, f"{row[0]}: adaptive far from best fixed"


@check("ext-prefetch")
def _ext_prefetch(ext_prefetch, scale):
    """The hybrid prefetcher beats none on average and tracks the better
    component per workload."""
    workloads = ["swim", "equake", "mcf", "lucas", "tiff2rgba"]
    result = run_experiment("ext-prefetch", scale.setup, workloads)
    average = row_by_label(result, "Average")
    assert average[4] < average[1]
    for name in workloads:
        row = row_by_label(result, name)
        assert row[4] <= 1.25 * min(row[1:4]) + 1.0, name


@check("ext-dip")
def _ext_dip(ext_dip, scale):
    """Dueling (LRU, BIP) fixes the thrashing mix overall without
    losing badly to LRU on the recency-friendly programs."""
    result = run_experiment("ext-dip", scale.setup, [
        "art-1", "gcc-1", "equake", "lucas", "gcc-2",
    ])
    average = row_by_label(result, "Average")
    assert average[1] < average[5]
    for name in ("lucas", "gcc-2"):
        row = row_by_label(result, name)
        assert row[1] <= 1.1 * row[5], name


@check("ext-skew")
def _ext_skew(ext_skew, scale):
    """Skewing fixes conflict misses, adaptivity fixes policy misses,
    and neither helps the other's stream."""
    result = run_experiment("ext-skew", make_setup("mini", accesses=10_000))
    conflict = row_by_label(result, "conflict (stride=sets)")
    policy = row_by_label(result, "policy (hot+scan)")
    assert conflict[3] < 0.3 * conflict[1]
    assert conflict[2] > 0.9 * conflict[1]
    assert policy[2] < 0.95 * policy[1]
    assert policy[3] > 0.9 * policy[1]


@check("ext-faults")
def _ext_faults(ext_faults, scale):
    """An armed but quiet injector changes nothing; at a 5% per-access
    fault rate adaptive MPKI stays within 2x of fault-free."""
    workloads = ["lucas", "art-1", "ammp", "mcf"]
    rates = (0.001, 0.01, 0.05)
    result = run_experiment("ext-faults", scale.setup, workloads,
                            RATES=rates)
    for name in workloads:
        row = row_by_label(result, name)
        assert row[3] == row[2], name
    average = row_by_label(result, "Average")
    assert average[4 + len(rates) - 1] <= 2.0 * max(average[2], 0.5)


@check("ext-online")
def _ext_online(ext_online, scale):
    """On the phase-change stream the adaptive engine matches or beats
    the better fixed policy, and every cell serves."""
    result = run_experiment("ext-online", scale.setup, WORKLOADS=(
        "zipf", "scan-hot", ext_online.PHASE_WORKLOAD,
    ))
    assert adaptive_vs_best_fixed(result) >= -0.5
    for row in result.rows:
        assert row[2] + row[3] > 0  # hits + misses
        assert row[5] > 0  # ops/sec


@check("ext-serve")
def _ext_serve(_, scale):
    """The qualitative SLO story of the five serving regimes."""
    regimes = serve_report(scale.quick, 0).regimes
    steady, overload = regimes["steady"], regimes["overload"]
    degraded, recovery = regimes["degraded"], regimes["recovery"]
    tiered = regimes["steady_tiered"]
    # Steady: nothing refused, goodput equals offered load.
    assert steady.shed == 0 and steady.timeouts == 0
    assert steady.completed == steady.requests
    # Overload: the bounded queue sheds rather than queueing forever,
    # and what is admitted still meets its (50 ms) deadline at p99.
    assert overload.shed > 0
    assert overload.goodput_rps < overload.offered_rps
    assert overload.p99_ms <= 55.0
    # Degraded: stale serving engaged.
    assert degraded.stale_serves > 0
    assert degraded.breaker_trips > 0
    # Recovery: the whole WAL replayed live, with honest outcomes during
    # the window, ending byte-identical to a stop-the-world recovery.
    assert recovery.recovered_digest_match == 1
    assert recovery.replay_total_ops == recovery.replay_applied_ops > 0
    assert recovery.refused_recovering + recovery.recovering_stale > 0
    assert recovery.recovery_complete_s > 0.0
    # Tiered: the near/far front serves the steady stream cleanly.
    assert tiered.completed > 0 and tiered.hit_ratio > 0.0
    assert tiered.shed == 0 and tiered.timeouts == 0
    for regime in regimes.values():
        assert regime.wrong_values == 0


@check("ext-cluster")
def _ext_cluster(ext_cluster, scale):
    """Replication >= 2 rides out a member crash at full availability,
    and the crash costs r=1 at least as many hit-points as r=3."""
    result = run_experiment("ext-cluster", scale.setup)
    cells = {(row[0], row[1]): row for row in result.rows}
    for row in result.rows:
        assert row[3] > 0  # hit %
        assert row[4] > 0  # ops/sec
    for replication in (2, 3):
        assert cells[(replication, "kill")][5] == 100.0
    assert cells[(1, "kill")][5] <= cells[(2, "kill")][5]
    assert crash_hit_cost(result, 3) <= crash_hit_cost(result, 1)


@check("ext-tiers")
def _ext_tiers(ext_tiers, scale):
    """Adaptive placement matches or beats the best fixed strategy on at
    least the pinned number of keystream classes, and every latency
    lies between the near tier's and the backing store's."""
    floor = json.loads(BASELINES.read_text())["tiers"]["min_acceptance_classes"]
    result = run_experiment("ext-tiers", scale.setup)
    assert acceptance_score(result) >= int(floor)
    for row in result.rows:
        assert row[5] > 0  # ops/sec
        assert ext_tiers.NEAR_LATENCY <= row[4] <= ext_tiers.BACKING_LATENCY
