"""Helpers the experiment tests share: run an experiment the way the
CLI does, narrowed through its module constants, and read its table."""

import pytest

from repro.experiments import cli
from repro.experiments.ext_online import FIXED_BASELINES, PHASE_WORKLOAD
from repro.experiments.ext_tiers import FIXED_STRATEGIES, LATENCY_TOLERANCE


def run_experiment(name, setup, workloads=None, checkpoint=None, **constants):
    """:func:`repro.experiments.cli.run_experiment` with the experiment
    module's ``constants`` (``BUFFER_SIZES=(4, 64)``, ...) replaced for
    the call, the way a test narrows a sweep the CLI runs whole."""
    with pytest.MonkeyPatch.context() as patch:
        for constant, value in constants.items():
            patch.setattr(cli.EXPERIMENTS[name], constant, value)
        return cli.run_experiment(name, setup, workloads,
                                  checkpoint=checkpoint)


def row_by_label(result, label) -> list:
    """The first row of ``result`` whose first cell is ``label``."""
    return next(row for row in result.rows if row[0] == label)


def adaptive_vs_best_fixed(result) -> float:
    """ext-online: adaptive hit % minus the best fixed policy's on the
    phase-change stream. Positive (or mildly negative, within noise)
    means the adaptive engine matched or beat the better fixed policy."""
    by_engine = {row[1]: row[4] for row in result.rows
                 if row[0] == PHASE_WORKLOAD}
    best_fixed = max(value for engine, value in by_engine.items()
                     if engine in FIXED_BASELINES)
    return by_engine["adaptive"] - best_fixed


def crash_hit_cost(result, replication: int) -> float:
    """ext-cluster: the hit-% cost of the member crash at one
    replication factor (small at r >= 2, where peers hold the crashed
    member's entries)."""
    by_chaos = {row[1]: row[3] for row in result.rows
                if row[0] == replication}
    return by_chaos["none"] - by_chaos["kill"]


def adaptive_latency_margin(result, workload: str) -> float:
    """ext-tiers: the best fixed strategy's mean latency minus
    adaptive's on ``workload``; at least ``-LATENCY_TOLERANCE`` means
    adaptive matched or beat the best fixed placement."""
    by_strategy = {row[1]: row[4] for row in result.rows
                   if row[0] == workload}
    best_fixed = min(value for strategy, value in by_strategy.items()
                     if strategy in FIXED_STRATEGIES)
    return best_fixed - by_strategy["adaptive"]


def acceptance_score(result) -> int:
    """ext-tiers: the keystream classes where adaptive placement
    matches or beats the best fixed strategy."""
    return sum(
        1 for workload in sorted({row[0] for row in result.rows})
        if adaptive_latency_margin(result, workload) >= -LATENCY_TOLERANCE
    )
