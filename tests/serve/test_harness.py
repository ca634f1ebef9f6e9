"""The five-regime SLO harness: reports, determinism, floor checks."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.serve.harness import check_floors, run_regime, run_serve
from repro.serve.stack import (
    NEAR_CAPACITY,
    REPLAY_CHUNK_OPS,
    REPLAY_INTERVAL,
    RegimePlan,
    build_stack,
    default_plans,
)
from repro.workloads.keystreams import StreamSpec

from tests.conftest import serve_report


def tiny_plan(**overrides):
    """A sub-second regime that still exercises the whole pipeline."""
    settings = dict(
        name="tiny",
        spec=StreamSpec(rate=400.0, mix="B", clients=4, seed=3),
        warmup=0.25,
        duration=0.5,
        concurrency=4,
        max_pending=64,
        deadline=0.1,
        seed=3,
    )
    settings.update(overrides)
    return RegimePlan(**settings)


class TestRunRegime:
    def test_accounting_adds_up(self):
        report = run_regime(tiny_plan())
        assert report.requests > 0
        assert (report.completed + report.shed + report.timeouts
                + report.unavailable) == report.requests
        assert report.wrong_values == 0
        assert report.goodput_rps <= report.offered_rps

    def test_sketch_tracks_exact_reference(self):
        report = run_regime(tiny_plan())
        # The report carries both paths; they must agree to the
        # sketch's 1% relative error on every published percentile.
        for sketch_ms, exact_ms in (
            (report.p50_ms, report.exact_p50_ms),
            (report.p99_ms, report.exact_p99_ms),
            (report.p999_ms, report.exact_p999_ms),
        ):
            assert abs(sketch_ms - exact_ms) <= 0.01 * exact_ms + 1e-6

    def test_regime_is_deterministic(self):
        first = run_regime(tiny_plan()).to_dict()
        second = run_regime(tiny_plan()).to_dict()
        assert first == second

    def test_seed_changes_the_stream(self):
        base = run_regime(tiny_plan())
        other = run_regime(tiny_plan(
            spec=StreamSpec(rate=400.0, mix="B", clients=4, seed=4),
            seed=4,
        ))
        assert base.to_dict() != other.to_dict()

    def test_chaos_schedule_produces_stale_serves(self):
        report = run_regime(tiny_plan(
            name="tiny-degraded",
            warmup=0.5,
            duration=1.5,
            failure_rate=0.3,
            burst=4,
            ttl=0.4,
            breaker_timeout=0.2,
            retry_budget_tokens=2,
            quarantine_shards=(1,),
            quarantine_at=0.8,
            rebuild_at=1.5,
        ))
        assert report.stale_serves > 0
        assert report.stale_fraction > 0.0
        assert report.wrong_values == 0
        assert report.breaker_trips > 0

    def test_overloaded_plan_sheds(self):
        report = run_regime(tiny_plan(
            name="tiny-overload",
            spec=StreamSpec(rate=4000.0, mix="C", clients=4, seed=5),
            concurrency=2,
            max_pending=8,
            deadline=0.05,
            seed=5,
        ))
        assert report.shed > 0
        assert report.shed_rate > 0.0
        assert report.goodput_rps < report.offered_rps


class TestServeReport:
    def test_json_is_canonical_and_stable(self):
        # Quick mode so the double run stays test-suite friendly.
        first = run_serve(quick=True, seed=1)
        second = run_serve(quick=True, seed=1)
        assert first.to_json() == second.to_json()
        decoded = json.loads(first.to_json())
        assert decoded["schema"] == 1
        assert decoded["seed"] == 1
        assert set(decoded["regimes"]) == {
            "steady", "overload", "degraded", "recovery", "steady_tiered",
        }

    def test_render_mentions_every_regime(self, quick_serve_report):
        text = quick_serve_report.render()
        for name in ("steady", "overload", "degraded", "recovery",
                     "steady_tiered"):
            assert name in text

    def test_default_plans_cover_both_scales(self):
        quick = default_plans(quick=True)
        full = default_plans(quick=False)
        assert [p.name for p in quick] == [p.name for p in full]
        assert len(full) == 5
        assert all(q.duration < f.duration
                   for q, f in zip(quick, full))
        # The chaos schedule must land inside the measured phase.
        degraded = dict((p.name, p) for p in full)["degraded"]
        assert degraded.warmup < degraded.quarantine_at
        assert degraded.quarantine_at < degraded.rebuild_at
        assert degraded.rebuild_at < degraded.warmup + degraded.duration
        # Replay must drain inside the measured window at both scales,
        # so the report sees the recovered steady state too.
        for plans in (quick, full):
            recovery = dict((p.name, p) for p in plans)["recovery"]
            replay_rate = REPLAY_CHUNK_OPS / REPLAY_INTERVAL
            assert recovery.recover_ops / replay_rate < recovery.duration


def recovery_plan(**overrides):
    """A sub-second live-recovery regime (seed, crash, replay, serve)."""
    settings = dict(
        name="tiny-recovery",
        spec=StreamSpec(rate=600.0, mix="B", clients=4, seed=7),
        warmup=0.0,
        duration=0.8,
        concurrency=4,
        max_pending=64,
        deadline=0.1,
        ttl=None,
        recover_ops=400,
        seed=7,
    )
    settings.update(overrides)
    return RegimePlan(**settings)


class TestRecoveryRegime:
    def test_live_recovery_matches_stop_the_world(self):
        report = run_regime(recovery_plan())
        # The tentpole invariant: serving during replay must converge
        # to the exact state stop-the-world recovery produces — which
        # also proves every acked (dual-logged) write survived.
        assert report.recovered_digest_match == 1
        assert report.replay_total_ops == report.replay_applied_ops > 0
        assert report.wrong_values == 0

    def test_replay_window_is_measured(self):
        report = run_regime(recovery_plan())
        assert report.recovery_complete_s > 0.0
        assert report.replay_p99_ms > 0.0
        # Honest degradation is visible while shards are replaying.
        assert report.refused_recovering + report.recovering_stale > 0

    def test_accounting_includes_refusals(self):
        report = run_regime(recovery_plan())
        assert (report.completed + report.shed + report.timeouts
                + report.unavailable + report.refused_recovering
                ) == report.requests

    def test_recovery_regime_is_deterministic(self):
        first = run_regime(recovery_plan()).to_dict()
        second = run_regime(recovery_plan()).to_dict()
        assert first == second

    def test_deferred_writes_survive(self):
        # A write-heavy mix during replay exercises the dual-logged
        # deferred path; the digest match proves none were lost.
        report = run_regime(recovery_plan(
            spec=StreamSpec(rate=600.0, mix="A", clients=4, seed=9),
            seed=9,
        ))
        assert report.deferred_writes > 0
        assert report.recovered_digest_match == 1


class TestTieredRegime:
    def test_tiered_front_serves_steady_load(self):
        report = run_regime(tiny_plan(name="tiny-tiered", front="tiered"))
        assert report.completed > 0
        assert report.wrong_values == 0
        assert report.hit_ratio > 0.0
        assert report.breaker_trips == 0
        assert report.recovered_digest_match == 0  # not a recovery run

    def test_tiered_regime_is_deterministic(self):
        plan = tiny_plan(name="tiny-tiered", front="tiered")
        assert run_regime(plan).to_dict() == run_regime(plan).to_dict()

    def test_stack_takes_the_fixed_knobs(self):
        front, _loader, _budget, _live = build_stack(
            tiny_plan(front="tiered"), clock=lambda: 0.0
        )
        resilient = front.resilient
        assert resilient.cache.tiers[0].capacity == NEAR_CAPACITY
        assert {breaker.failure_threshold
                for breaker in resilient.breakers} == {5}

    def test_unknown_front_rejected(self):
        with pytest.raises(ValueError, match="front"):
            run_regime(tiny_plan(front="bogus"))


class TestCheckFloors:
    REPORT = {
        "regimes": {
            "steady": {
                "offered_rps": 1000.0, "goodput_rps": 990.0,
                "p99_ms": 5.0, "shed_rate": 0.0, "wrong_values": 0,
            },
        },
    }

    def test_passing_floors(self):
        floors = {"steady": {"min_goodput_fraction": 0.98,
                             "max_p99_ms": 10.0,
                             "max_wrong_values": 0}}
        assert check_floors(self.REPORT, floors) == []

    def test_floor_violation_reported(self):
        floors = {"steady": {"min_goodput_fraction": 0.999}}
        problems = check_floors(self.REPORT, floors)
        assert len(problems) == 1
        assert "goodput_fraction" in problems[0]

    def test_ceiling_violation_reported(self):
        floors = {"steady": {"max_p99_ms": 1.0}}
        problems = check_floors(self.REPORT, floors)
        assert "p99_ms" in problems[0]

    def test_missing_regime_reported(self):
        problems = check_floors(self.REPORT, {"overload": {}})
        assert "missing" in problems[0]

    def test_unknown_bound_reported(self):
        problems = check_floors(self.REPORT, {"steady": {"weird": 1}})
        assert "unknown bound" in problems[0]

    def test_comment_keys_skipped(self):
        floors = {"_comment": "doc", "steady": {"_comment": "doc"}}
        assert check_floors(self.REPORT, floors) == []


@pytest.mark.slow
class TestFullScaleSweep:
    """The full (bench-scale) SLO sweep; the quick CI smoke covers the
    same regimes with a shorter measured phase."""

    ROOT = pathlib.Path(__file__).resolve().parents[2]

    @pytest.fixture(scope="class")
    def committed(self):
        # BENCH_serve.json is regenerated by `repro-experiments serve`.
        return json.loads((self.ROOT / "BENCH_serve.json").read_text())

    @pytest.fixture(scope="class")
    def report(self, committed):
        """The full sweep at the committed seed, shared by both tests
        and the ext-serve paper-shape check."""
        return serve_report(False, committed["seed"])

    def test_full_report_clears_pinned_floors(self, report):
        baselines = json.loads(
            (self.ROOT / "benchmarks" / "baselines.json").read_text()
        )
        assert check_floors(report.to_dict(), baselines["serve"]) == []
        overload = report.regimes["overload"]
        degraded = report.regimes["degraded"]
        assert overload.shed > 0 and overload.timeouts > 0
        assert degraded.stale_serves > 0
        assert degraded.retries_denied > 0
        assert all(r.wrong_values == 0 for r in report.regimes.values())

    def test_full_report_matches_committed_bench(self, report, committed):
        # A mismatch means the harness changed without refreshing
        # BENCH_serve.json.
        assert report.to_dict() == committed
