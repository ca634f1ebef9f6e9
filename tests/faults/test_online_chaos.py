"""Faults for the online layer: flaky loaders and a real SIGKILL.

Seeded loader faults must be reproducible in both the sync and the
async loader; the subprocess smoke kills a persistent CLI run with a
real SIGKILL and requires recovery to reproduce an uninterrupted run's
digest, the same flow the CI workflow runs. Crashes, torn WAL tails
and the invariants they must keep are the state machine's
(``tests/invariants``).
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.faults.online import FlakyLoader

pytestmark = pytest.mark.faults


class TestFlakyLoader:
    def test_deterministic_failure_sequence(self):
        def probe(loader):
            outcomes = []
            for key in range(50):
                try:
                    loader(key)
                    outcomes.append(True)
                except IOError:
                    outcomes.append(False)
            return outcomes

        first = FlakyLoader(lambda k: k, failure_rate=0.3, burst=2, seed=7)
        second = FlakyLoader(lambda k: k, failure_rate=0.3, burst=2, seed=7)
        assert probe(first) == probe(second)
        assert first.calls == 50
        assert 0 < first.failures < 50

    def test_burst_extends_failures(self):
        loader = FlakyLoader(lambda k: k, failure_rate=1.0, burst=3, seed=0)
        with pytest.raises(IOError):
            loader(0)
        # The next `burst` calls fail unconditionally (brown-out).
        for _ in range(3):
            with pytest.raises(IOError):
                loader(0)
        assert loader.failures == 4

    @pytest.mark.parametrize("kwargs", [
        {"failure_rate": 1.5}, {"latency_rate": -0.1}, {"burst": -1},
    ])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FlakyLoader(lambda k: k, **kwargs)


class TestKillAndRecoverSmoke:
    """The CI smoke, in miniature: SIGKILL a persistent CLI run, then
    ``repro-experiments recover --finish`` must reproduce the digest of
    an uninterrupted run exactly."""

    @staticmethod
    def _cli(args, env):
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", *args],
            capture_output=True, text=True, timeout=300, env=env,
        )

    @staticmethod
    def _digest(output):
        match = re.search(r"digest: ([0-9a-f]{64})", output)
        assert match, f"no digest in output: {output!r}"
        return match.group(1)

    def test_sigkill_then_recover_matches_uninterrupted(self, tmp_path):
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        stream = ["--scale", "mini", "--accesses", "30000"]

        reference = self._cli(
            ["recover", "--snapshot-dir", str(tmp_path / "ref"),
             "--finish", *stream], env,
        )
        assert reference.returncode == 0, reference.stderr

        victim_dir = str(tmp_path / "victim")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "recover",
             "--snapshot-dir", victim_dir, "--finish", *stream],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        # Kill as soon as durable state exists (mid-run if the machine
        # is slow enough; the contract holds either way).
        deadline = time.monotonic() + 60
        while (not os.path.exists(os.path.join(victim_dir, "MANIFEST.json"))
               and time.monotonic() < deadline
               and victim.poll() is None):
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)

        recovered = self._cli(
            ["recover", "--snapshot-dir", victim_dir, "--finish"], env,
        )
        assert recovered.returncode == 0, recovered.stderr
        assert self._digest(recovered.stdout) == self._digest(
            reference.stdout
        )

    def test_live_resume_digest_matches_uninterrupted(self, tmp_path):
        """``persistent_replay(live=True)`` after a crash with a WAL
        tail equals the uninterrupted run — in particular, resumed
        accesses landing on still-replaying shards must be stepped to
        readiness and *logged*, never absorbed as unlogged stale
        peeks (a hot key resident in the snapshot would otherwise be
        quietly peek-served and vanish from the stream position)."""
        import json as json_mod

        from repro.experiments import ext_online
        from repro.experiments.base import make_setup
        from repro.online.engine import AdaptiveKVCache
        from repro.online.persistence import (
            PersistentKVCache,
            kv_stats_digest,
        )
        from repro.utils.atomicio import atomic_write_text

        setup = make_setup("mini", accesses=3000)
        capacity = setup.l2.num_lines
        keys = ext_online.build_key_stream("zipf", capacity, setup, seed=0)
        reference = ext_online.persistent_replay(
            str(tmp_path / "ref"), setup=setup
        )

        victim_dir = str(tmp_path / "victim")
        os.makedirs(victim_dir)
        atomic_write_text(
            os.path.join(victim_dir, ext_online.STREAM_FILE),
            json_mod.dumps({
                "workload": "zipf", "scale": "mini",
                "accesses": 3000, "seed": 0,
            }),
        )
        victim = PersistentKVCache(
            AdaptiveKVCache(
                capacity_entries=capacity,
                num_shards=ext_online.NUM_SHARDS,
                policy="adaptive", seed=0,
            ),
            victim_dir, snapshot_every=2000, wal_flush_ops=16,
        )
        # Past the rotation at 2000 with a 345-record WAL tail, 9 of
        # them buffered: the "crash" (no sync, no close) loses those.
        for key in keys[:2345]:
            victim.get_or_compute(key, lambda k: k)
        del victim

        resumed = ext_online.persistent_replay(victim_dir, live=True)
        assert resumed.gets == reference.gets == 3000
        assert kv_stats_digest(resumed) == kv_stats_digest(reference)

    def test_recover_without_state_fails_cleanly(self, tmp_path):
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = self._cli(
            ["recover", "--snapshot-dir", str(tmp_path / "nothing")], env,
        )
        assert result.returncode == 1
        assert "no persisted state" in result.stderr


class TestAsyncFlakyLoader:
    def test_async_decisions_match_sync_stream(self):
        # The async wrapper reuses the seeded _decide stream, so a
        # chaos plan drives the async ladder exactly as the sync one.
        from repro.faults.online import AsyncFlakyLoader
        from repro.serve.vloop import VirtualTimeEventLoop

        def outcomes_sync():
            loader = FlakyLoader(lambda k: k, failure_rate=0.3, burst=2,
                                 seed=9)
            pattern = []
            for key in range(60):
                try:
                    loader(key)
                    pattern.append(True)
                except IOError:
                    pattern.append(False)
            return pattern

        def outcomes_async():
            loader = AsyncFlakyLoader(lambda k: k, failure_rate=0.3,
                                      burst=2, seed=9)
            loop = VirtualTimeEventLoop()

            async def drive():
                pattern = []
                for key in range(60):
                    try:
                        await loader(key)
                        pattern.append(True)
                    except IOError:
                        pattern.append(False)
                return pattern

            return loop.run_until_complete(drive())

        assert outcomes_async() == outcomes_sync()

    def test_base_latency_is_awaited_virtual_time(self):
        from repro.faults.online import AsyncFlakyLoader
        from repro.serve.vloop import VirtualTimeEventLoop

        loader = AsyncFlakyLoader(lambda k: ("v", k), base_latency=0.25,
                                  failure_rate=0.0, seed=0)
        loop = VirtualTimeEventLoop()

        async def drive():
            value = await loader("x")
            return value, loop.time()

        value, elapsed = loop.run_until_complete(drive())
        assert value == ("v", "x")
        assert elapsed == 0.25

    def test_rejects_negative_base_latency(self):
        from repro.faults.online import AsyncFlakyLoader

        with pytest.raises(ValueError, match="base_latency"):
            AsyncFlakyLoader(lambda k: k, base_latency=-0.1)
