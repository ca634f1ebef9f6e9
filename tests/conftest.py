"""Shared fixtures: small cache geometries and reference traces."""

from __future__ import annotations

import functools
import random

import pytest

from repro.cache.config import CacheConfig
from repro.cpu.config import ProcessorConfig
from repro.online.resilience import RetryPolicy
from repro.policies import registry
from repro.serve.harness import run_serve


@pytest.fixture(autouse=True)
def _builtin_policies_only():
    """Every test ends with the policy registry it started with, so a
    ``register_policy`` in one test (or docs example) does not outlive
    it."""
    saved = dict(registry._REGISTRY)
    yield
    registry._REGISTRY.clear()
    registry._REGISTRY.update(saved)


@pytest.fixture
def tiny_config():
    """4 sets x 4 ways of 64B lines (1 KB): tiny enough to reason about."""
    return CacheConfig(size_bytes=1024, ways=4, line_bytes=64)


@pytest.fixture
def small_config():
    """64 sets x 8 ways (32 KB): the default unit-test L2 geometry."""
    return CacheConfig(size_bytes=32 * 1024, ways=8, line_bytes=64)


@pytest.fixture
def small_processor(small_config):
    """A processor scaled to the small L2."""
    l1 = CacheConfig(size_bytes=2 * 1024, ways=4, line_bytes=64, hit_latency=2)
    return ProcessorConfig(l1d=l1, l1i=l1, l2=small_config)


@pytest.fixture
def random_blocks():
    """Factory for deterministic random block-address traces."""

    def make(length=2000, universe=512, seed=0):
        rng = random.Random(seed)
        return [rng.randrange(universe) for _ in range(length)]

    return make


def addresses_for_set(config: CacheConfig, set_index: int, count: int):
    """``count`` distinct byte addresses that all map to ``set_index``."""
    return [
        config.rebuild_address(tag, set_index) for tag in range(1, count + 1)
    ]


def retry_policy(attempts: int, **settings) -> RetryPolicy:
    """A :class:`~repro.online.resilience.RetryPolicy` that makes at most
    ``attempts`` loader calls; programs keep the class's count."""
    retry = RetryPolicy(**settings)
    retry.attempts = attempts
    return retry


@functools.lru_cache(maxsize=None)
def serve_report(quick: bool, seed: int):
    """One :func:`~repro.serve.harness.run_serve` report per (scale,
    seed) for the whole session. The harness is deterministic and the
    full-scale sweep takes seconds, so the checks that only read it
    share one; tests of its determinism call ``run_serve`` themselves."""
    return run_serve(quick=quick, seed=seed)


@pytest.fixture(scope="session")
def quick_serve_report():
    """The session's shared quick-scale serve report at seed 0."""
    return serve_report(True, 0)


@pytest.fixture
def shared_run_serve(monkeypatch):
    """Answer ``repro.serve.harness.run_serve`` from the shared reports;
    the list records each ``(quick, seed)`` asked for."""
    from repro.experiments import ext_serve
    from repro.serve import harness

    calls = []

    def shared(quick, seed):
        calls.append((quick, seed))
        return serve_report(quick, seed)

    monkeypatch.setattr(harness, "run_serve", shared)
    monkeypatch.setattr(ext_serve, "run_serve", shared)
    return calls
