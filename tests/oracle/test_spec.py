"""Hardware engines vs executable specs, decision for decision.

Each registry policy is implemented twice: the optimized stamp/counter
engine under ``repro.policies`` and the obviously-correct textbook spec
under ``repro.oracle.spec``. Hypothesis drives both from the same event
stream; the harness compares hit/miss, victim tag and (for adaptive)
the imitated component and miss-history state at every access, then
cross-checks the resident contents way-for-way.
"""

import pytest
from hypothesis import given, settings

from repro.oracle.harness import build_hardware_pair, run_differential
from repro.oracle.spec import make_spec, spec_names
from tests import strategies

NUM_SETS = 4
WAYS = 4

block_streams = strategies.block_streams(max_block=48, max_size=300)


def blocks_to_events(blocks):
    """Turn a block stream into (set, tag, is_write) hardware events."""
    return [
        (block % NUM_SETS, block // NUM_SETS, block % 3 == 0)
        for block in blocks
    ]


class TestSpecRegistry:
    def test_spec_exists_for_every_registered_policy(self):
        from repro.policies.registry import available_policies

        assert sorted(spec_names()) == sorted(available_policies())

    def test_make_spec_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            make_spec("clairvoyant", NUM_SETS, WAYS)


class TestHardwareDifferential:
    @pytest.mark.parametrize("name", spec_names())
    @given(blocks=block_streams, seed=strategies.seeds(max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_engine_matches_spec(self, name, blocks, seed):
        pair = build_hardware_pair(name, NUM_SETS, WAYS, seed=seed)
        divergence = run_differential(pair, blocks_to_events(blocks),
                                      seed=seed)
        assert divergence is None, divergence.describe()

    @pytest.mark.parametrize(
        "components",
        [("lru", "lfu"), ("fifo", "mru"), ("random", "srrip"),
         ("lru", "lfu", "fifo", "mru", "random")],
    )
    @given(blocks=block_streams, seed=strategies.seeds(max_value=99))
    @settings(max_examples=15, deadline=None)
    def test_adaptive_matches_spec(self, components, blocks, seed):
        pair = build_hardware_pair("adaptive", NUM_SETS, WAYS, seed=seed,
                                   components=components)
        divergence = run_differential(pair, blocks_to_events(blocks),
                                      seed=seed)
        assert divergence is None, divergence.describe()

    @given(blocks=block_streams)
    @settings(max_examples=20, deadline=None)
    def test_adaptive_decisions_carry_introspection(self, blocks):
        """Misses that evict must report the imitated component and the
        selector's miss-history state — that is what makes a divergence
        report actionable."""
        pair = build_hardware_pair("adaptive", NUM_SETS, WAYS)
        for event in blocks_to_events(blocks):
            engine, spec = pair.apply(event)
            assert engine == spec
            assert engine.history is not None
            assert len(engine.history) == 2
            if engine.evicted_tag is not None:
                assert engine.imitated in (0, 1)


class TestWorkedExample:
    """The hand-worked Algorithm 1 example of docs/theory.md, replayed
    through the reference spec: each reference's outcome, victim,
    imitated component (0 = LRU, 1 = LFU) and window miss counts."""

    STREAM = "AABCACBC"
    EXPECTED = [
        (outcome == "hit", victim, imitated, history)
        for outcome, victim, imitated, history in [
            ("miss", None, None, (0, 0)),
            ("hit", None, None, (0, 0)),
            ("miss", None, None, (0, 0)),
            ("miss", "A", 0, (0, 0)),  # tie -> LRU; step 2
            ("miss", "B", 1, (1, 0)),  # LFU; step 3
            ("hit", None, None, (1, 0)),
            ("miss", "C", 1, (1, 0)),  # LFU; step 2
            ("miss", "A", 0, (1, 1)),  # tie -> LRU; step 3
        ]
    ]

    def test_spec_replays_the_docs_example(self):
        from repro.oracle.spec import SpecAdaptive, SpecCache, make_adaptive_spec

        spec = make_adaptive_spec(1, 2, ("lru", "lfu"))
        assert isinstance(spec, SpecAdaptive)
        cache = SpecCache(1, 2, spec)
        blocks = {"A": 0, "B": 1, "C": 2}
        names = {tag: name for name, tag in blocks.items()}
        replayed = []
        for name in self.STREAM:
            decision = cache.access(0, blocks[name])
            replayed.append((decision.hit, names.get(decision.evicted_tag),
                             decision.imitated, decision.history))
        assert replayed == self.EXPECTED
        assert cache.misses == 6


class TestAdaptiveWindow:
    @pytest.mark.parametrize("factory_kwargs, window", [
        ({}, 2),
        ({"window": "ways"}, 2),
        ({"window": None}, None),
        ({"window": 3}, 3),
    ], ids=["default", "ways", "unbounded", "int"])
    def test_direct_build_matches_make_adaptive_spec(self, factory_kwargs,
                                                     window):
        """A ``SpecAdaptive`` built with the resolved window decides
        exactly as ``make_adaptive_spec``, which resolves its ``"ways"``
        default (here 2) once and passes None or an int through."""
        import random

        from repro.oracle.spec import SpecAdaptive, SpecCache, make_adaptive_spec

        direct = SpecAdaptive(
            1, 2, [make_spec("lru", 1, 2), make_spec("lfu", 1, 2)],
            window=window,
        )
        caches = [SpecCache(1, 2, direct),
                  SpecCache(1, 2, make_adaptive_spec(1, 2, **factory_kwargs))]
        rng = random.Random(53)
        for block in [rng.randrange(6) for _ in range(400)]:
            first, second = (cache.access(0, block) for cache in caches)
            assert first == second
