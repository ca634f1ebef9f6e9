"""Replacement policies.

Each policy is a per-set state machine behind the
:class:`~repro.policies.base.ReplacementPolicy` interface, so the identical
policy code drives both real caches and the shadow (parallel) tag arrays of
the adaptive scheme.
"""
