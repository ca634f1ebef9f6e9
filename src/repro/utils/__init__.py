"""Shared low-level utilities: bit manipulation, deterministic RNG and
atomic file writes."""
