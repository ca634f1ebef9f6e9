"""The serving stack's guarantees, each stated once (docs/testing.md)."""
