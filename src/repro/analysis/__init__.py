"""Metrics, tables and per-set maps for the evaluation harness."""
