"""End-to-end and per-layer benchmark of nearcurve; entry point ``bench/run.py``."""
