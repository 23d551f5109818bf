"""CEPR end-to-end and per-layer benchmark (run ``python3 cepr_bench/run.py``)."""
