"""End-to-end serving benchmark with per-layer attribution.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
