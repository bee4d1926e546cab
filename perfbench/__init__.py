"""End-to-end and per-layer benchmark of the continual-release synthesizers.

Entry point: ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
