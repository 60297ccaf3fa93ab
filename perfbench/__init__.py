"""perfbench — the one layered benchmark of this repository.

``python3 perfbench/run.py`` is the only entry point; see README.md.
"""
