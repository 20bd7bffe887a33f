"""Backend name; only ``perfbench/child.py`` reads it, to print on every run."""

BACKEND = "numpy"
