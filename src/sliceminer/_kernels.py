"""Backend name that ``perfbench/child.py`` prints on every run; ROADMAP item 1 deletes it with the ``[numpy]`` self-check tag."""

BACKEND = "numpy"
