"""Shared test helpers: dataset builders and the environment of a
child-process CLI run."""

from __future__ import annotations

import os
from pathlib import Path

import sliceminer
from sliceminer.dataset import Dataset, IngestConfig, load_table


def child_environ(**overrides: str) -> dict[str, str]:
    """Environment for a child interpreter that must import this sliceminer.

    Starts from ``os.environ``, puts the directory this process imported
    ``sliceminer`` from first on ``PYTHONPATH`` (absolute, so the child's
    working directory does not matter), then applies ``overrides``.
    """
    env = dict(os.environ)
    package_root = str(Path(sliceminer.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root + os.pathsep + inherited if inherited
                         else package_root)
    env.update(overrides)
    return env


def write_csv(path, header, rows, delimiter=","):
    lines = [delimiter.join(header)]
    lines += [delimiter.join(str(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def dataset_from_columns(tmp_path, columns: dict[str, list], correct: list[bool],
                         config_kwargs: dict | None = None) -> Dataset:
    """Build a Dataset through the real CSV ingestion path.

    ``columns`` maps feature name -> cell values; correctness is encoded via
    a label/pred pair appended to the table.
    """
    names = list(columns)
    n = len(correct)
    rows = []
    for i in range(n):
        row = [columns[name][i] for name in names]
        row.append(1)
        row.append(1 if correct[i] else 0)
        rows.append(row)
    path = write_csv(tmp_path / "table.csv", names + ["label", "pred"], rows)
    kwargs = dict(ground_truth="label", prediction="pred")
    kwargs.update(config_kwargs or {})
    return load_table(path, IngestConfig(**kwargs))
