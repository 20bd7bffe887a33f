"""Byte-identity of the canonical JSON report on the benchmark workloads.

The three inputs are the ones ``perfbench/run.py`` writes at seed 1; the
hashes pin the reports the CLI produced for them.  A change that moves any
of these bytes changes behaviour and must say so.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from sliceminer import cli

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures.py"


def load_fixtures():
    name = "perfbench_fixtures"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, FIXTURES)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("writer, rows, max_order, sha256", [
    ("write_planted", 2000, 2,
     "8b0a9f38cf2cb626b4d9a18503c1d2df83a99faa611dea78286b4ba2967c8467"),
    ("write_planted", 220, 3,
     "4249679b4ceb4a95b12aeb33a85ff9a626b34e20102340e152cd2d31d385d458"),
    ("write_null", 1500, 2,
     "f12054cca9ae001fb726b711d2c9044983ae58dc326a3e6b7539cbc7d24a9d49"),
], ids=["planted-2k-o2", "order3-220", "null-1500-o2"])
def test_report_bytes_unchanged(tmp_path, writer, rows, max_order, sha256):
    data = tmp_path / "data.csv"
    report = tmp_path / "report.json"
    getattr(load_fixtures(), writer)(str(data), rows, 1)
    code = cli.main([str(data), "-g", "label", "-p", "pred",
                     "--max-order", str(max_order), "--out", str(report)])
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == sha256
