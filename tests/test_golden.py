"""The benchmark workloads: report bytes and the benchmark's trace hooks.

The three inputs are the ones ``perfbench/run.py`` writes at seed 1; the
hashes pin the JSON, markdown and CSV reports the CLI produced for them.  A
change that moves any of these bytes changes behaviour and must say so.
The trace test runs ``perfbench/child.py`` the way a traced benchmark run
does, so renaming a function the benchmark wraps fails here.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sliceminer import cli
from tests.conftest import child_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FORMATS = ("json", "markdown", "csv")


def load_fixtures():
    name = "perfbench_fixtures"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / "fixtures.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("writer, rows, max_order, hashes", [
    ("write_planted", 2000, 2, {
        "json": "8b0a9f38cf2cb626b4d9a18503c1d2df83a99faa611dea78286b4ba2967c8467",
        "markdown": "3d39fb362519681debb8879cb80aa637b011b9407bf3fbcf39274a434f213869",
        "csv": "72476e8beb04b08d52878e9da74bd27edee710f17a32708891ecd4baa5fd675b"}),
    ("write_planted", 220, 3, {
        "json": "4249679b4ceb4a95b12aeb33a85ff9a626b34e20102340e152cd2d31d385d458",
        "markdown": "704108e873f87154662e5e6afb4a57105efb10408a5b88d6ad4a641a28231e71",
        "csv": "9b2f4e31183477e700556ac655acb4a1fe86f2e6b6d4d8f7758866777d6ee110"}),
    ("write_null", 1500, 2, {
        "json": "f12054cca9ae001fb726b711d2c9044983ae58dc326a3e6b7539cbc7d24a9d49",
        "markdown": "8a069696b311fd583a2023a41044feefd06e252a282ba811dc0bdbc6b83a0f95",
        "csv": "688d31dafbd8a34cc783b5cd13beeb5399759a32166f32390d97d65cb2415147"}),
], ids=["planted-2k-o2", "order3-220", "null-1500-o2"])
def test_report_bytes_unchanged(tmp_path, monkeypatch, writer, rows, max_order,
                                hashes):
    data = tmp_path / "data.csv"
    report = tmp_path / "report.json"
    getattr(load_fixtures(), writer)(str(data), rows, 1)
    renders = {}
    render = cli.render

    def render_every_format(run_report, format):
        for fmt in FORMATS:
            renders[fmt] = render(run_report, fmt)
        return renders[format]

    monkeypatch.setattr(cli, "render", render_every_format)
    code = cli.main([str(data), "-g", "label", "-p", "pred",
                     "--max-order", str(max_order), "--out", str(report)])
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == hashes["json"]
    assert {fmt: sha256(text) for fmt, text in renders.items()} == hashes


def test_trace_hooks_still_wrap_the_pipeline(tmp_path):
    data = tmp_path / "data.csv"
    spans = tmp_path / "spans.json"
    load_fixtures().write_planted(str(data), 220, 1)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", str(spans), "--",
         str(data), "-g", "label", "-p", "pred", "--out",
         str(tmp_path / "report.json")],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    assert len(doc["names"]) == 16
    called = {doc["names"][span[0]] for span in doc["spans"]}
    assert called == set(doc["names"])  # every hook sits on the call path
