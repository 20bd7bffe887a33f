"""The benchmark workloads: report bytes, stderr lines and the benchmark's
trace hooks.

The inputs are the ones ``perfbench/run.py`` writes for its three workloads
at seeds 1, 7 and 23; the hashes pin the JSON, markdown and CSV reports the
CLI produced for them.  A change that moves any of these bytes changes
behaviour and must say so.
The trace test runs ``perfbench/child.py`` the way a traced benchmark run
does, so renaming a function the benchmark wraps fails here.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sliceminer import cli
from tests.conftest import child_environ

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


@pytest.mark.parametrize("writer, rows, max_order, seed, hashes", [
    ("write_planted", 2000, 2, 1, {
        "json": "8b0a9f38cf2cb626b4d9a18503c1d2df83a99faa611dea78286b4ba2967c8467",
        "markdown": "3d39fb362519681debb8879cb80aa637b011b9407bf3fbcf39274a434f213869",
        "csv": "72476e8beb04b08d52878e9da74bd27edee710f17a32708891ecd4baa5fd675b"}),
    ("write_planted", 220, 3, 1, {
        "json": "79d68cf76f4012f6ef119e0c751258f98a778e875d35fdc4bbc73571f036920c",
        "markdown": "b8218871e21c03aacb04deeefce29b346c052367af92ad9925fdf893769842c9",
        "csv": "9b2f4e31183477e700556ac655acb4a1fe86f2e6b6d4d8f7758866777d6ee110"}),
    ("write_null", 1500, 2, 1, {
        "json": "b21aa2b1f8af650579cbcd2ddd0d342b5d61cf4eeaaf5afa7571eff3043108e9",
        "markdown": "61fab4daf80d4a136a03a70dbb4bcdca2d9a52b95c7fc0eac8c94a591b0b67f0",
        "csv": "688d31dafbd8a34cc783b5cd13beeb5399759a32166f32390d97d65cb2415147"}),
    ("write_planted", 2000, 2, 7, {
        "json": "4367df90de9d361a63b906cc57b4f0a89f798dc0943fb48c8d66c28200c82bc9",
        "markdown": "e2937e63624a52c09e88f43a83b34c7275d18c5764673068547758d3e9b35e61",
        "csv": "082b77f9b3986867d41783f3843f2bdb9dc5055afe0fd1e84bd76c0ba8a1075b"}),
    ("write_planted", 220, 3, 7, {
        "json": "5ca61dd137ca626188aeed9581100d72592a2f4ef1732e7ecd6a26cb0ca8cda4",
        "markdown": "ae7b690ef621de55910f2e6ba197f1bd3ff9a773db378e1a7ffe7ceb5d135259",
        "csv": "dab9465d6b5e85d0db4b29982c1884040c9e88538a6bbde7f3f9f1111fb2220b"}),
    ("write_null", 1500, 2, 7, {
        "json": "b99321982027d92bee839b5e70bef70f1c0b5059c7cfea44bff3245b43bcaaa3",
        "markdown": "9a04566eed2be4bf1ef6cb64ea8ff5bd36511ae5766445f6a2d8532d2ec342a0",
        "csv": "e76b704fe44dcf71ee73ab0fd488380474432a081ced857f022057e88fa197ce"}),
    ("write_planted", 2000, 2, 23, {
        "json": "2def72cfd3919d291b38ec3998290f2943d57efde871951f2588866a46ce669e",
        "markdown": "1e1ebd3a3be3def290218887feaf6d5884e383e444829de72aac554d0bcb937d",
        "csv": "f839833f8b58924220f251b5fb7146e5e13ad1816667d01a4c8f14f9189c009a"}),
    ("write_planted", 220, 3, 23, {
        "json": "31fce2429b90b42b48477a1191b0e51010f11d70399723fb4c5c1440a4b7a4ea",
        "markdown": "2d60d2dc2f298c47828e4743e8b6df828380481392d31373f65d57869ab93826",
        "csv": "6c26691d97939bb7ce3a30ca10540fdcad442561b745529dda776e3194b9afed"}),
    ("write_null", 1500, 2, 23, {
        "json": "d4a48318bfde44f277ff5df5e7203ffe6d1c14d07bb3c701cd0be276e0bde273",
        "markdown": "08cea41d616b6ae9f4f3e815a8aefcab61d3b8939406037b2a8128868c6ee278",
        "csv": "03996c1cafbad5fd5903c62b125744262d51bf1c5a9c0d71edfd988b4900f98e"}),
], ids=[
    "planted-2k-o2", "order3-220", "null-1500-o2",
    "planted-2k-o2-seed7", "order3-220-seed7", "null-1500-o2-seed7",
    "planted-2k-o2-seed23", "order3-220-seed23", "null-1500-o2-seed23",
])
def test_report_bytes_unchanged(tmp_path, monkeypatch, capsys, writer, rows,
                                max_order, seed, hashes):
    data = tmp_path / "data.csv"
    report = tmp_path / "report.json"
    getattr(load_fixtures(), writer)(str(data), rows, seed)
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
    assert " is categorical: " not in capsys.readouterr().err


TALLY = re.compile(r"sliceminer: (\w+) order (\d+): "
                   r"(\d+) candidates, (\d+) reported")


@pytest.mark.parametrize("writer, rows, max_order", [
    ("write_planted", 2000, 2), ("write_planted", 220, 3),
    ("write_null", 1500, 2)], ids=["planted-2k-o2", "order3-220", "null-1500-o2"])
def test_stderr_tallies_equal_report_counts(tmp_path, capsys, writer, rows,
                                            max_order):
    """Each count line on stderr carries the report's candidate and
    reported counts of its (heuristic, order), and each key of either map
    has exactly one line."""
    data = tmp_path / "data.csv"
    getattr(load_fixtures(), writer)(str(data), rows, 1)
    assert cli.main([str(data), "-g", "label", "-p", "pred",
                     "--max-order", str(max_order)]) == 0
    captured = capsys.readouterr()
    counts = json.loads(captured.out)["counts"]
    tallies = [TALLY.fullmatch(line).groups()
               for line in captured.err.splitlines()]
    keys = [f"{heuristic}:{order}" for heuristic, order, _, _ in tallies]
    assert sorted(keys) == sorted(set(counts["candidates"])
                                  | set(counts["reported"]))
    for key, (_, _, candidates, reported) in zip(keys, tallies):
        assert int(candidates) == counts["candidates"].get(key, 0)
        assert int(reported) == counts["reported"].get(key, 0)


def test_trace_hooks_still_wrap_the_pipeline(tmp_path):
    data = tmp_path / "data.csv"
    spans = tmp_path / "spans.json"
    load_fixtures().write_planted(str(data), 220, 1)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", str(spans), "--",
         str(data), "-g", "label", "-p", "pred", "--out",
         str(tmp_path / "report.json")],
        env=child_environ(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    assert len(doc["names"]) == 16
    called = {doc["names"][span[0]] for span in doc["spans"]}
    assert called == set(doc["names"])  # every hook sits on the call path


def test_blank_cell_reads_as_missing(tmp_path):
    """One num_main cell written blank instead of empty moves no report
    byte: the column stays continuous, so an interval still covers the
    planted band fault."""
    data = tmp_path / "data.csv"
    truth = load_fixtures().write_planted(str(data), 2000, 1)
    lines = data.read_text(encoding="utf-8").split("\n")
    column = lines[0].split(",").index("num_main")
    line = 1 + min(set(range(2000)) - set(truth.band_rows))
    reports = []
    for cell in ("   ", ""):
        cells = lines[line].split(",")
        cells[column] = cell
        edited = tmp_path / f"edited{len(reports)}.csv"
        edited.write_text("\n".join(lines[:line] + [",".join(cells)]
                                    + lines[line + 1:]), encoding="utf-8")
        out = tmp_path / f"report{len(reports)}.json"
        assert cli.main([str(edited), "-g", "label", "-p", "pred",
                         "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    lo, hi = truth.band_extent
    spans = [span for s in json.loads(reports[0])["slices"]
             if s["heuristic"] in ("hpd", "dt")
             for span in s["predicates"].get("num_main", "").split(" ∪ ")
             if span]
    assert any(float(low) <= lo and float(high) >= hi
               for low, _, high in (span.partition("–") for span in spans))


def test_text_cell_in_a_numeric_column_is_named(tmp_path, capsys):
    """One num_main cell written NA makes the column categorical, as it
    always has, and the report does not change; stderr names the cell.
    Forcing the column categorical names nothing."""
    data = tmp_path / "data.csv"
    load_fixtures().write_planted(str(data), 2000, 1)
    lines = data.read_text(encoding="utf-8").split("\n")
    cells = lines[5].split(",")  # file line 6
    cells[lines[0].split(",").index("num_main")] = "NA"
    lines[5] = ",".join(cells)
    data.write_text("\n".join(lines), encoding="utf-8")
    named = ("sliceminer: column 'num_main' is categorical: 'NA' on line 6 "
             "is not a number (if it marks a missing value, pass "
             "--missing-token)")
    out = tmp_path / "report.json"
    for flags, want in (([], [named]), (["--categorical", "num_main"], [])):
        assert cli.main([str(data), "-g", "label", "-p", "pred",
                         "--out", str(out), *flags]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if " is categorical: " in line] == want
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f9220dce47392222a5c23a81dbf348b8e3443c7b5ef3c12df9f6ddaf4d5ecded")
