"""Command-line behavior: flags, exit codes, output routing."""

from __future__ import annotations

import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sliceminer import cli
from sliceminer.cli import build_parser, main
from sliceminer.dataset import IngestConfig
from sliceminer.oracle import self_check
from sliceminer.report import FORMATS
from sliceminer.slicer import AnalysisConfig
from tests.conftest import child_environ, write_csv


@pytest.fixture()
def mixed_csv(tmp_path):
    rng = np.random.default_rng(10)
    n = 400
    rows = []
    for i in range(n):
        group = ["a", "b", "c"][i % 3]
        x = rng.uniform(0, 1)
        label = i % 2
        correct = rng.random() < (0.55 if group == "a" else 0.95)
        rows.append([group, f"{x:.6f}", label, label if correct else 1 - label])
    return write_csv(tmp_path / "mixed.csv", ["group", "x", "label", "pred"], rows)


@pytest.fixture()
def perfect_csv(tmp_path):
    rows = [[i % 4, i % 2, i % 2] for i in range(80)]
    return write_csv(tmp_path / "perfect.csv", ["f", "label", "pred"], rows)


class TestExitCodes:
    def test_success_with_findings(self, mixed_csv, capsys):
        code = main([mixed_csv, "-g", "label", "-p", "pred"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slices"]

    def test_zero_slices_is_success(self, perfect_csv, capsys):
        code = main([perfect_csv, "-g", "label", "-p", "pred"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slices"] == []

    def test_unknown_column_is_usage_error(self, mixed_csv, capsys):
        code = main([mixed_csv, "-g", "label", "-p", "nope"])
        assert code == 1
        assert "nope" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main([str(tmp_path / "ghost.csv"), "-g", "label", "-p", "pred"])
        assert code == 2

    def test_missing_required_flags(self, mixed_csv):
        with pytest.raises(SystemExit) as err:
            main([mixed_csv, "-g", "label"])
        assert err.value.code == 1

    def test_bad_knob_is_usage_error(self, mixed_csv, capsys):
        assert main([mixed_csv, "-g", "label", "-p", "pred",
                     "--pvalue", "1.5"]) == 1

    def test_continuous_text_column_is_usage_error(self, mixed_csv, capsys):
        code = main([mixed_csv, "-g", "label", "-p", "pred",
                     "--continuous", "group"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'group'" in err and "'a'" in err

    def test_bad_knob_reported_before_input_is_read(self, tmp_path, capsys):
        code = main([str(tmp_path / "ghost.csv"), "-g", "label", "-p", "pred",
                     "--pvalue", "1.5"])
        assert code == 1
        assert "p_value_max" in capsys.readouterr().err

    def test_unknown_format_reported_before_input_is_read(self, tmp_path,
                                                          capsys):
        with pytest.raises(SystemExit) as err:
            main([str(tmp_path / "ghost.csv"), "-g", "label", "-p", "pred",
                  "--format", "yaml"])
        assert err.value.code == 1
        message = capsys.readouterr().err
        assert message.startswith("usage:") and "'yaml'" in message
        assert "not found" not in message

    def test_negative_categorical_threshold_checked_before_input_is_read(
            self, tmp_path, capsys):
        assert main([str(tmp_path / "ghost.csv"), "-g", "label", "-p", "pred",
                     "--categorical-threshold", "-1"]) == 1
        assert "categorical threshold must be >= 0" in capsys.readouterr().err

    def test_out_of_memory_is_one_line(self, mixed_csv, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "build_report", exhausted)
        was = gc.isenabled()
        assert main([mixed_csv, "-g", "label", "-p", "pred"]) == 1
        assert gc.isenabled() is was
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines[-1] == "sliceminer: error: out of memory"
        assert lines[:-1] and all(" candidates, " in line
                                  for line in lines[:-1])
        assert "Traceback" not in captured.err and captured.out == ""


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored_on_every_exit(self, enabled, mixed_csv,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        during = []
        analyse = cli.run_analysis

        def recording(*args):
            during.append(gc.isenabled())
            return analyse(*args)

        monkeypatch.setattr(cli, "run_analysis", recording)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            runs = [([mixed_csv, "-g", "label", "-p", "pred"], 0),
                    ([mixed_csv, "-g", "label", "-p", "nope"], 1),
                    ([str(tmp_path / "ghost.csv"), "-g", "label", "-p",
                      "pred"], 2)]
            for argv, code in runs:
                assert main(argv) == code
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]  # held off while the analysis ran


class TestReportWiring:
    def test_pvalue_flag_recorded_in_header(self, mixed_csv, capsys):
        assert main([mixed_csv, "-g", "label", "-p", "pred",
                     "--pvalue", "0.01"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["p_value_max"] == 0.01

    def test_workers_absent_from_report(self, mixed_csv):
        # generation runs in one thread; the flag was removed, not ignored
        proc = run_child([mixed_csv, "--workers", "4"])
        assert_clean_exit(proc, 1, "usage:", "--workers")

    def test_out_writes_file(self, mixed_csv, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main([mixed_csv, "-g", "label", "-p", "pred",
                     "--out", str(target)]) == 0
        assert json.loads(target.read_text())["schema_version"] == 1
        assert capsys.readouterr().out == ""

    def test_markdown_format(self, mixed_csv, capsys):
        assert main([mixed_csv, "-g", "label", "-p", "pred",
                     "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("# ")

    def test_counts_logged_to_stderr(self, mixed_csv, capsys):
        assert main([mixed_csv, "-g", "label", "-p", "pred"]) == 0
        err = capsys.readouterr().err
        assert "candidates" in err and "reported" in err

    def test_rejected_rows_logged_to_stderr(self, tmp_path, capsys):
        rows = [[i % 3, i % 2, "nan" if i == 4 else i % 2] for i in range(30)]
        path = write_csv(tmp_path / "nan.csv", ["f", "label", "pred"], rows)
        assert main([path, "-g", "label", "-p", "pred"]) == 0
        captured = capsys.readouterr()
        assert "rejected 1 rows" in captured.err and "(lines 6)" in captured.err
        assert json.loads(captured.out)["dataset"]["records"] == 29

    def test_heuristic_subset(self, mixed_csv, capsys):
        assert main([mixed_csv, "-g", "label", "-p", "pred",
                     "--heuristics", "categorical"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["heuristics"] == ["categorical"]
        assert all(s["heuristic"] == "categorical" for s in doc["slices"])


class TestStdoutBytes:
    def test_stdout_is_utf8_whatever_the_locale(self, mixed_csv, tmp_path):
        target = tmp_path / "report.json"
        argv = [sys.executable, "-m", "sliceminer.cli", mixed_csv,
                "-g", "label", "-p", "pred"]
        env = child_environ(PYTHONIOENCODING="latin-1")
        to_file = subprocess.run(argv + ["--out", str(target)],
                                 capture_output=True, env=env)
        to_stdout = subprocess.run(argv, capture_output=True, env=env)
        assert to_file.returncode == 0, to_file.stderr
        assert to_stdout.returncode == 0, to_stdout.stderr
        assert "–".encode("utf-8") in to_stdout.stdout  # not in latin-1
        assert to_stdout.stdout == target.read_bytes()


class TestStdinAndEnv:
    def test_stdin_input(self, mixed_csv):
        text = Path(mixed_csv).read_text()
        proc = subprocess.run(
            [sys.executable, "-m", "sliceminer.cli", "-", "-g", "label",
             "-p", "pred"],
            input=text, capture_output=True, text=True, env=child_environ())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dataset"]["records"] == 400

    def test_sliceminer_variables_are_ignored(self, mixed_csv):
        argv = [sys.executable, "-m", "sliceminer.cli", mixed_csv, "-g",
                "label", "-p", "pred"]
        plain = subprocess.run(argv, capture_output=True, env=child_environ())
        with_vars = subprocess.run(
            argv, capture_output=True,
            env=child_environ(SLICEMINER_PVALUE="0.01",
                              SLICEMINER_SUPPORT_FLOOR="abc",
                              SLICEMINER_FORMAT="yaml"))
        assert plain.returncode == 0, plain.stderr
        assert with_vars.returncode == 0, with_vars.stderr
        assert with_vars.stdout == plain.stdout

    @pytest.mark.parametrize("flag, want", [([], False),
                                            (["--all-numeric"], True)])
    def test_all_numeric_flag(self, mixed_csv, capsys, flag, want):
        assert main([mixed_csv, "-g", "label", "-p", "pred", *flag]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["all_numeric"] is want


def run_child(args, stdout=subprocess.PIPE, **env):
    """The CLI in a child interpreter, so an uncaught exception shows as a
    traceback on stderr."""
    return subprocess.run(
        [sys.executable, "-m", "sliceminer.cli", *args, "-g", "label",
         "-p", "pred"],
        stdout=stdout, stderr=subprocess.PIPE, text=True,
        env=child_environ(**env))


def assert_clean_exit(proc, code, *named):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    for text in named:
        assert text in proc.stderr


class TestDelimiter:
    @pytest.mark.parametrize("delimiter", ["", ",,", '"', "\n"])
    def test_flag_is_usage_error(self, mixed_csv, delimiter):
        proc = run_child([mixed_csv, "--delimiter", delimiter])
        assert_clean_exit(proc, 1, "delimiter", repr(delimiter))

    def test_checked_before_input_is_read(self, tmp_path):
        proc = run_child([str(tmp_path / "ghost.csv"), "--delimiter", ",,"])
        assert_clean_exit(proc, 1, "delimiter")
        assert "not found" not in proc.stderr


class TestGap:
    @pytest.mark.parametrize("gap", ["nan", "inf", "-inf"])
    def test_non_finite_gap_is_usage_error(self, mixed_csv, gap):
        proc = run_child([mixed_csv, f"--gap={gap}"])
        assert_clean_exit(proc, 1, "gap must be finite and >= 0")
        assert proc.stdout == ""

    def test_checked_before_input_is_read(self, tmp_path):
        proc = run_child([str(tmp_path / "ghost.csv"), "--gap", "nan"])
        assert_clean_exit(proc, 1, "gap must be finite and >= 0")
        assert "not found" not in proc.stderr


class TestBlankAndRaggedRows:
    """A blank line holds no row and is skipped, as ``csv.DictReader``
    skips it, without moving later line numbers; any other row needs one
    field per column."""

    @pytest.mark.parametrize("after, insert, code, message", [
        (401, "\n", 0, None),
        (100, "\n", 0, None),
        (100, "\na,0.5,1\n", 2, "line 102: expected 4 fields, got 3"),
        (100, "a,0.5,1\n", 2, "line 101: expected 4 fields, got 3"),
        (100, "a,0.5,1,1,1\n", 2, "line 101: expected 4 fields, got 5"),
    ], ids=["trailing-blank", "blank-in-middle", "blank-then-short-row",
            "short-row", "long-row"])
    def test_rows(self, mixed_csv, tmp_path, capsys, after, insert, code,
                  message):
        flags = ["-g", "label", "-p", "pred"]
        assert main([mixed_csv, *flags]) == 0
        plain = capsys.readouterr().out
        with open(mixed_csv, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert len(lines) == 401  # header and 400 rows
        path = tmp_path / "edited.csv"
        path.write_text("".join(lines[:after]) + insert
                        + "".join(lines[after:]), encoding="utf-8")
        assert main([str(path), *flags]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert out == plain
        else:
            assert f"sliceminer: data error: {message}" in err

    def test_quoted_line_break_counts_as_a_line(self, tmp_path, capsys):
        # rows are numbered by the file line they start on
        flags = ["-g", "label", "-p", "pred"]
        path = tmp_path / "broken.csv"
        path.write_text('f,label,pred\n"a\nb",1,1\nc,0,0\nc,1\n',
                        encoding="utf-8")
        assert main([str(path), *flags]) == 2
        assert ("sliceminer: data error: line 5: expected 3 fields, got 2"
                in capsys.readouterr().err)
        path.write_text('f,label,pred\n"a\nb",1,1\nc,0,\nc,0,0\n',
                        encoding="utf-8")
        assert main([str(path), *flags]) == 0
        assert "(lines 4)" in capsys.readouterr().err


class TestHugeValues:
    def test_no_overflow_warning(self, tmp_path):
        # window widths between values near +-1.7e308 overflow to inf
        rng = np.random.default_rng(4)
        rows = [[repr(float(x)), i % 2, i % 2 if ok else 1 - i % 2]
                for i, (x, ok) in enumerate(zip(
                    rng.uniform(-1.0, 1.0, 400) * 1.7e308,
                    rng.random(400) < 0.8))]
        path = write_csv(tmp_path / "huge.csv", ["x", "label", "pred"], rows)
        proc = run_child([path])
        assert_clean_exit(proc, 0)
        assert json.loads(proc.stdout)["slices"]
        # stderr holds the CLI's own log lines and nothing else
        assert proc.stderr.splitlines()
        assert all(line.startswith("sliceminer: ")
                   for line in proc.stderr.splitlines()), proc.stderr


class TestInputOutputErrors:
    def test_directory_input_is_data_error(self, tmp_path):
        proc = run_child([str(tmp_path)])
        assert_clean_exit(proc, 2, "data error", str(tmp_path))

    def test_non_utf8_input_is_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"f,label,pred\ncaf\xe9,1,1\nbar,0,1\n")
        proc = run_child([str(path)])
        assert_clean_exit(proc, 2, "data error", str(path), "UTF-8")

    def test_non_utf8_stdin_is_data_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sliceminer.cli", "-", "-g", "label",
             "-p", "pred"],
            input=b"f,label,pred\ncaf\xe9,1,1\n", capture_output=True,
            env=child_environ())
        assert proc.returncode == 2, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert b"input - is not UTF-8" in proc.stderr

    @pytest.mark.parametrize("text, reason", [
        ("f,label,pred\ngr\ray,1,1\nb,0,1\n",
         "line 2: new-line character seen in unquoted field"),
        ("f,label,pred\na,1,1\n" + "x" * (csv.field_size_limit() + 1)
         + ",1,1\n", "line 3: field larger than field limit"),
    ], ids=["bare-carriage-return", "oversized-cell"])
    def test_malformed_csv_is_data_error(self, tmp_path, text, reason):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        proc = run_child([str(path)])
        assert_clean_exit(proc, 2, f"sliceminer: data error: {reason}")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_is_usage_error(self, mixed_csv, tmp_path, target):
        out = str(tmp_path / target)
        proc = run_child([mixed_csv, "--out", out])
        assert_clean_exit(proc, 1, "cannot write report", out)

    def test_closed_stdout_still_succeeds(self, mixed_csv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe fails with EPIPE
        try:
            proc = run_child([mixed_csv], stdout=write_end)
        finally:
            os.close(write_end)
        assert_clean_exit(proc, 0)


class TestReportSink:
    """The report has one way out: a binary sink opened before any input is
    read, written in UTF-8 chunks, whose write errors exit 1."""

    def test_unwritable_out_reported_before_input_is_read(self, tmp_path):
        out = str(tmp_path / "missing" / "x.json")
        proc = run_child([str(tmp_path / "ghost.csv"), "--out", out])
        assert_clean_exit(proc, 1, "cannot write report", out)
        assert "not found" not in proc.stderr

    def test_unwritable_out_reported_before_analysis(self, mixed_csv,
                                                      tmp_path):
        out = str(tmp_path / "missing" / "x.json")
        proc = run_child([mixed_csv, "--out", out])
        assert_clean_exit(proc, 1, "cannot write report", out)
        assert "candidates" not in proc.stderr

    def test_out_is_truncated_before_a_failing_run(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("stale report\n")
        assert main([str(tmp_path / "ghost.csv"), "-g", "label", "-p", "pred",
                     "--out", str(target)]) == 2
        assert target.read_bytes() == b""

    def test_out_naming_the_input_is_refused(self, mixed_csv, capsys):
        before = Path(mixed_csv).read_bytes()
        head, tail = os.path.split(mixed_csv)
        out = os.path.join(head, ".", tail)  # the same file, spelled apart
        assert main([mixed_csv, "-g", "label", "-p", "pred",
                     "--out", out]) == 1
        assert "--out" in capsys.readouterr().err
        assert Path(mixed_csv).read_bytes() == before

    def test_same_target_columns_leave_out_untouched(self, mixed_csv,
                                                     tmp_path):
        target = tmp_path / "prev.json"
        target.write_text("previous report\n")
        assert main([mixed_csv, "-g", "label", "-p", "label",
                     "--out", str(target)]) == 1
        assert target.read_text() == "previous report\n"

    def test_out_dev_null(self, mixed_csv, capsys):
        assert main([mixed_csv, "-g", "label", "-p", "pred",
                     "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("table", ["perfect_csv", "mixed_csv"])
    def test_full_stdout_is_usage_error(self, table, unbuffered, request):
        # the zero-slice report fits in stdout's buffer, so its write fails
        # only when the buffer is flushed; the other is written past it
        with open("/dev/full", "wb") as full:
            proc = run_child([request.getfixturevalue(table)], stdout=full,
                             PYTHONUNBUFFERED=unbuffered)
        assert_clean_exit(proc, 1, "cannot write report to stdout")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_full_out_is_usage_error(self, perfect_csv):
        # fails only when the file is flushed, as above
        proc = run_child([perfect_csv, "--out", "/dev/full"])
        assert_clean_exit(proc, 1, "cannot write report to /dev/full")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_with_buffered_report_succeeds(self, perfect_csv,
                                                         unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_child([perfect_csv], stdout=write_end,
                             PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert_clean_exit(proc, 0)

    @pytest.mark.parametrize("format", FORMATS)
    def test_small_chunks_give_the_rendered_bytes(self, format, mixed_csv,
                                                  tmp_path, monkeypatch,
                                                  capsysbinary):
        rendered = []
        render = cli.render

        def recording(*args):
            rendered.append(render(*args))
            return rendered[-1]

        monkeypatch.setattr(cli, "render", recording)
        monkeypatch.setattr(cli, "_CHUNK", 7)
        argv = [mixed_csv, "-g", "label", "-p", "pred", "--format", format]
        target = tmp_path / f"report.{format}"
        assert main(argv) == 0
        assert main(argv + ["--out", str(target)]) == 0
        first, second = rendered
        assert first == second and "–" in first  # en dash: 3 UTF-8 bytes
        assert capsysbinary.readouterr().out == first.encode("utf-8")
        assert target.read_bytes() == first.encode("utf-8")


class TestImportFootprint:
    def test_no_scipy_or_numba_at_runtime(self):
        # nor concurrent.futures (and the logging and queue modules it
        # loads): generation runs in one thread
        code = ("import sys, sliceminer, sliceminer.cli; "
                "print(sorted({'scipy', 'numba', 'concurrent'} & "
                "{name.partition('.')[0] for name in sys.modules}))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_environ())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_default_run_loads_neither_numpy_ma_nor_oracle(self, mixed_csv,
                                                           tmp_path):
        # np.unique loads numpy.ma on numpy 2.x; the exact oracle serves
        # only --self-check; generation runs in one thread, so no
        # concurrent.futures; no record is a dataclass, so importing
        # generates no methods and no dataclasses module.  The table has a
        # categorical feature, so trees concretize value sets.
        report = tmp_path / "report.json"
        code = (
            "import json, sys\n"
            "import sliceminer, sliceminer.cli as cli\n"
            "watched = {'numpy.ma', 'sliceminer.oracle', 'concurrent',\n"
            "           'dataclasses'}\n"
            "imported = sorted(watched & set(sys.modules))\n"
            "code = cli.main([sys.argv[1], '-g', 'label', '-p', 'pred',\n"
            "                 '--out', sys.argv[2]])\n"
            "print(json.dumps([imported, sorted(watched & set(sys.modules)),\n"
            "                  code]))\n")
        proc = subprocess.run([sys.executable, "-c", code, mixed_csv,
                               str(report)],
                              capture_output=True, text=True, env=child_environ())
        assert proc.returncode == 0, proc.stderr
        imported, after_run, exit_code = json.loads(proc.stdout)
        assert imported == [] and after_run == [] and exit_code == 0
        assert "dt:2" in json.loads(report.read_text())["counts"]["candidates"]


class TestHelpAndSelfCheck:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag, default in [("--pvalue", "0.05"), ("--gap", "0.04"),
                              ("--support-fraction", "0.05"),
                              ("--epsilon", "0.05"),
                              ("--initial-density", "0.9"),
                              ("--min-density-floor", "0.1"),
                              ("--ci-level", "0.95"),
                              ("--max-order", "2")]:
            assert flag in text
            assert default in text
        assert "--workers" not in text
        assert "SLICEMINER_" not in text

    def test_parser_defaults_are_the_field_defaults(self):
        args = build_parser().parse_args(["in.csv", "-g", "label",
                                          "-p", "pred"])
        assert cli._configs(args) == (IngestConfig("label", "pred"),
                                      AnalysisConfig())

    def test_self_check_passes(self, capsys):
        assert self_check() == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "far tail (2000,1700,300,230)" in out
        # the interval check runs the window search hpd_scan calls
        assert "window search [0,1,2,3,10]@0.6 is [0,2]: PASS" in out
        assert "window search 0..39@0.5 is [0,19]: PASS" in out

    def test_self_check_flag(self, capsys):
        assert main(["--self-check"]) == 0
