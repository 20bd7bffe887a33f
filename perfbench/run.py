#!/usr/bin/env python3
"""Pipeline benchmark: the real ``sliceminer`` CLI on seeded CSV workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planted-2k-o2 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 36     # every workload

One run generates the workload's CSV from ``--seed`` and then, for
``--seconds``, runs the CLI at default settings (``--workers 1``) in a fresh
child process, one child at a time, each with an address-space cap and a
wall-clock timeout.  Every report is then checked, untimed: all runs must
give the same report bytes, and that report must pass
``verify.check_report``.

End-to-end metrics (``--trace 0``), medians over the run's CLI children:
``total_s`` (launch to report written), ``setup_s`` (launch to
``load_table`` returning in the same child: interpreter start, imports,
ingest) and ``peak_rss_mb`` (peak resident memory).  Failed runs -- non-zero exit, memory or time cap, wrong or
unverifiable report -- go into ``failed``/``attempted``.

The two times are given at a reference machine speed: each sample is
multiplied by CAL_REFERENCE_S over the mean time the same child took for
``child.calibrate()`` right before and right after its measured work
(the time of the first is taken out of the measured times).  On shared
machines the speed of a CPU drifts by tens of percent over minutes (a 50%
drift between runs of one workload was measured on a shared 2-vCPU Xeon
VM), which no number of samples inside one run can average out; the
calibration moves with it.
The measured wall times are printed and kept as ``total_wall_s`` and
``setup_wall_s``.

With ``--trace 1`` the run also launches one traced CLI child (see
``spans.py``) and reports the per-layer metrics instead: measured seconds,
whose self times add up to the traced wall time.  The tracing overhead is
the traced total minus the untraced ``total_s`` median, both at reference
speed.

The metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the JSON result; everything else (the input, reports,
span files and a result file per run) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import fixtures  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

# child.calibrate() took about this long on a shared 2-vCPU Xeon VM (Python
# 3.11, numpy 2.4) when the workloads were sized; times are reported at the
# speed that implies
CAL_REFERENCE_S = 0.15
MEMORY_CAP_BYTES = 3 << 30   # address space of each child
CHILD_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 160.0       # no child outlives this, counted from start


@dataclass(frozen=True)
class Workload:
    write: Callable[[str, int, int], fixtures.Truth]
    rows: int
    max_order: int


# Why each workload: see BENCHMARK.json and README.md in this directory.
WORKLOADS = {
    "planted-2k-o2": Workload(fixtures.write_planted, 2000, 2),
    "order3-220": Workload(fixtures.write_planted, 220, 3),
    "null-1500-o2": Workload(fixtures.write_null, 1500, 2),
}


@dataclass
class Child:
    ok: bool
    started: float = 0.0  # time.monotonic() just before launch
    ended: float = 0.0    # the child's END time on the same clock
    loaded: float = 0.0   # when load_table returned, same clock (cli mode)
    calibration: tuple[float, float] = (0.0, 0.0)  # child.calibrate() before, after
    peak_rss_mb: float = 0.0
    backend: str = "unknown"
    error: str = ""

    @property
    def seconds(self) -> float:
        """Launch to END, less the calibration the child ran first."""
        return self.ended - self.started - self.calibration[0]

    @property
    def setup_seconds(self) -> float:
        """Launch to LOADED, less the calibration the child ran first."""
        return self.loaded - self.started - self.calibration[0]

    def at_reference_speed(self, seconds: float) -> float:
        return seconds * CAL_REFERENCE_S / statistics.fmean(self.calibration)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def launch(args: list[str], deadline: float) -> Child:
    """Run ``child.py`` with ``args``; the time is launch to its END line."""
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return Child(ok=False, error="run deadline reached")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(OUT / "child.err", "w", encoding="utf-8") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=ROOT, preexec_fn=_cap_memory)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()  # no thread left running at the next fork
        lines = tuple(proc.stdout.read().decode().splitlines())
        proc.stdout.close()
    fields = {line.split()[0]: line.split()[1:] for line in lines if line}
    if proc.returncode != 0 or not {"END", "HWM", "CAL", "BACKEND"} <= fields.keys():
        tail = (OUT / "child.err").read_text(encoding="utf-8")[-400:]
        return Child(ok=False, error=f"exit {proc.returncode}: {tail}")
    return Child(ok=True, started=started, ended=float(fields["END"][0]),
                 loaded=float(fields.get("LOADED", [0.0])[0]),
                 calibration=tuple(float(v) for v in fields["CAL"]),
                 peak_rss_mb=int(fields["HWM"][0]) / 1024.0,
                 backend=fields["BACKEND"][0])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def machine(backend: str) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=False)
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": git.stdout.strip() if git.returncode == 0 else "unknown",
    }


def upper_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return pct, cuts[pct - 1]
    return None


def record_sha(key: str, digest: str) -> bool:
    """Remember the report digest per workload and seed in this checkout;
    False if an earlier run of the same checkout recorded another one."""
    path = OUT / "sha256.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.setdefault(key, digest) != digest:
        return False
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    load_start = os.getloadavg()
    csv_path = OUT / f"{name}-{seed}.csv"
    truth = workload.write(str(csv_path), workload.rows, seed)
    report = OUT / f"{name}-{seed}.json"
    spans_path = OUT / f"{name}-{seed}.spans.json"
    cli_args = ["--", str(csv_path), "-g", "label", "-p", "pred",
                "--max-order", str(workload.max_order), "--out", str(report)]

    launches = []  # (child, report digest or "")
    totals, rss, setups = [], [], []  # reference-speed seconds, MiB
    walls, setup_walls = [], []       # the same, as measured
    traced = None
    if trace:
        traced = launch(["trace", str(spans_path), *cli_args], deadline)
        launches.append((traced, sha256(report) if traced.ok else ""))

    window_end = time.monotonic() + seconds
    while not totals or time.monotonic() < window_end:
        run = launch(["cli", *cli_args], deadline)
        launches.append((run, sha256(report) if run.ok else ""))
        if not run.ok:
            break
        totals.append(run.at_reference_speed(run.seconds))
        walls.append(run.seconds)
        setups.append(run.at_reference_speed(run.setup_seconds))
        setup_walls.append(run.setup_seconds)
        rss.append(run.peak_rss_mb)

    # untimed: one report for all runs, recorded and verified
    failures = [child.error for child, _ in launches if not child.ok]
    digests = [d for child, d in launches if d]
    digest = max(set(digests), key=digests.count) if digests else ""
    failures += [f"report sha256 {d} differs from {digest}"
                 for d in digests if d != digest]
    problems = []
    if digest:
        if not record_sha(f"{name}:{seed}", digest):
            problems.append("report sha256 differs from an earlier run of "
                            "this checkout")
        problems += verify.check_report(
            csv_path.read_text(encoding="utf-8"),
            json.loads(report.read_text(encoding="utf-8")), seed,
            truth.band_extent)
    if problems:  # every run that wrote this report failed
        failures += [f"report {digest}: {problems[:5]}"] * digests.count(digest)

    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "rows": workload.rows, "max_order": workload.max_order,
        "report_sha256": digest,
        "samples": {"total_s": totals, "setup_s": setups, "peak_rss_mb": rss,
                    "total_wall_s": walls, "setup_wall_s": setup_walls},
        "attempted": len(launches), "failed": len(failures),
        "failures": failures,
        "machine": {**machine(launches[-1][0].backend),
                    "loadavg_start": load_start,
                    "loadavg_end": os.getloadavg()},
        "end_to_end": {metric: statistics.median(samples)
                       for metric, samples in (("total_s", totals),
                                               ("setup_s", setups),
                                               ("peak_rss_mb", rss),
                                               ("total_wall_s", walls),
                                               ("setup_wall_s", setup_walls))
                       if samples},
    }
    if traced is not None and traced.ok and totals:
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        table = spans.layer_table(doc, traced.ended - traced.seconds,
                                  traced.ended)
        table["trace.overhead_s"] = (traced.at_reference_speed(traced.seconds)
                                     - result["end_to_end"]["total_s"])
        result["per_layer"] = table
    return result


def print_human(result: dict) -> None:
    name = result["workload"]
    totals = result["samples"]["total_s"]
    print(f"== {name} (seed {result['seed']}, {result['rows']} rows, "
          f"order {result['max_order']}) report sha256 {result['report_sha256']}")
    for metric, value in result["end_to_end"].items():
        unit = "MiB" if metric.endswith("_mb") else "s"
        n = len(result["samples"][metric])
        print(f"  {metric:<14} {value:12.4f} {unit:<3} median of {n}")
    tail = upper_percentile(totals) if totals else None
    if tail:
        print(f"  total_s p{tail[0]:<10} {tail[1]:12.4f} s   of {len(totals)}")
    print(f"  failed_runs    {result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    table = result.get("per_layer")
    if table:
        print(f"  {'layer metric':<52} {'value':>14}")
        for key in sorted(table):
            print(f"  {key:<52} {table[key]:14.6g}")
    print(f"  machine {json.dumps(result['machine'], sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so launch() kills its child first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench_file = ROOT / "BENCHMARK.json"
    if not ((ROOT / "src" / "sliceminer" / "cli.py").is_file()
            and bench_file.is_file()):
        print(f"perfbench: {ROOT} needs src/sliceminer and BENCHMARK.json",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    names = sorted(WORKLOADS) if args.all else [args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        (OUT / f"{name}-{args.seed}-trace{args.trace}.result.json").write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n")
        print_human(result)
        attempted += result["attempted"]
        failed += result["failed"]
        values = result.get(kind, {})
        prefix = f"{name}/" if args.all else ""
        for entry in bench[kind]:
            if entry["name"] in values:
                metrics[prefix + entry["name"]] = {
                    "value": values[entry["name"]], "unit": entry["unit"]}

    ok = failed == 0 and len(metrics) == len(names) * len(bench[kind])
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
