"""One benchmark child process: a CLI run, or a traced CLI run.

Usage (run with ``src`` on PYTHONPATH; the parent sets it):
    python child.py cli -- CLI-ARGS...
    python child.py trace SPANS.json -- CLI-ARGS...

Each prints ``END <time.monotonic()>`` on stdout once ``sliceminer.cli.main``
has returned (the report file is written and closed).  The parent took the
same clock just before launching, so the difference is the time from launch
to result.  A ``cli`` child also prints ``LOADED <time.monotonic()>`` for
when ``load_table`` returned, which gives the set-up time of the same run.
``HWM <kB>`` is the child's peak resident memory (VmHWM), read here because
the parent's rusage for a child also counts the parent's own pages that the
child held between fork and exec.

Each child also runs a fixed calibration kernel right before and right
after the measured work and prints ``CAL <before> <after>`` (seconds).  The
parent subtracts the first from the measured times and divides by their
mean, to take out how fast the machine happened to be.
"""

from __future__ import annotations

import sys
import time


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small-array numpy
    masks, the same mix as the pipeline's evaluation loop; it does not
    touch sliceminer, so program changes cannot move it."""
    import numpy as np

    start = time.monotonic()
    values = np.random.default_rng(0).random(2000)
    total = 0.0
    for i in range(18000):
        mask = (values > i / 18000.0) & (values < 0.9)
        total += float(values[mask].sum())
    return time.monotonic() - start


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    mode, cli_args = argv[0], argv[argv.index("--") + 1:]
    before = calibrate()
    from sliceminer import _kernels, cli

    loaded = []
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    else:
        load_table = cli.load_table

        def stamped_load_table(*args, **kwargs):
            dataset = load_table(*args, **kwargs)
            loaded.append(time.monotonic())
            return dataset

        cli.load_table = stamped_load_table

    code = cli.main(cli_args)
    print(f"END {time.monotonic()!r}", flush=True)
    print(f"HWM {peak_rss_kb()}", flush=True)
    print(f"CAL {before!r} {calibrate()!r}", flush=True)
    print(f"BACKEND {_kernels.BACKEND}", flush=True)
    if loaded:
        print(f"LOADED {loaded[0]!r}", flush=True)
    if mode == "trace":
        tracer.dump(argv[1])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
