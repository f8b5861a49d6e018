"""One measured run in a fresh process: import mseboot, call ``cli.main``.

    python3 bench/child.py RESULT.json [--spans SPANS.json]
        [--setup-only] -- <mseboot arguments>

The CLI's standard output and error go wherever the parent pointed this
process's.  ``RESULT.json`` receives the monotonic clock readings when the
process was ready to call ``cli.main`` and when the call started and
returned, the exit code, the peak resident set size and two calibration
times.  With ``--spans`` every call into the traced layers is recorded
and written to ``SPANS.json`` after the run.  The parent compares the
ready time with the time it started this process to obtain the set-up
time.

The calibration is fixed work, independent of mseboot, timed just before
and just after the call.  On a shared machine whose speed drifts, the
parent uses it to scale measured times to a reference speed.
"""

import argparse
import json
import os
import resource
import sys
import time


def clock() -> float:
    # system-wide on Linux, so comparable with the parent's readings
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds taken by fixed work: interpreted integer arithmetic and
    small least-squares solves in the LAPACK routine IRLS also calls."""
    import numpy as np
    from scipy import linalg

    a = np.arange(384, dtype=float).reshape(32, 12) % 7.0 + np.eye(32, 12)
    b = np.arange(32, dtype=float)
    started, total = clock(), 0
    for i in range(1_000_000):
        total += i * i
    for _ in range(800):
        linalg.lstsq(a, b, lapack_driver="gelsd")
    return clock() - started


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("result")
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    own, cli_argv = sys.argv[1:], []
    if "--" in own:
        cut = own.index("--")
        own, cli_argv = own[:cut], own[cut + 1:]
    args = p.parse_args(own)

    from mseboot import cli

    tracer = None
    if args.spans:
        from trace_spans import Tracer

        tracer = Tracer(run=os.getpid())
        tracer.install()
    record = {"ready": clock()}
    record["calibration_s"] = [calibrate()]
    if not args.setup_only:
        record["start"] = clock()
        try:
            record["rc"] = cli.main(cli_argv)
        except SystemExit as e:  # argparse rejects the arguments
            record["rc"] = e.code if isinstance(e.code, int) else 2
        record["done"] = clock()
        sys.stdout.flush()
    record["calibration_s"].append(calibrate())
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        with open(args.spans, "w", encoding="utf-8") as f:
            json.dump(tracer.records, f, separators=(",", ":"))
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
