"""Benchmark of the mseboot command line on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; mseboot is imported from ``src``.  Every
run of the CLI is a fresh child process calling ``mseboot.cli.main(argv)``
with ``--workers 1``, one at a time: a closed loop with one client.  The
child processes run back to back until ``--seconds`` have passed (at
least three of them), after one unmeasured warm-up process that only
sets up.

With ``--trace 0`` the end-to-end metrics are reported as medians over
the child processes:

* ``run_s``: wall time of one ``cli.main`` call;
* ``replicates_per_s``: (B + jackknife tables) / ``run_s``;
* ``setup_s``: from starting the child until it is ready to call
  ``cli.main`` (interpreter and ``import mseboot.cli``; mseboot reads
  its input inside the call);
* ``peak_rss_mb``: peak resident memory of the child.

Times are scaled to a reference machine speed: each child times fixed
work that does not involve mseboot before and after its call (see
``child.calibrate``) and each time is multiplied by
``REFERENCE_CALIBRATION_S`` / (mean calibration time).  On a shared machine whose speed drifts by a quarter over tens of
seconds, this keeps the figures comparable between runs while a change
to mseboot still moves them in full.  The unscaled wall times are
printed and kept in the details file as ``wall``.

With ``--trace 1`` an untraced run is followed by traced runs at the same
seed, which record spans around every layer (see ``trace_spans``); the
per-layer metrics are medians over the traced runs.  Their times are
unscaled wall seconds; the ``share_of_run`` ratios relate them to the
traced ``cli.main`` call of the same run.  Traced output must equal
untraced output, and the counts in ``trace_spans.COUNTS_THAT_REPEAT``
must be the same in every traced run.

Every run's standard output is checked (see ``refcheck``).  A run fails
when it raises, exits non-zero, times out or fails the check;
``failed_frac`` is failed / attempted.  Details of each invocation,
including the machine and the workload's shape, are written to
``bench/out/BENCH_<workload>_seed<N>_trace<T>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from refcheck import Reference
from trace_spans import COUNTS_THAT_REPEAT, Span, fits_by_phase, summarize
from workloads import WORKLOADS, Prepared, prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_RUNS = 3
TIME_LIMIT_S = 170.0  # whole invocation; children still running past it are killed
# typical time of child.calibrate() on a 2-vCPU Intel Xeon, Python 3.11, scipy 1.17
REFERENCE_CALIBRATION_S = 0.18

END_TO_END = {"run_s": "s", "replicates_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def clock() -> float:
    # system-wide on Linux, so comparable with the child's readings
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    """Outcome of one child process."""

    tag: str
    traced: bool = False
    setup_s: float | None = None
    run_s: float | None = None
    calibration_s: float | None = None
    rss_mb: float | None = None
    elapsed_s: float = 0.0
    stdout: bytes = b""
    spans: list[Span] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def run_child(prep: Prepared, tag: str, deadline: float,
              setup_only: bool = False, traced: bool = False) -> Child:
    OUT.mkdir(parents=True, exist_ok=True)
    paths = {k: OUT / f"{tag}.{k}" for k in ("result", "stdout", "stderr", "spans")}
    for p in paths.values():
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(paths["result"])]
    if traced:
        cmd += ["--spans", str(paths["spans"])]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *prep.argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = Child(tag, traced)
    with open(paths["stdout"], "wb") as out, open(paths["stderr"], "wb") as err:
        started = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            rc = proc.wait(timeout=max(deadline - clock(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
    child.elapsed_s = clock() - started
    if rc is None:
        child.problems.append("timed out")
        return child
    if rc != 0:
        tail = paths["stderr"].read_text(errors="replace").strip().splitlines()[-3:]
        child.problems.append(f"child exited with {rc}: {' | '.join(tail)}")
        return child
    record = json.loads(paths["result"].read_text())
    child.setup_s = record["ready"] - started
    child.calibration_s = statistics.fmean(record["calibration_s"])
    child.rss_mb = record["maxrss_kb"] / 1024.0
    if setup_only:
        return child
    child.run_s = record["done"] - record["start"]
    child.stdout = paths["stdout"].read_bytes()
    if record["rc"] != 0:
        child.problems.append(f"mseboot exited with {record['rc']}")
    if traced:
        child.spans = [Span(*s) for s in json.loads(paths["spans"].read_text())]
    return child


def scaled(child: Child, seconds: float) -> float:
    """A time measured in ``child``, at the reference machine speed."""
    return seconds * REFERENCE_CALIBRATION_S / child.calibration_s


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass

    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def quartiles(values: list[float]) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(prep: Prepared, seconds: float, traced: bool, deadline: float,
            reference: Reference) -> tuple[list[Child], list[Child]]:
    """Run the child processes; returns (warm-up child, workload runs)."""
    name = f"{prep.workload.name}_seed{prep.seed}"
    warmup = run_child(prep, f"{name}_warmup", deadline, setup_only=True)
    runs: list[Child] = []
    window = clock()
    while True:
        # traced runs: untraced, traced, traced, then alternating
        k = len(runs)
        trace_this = traced and (k in (1, 2) or (k > 2 and k % 2 == 0))
        child = run_child(prep, f"{name}_run{len(runs)}", deadline, traced=trace_this)
        runs.append(child)
        if not child.problems:  # completed: whatever it printed is checked
            child.problems += reference.problems(child.stdout, prep)
        typical = statistics.median(c.elapsed_s for c in runs)
        if len(runs) >= MIN_RUNS and clock() - window + typical > seconds:
            break
        if clock() + typical > deadline:
            break
    return warmup, runs


def check_traced(runs: list[Child]) -> None:
    """Traced output equals untraced output; counts repeat exactly."""
    plain = next((c for c in runs if not c.traced), None)
    traced = [c for c in runs if c.traced and not c.problems]
    for c in traced:
        if plain is not None and c.stdout != plain.stdout:
            c.problems.append("traced output differs from untraced output")
    counts = [summarize(c.spans) for c in traced]
    for key in COUNTS_THAT_REPEAT:
        seen = [m[key] for m in counts]
        if len(set(seen)) > 1:
            for c in traced:
                c.problems.append(f"{key} differs across traced runs at one seed: {seen}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = clock()
    deadline = started + TIME_LIMIT_S
    if not (ROOT / "src" / "mseboot" / "cli.py").is_file():
        print(f"mseboot sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    prep = prepare(args.workload, args.seed, ROOT, OUT)
    reference = Reference(args.workload)
    warmup, runs = measure(prep, args.seconds, bool(args.trace), deadline, reference)

    if args.trace:
        check_traced(runs)
    failed = [c for c in runs if c.problems]
    ok = [c for c in runs if not c.problems]
    plain = [c for c in ok if not c.traced]
    samples = {
        "run_s": [scaled(c, c.run_s) for c in plain],
        "replicates_per_s": [prep.units / scaled(c, c.run_s) for c in plain],
        "setup_s": [scaled(c, c.setup_s) for c in plain],
        "peak_rss_mb": [c.rss_mb for c in plain],
    }
    summary = {k: quartiles(v) for k, v in samples.items()}
    wall = {
        "run_s": quartiles([c.run_s for c in plain]),
        "setup_s": quartiles([c.setup_s for c in plain]),
        "calibration_s": quartiles([c.calibration_s for c in plain]),
    }
    layers: dict[str, float] = {}
    phase_fits: dict[str, int] = {}
    if args.trace:
        traced = [c for c in ok if c.traced]
        per_run = [summarize(c.spans) for c in traced]
        for key in (per_run[0] if per_run else {}):
            layers[key] = statistics.median(m[key] for m in per_run)
        plain_run = summary["run_s"]["median"]
        traced_run = statistics.median(scaled(c, c.run_s) for c in traced) if traced else 0.0
        layers["trace.overhead_frac"] = (
            (traced_run - plain_run) / plain_run if plain_run else 0.0
        )
        if traced:
            phase_fits = fits_by_phase(traced[0].spans)

    correct = not failed and not warmup.problems and bool(plain) and (
        not args.trace or bool(layers)
    )
    info = machine()
    shape = prep.shape()
    print(f"workload {prep.workload.name} seed {prep.seed}: {prep.workload.why}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("shape " + " ".join(f"{k}={v}" for k, v in shape.items()))
    for key, unit in END_TO_END.items():
        s = summary[key]
        print(f"{key:<18} median {s['median']:.6g} {unit}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    for key, s in wall.items():
        print(f"{'wall ' + key:<18} median {s['median']:.6g} s  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    print(f"{'failed_frac':<18} {len(failed) / len(runs):.6g} ({len(failed)}/{len(runs)} runs)")
    for c in [warmup] + failed:
        for problem in c.problems[:5]:
            print(f"FAILED {c.tag}: {problem}", file=sys.stderr)
    for key, value in layers.items():
        print(f"{key:<40} {value:.6g}")

    detail = {
        "workload": prep.workload.name,
        "why": prep.workload.why,
        "seed": prep.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": list(prep.argv),
        "machine": info,
        "shape": shape,
        "end_to_end": summary,
        "wall": wall,
        "failed_frac": len(failed) / len(runs),
        "runs": [
            {"tag": c.tag, "traced": c.traced, "setup_s": c.setup_s, "run_s": c.run_s,
             "calibration_s": c.calibration_s, "rss_mb": c.rss_mb, "problems": c.problems}
            for c in [warmup] + runs
        ],
        "per_layer": layers,
        "fits_by_phase": phase_fits,
        "wall_s": clock() - started,
    }
    detail_path = OUT / f"BENCH_{prep.workload.name}_seed{prep.seed}_trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(f"details in {detail_path.relative_to(ROOT)}")

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": summary[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(key: str) -> str:
    if key.endswith(".calls") or key.startswith("glm.fit.nonconverged.") or key.endswith(".rejected"):
        return "count"
    if key.endswith("_frac") or key.endswith("share_of_run"):
        return "frac"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
