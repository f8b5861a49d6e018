"""Record the reference outputs that runs on recorded seeds must match.

    PYTHONPATH=src python3 bench/record_reference.py [WORKLOAD ...]

Run from the repository root.  For each workload and each seed in
``SEEDS`` this calls ``cli.main`` in-process and stores the parsed JSON
output in ``bench/reference/<workload>.json``.  For a bundled table it
also stores the selected model and point estimate, which must be the
same on every seed and serve as the invariant on other seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

from refcheck import REFERENCE_DIR, invariant_problems
from workloads import WORKLOADS, prepare

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(20)


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = p.parse_args()

    from mseboot import cli

    work = ROOT / "bench" / "out"
    work.mkdir(parents=True, exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workloads:
        outputs, fixed = {}, None
        for seed in SEEDS:
            prep = prepare(name, seed, ROOT, work)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(prep.argv))
            if rc != 0:
                raise SystemExit(f"{name} seed {seed}: exit code {rc}")
            out = json.loads(buf.getvalue())
            if WORKLOADS[name].fixture is not None:
                this = {k: out["result"][k] for k in ("selected_model", "point_estimate")}
                if fixed is not None and this != fixed:
                    raise SystemExit(f"{name} seed {seed}: {this} != {fixed}")
                fixed = this
            problems = invariant_problems(out, prep, fixed)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            outputs[str(seed)] = out
            print(name, seed, out["result"]["selected_model"], flush=True)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(
            json.dumps({"fixed": fixed, "outputs": outputs}, sort_keys=True) + "\n",
            encoding="utf-8",
        )


if __name__ == "__main__":
    main()
