"""Checks of a run's JSON output.

On a seed with a recorded reference the whole output must match it:
strings, integers, model notations and the ``excluded_*`` counts exactly,
floats to within ``REL_TOL`` relative.  On any other seed only properties
that hold for every seed are checked.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Prepared

# the tolerance allowed between batched and scalar fits
REL_TOL = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def compare(expected, actual, path: str = "$") -> list[str]:
    """Differences between two parsed JSON documents."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def _result_problems(r: dict, prep: Prepared, where: str) -> list[str]:
    out = []
    est = r.get("point_estimate")
    if not isinstance(est, float) or not math.isfinite(est) or est < prep.n_total:
        out.append(f"{where}: point estimate {est!r} is not a finite value >= {prep.n_total}")
    for level, bounds in r.get("intervals", {}).items():
        if not (
            len(bounds) == 2
            and all(isinstance(b, float) and math.isfinite(b) for b in bounds)
            and bounds[0] <= bounds[1]
        ):
            out.append(f"{where}: interval {level} {bounds!r} is not finite with lower <= upper")
    if not r.get("intervals"):
        out.append(f"{where}: no intervals")
    if not 0 <= r.get("excluded_boot", -1) <= prep.workload.B:
        out.append(f"{where}: excluded_boot {r.get('excluded_boot')!r} outside 0..B")
    if not 0 <= r.get("excluded_jack", -1) <= prep.positive_cells:
        out.append(f"{where}: excluded_jack {r.get('excluded_jack')!r} outside 0..cells")
    if r.get("B") != prep.workload.B or r.get("seed") != prep.seed:
        out.append(f"{where}: B/seed {r.get('B')!r}/{r.get('seed')!r} differ from the run's")
    return out


def invariant_problems(output: dict, prep: Prepared, fixed: dict | None) -> list[str]:
    """Seed-independent checks.  ``fixed`` holds the selected model and
    point estimate on the original data where those do not depend on the
    seed (bundled tables)."""
    out = []
    if output.get("n_total") != prep.n_total:
        out.append(f"n_total {output.get('n_total')!r} != {prep.n_total}")
    r = output.get("result")
    if not isinstance(r, dict):
        return out + ["no result object"]
    out += _result_problems(r, prep, "result")
    model = r.get("selected_model")
    if fixed is not None:
        if model != fixed["selected_model"]:
            out.append(f"selected model {model!r} != {fixed['selected_model']!r}")
        out += compare(fixed["point_estimate"], r.get("point_estimate"), "result.point_estimate")
    elif not (
        isinstance(model, str)
        and model.startswith("[")
        and model.endswith("]")
        and all(0 < len(g) <= prep.workload.l for g in model[1:-1].split(","))
    ):
        out.append(f"selected model {model!r} is not a model of order <= {prep.workload.l}")
    for n, row in output.get("sweep", {}).items():
        out += _result_problems(row, prep, f"sweep[{n}]")
        if row.get("point_estimate") != r.get("point_estimate"):
            out.append(f"sweep[{n}]: point estimate differs from the result's")
    return out


class Reference:
    """Recorded outputs of one workload, keyed by seed."""

    def __init__(self, workload: str):
        data = json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))
        self.fixed: dict | None = data["fixed"]
        self.outputs: dict[int, dict] = {int(k): v for k, v in data["outputs"].items()}

    def problems(self, stdout: bytes, prep: Prepared) -> list[str]:
        """Everything wrong with one run's standard output."""
        try:
            output = json.loads(stdout)
        except ValueError as e:
            return [f"output is not JSON: {e}"]
        if prep.seed in self.outputs:
            return compare(self.outputs[prep.seed], output)
        try:
            return invariant_problems(output, prep, self.fixed)
        except (AttributeError, TypeError) as e:  # a value of the wrong type
            return [f"malformed output: {e!r}"]
