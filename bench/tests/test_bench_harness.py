"""Tests of the benchmark harness itself: span arithmetic, phase
attribution, the output comparator and the workload generator."""

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from refcheck import REFERENCE_DIR, Reference, compare, invariant_problems  # noqa: E402
from run import Child, check_traced  # noqa: E402
from trace_spans import (  # noqa: E402
    Span,
    Tracer,
    fits_by_phase,
    phase_bounds,
    self_times,
    summarize,
)
from workloads import WIDE_MIN_CELL, WORKLOADS, prepare, wide_table  # noqa: E402

from mseboot import bootstrap, cli, enumerate_models, existence, fr_check, glm  # noqa: E402
from mseboot.core import CountTable  # noqa: E402


def test_self_time_on_synthetic_tree():
    spans = [
        Span("cli.main", 0, 100, -1, 0),
        Span("glm.fit", 10, 40, 0, 0, "converged"),
        Span("glm.reduce", 15, 20, 1, 0),
        Span("glm.design", 25, 27, 1, 0),
        Span("glm.fit", 50, 90, 0, 0, "diverged"),
        Span("glm.reduce", 60, 70, 4, 0),
    ]
    assert self_times(spans) == [100 - 30 - 40, 30 - 5 - 2, 5, 2, 40 - 10, 10]
    m = summarize(spans)
    assert m["glm.fit.calls"] == 2
    assert m["glm.fit.s"] == pytest.approx(70e-9)
    assert m["glm.fit.self_s"] == pytest.approx((23 + 30) * 1e-9)
    assert m["glm.reduce.calls"] == 2
    assert m["cli.self_s"] == pytest.approx(30e-9)
    assert m["glm.fit.converged_frac"] == 0.5
    assert m["glm.fit.nonconverged.diverged"] == 1
    assert m["glm.fit.nonconverged.max_iterations"] == 0
    assert m["glm.fit.share_of_run"] == pytest.approx(0.7)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("cli.main", 0, 100, -1, 0),
        Span("glm.fit", 10, 50, 0, 0),
        Span("glm.fit", 30, 120, 0, 0),  # overlaps its sibling and outlives the parent
    ]
    assert self_times(spans)[0] == 10


def test_existence_ratios_from_the_span_tree():
    spans = [
        Span("existence.check", 0, 10, -1, 0, True),  # cache miss, fast path
        Span("existence.fr_check", 1, 9, 0, 0, True),
        Span("existence.check", 10, 40, -1, 0, False),  # cache miss, LP
        Span("existence.fr_check", 11, 39, 2, 0, False),
        Span("existence.lp", 12, 38, 3, 0, "optimal"),
        Span("existence.check", 40, 41, -1, 0, True),  # cache hit
    ]
    m = summarize(spans)
    assert m["existence.check.calls"] == 3
    assert m["existence.cache_hit_frac"] == pytest.approx(1 / 3)
    assert m["existence.fr_check.calls"] == 2
    assert m["existence.fast_path_frac"] == 0.5
    assert m["existence.lp.calls"] == 1
    assert m["existence.lp.s"] == pytest.approx(26e-9)
    assert m["existence.fr_check.self_s"] == pytest.approx((8 + 28 - 26) * 1e-9)
    assert m["existence.rejected"] == 1


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_phase_attribution_on_small_korea_run():
    argv = ["bootstrap", "--data", "fixture:korea", "--reps", "20", "--seed", "3"]
    plain = _run_cli(argv)
    originals = (glm.fit, existence.ExistenceCache.__dict__["check"],
                 CountTable.__dict__["from_counts"])
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_cli(argv)
    finally:
        tracer.uninstall()
    assert (glm.fit, existence.ExistenceCache.__dict__["check"],
            CountTable.__dict__["from_counts"]) == originals
    assert traced == plain
    spans = tracer.spans()

    # expected fits per phase, counted without the tracer: every model
    # that passes the existence check is fitted once per table
    table, _ = cli.load_fixture("korea")
    space = enumerate_models(3, 2)

    def n_fits(t):
        return sum(1 for m in space if fr_check(m, t))

    replicates = [bootstrap.resample(table, bootstrap.replicate_rng(3, i)) for i in range(20)]
    jack = [jt for _, jt in bootstrap.jackknife_tables(table)]
    assert fits_by_phase(spans) == {
        "original": n_fits(table),
        "replicates": sum(n_fits(r) for r in replicates),
        "jackknife": sum(n_fits(t) for t in jack),
        "bca": 0,
    }
    bounds = phase_bounds(spans)
    call = next(s for s in spans if s.name == "bootstrap.interval")
    assert bounds["original"][0] == call.start and bounds["bca"][1] == call.end
    assert [bounds[p][1] for p in ("original", "replicates", "jackknife")] == [
        bounds[p][0] for p in ("replicates", "jackknife", "bca")
    ]
    m = summarize(spans)
    assert m["bootstrap.resample.calls"] == 20
    assert sum(m[f"bootstrap.phase.{p}_s"] for p in bounds) == pytest.approx(
        (call.end - call.start) * 1e-9
    )
    assert m["glm.fit.calls"] == sum(fits_by_phase(spans).values())
    assert m["modelspace.enumerate.s"] > 0 and m["io.load.s"] > 0


@pytest.fixture(scope="module")
def korea_reference():
    data = json.loads((REFERENCE_DIR / "korea_sweep.json").read_text())
    return data["outputs"]["0"], data["fixed"]


def _scale_floats(doc, factor):
    if isinstance(doc, float):
        return doc * factor
    if isinstance(doc, dict):
        return {k: _scale_floats(v, factor) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_scale_floats(v, factor) for v in doc]
    return doc


def test_comparator_accepts_tiny_float_drift(korea_reference):
    ref, _ = korea_reference
    assert compare(ref, _scale_floats(ref, 1 + 1e-9)) == []
    assert compare(ref, _scale_floats(ref, 1 + 1e-6)) != []


def test_comparator_rejects_changed_model_and_exclusions(korea_reference):
    ref, _ = korea_reference
    changed = copy.deepcopy(ref)
    changed["result"]["selected_model"] = "[12,13]"
    assert compare(ref, changed)
    changed = copy.deepcopy(ref)
    changed["sweep"]["3"]["excluded_boot"] += 1
    assert compare(ref, changed)
    changed = copy.deepcopy(ref)
    changed["result"]["excluded_boot"] = float(changed["result"]["excluded_boot"])
    assert compare(ref, changed)


def test_invariants_on_other_seeds(korea_reference, tmp_path):
    ref, fixed = korea_reference
    prep = prepare("korea_sweep", 0, BENCH.parent, tmp_path)
    assert invariant_problems(ref, prep, fixed) == []
    broken = copy.deepcopy(ref)
    broken["sweep"]["2"]["intervals"]["0.95"].reverse()
    assert invariant_problems(broken, prep, fixed)
    broken = copy.deepcopy(ref)
    broken["result"]["selected_model"] = "[12,13]"
    assert invariant_problems(broken, prep, fixed)


def test_empty_output_is_a_problem(tmp_path):
    reference = Reference("korea_sweep")
    for seed in (0, 1000):  # a recorded seed and one checked by invariants
        prep = prepare("korea_sweep", seed, BENCH.parent, tmp_path)
        assert reference.problems(b"", prep)


def test_traced_output_is_compared_with_an_empty_plain_output():
    runs = [Child("plain"), Child("traced", traced=True, stdout=b'{"result": {}}')]
    check_traced(runs)
    assert runs[1].problems == ["traced output differs from untraced output"]


def test_wide_table_is_seeded_dense_and_sized():
    a = wide_table(5)
    assert a == wide_table(5)
    assert a != wide_table(6)
    assert len(a) == 63 and min(a.values()) >= WIDE_MIN_CELL
    assert sum(a.values()) == 30000


def test_workload_shapes_match_the_package():
    for w in WORKLOADS.values():
        if w.l == 2:
            # order-2 models are the subsets of the pairwise terms
            assert len(enumerate_models(4, 2)) == 2 ** math.comb(4, 2)
            assert w.space_size == 2 ** math.comb(w.t, 2)
        else:
            assert len(enumerate_models(w.t, w.l)) == w.space_size


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    layer_names = [m["name"] for m in spec["per_layer"]]
    assert layer_names == list(summarize([])) + ["trace.overhead_frac"]
