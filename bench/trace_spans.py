"""Spans around mseboot's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function at the name its caller
looks up.  Several modules import names directly (``cli`` imports
``load_fixture``, ``load_table`` and ``enumerate_models``; ``existence``
imports ``reduce_for_sparsity``), so the defining module alone is not
enough.  ``bootstrap`` imports ``fit_or_reject`` and ``cached_fr_check``;
those reach ``glm.fit`` and ``ExistenceCache.check`` through a module
global and a class attribute, which is where the spans go.  Spans stay in
memory until the run ends.  Calls are assumed to come from one thread,
which holds with ``--workers 1``.

``summarize`` turns spans into per-layer metrics: counts, inclusive and
self time, ratios, and the time of each bootstrap phase.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, NamedTuple

# (module, attribute, span name); a dotted attribute is a class attribute
TARGETS = (
    ("mseboot.cli", "main", "cli.main"),
    ("mseboot.cli", "load_fixture", "io.load"),
    ("mseboot.cli", "load_table", "io.load"),
    ("mseboot.cli", "enumerate_models", "modelspace.enumerate"),
    ("mseboot.cli", "ntop_sweep", "bootstrap.interval"),
    ("mseboot.cli", "restricted_bootstrap", "bootstrap.interval"),
    ("mseboot.cli", "downhill_bootstrap", "bootstrap.interval"),
    ("mseboot.cli", "chisq_bootstrap", "bootstrap.interval"),
    ("mseboot.bootstrap", "resample", "bootstrap.resample"),
    ("mseboot.bootstrap", "jackknife_tables", "bootstrap.jackknife_tables"),
    ("mseboot.bootstrap", "bca_components", "bootstrap.bca_components"),
    ("mseboot.bootstrap", "bic_ranks", "modelspace.bic_ranks"),
    ("mseboot.modelspace", "neighbors", "modelspace.neighbors"),
    ("mseboot.glm", "fit", "glm.fit"),
    ("mseboot.glm", "reduce_for_sparsity", "glm.reduce"),
    ("mseboot.existence", "reduce_for_sparsity", "glm.reduce"),
    ("mseboot.glm", "design_matrix", "glm.design"),
    ("mseboot.existence", "ExistenceCache.check", "existence.check"),
    ("mseboot.existence", "fr_check", "existence.fr_check"),
    ("mseboot.existence", "lp_max_s", "existence.lp"),
    ("mseboot.core", "CountTable.from_counts", "core.from_counts"),
)


def _fit_info(result) -> str:
    return "converged" if result.converged else ",".join(result.flags) or result.status


# what a span keeps of its function's return value
INFO: dict[str, Callable] = {
    "glm.fit": _fit_info,
    "existence.check": bool,
    "existence.fr_check": bool,
    "existence.lp": lambda result: result[0],
}

# a span with this name starts the phase; phases only move forward
PHASES = ("original", "replicates", "jackknife", "bca")
PHASE_MARKERS = {
    "bootstrap.resample": "replicates",
    "bootstrap.jackknife_tables": "jackknife",
    "bootstrap.bca_components": "bca",
}

NONCONVERGED = (
    "diverged", "max_iterations", "parameter_redundant", "deviance_increase",
    "no_cells_left",
)
COUNTS_THAT_REPEAT = (
    "glm.fit.calls", "existence.check.calls", "existence.fr_check.calls",
    "existence.lp.calls", "bootstrap.resample.calls",
)


class Span(NamedTuple):
    name: str
    start: int  # ns
    end: int  # ns
    parent: int  # index into the span list, -1 at the top
    run: int  # process id of the traced run
    info: object = None


class Tracer:
    """Records a span for every call to a traced function."""

    def __init__(self, run: int = 0):
        self.run = run
        self.records: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        records, stack, clock, run = self.records, self._stack, time.perf_counter_ns, self.run
        info = INFO.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, run, None]
            stack.append(len(records))
            records.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if info is not None:
                rec[5] = info(result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            *cls, attr = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, span_name))
                else:
                    new = self._wrap(raw, span_name)
            else:
                raw = getattr(owner, attr)
                new = self._wrap(raw, span_name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def spans(self) -> list[Span]:
        return [Span(*r) for r in self.records]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for start, end in sorted((spans[c].start, spans[c].end) for c in children[i]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def phase_bounds(spans: list[Span]) -> dict[str, tuple[int, int]]:
    """Start and end of each bootstrap phase inside the call that builds
    the interval (``bootstrap.interval``).

    ``original`` runs from that call's start to the first resample,
    ``replicates`` to the jackknife tables, ``jackknife`` to the first BCa
    assembly and ``bca`` to the call's return.  A phase whose marker never
    ran is empty.
    """
    call = next((s for s in spans if s.name == "bootstrap.interval"), None)
    if call is None:
        return {}
    first: dict[str, int] = {}
    for s in spans:
        phase = PHASE_MARKERS.get(s.name)
        if phase is not None and phase not in first:
            first[phase] = s.start
    starts = [call.start] + [first.get(p) for p in PHASES[1:]]
    following = call.end
    for k in range(len(starts) - 1, 0, -1):
        if starts[k] is None:
            starts[k] = following
        following = starts[k]
    for k in range(1, len(starts)):
        starts[k] = max(starts[k], starts[k - 1])
    ends = starts[1:] + [call.end]
    return {p: (a, b) for p, a, b in zip(PHASES, starts, ends)}


def phase_of(start: int, bounds: dict[str, tuple[int, int]]) -> str:
    """Phase in effect at ``start``; ``original`` before the interval call."""
    current = PHASES[0]
    for phase in PHASES:
        if phase in bounds and bounds[phase][0] <= start:
            current = phase
    return current


def fits_by_phase(spans: list[Span]) -> dict[str, int]:
    bounds = phase_bounds(spans)
    out = dict.fromkeys(PHASES, 0)
    for s in spans:
        if s.name == "glm.fit":
            out[phase_of(s.start, bounds)] += 1
    return out


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run, in seconds, counts and fractions."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    has_child: set[tuple[int, str]] = set()
    for i, s in enumerate(spans):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += selfs[i]
        if s.parent >= 0:
            has_child.add((s.parent, s.name))
    fits = [s for s in spans if s.name == "glm.fit"]
    checks = [i for i, s in enumerate(spans) if s.name == "existence.check"]
    fr = [i for i, s in enumerate(spans) if s.name == "existence.fr_check"]
    bounds = phase_bounds(spans)
    top = next((s for s in spans if s.name == "cli.main"), None)
    run_ns = top.end - top.start if top else 0
    ns = 1e-9
    m = {
        "glm.fit.calls": calls["glm.fit"],
        "glm.fit.s": total["glm.fit"] * ns,
        "glm.fit.self_s": own["glm.fit"] * ns,
        "glm.fit.converged_frac": _frac(
            sum(1 for s in fits if s.info == "converged"), len(fits)
        ),
    }
    for flag in NONCONVERGED:
        m[f"glm.fit.nonconverged.{flag}"] = sum(
            1 for s in fits if s.info != "converged" and flag in str(s.info).split(",")
        )
    m.update({
        "glm.reduce.calls": calls["glm.reduce"],
        "glm.reduce.s": total["glm.reduce"] * ns,
        "glm.design.s": total["glm.design"] * ns,
        "existence.check.calls": len(checks),
        "existence.cache_hit_frac": _frac(
            sum(1 for i in checks if (i, "existence.fr_check") not in has_child),
            len(checks),
        ),
        "existence.fr_check.calls": len(fr),
        "existence.fr_check.self_s": own["existence.fr_check"] * ns,
        "existence.fast_path_frac": _frac(
            sum(1 for i in fr if (i, "existence.lp") not in has_child), len(fr)
        ),
        "existence.lp.calls": calls["existence.lp"],
        "existence.lp.s": total["existence.lp"] * ns,
        "existence.rejected": sum(1 for i in checks if spans[i].info is False),
        "modelspace.enumerate.s": total["modelspace.enumerate"] * ns,
        "modelspace.bic_ranks.s": total["modelspace.bic_ranks"] * ns,
        "modelspace.neighbors.calls": calls["modelspace.neighbors"],
        "modelspace.neighbors.s": total["modelspace.neighbors"] * ns,
        "bootstrap.resample.calls": calls["bootstrap.resample"],
        "bootstrap.resample.s": total["bootstrap.resample"] * ns,
    })
    for phase in PHASES:
        a, b = bounds.get(phase, (0, 0))
        m[f"bootstrap.phase.{phase}_s"] = (b - a) * ns
    m.update({
        "core.from_counts.calls": calls["core.from_counts"],
        "core.from_counts.s": total["core.from_counts"] * ns,
        "io.load.s": total["io.load"] * ns,
        "cli.self_s": own["cli.main"] * ns,
        "trace.run_s": run_ns * ns,
        "glm.fit.share_of_run": _frac(total["glm.fit"], run_ns),
        "existence.lp.share_of_run": _frac(total["existence.lp"], run_ns),
        "bootstrap.phase.jackknife_share_of_run": _frac(
            m["bootstrap.phase.jackknife_s"] * 1e9, run_ns
        ),
    })
    return m
