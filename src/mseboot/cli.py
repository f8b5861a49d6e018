"""Command-line front end.

Subcommands: ``enumerate`` (model-space counts and listings), ``fit``
(single-model or best-BIC fits), ``bootstrap`` (interval construction by
any of the selection methods), and ``diagnose`` (rank-agreement
diagnostics).  JSON is the canonical machine output; CSV is available
for the tabular outputs and ``text`` gives a human summary.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .core import CountTable, ModelSpec, history_to_str
from .glm import (
    STATUS_FR_FAILED,
    FitSettings,
    NoModelFoundError,
    fit,
    fit_pairs,
    lowest_bic,
)
from .io import FIXTURES, DataFormatError, dump_table, load_fixture, load_table
from .modelspace import (
    ModelSpaceError,
    check_max_order,
    enumerate_models,
    random_order2_starts,
)
from .bootstrap import (
    DEFAULT_B,
    DEFAULT_LEVELS,
    IntervalResult,
    chisq_bootstrap,
    diagnostics,
    downhill_bootstrap,
    ntop_sweep,
    restricted_bootstrap,
)
import numpy as np

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_MODEL = 3
EXIT_DATA = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _jsonable(value):
    """JSON-safe rendering: non-finite floats become strings."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating,)):
        return _jsonable(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _write(rendered: str, out: str | None) -> None:
    """``rendered`` to the ``--out`` path, or to stdout when there is none;
    a path that cannot be written is a usage error (exit 2)."""
    if not out:
        sys.stdout.write(rendered)
        return
    try:
        Path(out).write_text(rendered, encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot write --out {out}: {e.strerror or e}") from None


def _check_out(out: str | None) -> None:
    """Refuse an ``--out`` path whose directory does not exist (exit 2),
    as ``_write`` would, before any data is read or any model fitted."""
    if not out:
        return
    parent = Path(out).parent
    if not parent.is_dir():
        error = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise CliError(f"cannot write --out {out}: {os.strerror(error)}")


def _emit(payload: dict, fmt: str, out: str | None, to_text, to_csv=None) -> None:
    if fmt == "json":
        rendered = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rendered = to_csv(payload)
    else:
        rendered = to_text(payload)
    _write(rendered, out)


def _load_data(args) -> tuple[CountTable, list[str]]:
    if args.data is None:
        raise CliError("--data is required")
    lists = args.lists.split(",") if getattr(args, "lists", None) else None
    try:
        if args.data.startswith("fixture:"):
            name = args.data.split(":", 1)[1]
            if name not in FIXTURES:
                raise CliError(f"unknown fixture {name!r}", EXIT_DATA)
            return load_fixture(name, lists)
        return load_table(args.data, lists)
    except OSError as e:
        raise CliError(f"cannot read data file {args.data}: {e.strerror or e}",
                       EXIT_DATA) from None
    except UnicodeDecodeError as e:
        raise CliError(f"data file {args.data} is not UTF-8: {e.reason}", EXIT_DATA) from None
    except DataFormatError as e:
        raise CliError(str(e), EXIT_DATA) from None


def _settings(args) -> FitSettings:
    return FitSettings(sample_size=args.sample_size)


def _levels(args) -> tuple[float, ...]:
    try:
        levels = tuple(float(x) for x in args.levels.split(","))
    except ValueError:
        raise CliError(f"invalid --levels {args.levels!r}") from None
    if not levels or any(not 0 < x < 1 for x in levels):
        raise CliError("confidence levels must lie strictly between 0 and 1")
    return levels


def _interval_dict(res: IntervalResult) -> dict:
    d = asdict(res)
    d["intervals"] = {f"{k:g}": list(v) for k, v in res.intervals.items()}
    d["flags"] = list(res.flags)
    return d


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    space = enumerate_models(args.t, args.max_order)
    payload = {
        "t": space.t,
        "max_order": space.l,
        "n_models": len(space),
    }
    if args.show_models:
        payload["models"] = [m.notation() for m in space]

    def to_text(p):
        lines = [f"{p['n_models']} hierarchical models for t={p['t']}, max order {p['max_order']}"]
        lines += p.get("models", [])
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, args.out, to_text)
    return EXIT_OK


def cmd_fit(args) -> int:
    table, names = _load_data(args)
    settings = _settings(args)
    l = args.max_order if args.max_order is not None else table.t - 1
    if args.model == "best":
        space = enumerate_models(table.t, l)
        # one check and fit per model: the failing ones are listed from
        # the same fits the BIC is taken from
        fits = list(fit_pairs([(m, table) for m in space], settings))
        fr_failures = [r.model.notation() for r in fits if r.status == STATUS_FR_FAILED]
        model, res = lowest_bic(fits)
    else:
        # a named model is checked alone: its space may be far too large
        # to enumerate
        check_max_order(table.t, l)
        model = ModelSpec.from_notation(args.model, table.t)
        if model.max_order > l:
            raise CliError(
                f"model {model.notation()} has order {model.max_order}, "
                f"above the maximum order l={l}"
            )
        res = fit(model, table, settings)
        fr_failures = [model.notation()] if res.status == STATUS_FR_FAILED else []
    payload = {
        "lists": names,
        "n_total": table.n_total,
        "model": model.notation(),
        "status": res.status,
        "bic": res.bic,
        "population_estimate": res.population_estimate,
        "alpha": {history_to_str(k): v for k, v in sorted(res.alpha.items())},
        "mu": {history_to_str(k): v for k, v in sorted(res.mu.items())},
        "fr_failing_models": fr_failures,
        "flags": list(res.flags),
    }

    def to_text(p):
        lines = [
            f"model {p['model']}: {p['status']}",
            f"BIC = {p['bic']}",
            f"population estimate = {p['population_estimate']}",
            f"models failing the existence criterion: {', '.join(p['fr_failing_models']) or 'none'}",
        ]
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, args.out, to_text)
    return EXIT_OK


def _parse_ntop(value: str) -> int | None:
    if value == "all":
        return None
    try:
        n = int(value)
    except ValueError:
        raise CliError(f"--ntop must be an integer or 'all', got {value!r}") from None
    if n < 1:
        raise CliError("--ntop must be at least 1")
    return n


def _method_options(args) -> None:
    """Fill in the defaults of the options that ``--method`` reads, and
    refuse (exit 2) one given to a method that would ignore it."""
    defaults = {"ntop": "all", "sweep": False, "starts": 0, "p_lo": 0.05, "p_hi": 0.3}
    readers = {
        "bic": ("ntop", "sweep"),
        "degree2": ("ntop", "sweep"),
        "downhill": ("starts",),
        "chisq": ("p_lo", "p_hi"),
    }
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in readers[args.method]:
            option = "--" + dest.replace("_", "-")
            raise CliError(f"{option} is not used by --method {args.method}")


def cmd_bootstrap(args) -> int:
    _method_options(args)
    table, names = _load_data(args)
    settings = _settings(args)
    levels = _levels(args)
    l = args.max_order if args.max_order is not None else table.t - 1
    n_top = _parse_ntop(args.ntop)
    if args.p_lo > args.p_hi:
        raise CliError(f"--p-lo ({args.p_lo}) must not exceed --p-hi ({args.p_hi})")
    if args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.starts < 0:
        raise CliError(f"--starts must be a non-negative integer, got {args.starts}")
    started = time.perf_counter()
    sweep_rows = None
    if args.method == "downhill":
        starts = [ModelSpec.null_model(table.t)]
        if args.starts > 0:
            start_rng = np.random.default_rng(
                np.random.SeedSequence([args.seed, 0xD0])
            )
            n_pairs = min(5, table.t * (table.t - 1) // 2)
            starts += random_order2_starts(table.t, n_pairs, args.starts, start_rng)
        result = downhill_bootstrap(
            table, l, args.reps, levels, args.seed, starts, settings
        )
    elif args.method == "chisq":
        space = enumerate_models(table.t, l)
        result = chisq_bootstrap(
            table, space, args.reps, levels, args.seed,
            args.p_lo, args.p_hi, settings,
        )
    else:
        degree = 2 if args.method == "degree2" else 1
        space = enumerate_models(table.t, l)
        if args.sweep:
            _, per_ntop = ntop_sweep(
                table, space, args.reps, n_top, levels, args.seed,
                degree, settings,
            )
            sweep_rows = per_ntop
            result = per_ntop[max(per_ntop)]
        else:
            result = restricted_bootstrap(
                table, space, args.reps, n_top, levels, args.seed,
                degree, settings,
            )
    elapsed = time.perf_counter() - started
    # timing goes to stderr so the canonical output is byte-reproducible
    sys.stderr.write(f"bootstrap completed in {elapsed:.3f}s\n")
    payload = {
        "lists": names,
        "n_total": table.n_total,
        "method": args.method,
        "result": _interval_dict(result),
    }
    if sweep_rows is not None:
        payload["sweep"] = {str(n): _interval_dict(r) for n, r in sweep_rows.items()}

    def to_text(p):
        r = p["result"]
        lines = [
            f"method {p['method']}: estimate {r['point_estimate']:.1f} "
            f"(model {r['selected_model']}, B={r['B']}, seed={r['seed']})",
        ]
        for lvl, (lo, hi) in sorted(r["intervals"].items()):
            lines.append(f"  {float(lvl) * 100:g}% CI [{lo:.1f}, {hi:.1f}]")
        if r["excluded_boot"]:
            lines.append(f"  excluded replicates: {r['excluded_boot']}")
        return "\n".join(lines) + "\n"

    def to_csv(p):
        rows = p.get("sweep") or {str(p["result"]["n_top"]): p["result"]}
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n_top", "estimate", "level", "lower", "upper", "excluded"])
        for n, r in rows.items():
            for lvl, (lo, hi) in sorted(r["intervals"].items()):
                writer.writerow([n, r["point_estimate"], lvl, lo, hi, r["excluded_boot"]])
        return out.getvalue()

    _emit(payload, args.format, args.out, to_text, to_csv)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    table, names = _load_data(args)
    settings = _settings(args)
    l = args.max_order if args.max_order is not None else table.t - 1
    try:
        grid = tuple(int(x) for x in args.ntop_grid.split(","))
    except ValueError:
        raise CliError(f"invalid --ntop-grid {args.ntop_grid!r}") from None
    space = enumerate_models(table.t, l)
    report = diagnostics(table, space, args.reps, args.seed, grid, settings)
    payload = {
        "lists": names,
        "n_total": table.n_total,
        "mean_rho": report.mean_rho,
        "rho_undefined": report.rho_undefined,
        "containment": {str(k): v for k, v in report.containment.items()},
        "m1": list(report.m1),
        "m2": list(report.m2),
        "B": report.B,
        "excluded": report.excluded,
    }

    def to_text(p):
        lines = [f"mean Spearman rho = {p['mean_rho']:.4f} over {p['B']} replicates"]
        for n, c in p["containment"].items():
            lines.append(f"  best model within top {n}: {c} / {p['B']}")
        return "\n".join(lines) + "\n"

    def to_csv(p):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n_top", "contained", "B"])
        for n, c in p["containment"].items():
            writer.writerow([n, c, p["B"]])
        return out.getvalue()

    _emit(payload, args.format, args.out, to_text, to_csv)
    return EXIT_OK


def cmd_dump(args) -> int:
    table, names = _load_data(args)
    _write(dump_table(table, names), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="CSV path, or fixture:NAME for a bundled dataset")
    p.add_argument("--lists", help="comma-separated list column names (default: all)")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    _add_data(p)
    p.add_argument("--max-order", type=int, default=None,
                   help="maximum parameter order (default: one less than the list count)")
    p.add_argument("--sample-size", choices=("case", "capture"), default="case",
                   help="BIC sample-size convention")
    p.add_argument("--format", choices=formats, default="json")


WORKERS_HELP = (
    "accepted so that existing command lines still work; has no effect "
    "(IRLS stacks run whole on a pool of one thread per CPU of the affinity "
    "mask, which taskset limits, each thread pinned to its own CPU; output "
    "is the same for any CPU count)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mseboot",
        description="Multiple systems estimation with model-selection-aware bootstrap intervals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count or list the hierarchical model space")
    p.add_argument("t", type=int, help="number of lists")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--show-models", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("fit", help="fit one model or select the best by BIC")
    _add_common(p, ("json", "text"))
    p.add_argument("--model", default="best",
                   help="bracket notation such as '[12,23]', or 'best'")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bootstrap", help="model-selection-aware bootstrap intervals")
    _add_common(p, ("json", "csv", "text"))
    p.add_argument("--method", choices=("bic", "degree2", "downhill", "chisq"),
                   default="bic")
    # the method-specific options default to None so that _method_options
    # can tell one given to a method that ignores it
    p.add_argument("--ntop",
                   help="restrict replicate selection to the top-ranked models "
                        "('all', the default, for no restriction; bic and degree2)")
    p.add_argument("--reps", type=int, default=DEFAULT_B)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", default=",".join(str(x) for x in DEFAULT_LEVELS))
    p.add_argument("--p-lo", type=float, dest="p_lo",
                   help="lower end of the chisq method's p-value window (default 0.05)")
    p.add_argument("--p-hi", type=float, dest="p_hi",
                   help="upper end of the chisq method's p-value window (default 0.3)")
    p.add_argument("--starts", type=int,
                   help="extra random order-2 starting models for the downhill method (default 0)")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.add_argument("--sweep", action="store_true", default=None,
                   help="emit intervals for every restriction size up to --ntop (bic and degree2)")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("diagnose", help="rank-agreement diagnostics over the full space")
    _add_common(p, ("json", "csv", "text"))
    p.add_argument("--reps", type=int, default=DEFAULT_B)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ntop-grid", default="1,5,10,50,100", dest="ntop_grid")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("dump", help="re-serialize a dataset in aggregated CSV form")
    _add_data(p)
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # what exists now (the imported modules above all) outlives the
    # command; frozen, it is left out of the full collections the run
    # triggers
    gc.freeze()
    try:
        _check_out(args.out)
        return args.func(args)
    except CliError as e:
        json.dump({"error": e.code, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return e.code
    except (ModelSpaceError, ValueError) as e:
        json.dump({"error": EXIT_USAGE, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_USAGE
    except NoModelFoundError as e:
        json.dump({"error": EXIT_NO_MODEL, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_NO_MODEL
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
