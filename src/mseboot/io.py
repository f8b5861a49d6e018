"""CSV ingestion and serialization of count tables.

Two layouts are accepted.  Aggregated: one row per capture history with
0/1 list-membership flags and a ``count`` column.  Per-record: one 0/1
row per observed case, no count column; counts are obtained by
aggregation.  A row of all zeros is rejected in either layout because
the never-captured cell is unobservable.
"""

from __future__ import annotations

import csv
import io
import warnings
from importlib import resources
from pathlib import Path

from .core import CountTable

FIXTURES = ("korea", "table1_n1", "table1_n2", "table1_n3", "table1_n4")


class DataFormatError(Exception):
    pass


def _parse_flag(value: str, where: str) -> int:
    v = value.strip()
    if v not in ("0", "1"):
        raise DataFormatError(f"list membership must be 0 or 1, got {v!r} {where}")
    return int(v)


def _reject_duplicate(names: list[str], what: str) -> None:
    """A ``DataFormatError`` naming the first name given twice: two lists
    read from one column would record every case on both."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DataFormatError(f"duplicate {what} name {name!r}")
        seen.add(name)


def parse_table(text: str, lists: list[str] | None = None) -> tuple[CountTable, list[str]]:
    """Parse CSV text into a count table; returns (table, list names)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty input") from None
    header = [h.strip() for h in header]
    _reject_duplicate(header, "column")
    has_count = bool(header) and header[-1].lower() == "count"
    names = header[:-1] if has_count else header
    if lists is not None:
        _reject_duplicate(lists, "requested list")
        missing = [n for n in lists if n not in names]
        if missing:
            raise DataFormatError(f"requested list columns not found: {missing}")
        names = lists
    if not 1 <= len(names) <= 16:
        raise DataFormatError(f"need between 1 and 16 list columns, got {len(names)}")
    col = {h: i for i, h in enumerate(header)}
    counts: dict[int, int] = {}
    seen: set[int] = set()
    duplicates = False
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataFormatError(f"row {lineno} has {len(row)} fields, expected {len(header)}")
        mask = 0
        for i, name in enumerate(names):
            if _parse_flag(row[col[name]], f"(row {lineno}, column {name!r})"):
                mask |= 1 << i
        if mask == 0:
            all_names = [h for h in header if h.lower() != "count"]
            full = any(
                _parse_flag(row[col[n]], f"(row {lineno}, column {n!r})")
                for n in all_names
            )
            if full:
                # observed only on excluded lists: unobservable after the
                # column selection, so the case is dropped
                continue
            raise DataFormatError(
                f"row {lineno} is all zeros: cases on no list are unobservable"
            )
        if has_count:
            raw = row[col["count"] if "count" in col else len(header) - 1]
            try:
                n = int(raw)
            except ValueError:
                raise DataFormatError(f"row {lineno}: count {raw!r} is not an integer") from None
            if n < 0:
                raise DataFormatError(f"row {lineno}: negative count {n}")
        else:
            n = 1
        if mask in seen and has_count:
            duplicates = True
        seen.add(mask)
        counts[mask] = counts.get(mask, 0) + n
    if duplicates:
        warnings.warn("duplicate capture histories were summed", stacklevel=2)
    table = CountTable.from_counts(len(names), counts)
    if table.n_total == 0:
        raise DataFormatError("table has no observed cases")
    return table, names


def load_table(path: str | Path, lists: list[str] | None = None) -> tuple[CountTable, list[str]]:
    return parse_table(Path(path).read_text(encoding="utf-8"), lists)


def dump_table(table: CountTable, names: list[str] | None = None) -> str:
    """Aggregated CSV for a table; inverse of parse_table on its output."""
    if names is None:
        names = [f"L{i + 1}" for i in range(table.t)]
    if len(names) != table.t:
        raise ValueError(f"expected {table.t} list names, got {len(names)}")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names + ["count"])
    for mask, n in table.counts.items():
        writer.writerow([(mask >> i) & 1 for i in range(table.t)] + [n])
    return out.getvalue()


def load_fixture(
    name: str, lists: list[str] | None = None
) -> tuple[CountTable, list[str]]:
    """Bundled datasets: 'korea' and the four 'table1_n*' sparse vectors.

    ``lists`` selects list columns as in ``parse_table``.
    """
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    text = resources.files("mseboot.data").joinpath(f"{name}.csv").read_text("utf-8")
    return parse_table(text, lists)
