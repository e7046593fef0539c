"""Small shared helpers: line splitting, month math, stable serialization."""

from __future__ import annotations

import json
import re
from datetime import datetime, timezone
from typing import Iterable, Optional


def split_lines(text: str) -> list[str]:
    """Split text into physical lines the way a line-based diff does.

    Only "\n" terminates a line; a trailing newline does not create an
    extra empty line. Carriage returns stay part of the line text.
    """
    if not text:
        return []
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def month_of(timestamp: int) -> str:
    """UTC calendar month of a unix timestamp, as 'YYYY-MM'."""
    dt = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"


def month_number(month: str) -> int:
    """Months since year 0 of a 'YYYY-MM' string, for month arithmetic."""
    return int(month[:4]) * 12 + int(month[5:7])


def earliest_month(*months: Optional[str]) -> Optional[str]:
    """The earliest of the given 'YYYY-MM' months; None when all are None."""
    return min((month for month in months if month is not None), default=None)


def month_range(first: str, last: str) -> list[str]:
    """Inclusive list of 'YYYY-MM' months from first to last."""
    fy, fm = (int(part) for part in first.split("-"))
    ly, lm = (int(part) for part in last.split("-"))
    months = []
    year, month = fy, fm
    while (year, month) <= (ly, lm):
        months.append(f"{year:04d}-{month:02d}")
        month += 1
        if month > 12:
            year, month = year + 1, 1
    return months


def parse_instant(text: str) -> int:
    """Parse an ISO date or datetime into epoch seconds, assuming UTC when naive."""
    value = datetime.fromisoformat(text)
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return int(value.timestamp())


def stable_json(obj: object) -> str:
    """Serialize with a fixed key order so artifacts are byte-reproducible."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def compact_json(obj: object) -> str:
    """stable_json without the indentation, which json's C encoder cannot write."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_NEEDS_QUOTES = re.compile('[,"\n\r]').search


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        if _NEEDS_QUOTES(value):
            return '"' + value.replace('"', '""') + '"'
        return value
    return str(value)


def csv_text(header: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    """The CSV text of a header and its rows, each record ended by "\n".

    Every cell, the header's too, follows one rule: None is empty, a bool
    is true/false, a float its repr, a string holding a comma, a quote,
    LF or CR is quoted with its quotes doubled, anything else is str().
    """
    lines = [header, *rows]
    return "".join(",".join([_csv_cell(value) for value in line]) + "\n" for line in lines)
