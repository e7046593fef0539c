"""Small shared helpers: line splitting, month math, stable serialization."""

from __future__ import annotations

import json
import re
import time
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
    """UTC calendar month of a unix timestamp, as 'YYYY-MM' (years 1 to 9999)."""
    year, month = time.gmtime(timestamp)[:2]
    if not 1 <= year <= 9999:
        raise ValueError(f"year {year} is out of range")
    return f"{year:04d}-{month:02d}"


def earliest_month(*months: Optional[str]) -> Optional[str]:
    """The earliest of the given 'YYYY-MM' months; None when all are None."""
    return min((month for month in months if month is not None), default=None)


def month_range(first: str, last: str) -> list[str]:
    """Inclusive list of 'YYYY-MM' months from first to last."""
    start, end = (int(month[:4]) * 12 + int(month[5:7]) - 1 for month in (first, last))
    return [f"{number // 12:04d}-{number % 12 + 1:02d}" for number in range(start, end + 1)]


def parse_instant(text: str) -> int:
    """Parse an ISO date or datetime into epoch seconds, assuming UTC when naive."""
    from datetime import datetime, timezone  # only --since and --until need it

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


def csv_text(header: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    """The CSV text of a header and its rows, each record ended by "\n".

    Every cell, the header's too, is taken by its exact type: None is
    empty, a bool is true/false, an int or float its repr, and a string
    holding a comma, a quote, LF or CR is quoted with its quotes doubled.
    Any other type, a subclass of these included, is a TypeError.
    """
    text = []
    for line in (header, *rows):
        cells = []
        for value in line:
            kind = type(value)
            if kind is float or kind is int:
                cells.append(repr(value))
            elif kind is str:
                cells.append('"' + value.replace('"', '""') + '"' if _NEEDS_QUOTES(value) else value)
            elif kind is bool:
                cells.append("true" if value else "false")
            elif value is None:
                cells.append("")
            else:
                raise TypeError(f"no CSV cell for a {kind.__name__}: {value!r}")
        text.append(",".join(cells) + "\n")
    return "".join(text)
