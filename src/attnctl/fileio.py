"""Small file-writing and text-parsing helpers shared by the engine.

Everything written to disk goes through ``atomic_write_text`` (temp file in the
target directory, then ``os.replace``) so partially written artifacts never
appear under the final name. Floats are serialized with ``repr`` of the Python
float, which round-trips exactly and is stable across runs.
"""
from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Iterable, Sequence


def fnum(x: float) -> str:
    """Shortest exact decimal form of a float (round-trips via float())."""
    return repr(float(x))


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a CSV with a fixed column order and repr-formatted floats."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(fnum(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    """Write JSON with sorted keys; byte-identical for equal payloads."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def content_lines(text: str) -> "list[tuple[int, str]]":
    """Non-blank lines with their 1-based line numbers."""
    return [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]


def line_fields(lines: "list[tuple[int, str]]", pos: int, expected: str):
    """Line number and whitespace-split fields of content line ``pos``; a
    file that ends before it raises ValueError."""
    if pos >= len(lines):
        last = lines[-1][0] if lines else 0
        raise ValueError(f"file ends after line {last}, expected {expected}")
    lineno, text = lines[pos]
    return lineno, text.split()


def parse_numbers(cells: "list[str]", kind, lineno: int) -> list:
    try:
        return [kind(c) for c in cells]
    except ValueError:
        raise ValueError(f"line {lineno}: expected numbers, got {' '.join(cells)!r}") from None
