"""The one text-file boundary: every JSON and CSV file is UTF-8 and opens here.

A reader turns bytes that are not UTF-8 and malformed syntax into the
caller's FormatError subclass, with a message that starts with the file
name, so no input file can end in a traceback.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from pathlib import Path

from .errors import FormatError

# A line and its ending, split as io.StringIO(text, newline="") splits them.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def is_finite_number(value) -> bool:
    """Whether a parsed JSON value is an int or float, not a bool, that fits a
    finite float.  The bound compares as Python numbers: an int too large for a
    float fails it."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def read_json(path, error: type[FormatError]):
    """The document in a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad syntax, not UTF-8, an integer past int()'s limit
        raise error(f"{path}: not valid JSON ({exc})") from None


def write_json(path, doc) -> None:
    """``doc`` as JSON indented by two, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def csv_body(path, header: tuple[str, ...], error: type[FormatError]) -> str:
    """The text below the header of a CSV file.

    An empty file, a header other than ``header``, bytes that are not UTF-8
    and CSV syntax errors in the header raise ``error``.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    lines = _LINE.finditer(text)
    reader = csv.reader(line.group() for line in lines)
    try:
        got = next(reader, None)
    except csv.Error as exc:
        raise error(f"{path}: line {reader.line_num}: {exc}") from None
    if got is None:
        raise error(f"{path}: empty file")
    if tuple(got) != header:
        missing = [c for c in header if c not in got]
        extra = [c for c in got if c not in header]
        raise error(
            f"{path}: header must be {','.join(header)} "
            f"(missing: {missing or 'none'}, unexpected: {extra or 'none'})"
        )
    body = next(lines, None)  # the lines are contiguous: the body starts where the header ends
    return text[body.start():] if body else ""


def csv_rows(path, header: tuple[str, ...], error: type[FormatError]):
    """Yield ``(line, fields)`` for each row below the header of a CSV file,
    ``line`` being the physical line the row starts on.

    Besides what :func:`csv_body` refuses, a row with another field count
    and CSV syntax errors raise ``error``.
    """
    reader = csv.reader(io.StringIO(csv_body(path, header, error), newline=""))
    line = 2  # a header that matches is one line: the body's lines follow it
    try:
        for row in reader:
            if len(row) != len(header):
                raise error(f"{path}: line {line}: expected {len(header)} fields")
            yield line, row
            line = reader.line_num + 2
    except csv.Error as exc:
        raise error(f"{path}: line {reader.line_num + 1}: {exc}") from None
