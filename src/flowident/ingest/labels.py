"""Ground-truth label files.

A label file is a CSV with header ``ip_lo,port_lo,ip_hi,port_hi,proto,
first_ts,label``: one row per flow episode, keyed by the canonical
five-tuple plus the episode start so a five-tuple reused later in the
capture can carry a different label.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

import numpy as np

from ..errors import FormatError
from ..files import csv_body, csv_rows
from ..flow import FlowKey, FlowTable, canonical_columns, ip_to_str, str_to_ip

HEADER = ("ip_lo", "port_lo", "ip_hi", "port_hi", "proto", "first_ts", "label")

_PROTO_NAMES = {"TCP": 6, "6": 6, "UDP": 17, "17": 17}
# Rows NumPy reads as the walk does: quads as ipaddress takes them, plain decimal ports,
# stamps below 10^18, an exact protocol, and no CSV syntax or NumPy blank in a label.
_QUAD = r"\.".join(["(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"] * 4)
_PORT = "(?:0|[1-9][0-9]{0,4})"
_CANONICAL = re.compile(rf"(?:{_QUAD},{_PORT},{_QUAD},{_PORT},(?:TCP|UDP|6|17),"
                        rf"(?:0|[1-9][0-9]{{0,17}}),[^,\"\r\n\x00\x1c-\x1f]*\r?\n)+")


class LabelFileError(FormatError):
    pass


@dataclass(frozen=True, slots=True)
class LabelRow:
    key: FlowKey
    first_ts: int
    label: str


class LabelFile:
    """Labels indexed by ``(ip_lo, port_lo, ip_hi, port_hi, proto, first_ts)``
    int tuples, as :func:`load_labels` reads them."""

    def __init__(self, index: dict[tuple[int, ...], str]) -> None:
        self._index = index

    def __len__(self) -> int:
        return len(self._index)

    def lookup(self, key: FlowKey, first_ts: int) -> str | None:
        return self._index.get((*key.sort_tuple(), first_ts))

    def join(self, flows: FlowTable) -> list[str | None]:
        """Each flow's label, None where no row has its key and start."""
        columns = (flows.ip_lo, flows.port_lo, flows.ip_hi, flows.port_hi, flows.proto,
                   flows.first_ts)
        return list(map(self._index.get, zip(*(column.tolist() for column in columns))))


def load_labels(path) -> LabelFile:
    """Parse a label CSV; errors carry the offending line number.

    Endpoints are canonicalised on read and duplicated (key, first_ts) rows
    are rejected.  A body of canonical rows is read by one ``np.loadtxt``
    call; any other, or one failing a column check, is walked row by row.
    """
    body = csv_body(path, HEADER, LabelFileError)
    if _CANONICAL.fullmatch(body):
        # Dots to commas: 12 integer fields lead each row, whatever dots its label holds.
        fields = np.loadtxt(
            io.StringIO(body.replace(".", ",").replace(",TCP,", ",6,").replace(",UDP,", ",17,")),
            dtype=np.int64, delimiter=",", usecols=range(12), comments=None, ndmin=2)
        ips = fields[:, [0, 1, 2, 3, 5, 6, 7, 8]].reshape(-1, 2, 4) @ [1 << 24, 1 << 16, 1 << 8, 1]
        if (ports := fields[:, [4, 9]]).max() <= 0xFFFF:
            key, _, _ = canonical_columns(ips[:, 0], ports[:, 0], ips[:, 1], ports[:, 1], fields[:, 10])
            rows = body.replace("\r", "").split("\n")[:-1]
            labels = (row.rpartition(",")[2] for row in rows)  # a label holds no comma
            index = dict(zip(zip(*(column.tolist() for column in (*key, fields[:, 11]))), labels))
            # Else a duplicate, or a field past the csv module's limit: the walk names it.
            if len(index) == len(rows) and max(map(len, rows)) <= csv.field_size_limit():
                return LabelFile(index)
    index = {}
    starts = []  # each indexed row's first line, in index order
    for line, row in csv_rows(path, HEADER, LabelFileError):
        try:
            ip_a, port_a = str_to_ip(row[0]), int(row[1])
            ip_b, port_b = str_to_ip(row[2]), int(row[3])
            first_ts = int(row[5])
        except ValueError as exc:
            raise LabelFileError(f"{path}: line {line}: {exc}") from None
        for name, port in (("port_lo", port_a), ("port_hi", port_b)):
            if not 0 <= port <= 0xFFFF:
                raise LabelFileError(f"{path}: line {line}: {name} {port} outside 0..65535")
        if first_ts < 0:
            raise LabelFileError(f"{path}: line {line}: first_ts {first_ts} is negative")
        if first_ts >= 1 << 63:  # no flow stamp can join it
            raise LabelFileError(f"{path}: line {line}: first_ts {first_ts} is above 2^63 - 1")
        proto = _PROTO_NAMES.get(row[4].strip().upper())
        if proto is None:
            raise LabelFileError(f"{path}: line {line}: unknown protocol {row[4]!r}")
        if (ip_a, port_a) <= (ip_b, port_b):
            key = (ip_a, port_a, ip_b, port_b, proto, first_ts)
        else:
            key = (ip_b, port_b, ip_a, port_a, proto, first_ts)
        if key in index:  # every earlier row is in the index, in line order
            raise LabelFileError(
                f"{path}: line {line}: duplicate of line {starts[list(index).index(key)]} "
                f"for the same flow key and start time"
            )
        index[key] = row[6]
        starts.append(line)
    return LabelFile(index)


def write_labels(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows((ip_to_str(row.key.ip_lo), row.key.port_lo, ip_to_str(row.key.ip_hi),
                          row.key.port_hi, row.key.proto.name, row.first_ts, row.label)
                         for row in rows)


__all__ = ["HEADER", "LabelFile", "LabelFileError", "LabelRow", "load_labels", "write_labels"]
