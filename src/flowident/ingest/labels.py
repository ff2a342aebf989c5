"""Ground-truth label files.

A label file is a CSV with header ``ip_lo,port_lo,ip_hi,port_hi,proto,
first_ts,label``: one row per flow episode, keyed by the canonical
five-tuple plus the episode start so a five-tuple reused later in the
capture can carry a different label.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from ..errors import FormatError
from ..files import csv_rows
from ..flow import FlowKey, FlowTable, Proto, ip_to_str, str_to_ip

HEADER = ("ip_lo", "port_lo", "ip_hi", "port_hi", "proto", "first_ts", "label")

_OCTET = "(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])"
# The dotted quads ipaddress accepts: four octets in 0..255, no leading zero.
_DOTTED_QUAD = re.compile(r"\.".join([_OCTET] * 4))
_PROTO_NAMES = {"TCP": 6, "6": 6, "UDP": 17, "17": 17}


class LabelFileError(FormatError):
    pass


@dataclass(frozen=True, slots=True)
class LabelRow:
    key: FlowKey
    first_ts: int
    label: str


class LabelFile:
    """Labels indexed by ``(ip_lo, port_lo, ip_hi, port_hi, proto, first_ts)``
    int tuples.  A file read by :func:`load_labels` makes its ``rows`` on
    first read."""

    def __init__(self, rows) -> None:
        self.rows = list(rows)
        self._index = {(*row.key.sort_tuple(), row.first_ts): row.label for row in self.rows}
        self._len = len(self.rows)

    @classmethod
    def _indexed(cls, index: dict) -> LabelFile:
        labels = cls.__new__(cls)
        labels._index, labels._len = index, len(index)
        return labels

    @cached_property
    def rows(self) -> list[LabelRow]:
        return [
            LabelRow(FlowKey(ip_lo, port_lo, ip_hi, port_hi, Proto(proto)), first_ts, label)
            for (ip_lo, port_lo, ip_hi, port_hi, proto, first_ts), label in self._index.items()
        ]

    def __len__(self) -> int:
        return self._len

    def lookup(self, key: FlowKey, first_ts: int) -> str | None:
        return self._index.get((*key.sort_tuple(), first_ts))

    def join(self, flows: FlowTable) -> list[str | None]:
        """Each flow's label, None where no row has its key and start."""
        columns = (flows.ip_lo, flows.port_lo, flows.ip_hi, flows.port_hi, flows.proto,
                   flows.first_ts)
        return list(map(self._index.get, zip(*(column.tolist() for column in columns))))


def _parse_ip(text: str) -> int:
    """A dotted quad as an int; any other text goes to ipaddress, which
    refuses it with its own message."""
    quad = _DOTTED_QUAD.fullmatch(text)
    if quad is None:
        return str_to_ip(text)
    a, b, c, d = map(int, quad.groups())
    return a << 24 | b << 16 | c << 8 | d


def load_labels(path) -> LabelFile:
    """Parse a label CSV; errors carry the offending line number.

    Endpoints are canonicalised on read and duplicated (key, first_ts) rows
    are rejected.
    """
    index: dict[tuple[int, ...], str] = {}
    parse_ip = lru_cache(maxsize=None)(_parse_ip)  # server addresses repeat from row to row
    for line, row in csv_rows(path, HEADER, LabelFileError):
        try:
            ip_a, port_a = parse_ip(row[0]), int(row[1])
            ip_b, port_b = parse_ip(row[2]), int(row[3])
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
        if key in index:  # every earlier row is in the index, in line order from 2
            raise LabelFileError(
                f"{path}: line {line}: duplicate of line {list(index).index(key) + 2} "
                f"for the same flow key and start time"
            )
        index[key] = row[6]
    return LabelFile._indexed(index)


def write_labels(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for row in rows:
            key = row.key
            writer.writerow(
                (
                    ip_to_str(key.ip_lo), key.port_lo,
                    ip_to_str(key.ip_hi), key.port_hi,
                    key.proto.name, row.first_ts, row.label,
                )
            )


__all__ = ["HEADER", "LabelFile", "LabelFileError", "LabelRow", "load_labels", "write_labels"]
