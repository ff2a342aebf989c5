"""Ground-truth label files.

A label file is a CSV with header ``ip_lo,port_lo,ip_hi,port_hi,proto,
first_ts,label``: one row per flow episode, keyed by the canonical
five-tuple plus the episode start so a five-tuple reused later in the
capture can carry a different label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import FormatError
from ..flow import FlowKey, Proto, canonical_endpoints, ip_to_str, str_to_ip

HEADER = ("ip_lo", "port_lo", "ip_hi", "port_hi", "proto", "first_ts", "label")


class LabelFileError(FormatError):
    pass


@dataclass(frozen=True, slots=True)
class LabelRow:
    key: FlowKey
    first_ts: int
    label: str


@dataclass
class LabelFile:
    rows: list[LabelRow]
    alphabet: tuple[str, ...] | None = None
    _index: dict[tuple[FlowKey, int], str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {(row.key, row.first_ts): row.label for row in self.rows}

    def __len__(self) -> int:
        return len(self.rows)

    def lookup(self, key: FlowKey, first_ts: int) -> str | None:
        return self._index.get((key, first_ts))


def _parse_proto(text: str, where: str) -> Proto:
    normalized = text.strip().upper()
    if normalized in ("TCP", "6"):
        return Proto.TCP
    if normalized in ("UDP", "17"):
        return Proto.UDP
    raise LabelFileError(f"{where}: unknown protocol {text!r}")


def load_labels(path, alphabet: tuple[str, ...] | None = None) -> LabelFile:
    """Parse a label CSV; errors carry the offending line number.

    Endpoints are canonicalised on read, duplicated (key, first_ts) rows are
    rejected, and when ``alphabet`` is given every label must belong to it.
    """
    rows: list[LabelRow] = []
    seen: dict[tuple[FlowKey, int], int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LabelFileError(f"{path}: empty file") from None
        if tuple(header) != HEADER:
            raise LabelFileError(
                f"{path}: header must be {','.join(HEADER)}, got {','.join(header)}"
            )
        for line, row in enumerate(reader, start=2):
            where = f"{path}: line {line}"
            if len(row) != len(HEADER):
                raise LabelFileError(f"{where}: expected {len(HEADER)} fields")
            try:
                ip_a = str_to_ip(row[0])
                port_a = int(row[1])
                ip_b = str_to_ip(row[2])
                port_b = int(row[3])
                first_ts = int(row[5])
            except ValueError as exc:
                raise LabelFileError(f"{where}: {exc}") from None
            for name, port in (("port_lo", port_a), ("port_hi", port_b)):
                if not 0 <= port <= 0xFFFF:
                    raise LabelFileError(f"{where}: {name} {port} outside 0..65535")
            if first_ts < 0:
                raise LabelFileError(f"{where}: first_ts {first_ts} is negative")
            key, _ = canonical_endpoints(ip_a, port_a, ip_b, port_b, _parse_proto(row[4], where))
            label = row[6]
            if alphabet is not None and label not in alphabet:
                raise LabelFileError(
                    f"{where}: label {label!r} not in declared alphabet"
                )
            if (key, first_ts) in seen:
                raise LabelFileError(
                    f"{where}: duplicate of line {seen[(key, first_ts)]} "
                    f"for the same flow key and start time"
                )
            seen[(key, first_ts)] = line
            rows.append(LabelRow(key, first_ts, label))
    return LabelFile(rows, alphabet)


def write_labels(path, rows) -> None:
    with open(path, "w", newline="") as fh:
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
