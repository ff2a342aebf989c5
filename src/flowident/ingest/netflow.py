"""NetFlow v5 export datagrams: decode to a FlowTable and encode back.

The v5 wire format is big-endian: a 24-byte header (version, record count,
sys_uptime in ms, export wall clock, sequence number, engine ids, sampling
field) followed by up to thirty 48-byte records.  Record timestamps are
milliseconds of router uptime, so absolute times are recovered by anchoring
against the header's wall clock; microsecond inputs therefore round down to
the millisecond on a round trip.

The reader walks the datagram headers in Python, then reads every record
field of the file through one NumPy record type and checks each record
rule as a mask.  The encoder packs a FlowTable's columns through the same
two record types.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import FormatError
from ..flow import FlowRecord, FlowTable, Proto, canonical_columns, is_complete
from .layout import pack_rows, unpack_rows

_HEADER = struct.Struct("!HHIIIIBBH")
_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")

VERSION = 5
MAX_RECORDS_PER_DATAGRAM = 30

_U32 = 0xFFFFFFFF
_UPTIME_WRAP_MS = 1 << 32


class MalformedDatagramError(FormatError):
    """Datagram bytes do not form a consistent v5 export."""


class UnsupportedVersionError(FormatError):
    """The datagram announces a version other than 5."""


class EncodingError(FormatError):
    """Flow values do not fit the v5 wire format."""


def _check_header(version: int, count: int, where: str = "") -> None:
    if version != VERSION:
        raise UnsupportedVersionError(f"{where}expected version 5, got {version}")
    if not 1 <= count <= MAX_RECORDS_PER_DATAGRAM:
        raise MalformedDatagramError(f"{where}record count {count} outside [1, 30]")


def _decode(data: bytes, offsets: list[int], path) -> FlowTable:
    """The flows of the datagrams at ``offsets``, which have valid headers
    and follow each other from the start of ``data``; raises the first
    record fault in file order, naming its datagram's offset when ``path``
    is given."""
    u8, offset = np.frombuffer(data, np.uint8), np.array(offsets, dtype=np.int64)
    header = offset[:, None] + np.arange(_HEADER.size)
    _, count, sys_uptime, unix_secs, unix_nsecs, *_ = unpack_rows(_HEADER, u8[header])
    body = np.ones(header.size + _RECORD.size * count.sum(), dtype=bool)  # record bytes
    body[header] = False
    (
        src_ip, dst_ip, _nexthop, _inp, _out, pkts, octets, first, last,
        src_port, dst_port, _pad1, flags, proto, tos, *_,
    ) = unpack_rows(_RECORD, u8[: len(body)][body])
    datagram = np.repeat(np.arange(len(offset)), count)
    uptime = sys_uptime[datagram]
    export_us = (unix_secs * 1_000_000 + unix_nsecs // 1000)[datagram]

    def absolute_us(uptime_ms):
        # An uptime more than half the counter range above the header's was
        # read before the 32-bit counter wrapped; a smaller lead would stamp
        # the record after its own export.
        lead = uptime_ms - uptime
        wrapped = lead > _UPTIME_WRAP_MS // 2
        return export_us - (np.where(wrapped, _UPTIME_WRAP_MS, 0) - lead) * 1000, (lead > 0) & ~wrapped

    (first_us, first_late), (last_us, last_late) = absolute_us(first), absolute_us(last)
    udp = proto == Proto.UDP
    faults = (  # in the order a record is checked
        (~udp & (proto != Proto.TCP), "unsupported protocol {proto}"),
        (udp & (flags != 0), "UDP record carries TCP flags {flags:#04x}"),
        (pkts < 1, "zero packet count"),
        (octets < 20 * pkts, "byte count below IP minimum"),
        (first_late, "uptime {first} ms is after the export uptime {uptime} ms"),
        (last_late, "uptime {last} ms is after the export uptime {uptime} ms"),
        (last_us < first_us, "flow ends before it starts"),
        (first_us < 0, "flow starts before the Unix epoch"),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in faults]))
    if bad.size:
        r = bad[0]
        text = next(text for mask, text in faults if mask[r])
        where = "" if path is None else f"{path}: datagram at byte {offset[datagram[r]]}: "
        raise MalformedDatagramError(f"{where}record {r - count[:datagram[r]].sum()}: " + text.format(
            proto=int(proto[r]), flags=int(flags[r]), first=int(first[r]), last=int(last[r]),
            uptime=int(uptime[r]),
        ))

    key, forward, (low, high) = canonical_columns(src_ip, src_port, dst_ip, dst_port, proto)
    # Runs of one datagram, key and direction, each in arrival order (the
    # sorts are stable); a record's rank in its run is below 30.
    order = np.lexsort((forward, high, low, datagram))
    d, lo, hi, fw = datagram[order], low[order], high[order], forward[order]
    new_key = np.ones(len(order), dtype=bool)
    new_key[1:] = (d[1:] != d[:-1]) | (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    new_run = new_key.copy()
    new_run[1:] |= fw[1:] != fw[:-1]
    position = np.arange(len(order))
    rank = position - np.maximum.accumulate(np.where(new_run, position, 0))
    pair = np.empty_like(position)
    pair[order] = (np.cumsum(new_key) << 5) | rank
    # The k-th record of one direction pairs with the k-th of the other;
    # the earlier of the two opens the flow.
    order = np.argsort(pair, kind="stable")
    same = pair[order[1:]] == pair[order[:-1]]
    partner = position.copy()  # a lone record is its own partner
    partner[order[:-1][same]] = order[1:][same]
    flow = np.setdiff1d(position, order[1:][same], assume_unique=True)
    other = partner[flow]
    merged = other != flow
    flags_bwd = np.where(merged, flags[other], 0)
    return FlowTable(
        *(column[flow] for column in key),
        np.minimum(first_us[flow], first_us[other]), np.maximum(last_us[flow], last_us[other]),
        pkts[flow], octets[flow], np.where(merged, pkts[other], 0), np.where(merged, octets[other], 0),
        flags[flow], flags_bwd, tos[flow] | tos[other],
        is_complete(flags[flow] | flags_bwd), forward[flow],
    )


def decode_netflow_v5(data: bytes) -> list[FlowRecord]:
    """Decode one export datagram into bidirectional FlowRecords, merging
    reciprocal records as :func:`read_netflow_table` does."""
    if len(data) < _HEADER.size:
        raise MalformedDatagramError(f"datagram too short: {len(data)} bytes")
    version, count = _HEADER.unpack_from(data)[:2]
    _check_header(version, count)
    expected = _HEADER.size + count * _RECORD.size
    if len(data) != expected:
        raise MalformedDatagramError(
            f"length mismatch: {len(data)} bytes for {count} records (want {expected})"
        )
    return _decode(data, [0], None).records()


def read_netflow_table(path) -> FlowTable:
    """Decode a file of concatenated v5 datagrams into one table of flows.

    Reciprocal unidirectional records inside one datagram (same canonical
    key, opposite directions) merge into one bidirectional flow: the k-th
    record of a key and direction, in arrival order, pairs with the k-th
    record of the opposite direction.  The earlier record of a pair defines
    the forward direction and the flow's place; pairs never span datagrams.
    The first fault in file order is raised, naming its datagram's offset;
    a complete header is checked (version, then count) before its records'
    bytes are looked for, so "truncated" means bytes are missing.
    """
    data = Path(path).read_bytes()
    offsets, offset = [], 0
    try:
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                raise MalformedDatagramError(f"{path}: truncated header at byte {offset}")
            version, count = _HEADER.unpack_from(data, offset)[:2]
            _check_header(version, count, f"{path}: datagram at byte {offset}: ")
            size = _HEADER.size + count * _RECORD.size
            if offset + size > len(data):
                raise MalformedDatagramError(f"{path}: truncated datagram at byte {offset}")
            offsets.append(offset)
            offset += size
    except FormatError:
        _decode(data, offsets, path)  # a record fault in an earlier datagram comes first
        raise
    return _decode(data, offsets, path)


def read_netflow_file(path) -> list[FlowRecord]:
    """:func:`read_netflow_table` as FlowRecords."""
    return read_netflow_table(path).records()


def encode_netflow_v5(flows) -> list[bytes]:
    """Encode FlowRecords as v5 datagrams, at most 30 records in each.

    A bidirectional flow becomes its forward record, then its backward
    record if that direction has packets, both sharing the flow's time
    window and one datagram.  ``flow_sequence`` counts the records before
    each datagram, from 0.  A value the format cannot hold is refused with
    an EncodingError before anything is packed.
    """
    t = FlowTable.from_records(flows)
    if not len(t):
        return []
    # Each flow's forward value, then its backward one, for the records that exist.
    kept = np.column_stack((np.ones(len(t), dtype=bool), t.bwd_packets > 0)).reshape(-1)

    def records(fwd, bwd):
        return np.column_stack((fwd, bwd)).reshape(-1)[kept]

    flow = np.arange(len(t)).repeat(2)[kept]
    pkts, octets = records(t.fwd_packets, t.bwd_packets), records(t.fwd_bytes, t.bwd_bytes)
    wide = octets > _U32  # a FlowRecord's bytes are at least 20 per packet
    if wide.any():
        raise EncodingError(f"flow {flow[wide.argmax()]}: counter exceeds 32 bits")
    early = np.flatnonzero(t.first_ts < 0)
    if early.size:
        raise EncodingError(f"flow {early[0]}: first_ts {t.first_ts[early[0]]} is before the Unix epoch")
    boot_us = int(t.first_ts.min()) // 1000 * 1000
    export_us = -(-int(t.last_ts.max()) // 1000) * 1000
    sys_uptime = (export_us - boot_us) // 1000
    if sys_uptime > _U32:
        raise EncodingError("flow time span exceeds the 32-bit uptime field")
    unix_secs = export_us // 1_000_000
    if unix_secs > _U32:
        n = int(t.last_ts.argmax())
        raise EncodingError(f"flow {n}: last_ts {t.last_ts[n]} is past the 32-bit export seconds")

    lo = t.initiator_lo
    src_ip, dst_ip = np.where(lo, t.ip_lo, t.ip_hi), np.where(lo, t.ip_hi, t.ip_lo)
    src_port, dst_port = np.where(lo, t.port_lo, t.port_hi), np.where(lo, t.port_hi, t.port_lo)
    body = pack_rows(
        _RECORD, len(pkts), records(src_ip, dst_ip), records(dst_ip, src_ip), 0, 0, 0, pkts, octets,
        ((t.first_ts - boot_us) // 1000)[flow], ((t.last_ts - boot_us) // 1000)[flow],
        records(src_port, dst_port), records(dst_port, src_port), 0,
        records(t.tcp_flags_fwd, t.tcp_flags_bwd), t.proto[flow], t.tos[flow],
    ).tobytes()
    # A datagram that would end between a flow's forward and backward records
    # ends one record early, so the reader, which merges within a datagram,
    # gets the pair whole.  The last record never opens a pair.
    paired = records(t.bwd_packets > 0, np.zeros(len(t), dtype=bool))
    bounds = [0]
    while bounds[-1] < len(pkts):
        end = min(bounds[-1] + MAX_RECORDS_PER_DATAGRAM, len(pkts))
        bounds.append(end - int(paired[end - 1]))
    start = np.array(bounds[:-1])
    heads = pack_rows(
        _HEADER, len(start), VERSION, np.diff(bounds),
        sys_uptime, unix_secs, export_us % 1_000_000 * 1000, start & _U32,
    )
    size = _RECORD.size
    return [head.tobytes() + body[a * size : b * size] for head, a, b in zip(heads, bounds, bounds[1:])]
