"""NetFlow v5 export datagrams: decode to FlowRecords and encode back.

The v5 wire format is big-endian: a 24-byte header (version, record count,
sys_uptime in ms, export wall clock, sequence number, engine ids, sampling
field) followed by up to thirty 48-byte records.  Record timestamps are
milliseconds of router uptime, so absolute times are recovered by anchoring
against the header's wall clock; microsecond inputs therefore round down to
the millisecond on a round trip.
"""

from __future__ import annotations

import struct
from pathlib import Path

from ..errors import FormatError
from ..flow import Episode, FlowKey, FlowRecord, Proto, canonical_endpoints

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


def decode_netflow_v5(data: bytes) -> list[FlowRecord]:
    """Decode one export datagram into bidirectional FlowRecords.

    Reciprocal unidirectional records inside the same datagram (same
    canonical key, opposite directions) merge into one bidirectional flow;
    the record seen first defines the forward direction.
    """
    if len(data) < _HEADER.size:
        raise MalformedDatagramError(f"datagram too short: {len(data)} bytes")
    version, count, sys_uptime, unix_secs, unix_nsecs, _seq, _et, _eid, _si = (
        _HEADER.unpack_from(data)
    )
    if version != VERSION:
        raise UnsupportedVersionError(f"expected version 5, got {version}")
    if not 1 <= count <= MAX_RECORDS_PER_DATAGRAM:
        raise MalformedDatagramError(f"record count {count} outside [1, 30]")
    expected = _HEADER.size + count * _RECORD.size
    if len(data) != expected:
        raise MalformedDatagramError(
            f"length mismatch: {len(data)} bytes for {count} records (want {expected})"
        )
    export_us = unix_secs * 1_000_000 + unix_nsecs // 1000

    def absolute_us(i: int, uptime_ms: int) -> int:
        # An uptime more than half the counter range above the header's was
        # read before the 32-bit counter wrapped; a smaller lead would stamp
        # the record after its own export.
        lead = uptime_ms - sys_uptime
        if lead > _UPTIME_WRAP_MS // 2:
            uptime_ms -= _UPTIME_WRAP_MS
        elif lead > 0:
            raise MalformedDatagramError(f"record {i}: uptime {uptime_ms} ms is after "
                                         f"the export uptime {sys_uptime} ms")
        return export_us - (sys_uptime - uptime_ms) * 1000

    episodes: list[Episode] = []
    unpaired: dict[FlowKey, list[Episode]] = {}
    for i in range(count):
        (
            srcaddr, dstaddr, _nexthop, _inp, _out, pkts, octets, first, last,
            srcport, dstport, _pad1, tcp_flags, prot, tos, _sas, _das, _sm, _dm, _pad2,
        ) = _RECORD.unpack_from(data, _HEADER.size + i * _RECORD.size)
        if prot not in (Proto.TCP, Proto.UDP):
            raise MalformedDatagramError(f"record {i}: unsupported protocol {prot}")
        if prot == Proto.UDP and tcp_flags:
            raise MalformedDatagramError(
                f"record {i}: UDP record carries TCP flags {tcp_flags:#04x}"
            )
        if pkts < 1:
            raise MalformedDatagramError(f"record {i}: zero packet count")
        if octets < 20 * pkts:
            raise MalformedDatagramError(f"record {i}: byte count below IP minimum")
        first_us, last_us = absolute_us(i, first), absolute_us(i, last)
        if last_us < first_us:
            raise MalformedDatagramError(f"record {i}: flow ends before it starts")
        if first_us < 0:
            raise MalformedDatagramError(f"record {i}: flow starts before the Unix epoch")
        key, direction = canonical_endpoints(srcaddr, srcport, dstaddr, dstport, Proto(prot))
        # Unpaired records of one key all share a direction, so the oldest
        # of them is the one a reciprocal record pairs with.
        waiting = unpaired.setdefault(key, [])
        if waiting and waiting[0].orientation is not direction:
            episode = waiting.pop(0)
        else:
            episode = Episode(key, direction, first_us)
            episodes.append(episode)
            waiting.append(episode)
        episode.add(direction, first_us, last_us, pkts, octets, tcp_flags, tos)
    return [episode.to_record() for episode in episodes]


def _floor_ms(us: int) -> int:
    return (us // 1000) * 1000


def _ceil_ms(us: int) -> int:
    return -(-us // 1000) * 1000


def encode_netflow_v5(flows, seq_start: int = 0) -> list[bytes]:
    """Encode FlowRecords as v5 datagrams, at most 30 records in each.

    A bidirectional flow becomes two unidirectional records sharing the
    flow's time window.  ``flow_sequence`` runs continuously from
    ``seq_start`` across the returned datagrams.
    """
    raws = []
    for n, flow in enumerate(flows):
        key = flow.key
        if flow.initiator_lo:
            src, dst = (key.ip_lo, key.port_lo), (key.ip_hi, key.port_hi)
        else:
            src, dst = (key.ip_hi, key.port_hi), (key.ip_lo, key.port_lo)
        for pkts, octets, flags, endpoints in (
            (flow.fwd_packets, flow.fwd_bytes, flow.tcp_flags_fwd, (src, dst)),
            (flow.bwd_packets, flow.bwd_bytes, flow.tcp_flags_bwd, (dst, src)),
        ):
            if not pkts:
                continue
            if pkts > _U32 or octets > _U32:
                raise EncodingError(f"flow {n}: counter exceeds 32 bits")
            raws.append(
                (endpoints[0], endpoints[1], pkts, octets, flow.first_ts,
                 flow.last_ts, flags, int(key.proto), flow.tos)
            )
    if not raws:
        return []

    boot_us = _floor_ms(min(r[4] for r in raws))
    export_us = _ceil_ms(max(r[5] for r in raws))
    sys_uptime = (export_us - boot_us) // 1000
    if sys_uptime > _U32:
        raise EncodingError("flow time span exceeds the 32-bit uptime field")
    unix_secs = export_us // 1_000_000
    unix_nsecs = (export_us % 1_000_000) * 1000

    datagrams = []
    emitted = 0
    for start in range(0, len(raws), MAX_RECORDS_PER_DATAGRAM):
        chunk = raws[start : start + MAX_RECORDS_PER_DATAGRAM]
        out = bytearray(
            _HEADER.pack(
                VERSION, len(chunk), sys_uptime, unix_secs, unix_nsecs,
                (seq_start + emitted) & _U32, 0, 0, 0,
            )
        )
        for src, dst, pkts, octets, first_us, last_us, flags, prot, tos in chunk:
            out += _RECORD.pack(
                src[0], dst[0], 0, 0, 0, pkts, octets,
                (first_us - boot_us) // 1000, (last_us - boot_us) // 1000,
                src[1], dst[1], 0, flags, prot, tos, 0, 0, 0, 0, 0,
            )
        emitted += len(chunk)
        datagrams.append(bytes(out))
    return datagrams


def read_netflow_file(path) -> list[FlowRecord]:
    """Decode a file of concatenated v5 datagrams."""
    data = Path(path).read_bytes()
    flows: list[FlowRecord] = []
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            raise MalformedDatagramError(f"{path}: truncated header at byte {offset}")
        count = int.from_bytes(data[offset + 2 : offset + 4], "big")
        size = _HEADER.size + count * _RECORD.size
        if count < 1 or offset + size > len(data):
            raise MalformedDatagramError(f"{path}: truncated datagram at byte {offset}")
        try:
            flows.extend(decode_netflow_v5(data[offset : offset + size]))
        except (MalformedDatagramError, UnsupportedVersionError) as exc:
            raise type(exc)(f"{path}: datagram at byte {offset}: {exc}") from exc
        offset += size
    return flows
