"""Packet records, canonical flow keys, and bidirectional flow aggregation.

A flow is keyed by the unordered five-tuple: the (ip, port) endpoint pair is
sorted so the numerically smaller IP (then port) comes first, which makes the
key identical for both directions of a conversation.  Within one aggregated
episode, "forward" means the direction of the episode's first packet.

Packets travel as one :class:`PacketTable` of columns; :func:`aggregate_table`
turns it into flow records with one sort and per-episode reductions.
:class:`FlowAggregator` folds one :class:`PacketRecord` at a time into the
same episodes, for callers that stream packets.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, check_finite

# TCP flag bits as they appear in the header's flags byte.
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_ACK = 0x10
_CLOSE_FLAGS = TCP_FIN | TCP_RST
_COMPLETE_FLAGS = TCP_SYN | TCP_FIN

DEFAULT_INACTIVE_TIMEOUT = 15.0
DEFAULT_ACTIVE_TIMEOUT = 1800.0

# Accepted clock skew for slightly out-of-order captures.
REORDER_TOLERANCE_US = 1_000_000
# The stream clock before the first packet.
_CLOCK_START = -(1 << 62)

_U16 = 0xFFFF
_U32 = 0xFFFFFFFF


class Proto(enum.IntEnum):
    """Transport protocols the toolkit understands."""

    TCP = 6
    UDP = 17


_PROTOS = {int(proto): proto for proto in Proto}


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def ip_to_str(ip: int) -> str:
    return str(ipaddress.IPv4Address(ip))


def str_to_ip(text: str) -> int:
    return int(ipaddress.IPv4Address(text))


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One captured IPv4 TCP or UDP packet.

    Timestamps are integer microseconds since the epoch; ``length`` is the
    IP total length, so it is never below the 20-byte header minimum.
    """

    ts: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: Proto
    length: int
    tcp_flags: int = 0
    tos: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.src_ip <= _U32 or not 0 <= self.dst_ip <= _U32:
            raise ContractError("IP addresses must be unsigned 32-bit values")
        if not 0 <= self.src_port <= _U16 or not 0 <= self.dst_port <= _U16:
            raise ContractError("ports must be in [0, 65535]")
        if self.length < 20:
            raise ContractError("packet length below IP header minimum")
        if self.proto is Proto.UDP and self.tcp_flags:
            raise ContractError("UDP packets cannot carry TCP flags")
        if not 0 <= self.tcp_flags <= 0xFF or not 0 <= self.tos <= 0xFF:
            raise ContractError("tcp_flags and tos are single bytes")


@dataclass(frozen=True, slots=True)
class FlowKey:
    """Canonical bidirectional five-tuple; (ip_lo, port_lo) is the endpoint
    with the smaller IP (ties broken by port)."""

    ip_lo: int
    port_lo: int
    ip_hi: int
    port_hi: int
    proto: Proto

    def __post_init__(self) -> None:
        if not 0 <= self.ip_lo <= _U32 or not 0 <= self.ip_hi <= _U32:
            raise ContractError("IP addresses must be unsigned 32-bit values")
        if not 0 <= self.port_lo <= _U16 or not 0 <= self.port_hi <= _U16:
            raise ContractError("ports must be in [0, 65535]")
        if not isinstance(self.proto, Proto):
            raise ContractError(f"proto must be a Proto, got {self.proto!r}")

    def sort_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.ip_lo, self.port_lo, self.ip_hi, self.port_hi, int(self.proto))


def canonical_endpoints(ip_a, port_a, ip_b, port_b, proto: Proto) -> tuple[FlowKey, Direction]:
    """The canonical key of endpoints a and b, and which way a -> b travels.

    FORWARD means a is the key's low endpoint (smaller IP, then port).
    Both orders of the same two endpoints map to the same key.
    """
    if (ip_a, port_a) <= (ip_b, port_b):
        return FlowKey(ip_a, port_a, ip_b, port_b, proto), Direction.FORWARD
    return FlowKey(ip_b, port_b, ip_a, port_a, proto), Direction.BACKWARD


def canonical_key(pkt: PacketRecord) -> tuple[FlowKey, Direction]:
    """Return the packet's canonical key and which way the packet travels."""
    return canonical_endpoints(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port, pkt.proto)


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One aggregated flow episode.

    Forward is the direction of the episode's first packet;
    ``initiator_lo`` records whether that packet travelled from the key's
    low endpoint to the high one, which is what lets an exporter
    reconstruct real source/destination addresses.
    """

    key: FlowKey
    first_ts: int
    last_ts: int
    fwd_packets: int
    fwd_bytes: int
    bwd_packets: int
    bwd_bytes: int
    tcp_flags_fwd: int = 0
    tcp_flags_bwd: int = 0
    tos: int = 0
    complete: bool = False
    initiator_lo: bool = True

    def __post_init__(self) -> None:
        if self.last_ts < self.first_ts:
            raise ContractError("flow ends before it starts")
        if self.fwd_packets < 1:
            raise ContractError("a flow has at least one forward packet")
        if self.bwd_packets < 0:
            raise ContractError("negative backward packet count")
        if self.fwd_bytes < 20 * self.fwd_packets:
            raise ContractError("forward bytes below IP header minimum")
        if self.bwd_packets and self.bwd_bytes < 20 * self.bwd_packets:
            raise ContractError("backward bytes below IP header minimum")
        if self.key.proto is Proto.UDP and (self.tcp_flags_fwd or self.tcp_flags_bwd):
            raise ContractError("UDP flows cannot carry TCP flags")

    @property
    def total_packets(self) -> int:
        return self.fwd_packets + self.bwd_packets

    @property
    def total_bytes(self) -> int:
        return self.fwd_bytes + self.bwd_bytes

    @property
    def duration_seconds(self) -> float:
        return (self.last_ts - self.first_ts) / 1e6


class Episode:
    """One bidirectional flow being accumulated, from packets or from
    unidirectional export records.  Forward is ``orientation``, the
    direction of the first part folded in."""

    __slots__ = (
        "key", "orientation", "first_ts", "last_ts", "fwd_packets", "fwd_bytes",
        "bwd_packets", "bwd_bytes", "flags_fwd", "flags_bwd", "tos",
    )

    def __init__(self, key: FlowKey, orientation: Direction, ts: int) -> None:
        self.key = key
        self.orientation = orientation
        self.first_ts = self.last_ts = ts
        self.fwd_packets = self.fwd_bytes = self.flags_fwd = 0
        self.bwd_packets = self.bwd_bytes = self.flags_bwd = 0
        self.tos = 0

    def add(self, direction: Direction, first_ts: int, last_ts: int,
            packets: int, octets: int, flags: int, tos: int) -> None:
        """Fold in ``packets`` packets seen between ``first_ts`` and ``last_ts``."""
        # Widen the window, not first/last seen: tolerated reordering may
        # deliver a packet with an earlier stamp than the episode start.
        if first_ts < self.first_ts:
            self.first_ts = first_ts
        if last_ts > self.last_ts:
            self.last_ts = last_ts
        if direction is self.orientation:
            self.fwd_packets += packets
            self.fwd_bytes += octets
            self.flags_fwd |= flags
        else:
            self.bwd_packets += packets
            self.bwd_bytes += octets
            self.flags_bwd |= flags
        self.tos |= tos

    def to_record(self) -> FlowRecord:
        return FlowRecord(
            key=self.key,
            first_ts=self.first_ts,
            last_ts=self.last_ts,
            fwd_packets=self.fwd_packets,
            fwd_bytes=self.fwd_bytes,
            bwd_packets=self.bwd_packets,
            bwd_bytes=self.bwd_bytes,
            tcp_flags_fwd=self.flags_fwd,
            tcp_flags_bwd=self.flags_bwd,
            tos=self.tos,
            complete=((self.flags_fwd | self.flags_bwd) & _COMPLETE_FLAGS) == _COMPLETE_FLAGS,
            initiator_lo=self.orientation is Direction.FORWARD,
        )


class FlowAggregator:
    """Streaming packet-to-flow aggregator.

    An episode closes when the gap since its last packet exceeds
    ``inactive_timeout``, when its age exceeds ``active_timeout``, or (TCP)
    once FIN or RST has been seen in both directions.  Packets arriving more
    than one second behind the stream clock are rejected and counted in
    ``rejected`` rather than silently misfiled.
    """

    def __init__(
        self,
        inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
        active_timeout: float = DEFAULT_ACTIVE_TIMEOUT,
    ) -> None:
        check_finite("inactive_timeout", inactive_timeout, positive=True)
        check_finite("active_timeout", active_timeout, positive=True)
        self._inactive_us = int(inactive_timeout * 1e6)
        self._active_us = int(active_timeout * 1e6)
        self._open: dict[FlowKey, Episode] = {}
        self._done: list[Episode] = []
        self._clock = _CLOCK_START
        self.accepted = 0
        self.rejected = 0

    def add(self, pkt: PacketRecord) -> Episode | None:
        """Fold one packet in; returns the episode it joined, or None when
        the packet is rejected."""
        ts = pkt.ts
        if ts < self._clock - REORDER_TOLERANCE_US:
            self.rejected += 1
            return None
        self._clock = max(self._clock, ts)
        self.accepted += 1
        key, direction = canonical_key(pkt)
        episode = self._open.get(key)
        if episode is not None:
            idle = ts - episode.last_ts
            age = ts - episode.first_ts
            if idle > self._inactive_us or age > self._active_us:
                self._done.append(self._open.pop(key))
                episode = None
        if episode is None:
            episode = self._open[key] = Episode(key, direction, ts)
        episode.add(direction, ts, ts, 1, pkt.length, pkt.tcp_flags, pkt.tos)
        if episode.flags_fwd & _CLOSE_FLAGS and episode.flags_bwd & _CLOSE_FLAGS:
            self._done.append(self._open.pop(key))
        return episode

    def flush(self) -> None:
        self._done.extend(self._open.values())
        self._open.clear()

    def episodes(self) -> list[Episode]:
        """Closed episodes, ordered by start time, then key."""
        return sorted(self._done, key=lambda e: (e.first_ts, e.key.sort_tuple()))

    def records(self) -> list[FlowRecord]:
        return [episode.to_record() for episode in self.episodes()]


@dataclass(frozen=True)
class PacketTable:
    """Packets as parallel integer columns, one row per packet in arrival
    order, holding what a :class:`PacketRecord` holds (``proto`` as 6 or 17).

    The pcap reader builds it with the narrowest dtypes the format allows;
    :meth:`from_records` uses int64 throughout.
    """

    ts: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    proto: np.ndarray
    length: np.ndarray
    tcp_flags: np.ndarray
    tos: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_records(cls, packets) -> PacketTable:
        names = [field.name for field in fields(cls)]
        rows = np.array([[getattr(pkt, name) for name in names] for pkt in packets])
        if rows.size and rows.dtype != np.int64:  # a float, or an int past 64 bits
            raise ContractError("packet fields must be integers that fit in 64 bits")
        rows = rows.astype(np.int64).reshape(-1, len(names))
        return cls(*(np.ascontiguousarray(column) for column in rows.T))

    def records(self) -> list[PacketRecord]:
        columns = [getattr(self, field.name).tolist() for field in fields(self)]
        return [
            PacketRecord(ts, src_ip, dst_ip, src_port, dst_port, _PROTOS[proto], length, flags, tos)
            for ts, src_ip, dst_ip, src_port, dst_port, proto, length, flags, tos in zip(*columns)
        ]


@dataclass(frozen=True)
class Aggregation:
    """The flow episodes of a :class:`PacketTable`.

    ``records`` come in episode order: start time, then key, then the key's
    earlier episode.  Episode e holds the table rows
    ``packets[bounds[e]:bounds[e + 1]]``, in arrival order; ``packets``
    lists every accepted row, and ``rejected`` counts the others.
    """

    records: list[FlowRecord]
    packets: np.ndarray
    bounds: np.ndarray
    rejected: int


def _episode_starts(ts, forward, closes, new_key, inactive_us: int, active_us: int) -> list[int]:
    """Where episodes start in a run of packets sorted by key, each key's in
    arrival order, by the rules of :meth:`FlowAggregator.add`: a packet opens
    one at a new key, once its key's episode has closed both ways, or past
    the idle or age limit."""
    starts = []
    first = last = 0
    is_open = orientation = closed_fwd = closed_bwd = False
    for i, (t, fwd, close, new) in enumerate(zip(ts, forward, closes, new_key)):
        if new or not is_open or t - last > inactive_us or t - first > active_us:
            starts.append(i)
            is_open, orientation, closed_fwd, closed_bwd = True, fwd, False, False
            first = last = t
        elif t < first:
            first = t
        elif t > last:
            last = t
        if close:
            if fwd == orientation:
                closed_fwd = True
            else:
                closed_bwd = True
            is_open = not (closed_fwd and closed_bwd)
    return starts


def aggregate_table(
    table: PacketTable,
    inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
    active_timeout: float = DEFAULT_ACTIVE_TIMEOUT,
) -> Aggregation:
    """The episodes, records and counts :class:`FlowAggregator` gives for the
    table's packets fed in row order."""
    check_finite("inactive_timeout", inactive_timeout, positive=True)
    check_finite("active_timeout", active_timeout, positive=True)
    ts = table.ts.astype(np.int64, copy=False)
    # A rejected packet is below the clock, so it never moves it: the clock a
    # packet meets is the running maximum of every earlier stamp.
    clock = np.maximum.accumulate(np.concatenate(([_CLOCK_START], ts)))[:-1]
    kept = np.flatnonzero(ts >= clock - REORDER_TOLERANCE_US)
    if not kept.size:
        return Aggregation([], kept, np.zeros(1, dtype=np.intp), len(ts))

    src_ip, dst_ip, src_port, dst_port, proto = (
        getattr(table, name)[kept].astype(np.int64)
        for name in ("src_ip", "dst_ip", "src_port", "dst_port", "proto")
    )
    forward = (src_ip < dst_ip) | ((src_ip == dst_ip) & (src_port <= dst_port))
    key = (
        np.where(forward, src_ip, dst_ip), np.where(forward, src_port, dst_port),
        np.where(forward, dst_ip, src_ip), np.where(forward, dst_port, src_port), proto,
    )
    # The key packed into two integers that sort as FlowKey.sort_tuple does;
    # the stable sort keeps each key's packets in arrival order.
    low, high = key[0] << 16 | key[1], key[2] << 24 | key[3] << 8 | key[4]
    order = np.lexsort((high, low))
    low, high, forward, rows = low[order], high[order], forward[order], kept[order]
    ts = ts[rows]
    flags = table.tcp_flags[rows].astype(np.int64)
    new_key = np.ones(len(rows), dtype=bool)
    new_key[1:] = (low[1:] != low[:-1]) | (high[1:] != high[:-1])
    starts = np.array(_episode_starts(
        ts.tolist(), forward.tolist(), (flags & _CLOSE_FLAGS != 0).tolist(), new_key.tolist(),
        int(inactive_timeout * 1e6), int(active_timeout * 1e6),
    ), dtype=np.intp)

    # Per-episode sums over the contiguous runs, then episodes in start order;
    # the stable sort breaks ties by sorted position: key, then rank in key.
    counts = np.diff(np.append(starts, len(rows)))
    episode = np.repeat(np.arange(len(starts)), counts)
    fwd = forward == forward[starts][episode]  # travels as the episode's first packet did
    length, tos = table.length[rows].astype(np.int64), table.tos[rows].astype(np.int64)
    fwd_packets = np.add.reduceat(fwd.astype(np.int64), starts)
    fwd_bytes = np.add.reduceat(np.where(fwd, length, 0), starts)
    flags_fwd = np.bitwise_or.reduceat(np.where(fwd, flags, 0), starts)
    flags_bwd = np.bitwise_or.reduceat(np.where(fwd, 0, flags), starts)
    fields_after_key = (
        np.minimum.reduceat(ts, starts), np.maximum.reduceat(ts, starts),
        fwd_packets, fwd_bytes, counts - fwd_packets, np.add.reduceat(length, starts) - fwd_bytes,
        flags_fwd, flags_bwd, np.bitwise_or.reduceat(tos, starts),
        (flags_fwd | flags_bwd) & _COMPLETE_FLAGS == _COMPLETE_FLAGS, forward[starts],
    )
    rank = np.argsort(fields_after_key[0], kind="stable")
    keys = zip(*(column[order[starts[rank]]].tolist() for column in key))
    records = [
        FlowRecord(FlowKey(ip_lo, port_lo, ip_hi, port_hi, _PROTOS[number]), *rest)
        for (ip_lo, port_lo, ip_hi, port_hi, number), rest
        in zip(keys, zip(*(column[rank].tolist() for column in fields_after_key)))
    ]
    place = np.argsort(rank)  # each episode's place in record order
    return Aggregation(
        records=records,
        packets=rows[np.argsort(place[episode], kind="stable")],
        bounds=np.concatenate(([0], np.cumsum(counts[rank]))),
        rejected=len(table) - len(kept),
    )


def aggregate(
    packets,
    inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
    active_timeout: float = DEFAULT_ACTIVE_TIMEOUT,
) -> list[FlowRecord]:
    """Aggregate a time-ordered packet stream into flow episodes."""
    return aggregate_table(PacketTable.from_records(packets), inactive_timeout, active_timeout).records
