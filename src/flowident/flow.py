"""Packet records, canonical flow keys, and bidirectional flow aggregation.

A flow is keyed by the unordered five-tuple: the (ip, port) endpoint pair is
sorted so the numerically smaller IP (then port) comes first, which makes the
key identical for both directions of a conversation.  Within one aggregated
episode, "forward" means the direction of the episode's first packet.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass

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

_U16 = 0xFFFF
_U32 = 0xFFFFFFFF


class Proto(enum.IntEnum):
    """Transport protocols the toolkit understands."""

    TCP = 6
    UDP = 17


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
        self._clock = -(1 << 62)
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


def aggregate(
    packets,
    inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
    active_timeout: float = DEFAULT_ACTIVE_TIMEOUT,
) -> list[FlowRecord]:
    """Aggregate a time-ordered packet stream into flow episodes."""
    agg = FlowAggregator(inactive_timeout, active_timeout)
    for pkt in packets:
        agg.add(pkt)
    agg.flush()
    return agg.records()
