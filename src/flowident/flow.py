"""Packet records, canonical flow keys, and bidirectional flow aggregation.

A flow is keyed by the unordered five-tuple: the (ip, port) endpoint pair is
sorted so the numerically smaller IP (then port) comes first, which makes the
key identical for both directions of a conversation.  Within one aggregated
episode, "forward" means the direction of the episode's first packet.

Packets travel as one :class:`PacketTable` of columns; :func:`aggregate_table`
turns it into a :class:`FlowTable` of columns with one sort and per-episode
reductions; the NetFlow reader decodes into the same table, and
:class:`FlowAggregator` buffers :class:`PacketRecord`s for one call.
"""

from __future__ import annotations

import enum
import ipaddress
import operator
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
_I64 = (1 << 63) - 1


class Proto(enum.IntEnum):
    """Transport protocols the toolkit understands."""

    TCP = 6
    UDP = 17


_PROTOS = {int(proto): proto for proto in Proto}


def ip_to_str(ip: int) -> str:
    return str(ipaddress.IPv4Address(ip))


def str_to_ip(text: str) -> int:
    return int(ipaddress.IPv4Address(text))


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One captured IPv4 TCP or UDP packet.

    Timestamps are integer microseconds since the epoch; ``length`` is the
    IP total length, a 16-bit field never below the 20-byte header minimum.
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
        ts = self.ts
        if not (type(ts) is int or isinstance(ts, np.integer)) or not 0 <= ts <= _I64:
            raise ContractError(f"packet stamps must be non-negative integers that fit in 64 bits, "
                                f"got {ts!r}")
        if not 0 <= self.src_ip <= _U32 or not 0 <= self.dst_ip <= _U32:
            raise ContractError("IP addresses must be unsigned 32-bit values")
        if not 0 <= self.src_port <= _U16 or not 0 <= self.dst_port <= _U16:
            raise ContractError("ports must be in [0, 65535]")
        if not 20 <= self.length <= _U16:
            raise ContractError(f"packet length {self.length} is outside IPv4's 20..65535")
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


def canonical_columns(ip_a, port_a, ip_b, port_b, proto):
    """The canonical key of endpoints a and b over int64 columns: the key's
    five columns, whether each row travels forward (a is the key's low
    endpoint: smaller IP, then port), and the key packed into two integers
    that sort as :meth:`FlowKey.sort_tuple` does.  Both orders of the same
    two endpoints give the same key."""
    forward = (ip_a < ip_b) | ((ip_a == ip_b) & (port_a <= port_b))
    key = (
        np.where(forward, ip_a, ip_b), np.where(forward, port_a, port_b),
        np.where(forward, ip_b, ip_a), np.where(forward, port_b, port_a), proto,
    )
    return key, forward, (key[0] << 16 | key[1], key[2] << 24 | key[3] << 8 | key[4])


def is_complete(flags: np.ndarray) -> np.ndarray:
    """Whether flag ORs over both directions hold both SYN and FIN."""
    return flags & _COMPLETE_FLAGS == _COMPLETE_FLAGS


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
        single_bytes = (self.tcp_flags_fwd, self.tcp_flags_bwd, self.tos)
        if min(single_bytes) < 0 or max(single_bytes) > 0xFF:
            raise ContractError("tcp_flags_fwd, tcp_flags_bwd and tos are single bytes")

    @property
    def total_packets(self) -> int:
        return self.fwd_packets + self.bwd_packets


@dataclass(frozen=True)
class PacketTable:
    """Packets as parallel integer columns, one row per packet in arrival
    order, holding what a :class:`PacketRecord` holds (``proto`` as 6 or 17).

    The pcap reader builds it with the narrowest dtypes the format allows;
    :meth:`from_records` uses int64 throughout.  Iterating it yields PacketRecords.
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

    def __iter__(self):
        return iter(self.records())

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


_KEY_FIELDS = tuple(field.name for field in fields(FlowKey))
_RECORD_FIELDS = tuple(field.name for field in fields(FlowRecord))[1:]
_record_values = operator.attrgetter(*_RECORD_FIELDS)


@dataclass(frozen=True)
class FlowTable:
    """Flow episodes as parallel columns, one row per :class:`FlowRecord`:
    the key's five parts (``proto`` as 6 or 17), then every other field,
    int64 except the two bool flags."""

    ip_lo: np.ndarray
    port_lo: np.ndarray
    ip_hi: np.ndarray
    port_hi: np.ndarray
    proto: np.ndarray
    first_ts: np.ndarray
    last_ts: np.ndarray
    fwd_packets: np.ndarray
    fwd_bytes: np.ndarray
    bwd_packets: np.ndarray
    bwd_bytes: np.ndarray
    tcp_flags_fwd: np.ndarray
    tcp_flags_bwd: np.ndarray
    tos: np.ndarray
    complete: np.ndarray
    initiator_lo: np.ndarray

    def __len__(self) -> int:
        return len(self.first_ts)

    @classmethod
    def from_records(cls, records) -> FlowTable:
        rows = np.array([(*record.key.sort_tuple(), *_record_values(record)) for record in records])
        if rows.size and rows.dtype != np.int64:  # a float, or an int past 64 bits
            raise ContractError("flow fields must be integers that fit in 64 bits")
        columns = rows.astype(np.int64).reshape(-1, len(_KEY_FIELDS) + len(_RECORD_FIELDS)).T
        return cls(*map(np.ascontiguousarray, columns[:-2]), *(columns[-2:] != 0))

    def records(self) -> list[FlowRecord]:
        keys = [
            FlowKey(ip_lo, port_lo, ip_hi, port_hi, _PROTOS[proto])
            for ip_lo, port_lo, ip_hi, port_hi, proto
            in zip(*(getattr(self, name).tolist() for name in _KEY_FIELDS))
        ]
        rest = zip(*(getattr(self, name).tolist() for name in _RECORD_FIELDS))
        return [FlowRecord(key, *values) for key, values in zip(keys, rest)]

    def take(self, rows) -> FlowTable:
        """The rows at an index array or boolean mask, in that order."""
        return FlowTable(*(getattr(self, field.name)[rows] for field in fields(self)))


@dataclass(frozen=True)
class Aggregation:
    """The flow episodes of a :class:`PacketTable`.

    ``flows`` come in episode order: start time, then key, then the key's
    earlier episode.  Episode e holds the table rows
    ``packets[bounds[e]:bounds[e + 1]]``, in arrival order; ``packets``
    lists every accepted row, and ``rejected`` counts the others.
    """

    flows: FlowTable
    packets: np.ndarray
    bounds: np.ndarray
    rejected: int


def _episode_starts(ts, forward, closes, new_key, inactive_us: int, active_us: int) -> list[int]:
    """Where episodes start in a run of packets sorted by key, each key's in
    arrival order.

    A packet opens an episode at a new key; once its key's episode has closed
    both ways, that is seen FIN or RST in its forward direction and in the
    other; when it comes more than ``inactive_us`` after the episode's
    latest stamp; or when it comes more than ``active_us`` after the
    episode's earliest stamp.  An episode's window widens to every stamp it
    takes, so a stamp up to the reorder tolerance behind moves its start
    back.  Forward is the direction of the episode's first packet.
    """
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


def _split_episodes(ts, forward, closes, new_key, inactive_us: int, active_us: int) -> np.ndarray:
    """:func:`_episode_starts` as an array, with the loop run only over the
    key groups that may hold more than one episode.

    A group is one episode when its stamps span no more than either limit,
    so no packet can pass the idle or age test, and it is not closed both
    ways before its last packet.  It is closed both ways at the later of its
    first close in each way, whichever way its episode calls forward.
    """
    n = len(ts)
    group = np.flatnonzero(new_key)
    end = np.append(group[1:], n)
    span = np.maximum.reduceat(ts, group) - np.minimum.reduceat(ts, group)
    position = np.where(closes, np.arange(n), n)
    closed = np.maximum(np.minimum.reduceat(np.where(forward, position, n), group),
                        np.minimum.reduceat(np.where(forward, n, position), group))
    single = (span <= min(inactive_us, active_us)) & (closed >= end - 1)
    if single.all():
        return group
    rows = np.flatnonzero(np.repeat(~single, end - group))
    split = rows[_episode_starts(
        ts[rows].tolist(), forward[rows].tolist(), closes[rows].tolist(), new_key[rows].tolist(),
        inactive_us, active_us,
    )]
    return np.sort(np.concatenate((group[single], split)))


def aggregate_table(
    table: PacketTable,
    inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
    active_timeout: float = DEFAULT_ACTIVE_TIMEOUT,
) -> Aggregation:
    """The flow episodes of the table's packets in row order: a packet more
    than ``REORDER_TOLERANCE_US`` behind the latest earlier stamp is rejected
    and counted, and the others join their canonical key's episodes by the
    rules of :func:`_episode_starts`."""
    check_finite("inactive_timeout", inactive_timeout, positive=True)
    check_finite("active_timeout", active_timeout, positive=True)
    ts = table.ts.astype(np.int64, copy=False)
    # A rejected packet is below the clock, so it never moves it: the clock a
    # packet meets is the running maximum of every earlier stamp.
    clock = np.maximum.accumulate(np.concatenate(([_CLOCK_START], ts)))[:-1]
    kept = np.flatnonzero(ts >= clock - REORDER_TOLERANCE_US)
    key, forward, (low, high) = canonical_columns(*(
        getattr(table, name)[kept].astype(np.int64)
        for name in ("src_ip", "src_port", "dst_ip", "dst_port", "proto")
    ))
    # The stable sort keeps each key's packets in arrival order.
    order = np.lexsort((high, low))
    low, high, forward, rows = low[order], high[order], forward[order], kept[order]
    ts = ts[rows]
    flags = table.tcp_flags[rows].astype(np.int64)
    new_key = np.ones(len(rows), dtype=bool)
    new_key[1:] = (low[1:] != low[:-1]) | (high[1:] != high[:-1])
    # No gap between int64 stamps exceeds 2**63 - 1 us, so a longer limit splits as that one does.
    limits = (int(min(timeout * 1e6, 2**63 - 1)) for timeout in (inactive_timeout, active_timeout))
    starts = _split_episodes(ts, forward, flags & _CLOSE_FLAGS != 0, new_key, *limits)

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
    first_ts = np.minimum.reduceat(ts, starts)
    rank = np.argsort(first_ts, kind="stable")
    flows = FlowTable(
        *(column[order[starts[rank]]] for column in key),
        *(column[rank] for column in (
            first_ts, np.maximum.reduceat(ts, starts), fwd_packets, fwd_bytes,
            counts - fwd_packets, np.add.reduceat(length, starts) - fwd_bytes,
            flags_fwd, flags_bwd, np.bitwise_or.reduceat(tos, starts),
            is_complete(flags_fwd | flags_bwd), forward[starts],
        )),
    )
    bounds = np.concatenate(([0], np.cumsum(counts[rank])))
    # Flow j's packets are the sorted run from starts[rank[j]], moved to bounds[j].
    return Aggregation(
        flows=flows,
        packets=rows[np.repeat(starts[rank] - bounds[:-1], counts[rank]) + np.arange(len(rows))],
        bounds=bounds,
        rejected=len(table) - len(kept),
    )


class FlowAggregator:
    """Packet-to-flow aggregation for callers that hold packets one at a
    time: ``add`` buffers a packet, and ``flush`` runs :func:`aggregate_table`
    over the packets added since the last flush.  ``records`` and the
    ``accepted``/``rejected`` counts cover every flush."""

    def __init__(
        self,
        inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
        active_timeout: float = DEFAULT_ACTIVE_TIMEOUT,
    ) -> None:
        check_finite("inactive_timeout", inactive_timeout, positive=True)
        check_finite("active_timeout", active_timeout, positive=True)
        self._timeouts = (inactive_timeout, active_timeout)
        self._packets: list[PacketRecord] = []
        self._flows: list[FlowRecord] = []
        self.accepted = self.rejected = 0

    def add(self, pkt: PacketRecord) -> None:
        self._packets.append(pkt)

    def flush(self) -> None:
        agg = aggregate_table(PacketTable.from_records(self._packets), *self._timeouts)
        self._packets = []
        self._flows.extend(agg.flows.records())
        self.accepted += len(agg.packets)
        self.rejected += agg.rejected

    def records(self) -> list[FlowRecord]:
        return list(self._flows)


def aggregate(
    packets,
    inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
    active_timeout: float = DEFAULT_ACTIVE_TIMEOUT,
) -> list[FlowRecord]:
    """Aggregate a time-ordered packet stream into flow episodes."""
    table = PacketTable.from_records(packets)
    return aggregate_table(table, inactive_timeout, active_timeout).flows.records()
