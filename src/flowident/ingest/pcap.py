"""Classic pcap reading and writing.

Only the original tcpdump format is handled: microsecond magic, either byte
order, Ethernet link type.  Frames that are not IPv4 TCP/UDP (ARP, IPv6,
VLAN-tagged, fragments, ...) are counted and skipped instead of failing the
whole file.

The reader reads the file in fixed windows, each from the first record not
yet read.  A walk over the record headers finds each record; NumPy gathers
then read the header and frame fields of a whole window at once into the
columns of a :class:`PacketTable`.  The writer packs a table's columns into
each header layout as a byte matrix and scatters the rows into one zeroed
file image.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ..errors import ContractError, FormatError
from ..flow import PacketRecord, PacketTable, Proto
from .layout import pack_rows

MAGIC_US = 0xA1B2C3D4
MAGIC_US_SWAPPED = 0xD4C3B2A1
_MAGIC_NS = (0xA1B23C4D, 0x4D3CB2A1)

LINKTYPE_ETHERNET = 1

_ETHERTYPE_IPV4 = b"\x08\x00"
# Destination and source MAC, then the ethertype: what the writer puts
# before every IPv4 header, and where the reader looks for one.
_ETHERNET_HEADER = bytes.fromhex("020000000002" "020000000001") + _ETHERTYPE_IPV4
_IP_AT = len(_ETHERNET_HEADER)

# version/IHL, ToS, total length, id, flags/fragment offset, TTL, protocol,
# checksum, source, destination.
_IPV4 = struct.Struct("!BBHHHBBHII")
_TCP = struct.Struct("!HHIIBBHHH")  # ports, seq, ack, data offset, flags, window, checksum, urgent
_UDP = struct.Struct("!HHHH")  # ports, length, checksum

_GLOBAL_HEADER = struct.Struct("=IHHiIII")
_RECORD = struct.Struct("=IIII")  # ts_sec, ts_usec, incl_len, orig_len, as the writer writes it
_SNAPLEN = 65535
# The most each PacketTable column can hold in the file: stamps in 32-bit
# seconds, the other columns in their header fields.
_MAX_VALUE = {
    "ts": 2**32 * 1_000_000 - 1, "src_ip": 2**32 - 1, "dst_ip": 2**32 - 1, "src_port": 0xFFFF,
    "dst_port": 0xFFFF, "proto": 0xFF, "length": 0xFFFF, "tcp_flags": 0xFF, "tos": 0xFF,
}
_SCATTER_ROWS = 1 << 13  # header rows the writer scatters at once: a 4.5 MiB (rows, 70) index

# Bytes read per window; a record longer than this gets a window of its own.
_WINDOW = 1 << 21
# Gathers past a short frame's end land here instead of past the buffer:
# they reach at most 87 bytes into a frame (TCP flags after a 60-byte IPv4
# header).
_SLACK = 128
# Byte offsets gathered from each record: its header, the Ethernet and fixed
# IPv4 headers of its frame, and the ports of the transport header.
_HEADER_BYTES = np.arange(_RECORD.size)
_FRAME_BYTES = np.arange(_IP_AT + _IPV4.size)
_PORT_BYTES = np.arange(4)


class PcapDecodeError(FormatError):
    """The file is recognisably pcap but its bytes are inconsistent."""


class UnsupportedFormatError(FormatError):
    """The file is not a classic microsecond Ethernet pcap."""


class PcapReader:
    """Reads a capture file into a :class:`PacketTable`, or iterates it as
    PacketRecords.

    After reading, ``total_frames`` and ``skipped`` describe what was read:
    kept packets plus skipped frames always add up to ``total_frames``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.total_frames = 0
        self.skipped = 0
        with open(self.path, "rb") as fh:
            head = fh.read(_GLOBAL_HEADER.size)
        if len(head) < _GLOBAL_HEADER.size:
            raise PcapDecodeError(f"{self.path}: truncated global header")
        magic = int.from_bytes(head[:4], "little")
        if magic == MAGIC_US:
            self._endian = "<"
        elif magic == MAGIC_US_SWAPPED:
            self._endian = ">"
        elif magic in _MAGIC_NS or int.from_bytes(head[:4], "big") in _MAGIC_NS:
            raise UnsupportedFormatError(
                f"{self.path}: nanosecond pcap is not supported"
            )
        else:
            raise UnsupportedFormatError(f"{self.path}: not a pcap file")
        self.link_type = struct.unpack(self._endian + "IHHiIII", head)[6]
        self._u32 = struct.Struct(self._endian + "I").unpack_from
        if self.link_type != LINKTYPE_ETHERNET:
            raise UnsupportedFormatError(
                f"{self.path}: unsupported link type {self.link_type}"
            )

    def __iter__(self):
        return iter(self.table())

    def table(self) -> PacketTable:
        """Every IPv4 TCP/UDP packet of the file, in file order."""
        u32 = self._u32
        parts, frames = [], 0
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            pos = _GLOBAL_HEADER.size  # file offset of the next unread record
            buf = bytearray(_WINDOW + _SLACK)
            while True:
                fh.seek(pos)
                end = fh.readinto(memoryview(buf)[: len(buf) - _SLACK])
                offsets, at = [], 0
                while at + _RECORD.size <= end:
                    after = at + _RECORD.size + u32(buf, at + 8)[0]
                    if after > end:
                        break
                    offsets.append(at)
                    at = after
                parts.append(self._decode(buf, offsets, pos))
                frames += len(offsets)
                pos += at
                if pos >= size or not end:
                    break
                if not offsets:  # the window holds no whole record: grow it, or the file is cut
                    need = _RECORD.size + (u32(buf, 8)[0] if end >= _RECORD.size else 0)
                    if need <= len(buf) - _SLACK or pos + need > size:
                        self._cut(buf, end, pos)
                    buf = bytearray(need + _SLACK)
        table = PacketTable(*(np.concatenate(column) for column in zip(*parts)))
        self.total_frames, self.skipped = frames, frames - len(table)
        return table

    def _late_stamp(self, usec: int, offset: int) -> PcapDecodeError:
        return PcapDecodeError(
            f"{self.path}: ts_usec {usec} is not below 1000000 "
            f"in the packet header at byte {offset}"
        )

    def _decode(self, buf: bytearray, offsets: list[int], base: int):
        """The PacketTable columns of the whole records at ``offsets`` in
        ``buf``, which starts at file offset ``base``."""
        u8 = np.frombuffer(buf, np.uint8)
        at = np.array(offsets, dtype=np.intp)
        sec, usec, caplen, _ = u8[at[:, None] + _HEADER_BYTES].view(self._endian + "u4").T
        late = np.flatnonzero(usec >= 1_000_000)
        if late.size:
            raise self._late_stamp(usec[late[0]], base + offsets[late[0]])
        frame = at + _RECORD.size
        head = u8[frame[:, None] + _FRAME_BYTES]
        ver_ihl, tos, proto = head[:, _IP_AT], head[:, _IP_AT + 1], head[:, _IP_AT + 9]
        ihl = (ver_ihl & 0x0F).astype(np.intp) * 4
        total_length = head[:, _IP_AT + 2].astype(np.uint16) << 8 | head[:, _IP_AT + 3]
        tcp = proto == Proto.TCP
        keep = (
            (caplen >= _IP_AT + _IPV4.size)
            & (head[:, _IP_AT - 2] == _ETHERTYPE_IPV4[0]) & (head[:, _IP_AT - 1] == _ETHERTYPE_IPV4[1])
            & (ver_ihl >> 4 == 4) & (ihl >= 20) & (total_length >= ihl)
            & (tcp | (proto == Proto.UDP))
            # fragment offset or MF bit: no reassembly here
            & (head[:, _IP_AT + 6] & 0x3F == 0) & (head[:, _IP_AT + 7] == 0)
            # UDP needs its 8-byte header, TCP at least up to its flags byte (offset 13).
            & (caplen >= _IP_AT + ihl + np.where(tcp, 14, 8))
        )
        k = np.flatnonzero(keep)
        transport = frame[k] + _IP_AT + ihl[k]
        src_ip, dst_ip = np.ascontiguousarray(head[k, _IP_AT + 12 :]).view(">u4").astype(np.uint32).T
        src_port, dst_port = u8[transport[:, None] + _PORT_BYTES].view(">u2").astype(np.uint16).T
        return (
            sec[k].astype(np.int64) * 1_000_000 + usec[k],
            src_ip, dst_ip, src_port, dst_port, proto[k], total_length[k],
            np.where(tcp[k], u8[transport + 13], 0).astype(np.uint8), tos[k],
        )

    def _cut(self, buf: bytearray, left: int, offset: int):
        """Raise for the record that starts ``buf``, at file offset ``offset``,
        which the file ends ``left`` bytes into."""
        if left < _RECORD.size:
            raise PcapDecodeError(f"{self.path}: truncated packet header at byte {offset}")
        usec = self._u32(buf, 4)[0]
        if usec >= 1_000_000:
            raise self._late_stamp(usec, offset)
        raise PcapDecodeError(
            f"{self.path}: truncated packet data at byte {offset + _RECORD.size}"
        )


def read_pcap(path: str | Path) -> list[PacketRecord]:
    """Read every IPv4 TCP/UDP packet from a capture file."""
    return list(PcapReader(path))


def _refuse(bad: np.ndarray, name: str, values: np.ndarray, fault: str) -> None:
    """Raise a ContractError naming the first packet where ``bad`` holds."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(f"packet {i}: {name} {values[i]} {fault}")


def write_pcap(path: str | Path, packets) -> int:
    """Write a :class:`PacketTable` (or PacketRecords, converted once) as an
    Ethernet capture; returns the packet count.

    Each frame is its Ethernet, IPv4 and TCP or UDP headers and a zero
    payload out to the IP total length; transport checksums are left zero,
    as synthetic traces do not need them.  A packet the format cannot hold
    is refused before anything is written.
    """
    if not isinstance(packets, PacketTable):
        packets = PacketTable.from_records(packets)
    c = {}
    for name, top in _MAX_VALUE.items():
        column = np.asarray(getattr(packets, name))
        if column.dtype.kind not in "iu":
            raise ContractError(f"the {name} column holds {column.dtype}, not integers")
        c[name] = column = column.astype(np.int64)
        _refuse((column < 0) | (column > top), name, column, f"is outside 0..{top}")
    n, ts, length = len(packets), c["ts"], c["length"]
    tcp, udp = c["proto"] == Proto.TCP, c["proto"] == Proto.UDP
    _refuse(~tcp & ~udp, "proto", c["proto"], "is neither TCP (6) nor UDP (17)")
    _refuse(length < np.where(tcp, 40, 28), "length", length,
            "cannot hold its IPv4 and transport headers (40 bytes for TCP, 28 for UDP)")
    ip = pack_rows(_IPV4, n, 0x45, c["tos"], length, 0, 0, 64, c["proto"], 0, c["src_ip"], c["dst_ip"])
    words = ip.view(">u2")
    total = words.sum(axis=1, dtype=np.int64)  # RFC 1071 ones'-complement sum
    for _ in range(2):  # ten 16-bit words carry at most twice
        total = (total & 0xFFFF) + (total >> 16)
    words[:, 5] = ~total & 0xFFFF
    frame_len = _IP_AT + length
    heads = np.hstack((
        pack_rows(_RECORD, n, ts // 1_000_000, ts % 1_000_000, frame_len, frame_len),
        np.broadcast_to(np.frombuffer(_ETHERNET_HEADER, np.uint8), (n, _IP_AT)),
        ip,
    ))
    size = _RECORD.size + frame_len
    out = np.zeros(_GLOBAL_HEADER.size + size.sum(), np.uint8)
    out[: _GLOBAL_HEADER.size] = np.frombuffer(
        _GLOBAL_HEADER.pack(MAGIC_US, 2, 4, 0, 0, _SNAPLEN, LINKTYPE_ETHERNET), np.uint8
    )
    starts = _GLOBAL_HEADER.size + np.cumsum(size) - size
    transports = (
        (tcp, pack_rows(_TCP, tcp.sum(), c["src_port"][tcp], c["dst_port"][tcp], 0, 0, 5 << 4,
                        c["tcp_flags"][tcp], _SNAPLEN, 0, 0)),
        (udp, pack_rows(_UDP, udp.sum(), c["src_port"][udp], c["dst_port"][udp], length[udp] - 20, 0)),
    )
    for rows, transport in transports:  # no record is shorter than its headers
        rows, width = np.flatnonzero(rows), np.arange(heads.shape[1] + transport.shape[1])
        for lo in range(0, len(rows), _SCATTER_ROWS):
            at = rows[lo : lo + _SCATTER_ROWS]
            out[starts[at, None] + width] = np.hstack((heads[at], transport[lo : lo + _SCATTER_ROWS]))
    Path(path).write_bytes(out)
    return n
