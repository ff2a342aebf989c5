"""Classic pcap reading and writing.

Only the original tcpdump format is handled: microsecond magic, either byte
order, Ethernet link type.  Frames that are not IPv4 TCP/UDP (ARP, IPv6,
VLAN-tagged, fragments, ...) are counted and skipped instead of failing the
whole file.

The reader reads the file in fixed windows.  A walk over the record headers
finds each record; NumPy gathers then read the header and frame fields of a
whole window at once into the columns of a :class:`PacketTable`.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ..errors import ContractError, FormatError
from ..flow import PacketRecord, PacketTable, Proto

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

_GLOBAL_HEADER = struct.Struct("=IHHiIII")
_RECORD_HEADER = 16  # ts_sec, ts_usec, incl_len, orig_len
_SNAPLEN = 65535

# Bytes read per window; a record longer than this gets a window of its own.
_WINDOW = 1 << 21
# Gathers past a short frame's end land here instead of past the buffer:
# they reach at most 87 bytes into a frame (TCP flags after a 60-byte IPv4
# header).
_SLACK = 128
# Byte offsets gathered from each record: its header, the Ethernet and fixed
# IPv4 headers of its frame, and the ports of the transport header.
_HEADER_BYTES = np.arange(_RECORD_HEADER)
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
        return iter(self.table().records())

    def table(self) -> PacketTable:
        """Every IPv4 TCP/UDP packet of the file, in file order."""
        u32 = self._u32
        parts, frames = [], 0
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            fh.seek(_GLOBAL_HEADER.size)
            buf = bytearray(_WINDOW + _SLACK)
            base, carry = _GLOBAL_HEADER.size, 0  # file offset of buf[0]; bytes kept at its start
            while True:
                got = fh.readinto(memoryview(buf)[carry : len(buf) - _SLACK])
                end = carry + got
                if not got:  # the file ended early: read what there is
                    size = base + end
                offsets, at = [], 0
                while at + _RECORD_HEADER <= end:
                    after = at + _RECORD_HEADER + u32(buf, at + 8)[0]
                    if after > end:
                        break
                    offsets.append(at)
                    at = after
                parts.append(self._decode(buf, offsets, base))
                frames += len(offsets)
                left = end - at
                need = _RECORD_HEADER + (u32(buf, at + 8)[0] if left >= _RECORD_HEADER else 0)
                if base + end >= size or base + at + need > size:
                    if base + at < size:
                        self._cut(buf, at, size - base - at, base)
                    break
                if need > len(buf) - _SLACK:
                    grown = bytearray(need + _SLACK)
                    grown[:left] = buf[at:end]
                    buf = grown
                else:
                    buf[:left] = buf[at:end]
                base, carry = base + at, left
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
        frame = at + _RECORD_HEADER
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

    def _cut(self, buf: bytearray, at: int, left: int, base: int):
        """Raise for the record at ``buf[at:]``, which the file ends inside,
        ``left`` bytes after its start."""
        offset = base + at
        if left < _RECORD_HEADER:
            raise PcapDecodeError(f"{self.path}: truncated packet header at byte {offset}")
        usec = self._u32(buf, at + 4)[0]
        if usec >= 1_000_000:
            raise self._late_stamp(usec, offset)
        raise PcapDecodeError(
            f"{self.path}: truncated packet data at byte {offset + _RECORD_HEADER}"
        )


def read_pcap(path: str | Path) -> list[PacketRecord]:
    """Read every IPv4 TCP/UDP packet from a capture file."""
    return list(PcapReader(path))


def _checksum(header: bytes) -> int:
    # RFC 1071 ones'-complement sum over 16-bit words.
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _build_frame(pkt: PacketRecord) -> bytes:
    transport_min = 20 if pkt.proto is Proto.TCP else 8
    payload_len = pkt.length - 20 - transport_min
    if payload_len < 0:
        raise ContractError(
            f"packet length {pkt.length} cannot hold a {pkt.proto.name} header"
        )
    ip_header = bytearray(
        _IPV4.pack(0x45, pkt.tos, pkt.length, 0, 0, 64, pkt.proto, 0, pkt.src_ip, pkt.dst_ip)
    )
    ip_header[10:12] = _checksum(ip_header).to_bytes(2, "big")
    if pkt.proto is Proto.TCP:
        transport = struct.pack(
            "!HHIIBBHHH",
            pkt.src_port,
            pkt.dst_port,
            0,
            0,
            5 << 4,
            pkt.tcp_flags,
            _SNAPLEN,
            0,
            0,
        )
    else:
        transport = struct.pack("!HHHH", pkt.src_port, pkt.dst_port, 8 + payload_len, 0)
    return _ETHERNET_HEADER + ip_header + transport + bytes(payload_len)


def write_pcap(path: str | Path, packets) -> int:
    """Write PacketRecords as an Ethernet capture; returns the packet count.

    Transport checksums are left zero; synthetic traces do not need them.
    """
    out = bytearray(_GLOBAL_HEADER.pack(MAGIC_US, 2, 4, 0, 0, _SNAPLEN, LINKTYPE_ETHERNET))
    count = 0
    for pkt in packets:
        frame = _build_frame(pkt)
        out += struct.pack(
            "=IIII", pkt.ts // 1_000_000, pkt.ts % 1_000_000, len(frame), len(frame)
        )
        out += frame
        count += 1
    Path(path).write_bytes(bytes(out))
    return count
