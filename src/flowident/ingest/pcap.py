"""Classic pcap reading and writing.

Only the original tcpdump format is handled: microsecond magic, either byte
order, Ethernet link type.  Frames that are not IPv4 TCP/UDP (ARP, IPv6,
VLAN-tagged, fragments, ...) are counted and skipped instead of failing the
whole file.
"""

from __future__ import annotations

import struct
from pathlib import Path

from ..errors import ContractError, FormatError
from ..flow import PacketRecord, Proto

MAGIC_US = 0xA1B2C3D4
MAGIC_US_SWAPPED = 0xD4C3B2A1
_MAGIC_NS = (0xA1B23C4D, 0x4D3CB2A1)

LINKTYPE_ETHERNET = 1

_ETHERTYPE_IPV4 = 0x0800

_GLOBAL_HEADER = struct.Struct("=IHHiIII")
_SNAPLEN = 65535


class PcapDecodeError(FormatError):
    """The file is recognisably pcap but its bytes are inconsistent."""


class UnsupportedFormatError(FormatError):
    """The file is not a classic microsecond Ethernet pcap."""


def _parse_frame(data: bytes, ts: int) -> PacketRecord | None:
    """Turn one captured Ethernet frame into a PacketRecord, or None to skip."""
    if len(data) < 14:
        return None
    ethertype = int.from_bytes(data[12:14], "big")
    if ethertype != _ETHERTYPE_IPV4:
        return None
    ip = data[14:]
    if len(ip) < 20:
        return None
    version = ip[0] >> 4
    ihl = (ip[0] & 0x0F) * 4
    if version != 4 or ihl < 20 or len(ip) < ihl:
        return None
    total_length = int.from_bytes(ip[2:4], "big")
    if total_length < ihl:
        return None
    frag = int.from_bytes(ip[6:8], "big")
    if frag & 0x3FFF:  # fragment offset or MF bit: no reassembly here
        return None
    proto_num = ip[9]
    if proto_num not in (Proto.TCP, Proto.UDP):
        return None
    transport = ip[ihl:]
    tcp_flags = 0
    if proto_num == Proto.TCP:
        if len(transport) < 14:  # need the flags byte at offset 13
            return None
        tcp_flags = transport[13]
    else:
        if len(transport) < 8:
            return None
    return PacketRecord(
        ts=ts,
        src_ip=int.from_bytes(ip[12:16], "big"),
        dst_ip=int.from_bytes(ip[16:20], "big"),
        src_port=int.from_bytes(transport[0:2], "big"),
        dst_port=int.from_bytes(transport[2:4], "big"),
        proto=Proto(proto_num),
        length=total_length,
        tcp_flags=tcp_flags,
        tos=ip[1],
    )


class PcapReader:
    """Iterates PacketRecords out of a capture file.

    After iteration, ``total_frames`` and ``skipped`` describe what was read:
    yielded packets plus skipped frames always add up to ``total_frames``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.total_frames = 0
        self.skipped = 0
        self._data = self.path.read_bytes()
        if len(self._data) < _GLOBAL_HEADER.size:
            raise PcapDecodeError(f"{self.path}: truncated global header")
        magic = int.from_bytes(self._data[:4], "little")
        if magic == MAGIC_US:
            self._endian = "<"
        elif magic == MAGIC_US_SWAPPED:
            self._endian = ">"
        elif magic in _MAGIC_NS or int.from_bytes(self._data[:4], "big") in _MAGIC_NS:
            raise UnsupportedFormatError(
                f"{self.path}: nanosecond pcap is not supported"
            )
        else:
            raise UnsupportedFormatError(f"{self.path}: not a pcap file")
        header = struct.unpack(self._endian + "IHHiIII", self._data[:24])
        self.link_type = header[6]
        if self.link_type != LINKTYPE_ETHERNET:
            raise UnsupportedFormatError(
                f"{self.path}: unsupported link type {self.link_type}"
            )

    def __iter__(self):
        self.total_frames = 0
        self.skipped = 0
        record = struct.Struct(self._endian + "IIII")
        offset = 24
        data = self._data
        while offset < len(data):
            if offset + 16 > len(data):
                raise PcapDecodeError(
                    f"{self.path}: truncated packet header at byte {offset}"
                )
            ts_sec, ts_usec, incl_len, _orig_len = record.unpack_from(data, offset)
            if ts_usec >= 1_000_000:
                raise PcapDecodeError(
                    f"{self.path}: ts_usec {ts_usec} is not below 1000000 "
                    f"in the packet header at byte {offset}"
                )
            offset += 16
            if offset + incl_len > len(data):
                raise PcapDecodeError(
                    f"{self.path}: truncated packet data at byte {offset}"
                )
            frame = data[offset : offset + incl_len]
            offset += incl_len
            self.total_frames += 1
            pkt = _parse_frame(frame, ts_sec * 1_000_000 + ts_usec)
            if pkt is None:
                self.skipped += 1
            else:
                yield pkt


def read_pcap(path: str | Path) -> list[PacketRecord]:
    """Read every IPv4 TCP/UDP packet from a capture file."""
    return list(PcapReader(path))


def _checksum(header: bytes) -> int:
    # RFC 1071 ones'-complement sum over 16-bit words.
    total = 0
    for i in range(0, len(header), 2):
        total += int.from_bytes(header[i : i + 2], "big")
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
    ip_header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,
        pkt.tos,
        pkt.length,
        0,
        0,
        64,
        int(pkt.proto),
        0,
        pkt.src_ip.to_bytes(4, "big"),
        pkt.dst_ip.to_bytes(4, "big"),
    )
    ip_header = ip_header[:10] + _checksum(ip_header).to_bytes(2, "big") + ip_header[12:]
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
    ethernet = bytes.fromhex("020000000002") + bytes.fromhex("020000000001")
    ethernet += _ETHERTYPE_IPV4.to_bytes(2, "big")
    return ethernet + ip_header + transport + bytes(payload_len)


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
