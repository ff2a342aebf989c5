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

_ETHERTYPE_IPV4 = b"\x08\x00"
# Destination and source MAC, then the ethertype: what the writer puts
# before every IPv4 header, and where the reader looks for one.
_ETHERNET_HEADER = bytes.fromhex("020000000002" "020000000001") + _ETHERTYPE_IPV4
_IP_AT = len(_ETHERNET_HEADER)

# version/IHL, ToS, total length, id, flags/fragment offset, TTL, protocol,
# checksum, source, destination.
_IPV4 = struct.Struct("!BBHHHBBHII")
_PORTS = struct.Struct("!HH")
_PROTOS = {int(proto): proto for proto in Proto}

_GLOBAL_HEADER = struct.Struct("=IHHiIII")
_SNAPLEN = 65535


class PcapDecodeError(FormatError):
    """The file is recognisably pcap but its bytes are inconsistent."""


class UnsupportedFormatError(FormatError):
    """The file is not a classic microsecond Ethernet pcap."""


def _parse_frame(data: bytes, ts: int) -> PacketRecord | None:
    """Turn one captured Ethernet frame into a PacketRecord, or None to skip."""
    if len(data) < _IP_AT + _IPV4.size or data[_IP_AT - 2 : _IP_AT] != _ETHERTYPE_IPV4:
        return None
    ver_ihl, tos, total_length, _id, frag, _ttl, proto_num, _sum, src_ip, dst_ip = (
        _IPV4.unpack_from(data, _IP_AT)
    )
    ihl = (ver_ihl & 0x0F) * 4
    proto = _PROTOS.get(proto_num)
    if ver_ihl >> 4 != 4 or ihl < 20 or total_length < ihl or proto is None:
        return None
    if frag & 0x3FFF:  # fragment offset or MF bit: no reassembly here
        return None
    transport = _IP_AT + ihl
    # UDP needs its 8-byte header, TCP at least up to its flags byte (offset 13).
    if len(data) < transport + (14 if proto is Proto.TCP else 8):
        return None
    src_port, dst_port = _PORTS.unpack_from(data, transport)
    return PacketRecord(
        ts=ts,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        proto=proto,
        length=total_length,
        tcp_flags=data[transport + 13] if proto is Proto.TCP else 0,
        tos=tos,
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
