"""Capture-file reading and writing against hand-built bytes."""

import random
from dataclasses import replace

import pytest

from flowident.errors import ContractError
from flowident.flow import PacketRecord, PacketTable, Proto
from flowident.ingest.pcap import (
    PcapDecodeError,
    PcapReader,
    UnsupportedFormatError,
    read_pcap,
    write_pcap,
)
from helpers import eth_ipv4_frame, ip, mk_packet, pcap_file, pcap_packet


def two_frame_file(endian):
    frames = [
        (1_000_000, eth_ipv4_frame(src="10.0.0.2", dst="10.0.0.1", proto=6,
                                   sport=5000, dport=80, total_length=60,
                                   flags=0x02, tos=0x10)),
        (2_500_123, eth_ipv4_frame(src="10.0.0.1", dst="10.0.0.2", proto=17,
                                   sport=53, dport=3333, total_length=75)),
    ]
    return pcap_file(frames, endian=endian)


def expected_two_packets():
    return [
        PacketRecord(ts=1_000_000, src_ip=ip("10.0.0.2"), dst_ip=ip("10.0.0.1"),
                     src_port=5000, dst_port=80, proto=Proto.TCP, length=60,
                     tcp_flags=0x02, tos=0x10),
        PacketRecord(ts=2_500_123, src_ip=ip("10.0.0.1"), dst_ip=ip("10.0.0.2"),
                     src_port=53, dst_port=3333, proto=Proto.UDP, length=75),
    ]


def test_read_little_endian(tmp_path):
    path = tmp_path / "le.pcap"
    path.write_bytes(two_frame_file("<"))
    assert read_pcap(path) == expected_two_packets()


def test_read_big_endian(tmp_path):
    path = tmp_path / "be.pcap"
    path.write_bytes(two_frame_file(">"))
    assert read_pcap(path) == expected_two_packets()


def test_byte_orders_decode_identically(tmp_path):
    a = tmp_path / "a.pcap"
    b = tmp_path / "b.pcap"
    a.write_bytes(two_frame_file("<"))
    b.write_bytes(two_frame_file(">"))
    assert read_pcap(a) == read_pcap(b)


@pytest.mark.parametrize("endian", ["<", ">"])
def test_nanosecond_magic_rejected(tmp_path, endian):
    path = tmp_path / "ns.pcap"
    path.write_bytes(pcap_file([], endian=endian, magic=0xA1B23C4D))
    with pytest.raises(UnsupportedFormatError, match="nanosecond"):
        read_pcap(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"this is not a capture file, honest!!")
    with pytest.raises(UnsupportedFormatError, match="not a pcap file") as exc_info:
        read_pcap(path)
    assert str(path) in str(exc_info.value)


def test_unsupported_link_type(tmp_path):
    path = tmp_path / "lo.pcap"
    path.write_bytes(pcap_file([], linktype=101))
    with pytest.raises(UnsupportedFormatError, match="link type 101"):
        read_pcap(path)


def test_truncated_global_header(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(b"\xd4\xc3\xb2\xa1\x02\x00")
    with pytest.raises(PcapDecodeError, match="truncated global header"):
        read_pcap(path)


def test_truncated_packet_header_names_offset(tmp_path):
    path = tmp_path / "trunc1.pcap"
    path.write_bytes(pcap_file([]) + b"\x00" * 8)
    with pytest.raises(PcapDecodeError, match="truncated packet header at byte 24"):
        read_pcap(path)


def test_truncated_packet_data_names_offset(tmp_path):
    path = tmp_path / "trunc2.pcap"
    frame = eth_ipv4_frame(total_length=60)
    record = pcap_packet(1_000_000, frame, incl_len=len(frame) + 50)
    path.write_bytes(pcap_file([]) + record)
    with pytest.raises(PcapDecodeError, match="truncated packet data at byte 40"):
        read_pcap(path)


def test_microseconds_past_one_second_name_offset(tmp_path):
    frame = eth_ipv4_frame(total_length=60)
    bad = (5).to_bytes(4, "little") + (3_500_000).to_bytes(4, "little")
    bad += len(frame).to_bytes(4, "little") * 2 + frame
    path = tmp_path / "usec.pcap"
    path.write_bytes(pcap_file([(1_999_999, frame)]) + bad)
    with pytest.raises(PcapDecodeError, match=rf"ts_usec 3500000 .* at byte {24 + 16 + len(frame)}"):
        read_pcap(path)
    path.write_bytes(pcap_file([(1_999_999, frame)]))
    assert [pkt.ts for pkt in read_pcap(path)] == [1_999_999]


def test_non_ip_and_malformed_frames_are_skipped(tmp_path):
    good = eth_ipv4_frame(total_length=60, flags=0x10)
    arp = eth_ipv4_frame(total_length=60, ethertype=0x0806)
    ipv6 = eth_ipv4_frame(total_length=60, ver_ihl=0x65)
    fragment = eth_ipv4_frame(total_length=60, frag=0x2000)
    icmp = eth_ipv4_frame(total_length=60, proto=1)
    short_tcp = eth_ipv4_frame(total_length=60, proto=6, transport=b"\x00" * 10)[:44]
    tiny = b"\x00" * 10  # shorter than an Ethernet header
    frames = [good, arp, ipv6, fragment, icmp, short_tcp, tiny]
    path = tmp_path / "mixed.pcap"
    path.write_bytes(pcap_file((1_000_000 + i, f) for i, f in enumerate(frames)))

    reader = PcapReader(path)
    packets = list(reader)
    assert len(packets) == 1
    assert packets[0].tcp_flags == 0x10
    assert reader.total_frames == 7
    assert reader.skipped == 6
    # iterating again must not double-count
    assert len(list(reader)) == 1
    assert reader.total_frames == 7
    assert reader.skipped == 6


def test_length_comes_from_ip_header_not_capture(tmp_path):
    # 30 bytes of trailing padding beyond the IP total length must not count
    frame = eth_ipv4_frame(total_length=80, proto=17) + bytes(30)
    path = tmp_path / "padded.pcap"
    path.write_bytes(pcap_file([(1, frame)]))
    [pkt] = read_pcap(path)
    assert pkt.length == 80


def test_writer_roundtrip(tmp_path):
    rnd = random.Random(42)
    packets = []
    ts = 1_700_000_000_000_000
    for i in range(120):
        ts += rnd.randint(0, 50_000)
        proto = Proto.TCP if rnd.random() < 0.5 else Proto.UDP
        packets.append(
            mk_packet(
                ts=ts,
                src=f"10.1.{rnd.randint(0, 9)}.{rnd.randint(1, 9)}",
                dst=f"10.2.{rnd.randint(0, 9)}.{rnd.randint(1, 9)}",
                sport=rnd.randint(1, 65535),
                dport=rnd.randint(1, 65535),
                proto=proto,
                length=rnd.randint(40 if proto is Proto.TCP else 28, 1500),
                flags=rnd.randint(0, 255) if proto is Proto.TCP else 0,
                tos=rnd.randint(0, 255),
            )
        )
    path = tmp_path / "rt.pcap"
    assert write_pcap(path, packets) == len(packets)
    assert read_pcap(path) == packets


def test_writer_emits_valid_ip_header(tmp_path):
    pkt = mk_packet(ts=7_000_042, length=48, flags=0x18, tos=3)
    path = tmp_path / "one.pcap"
    write_pcap(path, [pkt])
    data = path.read_bytes()
    assert data[:4] == (0xA1B2C3D4).to_bytes(4, "little")
    assert int.from_bytes(data[20:24], "little") == 1  # Ethernet link type
    frame = data[24 + 16:]
    assert len(frame) == 14 + 48
    assert frame[12:14] == b"\x08\x00"
    ip_header = frame[14:34]
    assert int.from_bytes(ip_header[2:4], "big") == 48
    assert ip_header[1] == 3
    assert ip_header[9] == 6
    # ones'-complement sum over the header, checksum included, must be 0xFFFF
    total = sum(int.from_bytes(ip_header[i:i + 2], "big") for i in range(0, 20, 2))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    assert total == 0xFFFF


def test_writer_rejects_length_below_headers():
    with pytest.raises(ContractError):
        write_pcap("/tmp/never-written.pcap", [mk_packet(length=30)])  # TCP needs 40


def test_writer_refuses_a_stamp_past_the_32_bit_seconds(tmp_path):
    path = tmp_path / "late.pcap"
    late = PacketRecord(2**32 * 10**6, 1, 2, 3, 4, Proto.UDP, 28)
    with pytest.raises(ContractError, match=r"^packet 1: ts 4294967296000000 is outside"):
        write_pcap(path, [mk_packet(), late])
    assert not path.exists()
    assert write_pcap(path, [PacketRecord(2**32 * 10**6 - 1, 1, 2, 3, 4, Proto.UDP, 28)]) == 1


def test_writer_refuses_a_table_value_its_field_cannot_hold(tmp_path):
    path = tmp_path / "long.pcap"
    table = PacketTable.from_records([mk_packet(), mk_packet(length=65535)])
    for name, value, message in [
        ("length", 70_000, r"^packet 1: length 70000 is outside 0\.\.65535"),
        ("src_port", 65536, r"^packet 1: src_port 65536 is outside 0\.\.65535"),
        ("proto", 1, r"^packet 1: proto 1 is neither TCP"),
        ("ts", -1, r"^packet 1: ts -1 is outside"),
    ]:
        column = getattr(table, name).copy()
        column[1] = value
        with pytest.raises(ContractError, match=message):
            write_pcap(path, replace(table, **{name: column}))
        assert not path.exists()


def test_packet_record_refuses_a_length_past_the_ipv4_field():
    with pytest.raises(ContractError, match="packet length 70000 is outside"):
        mk_packet(length=70_000)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pcap(tmp_path / "does-not-exist.pcap")
