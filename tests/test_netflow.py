"""Export-datagram decoding and encoding against hand-built bytes."""

import random
import re

import pytest

from flowident.flow import FlowKey, FlowRecord, Proto
from flowident.ingest.netflow import (
    EncodingError,
    MalformedDatagramError,
    UnsupportedVersionError,
    decode_netflow_v5,
    encode_netflow_v5,
    read_netflow_file,
)
from helpers import ip, nf5_datagram, nf5_header, nf5_record


def test_decode_single_record_field_mapping():
    datagram = nf5_datagram(
        [
            nf5_record(src="10.0.0.2", dst="10.0.0.1", sport=5000, dport=80,
                       pkts=10, octets=4000, first=200, last=700,
                       flags=0x13, proto=6, tos=0x20)
        ],
        sys_uptime=1000,
        unix_secs=1_700_000_000,
        unix_nsecs=500_000_000,
    )
    # boot = wall clock minus uptime, in microseconds
    boot_us = 1_700_000_000 * 1_000_000 + 500_000_000 // 1000 - 1000 * 1000
    [flow] = decode_netflow_v5(datagram)
    assert flow == FlowRecord(
        key=FlowKey(ip("10.0.0.1"), 80, ip("10.0.0.2"), 5000, Proto.TCP),
        first_ts=boot_us + 200 * 1000,
        last_ts=boot_us + 700 * 1000,
        fwd_packets=10,
        fwd_bytes=4000,
        bwd_packets=0,
        bwd_bytes=0,
        tcp_flags_fwd=0x13,
        tcp_flags_bwd=0,
        tos=0x20,
        complete=True,       # SYN and FIN both present in 0x13
        initiator_lo=False,  # traffic came from the higher endpoint
    )


def test_decode_merges_reciprocal_records():
    datagram = nf5_datagram(
        [
            nf5_record(src="10.0.0.2", dst="10.0.0.1", sport=5000, dport=80,
                       pkts=3, octets=180, first=100, last=400,
                       flags=0x02, proto=6, tos=0x04),
            nf5_record(src="10.0.0.1", dst="10.0.0.2", sport=80, dport=5000,
                       pkts=2, octets=120, first=150, last=450,
                       flags=0x11, proto=6, tos=0x10),
        ],
        sys_uptime=450,
        unix_secs=1_700_000_000,
    )
    [flow] = decode_netflow_v5(datagram)
    boot_us = 1_700_000_000 * 1_000_000 - 450 * 1000  # wall clock minus uptime
    assert flow.fwd_packets == 3 and flow.fwd_bytes == 180
    assert flow.bwd_packets == 2 and flow.bwd_bytes == 120
    assert flow.tcp_flags_fwd == 0x02 and flow.tcp_flags_bwd == 0x11
    assert flow.first_ts == boot_us + 100 * 1000  # min over both records
    assert flow.last_ts == boot_us + 450 * 1000   # max over both records
    assert flow.tos == 0x14                       # OR of both directions
    assert flow.complete is True                  # SYN fwd + FIN bwd
    assert flow.initiator_lo is False             # first record came from hi


def test_decode_same_direction_records_do_not_merge():
    record = nf5_record(pkts=1, octets=40, proto=17)
    flows = decode_netflow_v5(nf5_datagram([record, record]))
    assert len(flows) == 2


def test_decode_version_and_shape_errors():
    good = nf5_record()
    with pytest.raises(UnsupportedVersionError, match="got 9"):
        decode_netflow_v5(nf5_datagram([good], version=9))
    with pytest.raises(MalformedDatagramError, match="too short"):
        decode_netflow_v5(b"\x00\x05\x00")
    with pytest.raises(MalformedDatagramError, match=r"count 0"):
        decode_netflow_v5(nf5_datagram([]))
    with pytest.raises(MalformedDatagramError, match=r"count 31"):
        decode_netflow_v5(nf5_datagram([good] * 31))
    with pytest.raises(MalformedDatagramError, match="length mismatch"):
        decode_netflow_v5(nf5_datagram([good]) + b"\x00")


@pytest.mark.parametrize(
    "record, message",
    [
        (nf5_record(proto=1), "record 1: unsupported protocol 1"),
        (nf5_record(pkts=0, octets=40), "record 1: zero packet count"),
        (nf5_record(pkts=3, octets=59), "record 1: byte count below IP minimum"),
        (nf5_record(first=500, last=100, octets=40), "record 1: flow ends before it starts"),
        (nf5_record(proto=17, flags=0x12), "record 1: UDP record carries TCP flags 0x12"),
    ],
)
def test_decode_record_errors_name_the_record(record, message):
    datagram = nf5_datagram([nf5_record(octets=40), record],
                            sys_uptime=500, unix_secs=1_700_000_000)
    with pytest.raises(MalformedDatagramError, match=message):
        decode_netflow_v5(datagram)


EXPORT_US = 1_700_000_000 * 1_000_000
WRAP_MS = 1 << 32


def test_records_taken_before_the_uptime_wrap_are_moved_back():
    # Exported 2 s after the 32-bit millisecond uptime wrapped; the first
    # record ran from 3 s to 1 s before the wrap, its reply straddles it.
    datagram = nf5_datagram(
        [
            nf5_record(first=WRAP_MS - 3000, last=WRAP_MS - 1000),
            nf5_record(src="10.0.0.1", dst="10.0.0.2", sport=80, dport=5000,
                       first=WRAP_MS - 1000, last=500),
        ],
        sys_uptime=2000,
        unix_secs=1_700_000_000,
    )
    [flow] = decode_netflow_v5(datagram)
    assert flow.first_ts == EXPORT_US - 5_000_000
    assert flow.last_ts == EXPORT_US - 1_500_000
    assert (flow.fwd_packets, flow.bwd_packets) == (1, 1)


@pytest.mark.parametrize("uptime_ms, offset_ms", [
    ((1 << 31) + 1, (1 << 31) + 1 - WRAP_MS),  # further ahead than half: before the wrap
])
def test_only_a_lead_past_half_the_counter_counts_as_wrapped(uptime_ms, offset_ms):
    datagram = nf5_datagram([nf5_record(first=uptime_ms, last=uptime_ms)],
                            unix_secs=1_700_000_000)
    [flow] = decode_netflow_v5(datagram)
    assert flow.first_ts == EXPORT_US + offset_ms * 1000


@pytest.mark.parametrize("first, last, stamp", [
    (1001, 1001, 1001),                          # 1 ms after the export
    (900, 1001, 1001),                           # the flow ends after the export
    ((1 << 31) + 1000, (1 << 31) + 1000, (1 << 31) + 1000),  # half the counter ahead
])
def test_record_stamped_after_its_export_is_refused(first, last, stamp):
    at_export = nf5_record(first=1000, last=1000)  # record 0 ends at the export time: kept
    datagram = nf5_datagram([at_export, nf5_record(first=first, last=last)],
                            sys_uptime=1000, unix_secs=1_700_000_000)
    want = f"record 1: uptime {stamp} ms is after the export uptime 1000 ms"
    with pytest.raises(MalformedDatagramError, match=re.escape(want)):
        decode_netflow_v5(datagram)


@pytest.mark.parametrize("header, first", [
    (dict(unix_secs=0, sys_uptime=5000), 0),
    (dict(unix_secs=2, sys_uptime=2000), WRAP_MS - 3000),
])
def test_record_starting_before_the_epoch_is_refused(header, first):
    at_export = header["sys_uptime"]  # record 0 starts at the export time: not refused
    datagram = nf5_datagram(
        [nf5_record(first=at_export, last=at_export), nf5_record(first=first, last=first)],
        **header,
    )
    with pytest.raises(MalformedDatagramError, match="record 1: flow starts before the Unix epoch"):
        decode_netflow_v5(datagram)


def sample_flow(**overrides):
    fields = dict(
        key=FlowKey(ip("10.0.0.1"), 80, ip("10.0.0.2"), 5000, Proto.TCP),
        first_ts=1_700_000_000_123_000,
        last_ts=1_700_000_004_500_000,
        fwd_packets=7,
        fwd_bytes=900,
        bwd_packets=4,
        bwd_bytes=480,
        tcp_flags_fwd=0x1B,
        tcp_flags_bwd=0x12,
        tos=0x08,
        complete=True,
        initiator_lo=False,
    )
    fields.update(overrides)
    return FlowRecord(**fields)


def test_encode_single_bidirectional_flow_bytes():
    flow = sample_flow()
    [datagram] = encode_netflow_v5([flow])
    assert datagram[0:2] == b"\x00\x05"                      # version constant
    assert int.from_bytes(datagram[2:4], "big") == 2         # two records
    sys_uptime = int.from_bytes(datagram[4:8], "big")
    unix_secs = int.from_bytes(datagram[8:12], "big")
    unix_nsecs = int.from_bytes(datagram[12:16], "big")
    assert int.from_bytes(datagram[16:20], "big") == 0       # sequence start
    # export clock = ceil-ms of the last timestamp
    export_us = unix_secs * 1_000_000 + unix_nsecs // 1000
    assert export_us == 1_700_000_004_500_000
    boot_us = export_us - sys_uptime * 1000
    assert boot_us == 1_700_000_000_123_000                  # floor-ms of first

    fwd = datagram[24:72]
    bwd = datagram[72:120]
    # initiator_lo is False: the source of the forward record is the high end
    assert int.from_bytes(fwd[0:4], "big") == ip("10.0.0.2")
    assert int.from_bytes(fwd[4:8], "big") == ip("10.0.0.1")
    assert int.from_bytes(fwd[16:20], "big") == 7            # packets
    assert int.from_bytes(fwd[20:24], "big") == 900          # octets
    assert int.from_bytes(fwd[24:28], "big") == 0            # first offset ms
    assert int.from_bytes(fwd[28:32], "big") == (flow.last_ts - boot_us) // 1000
    assert int.from_bytes(fwd[32:34], "big") == 5000
    assert int.from_bytes(fwd[34:36], "big") == 80
    assert fwd[37] == 0x1B and fwd[38] == 6 and fwd[39] == 0x08
    assert int.from_bytes(bwd[0:4], "big") == ip("10.0.0.1")
    assert int.from_bytes(bwd[16:20], "big") == 4
    assert bwd[37] == 0x12


def test_encode_empty_list():
    assert encode_netflow_v5([]) == []


def test_encode_chunks_at_thirty_with_continuous_sequence():
    flows = [
        sample_flow(
            key=FlowKey(ip("10.0.0.1"), 1000 + i, ip("10.0.0.2"), 2000, Proto.UDP),
            tcp_flags_fwd=0, tcp_flags_bwd=0, bwd_packets=0, bwd_bytes=0,
            complete=False, initiator_lo=True,
        )
        for i in range(31)
    ]
    datagrams = encode_netflow_v5(flows)
    assert len(datagrams) == 2
    assert int.from_bytes(datagrams[0][2:4], "big") == 30
    assert int.from_bytes(datagrams[1][2:4], "big") == 1
    assert int.from_bytes(datagrams[0][16:20], "big") == 0
    assert int.from_bytes(datagrams[1][16:20], "big") == 30


def test_encode_counter_overflow():
    flow = sample_flow(fwd_packets=2**32, fwd_bytes=20 * 2**32,
                       bwd_packets=0, bwd_bytes=0, complete=False)
    with pytest.raises(EncodingError, match="exceeds 32 bits"):
        encode_netflow_v5([flow])


def test_encode_span_overflow():
    flow = sample_flow(first_ts=0, last_ts=2**33 * 1000, bwd_packets=0,
                       bwd_bytes=0, complete=False, initiator_lo=True)
    with pytest.raises(EncodingError, match="uptime"):
        encode_netflow_v5([flow])


def test_encode_refuses_a_flow_stamped_before_the_epoch():
    flows = [sample_flow(), sample_flow(first_ts=-5000, last_ts=10_000)]
    with pytest.raises(EncodingError, match=re.escape("flow 1: first_ts -5000 is before the Unix epoch")):
        encode_netflow_v5(flows)


LAST_EXPORT_US = 2**32 * 1_000_000 - 1000  # its ceil-ms is still below second 2**32


@pytest.mark.parametrize("last_ts", [LAST_EXPORT_US + 1, 2**32 * 1_000_000])
def test_encode_refuses_an_export_second_past_32_bits(last_ts):
    flows = [sample_flow(first_ts=last_ts - 5000, last_ts=last_ts - 4000),
             sample_flow(first_ts=last_ts - 1000, last_ts=last_ts)]
    want = f"flow 1: last_ts {last_ts} is past the 32-bit export seconds"
    with pytest.raises(EncodingError, match=re.escape(want)):
        encode_netflow_v5(flows)


def test_encode_keeps_the_last_export_second():
    flow = sample_flow(first_ts=LAST_EXPORT_US - 5000, last_ts=LAST_EXPORT_US)
    [datagram] = encode_netflow_v5([flow])
    assert int.from_bytes(datagram[8:12], "big") == 2**32 - 1
    assert decode_netflow_v5(datagram) == [sample_flow(first_ts=LAST_EXPORT_US - 5000,
                                                       last_ts=LAST_EXPORT_US)]


def random_unidirectional_flows(count, seed=0):
    rnd = random.Random(seed)
    flows = []
    base_ms = 1_700_000_000_000
    for i in range(count):
        proto = Proto.TCP if rnd.random() < 0.5 else Proto.UDP
        flags = rnd.randint(0, 255) if proto is Proto.TCP else 0
        pkts = rnd.randint(1, 10_000)
        first_ms = base_ms + rnd.randint(0, 3_600_000)
        flows.append(
            FlowRecord(
                key=FlowKey(ip("10.0.0.1") + i, rnd.randint(0, 65535),
                            ip("172.16.0.1"), rnd.randint(0, 65535), proto),
                first_ts=first_ms * 1000,
                last_ts=(first_ms + rnd.randint(0, 600_000)) * 1000,
                fwd_packets=pkts,
                fwd_bytes=pkts * rnd.randint(20, 1500),
                bwd_packets=0,
                bwd_bytes=0,
                tcp_flags_fwd=flags,
                tcp_flags_bwd=0,
                tos=rnd.randint(0, 255),
                complete=proto is Proto.TCP and bool(flags & 0x02) and bool(flags & 0x01),
                initiator_lo=rnd.random() < 0.5,
            )
        )
    return flows


def test_unidirectional_roundtrip_through_file(tmp_path):
    flows = random_unidirectional_flows(200, seed=5)
    path = tmp_path / "export.bin"
    path.write_bytes(b"".join(encode_netflow_v5(flows)))
    assert read_netflow_file(path) == flows


def test_bidirectional_roundtrip_within_one_datagram():
    flows = [sample_flow(), sample_flow(
        key=FlowKey(ip("10.0.0.5"), 1, ip("10.0.0.6"), 2, Proto.UDP),
        tcp_flags_fwd=0, tcp_flags_bwd=0, complete=False, initiator_lo=True,
    )]
    [datagram] = encode_netflow_v5(flows)
    assert decode_netflow_v5(datagram) == flows


def test_reciprocal_pair_split_across_datagrams_stays_unidirectional(tmp_path):
    """Merging is scoped to one datagram: reciprocal records in two datagrams
    of one file decode as two unidirectional flows."""
    forward = nf5_record(src="10.0.0.2", dst="10.0.0.1", sport=5000, dport=80,
                         pkts=3, octets=180, first=100, last=400, flags=0x02)
    backward = nf5_record(src="10.0.0.1", dst="10.0.0.2", sport=80, dport=5000,
                          pkts=2, octets=120, first=150, last=450, flags=0x11)
    header = dict(sys_uptime=450, unix_secs=1_700_000_000)
    path = tmp_path / "split.bin"
    path.write_bytes(nf5_datagram([forward], **header) + nf5_datagram([backward], seq=1, **header))
    decoded = read_netflow_file(path)
    assert [(f.fwd_packets, f.bwd_packets) for f in decoded] == [(3, 0), (2, 0)]
    assert decoded == [f for d in (forward, backward) for f in decode_netflow_v5(nf5_datagram([d], **header))]
    [merged] = decode_netflow_v5(nf5_datagram([forward, backward], **header))
    assert (merged.fwd_packets, merged.bwd_packets) == (3, 2)


def test_encoder_keeps_a_pair_at_the_30_record_boundary_in_one_datagram():
    """One lone flow then 15 pairs is 31 records; a 30-record cut would split
    the last pair, so the first datagram ends a record early."""
    lone = sample_flow(
        key=FlowKey(ip("10.0.0.9"), 9, ip("10.0.0.10"), 10, Proto.TCP),
        bwd_packets=0, bwd_bytes=0, tcp_flags_bwd=0, initiator_lo=True,
    )
    pairs = [
        sample_flow(
            key=FlowKey(ip("10.0.0.1"), 1000 + i, ip("10.0.0.2"), 2000, Proto.TCP),
        )
        for i in range(15)
    ]
    flows = [lone] + pairs
    datagrams = encode_netflow_v5(flows)
    assert [int.from_bytes(d[2:4], "big") for d in datagrams] == [29, 2]
    assert [int.from_bytes(d[16:20], "big") for d in datagrams] == [0, 29]  # flow_sequence
    assert [f for d in datagrams for f in decode_netflow_v5(d)] == flows


def test_read_netflow_file_concatenated_and_truncated(tmp_path):
    flows = random_unidirectional_flows(3, seed=9)
    datagrams = encode_netflow_v5(flows[:2]) + encode_netflow_v5(flows[2:])
    path = tmp_path / "two.bin"
    path.write_bytes(b"".join(datagrams))
    assert len(read_netflow_file(path)) == 3

    bad = tmp_path / "cut.bin"
    bad.write_bytes(b"".join(datagrams)[:-10])
    with pytest.raises(MalformedDatagramError, match="truncated"):
        read_netflow_file(bad)


def test_read_netflow_file_names_the_datagram_of_a_decode_error(tmp_path):
    first = nf5_datagram([nf5_record(), nf5_record(sport=5001)])
    path = tmp_path / "export.bin"
    path.write_bytes(first + nf5_datagram([nf5_record(pkts=0)]))
    want = f"{path}: datagram at byte {len(first)}: record 0: zero packet count"
    with pytest.raises(MalformedDatagramError, match=re.escape(want)):
        read_netflow_file(path)
    path.write_bytes(first + nf5_datagram([nf5_record()], version=9))
    with pytest.raises(UnsupportedVersionError, match=re.escape(f"byte {len(first)}: expected")):
        read_netflow_file(path)


def test_read_netflow_file_reports_a_bad_record_before_a_later_truncated_datagram(tmp_path):
    good = nf5_datagram([nf5_record(), nf5_record(sport=5001)])
    bad = nf5_datagram([nf5_record(), nf5_record(proto=1)])
    path = tmp_path / "export.bin"
    path.write_bytes(good + bad + good + good[:-1])
    want = f"{path}: datagram at byte {len(good)}: record 1: unsupported protocol 1"
    with pytest.raises(MalformedDatagramError, match=re.escape(want)):
        read_netflow_file(path)
    path.write_bytes(good + good + good + good[:-1])
    with pytest.raises(MalformedDatagramError,
                       match=re.escape(f"{path}: truncated datagram at byte {3 * len(good)}")):
        read_netflow_file(path)


@pytest.mark.parametrize("header, error, message", [
    (nf5_header(count=0), MalformedDatagramError, "record count 0 outside [1, 30]"),
    (nf5_header(count=31), MalformedDatagramError, "record count 31 outside [1, 30]"),
    # A NetFlow v9 export starts with version 9 where v5 has it.
    (nf5_header(count=3, version=9), UnsupportedVersionError, "expected version 5, got 9"),
], ids=["count-0", "count-31", "version-9"])
def test_read_netflow_table_checks_a_complete_header_before_its_length(tmp_path, header, error,
                                                                       message):
    """A complete header's fault names its datagram's byte, as decode_netflow_v5
    does; "truncated" is left for bytes that are missing."""
    good = nf5_datagram([nf5_record()])
    path = tmp_path / "export.bin"
    path.write_bytes(good + header)
    with pytest.raises(error, match=re.escape(f"{path}: datagram at byte {len(good)}: {message}")):
        read_netflow_file(path)
    with pytest.raises(error, match=re.escape(message)):
        decode_netflow_v5(header)
    path.write_bytes(good + nf5_datagram([nf5_record()] * 2)[:-1])
    with pytest.raises(MalformedDatagramError,
                       match=re.escape(f"{path}: truncated datagram at byte {len(good)}")):
        read_netflow_file(path)
