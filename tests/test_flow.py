"""Packet records, canonical keys, and flow aggregation."""

import dataclasses
import ipaddress
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowident.errors import ContractError
from flowident.flow import (
    FlowAggregator,
    FlowKey,
    FlowRecord,
    FlowTable,
    PacketRecord,
    PacketTable,
    Proto,
    aggregate,
    aggregate_table,
    canonical_columns,
    ip_to_str,
    str_to_ip,
)
from flowident.ingest.pcap import PcapReader, write_pcap
from helpers import Direction, canonical_endpoints, ip, mk_packet


def test_ip_string_conversions():
    assert str_to_ip("10.0.0.1") == (10 << 24) + 1
    assert ip_to_str((192 << 24) | (168 << 16) | 5) == "192.168.0.5"
    assert str_to_ip(ip_to_str(0xFFFFFFFF)) == 0xFFFFFFFF


@given(st.integers(0, 2**32 - 1))
def test_ip_to_str_writes_the_dotted_quad_of_ipaddress(value):
    assert ip_to_str(value) == str(ipaddress.IPv4Address(value))


@pytest.mark.parametrize("value", [-1, 2**32, 2**64])
def test_ip_to_str_refuses_values_outside_32_bits(value):
    with pytest.raises(ValueError, match=r"is not an IPv4 address: it is outside 0\.\.2\*\*32-1"):
        ip_to_str(value)


def canonical_rows(endpoints):
    """:func:`canonical_columns` over (ip_a, port_a, ip_b, port_b, proto) rows:
    each row's FlowKey, whether it travels forward, and its packed sort key."""
    columns = np.array(endpoints, dtype=np.int64).reshape(-1, 5).T
    key, forward, (low, high) = canonical_columns(*columns)
    keys = [FlowKey(*parts[:4], Proto(parts[4])) for parts in zip(*(c.tolist() for c in key))]
    return keys, forward.tolist(), list(zip(low.tolist(), high.tolist()))


def test_canonical_key_orders_by_ip():
    a, b = (ip("10.0.0.2"), 5000), (ip("10.0.0.1"), 80)
    keys, forward, _ = canonical_rows([(*a, *b, 6), (*b, *a, 6)])
    assert keys == [FlowKey(ip("10.0.0.1"), 80, ip("10.0.0.2"), 5000, Proto.TCP)] * 2
    assert forward == [False, True]


def test_canonical_key_port_tiebreak():
    keys, forward, _ = canonical_rows([(ip("10.0.0.1"), 9, ip("10.0.0.1"), 7, 17)])
    assert (keys[0].port_lo, keys[0].port_hi) == (7, 9)
    assert forward == [False]


ips = st.one_of(st.sampled_from([0, 1, ip("10.0.0.1"), ip("10.0.0.2"), 0xFFFFFFFF]),
                st.integers(min_value=0, max_value=0xFFFFFFFF))
ports = st.one_of(st.sampled_from([0, 1, 80, 65535]), st.integers(min_value=0, max_value=65535))
endpoint_rows = st.lists(st.tuples(ips, ports, ips, ports, st.sampled_from([6, 17])), max_size=40)


@given(endpoint_rows)
def test_canonical_columns_equal_the_per_packet_oracle(rows):
    """Each row and its reverse get the oracle's key and direction, and the
    packed keys sort as :meth:`FlowKey.sort_tuple` does."""
    both = rows + [(ip_b, port_b, ip_a, port_a, proto) for ip_a, port_a, ip_b, port_b, proto in rows]
    keys, forward, packed = canonical_rows(both)
    want = [canonical_endpoints(ip_a, port_a, ip_b, port_b, Proto(proto))
            for ip_a, port_a, ip_b, port_b, proto in both]
    assert keys == [key for key, _ in want]
    assert keys[:len(rows)] == keys[len(rows):]
    assert forward == [direction is Direction.FORWARD for _, direction in want]
    order = range(len(both))
    assert sorted(order, key=packed.__getitem__) == sorted(order, key=lambda i: keys[i].sort_tuple())


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(src_ip=-1),
        dict(src_ip=2**32),
        dict(dst_ip=2**32),
        dict(src_port=-1),
        dict(dst_port=65536),
        dict(length=19),
        dict(tcp_flags=256),
        dict(tcp_flags=-1),
        dict(tos=256),
    ],
)
def test_packet_validation(kwargs):
    base = dict(
        ts=0, src_ip=1, dst_ip=2, src_port=1, dst_port=2,
        proto=Proto.TCP, length=40, tcp_flags=0, tos=0,
    )
    base.update(kwargs)
    with pytest.raises(ContractError):
        PacketRecord(**base)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("ip_lo", -1, "IP addresses must be unsigned 32-bit values"),
        ("ip_hi", 2**32, "IP addresses must be unsigned 32-bit values"),
        ("port_lo", -1, "ports must be in"),
        ("port_hi", 65536, "ports must be in"),
        ("proto", 6, "proto must be a Proto"),
    ],
)
def test_flow_key_validation(field, value, message):
    fields = dict(ip_lo=1, port_lo=80, ip_hi=2, port_hi=5000, proto=Proto.TCP)
    FlowKey(**fields)
    fields[field] = value
    with pytest.raises(ContractError, match=message):
        FlowKey(**fields)


@pytest.mark.parametrize("ts", [1.5, np.float64(2.0), -1, 2**63, True, "5", None])
def test_packet_record_refuses_a_stamp_that_is_not_a_non_negative_integer(ts):
    with pytest.raises(ContractError, match="packet stamps must be non-negative integers"):
        mk_packet(ts=ts)


@pytest.mark.parametrize("ts", [0, np.int64(7), 2**63 - 1])
def test_packet_record_accepts_a_non_negative_64_bit_stamp(ts):
    assert mk_packet(ts=ts).ts == ts


@pytest.mark.parametrize("ts", [1.5, 2**63, -(2**63) - 1])
def test_aggregate_refuses_a_timestamp_that_is_not_a_64_bit_integer(ts):
    with pytest.raises(ContractError, match="integers that fit in 64 bits"):
        aggregate([mk_packet(ts=1_000_000), mk_packet(ts=ts)])


def test_udp_packet_cannot_carry_tcp_flags():
    with pytest.raises(ContractError):
        mk_packet(proto=Proto.UDP, length=28, flags=0x02)


@pytest.mark.parametrize("flags", [dict(tcp_flags_fwd=0x12), dict(tcp_flags_bwd=0x01)])
def test_udp_flow_record_cannot_carry_tcp_flags(flags):
    """So encode_netflow_v5 can never write a record its own decoder refuses."""
    with pytest.raises(ContractError, match="UDP flows cannot carry TCP flags"):
        FlowRecord(FlowKey(1, 53, 2, 5353, Proto.UDP), first_ts=0, last_ts=0,
                   fwd_packets=1, fwd_bytes=28, bwd_packets=1, bwd_bytes=28, **flags)


@pytest.mark.parametrize("field", [dict(tos=256), dict(tcp_flags_fwd=300), dict(tcp_flags_bwd=-1),
                                   dict(tos=-1)])
def test_flow_record_refuses_flags_and_tos_past_one_byte(field):
    """So encode_netflow_v5 never packs a value its byte fields would wrap."""
    with pytest.raises(ContractError, match="tcp_flags_fwd, tcp_flags_bwd and tos are single bytes"):
        FlowRecord(FlowKey(1, 80, 2, 5000, Proto.TCP), first_ts=0, last_ts=1000,
                   fwd_packets=1, fwd_bytes=40, bwd_packets=0, bwd_bytes=0, **field)


def handshake_packets():
    return [
        mk_packet(ts=1_000_000, src="10.0.0.2", dst="10.0.0.1",
                  sport=5000, dport=80, length=60, flags=0x02),
        mk_packet(ts=1_100_000, src="10.0.0.1", dst="10.0.0.2",
                  sport=80, dport=5000, length=52, flags=0x12),
        mk_packet(ts=1_200_000, src="10.0.0.2", dst="10.0.0.1",
                  sport=5000, dport=80, length=60, flags=0x10),
    ]


def test_three_packet_handshake_aggregates_to_one_flow():
    flows = aggregate(handshake_packets())
    assert flows == [
        FlowRecord(
            key=FlowKey(ip("10.0.0.1"), 80, ip("10.0.0.2"), 5000, Proto.TCP),
            first_ts=1_000_000,
            last_ts=1_200_000,
            fwd_packets=2,
            fwd_bytes=120,
            bwd_packets=1,
            bwd_bytes=52,
            tcp_flags_fwd=0x12,
            tcp_flags_bwd=0x12,
            tos=0,
            complete=False,      # no FIN seen
            initiator_lo=False,  # first packet came from the higher endpoint
        )
    ]


def test_fin_in_both_directions_closes_episode():
    packets = [
        mk_packet(ts=1_000_000, flags=0x02, length=60),
        mk_packet(ts=1_100_000, src="10.0.0.1", dst="10.0.0.2",
                  sport=80, dport=5000, flags=0x12, length=60),
        mk_packet(ts=1_200_000, flags=0x11, length=52),
        mk_packet(ts=1_300_000, src="10.0.0.1", dst="10.0.0.2",
                  sport=80, dport=5000, flags=0x11, length=52),
        # same five-tuple again right away: must start a fresh episode
        mk_packet(ts=1_300_001, flags=0x02, length=60),
    ]
    flows = aggregate(packets)
    assert len(flows) == 2
    assert flows[0].complete is True
    assert flows[0].total_packets == 4
    assert flows[1].total_packets == 1
    assert flows[1].complete is False  # SYN but no FIN yet


def test_rst_counts_toward_bidirectional_close():
    packets = [
        mk_packet(ts=1_000_000, flags=0x02, length=60),
        mk_packet(ts=1_100_000, src="10.0.0.1", dst="10.0.0.2",
                  sport=80, dport=5000, flags=0x04, length=40),
        mk_packet(ts=1_200_000, flags=0x04, length=40),
        mk_packet(ts=1_200_001, flags=0x10, length=40),
    ]
    flows = aggregate(packets)
    assert len(flows) == 2
    assert flows[0].total_packets == 3
    assert flows[0].complete is False  # RSTs closed it, but no FIN was seen


def test_inactive_timeout_boundary():
    base = 1_000_000
    gap_exact = [mk_packet(ts=base, proto=Proto.UDP, length=28),
                 mk_packet(ts=base + 15_000_000, proto=Proto.UDP, length=28)]
    assert len(aggregate(gap_exact)) == 1  # idle == timeout stays together
    gap_over = [mk_packet(ts=base, proto=Proto.UDP, length=28),
                mk_packet(ts=base + 15_000_001, proto=Proto.UDP, length=28)]
    assert len(aggregate(gap_over)) == 2


def test_timeouts_past_the_widest_stamp_gap_never_split():
    """No limit, however large, overflows: one past 2**63 - 1 us keeps even
    the widest gap between int64 stamps in one episode."""
    packets = [mk_packet(ts=0, proto=Proto.UDP, length=28),
               mk_packet(ts=2**63 - 1, proto=Proto.UDP, length=28)]
    for timeout in (1e13, 1e308, sys.float_info.max):
        assert [f.total_packets for f in aggregate(packets, timeout, timeout)] == [2]
    assert [f.total_packets for f in aggregate(packets, 9e12, 9e12)] == [1, 1]


def test_active_timeout_rotates_long_episode():
    packets = [
        mk_packet(ts=0, proto=Proto.UDP, length=28),
        mk_packet(ts=15_000_000, proto=Proto.UDP, length=28),
        mk_packet(ts=31_000_000, proto=Proto.UDP, length=28),
    ]
    flows = aggregate(packets, inactive_timeout=20.0, active_timeout=30.0)
    assert [f.total_packets for f in flows] == [2, 1]
    assert flows[1].first_ts == 31_000_000


def test_reordering_within_tolerance_is_accepted():
    packets = [
        mk_packet(ts=2_000_000, proto=Proto.UDP, length=28),
        mk_packet(ts=1_500_000, proto=Proto.UDP, length=28),
    ]
    agg = FlowAggregator()
    for pkt in packets:
        agg.add(pkt)
    agg.flush()
    flows = agg.records()
    assert agg.accepted == 2 and agg.rejected == 0
    assert flows[0].first_ts == 1_500_000
    assert flows[0].last_ts == 2_000_000


def test_late_packet_rejected_and_counted():
    agg = FlowAggregator()
    agg.add(mk_packet(ts=3_000_000, proto=Proto.UDP, length=28))
    agg.add(mk_packet(ts=1_900_000, proto=Proto.UDP, length=28))  # 1.1 s behind
    agg.add(mk_packet(ts=2_000_000, proto=Proto.UDP, length=28))  # exactly 1 s: kept
    agg.flush()
    assert agg.accepted == 2
    assert agg.rejected == 1
    assert sum(f.total_packets for f in agg.records()) == 2


def test_brute_force_grouping_oracle():
    """Interleaved UDP conversations match a per-key dict grouping."""
    import random

    rnd = random.Random(7)
    endpoints = [("10.0.1.%d" % i, 1000 + i) for i in range(6)]
    packets = []
    ts = 1_000_000
    for _ in range(300):
        a, b = rnd.sample(endpoints, 2)
        if rnd.random() < 0.5:
            a, b = b, a
        ts += rnd.randint(0, 5000)
        packets.append(
            mk_packet(ts=ts, src=a[0], dst=b[0], sport=a[1], dport=b[1],
                      proto=Proto.UDP, length=rnd.randint(28, 1500))
        )

    groups: dict[tuple, list[PacketRecord]] = {}
    for pkt in packets:
        pair = sorted([(pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)])
        groups.setdefault((tuple(pair[0]), tuple(pair[1])), []).append(pkt)

    flows = aggregate(packets, inactive_timeout=1e6, active_timeout=1e9)
    assert len(flows) == len(groups)
    for flow in flows:
        group = groups[
            ((flow.key.ip_lo, flow.key.port_lo), (flow.key.ip_hi, flow.key.port_hi))
        ]
        first = group[0]
        fwd = [p for p in group if (p.src_ip, p.src_port) == (first.src_ip, first.src_port)]
        bwd = [p for p in group if (p.src_ip, p.src_port) != (first.src_ip, first.src_port)]
        assert flow.first_ts == min(p.ts for p in group)
        assert flow.last_ts == max(p.ts for p in group)
        assert flow.fwd_packets == len(fwd)
        assert flow.bwd_packets == len(bwd)
        assert flow.fwd_bytes == sum(p.length for p in fwd)
        assert flow.bwd_bytes == sum(p.length for p in bwd)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),     # endpoint pair chooser
            st.booleans(),                              # direction
            st.integers(min_value=0, max_value=30000),  # gap us
            st.integers(min_value=28, max_value=1500),  # length
        ),
        min_size=1,
        max_size=60,
    )
)
def test_conservation_property(moves):
    """Accepted packets and bytes are conserved across the flow table."""
    pairs = [
        (("10.0.0.1", 1111), ("10.0.0.2", 2222)),
        (("10.0.0.3", 3333), ("10.0.0.4", 4444)),
        (("10.0.0.5", 5555), ("10.0.0.6", 6666)),
        (("10.0.0.7", 7777), ("10.0.0.8", 8888)),
    ]
    packets = []
    ts = 0
    for which, flipped, gap, length in moves:
        ts += gap
        a, b = pairs[which]
        if flipped:
            a, b = b, a
        packets.append(
            mk_packet(ts=ts, src=a[0], dst=b[0], sport=a[1], dport=b[1],
                      proto=Proto.UDP, length=length)
        )
    agg = FlowAggregator()
    for pkt in packets:
        agg.add(pkt)
    agg.flush()
    flows = agg.records()
    assert agg.accepted + agg.rejected == len(packets)
    assert agg.accepted == len(packets)  # timestamps never run backwards here
    assert sum(f.total_packets for f in flows) == len(packets)
    assert sum(f.fwd_bytes + f.bwd_bytes for f in flows) == sum(p.length for p in packets)


def test_records_sorted_by_first_ts_then_key():
    packets = [
        mk_packet(ts=5_000_000, src="10.0.0.9", dst="10.0.0.8",
                  sport=1, dport=2, proto=Proto.UDP, length=28),
        mk_packet(ts=5_000_000, src="10.0.0.3", dst="10.0.0.4",
                  sport=1, dport=2, proto=Proto.UDP, length=28),
        mk_packet(ts=4_000_000, src="10.0.0.5", dst="10.0.0.6",
                  sport=1, dport=2, proto=Proto.UDP, length=28),
    ]
    flows = aggregate(packets)
    assert [f.first_ts for f in flows] == [4_000_000, 5_000_000, 5_000_000]
    assert flows[1].key.ip_lo < flows[2].key.ip_lo


def test_aggregator_validation():
    with pytest.raises(ContractError):
        FlowAggregator(inactive_timeout=0)
    with pytest.raises(ContractError):
        FlowAggregator(active_timeout=-1)


def test_flow_record_validation():
    key = FlowKey(1, 1, 2, 2, Proto.UDP)
    with pytest.raises(ContractError):
        FlowRecord(key, first_ts=10, last_ts=5, fwd_packets=1, fwd_bytes=28,
                   bwd_packets=0, bwd_bytes=0)
    with pytest.raises(ContractError):
        FlowRecord(key, first_ts=0, last_ts=0, fwd_packets=0, fwd_bytes=0,
                   bwd_packets=0, bwd_bytes=0)
    with pytest.raises(ContractError):
        FlowRecord(key, first_ts=0, last_ts=0, fwd_packets=2, fwd_bytes=39,
                   bwd_packets=0, bwd_bytes=0)
    with pytest.raises(ContractError):
        FlowRecord(key, first_ts=0, last_ts=0, fwd_packets=1, fwd_bytes=28,
                   bwd_packets=1, bwd_bytes=19)


def test_flow_record_convenience_properties():
    key = FlowKey(1, 1, 2, 2, Proto.UDP)
    flow = FlowRecord(key, first_ts=1_000_000, last_ts=3_500_000,
                      fwd_packets=2, fwd_bytes=100, bwd_packets=1, bwd_bytes=40)
    assert flow.total_packets == 3


@pytest.mark.parametrize("source", ["records", "pcap reader"])
def test_aggregate_table_of_no_packets_is_an_empty_aggregation(source, tmp_path):
    """int64 columns from records, the narrow dtypes from a header-only capture."""
    table = PacketTable.from_records([])
    if source == "pcap reader":
        write_pcap(tmp_path / "empty.pcap", [])
        table = PcapReader(tmp_path / "empty.pcap").table()
        assert table.src_port.dtype == np.uint16
    agg = aggregate_table(table)
    assert agg.bounds.tolist() == [0]
    assert agg.packets.size == 0
    assert agg.rejected == 0
    empty = FlowTable.from_records([])
    for field in dataclasses.fields(FlowTable):
        column = getattr(agg.flows, field.name)
        assert column.shape == (0,)
        assert column.dtype == getattr(empty, field.name).dtype, field.name
