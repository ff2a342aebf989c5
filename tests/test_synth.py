"""Seeded synthetic workload generation."""

import json
import math
import statistics

import numpy as np
import pytest

from flowident.errors import ContractError, FormatError
from flowident.features import FEATURE_NAMES
from flowident.flow import Proto, aggregate
from flowident import synth
from flowident.ingest.pcap import write_pcap
from flowident.synth import (
    SynthSpec,
    generate_dataset,
    generate_packets,
    load_synth_spec,
    parse_synth_spec,
)
from helpers import canonical_endpoints


def packet_key(pkt):
    """The packet's canonical key, by the per-packet oracle."""
    return canonical_endpoints(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port, pkt.proto)[0]


def one_udp_class(**packets):
    """A one-class UDP spec class whose packet distributions ``packets`` override."""
    defaults = {"count": {"kind": "fixed", "value": 3}, "size": {"kind": "fixed", "value": 100},
                "iat": {"kind": "fixed", "value": 0.1}}
    return {"label": "a", "flows": 2, "proto": "udp", "packets": {**defaults, **packets}}


TWO_CLASS_DOC = {
    "seed": 99,
    "classes": [
        {
            "label": "bulk",
            "flows": 50,
            "proto": "tcp",
            "server_port": 443,
            "features": {
                "pps": {"mean": 800.0, "std": 40.0},
                "mean_pkt_len": {"mean": 1300.0, "std": 80.0},
            },
            "packets": {
                "count": {"kind": "uniform_int", "low": 4, "high": 30},
                "size": {"kind": "normal", "mean": 1100, "std": 200},
                "iat": {"kind": "exponential", "mean": 0.01},
            },
        },
        {
            "label": "chat",
            "flows": 30,
            "proto": "udp",
            "server_port": 5060,
            "features": {
                "pps": {"mean": 30.0, "std": 5.0},
            },
            "packets": {
                "count": {"kind": "fixed", "value": 6},
                "size": {"kind": "uniform", "low": 80, "high": 300},
                "iat": {"kind": "uniform", "low": 0.01, "high": 0.2},
            },
        },
    ],
}


# ------------------------------------------------------------------ parsing

def test_parse_full_document():
    spec = parse_synth_spec(TWO_CLASS_DOC)
    assert spec.seed == 99
    bulk, chat = spec.classes
    assert bulk.label == "bulk"
    assert bulk.flows == 50
    assert bulk.proto is Proto.TCP
    assert bulk.server_port == 443
    assert bulk.features["pps"].mean == 800.0
    assert bulk.features["mean_pkt_len"].std == 80.0
    assert bulk.pkt_count.kind == "uniform_int"
    assert bulk.pkt_size.params == (1100.0, 200.0)
    assert chat.proto is Proto.UDP
    assert chat.pkt_count.kind == "fixed"


def test_parse_defaults():
    spec = parse_synth_spec({"classes": [{"label": "x", "flows": 2},
                                         {"label": "y", "flows": 2}]})
    assert spec.seed == 0
    assert spec.classes[0].proto is Proto.UDP
    assert spec.classes[0].server_port == 9000
    assert spec.classes[0].features == {}
    assert spec.classes[0].pkt_count is None


@pytest.mark.parametrize(
    "doc, message",
    [
        ({}, "needs a 'classes' list"),
        ({"classes": []}, "no classes"),
        ({"classes": [{"flows": 3}]}, r"classes\[0\]: needs 'label' and 'flows'"),
        ({"classes": [{"label": "a"}]}, r"classes\[0\]: needs 'label' and 'flows'"),
        ({"classes": [{"label": "a", "flows": 0}]}, r"classes\[0\]: flows must be >= 1"),
        ({"classes": [{"label": "a", "flows": 1, "proto": "icmp"}]},
         r"classes\[0\]: proto must be tcp or udp"),
        ({"classes": [{"label": "a", "flows": 1,
                       "features": {"throughput": {"mean": 0, "std": 1}}}]},
         r"classes\[0\]: unknown feature 'throughput'"),
        ({"classes": [{"label": "a", "flows": 1,
                       "features": {"pps": {"mean": 0}}}]},
         r"classes\[0\]: feature 'pps' needs mean and std"),
        ({"classes": [{"label": "a", "flows": 1}, {"label": "a", "flows": 1}]},
         "labels must be distinct"),
        ({"classes": [{"label": "a", "flows": 1,
                       "packets": {"count": {"kind": "fixed", "value": 3},
                                   "size": {"kind": "fixed", "value": 100}}}]},
         r"classes\[0\]: packets needs a 'iat' distribution"),
        ({"classes": [{"label": "a", "flows": 1,
                       "packets": {"count": {"kind": "poisson", "mean": 3},
                                   "size": {"kind": "fixed", "value": 100},
                                   "iat": {"kind": "fixed", "value": 0.1}}}]},
         r"classes\[0\]\.packets\.count: unknown distribution kind 'poisson'"),
        ({"classes": [{"label": "a", "flows": 1,
                       "packets": {"count": {"kind": "normal", "mean": 3},
                                   "size": {"kind": "fixed", "value": 100},
                                   "iat": {"kind": "fixed", "value": 0.1}}}]},
         r"classes\[0\]\.packets\.count: normal distribution needs 'std'"),
        ({"classes": [{"label": "a", "flows": 1,
                       "packets": {"count": 7,
                                   "size": {"kind": "fixed", "value": 100},
                                   "iat": {"kind": "fixed", "value": 0.1}}}]},
         r"classes\[0\]\.packets\.count: distribution needs a 'kind'"),
        ({"classes": [one_udp_class(size={"kind": "uniform_int", "low": 1e300, "high": 1e300})]},
         r"classes\[0\]\.packets\.size: low and high must lie in the int64 range"),
        ({"classes": [one_udp_class(size={"kind": "uniform_int", "low": 0, "high": 2**63})]},
         r"classes\[0\]\.packets\.size: low and high must lie in the int64 range"),
        ({"classes": [one_udp_class(size={"kind": "uniform", "low": -1e308, "high": 1e308})]},
         r"classes\[0\]\.packets\.size: high - low must be a finite number, got inf"),
        ({"classes": [one_udp_class(count={"kind": "fixed", "value": 1e300})]},
         r"classes\[0\]\.packets\.count: packet count 1e\+300 is above NetFlow v5's 32-bit"),
        ({"classes": [one_udp_class(count={"kind": "uniform_int", "low": 1, "high": 2**32})]},
         r"classes\[0\]\.packets\.count: packet count 4294967296\.0 is above"),
        ({"classes": [one_udp_class(count={"kind": "exponential", "mean": 5e9})]},
         r"classes\[0\]\.packets\.count: packet count 5000000000\.0 is above"),
    ],
)
def test_parse_errors(doc, message):
    with pytest.raises(FormatError, match=message):
        parse_synth_spec(doc)


def test_spec_draws_past_the_budget_are_refused_naming_the_class(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)  # nothing may be drawn
    budget = synth._MAX_DRAWS
    per_packet_flow = 16 + 2 + 3 * 3  # features; count and start; size, gap and direction
    assert parse_synth_spec({"classes": [{"label": "a", "flows": budget // 16}]})
    cases = [
        ({"classes": [{"label": "a", "flows": 10**12}]},
         r"classes\[0\]: 1000000000000 flows of up to 16 draws each take the spec past its "
         rf"budget of {budget} draws"),
        ({"classes": [{"label": "a", "flows": budget // 16 + 1}]}, r"classes\[0\]: "),
        ({"classes": [{"label": "a", "flows": budget // 32},
                      {"label": "b", "flows": budget // 32 + 1}]}, r"classes\[1\]: "),
        ({"classes": [{**one_udp_class(), "flows": budget // per_packet_flow + 1}]},
         rf"classes\[0\]: \d+ flows of up to {per_packet_flow} draws each"),
        ({"classes": [one_udp_class(count={"kind": "fixed", "value": 2**32 - 1})]},
         r"classes\[0\]: 2 flows of up to 12884901903 draws each"),
    ]
    for doc, message in cases:
        with pytest.raises(FormatError, match=message):
            parse_synth_spec(doc)
    assert parse_synth_spec({"classes": [{**one_udp_class(), "flows": budget // per_packet_flow}]})


def test_drawn_packet_counts_past_the_budget_are_refused_before_their_packets_are_drawn():
    cls = one_udp_class(count={"kind": "normal", "mean": 3, "std": 1e8})
    wide = parse_synth_spec({"classes": [{**cls, "flows": 1000}]})  # the mean fits the budget
    with pytest.raises(FormatError, match=r"classes\[0\]\.packets\.count: drew \d+ packets, past "
                                          rf"the spec's budget of {synth._MAX_DRAWS} draws"):
        generate_packets(wide)


def test_load_spec_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TWO_CLASS_DOC), encoding="utf-8")
    spec = load_synth_spec(path)
    assert [c.label for c in spec.classes] == ["bulk", "chat"]

    bad = tmp_path / "bad.json"
    bad.write_text("{]", encoding="utf-8")
    with pytest.raises(FormatError, match="not valid JSON") as exc_info:
        load_synth_spec(bad)
    assert str(bad) in str(exc_info.value)

    wrong = tmp_path / "wrong.json"
    wrong.write_text("{}", encoding="utf-8")
    with pytest.raises(FormatError, match="needs a 'classes' list") as exc_info:
        load_synth_spec(wrong)
    assert str(wrong) in str(exc_info.value)


# ----------------------------------------------------------------- datasets

def test_generate_dataset_counts_and_alphabet():
    spec = parse_synth_spec(TWO_CLASS_DOC)
    ds = generate_dataset(spec)
    assert len(ds) == 80
    assert ds.alphabet == ("bulk", "chat")
    labels = ds.labels()
    assert labels.count("bulk") == 50
    assert labels.count("chat") == 30


def test_generate_dataset_is_seed_deterministic():
    spec = parse_synth_spec(TWO_CLASS_DOC)
    assert generate_dataset(spec) == generate_dataset(spec)
    shifted = parse_synth_spec({**TWO_CLASS_DOC, "seed": 100})
    assert generate_dataset(shifted) != generate_dataset(spec)


def test_generate_dataset_respects_means_within_clt_bound():
    n = 4000
    doc = {
        "seed": 7,
        "classes": [{
            "label": "a", "flows": n,
            "features": {"bps": {"mean": 250.0, "std": 20.0}},
        }, {
            "label": "b", "flows": 2,
        }],
    }
    ds = generate_dataset(parse_synth_spec(doc))
    rows = [v for v in ds.vectors if v.label == "a"]
    bps = [v.bps for v in rows]
    assert statistics.fmean(bps) == pytest.approx(250.0, abs=3 * 20.0 / math.sqrt(n))
    assert statistics.stdev(bps) == pytest.approx(20.0, rel=0.1)
    # unmentioned features default to the standard normal
    lport = [v.lport for v in rows]
    assert statistics.fmean(lport) == pytest.approx(0.0, abs=3 / math.sqrt(n))
    assert statistics.stdev(lport) == pytest.approx(1.0, rel=0.1)


@pytest.mark.parametrize("classes, message", [
    ([{"label": "a", "flows": 40, "features": {"pps": {"mean": 1e308, "std": 1e308}}}],
     "classes[0]: feature 'pps': drew inf, not a finite number"),
    ([{"label": "a", "flows": 2},
      {"label": "b", "flows": 40, "features": {"bps": {"mean": -1e308, "std": 1e308}}}],
     "classes[1]: feature 'bps': drew -inf, not a finite number"),
])
def test_generate_dataset_refuses_non_finite_draws(classes, message):
    with pytest.raises(FormatError) as exc_info:
        generate_dataset(parse_synth_spec({"classes": classes}))
    assert str(exc_info.value) == message


# ------------------------------------------------------------------ packets

def test_generate_packets_deterministic_and_sorted():
    spec = parse_synth_spec(TWO_CLASS_DOC)
    packets, labels = generate_packets(spec)
    again_packets, again_labels = generate_packets(spec)
    assert packets.records() == again_packets.records()
    assert labels == again_labels
    assert (np.diff(packets.ts) >= 0).all()
    assert len(labels) == 80


def test_generated_flows_aggregate_back_to_their_labels():
    spec = parse_synth_spec(TWO_CLASS_DOC)
    packets, labels = generate_packets(spec)
    index = {(row.key, row.first_ts): row.label for row in labels}
    flows = aggregate(packets)
    assert len(flows) == len(labels)
    by_label = {"bulk": 0, "chat": 0}
    for flow in flows:
        label = index[(flow.key, flow.first_ts)]
        by_label[label] += 1
        assert flow.key.proto is (Proto.TCP if label == "bulk" else Proto.UDP)
    assert by_label == {"bulk": 50, "chat": 30}


def test_generated_packet_shapes():
    spec = parse_synth_spec(TWO_CLASS_DOC)
    packets, labels = generate_packets(spec)
    keys = {packet_key(p) for p in packets}
    assert len(keys) == 80  # one distinct five-tuple per flow
    for pkt in packets:
        if pkt.proto is Proto.TCP:
            assert 40 <= pkt.length <= 1500
            assert 443 in (pkt.src_port, pkt.dst_port)
        else:
            assert 28 <= pkt.length <= 1500
            assert 5060 in (pkt.src_port, pkt.dst_port)

    first_by_flow = {}
    for pkt in packets:
        first_by_flow.setdefault(packet_key(pkt), pkt)
    for key, first in first_by_flow.items():
        if first.proto is Proto.TCP:
            assert first.tcp_flags == 0x02      # a client SYN opens the flow
            assert first.dst_port == 443
        assert (first.src_ip >> 24) == 10       # client address space


def test_fixed_count_class_emits_exact_packet_counts():
    doc = {
        "seed": 3,
        "classes": [{
            "label": "ping", "flows": 5, "proto": "udp",
            "packets": {
                "count": {"kind": "fixed", "value": 4},
                "size": {"kind": "fixed", "value": 2000},   # clipped to 1500
                "iat": {"kind": "fixed", "value": 0.05},
            },
        }],
    }
    packets, labels = generate_packets(parse_synth_spec(doc))
    assert len(packets) == 20
    assert len(labels) == 5
    assert all(p.length == 1500 for p in packets)
    flows = aggregate(packets)
    assert all(f.total_packets == 4 for f in flows)
    # fixed 50 ms gaps over 4 packets span exactly 150 ms
    assert all(f.last_ts - f.first_ts == 150_000 for f in flows)


def test_size_clipping_respects_protocol_minimum():
    doc = {
        "seed": 4,
        "classes": [{
            "label": "tiny", "flows": 10, "proto": "tcp",
            "packets": {
                "count": {"kind": "fixed", "value": 3},
                "size": {"kind": "fixed", "value": 1},      # below any header
                "iat": {"kind": "fixed", "value": 0.001},
            },
        }],
    }
    packets, _ = generate_packets(parse_synth_spec(doc))
    assert all(p.length == 40 for p in packets)


def test_generate_packets_needs_packet_generators():
    spec = parse_synth_spec({"classes": [{"label": "a", "flows": 1}]})
    with pytest.raises(ContractError, match="class 'a' has no packet generators"):
        generate_packets(spec)


@pytest.mark.parametrize("packets, message", [
    ({"iat": {"kind": "fixed", "value": 1e300}}, r"\.iat: packet times pass the 32-bit seconds"),
    ({"iat": {"kind": "fixed", "value": 5e9}}, r"\.iat: packet times pass the 32-bit seconds"),
    ({"iat": {"kind": "exponential", "mean": 1e308}}, r"\.iat: packet times pass"),
    ({"count": {"kind": "normal", "mean": 5, "std": 1e300}},
     r"\.count: drew packet count .* above NetFlow v5's 32-bit counter"),
])
def test_generate_packets_refuses_draws_past_the_file_formats(packets, message):
    spec = parse_synth_spec({"seed": 1, "classes": [one_udp_class(**packets)]})
    with pytest.raises(FormatError, match=r"^classes\[0\]\.packets" + message):
        generate_packets(spec)


def test_generate_packets_reaches_the_last_pcap_second(tmp_path):
    """Flows start within 60 s of 1,700,000,000 s: a second packet 2**32 - 1,700,000,061 s
    later is still in pcap's 32-bit seconds and writes; 61 s more always passes them."""
    def two_packets(gap):
        return parse_synth_spec({"classes": [one_udp_class(
            count={"kind": "fixed", "value": 2}, iat={"kind": "fixed", "value": gap})]})

    gap = 2**32 - 1_700_000_061
    packets, _ = generate_packets(two_packets(gap))
    assert max(p.ts for p in packets) // 10**6 <= 2**32 - 1
    assert write_pcap(tmp_path / "late.pcap", packets) == 4
    with pytest.raises(FormatError, match="packet times pass"):
        generate_packets(two_packets(gap + 61))


def test_spec_dataclass_holds_parsed_values():
    spec = parse_synth_spec(TWO_CLASS_DOC)
    assert isinstance(spec, SynthSpec)
    assert spec.classes[0].iat.kind == "exponential"
