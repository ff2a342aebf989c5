"""Feature extraction and the dataset CSV format."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowident.errors import ContractError
from flowident.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    Dataset,
    FeatureVector,
    SchemaError,
    feature_name,
    featurize,
    read_dataset,
    write_dataset,
)
from flowident.flow import FlowKey, FlowRecord, Proto, aggregate
from helpers import featurize_oracle, ip, mk_packet


def handshake_flow():
    packets = [
        mk_packet(ts=1_000_000, length=60, flags=0x02),
        mk_packet(ts=1_100_000, src="10.0.0.1", dst="10.0.0.2",
                  sport=80, dport=5000, length=52, flags=0x12),
        mk_packet(ts=1_200_000, length=60, flags=0x10),
    ]
    [flow] = aggregate(packets)
    return flow


def test_headline_example_all_sixteen_values():
    vec = featurize(handshake_flow())
    # frozen from an independent recomputation of each definition
    assert vec.lport == 80.0
    assert vec.hport == 5000.0
    assert vec.duration == 0.2
    assert vec.transproto == 6.0
    assert vec.tcpflags_fwd == 18.0  # SYN|ACK accumulated over fwd packets
    assert vec.tcpflags_bwd == 18.0
    assert vec.pps == 15.0
    assert vec.bps == 860.0
    assert vec.mean_iat == 0.06666666666666667
    assert vec.pkt_ratio == 2.0
    assert vec.byte_ratio == 2.3076923076923075
    assert vec.pktlen_ratio == 1.1538461538461537
    assert vec.bidir_packets == 3.0
    assert vec.bidir_bytes == 172.0
    assert vec.tos == 0.0
    assert vec.mean_pkt_len == 57.333333333333336
    assert vec.label is None


def test_single_packet_duration_floor():
    [flow] = aggregate([mk_packet(ts=5_000_000, length=90, proto=Proto.UDP)])
    vec = featurize(flow)
    assert vec.duration == 0.001
    assert vec.pps == 1000.0
    assert vec.bps == 90000.0
    assert vec.mean_iat == 0.001
    assert vec.pkt_ratio == 1.0     # empty backward direction counts as 1
    assert vec.byte_ratio == 90.0
    assert vec.pktlen_ratio == 90.0
    assert vec.mean_pkt_len == 90.0


# Raw draws are normalised before the record is built, so every generated
# record is internally consistent: last >= first, bytes track packet counts.
flow_records = st.fixed_dictionaries(
    dict(
        first_ts=st.integers(min_value=0, max_value=10**12),
        span=st.integers(min_value=0, max_value=10**7),
        fwd_packets=st.integers(min_value=1, max_value=10**6),
        fwd_extra=st.integers(min_value=0, max_value=10**9),
        bwd_packets=st.integers(min_value=0, max_value=10**6),
        bwd_extra=st.integers(min_value=0, max_value=10**9),
        tcp_flags_fwd=st.integers(min_value=0, max_value=255),
        tcp_flags_bwd=st.integers(min_value=0, max_value=255),
        tos=st.integers(min_value=0, max_value=255),
        complete=st.booleans(),
        initiator_lo=st.booleans(),
    )
).map(
    lambda d: FlowRecord(
        key=FlowKey(ip("10.0.0.1"), 80, ip("10.0.0.2"), 5000, Proto.TCP),
        first_ts=d["first_ts"],
        last_ts=d["first_ts"] + d["span"],
        fwd_packets=d["fwd_packets"],
        fwd_bytes=20 * d["fwd_packets"] + d["fwd_extra"],
        bwd_packets=d["bwd_packets"],
        bwd_bytes=(20 * d["bwd_packets"] + d["bwd_extra"]) if d["bwd_packets"] else 0,
        tcp_flags_fwd=d["tcp_flags_fwd"],
        tcp_flags_bwd=d["tcp_flags_bwd"],
        tos=d["tos"],
        complete=d["complete"],
        initiator_lo=d["initiator_lo"],
    )
)


@settings(max_examples=200)
@given(flow_records)
def test_featurize_matches_plain_recomputation(flow):
    assert featurize(flow).values() == featurize_oracle(flow)


def test_timestamp_shift_leaves_features_unchanged():
    flow = handshake_flow()
    shifted = FlowRecord(
        key=flow.key,
        first_ts=flow.first_ts + 86_400_000_000,
        last_ts=flow.last_ts + 86_400_000_000,
        fwd_packets=flow.fwd_packets, fwd_bytes=flow.fwd_bytes,
        bwd_packets=flow.bwd_packets, bwd_bytes=flow.bwd_bytes,
        tcp_flags_fwd=flow.tcp_flags_fwd, tcp_flags_bwd=flow.tcp_flags_bwd,
        tos=flow.tos, complete=flow.complete, initiator_lo=flow.initiator_lo,
    )
    assert featurize(shifted) == featurize(flow)


def test_feature_ids_and_names():
    assert NUM_FEATURES == 16
    assert feature_name(1) == "lport"
    assert feature_name(16) == "mean_pkt_len"
    vec = featurize(handshake_flow())
    for fid, name in enumerate(FEATURE_NAMES, start=1):
        assert vec.row[fid - 1] == getattr(vec, name)
    for bad in (0, 17, -3):
        with pytest.raises(ContractError, match="feature id"):
            feature_name(bad)


def test_vector_constructors_and_label():
    values = tuple(float(i) for i in range(16))
    vec = FeatureVector.from_values(values, label="web")
    assert vec.values() == values
    assert vec.label == "web"
    assert FeatureVector(vec.row, "bulk") == FeatureVector.from_values(values, label="bulk")
    with pytest.raises(ContractError, match="expected 16 values, got 3"):
        FeatureVector.from_values((1.0, 2.0, 3.0))


def test_csv_roundtrip_at_nine_significant_digits(tmp_path):
    import random

    rnd = random.Random(42)
    vectors = []
    for i in range(500):
        raw = [rnd.uniform(0, 10) ** rnd.uniform(0, 6) for _ in range(16)]
        label = ("web", "bulk", None)[i % 3]
        vectors.append(FeatureVector.from_values(raw, label))
    ds = Dataset(vectors, ("bulk", "web"))
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.alphabet == ("bulk", "web")
    assert len(back) == 500
    for orig, got in zip(ds.vectors, back.vectors):
        assert got.label == orig.label
        for a, b in zip(orig.values(), got.values()):
            assert b == float(f"{a:.9g}")


def test_read_errors(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError, match="empty file"):
        read_dataset(path)

    header = list(FEATURE_NAMES + ("label",))
    header.remove("bps")
    header.append("throughput")
    path.write_text(",".join(header) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"missing: \['bps'\]"):
        read_dataset(path)
    with pytest.raises(SchemaError, match=r"unexpected: \['throughput'\]"):
        read_dataset(path)

    good_header = ",".join(FEATURE_NAMES + ("label",))
    path.write_text(good_header + "\n" + ",".join(["1"] * 10) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 2: expected 17 fields"):
        read_dataset(path)

    row = ["1"] * 16 + ["web"]
    row[4] = "huh"
    path.write_text(good_header + "\n" + ",".join(row) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError,
                       match="line 2: column tcpflags_fwd: could not convert string to float: 'huh'"):
        read_dataset(path)


@pytest.mark.parametrize("body, message", [
    ("{row}\n\n{row}\n", "line 3: expected 17 fields"),
    ("{row}\r\n\r\n", "line 3: expected 17 fields"),
    ("\n{row}\n", "line 2: expected 17 fields"),
    ("{row}\n{row}\n\r", "line 4: expected 17 fields"),
    ("{row}\n1_000,{rest}\n", "line 3: column lport: '1_000' is not an ASCII decimal number"),
    ("١٢,{rest}\n", "line 2: column lport: '١٢' is not an ASCII decimal number"),
    ("\x1c1,{rest}\n", r"line 2: column lport: could not convert string to float: '\\x1c1'"),
    ("{row}\r{row}\r", "a line ends in CR alone; line ends must be LF or CRLF"),
    ("{row}\n{numbers},{big}\n", r"line 3: field larger than field limit \(131072\)"),
    ("{big}1,{rest}\n", r"line 2: field larger than field limit \(131072\)"),
])
def test_read_refuses_what_numpy_and_the_csv_module_read_apart(tmp_path, body, message):
    """Blank lines, numbers with ``_`` or other characters that float() takes
    and NumPy's parser does not (and the reverse), CR line ends, and fields
    past the csv module's size limit, which NumPy does not have."""
    rest = ",".join(["1"] * 15 + ["web"])
    path = tmp_path / "ds.csv"
    header = ",".join(FEATURE_NAMES + ("label",))
    body = body.format(row="1," + rest, rest=rest, numbers=",".join(["1"] * 16), big=" " * 131073)
    path.write_text(header + "\n" + body, encoding="utf-8", newline="")
    with pytest.raises(SchemaError, match=f"ds\\.csv: {message}"):
        read_dataset(path)


@pytest.mark.parametrize("first", ['1,{rest},"two\nlines"', '1,{rest},"cr\r\nlf"',
                                   '1,{rest},"cr\ralone"', '"2\n",{rest},web'],
                         ids=["label-lf", "label-crlf", "label-cr", "number-lf"])
@pytest.mark.parametrize("cell, message", [
    ("inf", "column lport: non-finite value inf"),
    ("zz", "column lport: could not convert string to float: 'zz'"),
], ids=["inf", "zz"])
def test_error_line_is_where_the_record_starts_after_a_quoted_line_break(
        tmp_path, first, cell, message):
    rest = ",".join(["1"] * 15)
    path = tmp_path / "ds.csv"
    header = ",".join(FEATURE_NAMES + ("label",))
    body = f"{first.format(rest=rest)}\r\n{cell},{rest},web\r\n"
    path.write_text(header + "\r\n" + body, encoding="utf-8", newline="")
    with pytest.raises(SchemaError, match=f"ds\\.csv: line 4: {message}"):
        read_dataset(path)


def test_read_takes_labels_holding_csv_syntax_and_quoted_numbers(tmp_path):
    labels = ["a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "#x", " lead", "", "\x1c"]
    path = tmp_path / "ds.csv"
    header = ",".join(FEATURE_NAMES + ("label",))
    rows = ['"2\n",' + ",".join(["1"] * 15) + ',"' + label.replace('"', '""') + '"' for label in labels]
    path.write_text(header + "\r\n" + "\r\n".join(rows), encoding="utf-8", newline="")
    ds = read_dataset(path)
    assert ds.labels() == labels[:6] + [None, "\x1c"]
    assert ds.data[:, 0].tolist() == [2.0] * len(labels)


def test_dataset_validation_and_views():
    values = tuple(float(i) for i in range(16))
    labeled = FeatureVector.from_values(values, label="web")
    unlabeled = FeatureVector.from_values(values)
    ds = Dataset([labeled, unlabeled], ("web",))
    assert ds.labels() == ["web", None]
    assert len(ds.labeled_only()) == 1
    assert ds.labeled_only().alphabet == ("web",)

    with pytest.raises(ContractError, match="duplicate labels"):
        Dataset([], ("web", "web"))
    with pytest.raises(ContractError, match="row 0: label 'ftp'"):
        Dataset([FeatureVector(labeled.row, "ftp")], ("web",))

    auto = Dataset.from_vectors([labeled, unlabeled, FeatureVector(labeled.row, "bulk")])
    assert auto.alphabet == ("bulk", "web")


@pytest.mark.parametrize("rows, bad, shape", [
    ([np.arange(32.0)], 0, (32,)),  # would reshape to two rows under one label
    ([np.arange(16.0), np.arange(15.0)], 1, (15,)),
    ([np.arange(16.0), np.arange(16.0)[None]], 1, (1, 16)),
    ([np.arange(16.0), np.arange(16.0), np.arange(17.0)], 2, (17,)),
])
def test_dataset_refuses_a_vector_that_is_not_sixteen_values(rows, bad, shape):
    vectors = [FeatureVector(row, "web") for row in rows]
    with pytest.raises(ContractError,
                       match=rf"^row {bad}: expected 16 values, got shape {re.escape(str(shape))}$"):
        Dataset(vectors, ("web",))
    with pytest.raises(ContractError):
        Dataset.from_vectors(vectors)


def test_matrix_selects_columns():
    vec_a = FeatureVector.from_values([float(i) for i in range(16)], label="web")
    vec_b = FeatureVector.from_values([float(i * 10) for i in range(16)], label="web")
    ds = Dataset([vec_a, vec_b], ("web",))
    full = ds.matrix()
    assert full.shape == (2, 16)
    assert full[0, 0] == 0.0 and full[1, 15] == 150.0
    picked = ds.matrix([7, 16])
    assert picked.shape == (2, 2)
    assert picked[0].tolist() == [vec_a.pps, vec_a.mean_pkt_len]
    with pytest.raises(ContractError, match="feature id"):
        ds.matrix([0])
    empty = Dataset([], ()).matrix([3])
    assert empty.shape == (0, 1)


def test_feature_values_are_finite_on_extreme_flows():
    flow = FlowRecord(
        key=FlowKey(ip("10.0.0.1"), 0, ip("10.0.0.2"), 65535, Proto.UDP),
        first_ts=0, last_ts=0,
        fwd_packets=1, fwd_bytes=20,
        bwd_packets=0, bwd_bytes=0,
        tcp_flags_fwd=0, tcp_flags_bwd=0, tos=255,
        complete=False, initiator_lo=True,
    )
    assert all(math.isfinite(v) for v in featurize(flow).values())


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_read_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "ds.csv"
    good = ",".join(["1"] * 16 + ["web"])
    bad = ["1"] * 16 + ["web"]
    bad[7] = cell
    header = ",".join(FEATURE_NAMES + ("label",))
    path.write_text(f"{header}\n{good}\n{','.join(bad)}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"ds\.csv: line 3: column bps: non-finite value"):
        read_dataset(path)


def test_dataset_is_one_matrix_with_codes():
    values = [float(i) for i in range(16)]
    ds = Dataset.from_vectors([
        FeatureVector.from_values(values, "web"),
        FeatureVector.from_values(values[::-1]),
        FeatureVector.from_values(values, "bulk"),
    ])
    assert ds.data.shape == (3, 16) and ds.data.flags.c_contiguous
    assert ds.codes.tolist() == [1, -1, 0]
    assert not ds.data.flags.writeable
    sub = ds.take([2, 0])
    assert sub.labels() == ["bulk", "web"]
    assert sub.vectors == [ds.vectors[2], ds.vectors[0]]
    rebuilt = Dataset.from_arrays(ds.data, ds.codes, ds.alphabet)
    assert rebuilt == ds
    assert rebuilt.vectors[0] == ds.vectors[0]
    assert np.shares_memory(rebuilt.vectors[0].row, rebuilt.data)
    with pytest.raises(ContractError, match="codes outside"):
        Dataset.from_arrays(ds.data, [0, 1, 2], ds.alphabet)
    with pytest.raises(ContractError, match=r"\(n, 16\) matrix"):
        Dataset.from_arrays(ds.data[:, :3], ds.codes, ds.alphabet)


def test_dataset_take_reads_a_boolean_mask_as_flow_table_take_does():
    """[True, False, True] selects rows 0 and 2, not the indices 1, 0, 1."""
    data = np.arange(48, dtype=np.float64).reshape(3, 16)
    ds = Dataset.from_arrays(data, [0, -1, 1], ("bulk", "web"))
    for mask in (np.array([True, False, True]), [True, False, True]):
        sub = ds.take(mask)
        assert sub == Dataset.from_arrays(data[[0, 2]], [0, 1], ds.alphabet)
        assert not sub.data.flags.writeable and not sub.codes.flags.writeable
    assert ds.take(np.array([2, 0, 2])).labels() == ["web", "bulk", "web"]
    assert len(ds.take(np.zeros(3, dtype=bool))) == len(ds.take([])) == 0
    assert ds.labeled_only() == ds.take([0, 2])
