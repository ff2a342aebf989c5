"""Library code against the code it replaced (oracles in helpers).

The batch scorer, the fold assignment, the bincount metric report, the array
NIG fold and the one-fold-per-batch train and update must give exactly what
the per-row, per-feature or per-class versions give: same floats, same ties,
same model bytes.  Packet aggregation and NetFlow pair merging must give
exactly the records of the per-packet episode and the pairwise record merge
they replaced; the columnar aggregator must also group the same packets into
each episode, and sampling traces are those groups sorted by time.  The
columnar NetFlow reader, on valid and damaged multi-datagram files, must
give the records or the error of the per-record decoder, and the columnar
encoder the bytes or the error of the per-record one.  The columnar pcap
reader must skip or keep exactly the frames the byte-slicing parser does,
and raise the errors of a per-record walk at the same byte offsets, in any
read window.  The vectorised Monte Carlo must give, trial by trial, the
estimates of sampling the packet list one trial at a time, and the sampling
report, drawn once per flow length for all ratios, must equal the per-ratio
report that drew once per (ratio, flow).  The model loader, fed saved documents
with a few values replaced or keys deleted, must load a model that predicts
or raise ModelFormatError.  The columnar ingest tail must give exactly what
the per-flow one gave: the feature matrix the per-record formulas' bits, the
dataset writer the per-cell and per-row writers' bytes, and the label reader, on valid
and damaged label files, the rows and lookups or the error message of the
``ipaddress`` parser.  The columnar generator must draw the records and
labels of the per-packet one, and the columnar pcap writer must write the
bytes of the ``struct`` writer.  The feature filter, binning and ranking each
feature once, must write the selection document of the filter that ran
``np.unique`` in every SU call.
"""

import copy
import csv
from collections import Counter
from dataclasses import replace
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowident.sampling as sampling
from flowident.classifier import (
    VARIANCE_FLOOR,
    ClassifierModel,
    ModelFormatError,
    NIGPrior,
    _log_scores,
    load_model,
    model_to_json_dict,
    nig_fold,
    plugin_variance,
    predict,
    train,
    update,
)
from flowident.evaluation import (
    ConfusionCounts,
    StratificationError,
    assign_folds,
    evaluate_predictions,
    metrics,
)
from flowident.errors import ContractError, FormatError
from flowident.features import (
    FEATURE_NAMES,
    Dataset,
    FeatureVector,
    SchemaError,
    feature_matrix,
    featurize,
    read_dataset,
    write_dataset,
)
from flowident.flow import (
    REORDER_TOLERANCE_US,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    FlowAggregator,
    FlowKey,
    FlowRecord,
    FlowTable,
    PacketRecord,
    PacketTable,
    Proto,
    aggregate,
    aggregate_table,
)
from flowident.ingest import load_labels, pcap
from flowident.ingest.labels import HEADER
from flowident.ingest.netflow import (
    EncodingError,
    MalformedDatagramError,
    decode_netflow_v5,
    encode_netflow_v5,
    read_netflow_table,
)
from flowident.ingest.pcap import PcapDecodeError, PcapReader, write_pcap
from flowident.sampling import (
    MIN_TRIALS,
    FlowTrace,
    Metric,
    SamplingConfig,
    TraceTable,
    build_sampling_report,
    dre,
    simulate_estimates,
    traces_from_packets,
)
from flowident.selection import fcbf_select
from flowident.synth import generate_dataset, generate_packets, parse_synth_spec
from helpers import (
    aggregate_oracle,
    assign_folds_oracle,
    bernoulli_sample,
    build_frame_oracle,
    canonical_endpoints,
    check_trace_oracle,
    confusion_oracle,
    dre_oracle,
    encode_netflow_oracle,
    estimate,
    eth_ipv4_frame,
    fcbf_select_oracle,
    featurize_oracle,
    flow_order_packets_oracle,
    generate_packets_oracle,
    ip,
    json_paths,
    label_rows,
    load_labels_oracle,
    mc_estimates_oracle,
    merge_records_oracle,
    mk_packet,
    nf5_datagram,
    nf5_header,
    nf5_record,
    nig_fold_oracle,
    parse_frame_oracle,
    pcap_file,
    plugin_variance_oracle,
    predict_oracle,
    read_dataset_oracle,
    read_netflow_oracle,
    read_pcap_oracle,
    sampling_report_oracle,
    score_oracle,
    survivor_mask_oracle,
    traces_oracle,
    trace_from_packets,
    train_oracle,
    update_oracle,
    write_dataset_oracle,
    write_dataset_rows_oracle,
    write_pcap_oracle,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
variance = st.floats(min_value=VARIANCE_FLOOR, max_value=1e6, allow_nan=False)


@st.composite
def models_and_rows(draw):
    feature_ids = tuple(draw(st.permutations(range(1, 17)))[: draw(st.integers(1, 16))])
    d = len(feature_ids)
    alphabet, counts, means, variances = [], [], [], []
    for c in range(draw(st.integers(1, 6))):
        alphabet.append(f"c{c}")
        counts.append(draw(st.integers(1, 10_000)))
        means.append(draw(st.lists(finite, min_size=d, max_size=d)))
        variances.append(draw(st.lists(variance, min_size=d, max_size=d)))
    if draw(st.booleans()):
        # A later copy of an earlier class scores the same on every row.
        twin = draw(st.integers(0, len(alphabet) - 1))
        alphabet.append("twin")
        counts.append(counts[twin])
        means.append(means[twin])
        variances.append(variances[twin])
    alphabet = tuple(alphabet)
    nig = [np.full((len(alphabet), d), value) for value in (0.0, 1.0, 2.0, 1.0)]
    model = ClassifierModel(alphabet, feature_ids, tuple(counts), (*nig, means, variances))
    rows = draw(st.lists(st.lists(finite, min_size=16, max_size=16), max_size=40))
    return model, Dataset([FeatureVector.from_values(r) for r in rows], alphabet)


@settings(max_examples=300, deadline=None)
@given(models_and_rows())
def test_batch_predict_and_score_equal_the_per_row_oracle(case):
    model, ds = case
    got = predict(model, ds)
    assert got == predict_oracle(model, ds)
    assert "twin" not in got
    for vec in ds.vectors:
        values = [vec.row[fid - 1] for fid in model.feature_ids]
        one_row = Dataset([vec], ds.alphabet).matrix(model.feature_ids)
        assert _log_scores(model, one_row)[0].tolist() == score_oracle(model, values)


labels_strategy = st.lists(st.sampled_from(["web", "bulk", "chat", "a\x00", "a", ""]),
                           min_size=2, max_size=120)


@settings(max_examples=300, deadline=None)
@given(labels_strategy, st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_assign_folds_equals_the_per_class_oracle(labels, k, seed):
    k = min(k, len(labels))
    try:
        want = assign_folds_oracle(labels, k, seed)
    except ValueError:
        try:
            assign_folds(labels, k, seed)
        except StratificationError:
            return
        raise AssertionError("a class smaller than k was accepted")
    assert assign_folds(labels, k, seed) == want


pair_lists = st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from("abcd"), min_size=n, max_size=n),
    st.lists(st.sampled_from("abce"), min_size=n, max_size=n),
))


@settings(max_examples=300, deadline=None)
@given(pair_lists, st.sampled_from([None, ("a", "b", "c"), ("d", "a", "z"), ("b", "b")]))
def test_evaluate_predictions_equals_per_class_tallies(pair, classes):
    predicted, truth = pair
    report = evaluate_predictions(predicted, truth, classes=classes)
    if classes is None:
        classes = sorted(set(predicted) | set(truth))
    assert report.per_class == {
        label: metrics(ConfusionCounts(*confusion_oracle(predicted, truth, label)))
        for label in classes
    }
    assert report.overall_accuracy == sum(p == t for p, t in zip(predicted, truth)) / len(truth)
    assert report.n == len(truth)


def test_batch_scores_equal_the_oracle_on_a_trained_model():
    """Many messy rows through every feature: a changed summation order shows here."""
    spec = parse_synth_spec({"seed": 3, "classes": [
        {"label": f"c{i}", "flows": 300, "features": {"pps": {"mean": 0.3 * i, "std": 1.0}}}
        for i in range(8)
    ]})
    ds = generate_dataset(spec)
    model = train(ds)
    assert predict(model, ds) == predict_oracle(model, ds)
    for vec in ds.vectors[::7]:
        values = [vec.row[fid - 1] for fid in model.feature_ids]
        one_row = Dataset([vec], ds.alphabet).matrix(model.feature_ids)
        assert _log_scores(model, one_row)[0].tolist() == score_oracle(model, values)
    rows = ds.matrix(model.feature_ids)
    assert _log_scores(model, rows).tolist() == [score_oracle(model, r) for r in rows]


def test_nig_fold_and_plugin_variance_equal_the_per_feature_oracle():
    """20,000 features at mixed scales: a square taken as x * x instead of
    pow(x, 2) differs in the last bit for some of them."""
    rng = np.random.default_rng(11)
    size = 20_000
    scale = rng.choice([1e-6, 1.0, 1e3, 1e6], size)
    nig = (
        rng.standard_normal(size) * scale,
        rng.uniform(1e-3, 50.0, size),
        rng.uniform(0.2, 50.0, size),
        rng.uniform(1e-9, 10.0, size) * scale**2,
    )
    for n in (1, 7, 250):
        mean = rng.standard_normal(size) * scale
        sumsq = rng.uniform(0.0, 10.0, size) * scale**2 * n
        got = np.column_stack(nig_fold(nig, n, mean, sumsq)).tolist()
        want = [
            list(nig_fold_oracle(*state, n, m, s))
            for state, m, s in zip(zip(*(a.tolist() for a in nig)), mean.tolist(), sumsq.tolist())
        ]
        assert got == want
        floors = [plugin_variance_oracle(a, b, VARIANCE_FLOOR) for _, _, a, b in want]
        assert plugin_variance(*np.array(want).T[2:]).tolist() == floors


PRIORS = (NIGPrior(), NIGPrior(mu=2.0, kappa=3.5, alpha=0.6, beta=40.0))


@st.composite
def training_streams(draw):
    """A training set and 1-5 update batches over 1-4 classes and 1-16
    features, at one scale from 1e-6 to 1e6.  A batch lists its labels in
    its own order, sometimes with a label the model lacks, and leaves out
    any class or all of them."""
    alphabet = tuple(f"c{c}" for c in range(draw(st.integers(1, 4))))
    feature_ids = tuple(draw(st.permutations(range(1, 17)))[: draw(st.integers(1, 16))])
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.integers(-3, 4, (len(alphabet), 16))

    def rows_of(counts, labels):
        codes = np.repeat(np.arange(len(labels)), counts)
        rng.shuffle(codes)
        centre = [offsets[alphabet.index(labels[c])] if labels[c] in alphabet else 0 for c in codes]
        data = (rng.standard_normal((len(codes), 16)) + np.reshape(centre, (-1, 16))) * scale
        return Dataset.from_arrays(data, codes, labels)

    train_ds = rows_of([draw(st.integers(2, 8)) for _ in alphabet], alphabet)
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        labels = draw(st.permutations(alphabet + (("zz",) if draw(st.booleans()) else ())))
        counts = [0 if label == "zz" else draw(st.integers(0, 5)) for label in labels]
        batches.append(rows_of(counts, tuple(labels)))
    return train_ds, feature_ids, draw(st.sampled_from(PRIORS)), batches


def model_bytes(model) -> str:
    return json.dumps(model_to_json_dict(model))


@settings(max_examples=250, deadline=None)
@given(training_streams())
def test_train_and_updates_equal_the_per_class_loop(case):
    train_ds, feature_ids, prior, batches = case
    model, want = train(train_ds, feature_ids, prior), train_oracle(train_ds, feature_ids, prior)
    assert model_bytes(model) == model_bytes(want)
    for batch in batches:
        before = model
        model, want = update(model, batch), update_oracle(want, batch)
        assert model_bytes(model) == model_bytes(want)
        assert model == want
        assert predict(model, train_ds) == predict_oracle(want, train_ds)
        if len(batch) == 0:
            assert model is before


@st.composite
def long_class_streams(draw):
    """A training set and two update batches of 9-300 rows per class, past NumPy's
    8-wide unrolled column sums and its 128-row pairwise blocks, over 1-3 classes and
    1, 2 or 16 features."""
    alphabet = tuple(f"c{c}" for c in range(draw(st.integers(1, 3))))
    feature_ids = tuple(draw(st.permutations(range(1, 17)))[: draw(st.sampled_from([1, 2, 16]))])
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows_of():
        codes = np.repeat(np.arange(len(alphabet)), [draw(st.integers(9, 300)) for _ in alphabet])
        rng.shuffle(codes)
        data = (rng.standard_normal((len(codes), 16)) + codes[:, None]) * scale
        return Dataset.from_arrays(data, codes, alphabet)

    return rows_of(), feature_ids, draw(st.sampled_from(PRIORS)), [rows_of(), rows_of()]


@settings(max_examples=60, deadline=None)
@given(long_class_streams())
@example((Dataset.from_arrays(np.arange(2 * 129 * 16.0).reshape(-1, 16) % 7.3,
                              np.arange(2 * 129) % 2, ("c0", "c1")),
          (1,), NIGPrior(), []))
def test_long_classes_train_and_update_to_the_per_class_loop_bytes(case):
    train_ds, feature_ids, prior, batches = case
    model, want = train(train_ds, feature_ids, prior), train_oracle(train_ds, feature_ids, prior)
    assert model_bytes(model) == model_bytes(want)
    for batch in batches:
        model, want = update(model, batch), update_oracle(want, batch)
        assert model_bytes(model) == model_bytes(want)


@pytest.mark.parametrize("feature_ids", [(1,), (1, 2), tuple(range(16, 0, -1))])
@pytest.mark.parametrize("prior", [NIGPrior(), NIGPrior(mu=-0.0)])
def test_a_class_of_negative_zeros_trains_and_updates_to_the_oracle_bytes(feature_ids, prior):
    data = np.full((6, 16), -0.0)
    data[3:] = np.arange(3 * 16.0).reshape(3, 16)  # class c0 holds only -0.0
    ds = Dataset.from_arrays(data, [0, 0, 0, 1, 1, 1], ("c0", "c1"))
    model, want = train(ds, feature_ids, prior), train_oracle(ds, feature_ids, prior)
    assert model_bytes(model) == model_bytes(want)
    batch = Dataset.from_arrays(data[:2], [0, 0], ("c0", "c1"))
    assert model_bytes(update(model, batch)) == model_bytes(update_oracle(want, batch))


DEMO_ROWS = generate_dataset(parse_synth_spec({"seed": 5, "classes": [
    {"label": "bulk", "flows": 6, "features": {"pps": {"mean": 900.0, "std": 40.0}}},
    {"label": "chat", "flows": 6, "features": {"pps": {"mean": 40.0, "std": 6.0}}},
]}))
VALID_MODEL_DOC = model_to_json_dict(train(DEMO_ROWS, [7, 16]))
ODD_VALUES = (None, True, False, 0, -1, 1, 7, 16, 2.5, 1e-300, 1e300, -1e300, 10**400,
              float("nan"), float("inf"), "", "bulk", "chat", "7", "nfi-model/1", [], [7], {},
              {"n": 3})


@st.composite
def damaged_model_docs(draw):
    """A saved model document with 1-3 values replaced or keys deleted."""
    doc = copy.deepcopy(VALID_MODEL_DOC)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return doc


@settings(max_examples=500, deadline=None)
@given(damaged_model_docs())
def test_a_damaged_model_document_loads_and_predicts_or_is_refused(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            model = load_model(path)
        except ModelFormatError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
    assert len(predict(model, DEMO_ROWS)) == len(DEMO_ROWS)


# Two TCP and one UDP conversation, plus the first TCP one's endpoints over
# UDP: a few keys, reused across episodes.
CONVERSATIONS = (
    (("10.0.0.1", 1111), ("10.0.0.2", 80), Proto.TCP),
    (("10.0.0.9", 443), ("10.0.0.3", 3333), Proto.TCP),
    (("10.0.0.5", 5060), ("10.0.0.6", 5060), Proto.UDP),
    (("10.0.0.1", 1111), ("10.0.0.2", 80), Proto.UDP),
)
TCP_FLAGS = (0, TCP_SYN, TCP_ACK, TCP_SYN | TCP_ACK, TCP_FIN | TCP_ACK, TCP_RST,
             TCP_RST | TCP_ACK, TCP_SYN | TCP_FIN)


@st.composite
def packet_streams(draw):
    """Packets that mostly move forward in time, sometimes step back within
    or beyond the 1 s reorder tolerance, and pause past the test timeouts."""
    ts = 10_000_000
    packets = []
    for _ in range(draw(st.integers(1, 60))):
        ts = max(0, ts + draw(st.one_of(
            st.integers(0, 50_000),
            st.integers(-1_500_000, 0),
            st.integers(1_000_000, 4_000_000),
        )))
        a, b, proto = draw(st.sampled_from(CONVERSATIONS))
        if draw(st.booleans()):
            a, b = b, a
        packets.append(PacketRecord(
            ts=ts, src_ip=ip(a[0]), dst_ip=ip(b[0]), src_port=a[1], dst_port=b[1],
            proto=proto, length=draw(st.integers(20, 1500)),
            tcp_flags=draw(st.sampled_from(TCP_FLAGS)) if proto is Proto.TCP else 0,
            tos=draw(st.sampled_from((0, 0x04, 0x10))),
        ))
    return packets


def closed_both_ways_then_reopened(first_ts, reopen_ts):
    """One key's episode closed by FIN both ways at ``first_ts``, then a packet
    at ``reopen_ts`` opening the key's next episode, then another key at
    ``first_ts``."""
    (a, b, _), (c, d, _) = CONVERSATIONS[:2]
    fin = TCP_FIN | TCP_ACK
    return [
        PacketRecord(first_ts, ip(a[0]), ip(b[0]), a[1], b[1], Proto.TCP, 40, fin),
        PacketRecord(first_ts, ip(b[0]), ip(a[0]), b[1], a[1], Proto.TCP, 40, fin),
        PacketRecord(reopen_ts, ip(a[0]), ip(b[0]), a[1], b[1], Proto.TCP, 52, TCP_ACK),
        PacketRecord(first_ts, ip(c[0]), ip(d[0]), c[1], d[1], Proto.TCP, 60),
    ]


def one_key(*steps):
    """A lone packet of another key, whose group is one episode, then packets
    of the first conversation, one per (stamp, travels backward, flags) step."""
    (a, b, _), (c, d, _) = CONVERSATIONS[:2]
    packets = [
        PacketRecord(ts, ip(b[0] if back else a[0]), ip(a[0] if back else b[0]),
                     b[1] if back else a[1], a[1] if back else b[1], Proto.TCP, 40 + i, flags)
        for i, (ts, back, flags) in enumerate(steps)
    ]
    return [PacketRecord(steps[0][0], ip(c[0]), ip(d[0]), c[1], d[1], Proto.TCP, 60)] + packets


@settings(max_examples=200, deadline=None)
@given(packet_streams(), st.sampled_from([1.0, 2.5, 15.0]), st.sampled_from([3.0, 6.0, 1800.0]))
# Two episodes of one key starting at the same time: the first closed comes first.
@example(closed_both_ways_then_reopened(10_000_000, 10_000_000), 15.0, 1800.0)
# The key's second episode starts earlier than its first (tolerated reordering).
@example(closed_both_ways_then_reopened(10_500_000, 10_000_000), 15.0, 1800.0)
# A key group split by the idle limit, then by the age limit.
@example(one_key((10_000_000, False, 0), (11_000_001, True, 0), (11_500_000, False, 0)), 1.0, 1800.0)
@example(one_key((10_000_000, False, 0), (11_000_000, True, 0), (12_000_000, False, 0),
                 (13_000_001, True, 0), (13_500_000, False, 0)), 15.0, 3.0)
# Closed both ways (FIN one way, RST back) before the group's last packet, and
# closed both ways on it; a close in one way only twice leaves it open.
@example(one_key((10_000_000, False, TCP_FIN), (10_000_100, True, TCP_RST),
                 (10_000_200, True, TCP_ACK)), 15.0, 1800.0)
@example(one_key((10_000_000, False, TCP_SYN), (10_000_100, True, TCP_FIN),
                 (10_000_200, False, TCP_FIN | TCP_ACK)), 15.0, 1800.0)
@example(one_key((10_000_000, False, TCP_FIN), (10_000_100, False, TCP_RST),
                 (10_000_200, True, TCP_ACK)), 15.0, 1800.0)
# Stamps that step back: a span past the idle limit that stays one episode,
# and an age counted from a stepped-back stamp that splits the group.
@example(one_key((11_000_000, False, 0), (10_200_000, True, 0), (11_500_000, False, 0)), 1.0, 1800.0)
@example(one_key((13_000_000, False, 0), (12_100_000, True, 0), (15_500_000, False, 0)), 15.0, 3.0)
def test_aggregate_equals_the_per_packet_oracle(packets, inactive, active):
    records, kept, accepted, rejected = aggregate_oracle(packets, inactive, active)
    agg = FlowAggregator(inactive, active)
    for pkt in packets:
        agg.add(pkt)
    agg.flush()
    assert agg.records() == records
    assert (agg.accepted, agg.rejected) == (accepted, rejected)
    assert aggregate(packets, inactive, active) == records
    table = aggregate_table(PacketTable.from_records(packets), inactive, active)
    assert table.flows.records() == records
    assert [[packets[i] for i in table.packets[lo:hi].tolist()]
            for lo, hi in zip(table.bounds[:-1].tolist(), table.bounds[1:].tolist())] == kept
    assert (len(table.packets), table.rejected) == (accepted, rejected)


@st.composite
def streams_with_rejects_and_reopened_keys(draw):
    """A packet stream, then a copy of one of its packets more than the
    reorder tolerance behind its latest stamp (rejected), then its first
    packet's key again past every test timeout (that key's next episode),
    then perhaps a second stream after that."""
    head = draw(packet_streams())
    latest = max(pkt.ts for pkt in head)
    late = replace(draw(st.sampled_from(head)),
                   ts=latest - REORDER_TOLERANCE_US - draw(st.integers(1, 1_000_000)))
    again = replace(head[0], ts=latest + 2_000_000_000)
    tail = draw(st.one_of(st.just([]), packet_streams()))
    return head + [late, again] + [replace(pkt, ts=pkt.ts + again.ts) for pkt in tail]


@settings(max_examples=200, deadline=None)
@given(streams_with_rejects_and_reopened_keys(), st.sampled_from([1.0, 2.5, 15.0]),
       st.sampled_from([3.0, 6.0, 1800.0]))
def test_aggregate_packets_equal_the_argsort_order(packets, inactive, active):
    """Each episode's table rows, episodes in flow order, are where the
    stable argsort over the key-sorted rows puts them."""
    _, episodes, _, rejected = aggregate_oracle(packets, inactive, active)
    row = {id(pkt): i for i, pkt in enumerate(packets)}
    episodes = [[row[id(pkt)] for pkt in episode] for episode in episodes]
    key = [canonical_endpoints(p.src_ip, p.src_port, p.dst_ip, p.dst_port, p.proto)[0].sort_tuple()
           for p in packets]
    assert rejected > 0 and len({key[rows[0]] for rows in episodes}) < len(episodes)
    # The rows as aggregate_table sorts them: by key, each key's in arrival order.
    layout = sorted(episodes, key=lambda rows: (key[rows[0]], rows[0]))
    want = flow_order_packets_oracle([i for rows in layout for i in rows], [len(rows) for rows in layout],
                                     [min(packets[i].ts for i in rows) for rows in layout])
    agg = aggregate_table(PacketTable.from_records(packets), inactive, active)
    assert agg.packets.tolist() == want.tolist()
    assert np.diff(agg.bounds).tolist() == [len(rows) for rows in episodes]
    assert agg.rejected == rejected


@settings(max_examples=200, deadline=None)
@given(packet_streams(), st.sampled_from([1.0, 2.5, 15.0]), st.sampled_from([3.0, 6.0, 1800.0]))
def test_traces_from_packets_equals_the_per_episode_grouping(packets, inactive, active):
    traces = traces_from_packets(packets, inactive, active)
    want = traces_oracle(packets, inactive, active)
    assert [(t.sizes.tolist(), t.ts.tolist()) for t in traces] == want
    assert all(t.sizes.dtype == t.ts.dtype == np.int64 for t in traces)


ENDPOINT_PAIRS = (
    ("10.0.0.2", "10.0.0.1", 5000, 80),
    ("10.0.0.7", "10.0.0.8", 53, 53),
    ("10.0.0.3", "10.0.0.4", 4000, 443),
)


@st.composite
def export_records(draw, udp_flags=True):
    """Up to 30 records over three endpoint pairs and both protocols, so a
    datagram holds reciprocal pairs, repeats of one direction and lone records.
    Without ``udp_flags``, UDP records carry no TCP flag bits."""
    records = []
    for _ in range(draw(st.integers(1, 30))):
        src, dst, sport, dport = draw(st.sampled_from(ENDPOINT_PAIRS))
        if draw(st.booleans()):
            src, dst, sport, dport = dst, src, dport, sport
        pkts = draw(st.integers(1, 5000))
        first = draw(st.integers(0, 60_000))
        proto = draw(st.sampled_from((6, 17)))
        records.append((
            src, dst, sport, dport, proto,
            pkts, 20 * pkts + draw(st.integers(0, 100_000)),
            first, first + draw(st.integers(0, 60_000)),
            draw(st.integers(0, 255)) if udp_flags or proto == 6 else 0,
            draw(st.integers(0, 255)),
        ))
    return records


def export_datagram(records):
    """One datagram of ``records``, and the boot time in µs its uptimes count from."""
    sys_uptime, unix_secs = 120_000, 1_700_000_000
    datagram = nf5_datagram(
        [nf5_record(src=src, dst=dst, sport=sport, dport=dport, proto=proto, pkts=pkts,
                    octets=octets, first=first, last=last, flags=flags, tos=tos)
         for src, dst, sport, dport, proto, pkts, octets, first, last, flags, tos in records],
        sys_uptime=sys_uptime, unix_secs=unix_secs,
    )
    return datagram, unix_secs * 1_000_000 - sys_uptime * 1000


@settings(max_examples=200, deadline=None)
@given(export_records())
def test_decode_netflow_equals_the_pairwise_merge_oracle(records):
    datagram, boot_us = export_datagram(records)
    if any(proto == 17 and flags for _, _, _, _, proto, _, _, _, _, flags, _ in records):
        with pytest.raises(MalformedDatagramError, match="UDP record carries TCP flags"):
            decode_netflow_v5(datagram)
    else:
        assert decode_netflow_v5(datagram) == merge_records_oracle(records, boot_us)


@settings(max_examples=200, deadline=None)
@given(export_records(udp_flags=False))
def test_decode_netflow_without_udp_flags_equals_the_pairwise_merge_oracle(records):
    datagram, boot_us = export_datagram(records)
    assert decode_netflow_v5(datagram) == merge_records_oracle(records, boot_us)


# (offset, size) of each field a datagram header or record holds, in bytes.
NF5_HEADER_FIELDS = ((0, 2), (2, 2), (4, 4), (8, 4), (12, 4), (16, 4), (20, 1), (21, 1), (22, 2))
NF5_RECORD_FIELDS = ((0, 4), (4, 4), (8, 4), (12, 2), (14, 2), (16, 4), (20, 4), (24, 4), (28, 4),
                     (32, 2), (34, 2), (36, 1), (37, 1), (38, 1), (39, 1), (40, 2), (42, 2),
                     (44, 1), (45, 1), (46, 2))


@st.composite
def damaged_exports(draw):
    """Up to four valid datagrams of :func:`export_records` (reciprocal
    pairs and repeated keys), then perhaps up to three header or record
    fields replaced with any value of their width, and perhaps the file cut
    at any byte."""
    datagrams = [export_datagram(draw(export_records(udp_flags=False)))[0]
                 for _ in range(draw(st.integers(0, 4)))]
    data = bytearray(b"".join(datagrams))
    starts = np.cumsum([0] + [len(d) for d in datagrams]).tolist()
    damage = draw(st.sampled_from(("none", "fields", "cut", "fields and cut")))
    for _ in range(draw(st.integers(1, 3)) if datagrams and damage.startswith("fields") else 0):
        k = draw(st.integers(0, len(datagrams) - 1))
        count = (len(datagrams[k]) - 24) // 48
        if draw(st.booleans()):
            at, (offset, size) = starts[k], draw(st.sampled_from(NF5_HEADER_FIELDS))
        else:
            at = starts[k] + 24 + 48 * draw(st.integers(0, count - 1))
            offset, size = draw(st.sampled_from(NF5_RECORD_FIELDS))
        value = draw(st.one_of(st.integers(0, 2 ** (8 * size) - 1), st.sampled_from((0, 1, 5, 6, 17, 31))))
        data[at + offset : at + offset + size] = value.to_bytes(size, "big")
    if damage.endswith("cut"):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


def netflow_outcome(read, data: bytes):
    """``read`` over ``data`` as a file: its records, or the type and
    message of the FormatError it raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.bin"
        path.write_bytes(data)
        try:
            return read(path)
        except FormatError as exc:
            return type(exc), str(exc).replace(str(path), "<export>")


@settings(max_examples=500, deadline=None)
@given(damaged_exports())
# A record that ends before it starts and starts before the epoch: the end is named.
@example(nf5_datagram([nf5_record(first=500, last=100)], sys_uptime=1000))
# A bad record, then a truncated datagram: the record is named.
@example(nf5_datagram([nf5_record(), nf5_record(proto=1)]) + nf5_datagram([nf5_record()])[:-1])
# A complete header whose count is 0, at the end of the file: the count is named.
@example(nf5_datagram([nf5_record()]) + nf5_header(count=0))
def test_read_netflow_table_equals_the_per_record_decoder(data):
    want = netflow_outcome(read_netflow_oracle, data)
    assert netflow_outcome(lambda path: read_netflow_table(path).records(), data) == want


# The last stamp whose ceil-ms still falls below export second 2**32.
LAST_EXPORT_US = 2**32 * 1_000_000 - 1000


def counters(draw, top):
    pkts = draw(st.integers(1, top))
    return pkts, draw(st.integers(20 * pkts, max(20 * pkts, top)))


@st.composite
def encodable_flows(draw):
    """0–70 TCP and UDP flows, one or both directions, either initiator;
    counters up to and past 2**32 - 1 and stamps from the epoch to the
    last export second, spread within or past the 32-bit uptime field."""
    top = draw(st.sampled_from((1500, 2**32 - 1, 2**32 + 5)))
    spread = draw(st.sampled_from((1000, 10**9, 2**32 * 1000)))
    base = draw(st.integers(0, LAST_EXPORT_US))
    flows = []
    for _ in range(draw(st.integers(0, 70))):
        proto = draw(st.sampled_from((Proto.TCP, Proto.UDP)))
        first = min(base + draw(st.integers(0, spread)), LAST_EXPORT_US)
        fwd = counters(draw, top)
        # A flow without backward packets may hold any backward byte count.
        bwd = counters(draw, top) if draw(st.booleans()) else (0, draw(st.sampled_from((0, 2**40))))
        flags = (lambda: draw(st.integers(0, 255))) if proto is Proto.TCP else (lambda: 0)
        flows.append(FlowRecord(
            FlowKey(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 65535)),
                    draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 65535)), proto),
            first, min(first + draw(st.integers(0, spread)), LAST_EXPORT_US), *fwd, *bwd,
            flags(), flags(), draw(st.integers(0, 255)), draw(st.booleans()), draw(st.booleans()),
        ))
    return flows


def one_way(i, **changes):
    """UDP flow ``i`` of a set with distinct keys, forward packets only
    unless ``changes`` say otherwise."""
    fields = dict(first_ts=1_700_000_000_000_000 + i, last_ts=1_700_000_001_000_000,
                  fwd_packets=1 + i, fwd_bytes=40 * (1 + i), bwd_packets=0, bwd_bytes=0)
    return FlowRecord(FlowKey(i, 1000 + i, 2**32 - 1 - i, 80, Proto.UDP), **{**fields, **changes})


def encoder_outcome(encode, flows):
    """``encode``'s datagrams, or the type and message of the EncodingError it raised."""
    try:
        return encode(flows)
    except EncodingError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(encodable_flows())
@example([])
@example([one_way(i) for i in range(30)])  # exactly 30 records
@example([one_way(i, initiator_lo=False) for i in range(31)])  # 31 records
@example([one_way(0, bwd_packets=1, bwd_bytes=20)] * 15 + [one_way(1)])  # 31, pairs
@example([one_way(1)] + [one_way(0, bwd_packets=1, bwd_bytes=20)] * 15)  # 31, a pair at the cut
@example([one_way(0, first_ts=0, last_ts=LAST_EXPORT_US)])  # span past the uptime field
@example([one_way(0, fwd_bytes=2**32 - 1), one_way(1, bwd_packets=1, bwd_bytes=2**32 - 1)])
@example([one_way(0), one_way(1, bwd_packets=1, bwd_bytes=2**32)])  # one byte past 32 bits
def test_encode_netflow_equals_the_per_record_encoder(flows):
    want = encoder_outcome(encode_netflow_oracle, flows)
    assert encoder_outcome(encode_netflow_v5, flows) == want


# Header bytes whose values decide whether a frame is kept: ethertype,
# version/IHL, total length, fragment word, protocol.
HEADER_BYTES = (12, 13, 14, 16, 17, 20, 21, 23)


@st.composite
def mutated_frames(draw):
    """A written TCP or UDP frame, then truncated, overwritten in its first
    60 bytes (header fields favoured) and/or extended."""
    proto = draw(st.sampled_from((Proto.TCP, Proto.UDP)))
    frame = bytearray(build_frame_oracle(PacketRecord(
        ts=0, src_ip=draw(st.integers(0, 2**32 - 1)), dst_ip=draw(st.integers(0, 2**32 - 1)),
        src_port=draw(st.integers(0, 65535)), dst_port=draw(st.integers(0, 65535)), proto=proto,
        length=draw(st.integers(40 if proto is Proto.TCP else 28, 120)),
        tcp_flags=draw(st.integers(0, 255)) if proto is Proto.TCP else 0,
        tos=draw(st.integers(0, 255)),
    )))
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.one_of(st.sampled_from(HEADER_BYTES), st.integers(0, 59)))
        if position < len(frame):
            frame[position] = draw(st.one_of(
                st.integers(0x40, 0x4F),               # IPv4 with any IHL
                st.sampled_from((0x00, 0x08, 0x20, 0x3F, 6, 17)),
                st.integers(0, 255),
            ))
    if draw(st.booleans()):
        del frame[draw(st.integers(0, len(frame))):]
    frame += bytes(draw(st.lists(st.integers(0, 255), max_size=24)))
    return bytes(frame)


PCAP_TS = st.integers(0, 2**32 * 1_000_000 - 1)


def read_capture(data: bytes, window: int | None = None):
    """PcapReader over ``data`` as a file: (packets, frames, skipped), or the
    message of the FormatError it raised; ``window`` overrides its read size."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        if window is not None:
            patch.setattr(pcap, "_WINDOW", window)
        path = Path(tmp) / "capture.pcap"
        path.write_bytes(data)
        try:
            reader = PcapReader(path)
            return list(reader), reader.total_frames, reader.skipped
        except FormatError as exc:
            return str(exc).replace(str(path), "<capture>")


def walk_capture(data: bytes):
    """:func:`read_pcap_oracle` over ``data``, in :func:`read_capture`'s shape."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "capture.pcap"
        path.write_bytes(data)
        try:
            packets, frames = read_pcap_oracle(path)
            return packets, frames, frames - len(packets)
        except PcapDecodeError as exc:
            return str(exc).replace(str(path), "<capture>")


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(PCAP_TS, mutated_frames()), max_size=8), st.sampled_from("<>"))
def test_parse_frame_equals_the_byte_slicing_parser(frames, endian):
    """Frame by frame, the reader keeps what the oracle parses, equal field for field."""
    want = [parse_frame_oracle(frame, ts) for ts, frame in frames]
    got = read_capture(pcap_file(frames, endian))
    assert got == ([pkt for pkt in want if pkt is not None], len(frames), want.count(None))


@st.composite
def damaged_captures(draw):
    """A capture of up to 12 frames in either byte order, the frames
    written or mutated, then perhaps a ts_usec of 1e6 or more or any
    incl_len put in one record header, then perhaps cut at any byte
    after the global header."""
    endian = draw(st.sampled_from("<>"))
    frames = draw(st.lists(st.tuples(PCAP_TS, st.one_of(
        mutated_frames(),
        st.builds(eth_ipv4_frame, proto=st.sampled_from((6, 17)),
                  total_length=st.integers(28, 600)),
    )), max_size=12))
    data = bytearray(pcap_file(frames, endian))
    headers = [24]
    for _, frame in frames[:-1]:
        headers.append(headers[-1] + 16 + len(frame))
    if frames and draw(st.booleans()):
        field = draw(st.sampled_from((4, 8)))  # ts_usec or incl_len
        value = draw(st.integers(1_000_000, 2**32 - 1) if field == 4 else st.integers(0, 2**32 - 1))
        at = draw(st.sampled_from(headers)) + field
        data[at : at + 4] = value.to_bytes(4, "little" if endian == "<" else "big")
    if draw(st.booleans()):
        del data[draw(st.integers(24, len(data))):]
    return bytes(data)


@settings(max_examples=500, deadline=None)
@given(damaged_captures(), st.sampled_from((None, 1, 16, 100, 333)))
def test_reader_equals_the_per_record_walk(data, window):
    """Same packets and counts, or the same error at the same byte offset,
    whether a read window holds the whole file or less than one record."""
    assert read_capture(data, window) == walk_capture(data)


def tcp_behind_the_longest_ip_header(cut: int | None = None) -> bytes:
    """A TCP frame behind a 60-byte IPv4 header (IHL 15), perhaps cut to
    ``cut`` bytes: the reader's transport gather reaches furthest into it."""
    options = bytes(range(1, 41))
    tcp = (4321).to_bytes(2, "big") + (443).to_bytes(2, "big") + bytes(9) + bytes([TCP_SYN | TCP_ACK]) + bytes(6)
    return eth_ipv4_frame(ver_ihl=0x4F, total_length=80, transport=options + tcp)[:cut]


# Records whose gathers reach furthest: past the record's start (TCP flags
# after a 60-byte IPv4 header, the frame whole or cut just after them), and
# past the frame's end (a 42-byte UDP frame, 6 bytes short of the 14
# transport bytes gathered).
FAR_REACHING_FRAMES = {
    "tcp_ihl15": tcp_behind_the_longest_ip_header(),
    "tcp_ihl15_cut_after_flags": tcp_behind_the_longest_ip_header(cut=14 + 60 + 14),
    "udp_42_bytes": eth_ipv4_frame(proto=17, sport=53, dport=5353, total_length=28),
}


@pytest.mark.parametrize("endian", "<>")
@pytest.mark.parametrize("frame", FAR_REACHING_FRAMES.values(), ids=FAR_REACHING_FRAMES)
def test_reader_equals_the_walk_on_a_far_reaching_record_last(frame, endian):
    """The record last in the file, with the file in one window, in a window
    that ends with it, and then with a record after it in the next window."""
    lead = eth_ipv4_frame(flags=TCP_SYN)
    assert len(frame) in (42, 88, 94)
    alone = pcap_file([(1_000_000, lead), (2_000_000, frame)], endian)
    followed = pcap_file([(1_000_000, lead), (2_000_000, frame), (3_000_000, lead)], endian)
    through = len(alone) - 24  # the bytes up to the end of ``frame``
    for data, window in ((alone, None), (alone, through), (followed, through)):
        got = read_capture(data, window)
        assert got == walk_capture(data)
        assert got[2] == 0  # every frame kept


@settings(max_examples=300, deadline=None)
@given(damaged_captures(), st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=6),
       st.sampled_from((None, 16, 100)))
def test_reader_returns_packets_or_raises_format_error(data, writes, window):
    """With any bytes overwritten, the global header included, the reader
    yields valid packets that add up with the skipped frames, or refuses
    the file with a FormatError; nothing else escapes."""
    data = bytearray(data)
    for at, value in writes:
        if at < len(data):
            data[at] = value
    got = read_capture(bytes(data), window)
    if not isinstance(got, str):  # not refused
        packets, frames, skipped = got
        assert all(isinstance(pkt, PacketRecord) for pkt in packets)
        assert frames == len(packets) + skipped


@pytest.mark.parametrize("n, p", [(12, 1 / 8), (40, 1 / 20)])
@pytest.mark.parametrize("chunk_budget", [None, 70, 350])
def test_simulate_estimates_equals_per_trial_sampling(monkeypatch, n, p, chunk_budget):
    """Trial t of simulate_estimates is bernoulli_sample + estimate on row t of
    the same float32 uniforms, in one chunk or in chunks of a few trials."""
    rng = np.random.default_rng(5)
    ts = 1_000_000 + np.cumsum(rng.integers(0, 300_000, n))
    sizes = rng.integers(40, 1500, n)
    packets = [mk_packet(ts=int(t), length=int(size)) for t, size in zip(ts, sizes)]
    cfg = SamplingConfig(p, seed=11)
    if chunk_budget is not None:
        monkeypatch.setattr(sampling, "_CHUNK_BUDGET", chunk_budget)
    l_hat, s_hat, fd_hat = simulate_estimates(trace_from_packets(packets), cfg, MIN_TRIALS)
    uniforms = np.random.default_rng(cfg.seed).random((MIN_TRIALS, n), dtype=np.float32)
    oracle = [estimate(bernoulli_sample(packets, cfg, row), p) for row in uniforms]
    assert {e.sampled_count for e in oracle} >= {0, 1, 2}
    assert l_hat.tolist() == [e.l_hat for e in oracle]
    assert s_hat.tolist() == [e.s_hat for e in oracle]
    # The library subtracts times relative to the first packet, so it may round differently.
    np.testing.assert_allclose(fd_hat, [e.fd_hat for e in oracle], rtol=0, atol=1e-9)


# Per column dtype, the values drawn: those the rules take, then those they refuse.
TRACE_VALUES = {
    "sizes": {np.int64: ([1, 40, 1500, 65535], [0, -1, 65536]),
              np.uint16: ([1, 40, 65535], [0]),
              np.float64: ([], [40.0, 40.5, np.nan])},
    "ts": {np.int64: ([0, 1, 5, 2**63 - 1], [-1]),
           np.uint64: ([0, 1, 5, 2**63 - 1], [2**63, 2**64 - 1]),
           np.float64: ([], [0.0, 5.0, np.nan])},
}


@st.composite
def trace_columns(draw):
    """Sizes and stamps columns of one dtype each and 1-4 flows' bounds over
    them; a column may hold values the rules refuse, and a flow's values are
    mostly sorted, so stamps step back at flow bounds and sometimes within."""
    lengths = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    columns = []
    for name, values in TRACE_VALUES.items():
        clean = draw(st.integers(0, 3)) > 0  # three columns in four hold values the rules take
        dtype = draw(st.sampled_from([d for d, (good, _) in values.items() if good or not clean]))
        good, bad = values[dtype]
        pool = st.sampled_from(good if clean else good + bad)
        flows = [draw(st.lists(pool, min_size=n, max_size=n)) for n in lengths]
        flows = [flow if draw(st.integers(0, 3)) == 0 else sorted(flow) for flow in flows]
        columns.append(np.array([v for flow in flows for v in flow], dtype=dtype))
    return (*columns, np.cumsum([0] + lengths))


@settings(max_examples=300, deadline=None)
@given(trace_columns())
@example((np.array([40, 60]), np.array([5, 1]), np.array([0, 1, 2])))  # a step back between flows
@example((np.array([40, 60]), np.array([5, 1], dtype=np.uint64), np.array([0, 2])))
def test_trace_table_takes_the_columns_the_per_flow_rules_take(columns):
    sizes, ts, bounds = columns
    rows = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    taken = []
    for lo, hi in rows:
        try:
            check_trace_oracle(sizes[lo:hi], ts[lo:hi])
        except ContractError:
            taken.append(False)
            with pytest.raises(ContractError):
                FlowTrace(sizes[lo:hi], ts[lo:hi])
        else:
            taken.append(True)
            FlowTrace(sizes[lo:hi], ts[lo:hi])
    if not all(taken):
        with pytest.raises(ContractError):
            TraceTable(sizes, ts, bounds)
        return
    table = TraceTable(sizes, ts, bounds)
    assert table.sizes.dtype == table.ts.dtype == np.int64
    assert len(table) == len(rows)
    assert [(t.sizes.tolist(), t.ts.tolist()) for t in table] == [
        (sizes[lo:hi].tolist(), ts[lo:hi].tolist()) for lo, hi in rows]


def ramp_trace(n: int) -> FlowTrace:
    return FlowTrace(sizes=np.arange(n) % 1400 + 40, ts=1_700_000_000_000_000 + np.arange(n) * 7919)


@pytest.mark.parametrize("lengths", [(20, 20, 20), (80, 40, 7, 1), (3, 80, 3, 40, 80)],
                         ids=["equal", "descending", "mixed"])
@pytest.mark.parametrize("chunk_budget", [None, 9970, 300])
def test_sampling_report_reads_flows_in_any_length_order(monkeypatch, lengths, chunk_budget):
    traces = [ramp_trace(n) for n in lengths]
    if chunk_budget is not None:
        monkeypatch.setattr(sampling, "_CHUNK_BUDGET", chunk_budget)
    report = build_sampling_report(traces, [1, 16, 64], seed=5, trials=1000)
    assert report.rows == sampling_report_oracle(traces, [1, 16, 64], 5, 1000).rows


@st.composite
def flow_traces(draw):
    """1-10 traces of 1-80 packets; per trace, no, some or all timestamp gaps are 0."""
    traces = []
    for _ in range(draw(st.integers(1, 10))):
        n = draw(st.integers(1, 80))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        moving = rng.random(n) < draw(st.sampled_from((0.0, 0.5, 1.0)))
        ts = 1_700_000_000_000_000 + np.cumsum(rng.integers(1, 400_000, n) * moving)
        traces.append(FlowTrace(sizes=rng.integers(28, 1501, n), ts=ts))
    return traces


@settings(max_examples=200, deadline=None)
@given(
    flow_traces(),
    st.lists(st.sampled_from((1, 2, 3, 8, 64, 1024)) | st.integers(1, 4096),
             min_size=1, max_size=5),
    st.integers(MIN_TRIALS, 2500),
    st.integers(0, 2**32 - 1),
    st.sampled_from((None, 9970)),
)
@example([FlowTrace(sizes=np.array([40, 1500, 60]), ts=np.array([5, 5, 9]))], [1, 8, 8], 1000, 3, 9970)
# A 9,970-byte budget at 1:64 draws stretches of 1,748 positions: the 5- and
# 30-packet flows finish after 3 and 18 of them and the 80-packet flow after
# 46; each stretch carries its survivors in the last 80 positions over to the
# next, since a trial cut at the stretch's end is read once it is whole.
@example([ramp_trace(n) for n in (5, 30, 80)], [64, 128], 1000, 7, 9970)
def test_sampling_report_equals_the_per_ratio_report(traces, ratios, trials, seed, chunk_budget):
    with pytest.MonkeyPatch.context() as patch:
        if chunk_budget is not None:
            patch.setattr(sampling, "_CHUNK_BUDGET", chunk_budget)  # many chunks of a few trials
        report = build_sampling_report(traces, ratios, seed=seed, trials=trials)
        estimates = [simulate_estimates(traces[0], SamplingConfig(1.0 / n, seed), trials)
                     for n in ratios]
    oracle = sampling_report_oracle(traces, ratios, seed, trials)
    assert report.rows == oracle.rows
    assert report.to_json_dict() == oracle.to_json_dict()
    for got, n in zip(estimates, ratios):
        want = mc_estimates_oracle(traces[0], 1.0 / n, seed, trials)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(flow_traces(), st.sampled_from((1, 2, 3, 8, 64, 1024)) | st.integers(1, 4096),
       st.integers(0, 2**32 - 1))
def test_dre_is_np_var_and_np_mean_of_the_estimates_to_rounding(traces, n, seed):
    """A cell is one rounding of an exact rational; np.var and np.mean of the
    per-trial estimates round at every step and land within 1e-13 of it."""
    cfg = SamplingConfig(1.0 / n, seed)
    for trace in traces:
        l_hat, s_hat, fd_hat = simulate_estimates(trace, cfg, MIN_TRIALS)
        want = (np.var(l_hat / trace.length, ddof=1), np.var(s_hat / trace.size, ddof=1),
                np.mean(trace.duration - fd_hat))
        for metric, value in zip(Metric, want):
            assert dre(metric, trace, cfg, MIN_TRIALS) == pytest.approx(value, rel=1e-13, abs=0)


def test_dre_sums_past_int64_stay_exact(monkeypatch):
    """5,000 packets of 65,535 bytes: trials x sum(S^2) passes 2**63, and so
    does one 100-trial chunk's sum at 1:1, so the byte sums add as Python ints
    and still give the exact cells."""
    trace = FlowTrace(sizes=np.full(5000, 65535), ts=np.arange(5000) * 10)
    monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 100 * 5000 * 50)  # 100 trials a chunk at 1:1
    assert 100 * trace.size**2 >= 2**63
    for metric in Metric:
        assert dre(metric, trace, SamplingConfig(1.0, seed=2), MIN_TRIALS) == 0.0
    mask = survivor_mask_oracle(trace, 0.5, 2, MIN_TRIALS)
    for metric in Metric:
        assert dre(metric, trace, SamplingConfig(0.5, seed=2), MIN_TRIALS) == dre_oracle(metric, trace, 0.5, mask)


@st.composite
def shared_length_traces(draw):
    """2-12 traces in any order whose lengths take 1-3 values, each value
    held by 2-4 traces, so every length's flows share their runs."""
    traces = []
    for n in draw(st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True)):
        for _ in range(draw(st.integers(2, 4))):
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            moving = rng.random(n) < draw(st.sampled_from((0.0, 0.5, 1.0)))
            ts = 1_700_000_000_000_000 + np.cumsum(rng.integers(1, 400_000, n) * moving)
            traces.append(FlowTrace(sizes=rng.integers(28, 1501, n), ts=ts))
    return draw(st.permutations(traces))


@settings(max_examples=60, deadline=None)
@given(
    shared_length_traces(),
    st.lists(st.sampled_from((2, 3, 8, 64, 1024)) | st.integers(1, 4096), max_size=3),
    st.integers(0, 2**32 - 1),
    st.sampled_from((None, 9970, 300)),
    st.data(),
)
def test_sampling_report_of_flows_sharing_a_length_equals_the_per_ratio_report(
        traces, ratios, seed, chunk_budget, data):
    ratios = [1, *ratios]
    trace = data.draw(st.sampled_from(traces))
    with pytest.MonkeyPatch.context() as patch:
        if chunk_budget is not None:
            patch.setattr(sampling, "_CHUNK_BUDGET", chunk_budget)  # at 300, one trial a stretch
        report = build_sampling_report(traces, ratios, seed=seed, trials=MIN_TRIALS)
        estimates = [simulate_estimates(trace, SamplingConfig(1.0 / n, seed), MIN_TRIALS) for n in ratios]
    oracle = sampling_report_oracle(traces, ratios, seed, MIN_TRIALS)
    assert report.rows == oracle.rows
    assert report.to_json_dict() == oracle.to_json_dict()
    for got, n in zip(estimates, ratios):
        want = mc_estimates_oracle(trace, 1.0 / n, seed, MIN_TRIALS)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_length_whose_sums_pass_int64_for_one_flow_keeps_every_flow_exact(monkeypatch):
    """Two 5,000-packet flows share their runs: at 65,535 bytes a packet one
    flow's trials x sum(S^2) passes 2**63, at 40 bytes the other's does not,
    so the length's sums add as Python ints and each flow's cells are still
    its standalone dre's."""
    heavy, light = (FlowTrace(sizes=np.full(5000, size), ts=np.arange(5000) * 10) for size in (65535, 40))
    assert MIN_TRIALS * heavy.size**2 >= 2**63 > MIN_TRIALS * max(light.size**2, 49990)
    monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 100 * 5000 * 50)  # 100 trials a chunk at 1:1
    rates = [1.0, 0.5]
    cells = sampling._mc_degradations(TraceTable(np.concatenate((heavy.sizes, light.sizes)),
                                                 np.concatenate((heavy.ts, light.ts)), (0, 5000, 10000)),
                                      rates, 2, MIN_TRIALS)
    for f, trace in enumerate((heavy, light)):
        for j, p in enumerate(rates):
            want = [dre(metric, trace, SamplingConfig(p, seed=2), MIN_TRIALS) for metric in Metric]
            assert cells[:, j, f].tolist() == want
    assert not cells[:, 0].any()  # nothing is lost at 1:1


# --------------------------------------------------------------------------
# The columnar ingest tail against the per-flow one
# --------------------------------------------------------------------------

@st.composite
def flow_records(draw):
    """A consistent record whose duration is often zero, whose backward way is
    often empty and whose byte totals reach past 1e9."""
    proto = draw(st.sampled_from((Proto.TCP, Proto.UDP)))
    low, high = sorted((draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 65535)))
                       for _ in range(2))
    key = FlowKey(*low, *high, proto)
    first_ts = draw(st.integers(0, 2**62))
    span = draw(st.sampled_from((0, 0, 1, 999, 1000, 1001)) | st.integers(0, 10**13))
    fwd_packets = draw(st.integers(1, 10**7))
    bwd_packets = draw(st.sampled_from((0, 0, 1)) | st.integers(0, 10**7))
    extra = st.sampled_from((0, 1)) | st.integers(0, 10**12)
    flags = st.integers(0, 255) if proto is Proto.TCP else st.just(0)
    return FlowRecord(
        key=key, first_ts=first_ts, last_ts=first_ts + span,
        fwd_packets=fwd_packets, fwd_bytes=20 * fwd_packets + draw(extra),
        bwd_packets=bwd_packets, bwd_bytes=20 * bwd_packets + draw(extra) if bwd_packets else 0,
        tcp_flags_fwd=draw(flags), tcp_flags_bwd=draw(flags), tos=draw(st.integers(0, 255)),
        complete=draw(st.booleans()), initiator_lo=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(flow_records(), max_size=20))
@example([])
def test_feature_matrix_equals_the_per_record_formulas(records):
    table = FlowTable.from_records(records)
    assert table.records() == records
    matrix = feature_matrix(table)
    assert matrix.dtype == np.float64 and matrix.shape == (len(records), 16)
    assert [tuple(row) for row in matrix.tolist()] == [featurize_oracle(r) for r in records]
    assert [featurize(r).values() for r in records] == [featurize_oracle(r) for r in records]


# Finite values that print as integers, in fixed or exponent form, rounded,
# subnormal or signed zero.
CELL_VALUES = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from((0.0, -0.0, 1e-5, 1e-4, 123456789.0, 1234567890.0, 1e16, 5e-324))
               | st.integers(-10**12, 10**12).map(float))
LABELS = st.text(alphabet=st.sampled_from('ab ,"\n\r\t\'é;'), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(LABELS, max_size=5, unique=True),
       st.lists(st.tuples(st.lists(CELL_VALUES, min_size=16, max_size=16), st.integers(-1, 4)),
                max_size=12))
def test_write_dataset_equals_the_per_cell_writer(alphabet, rows):
    codes = [code if code < len(alphabet) else -1 for _, code in rows]
    ds = Dataset.from_arrays(np.array([values for values, _ in rows]).reshape(-1, 16), codes,
                             alphabet)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_dataset(ds, got)
        write_dataset_oracle(ds, want)
        assert got.read_bytes() == want.read_bytes()


# Values at the edges of the writer's %d columns: signed zero, the integers
# either side of 1e9 in magnitude, 2**53, a fraction and the non-finite values.
EDGE_CELLS = (-0.0, 0.0, 999999999.0, -999999999.0, 1e9, -1e9, 2.0**53, 0.5,
              float("inf"), float("nan"))
EDGE_ROW = list(EDGE_CELLS) + [7.0] * (16 - len(EDGE_CELLS))
# Columns of integers, of integers beside edge values, or of any cells.
COLUMN_CELLS = st.sampled_from((
    st.integers(-10**9 - 2, 10**9 + 2).map(float),
    st.integers(-3, 3).map(float) | st.sampled_from(EDGE_CELLS),
    CELL_VALUES | st.sampled_from(EDGE_CELLS),
))


@st.composite
def written_datasets(draw):
    n = draw(st.integers(0, 8))
    alphabet = draw(st.lists(LABELS, max_size=3, unique=True))
    columns = [draw(st.lists(draw(COLUMN_CELLS), min_size=n, max_size=n)) for _ in range(16)]
    codes = draw(st.lists(st.integers(-1, len(alphabet) - 1), min_size=n, max_size=n))
    return Dataset.from_arrays(np.array(columns).T.reshape(n, 16), codes, alphabet)


@settings(max_examples=300, deadline=None)
@given(written_datasets())
@example(Dataset.from_arrays([EDGE_ROW, [1.0] * 16], [0, -1], ("a",)))
@example(Dataset.from_arrays([EDGE_ROW], [0], ("a",)))
def test_write_dataset_equals_the_per_row_writer(ds):
    """Columns written with %d give the bytes of %.9g for every cell."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_dataset(ds, got)
        write_dataset_rows_oracle(ds, want)
        assert got.read_bytes() == want.read_bytes()


# Columns of ties with signed zeros, of small integers, or of any finite floats.
SELECTION_CELLS = st.sampled_from((
    st.sampled_from((-0.0, 0.0, 1.0, 2.5)),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
))


@st.composite
def selection_cases(draw):
    """A dataset over an alphabet in drawn order, some labels maybe unused,
    with constant and tied columns, and a delta and bin count."""
    n = draw(st.integers(1, 30))
    alphabet = draw(st.lists(st.sampled_from("zyxcba"), min_size=1, max_size=5, unique=True))
    codes = draw(st.lists(st.integers(0, len(alphabet) - 1), min_size=n, max_size=n))
    columns = []
    for _ in range(16):
        cells = draw(SELECTION_CELLS)
        columns.append([draw(cells)] * n if draw(st.booleans())
                       else draw(st.lists(cells, min_size=n, max_size=n)))
    ds = Dataset.from_arrays(np.array(columns).T, codes, alphabet)
    bins = draw(st.sampled_from((2, 3, 10, n - 1, n, n + 1, 2**63 - 1)))
    return ds, draw(st.sampled_from((-1, 0, 0.05, 0.2, 1))), bins


def selection_outcome(select, ds, delta, bins):
    """The selection document as JSON text, or the error's type and message."""
    try:
        return json.dumps(select(ds, delta, bins).to_json_dict())
    except ContractError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(selection_cases())
@example((Dataset.from_arrays([[-0.0] * 16, [0.0] * 16, [1.0] * 16, [0.0] * 8 + [2.0] * 8],
                              [2, 0, 2, 0], ("z", "unused", "a")), 0, 3))
def test_fcbf_select_equals_the_filter_with_unique_in_every_su(case):
    """Binned, ranked and scored once per feature, the filter writes the same
    document as one np.unique per SU call, bit for bit."""
    ds, delta, bins = case
    assert (selection_outcome(fcbf_select, ds, delta, bins)
            == selection_outcome(fcbf_select_oracle, ds, delta, bins))


# Finite numbers as the writer prints them (%.9g), as repr prints them, and
# integers from 1e9 up, which %.9g would round.
FEATURE_CELLS = (st.floats(allow_nan=False, allow_infinity=False).map("{:.9g}".format)
                 | st.floats(allow_nan=False, allow_infinity=False).map(repr)
                 | st.integers(10**9, 10**300).map(str))
FEATURE_LABELS = st.none() | st.text(
    st.sampled_from(' ,"\r\n#ab') | st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
# Text that NumPy's parser and the csv module might read differently.
DAMAGE = st.sampled_from(("\n", "\r\n", "\r", ",", '"', " ", "_", "١", "\x00", "\x1c", "\x1f",
                          "e", "-", ".", "nan", "inf", "#", "x"))


def csv_cell(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def feature_csv_texts(draw):
    """A valid feature CSV: LF or CRLF line ends, with or without the last
    one, labels holding CSV syntax, unlabeled rows, perhaps every cell
    quoted, perhaps no rows."""
    end = draw(st.sampled_from(("\n", "\r\n")))
    quote = draw(st.booleans())
    rows = draw(st.lists(st.tuples(st.lists(FEATURE_CELLS, min_size=16, max_size=16),
                                   FEATURE_LABELS), max_size=6))
    lines = [",".join(FEATURE_NAMES + ("label",))]
    lines += [",".join(csv_cell(cell, quote) for cell in [*cells, label or ""])
              for cells, label in rows]
    return end.join(lines) + draw(st.sampled_from((end, "")))


@st.composite
def damaged_texts(draw, text):
    """``text`` with 1-3 pieces of ``DAMAGE`` put in, characters cut out, or
    every line end turned into CR alone."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(("insert", "insert", "cut", "cr")))
        if action == "insert":
            text = text[:at] + draw(DAMAGE) + text[at:]
        elif action == "cut":
            text = text[:at] + text[at + draw(st.integers(1, 3)):]
        else:
            text = re.sub("\r?\n", "\r", text)
    return text


def tightened(text: str, error: SchemaError) -> bool:
    """Whether ``error`` refuses, on purpose, a file the per-cell reader takes:
    a line that ends in CR alone, or a number with ``_`` or a character other
    than ASCII, which float() takes and NumPy does not."""
    if str(error).endswith("line ends must be LF or CRLF"):
        return bool(re.search("\r(?!\n)", text))
    rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    return str(error).endswith("is not an ASCII decimal number") and any(
        "_" in cell or not cell.strip().isascii() for row in rows for cell in row[:16])


def read_feature_text(reader, text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            return reader(path)
        except SchemaError as exc:
            return exc


@settings(max_examples=500, deadline=None)
@given(st.data(), feature_csv_texts(), st.booleans())
@example(None, ",".join(FEATURE_NAMES + ("label",)) + "\n", False)
def test_read_dataset_equals_the_per_cell_reader(data, text, damage):
    """The NumPy reader reads a valid file as the per-cell reader does; on a
    damaged file it refuses whatever that reader refuses, and refuses more
    only where it is meant to be stricter."""
    if damage:
        text = data.draw(damaged_texts(text))
    want = read_feature_text(read_dataset_oracle, text)
    got = read_feature_text(read_dataset, text)
    if isinstance(want, SchemaError):
        assert damage and isinstance(got, SchemaError), want
    elif damage and isinstance(got, SchemaError):
        assert tightened(text, got), got
    else:
        assert got == want and got.alphabet == want.alphabet


BAD_IPS = ("10.1", "01.2.3.4", "1.2.3.256", "1.2.3", "1.2.3.4.5", " 1.2.3.4", "1.2.3.4 ",
           "1.2.3.04", "256.0.0.1", "1..2.3", "", "1.2.3.4/32", "::1", "１.2.3.4",
           "0x1.2.3.4", "1.2.3.-4", "+1.2.3.4")
GOOD_IPS = ("0.0.0.0", "255.255.255.255", "10.0.0.1", "192.168.0.1", "1.2.3.4", "100.20.3.0")
BAD_INTS = ("-1", "65536", "80.0", " 80", "+80", "8_0", "x", "", "1e3", "٨٠",
            str(2**64), "-0")
PROTOS = ("TCP", "tcp", " UDP ", "6", "17", "Tcp", "icmp", "", "06", "udp\t")


@st.composite
def label_files(draw):
    """The text of a label CSV: valid rows, some spelled loosely, then a few
    semantic mutations (addresses, ports, stamps, protocols, field counts,
    duplicate keys, quoted labels)."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        rows.append([
            draw(st.sampled_from(GOOD_IPS)), str(draw(st.integers(0, 65535))),
            draw(st.sampled_from(GOOD_IPS)), str(draw(st.integers(0, 65535))),
            draw(st.sampled_from(PROTOS[:6])), str(draw(st.integers(0, 2**62))),
            draw(st.sampled_from(("web", "bulk", "", "a,b", 'say "hi"', "two\nlines"))),
        ])
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(("ip", "port", "stamp", "proto", "fields", "duplicate")))
        if kind == "ip":
            row[draw(st.sampled_from((0, 2)))] = draw(st.sampled_from(BAD_IPS + GOOD_IPS))
        elif kind == "port":
            row[draw(st.sampled_from((1, 3)))] = draw(st.sampled_from(BAD_INTS))
        elif kind == "stamp":
            if len(row) > 5:  # two "fields" pops may have taken the stamp away
                row[5] = draw(st.sampled_from(BAD_INTS + (str(2**63), "0")))
        elif kind == "proto":
            row[4] = draw(st.sampled_from(PROTOS))
        elif kind == "fields":
            if draw(st.booleans()):
                row.pop()
            else:
                row.append("extra")
        else:
            twin = list(row)
            if len(twin) == 7 and draw(st.booleans()):
                twin[0:4] = twin[2:4] + twin[0:2]  # the same key, endpoints swapped
            rows.insert(draw(st.integers(0, len(rows))), twin)
    buffer = io.StringIO()
    csv.writer(buffer).writerows([HEADER] + rows)
    return buffer.getvalue()


@settings(max_examples=500, deadline=None)
@given(label_files())
@example("ip_lo,port_lo,ip_hi,port_hi,proto,first_ts,label\n10.1,1,2.3.4.5,2,TCP,1,a\n")
def test_load_labels_equals_the_ipaddress_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            want = load_labels_oracle(path)
        except FormatError as exc:
            with pytest.raises(type(exc)) as got:
                load_labels(path)
            assert str(got.value) == str(exc)
            return
        labels = load_labels(path)
    assert label_rows(labels) == want and len(labels) == len(want)
    index = {(row.key, row.first_ts): row.label for row in want}
    for row in want:
        for ts in (row.first_ts, row.first_ts + 1):
            assert labels.lookup(row.key, ts) == index.get((row.key, ts))
    starts = [(row.key, ts) for row in want for ts in (row.first_ts, 0) if ts < 2**63]
    flows = FlowTable.from_records(FlowRecord(key, ts, ts, 1, 20, 0, 0) for key, ts in starts)
    assert labels.join(flows) == [index.get(start) for start in starts]


@st.composite
def writable_packets(draw):
    """TCP and UDP packets over the whole range the writer takes: any flags
    and ToS byte, lengths from the protocol minimum to 65,535 and stamps up
    to the last 32-bit second."""
    packets = []
    for _ in range(draw(st.integers(0, 6))):
        proto = draw(st.sampled_from((Proto.TCP, Proto.UDP)))
        packets.append(PacketRecord(
            ts=draw(PCAP_TS), src_ip=draw(st.integers(0, 2**32 - 1)),
            dst_ip=draw(st.integers(0, 2**32 - 1)), src_port=draw(st.integers(0, 65535)),
            dst_port=draw(st.integers(0, 65535)), proto=proto,
            length=draw(st.integers(40 if proto is Proto.TCP else 28, 65535)),
            tcp_flags=draw(st.integers(0, 255)) if proto is Proto.TCP else 0,
            tos=draw(st.integers(0, 255)),
        ))
    return packets


LAST_PACKETS = [
    PacketRecord(2**32 * 1_000_000 - 1, 2**32 - 1, 0, 65535, 0, Proto.TCP, 65535, 255, 255),
    PacketRecord(2**32 * 1_000_000 - 1, 0, 2**32 - 1, 0, 65535, Proto.UDP, 65535, 0, 255),
    PacketRecord(0, 1, 2, 3, 4, Proto.TCP, 40, 0, 0),
    PacketRecord(0, 1, 2, 3, 4, Proto.UDP, 28, 0, 0),
    # IPv4 header words summing to 0x4FFFC: one fold leaves a carry for the second.
    PacketRecord(0, 2**32 - 1, 2**32 - 1, 0, 0, Proto.TCP, 31482, 0, 0),
]


@settings(max_examples=300, deadline=None)
@given(writable_packets())
@example([])
@example(LAST_PACKETS)
def test_write_pcap_equals_the_struct_writer(packets):
    """Byte for byte, from the records' int64 table and from the narrow
    table the reader builds of the file."""
    with tempfile.TemporaryDirectory() as tmp:
        want, got, again = (Path(tmp) / name for name in ("want.pcap", "got.pcap", "again.pcap"))
        assert write_pcap_oracle(want, packets) == len(packets)
        assert write_pcap(got, PacketTable.from_records(packets)) == len(packets)
        assert got.read_bytes() == want.read_bytes()
        assert write_pcap(again, PcapReader(got).table()) == len(packets)
        assert again.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_write_pcap_in_row_chunks_equals_the_struct_writer(monkeypatch, tmp_path, rows):
    """The writer scatters header rows a chunk at a time, the last chunk of
    each protocol short when the chunk size does not divide its rows."""
    monkeypatch.setattr(pcap, "_SCATTER_ROWS", rows)
    packets = LAST_PACKETS * 2
    want, got = tmp_path / "want.pcap", tmp_path / "got.pcap"
    write_pcap_oracle(want, packets)
    assert write_pcap(got, PacketTable.from_records(packets)) == len(packets)
    assert got.read_bytes() == want.read_bytes()


def packet_spec(seed, proto, count, flows=30):
    size = {"kind": "normal", "mean": 300, "std": 400}  # clipped at both ends
    iat = {"kind": "exponential", "mean": 0.02}
    return parse_synth_spec({"seed": seed, "classes": [
        {"label": "a", "flows": flows, "proto": proto, "server_port": 443,
         "packets": {"count": count, "size": size, "iat": iat}},
        {"label": "b", "flows": flows // 2, "proto": "udp", "server_port": 5060,
         "packets": {"count": {"kind": "uniform_int", "low": 1, "high": 12}, "size": size, "iat": iat}},
    ]})


SHORT_FLOWS = {"kind": "uniform_int", "low": 1, "high": 3}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("proto, count", [
    ("tcp", {"kind": "fixed", "value": 1}),  # one-packet flows
    ("udp", {"kind": "fixed", "value": 1}),
    ("tcp", SHORT_FLOWS),
    ("tcp", {"kind": "fixed", "value": 9}),
    ("tcp", {"kind": "normal", "mean": 20, "std": 15}),
])
def test_generate_packets_equals_the_per_packet_generator(seed, proto, count):
    spec = packet_spec(seed, proto, count)
    table, labels = generate_packets(spec)
    want_packets, want_labels = generate_packets_oracle(spec)
    assert table.records() == want_packets
    assert labels == want_labels


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_short_flows_include_multi_packet_flows_the_server_never_answers(seed):
    """The short-flow spec above reaches the all-forward flag rules."""
    packets, labels = generate_packets_oracle(packet_spec(seed, "tcp", SHORT_FLOWS))
    clients = Counter((p.src_ip, p.src_port) for p in packets if p.src_ip >> 24 == 10)
    answered = {(p.dst_ip, p.dst_port) for p in packets if p.src_ip >> 24 != 10}
    assert any(n > 1 and client not in answered for client, n in clients.items())
