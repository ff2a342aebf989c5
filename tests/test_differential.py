"""Library code against the code it replaced (oracles in helpers).

The batch scorer, the fold assignment, the bincount metric report and the
array NIG fold must give exactly what the per-row or per-feature versions
give: same floats, same ties.  Packet aggregation and NetFlow pair merging,
which share one flow episode, must give exactly the records of the per-packet
episode and the pairwise record merge they replaced.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowident.classifier import (
    VARIANCE_FLOOR,
    ClassifierModel,
    ClassState,
    _log_scores,
    nig_fold,
    plugin_variance,
    predict,
    score,
    train,
)
from flowident.evaluation import (
    StratificationError,
    assign_folds,
    confusion,
    evaluate_predictions,
    metrics,
)
from flowident.features import Dataset, FeatureVector
from flowident.flow import (
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    FlowAggregator,
    PacketRecord,
    Proto,
    aggregate,
)
from flowident.ingest.netflow import decode_netflow_v5
from flowident.synth import generate_dataset, parse_synth_spec
from helpers import (
    aggregate_oracle,
    assign_folds_oracle,
    ip,
    merge_records_oracle,
    nf5_datagram,
    nf5_record,
    nig_fold_oracle,
    plugin_variance_oracle,
    predict_oracle,
    score_oracle,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
variance = st.floats(min_value=VARIANCE_FLOOR, max_value=1e6, allow_nan=False)


@st.composite
def models_and_rows(draw):
    feature_ids = tuple(draw(st.permutations(range(1, 17)))[: draw(st.integers(1, 16))])
    d = len(feature_ids)
    nig = ([0.0] * d, [1.0] * d, [2.0] * d, [1.0] * d)
    classes = []
    for c in range(draw(st.integers(1, 6))):
        classes.append(ClassState(
            f"c{c}",
            draw(st.integers(1, 10_000)),
            *nig,
            plugin_means=draw(st.lists(finite, min_size=d, max_size=d)),
            plugin_vars=draw(st.lists(variance, min_size=d, max_size=d)),
        ))
    if draw(st.booleans()):
        # A later copy of an earlier class scores the same on every row.
        twin = draw(st.sampled_from(classes))
        classes.append(ClassState("twin", twin.n, *twin.nig,
                                  twin.plugin_means, twin.plugin_vars))
    alphabet = tuple(state.label for state in classes)
    model = ClassifierModel(alphabet=alphabet, feature_ids=feature_ids, classes=tuple(classes))
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
        values = [vec.value(fid) for fid in model.feature_ids]
        assert list(score(model, vec).log_scores) == score_oracle(model, values)


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
        label: metrics(confusion(predicted, truth, label)) for label in classes
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
        values = [vec.value(fid) for fid in model.feature_ids]
        assert list(score(model, vec).log_scores) == score_oracle(model, values)
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
    for n in (0, 1, 7, 250):
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


@settings(max_examples=200, deadline=None)
@given(packet_streams(), st.sampled_from([1.0, 2.5, 15.0]), st.sampled_from([3.0, 6.0, 1800.0]))
def test_aggregate_equals_the_per_packet_oracle(packets, inactive, active):
    records, kept, accepted, rejected = aggregate_oracle(packets, inactive, active)
    agg = FlowAggregator(inactive, active, keep_packets=True)
    for pkt in packets:
        agg.add(pkt)
    agg.flush()
    assert agg.records() == records
    assert agg.records_with_packets() == list(zip(records, kept))
    assert (agg.accepted, agg.rejected) == (accepted, rejected)
    assert aggregate(packets, inactive, active) == records


ENDPOINT_PAIRS = (
    ("10.0.0.2", "10.0.0.1", 5000, 80),
    ("10.0.0.7", "10.0.0.8", 53, 53),
    ("10.0.0.3", "10.0.0.4", 4000, 443),
)


@st.composite
def export_records(draw):
    """Up to 30 records over three endpoint pairs and both protocols, so a
    datagram holds reciprocal pairs, repeats of one direction and lone records."""
    records = []
    for _ in range(draw(st.integers(1, 30))):
        src, dst, sport, dport = draw(st.sampled_from(ENDPOINT_PAIRS))
        if draw(st.booleans()):
            src, dst, sport, dport = dst, src, dport, sport
        pkts = draw(st.integers(1, 5000))
        first = draw(st.integers(0, 60_000))
        records.append((
            src, dst, sport, dport, draw(st.sampled_from((6, 17))),
            pkts, 20 * pkts + draw(st.integers(0, 100_000)),
            first, first + draw(st.integers(0, 60_000)),
            draw(st.integers(0, 255)), draw(st.integers(0, 255)),
        ))
    return records


@settings(max_examples=200, deadline=None)
@given(export_records())
def test_decode_netflow_equals_the_pairwise_merge_oracle(records):
    sys_uptime, unix_secs = 120_000, 1_700_000_000
    datagram = nf5_datagram(
        [nf5_record(src=src, dst=dst, sport=sport, dport=dport, proto=proto, pkts=pkts,
                    octets=octets, first=first, last=last, flags=flags, tos=tos)
         for src, dst, sport, dport, proto, pkts, octets, first, last, flags, tos in records],
        sys_uptime=sys_uptime, unix_secs=unix_secs,
    )
    boot_us = unix_secs * 1_000_000 - sys_uptime * 1000
    assert decode_netflow_v5(datagram) == merge_records_oracle(records, boot_us)
