"""Library code against the code it replaced (oracles in helpers).

The batch scorer, the fold assignment, the bincount metric report, the
array NIG fold and the one-fold-per-batch train and update must give exactly
what the per-row, per-feature or per-class versions give: same floats, same
ties, same model bytes.  Packet aggregation and NetFlow pair merging,
which share one flow episode, must give exactly the records of the per-packet
episode and the pairwise record merge they replaced.  The pcap frame parser
must skip or keep exactly the frames the byte-slicing parser did.  The
vectorised Monte Carlo must give, trial by trial, the estimates of sampling
the packet list one trial at a time.  The model loader, fed saved documents
with a few values replaced or keys deleted, must load a model that predicts or
raise ModelFormatError.
"""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    score,
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
from flowident.ingest.netflow import MalformedDatagramError, decode_netflow_v5
from flowident.ingest.pcap import _build_frame, _parse_frame
from flowident.sampling import MIN_TRIALS, FlowTrace, SamplingConfig, simulate_estimates
from flowident.synth import generate_dataset, parse_synth_spec
from helpers import (
    aggregate_oracle,
    assign_folds_oracle,
    bernoulli_sample,
    confusion_oracle,
    estimate,
    ip,
    merge_records_oracle,
    mk_packet,
    nf5_datagram,
    nf5_record,
    nig_fold_oracle,
    parse_frame_oracle,
    plugin_variance_oracle,
    predict_oracle,
    score_oracle,
    train_oracle,
    update_oracle,
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
    model = ClassifierModel(alphabet, feature_ids, tuple(counts), *nig, means, variances)
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
    return json.dumps(model_to_json_dict(model, saved_at="2026-01-01T00:00:00+00:00"))


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


DEMO_ROWS = generate_dataset(parse_synth_spec({"seed": 5, "classes": [
    {"label": "bulk", "flows": 6, "features": {"pps": {"mean": 900.0, "std": 40.0}}},
    {"label": "chat", "flows": 6, "features": {"pps": {"mean": 40.0, "std": 6.0}}},
]}))
VALID_MODEL_DOC = model_to_json_dict(train(DEMO_ROWS, [7, 16]), saved_at="2026-01-01T00:00:00+00:00")
ODD_VALUES = (None, True, False, 0, -1, 1, 7, 16, 2.5, 1e-300, 1e300, -1e300, 10**400,
              float("nan"), float("inf"), "", "bulk", "chat", "7", "nfi-model/1", [], [7], {},
              {"n": 3})


def json_paths(doc, path=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


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


@settings(max_examples=200, deadline=None)
@given(packet_streams(), st.sampled_from([1.0, 2.5, 15.0]), st.sampled_from([3.0, 6.0, 1800.0]))
def test_aggregate_equals_the_per_packet_oracle(packets, inactive, active):
    records, kept, accepted, rejected = aggregate_oracle(packets, inactive, active)
    agg = FlowAggregator(inactive, active)
    members = {}
    for pkt in packets:
        episode = agg.add(pkt)
        if episode is not None:
            members.setdefault(episode, []).append(pkt)
    agg.flush()
    assert agg.records() == records
    assert [members[episode] for episode in agg.episodes()] == kept
    assert (agg.accepted, agg.rejected) == (accepted, rejected)
    assert aggregate(packets, inactive, active) == records


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


# Header bytes whose values decide whether a frame is kept: ethertype,
# version/IHL, total length, fragment word, protocol.
HEADER_BYTES = (12, 13, 14, 16, 17, 20, 21, 23)


@st.composite
def mutated_frames(draw):
    """A written TCP or UDP frame, then truncated, overwritten in its first
    60 bytes (header fields favoured) and/or extended."""
    proto = draw(st.sampled_from((Proto.TCP, Proto.UDP)))
    frame = bytearray(_build_frame(PacketRecord(
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


@settings(max_examples=1000, deadline=None)
@given(mutated_frames(), st.integers(0, 2**40))
def test_parse_frame_equals_the_byte_slicing_parser(frame, ts):
    assert _parse_frame(frame, ts) == parse_frame_oracle(frame, ts)


@pytest.mark.parametrize("n, p", [(12, 1 / 8), (40, 1 / 20)])
@pytest.mark.parametrize("chunk_budget", [None, 70])
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
    l_hat, s_hat, fd_hat = simulate_estimates(FlowTrace.from_packets(packets), cfg, MIN_TRIALS)
    uniforms = np.random.default_rng(cfg.seed).random((MIN_TRIALS, n), dtype=np.float32)
    oracle = [estimate(bernoulli_sample(packets, cfg, row), p) for row in uniforms]
    assert {e.sampled_count for e in oracle} >= {0, 1, 2}
    assert l_hat.tolist() == [e.l_hat for e in oracle]
    assert s_hat.tolist() == [e.s_hat for e in oracle]
    # The library subtracts times relative to the first packet, so it may round differently.
    np.testing.assert_allclose(fd_hat, [e.fd_hat for e in oracle], rtol=0, atol=1e-9)
