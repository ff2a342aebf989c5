"""Acceptance suite: ten headline guarantees, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line; each test prints its line before asserting so failures still report.
"""

import random
import time

import numpy as np

from flowident.classifier import predict, train, update
from flowident.evaluation import ConfusionCounts, confusion, kfold_cv, metrics
from flowident.features import FEATURE_NAMES, Dataset, FeatureVector
from flowident.flow import FlowKey, FlowRecord, Proto, aggregate
from flowident.ingest.netflow import decode_netflow_v5, encode_netflow_v5
from flowident.ingest.pcap import read_pcap
from flowident.sampling import (
    FlowTrace,
    Metric,
    SamplingConfig,
    build_sampling_report,
    dre,
    relative_error_variance,
    simulate_estimates,
)
from flowident.selection import fcbf_select
from helpers import (
    confusion_oracle,
    discretize_oracle,
    eth_ipv4_frame,
    ip,
    pcap_file,
    su_oracle,
)


def check(criterion: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}")
    assert ok, f"criterion {criterion}: {description}"


def make_trace(sizes, gaps_us):
    sizes = np.asarray(sizes, dtype=np.int64)
    ts = 1_700_000_000_000_000 + np.cumsum(np.asarray(gaps_us, dtype=np.int64))
    return FlowTrace(sizes=sizes, ts=ts)


def gaussian_vectors(rng, label, count, means):
    """``count`` feature vectors; feature j ~ N(means[j], 1)."""
    block = rng.normal(means, 1.0, size=(count, 16))
    return [FeatureVector.from_values(row, label=label) for row in block]


def class_means(informative, offset):
    return np.array(
        [offset if name in informative else 0.0 for name in FEATURE_NAMES]
    )


INFORMATIVE = ("pps", "bps", "mean_pkt_len")


def test_criterion_01_estimators_are_unbiased():
    rng = np.random.default_rng(1)
    length = 10_000
    trace = make_trace(
        rng.integers(40, 1501, length), rng.integers(1000, 5000, length)
    )
    p = 1 / 256
    start = time.perf_counter()
    l_hat, s_hat, _ = simulate_estimates(trace, SamplingConfig(p, seed=1), 20_000)
    elapsed = time.perf_counter() - start
    rel_l = abs(float(l_hat.mean()) - trace.length) / trace.length
    rel_s = abs(float(s_hat.mean()) - trace.size) / trace.size
    check(
        1,
        f"length/size estimators unbiased at p=1/256 over 20000 trials "
        f"(rel bias {rel_l:.5f} / {rel_s:.5f} < 0.01, {elapsed:.2f}s < 10s)",
        rel_l < 0.01 and rel_s < 0.01 and elapsed < 10.0,
    )


def test_criterion_02_length_error_matches_closed_form():
    worst = 0.0
    for length in (1_000, 10_000):
        trace = make_trace([100] * length, [2000] * length)
        for denom in (128, 1024):
            p = 1 / denom
            got = dre(Metric.LENGTH, trace, SamplingConfig(p, seed=2), 20_000)
            want = relative_error_variance(Metric.LENGTH, trace, p)
            worst = max(worst, abs(got - want) / want)
    check(
        2,
        f"simulated var((l-l_hat)/l) within 10% of (1-p)/(lp) over four "
        f"(l, p) settings (worst deviation {worst:.3f})",
        worst < 0.10,
    )


def test_criterion_03_duration_estimator_is_biased_low():
    rng = np.random.default_rng(3)
    traces = []
    for i in range(100):
        n = int(rng.integers(1000, 3001)) if i < 15 else int(rng.integers(2, 801))
        traces.append(make_trace(rng.integers(40, 1501, n), rng.integers(500, 20_000, n)))
    never_above = True
    strictly_below = True
    for denom in (128, 256, 512, 1024):
        cfg = SamplingConfig(1 / denom, seed=3)
        for trace in traces:
            _, _, fd_hat = simulate_estimates(trace, cfg, 1000)
            mean_fd = float(fd_hat.mean())
            if mean_fd > trace.duration:
                never_above = False
            if trace.length >= 1000 and not mean_fd < trace.duration:
                strictly_below = False
    check(
        3,
        "mean sampled duration never exceeds the true duration on 100 flows "
        "at 1:128..1:1024, and is strictly below it for 1000+ packet flows",
        never_above and strictly_below,
    )


def test_criterion_04_errors_shrink_as_sampling_rate_grows():
    rng = np.random.default_rng(4)
    traces = []
    for _ in range(100):
        n = int(rng.integers(20, 201))
        traces.append(make_trace(rng.integers(40, 1501, n), rng.integers(2000, 8001, n)))
    report = build_sampling_report(traces, ratios=[1024, 512, 256, 128], seed=0, trials=4000)
    series = {
        metric: [row.adre for row in report.rows if row.metric == metric]
        for metric in ("length", "size", "duration")
    }
    length_ok = all(a > b for a, b in zip(series["length"], series["length"][1:]))
    size_ok = all(a > b for a, b in zip(series["size"], series["size"][1:]))
    duration_ok = all(d < l for d, l in zip(series["duration"], series["length"]))
    check(
        4,
        "average degradation strictly decreases from 1:1024 to 1:128 for "
        "length and size, and duration degrades less than length at every "
        f"ratio (length {['%.2f' % v for v in series['length']]})",
        length_ok and size_ok and duration_ok,
    )


def test_criterion_05_incremental_update_equals_pooled_batch():
    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    all_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed + 500)
        rnd = random.Random(seed)
        base_vecs, extra_vecs = [], []
        for c, label in enumerate(("a", "b", "c")):
            means = np.full(16, 3.0 * c)
            base_vecs += gaussian_vectors(rng, label, 6, means)
            extra_vecs += gaussian_vectors(rng, label, 5, means)
        base = Dataset(base_vecs, ("a", "b", "c"))
        extra = Dataset(extra_vecs, ("a", "b", "c"))
        cut = rnd.randint(1, len(extra_vecs) - 1)
        model = train(base)
        pooled = update(model, extra)
        stepped = update(
            update(model, Dataset(extra_vecs[:cut], base.alphabet)),
            Dataset(extra_vecs[cut:], base.alphabet),
        )
        if stepped.n != pooled.n:
            all_ok = False
        # (mu, kappa, alpha, beta) of each (class, feature)
        for g, w in zip(stepped.nig, pooled.nig):
            if not all(close(a, b) for a, b in zip(g.ravel().tolist(), w.ravel().tolist())):
                all_ok = False
    check(
        5,
        "sequential updates land on the pooled-batch posterior (within 1e-9) "
        "on 100 random 3-class datasets",
        all_ok,
    )


def three_class_dataset(seed, separation, per_class=200):
    rng = np.random.default_rng(seed)
    vectors = []
    for c, label in enumerate(("a", "b", "c")):
        means = class_means(INFORMATIVE, separation * c)
        vectors += gaussian_vectors(rng, label, per_class, means)
    return Dataset(vectors, ("a", "b", "c"))


def nb_pipeline(train_ds, test_ds):
    return predict(train(train_ds), test_ds)


def test_criterion_06_cross_validated_accuracy():
    separable = kfold_cv(three_class_dataset(60, 5.0), nb_pipeline, k=10, seed=0)
    overlapping = kfold_cv(three_class_dataset(61, 1.0), nb_pipeline, k=10, seed=0)
    oa_sep = separable.mean_overall_accuracy
    oa_mix = overlapping.mean_overall_accuracy
    baseline = 1 / 3  # every class equally common: majority vote accuracy
    check(
        6,
        f"10-fold OA is {oa_sep:.3f} (>= 0.99) on 5-sigma classes and "
        f"{oa_mix:.3f} (>= {baseline + 0.1:.3f}) on 1-sigma classes",
        oa_sep >= 0.99 and oa_mix >= baseline + 0.1,
    )


def test_criterion_07_online_update_tracks_drift():
    base_means = {c: class_means(INFORMATIVE, 3.0 * c) for c in range(3)}
    drift = class_means(INFORMATIVE, 2.0)  # +2 stddevs on every informative axis

    rng = np.random.default_rng(70)
    train_vecs = []
    for c, label in enumerate(("a", "b", "c")):
        train_vecs += gaussian_vectors(rng, label, 100, base_means[c])
    model = train(Dataset(train_vecs, ("a", "b", "c")))

    rng = np.random.default_rng(71)
    update_vecs = []
    for c, (label, count) in enumerate(zip(("a", "b", "c"), (66, 67, 67))):
        update_vecs += gaussian_vectors(rng, label, count, base_means[c] + drift)
    updated = update(model, Dataset(update_vecs, ("a", "b", "c")))

    rng = np.random.default_rng(72)
    test_vecs = []
    for c, label in enumerate(("a", "b", "c")):
        test_vecs += gaussian_vectors(rng, label, 150, base_means[c] + drift)
    test_ds = Dataset(test_vecs, ("a", "b", "c"))
    truth = test_ds.labels()

    def accuracy(m):
        got = predict(m, test_ds)
        return sum(g == t for g, t in zip(got, truth)) / len(truth)

    stale = accuracy(model)
    fresh = accuracy(updated)
    check(
        7,
        f"after the classes drift +2 sigma, folding in 200 drifted flows "
        f"lifts held-out OA from {stale:.3f} to {fresh:.3f} (gain >= 0.05)",
        fresh - stale >= 0.05,
    )


def test_criterion_08_selection_recovers_planted_features():
    n = 4500
    y = np.repeat([0, 1, 2], n // 3)
    labels = [("a", "b", "c")[c] for c in y]
    rng = np.random.default_rng(8)
    columns = {}
    for fid in (3, 9, 12):
        columns[fid] = 4.0 * y + rng.uniform(0, 2, n)
    for src, dup in ((3, 4), (9, 10), (12, 13)):
        columns[dup] = 2.0 * columns[src] + 5.0  # redundant rescaled copy
    for fid in (1, 2, 5, 6, 7, 8, 11, 14, 15, 16):
        columns[fid] = rng.uniform(0, 100, n)
    vectors = [
        FeatureVector.from_values(
            [columns[fid][i] for fid in range(1, 17)], label=labels[i]
        )
        for i in range(n)
    ]
    ds = Dataset(vectors, ("a", "b", "c"))

    result = fcbf_select(ds, delta=0.1)

    # independent re-run of the ranking + pruning from first principles
    y_list = y.tolist()
    codes = {fid: discretize_oracle(columns[fid], 10) for fid in range(1, 17)}
    su_label = {fid: su_oracle(codes[fid], y_list) for fid in range(1, 17)}
    ranked = sorted(su_label, key=lambda fid: (-su_label[fid], fid))
    want_selected, want_removed = [], []
    for fid in ranked:
        if su_label[fid] < 0.1:
            want_removed.append((fid, None))
            continue
        peer = next(
            (k for k in want_selected if su_oracle(codes[k], codes[fid]) >= su_label[fid]),
            None,
        )
        if peer is None:
            want_selected.append(fid)
        else:
            want_removed.append((fid, peer))

    planted_strong = all(result.su_with_label[fid] >= 0.5 for fid in (3, 9, 12))
    exact_set = set(result.selected) == {3, 9, 12}
    peers = {r.feature_id: r.peer_id for r in result.removed}
    dedup = peers.get(4) == 3 and peers.get(10) == 9 and peers.get(13) == 12
    oracle_match = (
        list(result.selected) == want_selected
        and [(r.feature_id, r.peer_id) for r in result.removed] == want_removed
    )
    check(
        8,
        "the filter keeps exactly the 3 planted features (label SU >= 0.5), "
        "absorbs each rescaled copy into its source, and matches a "
        "first-principles rerun of the algorithm",
        planted_strong and exact_set and dedup and oracle_match,
    )


def test_criterion_09_metric_identities():
    all_ok = True
    for seed in range(50):
        rnd = random.Random(seed)
        counts = ConfusionCounts(
            tp=rnd.randint(0, 60), fp=rnd.randint(0, 60),
            tn=rnd.randint(0, 60), fn=rnd.randint(0, 60),
        )
        if counts.total == 0:
            continue
        entry = metrics(counts)
        tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
        if tp + fn:
            all_ok &= entry.tpr == tp / (tp + fn)
            all_ok &= entry.fnr == fn / (tp + fn)
            all_ok &= abs(entry.tpr + entry.fnr - 1.0) <= 1e-12
        if fp + tn:
            all_ok &= entry.fpr == fp / (fp + tn)
            all_ok &= entry.tnr == tn / (fp + tn)
            all_ok &= abs(entry.tnr + entry.fpr - 1.0) <= 1e-12
        if tp + fp:
            all_ok &= entry.precision == tp / (tp + fp)
        all_ok &= entry.recall == entry.tpr
        if entry.precision + entry.recall:
            all_ok &= entry.f_measure == 2 * entry.precision * entry.recall / (
                entry.precision + entry.recall
            )
        all_ok &= entry.oa == (tp + tn) / counts.total
        # cross-check the tally path on a small random labeling too
        names = ["u", "v", "w"]
        truth = [rnd.choice(names) for _ in range(30)]
        pred = [rnd.choice(names) for _ in range(30)]
        for target in names:
            c = confusion(pred, truth, target)
            all_ok &= (c.tp, c.fp, c.tn, c.fn) == confusion_oracle(pred, truth, target)
    check(
        9,
        "derived rates equal their defining formulas exactly and the "
        "complementary pairs sum to 1 (within 1e-12) on randomized tables",
        bool(all_ok),
    )


def test_criterion_10_interchange_roundtrip_and_capture_ingestion(tmp_path):
    # --- part 1: encode -> decode identity on 1000 unidirectional flows ---
    rnd = random.Random(10)
    flows = []
    base_ms = 1_700_000_000_000
    for i in range(1000):
        proto = Proto.TCP if rnd.random() < 0.6 else Proto.UDP
        flags = rnd.randint(0, 255) if proto is Proto.TCP else 0
        pkts = rnd.randint(1, 100_000)
        first_ms = base_ms + rnd.randint(0, 3_600_000)
        flows.append(
            FlowRecord(
                key=FlowKey(ip("10.0.0.1") + i, rnd.randint(0, 65535),
                            ip("172.16.0.1"), rnd.randint(0, 65535), proto),
                first_ts=first_ms * 1000,
                last_ts=(first_ms + rnd.randint(0, 900_000)) * 1000,
                fwd_packets=pkts,
                fwd_bytes=pkts * rnd.randint(20, 1500),
                bwd_packets=0, bwd_bytes=0,
                tcp_flags_fwd=flags, tcp_flags_bwd=0,
                tos=rnd.randint(0, 255),
                complete=proto is Proto.TCP and bool(flags & 0x02) and bool(flags & 0x01),
                initiator_lo=rnd.random() < 0.5,
            )
        )
    datagrams = encode_netflow_v5(flows)
    decoded = [flow for d in datagrams for flow in decode_netflow_v5(d)]
    roundtrip_ok = decoded == flows and len(datagrams) == 34  # ceil(1000/30)

    # --- part 2: a hand-built capture aggregates to a hand-written table ---
    frames = [
        (1_000_000, eth_ipv4_frame("10.0.0.2", "10.0.0.1", 6, 49152, 80,
                                   total_length=60, flags=0x02)),
        (1_010_000, eth_ipv4_frame("10.0.0.1", "10.0.0.2", 6, 80, 49152,
                                   total_length=60, flags=0x12)),
        (1_020_000, eth_ipv4_frame("10.0.0.2", "10.0.0.1", 6, 49152, 80,
                                   total_length=52, flags=0x10)),
        (1_200_000, eth_ipv4_frame("10.0.0.2", "10.0.0.1", 6, 49152, 80,
                                   total_length=52, flags=0x11)),
        (1_500_000, eth_ipv4_frame("10.0.0.3", "10.0.0.4", 17, 5353, 5353,
                                   total_length=76)),
        (1_600_000, eth_ipv4_frame("10.0.0.4", "10.0.0.3", 17, 5353, 5353,
                                   total_length=120)),
    ]
    path = tmp_path / "hand.pcap"
    path.write_bytes(pcap_file(frames))
    got = aggregate(read_pcap(path))
    want = [
        FlowRecord(
            key=FlowKey(ip("10.0.0.1"), 80, ip("10.0.0.2"), 49152, Proto.TCP),
            first_ts=1_000_000, last_ts=1_200_000,
            fwd_packets=3, fwd_bytes=164, bwd_packets=1, bwd_bytes=60,
            tcp_flags_fwd=0x13, tcp_flags_bwd=0x12, tos=0,
            complete=True, initiator_lo=False,
        ),
        FlowRecord(
            key=FlowKey(ip("10.0.0.3"), 5353, ip("10.0.0.4"), 5353, Proto.UDP),
            first_ts=1_500_000, last_ts=1_600_000,
            fwd_packets=1, fwd_bytes=76, bwd_packets=1, bwd_bytes=120,
            tcp_flags_fwd=0, tcp_flags_bwd=0, tos=0,
            complete=False, initiator_lo=True,
        ),
    ]
    capture_ok = got == want
    check(
        10,
        "1000 export records survive encode->decode bit for bit (34 "
        "datagrams) and a hand-built capture aggregates to the hand-written "
        "flow table",
        roundtrip_ok and capture_ok,
    )
