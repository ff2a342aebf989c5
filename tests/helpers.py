"""Shared test utilities.

These tools live here:

* conveniences for building PacketRecords and flows quickly;
* independent byte-level builders (capture files, export datagrams) and
  independent math oracles (entropy, SU, binning, confusion tallies),
  written with plain Python containers so they cannot share a bug with
  the numpy/struct implementations they are used to check;
* the per-row scorer, the per-class fold assignment, the per-feature
  NIG fold and the per-class training and update loops that the library's
  batch versions replaced, kept as references that must agree bit for bit;
* the per-packet canonical key with its travel direction, the reference
  for ``canonical_columns`` and the key every flow and label oracle here
  uses;
* the flow layer's two former accumulators: the per-packet episode with
  explicit SYN/FIN/close state, and the pairwise merge of reciprocal
  export records;
* the per-record NetFlow v5 decoder and its datagram-by-datagram file
  walk, the references for the columnar NetFlow reader, and the
  per-record ``struct`` encoder, the reference for the columnar one;
* the byte-slicing frame parser and a per-record walk over a capture
  file, the references for the columnar pcap reader;
* the per-episode packet grouping that sampling traces are cut from;
* per-trial Bernoulli packet sampling and the inverse-probability
  estimates of one sampled flow, which the vectorised Monte Carlo
  ``simulate_estimates`` must reproduce trial by trial;
* the per-ratio sampling report that the shared-stream engine replaced: a
  fresh draw of the seed's stream and a dense survivor mask for every
  (ratio, flow), each degradation a ``Fraction`` of the mask's counts, byte
  sums and windows;
* the per-flow ingest tail that the columnar one replaced: the per-record
  feature formulas, the ``ipaddress`` label parser with one ``FlowKey`` per
  line, the per-cell dataset writer and the per-row, per-cell ``float()``
  dataset reader;
* the rows of a loaded label file, as ``LabelRow``s;
* a sorted packet list as one sampling trace, and the per-flow trace rules
  that ``TraceTable`` checks for every flow at once;
* the per-packet synthetic generator and ``struct`` capture writer that
  the columnar ones replaced, kept as references that must agree record
  for record and byte for byte.
"""

from __future__ import annotations

import csv
import enum
import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from flowident.classifier import VARIANCE_FLOOR, ClassifierModel
from flowident.errors import ContractError, FormatError
from flowident.features import FEATURE_NAMES, NUM_FEATURES, Dataset, SchemaError
from flowident.files import csv_rows
from flowident.flow import (
    REORDER_TOLERANCE_US,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    FlowKey,
    FlowRecord,
    PacketRecord,
    Proto,
    str_to_ip,
)
from flowident.ingest.labels import HEADER as LABEL_HEADER
from flowident.ingest.labels import LabelFileError, LabelRow
from flowident.ingest.netflow import EncodingError, MalformedDatagramError, UnsupportedVersionError
from flowident.ingest.pcap import PcapDecodeError
from flowident.sampling import FlowTrace, Metric, ReportRow, SamplingConfig, SamplingReport
from flowident.synth import (
    _BASE_EPOCH_US,
    _MAX_COUNT,
    _MAX_PKT_LEN,
    _MAX_TS_S,
    _START_WINDOW_S,
    SynthSpec,
)


def ip(text: str) -> int:
    return str_to_ip(text)


def mk_packet(
    ts: int = 1_000_000,
    src: str = "10.0.0.2",
    dst: str = "10.0.0.1",
    sport: int = 5000,
    dport: int = 80,
    proto: Proto = Proto.TCP,
    length: int = 60,
    flags: int = 0,
    tos: int = 0,
) -> PacketRecord:
    return PacketRecord(
        ts=ts,
        src_ip=ip(src),
        dst_ip=ip(dst),
        src_port=sport,
        dst_port=dport,
        proto=Proto(proto),
        length=length,
        tcp_flags=flags,
        tos=tos,
    )


# --------------------------------------------------------------------------
# Independent capture-file bytes (built with int.to_bytes, not struct)
# --------------------------------------------------------------------------

def _u(value: int, nbytes: int, endian: str) -> bytes:
    return int(value).to_bytes(nbytes, "little" if endian == "<" else "big")


def pcap_global_header(
    endian: str = "<",
    magic: int = 0xA1B2C3D4,
    snaplen: int = 65535,
    linktype: int = 1,
) -> bytes:
    return (
        _u(magic, 4, endian)
        + _u(2, 2, endian)      # version major
        + _u(4, 2, endian)      # version minor
        + _u(0, 4, endian)      # thiszone
        + _u(0, 4, endian)      # sigfigs
        + _u(snaplen, 4, endian)
        + _u(linktype, 4, endian)
    )


def pcap_packet(ts_us: int, frame: bytes, endian: str = "<", incl_len: int | None = None) -> bytes:
    incl = len(frame) if incl_len is None else incl_len
    return (
        _u(ts_us // 1_000_000, 4, endian)
        + _u(ts_us % 1_000_000, 4, endian)
        + _u(incl, 4, endian)
        + _u(len(frame), 4, endian)
        + frame
    )


def eth_ipv4_frame(
    src: str = "10.0.0.2",
    dst: str = "10.0.0.1",
    proto: int = 6,
    sport: int = 5000,
    dport: int = 80,
    total_length: int = 60,
    flags: int = 0,
    tos: int = 0,
    ethertype: int = 0x0800,
    ver_ihl: int = 0x45,
    frag: int = 0,
    transport: bytes | None = None,
) -> bytes:
    """One Ethernet+IPv4 frame, padded out to the advertised total length."""
    out = bytearray()
    out += bytes(6) + bytes(6) + ethertype.to_bytes(2, "big")
    out.append(ver_ihl)
    out.append(tos)
    out += total_length.to_bytes(2, "big")
    out += (0).to_bytes(2, "big")          # identification
    out += frag.to_bytes(2, "big")
    out.append(64)                          # ttl
    out.append(proto)
    out += (0).to_bytes(2, "big")          # header checksum (readers don't verify)
    out += ip(src).to_bytes(4, "big")
    out += ip(dst).to_bytes(4, "big")
    if transport is not None:
        out += transport
    elif proto == 6:
        out += sport.to_bytes(2, "big") + dport.to_bytes(2, "big")
        out += (0).to_bytes(4, "big") + (0).to_bytes(4, "big")  # seq, ack
        out.append(5 << 4)                  # data offset
        out.append(flags)
        out += (0).to_bytes(2, "big") * 3   # window, checksum, urgent
    else:
        out += sport.to_bytes(2, "big") + dport.to_bytes(2, "big")
        out += (total_length - 20).to_bytes(2, "big") + (0).to_bytes(2, "big")
    while len(out) < 14 + total_length:
        out.append(0)
    return bytes(out)


def pcap_file(frames_with_ts, endian: str = "<", linktype: int = 1, magic: int = 0xA1B2C3D4) -> bytes:
    """Whole capture file from (ts_us, frame_bytes) pairs."""
    out = bytearray(pcap_global_header(endian, magic=magic, linktype=linktype))
    for ts_us, frame in frames_with_ts:
        out += pcap_packet(ts_us, frame, endian)
    return bytes(out)


def parse_frame_oracle(data: bytes, ts: int) -> PacketRecord | None:
    """One Ethernet frame to a PacketRecord, or None to skip, by slicing
    the IPv4 header and transport bytes out field by field."""
    if len(data) < 14:
        return None
    ethertype = int.from_bytes(data[12:14], "big")
    if ethertype != 0x0800:
        return None
    ip = data[14:]
    if len(ip) < 20:
        return None
    version = ip[0] >> 4
    ihl = (ip[0] & 0x0F) * 4
    if version != 4 or ihl < 20 or len(ip) < ihl:
        return None
    total_length = int.from_bytes(ip[2:4], "big")
    if total_length < ihl:
        return None
    frag = int.from_bytes(ip[6:8], "big")
    if frag & 0x3FFF:  # fragment offset or MF bit: no reassembly here
        return None
    proto_num = ip[9]
    if proto_num not in (Proto.TCP, Proto.UDP):
        return None
    transport = ip[ihl:]
    tcp_flags = 0
    if proto_num == Proto.TCP:
        if len(transport) < 14:  # need the flags byte at offset 13
            return None
        tcp_flags = transport[13]
    else:
        if len(transport) < 8:
            return None
    return PacketRecord(
        ts=ts,
        src_ip=int.from_bytes(ip[12:16], "big"),
        dst_ip=int.from_bytes(ip[16:20], "big"),
        src_port=int.from_bytes(transport[0:2], "big"),
        dst_port=int.from_bytes(transport[2:4], "big"),
        proto=Proto(proto_num),
        length=total_length,
        tcp_flags=tcp_flags,
        tos=ip[1],
    )


def read_pcap_oracle(path) -> tuple[list[PacketRecord], int]:
    """A capture file with a valid global header, one record at a time:
    (kept packets, frame count), or the PcapDecodeError the reader raises,
    with the same message."""
    data = Path(path).read_bytes()
    order = "little" if data[:4] == bytes.fromhex("d4c3b2a1") else "big"
    packets, frames, offset = [], 0, 24
    while offset < len(data):
        if offset + 16 > len(data):
            raise PcapDecodeError(f"{path}: truncated packet header at byte {offset}")
        ts_sec, ts_usec, incl_len = (
            int.from_bytes(data[offset + i : offset + i + 4], order) for i in (0, 4, 8)
        )
        if ts_usec >= 1_000_000:
            raise PcapDecodeError(
                f"{path}: ts_usec {ts_usec} is not below 1000000 "
                f"in the packet header at byte {offset}"
            )
        offset += 16
        if offset + incl_len > len(data):
            raise PcapDecodeError(f"{path}: truncated packet data at byte {offset}")
        frames += 1
        pkt = parse_frame_oracle(data[offset : offset + incl_len], ts_sec * 1_000_000 + ts_usec)
        if pkt is not None:
            packets.append(pkt)
        offset += incl_len
    return packets, frames


# --------------------------------------------------------------------------
# Independent export-datagram bytes (big-endian by hand)
# --------------------------------------------------------------------------

def nf5_header(
    count: int,
    sys_uptime: int = 0,
    unix_secs: int = 0,
    unix_nsecs: int = 0,
    seq: int = 0,
    version: int = 5,
) -> bytes:
    return (
        version.to_bytes(2, "big")
        + count.to_bytes(2, "big")
        + sys_uptime.to_bytes(4, "big")
        + unix_secs.to_bytes(4, "big")
        + unix_nsecs.to_bytes(4, "big")
        + seq.to_bytes(4, "big")
        + bytes(2)                          # engine type, engine id
        + bytes(2)                          # sampling interval
    )


def nf5_record(
    src: str = "10.0.0.2",
    dst: str = "10.0.0.1",
    sport: int = 5000,
    dport: int = 80,
    pkts: int = 1,
    octets: int = 40,
    first: int = 0,
    last: int = 0,
    flags: int = 0,
    proto: int = 6,
    tos: int = 0,
) -> bytes:
    return (
        ip(src).to_bytes(4, "big")
        + ip(dst).to_bytes(4, "big")
        + bytes(4)                          # nexthop
        + bytes(2) + bytes(2)               # input/output ifindex
        + pkts.to_bytes(4, "big")
        + octets.to_bytes(4, "big")
        + first.to_bytes(4, "big")
        + last.to_bytes(4, "big")
        + sport.to_bytes(2, "big")
        + dport.to_bytes(2, "big")
        + bytes(1)                          # pad1
        + flags.to_bytes(1, "big")
        + proto.to_bytes(1, "big")
        + tos.to_bytes(1, "big")
        + bytes(2) + bytes(2)               # src/dst AS
        + bytes(1) + bytes(1)               # src/dst mask
        + bytes(2)                          # pad2
    )


def nf5_datagram(records, **header_kwargs) -> bytes:
    records = list(records)
    return nf5_header(count=len(records), **header_kwargs) + b"".join(records)


# --------------------------------------------------------------------------
# JSON documents to damage
# --------------------------------------------------------------------------

def json_paths(doc, path=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


# --------------------------------------------------------------------------
# Independent math oracles
# --------------------------------------------------------------------------

def entropy_oracle(seq) -> float:
    """Shannon entropy in bits via Counter + math.log2."""
    n = len(seq)
    return -sum((c / n) * math.log2(c / n) for c in Counter(seq).values())


def su_oracle(x, y) -> float:
    """Symmetrical uncertainty via three plain entropy evaluations."""
    hx = entropy_oracle(list(x))
    hy = entropy_oracle(list(y))
    if hx + hy == 0:
        return 0.0
    hxy = entropy_oracle(list(zip(x, y)))
    value = 2.0 * (hx + hy - hxy) / (hx + hy)
    return min(1.0, max(0.0, value))


def discretize_oracle(values, bins: int) -> list[int]:
    """Equal-frequency bin codes via explicit sorting.

    Sorted position i would get code (i*bins)//n; every member of a tie
    group takes the code of the group's first sorted position.
    """
    values = [float(v) for v in values]
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    first_pos: dict[float, int] = {}
    for rank, i in enumerate(order):
        first_pos.setdefault(values[i], rank)
    return [(first_pos[values[i]] * bins) // n for i in range(n)]


def confusion_oracle(predicted, truth, target) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) by per-item tally."""
    tp = fp = tn = fn = 0
    for p, t in zip(predicted, truth):
        if t == target and p == target:
            tp += 1
        elif t == target:
            fn += 1
        elif p == target:
            fp += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def normal_pdf(x: float, mean: float, var: float) -> float:
    return math.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


# --------------------------------------------------------------------------
# Per-row references for the library's batch code
# --------------------------------------------------------------------------

def score_oracle(model, values) -> list[float]:
    """Log scores of one row of selected-feature values, one class at a time."""
    values = np.array(values, dtype=np.float64)
    scores = []
    for c, n in enumerate(model.n):
        means = np.array(model.plugin_means[c])
        variances = np.array(model.plugin_vars[c])
        log_h = (
            np.log(n)
            - 0.5 * np.log(variances).sum()
            - 0.5 * (((values - means) ** 2) / variances).sum()
        )
        scores.append(float(log_h))
    return scores


def nig_fold_oracle(mu, kappa, alpha, beta, n, mean, sumsq) -> tuple[float, ...]:
    """The normal-inverse-gamma fold of one feature, in Python floats."""
    kappa_n = kappa + n
    return (
        (kappa * mu + n * mean) / kappa_n,
        kappa_n,
        alpha + n / 2.0,
        beta + 0.5 * sumsq + kappa * n * (mean - mu) ** 2 / (2.0 * kappa_n),
    )


def plugin_variance_oracle(alpha: float, beta: float, floor: float) -> float:
    """beta / (alpha - 1) of one feature, floored; the floor where alpha <= 1."""
    return max(beta / (alpha - 1.0), floor) if alpha > 1.0 else floor


def _row_order_sum(rows):
    """Each column's sum, added one float64 row at a time from +0.0."""
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total


def _class_fold(state, rows):
    """Fold one class's batch ``rows`` into its per-feature NIG ``state``
    (four lists), one feature at a time; also the batch's count and moments,
    each summed in row order."""
    n = rows.shape[0]
    mean = _row_order_sum(rows) / n
    sumsq = _row_order_sum((rows - mean) ** 2)
    folded = [nig_fold_oracle(*nig, n, m, s)
              for nig, m, s in zip(zip(*state), mean.tolist(), sumsq.tolist())]
    return n, mean, sumsq, [list(values) for values in zip(*folded)]


def train_oracle(ds, feature_ids, prior) -> ClassifierModel:
    """The per-class training loop: each class's rows through its code mask,
    folded into the prior and given its sample mean and n-1 variance."""
    data = ds.matrix(feature_ids)
    start = [[getattr(prior, name)] * len(feature_ids) for name in ("mu", "kappa", "alpha", "beta")]
    counts, arrays = [], [[] for _ in range(6)]
    for code in range(len(ds.alphabet)):
        n, mean, sumsq, nig = _class_fold(start, data[ds.codes == code])
        sample_var = np.maximum(sumsq / (n - 1), VARIANCE_FLOOR)
        counts.append(n)
        for array, row in zip(arrays, nig + [mean.tolist(), sample_var.tolist()]):
            array.append(row)
    return ClassifierModel(ds.alphabet, tuple(feature_ids), tuple(counts), arrays)


def update_oracle(model, new_ds) -> ClassifierModel:
    """The per-class update loop: each model class present in ``new_ds``, found
    by label, folds its rows and takes posterior-derived plug-ins; an empty
    batch returns ``model`` itself."""
    present = {new_ds.alphabet[code] for code in np.unique(new_ds.codes).tolist()}
    if not present:
        return model
    data = new_ds.matrix(model.feature_ids)
    counts = list(model.n)
    arrays = [getattr(model, name).tolist() for name in
              ("mu", "kappa", "alpha", "beta", "plugin_means", "plugin_vars")]
    for c, label in enumerate(model.alphabet):
        if label in present:
            rows = data[new_ds.codes == new_ds.alphabet.index(label)]
            n, _, _, nig = _class_fold([array[c] for array in arrays[:4]], rows)
            variances = [plugin_variance_oracle(a, b, VARIANCE_FLOOR) for a, b in zip(*nig[2:])]
            counts[c] += n
            for array, row in zip(arrays, nig + [nig[0], variances]):
                array[c] = row
    return ClassifierModel(model.alphabet, model.feature_ids, tuple(counts), arrays)


def predict_oracle(model, ds) -> list[str]:
    """Per-row argmax of :func:`score_oracle`; ties go to the first class."""
    return [
        model.alphabet[int(np.argmax(score_oracle(model, [v.row[f - 1] for f in model.feature_ids])))]
        for v in ds.vectors
    ]


def assign_folds_oracle(labels, k: int, seed: int) -> list[int]:
    """Stratified folds: per class in sorted order, shuffle its row indices, deal round-robin."""
    labels = list(labels)
    n = len(labels)
    counts = Counter(labels)
    if k < n and min(counts.values()) < k:
        raise ValueError("class smaller than k")
    rng = np.random.default_rng(seed)
    fold_of = [0] * n
    cursor = 0
    for lbl in sorted(counts):
        idx = np.flatnonzero(np.array([x == lbl for x in labels]))
        rng.shuffle(idx)
        for i in idx:
            fold_of[int(i)] = cursor % k
            cursor += 1
    return fold_of


# --------------------------------------------------------------------------
# Per-trial packet sampling, the reference for simulate_estimates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowEstimates:
    """Inverse-probability estimates recovered from one sampled flow."""

    l_hat: float
    s_hat: float
    fd_hat: float
    sampled_count: int


def bernoulli_sample(packets, cfg: SamplingConfig, uniforms=None) -> list[PacketRecord]:
    """Keep each packet independently with probability cfg.p, preserving order.
    The keep test compares one uniform per packet with cfg.p: ``uniforms`` when
    given, else float64 draws from cfg.seed."""
    packets = list(packets)
    if uniforms is None:
        uniforms = np.random.default_rng(cfg.seed).random(len(packets))
    keep = uniforms < cfg.p
    return [pkt for pkt, kept in zip(packets, keep) if kept]


def estimate(sampled, p: float) -> FlowEstimates:
    """Scale a sampled packet list back up to whole-flow estimates."""
    if not 0.0 < p <= 1.0:
        raise ContractError(f"sampling probability {p} outside (0, 1]")
    sampled = list(sampled)
    count = len(sampled)
    fd_hat = (sampled[-1].ts - sampled[0].ts) / 1e6 if count >= 2 else 0.0
    return FlowEstimates(
        l_hat=count / p,
        s_hat=sum(pkt.length for pkt in sampled) / p,
        fd_hat=fd_hat,
        sampled_count=count,
    )


# --------------------------------------------------------------------------
# The per-ratio sampling report, the reference for the shared-stream engine
# --------------------------------------------------------------------------

def survivor_mask_oracle(trace, p: float, seed: int, trials: int) -> np.ndarray:
    """The dense (trials, packets) survivor mask of one flow at one rate, from a
    draw of its own."""
    return np.random.default_rng(seed).random((trials, trace.length), dtype=np.float32) < p


def mc_estimates_oracle(trace, p: float, seed: int, trials: int):
    """Per-trial (l_hat, s_hat, fd_hat) of one flow at one rate, from its dense
    survivor mask; the first and last survivors are the mask's first set cell
    from either end."""
    n = trace.length
    sizes = trace.sizes.astype(np.float64)
    t_sec = (trace.ts - trace.ts[0]).astype(np.float64) / 1e6
    mask = survivor_mask_oracle(trace, p, seed, trials)
    k = mask.sum(axis=1)
    first = mask.argmax(axis=1)
    last = n - 1 - mask[:, ::-1].argmax(axis=1)
    window = np.where(k >= 2, t_sec[last] - t_sec[first], 0.0)
    return k / p, (mask.astype(np.float64) @ sizes) / p, window


def dre_oracle(metric: Metric, trace, p: float, mask: np.ndarray) -> float:
    """One flow's degradation at rate p as a Fraction of the dense survivor
    mask's per-trial counts, byte sums and first-to-last windows (us), rounded
    once to a float."""
    trials, n = mask.shape
    if metric is Metric.DURATION:
        ts = trace.ts.astype(np.int64)
        first = mask.argmax(axis=1)
        last = n - 1 - mask[:, ::-1].argmax(axis=1)
        windows = np.where(mask.any(axis=1), ts[last] - ts[first], 0).tolist()
        span = int(ts[-1]) - int(ts[0])
        return float(Fraction(trials * span - sum(windows), trials * 10**6))
    if metric is Metric.LENGTH:
        values, total = mask.sum(axis=1).tolist(), trace.length
    else:
        values, total = (mask.astype(np.int64) @ trace.sizes.astype(np.int64)).tolist(), trace.size
    squares = Fraction(sum(v * v for v in values)) - Fraction(sum(values) ** 2, trials)
    return float(squares / (trials - 1) / (Fraction(p) * total) ** 2)


def sampling_report_oracle(traces, ratios, seed: int, trials: int) -> SamplingReport:
    """One simulation per (ratio, flow); each row is the mean over flows of the
    per-flow degradations, as a list in flow order."""
    means = {}
    for n in ratios:
        per_metric = {metric: [] for metric in Metric}
        for trace in traces:
            mask = survivor_mask_oracle(trace, 1.0 / n, seed, trials)
            for metric in Metric:
                per_metric[metric].append(dre_oracle(metric, trace, 1.0 / n, mask))
        for metric in Metric:
            means[(metric.value, n)] = float(np.mean(per_metric[metric]))
    rows = [ReportRow(metric.value, n, means[(metric.value, n)]) for metric in Metric for n in ratios]
    return SamplingReport(rows=rows, flows=len(traces), trials=trials, seed=seed)


# --------------------------------------------------------------------------
# The per-packet canonical key, and the flow layer's accumulation before
# packets and export records shared one episode
# --------------------------------------------------------------------------

class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def canonical_endpoints(ip_a, port_a, ip_b, port_b, proto: Proto) -> tuple[FlowKey, Direction]:
    """The canonical key of endpoints a and b, and which way a -> b travels.

    FORWARD means a is the key's low endpoint (smaller IP, then port).
    Both orders of the same two endpoints map to the same key.
    """
    if (ip_a, port_a) <= (ip_b, port_b):
        return FlowKey(ip_a, port_a, ip_b, port_b, proto), Direction.FORWARD
    return FlowKey(ip_b, port_b, ip_a, port_a, proto), Direction.BACKWARD


class _PacketEpisodeOracle:
    """One episode fed packet by packet, with SYN, FIN and per-direction
    close state kept as their own booleans."""

    def __init__(self, key, orientation):
        self.key = key
        self.orientation = orientation
        self.first_ts = self.last_ts = None
        self.fwd_packets = self.fwd_bytes = self.bwd_packets = self.bwd_bytes = 0
        self.flags_fwd = self.flags_bwd = self.tos = 0
        self.syn_seen = self.fin_seen = self.close_fwd = self.close_bwd = False
        self.packets = []

    def add(self, pkt, direction):
        if self.first_ts is None:
            self.first_ts = self.last_ts = pkt.ts
        self.first_ts = min(self.first_ts, pkt.ts)
        self.last_ts = max(self.last_ts, pkt.ts)
        forward = direction is self.orientation
        if forward:
            self.fwd_packets += 1
            self.fwd_bytes += pkt.length
            self.flags_fwd |= pkt.tcp_flags
        else:
            self.bwd_packets += 1
            self.bwd_bytes += pkt.length
            self.flags_bwd |= pkt.tcp_flags
        self.tos |= pkt.tos
        if pkt.proto is Proto.TCP:
            self.syn_seen = self.syn_seen or bool(pkt.tcp_flags & TCP_SYN)
            self.fin_seen = self.fin_seen or bool(pkt.tcp_flags & TCP_FIN)
            if pkt.tcp_flags & (TCP_FIN | TCP_RST):
                if forward:
                    self.close_fwd = True
                else:
                    self.close_bwd = True
        self.packets.append(pkt)

    def to_record(self):
        return FlowRecord(
            key=self.key, first_ts=self.first_ts, last_ts=self.last_ts,
            fwd_packets=self.fwd_packets, fwd_bytes=self.fwd_bytes,
            bwd_packets=self.bwd_packets, bwd_bytes=self.bwd_bytes,
            tcp_flags_fwd=self.flags_fwd, tcp_flags_bwd=self.flags_bwd, tos=self.tos,
            complete=self.key.proto is Proto.TCP and self.syn_seen and self.fin_seen,
            initiator_lo=self.orientation is Direction.FORWARD,
        )


def aggregate_oracle(packets, inactive_timeout: float, active_timeout: float):
    """Per-packet flow aggregation: returns (records sorted by first_ts then
    key, each record's packets, accepted count, rejected count)."""
    inactive_us, active_us = int(inactive_timeout * 1e6), int(active_timeout * 1e6)
    open_episodes, done = {}, []
    clock = None
    accepted = rejected = 0
    for pkt in packets:
        if clock is not None and pkt.ts < clock - REORDER_TOLERANCE_US:
            rejected += 1
            continue
        clock = pkt.ts if clock is None else max(clock, pkt.ts)
        accepted += 1
        key, direction = canonical_endpoints(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port,
                                             pkt.proto)
        episode = open_episodes.get(key)
        if episode is not None and (
            pkt.ts - episode.last_ts > inactive_us or pkt.ts - episode.first_ts > active_us
        ):
            done.append(open_episodes.pop(key))
            episode = None
        if episode is None:
            episode = open_episodes[key] = _PacketEpisodeOracle(key, direction)
        episode.add(pkt, direction)
        if pkt.proto is Proto.TCP and episode.close_fwd and episode.close_bwd:
            done.append(open_episodes.pop(key))
    done.extend(open_episodes.values())
    done.sort(key=lambda e: (e.first_ts, e.key.sort_tuple()))
    return [e.to_record() for e in done], [e.packets for e in done], accepted, rejected


def traces_oracle(packets, inactive_timeout: float, active_timeout: float):
    """(sizes, ts) lists of each episode's packets from :func:`aggregate_oracle`,
    in record order, each sorted by time with ties kept in arrival order."""
    _, kept, _, _ = aggregate_oracle(packets, inactive_timeout, active_timeout)
    groups = [sorted(group, key=lambda pkt: pkt.ts) for group in kept]
    return [([pkt.length for pkt in group], [pkt.ts for pkt in group]) for group in groups]


class _ExportEntryOracle:
    """A unidirectional export record that may absorb its reciprocal."""

    def __init__(self, key, orientation, first_ts, last_ts, pkts, octets, flags, tos):
        self.key, self.orientation = key, orientation
        self.first_ts, self.last_ts = first_ts, last_ts
        self.fwd = (pkts, octets, flags)
        self.bwd = (0, 0, 0)
        self.tos = tos

    def absorb_reverse(self, first_ts, last_ts, pkts, octets, flags, tos):
        self.first_ts = min(self.first_ts, first_ts)
        self.last_ts = max(self.last_ts, last_ts)
        self.bwd = (pkts, octets, flags)
        self.tos |= tos

    def to_record(self):
        flags = self.fwd[2] | self.bwd[2]
        return FlowRecord(
            key=self.key, first_ts=self.first_ts, last_ts=self.last_ts,
            fwd_packets=self.fwd[0], fwd_bytes=self.fwd[1],
            bwd_packets=self.bwd[0], bwd_bytes=self.bwd[1],
            tcp_flags_fwd=self.fwd[2], tcp_flags_bwd=self.bwd[2], tos=self.tos,
            complete=self.key.proto is Proto.TCP and bool(flags & 0x02) and bool(flags & 0x01),
            initiator_lo=self.orientation is Direction.FORWARD,
        )


def merge_records_oracle(records, boot_us: int):
    """Bidirectional flows from one datagram's records, each a tuple
    (src, dst, sport, dport, proto, pkts, octets, first_ms, last_ms, flags, tos)
    with dotted-quad addresses and uptimes after ``boot_us``.  A record merges
    into the earliest unmerged record of the same key and opposite direction."""
    entries, unpaired = [], {}
    for src, dst, sport, dport, proto, pkts, octets, first, last, flags, tos in records:
        key, direction = canonical_endpoints(ip(src), sport, ip(dst), dport, Proto(proto))
        times = (boot_us + first * 1000, boot_us + last * 1000)
        waiting = unpaired.setdefault(key, [])
        partner = next((e for e in waiting if e.orientation is not direction), None)
        if partner is not None:
            partner.absorb_reverse(*times, pkts, octets, flags, tos)
            waiting.remove(partner)
        else:
            entries.append(_ExportEntryOracle(key, direction, *times, pkts, octets, flags, tos))
            waiting.append(entries[-1])
    return [entry.to_record() for entry in entries]


_NF5_HEADER = struct.Struct("!HHIIIIBBH")
_NF5_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")


def decode_netflow_oracle(data: bytes) -> list[FlowRecord]:
    """One export datagram decoded record by record: each record checked in
    turn, then merged into the oldest waiting record of its key when that
    one travelled the other way."""
    if len(data) < _NF5_HEADER.size:
        raise MalformedDatagramError(f"datagram too short: {len(data)} bytes")
    version, count, sys_uptime, unix_secs, unix_nsecs, _seq, _et, _eid, _si = (
        _NF5_HEADER.unpack_from(data)
    )
    if version != 5:
        raise UnsupportedVersionError(f"expected version 5, got {version}")
    if not 1 <= count <= 30:
        raise MalformedDatagramError(f"record count {count} outside [1, 30]")
    expected = _NF5_HEADER.size + count * _NF5_RECORD.size
    if len(data) != expected:
        raise MalformedDatagramError(
            f"length mismatch: {len(data)} bytes for {count} records (want {expected})"
        )
    export_us = unix_secs * 1_000_000 + unix_nsecs // 1000

    def absolute_us(i: int, uptime_ms: int) -> int:
        lead = uptime_ms - sys_uptime
        if lead > 1 << 31:
            uptime_ms -= 1 << 32
        elif lead > 0:
            raise MalformedDatagramError(f"record {i}: uptime {uptime_ms} ms is after "
                                         f"the export uptime {sys_uptime} ms")
        return export_us - (sys_uptime - uptime_ms) * 1000

    entries, unpaired = [], {}
    for i in range(count):
        (
            srcaddr, dstaddr, _nexthop, _inp, _out, pkts, octets, first, last,
            srcport, dstport, _pad1, tcp_flags, prot, tos, _sas, _das, _sm, _dm, _pad2,
        ) = _NF5_RECORD.unpack_from(data, _NF5_HEADER.size + i * _NF5_RECORD.size)
        if prot not in (6, 17):
            raise MalformedDatagramError(f"record {i}: unsupported protocol {prot}")
        if prot == 17 and tcp_flags:
            raise MalformedDatagramError(
                f"record {i}: UDP record carries TCP flags {tcp_flags:#04x}"
            )
        if pkts < 1:
            raise MalformedDatagramError(f"record {i}: zero packet count")
        if octets < 20 * pkts:
            raise MalformedDatagramError(f"record {i}: byte count below IP minimum")
        first_us, last_us = absolute_us(i, first), absolute_us(i, last)
        if last_us < first_us:
            raise MalformedDatagramError(f"record {i}: flow ends before it starts")
        if first_us < 0:
            raise MalformedDatagramError(f"record {i}: flow starts before the Unix epoch")
        key, direction = canonical_endpoints(srcaddr, srcport, dstaddr, dstport, Proto(prot))
        fields = (first_us, last_us, pkts, octets, tcp_flags, tos)
        waiting = unpaired.setdefault(key, [])
        if waiting and waiting[0].orientation is not direction:
            waiting.pop(0).absorb_reverse(*fields)
        else:
            entries.append(_ExportEntryOracle(key, direction, *fields))
            waiting.append(entries[-1])
    return [entry.to_record() for entry in entries]


def read_netflow_oracle(path) -> list[FlowRecord]:
    """A file of concatenated datagrams, decoded one datagram at a time by
    :func:`decode_netflow_oracle`."""
    data = Path(path).read_bytes()
    flows, offset = [], 0
    while offset < len(data):
        if offset + _NF5_HEADER.size > len(data):
            raise MalformedDatagramError(f"{path}: truncated header at byte {offset}")
        version, count = _NF5_HEADER.unpack_from(data, offset)[:2]
        where = f"{path}: datagram at byte {offset}: "
        if version != 5:
            raise UnsupportedVersionError(f"{where}expected version 5, got {version}")
        if not 1 <= count <= 30:
            raise MalformedDatagramError(f"{where}record count {count} outside [1, 30]")
        size = _NF5_HEADER.size + count * _NF5_RECORD.size
        if offset + size > len(data):
            raise MalformedDatagramError(f"{path}: truncated datagram at byte {offset}")
        try:
            flows.extend(decode_netflow_oracle(data[offset : offset + size]))
        except (MalformedDatagramError, UnsupportedVersionError) as exc:
            raise type(exc)(f"{where}{exc}") from exc
        offset += size
    return flows


_U32 = 0xFFFFFFFF


def _floor_ms(us: int) -> int:
    return (us // 1000) * 1000


def _ceil_ms(us: int) -> int:
    return -(-us // 1000) * 1000


def encode_netflow_oracle(flows) -> list[bytes]:
    """Encode FlowRecords as v5 datagrams, at most 30 records in each.

    A bidirectional flow becomes two unidirectional records sharing the
    flow's time window and one datagram: a flow whose records do not fit in
    the current datagram starts the next.  ``flow_sequence`` counts the
    records before each datagram, from 0.
    """
    raws, chunks = [], []
    for n, flow in enumerate(flows):
        key = flow.key
        if flow.initiator_lo:
            src, dst = (key.ip_lo, key.port_lo), (key.ip_hi, key.port_hi)
        else:
            src, dst = (key.ip_hi, key.port_hi), (key.ip_lo, key.port_lo)
        records = 1 + (flow.bwd_packets > 0)
        if not chunks or len(chunks[-1]) + records > 30:
            chunks.append([])
        for pkts, octets, flags, endpoints in (
            (flow.fwd_packets, flow.fwd_bytes, flow.tcp_flags_fwd, (src, dst)),
            (flow.bwd_packets, flow.bwd_bytes, flow.tcp_flags_bwd, (dst, src)),
        ):
            if not pkts:
                continue
            if pkts > _U32 or octets > _U32:
                raise EncodingError(f"flow {n}: counter exceeds 32 bits")
            raws.append(
                (endpoints[0], endpoints[1], pkts, octets, flow.first_ts,
                 flow.last_ts, flags, int(key.proto), flow.tos)
            )
            chunks[-1].append(raws[-1])
    if not raws:
        return []

    boot_us = _floor_ms(min(r[4] for r in raws))
    export_us = _ceil_ms(max(r[5] for r in raws))
    sys_uptime = (export_us - boot_us) // 1000
    if sys_uptime > _U32:
        raise EncodingError("flow time span exceeds the 32-bit uptime field")
    unix_secs = export_us // 1_000_000
    unix_nsecs = (export_us % 1_000_000) * 1000

    datagrams = []
    emitted = 0
    for chunk in chunks:
        out = bytearray(
            _NF5_HEADER.pack(
                5, len(chunk), sys_uptime, unix_secs, unix_nsecs,
                emitted & _U32, 0, 0, 0,
            )
        )
        for src, dst, pkts, octets, first_us, last_us, flags, prot, tos in chunk:
            out += _NF5_RECORD.pack(
                src[0], dst[0], 0, 0, 0, pkts, octets,
                (first_us - boot_us) // 1000, (last_us - boot_us) // 1000,
                src[1], dst[1], 0, flags, prot, tos, 0, 0, 0, 0, 0,
            )
        emitted += len(chunk)
        datagrams.append(bytes(out))
    return datagrams


# --------------------------------------------------------------------------
# The per-flow ingest tail the columnar one replaced: one feature tuple per
# record, one label row object per line, one csv.writer cell per value, one
# float() per cell read
# --------------------------------------------------------------------------

def featurize_oracle(flow: FlowRecord) -> tuple[float, ...]:
    """The 16 features of one record by the per-record formulas, as floats."""
    key = flow.key
    raw_duration = (flow.last_ts - flow.first_ts) / 1e6
    duration = raw_duration if raw_duration > 0 else 0.001
    packets = flow.total_packets
    total_bytes = flow.fwd_bytes + flow.bwd_bytes
    mean_fwd_len = flow.fwd_bytes / flow.fwd_packets
    mean_bwd_len = flow.bwd_bytes / flow.bwd_packets if flow.bwd_packets else 0.0
    return tuple(map(float, (
        min(key.port_lo, key.port_hi),
        max(key.port_lo, key.port_hi),
        duration,
        int(key.proto),
        flow.tcp_flags_fwd,
        flow.tcp_flags_bwd,
        packets / duration,
        total_bytes / duration,
        duration / packets,
        flow.fwd_packets / max(flow.bwd_packets, 1),
        flow.fwd_bytes / max(flow.bwd_bytes, 1),
        mean_fwd_len / max(mean_bwd_len, 1.0),
        packets,
        total_bytes,
        flow.tos,
        total_bytes / packets,
    )))


def write_dataset_oracle(ds, path) -> None:
    """A dataset CSV written one csv.writer row of per-cell strings at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURE_NAMES + ("label",))
        for values, label in zip(ds.data.tolist(), ds.labels()):
            writer.writerow([f"{v:.9g}" for v in values] + [label or ""])


_CSV_HEADER = FEATURE_NAMES + ("label",)


def read_dataset_oracle(path) -> Dataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    The header must match the canonical column list exactly; the error for
    a mismatch names the missing and unexpected columns.  A cell that is
    not a finite number is rejected with its line and column.
    """
    rows, labels, lines = [], [], []
    for line, row in csv_rows(path, _CSV_HEADER, SchemaError):
        lines.append(line)
        try:
            rows.append([float(v) for v in row[:NUM_FEATURES]])
        except ValueError as exc:
            raise SchemaError(f"{path}: line {line}: {exc}") from None
        labels.append(row[NUM_FEATURES] or None)
    data = np.array(rows, dtype=np.float64).reshape(-1, NUM_FEATURES)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, col = bad[0].tolist()
        raise SchemaError(
            f"{path}: line {lines[i]}: column {FEATURE_NAMES[col]}: "
            f"non-finite value {float(data[i, col])!r}"
        )
    return Dataset.from_labels(data, labels)


def _label_proto_oracle(text: str, where: str) -> Proto:
    normalized = text.strip().upper()
    if normalized in ("TCP", "6"):
        return Proto.TCP
    if normalized in ("UDP", "17"):
        return Proto.UDP
    raise LabelFileError(f"{where}: unknown protocol {text!r}")


def load_labels_oracle(path) -> list[LabelRow]:
    """A label CSV's rows, parsed with ``ipaddress`` and one FlowKey per line."""
    rows: list[LabelRow] = []
    seen: dict[tuple[FlowKey, int], int] = {}
    for line, row in csv_rows(path, LABEL_HEADER, LabelFileError):
        where = f"{path}: line {line}"
        try:
            ip_a = str_to_ip(row[0])
            port_a = int(row[1])
            ip_b = str_to_ip(row[2])
            port_b = int(row[3])
            first_ts = int(row[5])
        except ValueError as exc:
            raise LabelFileError(f"{where}: {exc}") from None
        for name, port in (("port_lo", port_a), ("port_hi", port_b)):
            if not 0 <= port <= 0xFFFF:
                raise LabelFileError(f"{where}: {name} {port} outside 0..65535")
        if first_ts < 0:
            raise LabelFileError(f"{where}: first_ts {first_ts} is negative")
        if first_ts >= 2**63:
            raise LabelFileError(f"{where}: first_ts {first_ts} is above 2^63 - 1")
        key, _ = canonical_endpoints(ip_a, port_a, ip_b, port_b, _label_proto_oracle(row[4], where))
        if (key, first_ts) in seen:
            raise LabelFileError(
                f"{where}: duplicate of line {seen[(key, first_ts)]} "
                f"for the same flow key and start time"
            )
        seen[(key, first_ts)] = line
        rows.append(LabelRow(key, first_ts, row[6]))
    return rows


def label_rows(labels) -> list[LabelRow]:
    """The rows of a :class:`LabelFile`, in file order."""
    return [LabelRow(FlowKey(ip_lo, port_lo, ip_hi, port_hi, Proto(proto)), first_ts, label)
            for (ip_lo, port_lo, ip_hi, port_hi, proto, first_ts), label in labels._index.items()]


def trace_from_packets(packets) -> FlowTrace:
    """One FlowTrace of a packet list, sorted by time."""
    packets = sorted(packets, key=lambda p: p.ts)
    return FlowTrace(
        sizes=np.array([p.length for p in packets], dtype=np.int64),
        ts=np.array([p.ts for p in packets], dtype=np.int64),
    )


def check_trace_oracle(sizes: np.ndarray, ts: np.ndarray) -> None:
    """The rules of one flow's sizes and stamps, as a FlowTrace checked them
    on its own before the trace table: raises ContractError on a breach."""
    if sizes.ndim != 1 or sizes.shape != ts.shape:
        raise ContractError("sizes and ts must be equal-length 1-D arrays")
    if sizes.size == 0:
        raise ContractError("a flow trace has at least one packet")
    if sizes.dtype.kind not in "iu" or int(sizes.min()) < 1 or int(sizes.max()) > 65535:
        raise ContractError("packet sizes must be integers in 1..65535")
    if ts.dtype.kind not in "iu" or int(ts[0]) < 0 or int(ts[-1]) > 2**63 - 1:
        raise ContractError("packet stamps must be integers in 0..2**63-1")
    if not (ts[1:] >= ts[:-1]).all():  # no np.diff: unsigned differences wrap
        raise ContractError("packet stamps must not decrease")


# --------------------------------------------------------------------------
# The per-packet generator and capture writer that the columnar ones
# replaced: one PacketRecord per packet, packed with struct
# --------------------------------------------------------------------------

_TCP_SYNACK = TCP_SYN | TCP_ACK
_TCP_FINACK = TCP_FIN | TCP_ACK


def _flow_flags_oracle(proto: Proto, count: int, directions: list[bool]) -> list[int]:
    if proto is not Proto.TCP:
        return [0] * count
    flags = [TCP_ACK] * count
    flags[0] = TCP_SYN if directions[0] else _TCP_SYNACK
    first_bwd = next((i for i, d in enumerate(directions) if not d), None)
    if first_bwd is not None:
        flags[first_bwd] = _TCP_SYNACK
    last_fwd = max((i for i, d in enumerate(directions) if d), default=None)
    if last_fwd is not None and last_fwd != 0:
        flags[last_fwd] = _TCP_FINACK
    if first_bwd is not None:
        last_bwd = max(i for i, d in enumerate(directions) if not d)
        if last_bwd != first_bwd:
            flags[last_bwd] = _TCP_FINACK
    return flags


def generate_packets_oracle(spec: SynthSpec) -> tuple[list[PacketRecord], list[LabelRow]]:
    """Generate a time-ordered capture and the matching flow labels, one
    validated PacketRecord at a time."""
    rng = np.random.default_rng(spec.seed)
    packets: list[PacketRecord] = []
    labels: list[LabelRow] = []
    serial = 0
    for cls_idx, cls in enumerate(spec.classes):
        if cls.pkt_count is None or cls.pkt_size is None or cls.iat is None:
            raise ContractError(f"class {cls.label!r} has no packet generators")
        min_len = 40 if cls.proto is Proto.TCP else 28
        server_ip = (192 << 24) | (168 << 16) | (cls_idx << 8) | 1
        where = f"classes[{cls_idx}].packets"
        for _ in range(cls.flows):
            drawn = max(float(cls.pkt_count.draw(rng, 1)[0]), 1.0)
            if not drawn <= _MAX_COUNT:
                raise FormatError(f"{where}.count: drew packet count {drawn!r}, above "
                                  f"NetFlow v5's 32-bit counter ({_MAX_COUNT})")
            count = int(round(drawn))
            sizes = np.clip(
                np.round(cls.pkt_size.draw(rng, count)), min_len, _MAX_PKT_LEN
            ).astype(int)
            # A gap past the horizon alone overflows it; clipping first keeps the sum finite.
            iat = np.minimum(cls.iat.draw(rng, max(count - 1, 1)), _MAX_TS_S)
            gaps_us = np.maximum(np.round(iat * 1e6), 0)[: count - 1]
            start = _BASE_EPOCH_US + int(rng.uniform(0, _START_WINDOW_S) * 1e6)
            if not start + gaps_us.sum() < _MAX_TS_S * 1e6:
                raise FormatError(f"{where}.iat: packet times pass the 32-bit seconds "
                                  f"of the pcap format (year 2106)")
            ts = start + np.concatenate(([0], np.cumsum(gaps_us.astype(np.int64))))
            directions = [True] + [bool(rng.random() < 0.5) for _ in range(count - 1)]
            flags = _flow_flags_oracle(cls.proto, count, directions)
            client_ip = (10 << 24) + serial + 1
            client_port = 40000 + serial % 20000
            flow_packets = []
            for j in range(count):
                if directions[j]:
                    src, dst = (client_ip, client_port), (server_ip, cls.server_port)
                else:
                    src, dst = (server_ip, cls.server_port), (client_ip, client_port)
                flow_packets.append(
                    PacketRecord(
                        ts=int(ts[j]),
                        src_ip=src[0], dst_ip=dst[0],
                        src_port=src[1], dst_port=dst[1],
                        proto=cls.proto,
                        length=int(sizes[j]),
                        tcp_flags=flags[j],
                    )
                )
            key, _ = canonical_endpoints(client_ip, client_port, server_ip, cls.server_port,
                                         cls.proto)
            labels.append(LabelRow(key=key, first_ts=flow_packets[0].ts, label=cls.label))
            packets.extend(flow_packets)
            serial += 1
    packets.sort(key=lambda p: p.ts)
    return packets, labels


# The capture layout, spelled out here rather than taken from the writer.
_ETHERNET_HEADER = bytes.fromhex("020000000002" "020000000001" "0800")
_IPV4 = struct.Struct("!BBHHHBBHII")
_GLOBAL_HEADER = struct.Struct("=IHHiIII")
_SNAPLEN = 65535
MAGIC_US = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1


def _checksum_oracle(header: bytes) -> int:
    # RFC 1071 ones'-complement sum over 16-bit words.
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def build_frame_oracle(pkt: PacketRecord) -> bytes:
    transport_min = 20 if pkt.proto is Proto.TCP else 8
    payload_len = pkt.length - 20 - transport_min
    if payload_len < 0:
        raise ContractError(
            f"packet length {pkt.length} cannot hold a {pkt.proto.name} header"
        )
    ip_header = bytearray(
        _IPV4.pack(0x45, pkt.tos, pkt.length, 0, 0, 64, pkt.proto, 0, pkt.src_ip, pkt.dst_ip)
    )
    ip_header[10:12] = _checksum_oracle(ip_header).to_bytes(2, "big")
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


def write_pcap_oracle(path: str | Path, packets) -> int:
    """Write PacketRecords as an Ethernet capture; returns the packet count.

    Transport checksums are left zero; synthetic traces do not need them.
    """
    out = bytearray(_GLOBAL_HEADER.pack(MAGIC_US, 2, 4, 0, 0, _SNAPLEN, LINKTYPE_ETHERNET))
    count = 0
    for pkt in packets:
        frame = build_frame_oracle(pkt)
        out += struct.pack(
            "=IIII", pkt.ts // 1_000_000, pkt.ts % 1_000_000, len(frame), len(frame)
        )
        out += frame
        count += 1
    Path(path).write_bytes(bytes(out))
    return count
