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
* the flow layer's two former accumulators: the per-packet episode with
  explicit SYN/FIN/close state, and the pairwise merge of reciprocal
  export records;
* the byte-slicing frame parser that the pcap reader's struct parser
  replaced;
* per-trial Bernoulli packet sampling and the inverse-probability
  estimates of one sampled flow, which the vectorised Monte Carlo
  ``simulate_estimates`` must reproduce trial by trial.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from flowident.classifier import VARIANCE_FLOOR, ClassifierModel
from flowident.errors import ContractError
from flowident.flow import (
    REORDER_TOLERANCE_US,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    Direction,
    FlowRecord,
    PacketRecord,
    Proto,
    canonical_endpoints,
    canonical_key,
    str_to_ip,
)
from flowident.sampling import SamplingConfig


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


def _class_fold(state, rows):
    """Fold one class's batch ``rows`` into its per-feature NIG ``state``
    (four lists), one feature at a time; also the batch's count and moments."""
    mean = rows.mean(axis=0)
    sumsq = ((rows - mean) ** 2).sum(axis=0)
    n = rows.shape[0]
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
    return ClassifierModel(ds.alphabet, tuple(feature_ids), tuple(counts), *arrays)


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
    return ClassifierModel(model.alphabet, model.feature_ids, tuple(counts), *arrays)


def predict_oracle(model, ds) -> list[str]:
    """Per-row argmax of :func:`score_oracle`; ties go to the first class."""
    return [
        model.alphabet[int(np.argmax(score_oracle(model, [v.value(f) for f in model.feature_ids])))]
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
# The flow layer's accumulation before packets and export records shared
# one episode
# --------------------------------------------------------------------------

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
        key, direction = canonical_key(pkt)
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
