"""Shared test utilities.

Two kinds of tools live here:

* conveniences for building PacketRecords and flows quickly;
* independent byte-level builders (capture files, export datagrams) and
  independent math oracles (entropy, SU, binning, confusion tallies),
  written with plain Python containers so they cannot share a bug with
  the numpy/struct implementations they are used to check;
* the per-row scorer, the per-class fold assignment and the per-feature
  NIG fold that the library's batch versions replaced, kept as references
  that must agree bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from flowident.flow import PacketRecord, Proto, str_to_ip


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
    for state in model.classes:
        means = np.array(state.plugin_means)
        variances = np.array(state.plugin_vars)
        log_h = (
            np.log(state.n)
            - 0.5 * np.log(variances).sum()
            - 0.5 * (((values - means) ** 2) / variances).sum()
        )
        scores.append(float(log_h))
    return scores


def nig_fold_oracle(mu, kappa, alpha, beta, n, mean, sumsq) -> tuple[float, ...]:
    """The normal-inverse-gamma fold of one feature, in Python floats."""
    if n == 0:
        return mu, kappa, alpha, beta
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
