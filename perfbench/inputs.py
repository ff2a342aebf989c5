"""Seeded workload inputs and the ground truth the output checks compare against.

Every input is derived from the workload seed alone: the synthetic spec
seeds and the feature-row shuffle each take their own stream of
``numpy.random.SeedSequence([seed, stream])``.  The program under test is
handed only the files written here.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowident import synth
from flowident.features import Dataset, write_dataset
from flowident.flow import FlowKey, FlowRecord, Proto
from flowident.ingest import encode_netflow_v5, write_labels, write_pcap

# The two traffic classes of tests/fixtures/demo_spec.json, copied so that
# editing a test fixture cannot change the benchmark's inputs.
DEMO_CLASSES = (
    {
        "label": "bulk", "proto": "tcp", "server_port": 443,
        "packets": {
            "count": {"kind": "uniform_int", "low": 20, "high": 60},
            "size": {"kind": "normal", "mean": 1200, "std": 150},
            "iat": {"kind": "exponential", "mean": 0.004},
        },
    },
    {
        "label": "chat", "proto": "udp", "server_port": 5060,
        "packets": {
            "count": {"kind": "uniform_int", "low": 5, "high": 15},
            "size": {"kind": "normal", "mean": 160, "std": 30},
            "iat": {"kind": "uniform", "low": 0.01, "high": 0.2},
        },
    },
)

MODEL_CLASSES = 8


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload."""

    capture_flows: int  # flows per demo class in the labeled capture
    model_rows: int  # rows per class in the 8-class feature dataset
    sampling_flows: int  # flows per demo class in the sampling capture


def derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def capture_spec(flows_per_class: int, seed: int) -> synth.SynthSpec:
    classes = [dict(cls, flows=flows_per_class) for cls in DEMO_CLASSES]
    return synth.parse_synth_spec({"seed": seed, "classes": classes})


def model_spec(rows_per_class: int, seed: int) -> synth.SynthSpec:
    """Eight classes whose informative features overlap.

    Class means step by less than one standard deviation and several
    features follow the same class ordering, so FCBF has redundant
    candidates to prune and cross-validated accuracy stays below 1.
    """
    classes = []
    for c in range(MODEL_CLASSES):
        features = {
            "pps": {"mean": 100 + 40 * c, "std": 45},
            "bps": {"mean": 1e5 + 4e4 * c, "std": 5e4},
            "mean_pkt_len": {"mean": 200 + 150 * (c % 4), "std": 110},
            "duration": {"mean": 1 + 0.8 * (c // 4), "std": 0.6},
            "mean_iat": {"mean": 0.05 * ((3 * c) % 8), "std": 0.08},
            "pkt_ratio": {"mean": 1 + 0.5 * ((5 * c) % 8), "std": 1.2},
            "bidir_packets": {"mean": 20 + 10 * (c % 2), "std": 9},
        }
        classes.append({"label": f"class{c}", "flows": rows_per_class, "features": features})
    return synth.parse_synth_spec({"seed": seed, "classes": classes})


@dataclass
class Truth:
    """What the generator put into one capture, grouped per flow."""

    flows: dict[tuple[int, int, int], tuple[str, int, int]]  # (lport, hport, proto) -> (label, packets, bytes)
    sizes: list[np.ndarray]  # per flow, packet lengths in time order
    durations_s: list[float]
    records: list[FlowRecord]  # one bidirectional record per flow, for NetFlow encoding
    packets: int
    bytes: int
    bidirectional: int  # flows with packets in both directions


def ground_truth(packets, label_rows) -> Truth:
    """Group generated packets per conversation without the flow layer.

    Each generated flow has its own client endpoint and is far shorter than
    the idle timeout, so one conversation is exactly one flow episode.
    """
    label_of = {
        (r.key.ip_lo, r.key.port_lo, r.key.ip_hi, r.key.port_hi, int(r.key.proto)): r.label
        for r in label_rows
    }
    groups: dict[tuple, list] = {}
    for pkt in packets:
        a, b = (pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)
        lo, hi = (a, b) if a <= b else (b, a)
        groups.setdefault((*lo, *hi, int(pkt.proto)), []).append(pkt)
    flows, sizes, durations, records = {}, [], [], []
    bidirectional = 0
    for key, pkts in groups.items():
        first = pkts[0]
        fwd = [p for p in pkts if (p.src_ip, p.src_port) == (first.src_ip, first.src_port)]
        bwd = [p for p in pkts if (p.src_ip, p.src_port) != (first.src_ip, first.src_port)]
        records.append(
            FlowRecord(
                key=FlowKey(key[0], key[1], key[2], key[3], Proto(key[4])),
                first_ts=first.ts,
                last_ts=pkts[-1].ts,
                fwd_packets=len(fwd),
                fwd_bytes=sum(p.length for p in fwd),
                bwd_packets=len(bwd),
                bwd_bytes=sum(p.length for p in bwd),
                tcp_flags_fwd=functools.reduce(operator.or_, (p.tcp_flags for p in fwd), 0),
                tcp_flags_bwd=functools.reduce(operator.or_, (p.tcp_flags for p in bwd), 0),
                initiator_lo=(first.src_ip, first.src_port) == (key[0], key[1]),
            )
        )
        lport, hport = min(key[1], key[3]), max(key[1], key[3])
        flows[(lport, hport, key[4])] = (label_of[key], len(pkts), sum(p.length for p in pkts))
        sizes.append(np.array([p.length for p in pkts], dtype=np.int64))
        durations.append((pkts[-1].ts - first.ts) / 1e6)
        bidirectional += bool(bwd)
    if len(flows) != len(groups):
        raise ValueError("generated flows do not have distinct port pairs")
    return Truth(
        flows=flows,
        sizes=sizes,
        durations_s=durations,
        records=records,
        packets=len(packets),
        bytes=sum(p.length for p in packets),
        bidirectional=bidirectional,
    )


@dataclass
class Inputs:
    """Paths of the generated files plus what the checks need to know."""

    capture_pcap: Path
    capture_labels: Path
    capture_netflow: Path
    model_csv: Path
    sampling_pcap: Path
    capture: Truth
    sampling: Truth
    model_labels: list[str]  # labels of model_csv rows, in file order

    def files(self) -> list[Path]:
        return [self.capture_pcap, self.capture_labels, self.capture_netflow,
                self.model_csv, self.sampling_pcap]

    def sync(self) -> None:
        """Flush the inputs to disk so that write-back does not run during timing."""
        for path in self.files():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def digests(self) -> dict[str, str]:
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in self.files()
        }


def setup(sizes: Sizes, seed: int, work: Path, tracer) -> Inputs:
    """Generate and write every input of a workload into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    capture_pcap, capture_labels, capture_netflow, model_csv, sampling_pcap = (
        work / name
        for name in ("capture.pcap", "capture_labels.csv", "capture.nf5", "model.csv", "sampling.pcap")
    )

    with tracer.span("synth.generate_packets"):
        packets, label_rows = synth.generate_packets(
            capture_spec(sizes.capture_flows, derive_seed(seed, 0))
        )
    with tracer.span("pcap.write_pcap"):
        write_pcap(capture_pcap, packets)
    with tracer.span("labels.write_labels"):
        write_labels(capture_labels, label_rows)
    capture = ground_truth(packets, label_rows)
    with tracer.span("netflow.encode_netflow_v5"):
        datagrams = encode_netflow_v5(capture.records)
    capture_netflow.write_bytes(b"".join(datagrams))

    with tracer.span("synth.generate_dataset"):
        ds = synth.generate_dataset(model_spec(sizes.model_rows, derive_seed(seed, 1)))
    order = np.random.default_rng(derive_seed(seed, 2)).permutation(len(ds))
    ds = Dataset([ds.vectors[i] for i in order], ds.alphabet)
    with tracer.span("features.write_dataset"):
        write_dataset(ds, model_csv)

    with tracer.span("synth.generate_packets"):
        packets, label_rows = synth.generate_packets(
            capture_spec(sizes.sampling_flows, derive_seed(seed, 3))
        )
    with tracer.span("pcap.write_pcap"):
        write_pcap(sampling_pcap, packets)

    return Inputs(
        capture_pcap=capture_pcap,
        capture_labels=capture_labels,
        capture_netflow=capture_netflow,
        model_csv=model_csv,
        sampling_pcap=sampling_pcap,
        capture=capture,
        sampling=ground_truth(packets, label_rows),
        model_labels=[v.label for v in ds.vectors],
    )
