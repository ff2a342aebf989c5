"""Spans around the calls into each flowident layer, and the per-layer metrics.

The traced run replays every CLI command of a pass as the public library
calls that command makes, inside spans recorded here: name, start, end and
parent.  Spans wrap whole-collection calls only (a whole capture, a whole
dataset, one prequential batch), never single packets, so tracing costs a
few microseconds per span.  Counters the CLI discards are read from the
library objects' own attributes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from flowident import classifier, evaluation, sampling, selection
from flowident.features import Dataset, featurize, read_dataset, write_dataset
from flowident.flow import FlowAggregator
from flowident.ingest import PcapReader, load_labels, read_netflow_file

# Every module of src/flowident except errors, named as its layer.
LAYERS = ("synth", "pcap", "flow", "labels", "netflow", "features", "selection",
          "classifier", "evaluation", "sampling", "cli")

_CMDS = ("ingest_pcap", "ingest_netflow", "select", "train", "classify", "evaluate", "sample_report")

# name: (unit, better, the end-to-end metrics it should move, "@" workload)
LAYER_METRICS = {
    "synth.generate_packets_us_per_pkt": ("us/pkt", "lower", "setup_s@all"),
    "synth.generate_dataset_us_per_row": ("us/row", "lower", "setup_s@all"),
    "pcap.write_us_per_pkt": ("us/pkt", "lower", "setup_s@all"),
    "netflow.encode_us_per_flow": ("us/flow", "lower", "setup_s@all"),
    "pcap.read_us_per_pkt": ("us/pkt", "lower", "ingest_pcap_pkt_per_s@capture, sample_report_s@sampling"),
    "pcap.read_mb_per_s": ("MB/s", "higher", "ingest_pcap_pkt_per_s@capture, sample_report_s@sampling"),
    "pcap.frames": ("count", "higher", "ingest_pcap_pkt_per_s@capture"),
    "pcap.skipped": ("count", "lower", "ingest_pcap_pkt_per_s@capture"),
    "flow.aggregate_us_per_pkt": ("us/pkt", "lower", "ingest_pcap_pkt_per_s@capture"),
    "flow.accepted": ("count", "higher", "ingest_pcap_pkt_per_s@capture"),
    "flow.rejected": ("count", "lower", "ingest_pcap_pkt_per_s@capture"),
    "flow.episodes": ("count", "higher", "ingest_pcap_pkt_per_s@capture"),
    "labels.load_us_per_row": ("us/row", "lower", "ingest_pcap_pkt_per_s@capture"),
    "labels.matched": ("count", "higher", "ingest_pcap_pkt_per_s@capture"),
    "labels.unmatched": ("count", "lower", "ingest_pcap_pkt_per_s@capture"),
    "netflow.read_us_per_record": ("us/record", "lower", "ingest_netflow_flow_per_s@capture"),
    "netflow.records": ("count", "higher", "ingest_netflow_flow_per_s@capture"),
    "netflow.merged_pairs": ("count", "higher", "ingest_netflow_flow_per_s@capture"),
    "netflow.merge_ratio": ("ratio", "higher", "ingest_netflow_flow_per_s@capture"),
    "features.featurize_us_per_flow": ("us/flow", "lower", "ingest_pcap_pkt_per_s@capture, ingest_netflow_flow_per_s@capture"),
    "features.write_us_per_row": ("us/row", "lower", "ingest_pcap_pkt_per_s@capture, ingest_netflow_flow_per_s@capture"),
    "features.read_us_per_row": ("us/row", "lower", "select_s, train_s, classify_row_per_s, cv_s@model"),
    "features.matrix_us_per_row": ("us/row", "lower", "select_s, train_s, classify_row_per_s, cv_s@model"),
    "selection.fcbf_ms": ("ms", "lower", "select_s@model"),
    "selection.features_kept": ("count", "higher", "select_s@model"),
    "classifier.train_ms": ("ms", "lower", "train_s, cv_s@model"),
    "classifier.save_load_ms": ("ms", "lower", "train_s, cv_s@model"),
    "classifier.predict_us_per_row": ("us/row", "lower", "classify_row_per_s, cv_s, prequential_row_per_s@model"),
    "classifier.update_us_per_row": ("us/row", "lower", "prequential_row_per_s@model"),
    "classifier.update_batch_p50_ms": ("ms", "lower", "prequential_row_per_s@model"),
    "classifier.update_batch_p99_ms": ("ms", "lower", "prequential_row_per_s@model"),
    "classifier.update_batches": ("count", "higher", "prequential_row_per_s@model"),
    "evaluation.kfold_self_s": ("s", "lower", "cv_s@model"),
    "sampling.traces_us_per_pkt": ("us/pkt", "lower", "sample_report_s@sampling"),
    "sampling.report_ms_per_flow_ratio": ("ms", "lower", "sample_report_s@sampling"),
    **{f"cli.{cmd}_glue_s": ("s", "lower", f"every metric of {cmd}@all") for cmd in _CMDS},
    "cli.startup_s": ("s", "lower", "none: paid per command from the shell, outside the timed in-process calls"),
    **{f"{layer}.self_s": ("s", "lower", "wall_s, peak_rss_mib@all") for layer in LAYERS},
    "trace.spans": ("count", "lower", "none: size of the trace"),
    "trace.overhead_ms": ("ms", "lower", "none: tracing cost inside the traced run"),
}


class Tracer:
    """Records spans in memory: [name, start, end, parent index, root name]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]][0] if self._stack else name
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, root])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "root")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one call and record nothing."""

    def span(self, name: str):
        return nullcontext()


def span_cost_s(n: int = 5000) -> float:
    """Seconds one recorded span adds, measured on a scratch tracer."""
    tracer = Tracer()
    start = perf_counter()
    for _ in range(n):
        with tracer.span("x"):
            pass
    return (perf_counter() - start) / n


def self_times(spans: list[list], offset: int = 0) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    ``spans`` is a slice of a tracer's list starting at index ``offset``.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None and s[3] >= offset:
            own[s[3] - offset] -= s[2] - s[1]
    return own


def layer_self_s(spans: list[list], offset: int = 0) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, self_times(spans, offset)):
        layer = s[0].split(".")[0]
        if layer in totals:
            totals[layer] += own
    return totals


def total_s(spans, name: str, root: str | None = None) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name and root in (None, s[4]))


def _selected(path) -> tuple[int, ...]:
    with open(path) as fh:
        return tuple(json.load(fh)["selected"])


def _prior(args) -> classifier.NIGPrior:
    return classifier.NIGPrior(args.prior_mu, args.prior_kappa, args.prior_alpha, args.prior_beta)


def replay_ingest(t, args) -> dict:
    counts = {}
    if args.pcap:
        with t.span("pcap.read_pcap"):
            reader = PcapReader(args.pcap)
            packets = list(reader)
        with t.span("flow.aggregate"):
            agg = FlowAggregator(args.inactive_timeout, args.active_timeout)
            for pkt in packets:
                agg.add(pkt)
            agg.flush()
            flows = agg.records()
        counts.update(
            frames=reader.total_frames, skipped=reader.skipped, packets=len(packets),
            pcap_bytes=os.path.getsize(args.pcap), accepted=agg.accepted,
            rejected=agg.rejected, episodes=len(flows),
            episode_packets=sum(f.total_packets for f in flows),
        )
    else:
        with t.span("netflow.read_netflow_file"):
            flows = read_netflow_file(args.netflow)
    if args.complete_only:
        flows = [f for f in flows if f.complete]
    found = [None] * len(flows)
    if args.labels:
        with t.span("labels.load_labels"):
            labels = load_labels(args.labels)
        with t.span("labels.lookup"):
            found = [labels.lookup(f.key, f.first_ts) for f in flows]
        matched = sum(label is not None for label in found)
        counts.update(label_rows=len(labels), matched=matched, unmatched=len(flows) - matched)
    with t.span("features.featurize"):
        vectors = [featurize(f, label) for f, label in zip(flows, found)]
    with t.span("features.write_dataset"):
        write_dataset(Dataset.from_vectors(vectors), args.out)
    counts["flows"] = len(flows)
    return counts


def _read_labeled(t, path) -> Dataset:
    with t.span("features.read_dataset"):
        return read_dataset(path).labeled_only()


def replay_select(t, args) -> dict:
    ds = _read_labeled(t, args.dataset)
    with t.span("selection.fcbf_select"):
        result = selection.fcbf_select(ds, delta=args.delta, bins=args.bins)
    if args.out:
        Path(args.out).write_text(json.dumps(result.to_json_dict(), indent=2) + "\n")
    return {"rows": len(ds), "kept": len(result.selected)}


def replay_train(t, args) -> dict:
    ds = _read_labeled(t, args.dataset)
    ids = _selected(args.features_from) if args.features_from else args.features
    with t.span("classifier.train"):
        model = classifier.train(ds, ids, _prior(args))
    with t.span("classifier.save_model"):
        classifier.save_model(model, args.out)
    return {"rows": len(ds)}


def replay_classify(t, args) -> dict:
    with t.span("classifier.load_model"):
        model = classifier.load_model(args.model)
    with t.span("features.read_dataset"):
        ds = read_dataset(args.dataset)
    with t.span("classifier.predict"):
        predictions = classifier.predict(model, ds)
    with open(args.out, "w", newline="") as fh:
        fh.write("index,label\n")
        fh.writelines(f"{i},{label}\n" for i, label in enumerate(predictions))
    return {"rows": len(ds)}


def replay_evaluate(t, args) -> dict:
    ds = _read_labeled(t, args.dataset)
    ids = _selected(args.features_from) if args.features_from else args.features
    prior = _prior(args)

    def pipeline(train_ds, test_ds):
        with t.span("classifier.train"):
            model = classifier.train(train_ds, ids, prior)
        with t.span("classifier.predict"):
            return classifier.predict(model, test_ds)

    with t.span("evaluation.kfold_cv"):
        report = evaluation.kfold_cv(ds, pipeline, k=args.k, seed=args.seed)
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return {"rows": len(ds)}


def replay_sample_report(t, args) -> dict:
    with t.span("pcap.read_pcap"):
        packets = list(PcapReader(args.pcap))
    with t.span("sampling.traces_from_packets"):
        traces = sampling.traces_from_packets(packets, args.inactive_timeout, args.active_timeout)
    with t.span("sampling.build_sampling_report"):
        report = sampling.build_sampling_report(traces, args.ratios, seed=args.seed, trials=args.trials)
    if args.out_json:
        Path(args.out_json).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return {"packets": len(packets), "flows": len(traces), "ratios": len(args.ratios)}


REPLAYS = {
    "ingest_pcap": replay_ingest,
    "ingest_netflow": replay_ingest,
    "select": replay_select,
    "train": replay_train,
    "classify": replay_classify,
    "evaluate": replay_evaluate,
    "sample_report": replay_sample_report,
}


def conservation_errors(c: dict) -> list[str]:
    """The packet-path identities of one traced pcap ingest."""
    identities = {
        "frames = packets + skipped": c["frames"] == c["packets"] + c["skipped"],
        "accepted + rejected = packets": c["accepted"] + c["rejected"] == c["packets"],
        "sum of episode packets = accepted": c["episode_packets"] == c["accepted"],
        # The generator writes one label row per flow, so every row must match.
        "matched = label rows": c["matched"] == c["label_rows"],
    }
    return [f"conservation identity broken: {name}" for name, ok in identities.items() if not ok]


def setup_metrics(spans: list[list], packets: int, rows: int, flows: int) -> dict[str, float]:
    """Per-unit costs of the input generation, from the spans of one setup."""
    return {
        "synth.generate_packets_us_per_pkt": total_s(spans, "synth.generate_packets") * 1e6 / packets,
        "synth.generate_dataset_us_per_row": total_s(spans, "synth.generate_dataset") * 1e6 / rows,
        "pcap.write_us_per_pkt": total_s(spans, "pcap.write_pcap") * 1e6 / packets,
        "netflow.encode_us_per_flow": total_s(spans, "netflow.encode_netflow_v5") * 1e6 / flows,
    }


def pass_metrics(spans, offset, counts, cli_s, stream_rows, netflow_records, bidirectional):
    """Per-layer metrics of one traced pass.

    ``counts`` maps each command to its replay's counters, ``cli_s`` to the
    untraced wall time of the same command.
    """
    pcap, nf = counts["ingest_pcap"], counts["ingest_netflow"]
    ingest_roots = ("cli.ingest_pcap", "cli.ingest_netflow")
    updates = [s[2] - s[1] for s in spans if s[0] == "classifier.update"]
    read_rows = sum(counts[c]["rows"] for c in ("select", "train", "classify", "evaluate"))
    kfold_self = sum(own for s, own in zip(spans, self_times(spans, offset))
                     if s[0] == "evaluation.kfold_cv")
    merged = netflow_records - nf["flows"]
    report = counts["sample_report"]
    m = {
        "pcap.read_us_per_pkt": total_s(spans, "pcap.read_pcap", "cli.ingest_pcap") * 1e6 / pcap["frames"],
        "pcap.read_mb_per_s": pcap["pcap_bytes"] / 1e6 / total_s(spans, "pcap.read_pcap", "cli.ingest_pcap"),
        "pcap.frames": pcap["frames"],
        "pcap.skipped": pcap["skipped"],
        "flow.aggregate_us_per_pkt": total_s(spans, "flow.aggregate") * 1e6 / pcap["packets"],
        "flow.accepted": pcap["accepted"],
        "flow.rejected": pcap["rejected"],
        "flow.episodes": pcap["episodes"],
        "labels.load_us_per_row": total_s(spans, "labels.load_labels") * 1e6 / pcap["label_rows"],
        "labels.matched": pcap["matched"],
        "labels.unmatched": pcap["unmatched"],
        "netflow.read_us_per_record": total_s(spans, "netflow.read_netflow_file") * 1e6 / netflow_records,
        "netflow.records": netflow_records,
        "netflow.merged_pairs": merged,
        "netflow.merge_ratio": merged / bidirectional if bidirectional else 0.0,
        "features.featurize_us_per_flow": sum(
            total_s(spans, "features.featurize", r) for r in ingest_roots
        ) * 1e6 / (pcap["flows"] + nf["flows"]),
        "features.write_us_per_row": sum(
            total_s(spans, "features.write_dataset", r) for r in ingest_roots
        ) * 1e6 / (pcap["flows"] + nf["flows"]),
        "features.read_us_per_row": total_s(spans, "features.read_dataset") * 1e6 / read_rows,
        "features.matrix_us_per_row": total_s(spans, "features.matrix") * 1e6 / counts["train"]["rows"],
        "selection.fcbf_ms": total_s(spans, "selection.fcbf_select") * 1e3,
        "selection.features_kept": counts["select"]["kept"],
        "classifier.train_ms": total_s(spans, "classifier.train", "cli.train") * 1e3,
        "classifier.save_load_ms": (total_s(spans, "classifier.save_model")
                                    + total_s(spans, "classifier.load_model")) * 1e3,
        "classifier.predict_us_per_row": total_s(spans, "classifier.predict", "cli.classify")
        * 1e6 / counts["classify"]["rows"],
        "classifier.update_us_per_row": sum(updates) * 1e6 / stream_rows,
        "classifier.update_batch_p50_ms": float(np.percentile(updates, 50)) * 1e3,
        "classifier.update_batch_p99_ms": float(np.percentile(updates, 99)) * 1e3,
        "classifier.update_batches": len(updates),
        "evaluation.kfold_self_s": kfold_self,
        "sampling.traces_us_per_pkt": total_s(spans, "sampling.traces_from_packets") * 1e6 / report["packets"],
        "sampling.report_ms_per_flow_ratio": total_s(spans, "sampling.build_sampling_report")
        * 1e3 / (report["flows"] * report["ratios"]),
    }
    for cmd in _CMDS:
        m[f"cli.{cmd}_glue_s"] = cli_s[cmd] - total_s(spans, f"cli.{cmd}")
    return m
