"""End-to-end command-line workflows."""

import argparse
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowident import cli, sampling
from flowident.cli import build_parser, main
from flowident.features import FEATURE_NAMES, Dataset, FeatureVector, write_dataset
from flowident.flow import Proto, aggregate, aggregate_table
from flowident.ingest.netflow import encode_netflow_v5
from flowident.ingest.pcap import read_pcap, write_pcap
from helpers import eth_ipv4_frame, mk_packet, nf5_datagram, nf5_record, pcap_file

FIXTURE_SPEC = Path(__file__).parent / "fixtures" / "demo_spec.json"


def run(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


PRIOR = (("--prior-mu", 0.0), ("--prior-kappa", 1e-3), ("--prior-alpha", 1.001),
         ("--prior-beta", 1e-3))
TIMEOUTS = (("--inactive-timeout", 15.0), ("--active-timeout", 1800.0))

# Each subcommand's positionals and options in parser order with their
# defaults, then its mutually exclusive groups.  A setting added, renamed or
# dropped, or a default changed, edits this table.
OPTION_INVENTORY = {
    "ingest": ((("--pcap", None), ("--netflow", None), ("--labels", None), ("--out", None),
                *TIMEOUTS, ("--complete-only", False)), [("--pcap", "--netflow")]),
    "select": ((("dataset", None), ("--bins", 10), ("--delta", 0.0), ("--out", None)), []),
    "train": ((("dataset", None), ("--out", None), ("--features", None),
               ("--features-from", None), *PRIOR), [("--features", "--features-from")]),
    "update": ((("model", None), ("dataset", None), ("--out", None)), []),
    "classify": ((("model", None), ("dataset", None), ("--out", None)), []),
    "sample-report": ((("--pcap", None), ("--synth", None), ("--ratios", [128, 256, 512, 1024]),
                       ("--trials", 20000), ("--seed", 0), *TIMEOUTS, ("--out-csv", None),
                       ("--out-json", None)), [("--pcap", "--synth")]),
    "synth": ((("spec", None), ("--out-dataset", None), ("--out-pcap", None),
               ("--out-labels", None)), []),
    "evaluate": ((("dataset", None), ("--k", 10), ("--seed", 0), ("--features", None),
                  ("--features-from", None), ("--report", None), ("--csv", None), *PRIOR),
                 [("--features", "--features-from")]),
}


def test_evaluate_prints_writes_and_reports_the_same_four_values(tmp_path, capsys):
    """The printed line (.4f), the --csv row (.9g) and the --report summary
    carry one set of macro values."""
    ds_csv, report, row_csv = tmp_path / "ds.csv", tmp_path / "cv.json", tmp_path / "cv.csv"
    # Three overlapping classes of unequal size, so that no two of the values agree.
    labels = ["a"] * 28 + ["b"] * 20 + ["c"] * 12
    offset = np.repeat([0.0, 0.8, 1.6], [28, 20, 12])[:, None]
    data = np.random.default_rng(5).normal(size=(60, 16)) + offset
    write_dataset(Dataset.from_labels(data, labels), ds_csv)
    code, out, _ = run(["evaluate", ds_csv, "--k", "4", "--report", report, "--csv", row_csv],
                       capsys)
    assert code == 0
    summary = json.loads(report.read_text(encoding="utf-8"))["summary"]
    values = [summary[name] for name in ("mean_overall_accuracy", "macro_precision",
                                         "macro_recall", "macro_f_measure")]
    assert len({f"{value:.4f}" for value in values}) == 4
    oa, precision, recall, f_measure = values
    assert out == (f"4-fold OA {oa:.4f}  macro precision {precision:.4f}  "
                   f"macro recall {recall:.4f}  macro F {f_measure:.4f}\n")
    (row,) = read_rows(row_csv)
    assert row == {"algorithm": "gaussian-nb", "precision": f"{precision:.9g}",
                   "recall": f"{recall:.9g}", "oa": f"{oa:.9g}", "f_measure": f"{f_measure:.9g}"}


def test_option_inventory():
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    inventory = {
        name: (
            tuple((" ".join(a.option_strings) or a.dest, a.default)
                  for a in parser._actions if not isinstance(a, argparse._HelpAction)),
            [tuple(" ".join(a.option_strings) for a in group._group_actions)
             for group in parser._mutually_exclusive_groups],
        )
        for name, parser in commands.choices.items()
    }
    assert inventory == OPTION_INVENTORY
    # argparse runs an option's type over a string default each time it builds the namespace.
    assert not [option for options, _ in inventory.values() for option, default in options
                if isinstance(default, str)]


def test_full_walkthrough(tmp_path, capsys):
    ds_csv = tmp_path / "direct.csv"
    cap = tmp_path / "demo.pcap"
    labels = tmp_path / "labels.csv"
    flows_csv = tmp_path / "flows.csv"
    sel = tmp_path / "selection.json"
    model = tmp_path / "model.json"
    preds = tmp_path / "predictions.csv"
    report = tmp_path / "cv.json"
    row_csv = tmp_path / "cv_row.csv"
    model2 = tmp_path / "model2.json"

    # 1. generate a deterministic workload from the bundled spec
    code, out, _ = run(
        ["synth", FIXTURE_SPEC, "--out-dataset", ds_csv,
         "--out-pcap", cap, "--out-labels", labels],
        capsys,
    )
    assert code == 0
    assert "wrote 80 feature rows" in out
    assert "wrote 80 label rows" in out
    assert cap.stat().st_size > 24

    # 2. aggregate the capture back into labeled feature rows
    code, out, err = run(
        ["ingest", "--pcap", cap, "--labels", labels, "--out", flows_csv],
        capsys,
    )
    assert code == 0
    assert f"wrote 80 flows to {flows_csv}" in out
    assert "no label row" not in err  # every episode matched its label
    rows = read_rows(flows_csv)
    assert len(rows) == 80
    assert {r["label"] for r in rows} == {"bulk", "chat"}

    # 3. feature selection on the aggregated flows
    code, out, _ = run(["select", flows_csv, "--delta", "0.1", "--out", sel], capsys)
    assert code == 0
    assert "selected features:" in out
    sel_doc = json.loads(sel.read_text(encoding="utf-8"))
    assert sel_doc["selected"]
    assert sel_doc["params"]["delta"] == 0.1

    # 4. train on the selected features
    code, out, _ = run(
        ["train", flows_csv, "--features-from", sel, "--out", model], capsys
    )
    assert code == 0
    assert "trained on 80 flows, 2 classes" in out
    model_doc = json.loads(model.read_text(encoding="utf-8"))
    assert model_doc["selected_features"] == sel_doc["selected"]

    # 5. classify the same rows
    code, out, _ = run(["classify", model, flows_csv, "--out", preds], capsys)
    assert code == 0
    assert "classified 80 flows" in out
    pred_rows = read_rows(preds)
    assert len(pred_rows) == 80
    assert [r["index"] for r in pred_rows] == [str(i) for i in range(80)]
    assert set(r["label"] for r in pred_rows) <= {"bulk", "chat"}

    # 6. cross-validate with reports
    code, out, _ = run(
        ["evaluate", flows_csv, "--k", "5", "--features-from", sel,
         "--report", report, "--csv", row_csv],
        capsys,
    )
    assert code == 0
    assert "5-fold OA" in out
    cv_doc = json.loads(report.read_text(encoding="utf-8"))
    assert cv_doc["k"] == 5
    assert len(cv_doc["folds"]) == 5
    lines = row_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "algorithm,precision,recall,oa,f_measure"
    assert lines[1].startswith("gaussian-nb,")
    assert len(lines) == 2

    # 7. fold the directly generated dataset into the trained model
    code, out, _ = run(["update", model, ds_csv, "--out", model2], capsys)
    assert code == 0
    assert "updated model with 80 flows" in out
    doc2 = json.loads(model2.read_text(encoding="utf-8"))
    for label in ("bulk", "chat"):
        assert doc2["classes"][label]["n"] == model_doc["classes"][label]["n"] + 40


def test_sample_report_at_ratio_one(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    out_json = tmp_path / "report.json"
    code, out, _ = run(
        ["sample-report", "--synth", FIXTURE_SPEC, "--ratios", "1:1",
         "--trials", "1000", "--out-csv", out_csv, "--out-json", out_json],
        capsys,
    )
    assert code == 0
    for metric in ("length", "size", "duration"):
        assert metric in out
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,ratio,adre"
    assert len(lines) == 4
    # keeping every packet loses nothing
    assert all(line.endswith(",0") for line in lines[1:])
    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert doc["flows"] == 80
    assert doc["metrics"]["length"]["adre"]["1:1"] == 0.0
    assert doc["metrics"]["duration"]["estimator"] == "biased"


def test_sample_report_of_a_spec_equals_that_of_its_capture(tmp_path, capsys):
    """--synth reads the capture --pcap would read of the same spec: the same
    lines and the same report bytes."""
    pcap = tmp_path / "demo.pcap"
    assert run(["synth", FIXTURE_SPEC, "--out-pcap", pcap], capsys)[0] == 0
    outputs = []
    for source in (["--synth", FIXTURE_SPEC], ["--pcap", pcap]):
        out_json = tmp_path / f"report{len(outputs)}.json"
        code, out, err = run(["sample-report", *source, "--ratios", "1:2,1:64",
                              "--trials", "1000", "--out-json", out_json], capsys)
        assert (code, err) == (0, "")
        outputs.append((out, out_json.read_bytes()))
    assert outputs[0] == outputs[1]


def test_sample_report_rejects_bad_ratio(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["sample-report", "--synth", str(FIXTURE_SPEC), "--ratios", "128"])
    assert exc_info.value.code == 2
    assert "1:N" in capsys.readouterr().err


def test_sample_report_refuses_a_repeated_ratio_before_reading_input(tmp_path, capsys):
    missing = tmp_path / "absent.pcap"
    with pytest.raises(SystemExit) as exc_info:
        main(["sample-report", "--pcap", str(missing), "--ratios", "1:64,1:128,1:0128"])
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert "ratio 1:128 is listed twice" in err
    assert not out and "absent.pcap" not in err


def test_sample_report_rejects_a_ratio_without_a_float_rate(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["sample-report", "--synth", str(FIXTURE_SPEC), "--ratios", f"1:8,1:{10**400}"])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "must be in 1..1.79769e+308" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["sample-report", "--synth", str(FIXTURE_SPEC)],
    ["evaluate", "dataset.csv"],
])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_seed_must_be_a_non_negative_integer(capsys, command, seed):
    with pytest.raises(SystemExit) as exc_info:
        main([*command, "--seed", seed])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"seed must be a non-negative integer, got '{seed}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("trials, message", [
    ("999", "needs at least 1000 trials"),
    (str(sampling.MAX_TRIALS + 1), f"takes at most {sampling.MAX_TRIALS} trials"),
    ("1" + "0" * 30, f"takes at most {sampling.MAX_TRIALS} trials"),
    ("2.5", "trials must be an integer"),
])
def test_sample_report_refuses_trials_outside_the_budget(capsys, monkeypatch, trials, message):
    monkeypatch.setattr(sampling, "build_sampling_report", None)  # nothing may be drawn
    with pytest.raises(SystemExit) as exc_info:
        main(["sample-report", "--synth", str(FIXTURE_SPEC), "--trials", trials])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_sample_report_refuses_a_spec_past_the_draw_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)  # nothing may be drawn
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"classes": [spec_class(flows=10**12)]}), encoding="utf-8")
    code, out, err = run(["sample-report", "--synth", spec], capsys)
    assert code == 1
    assert err == (f"error: {spec}: classes[0]: 1000000000000 flows of up to 27 draws each "
                   "take the spec past its budget of 134217728 draws\n")


@pytest.mark.parametrize("argv", [
    ["synth", "{spec}", "--out-dataset", "{out}", "--out-pcap", "{pcap}"],
    ["sample-report", "--synth", "{spec}", "--trials", "1000", "--out-json", "{out}"],
])
def test_a_draw_that_refuses_the_spec_exits_one_naming_the_file(tmp_path, capsys, argv):
    paths = {"spec": tmp_path / "spec.json", "out": tmp_path / "out", "pcap": tmp_path / "o.pcap"}
    count = {"kind": "normal", "mean": 5, "std": 1e300}
    paths["spec"].write_text(json.dumps({"classes": [with_packets(count=count)]}),
                             encoding="utf-8")
    code, out, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 1
    assert err.startswith(f"error: {paths['spec']}: classes[0].packets.count: drew packet count ")
    assert err.endswith(", above NetFlow v5's 32-bit counter (4294967295)\n")
    assert out == ""
    assert not paths["out"].exists() and not paths["pcap"].exists()


def test_sample_report_takes_trials_from_min_to_max():
    parser = build_parser()
    for trials in (sampling.MIN_TRIALS, sampling.MAX_TRIALS):
        args = parser.parse_args(["sample-report", "--synth", "s.json", "--trials", str(trials)])
        assert args.trials == trials
    assert parser.parse_args(["evaluate", "d.csv", "--seed", str(2**70)]).seed == 2**70


def test_one_parser_serves_every_call():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["sample-report", "--synth", "s.json", "--trials", "5000"])
    again = parser.parse_args(["sample-report", "--synth", "s.json"])
    assert (first.trials, again.trials) == (5000, sampling.DEFAULT_TRIALS)


def test_missing_input_file_exits_one(tmp_path, capsys):
    code, _, err = run(
        ["ingest", "--pcap", tmp_path / "nope.pcap", "--out", tmp_path / "x.csv"],
        capsys,
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("records, message", [
    ([nf5_record(proto=17, flags=0x12)],
     "datagram at byte 72: record 0: UDP record carries TCP flags 0x12"),
    ([nf5_record(pkts=0)], "datagram at byte 72: record 0: zero packet count"),
    ([nf5_record(first=0, last=1)],
     "datagram at byte 72: record 0: uptime 1 ms is after the export uptime 0 ms"),
])
def test_bad_netflow_record_exits_one_naming_file_and_datagram(tmp_path, capsys, records, message):
    export = tmp_path / "export.bin"
    export.write_bytes(nf5_datagram([nf5_record(sport=7)]) + nf5_datagram(records))
    code, _, err = run(["ingest", "--netflow", export, "--out", tmp_path / "x.csv"], capsys)
    assert code == 1
    assert f"error: {export}: {message}" in err
    assert "Traceback" not in err


def test_non_capture_file_exits_one(tmp_path, capsys):
    bogus = tmp_path / "bogus.pcap"
    bogus.write_bytes(b"this is not a capture file, just text ballast")
    code, _, err = run(
        ["ingest", "--pcap", bogus, "--out", tmp_path / "x.csv"], capsys
    )
    assert code == 1
    assert "not a pcap file" in err
    assert str(bogus) in err


def test_single_class_selection_exits_two(tmp_path, capsys):
    ds = Dataset(
        [FeatureVector.from_values([float(i)] * 16, label="only") for i in range(6)],
        ("only",),
    )
    path = tmp_path / "one.csv"
    write_dataset(ds, path)
    code, _, err = run(["select", path], capsys)
    assert code == 2
    assert "two classes" in err


def test_select_notes_dropped_unlabeled_rows(tmp_path, capsys):
    vectors = [
        FeatureVector.from_values([float(i)] * 16, label=("a", "b")[i % 2])
        for i in range(8)
    ]
    vectors += [FeatureVector.from_values([0.5] * 16)] * 3
    path = tmp_path / "mixed.csv"
    write_dataset(Dataset(vectors, ("a", "b")), path)
    code, _, err = run(["select", path], capsys)
    assert code == 0
    assert "ignoring 3 unlabeled rows" in err


def test_update_with_empty_dataset_keeps_model(tmp_path, capsys):
    flows_csv = tmp_path / "flows.csv"
    model = tmp_path / "model.json"
    model2 = tmp_path / "model2.json"
    run(["synth", FIXTURE_SPEC, "--out-dataset", flows_csv], capsys)
    assert run(["train", flows_csv, "--out", model], capsys)[0] == 0

    empty = tmp_path / "empty.csv"
    write_dataset(Dataset([], ()), empty)
    code, _, _ = run(["update", model, empty, "--out", model2], capsys)
    assert code == 0
    assert json.loads(model2.read_text(encoding="utf-8")) == json.loads(
        model.read_text(encoding="utf-8"))


def test_ingest_from_netflow_export(tmp_path, capsys):
    packets = [
        mk_packet(ts=1_700_000_000_000_000, length=60, flags=0x02),
        mk_packet(ts=1_700_000_000_050_000, src="10.0.0.1", dst="10.0.0.2",
                  sport=80, dport=5000, length=52, flags=0x12),
        mk_packet(ts=1_700_000_001_000_000, src="10.0.0.7", dst="10.0.0.8",
                  sport=53, dport=777, proto=Proto.UDP, length=90),
    ]
    flows = aggregate(packets)
    export = tmp_path / "export.bin"
    export.write_bytes(b"".join(encode_netflow_v5(flows)))
    out_csv = tmp_path / "flows.csv"
    code, out, _ = run(["ingest", "--netflow", export, "--out", out_csv], capsys)
    assert code == 0
    assert f"wrote 2 flows to {out_csv}" in out
    rows = read_rows(out_csv)
    assert len(rows) == 2
    assert {r["transproto"] for r in rows} == {"6", "17"}



def test_ingest_of_an_empty_netflow_file_writes_the_header_only(tmp_path, capsys):
    export = tmp_path / "empty.bin"
    export.write_bytes(b"")
    out_csv = tmp_path / "flows.csv"
    code, out, _ = run(["ingest", "--netflow", export, "--out", out_csv], capsys)
    assert code == 0
    assert f"wrote 0 flows to {out_csv}" in out
    assert out_csv.read_text(encoding="utf-8").splitlines() == [",".join(FEATURE_NAMES) + ",label"]


def test_ingest_of_a_header_only_capture_writes_the_header_only(tmp_path, capsys):
    cap = tmp_path / "empty.pcap"
    write_pcap(cap, [])
    out_csv = tmp_path / "flows.csv"
    code, out, _ = run(["ingest", "--pcap", cap, "--out", out_csv], capsys)
    assert code == 0
    assert f"wrote 0 flows to {out_csv}" in out
    assert out_csv.read_text(encoding="utf-8").splitlines() == [",".join(FEATURE_NAMES) + ",label"]


def test_ingest_complete_only_filters_open_flows(tmp_path, capsys):
    packets = [
        # TCP with SYN and FIN: complete
        mk_packet(ts=1_000_000, length=60, flags=0x02),
        mk_packet(ts=1_100_000, src="10.0.0.1", dst="10.0.0.2",
                  sport=80, dport=5000, length=52, flags=0x12),
        mk_packet(ts=1_200_000, length=52, flags=0x11),
        # UDP exchange: never complete
        mk_packet(ts=1_500_000, src="10.0.0.5", dst="10.0.0.6",
                  sport=5353, dport=5353, proto=Proto.UDP, length=76),
    ]
    cap = tmp_path / "two_flows.pcap"
    write_pcap(cap, packets)
    out_csv = tmp_path / "flows.csv"
    code, out, _ = run(
        ["ingest", "--pcap", cap, "--complete-only", "--out", out_csv], capsys
    )
    assert code == 0
    assert "wrote 1 flows" in out
    [row] = read_rows(out_csv)
    assert row["transproto"] == "6"
    assert row["bidir_packets"] == "3"


@pytest.mark.parametrize("argv", [
    ["ingest", "--pcap", "{pcap}", "--out", "{out}"],
    ["sample-report", "--pcap", "{pcap}", "--trials", "1000", "--out-json", "{out}"],
])
def test_pcap_commands_report_skipped_frames(tmp_path, capsys, argv):
    frames = [eth_ipv4_frame(total_length=60, flags=0x02),
              eth_ipv4_frame(total_length=60, ethertype=0x0806),
              eth_ipv4_frame(total_length=60, ethertype=0x86DD),
              eth_ipv4_frame(total_length=60, src="10.0.0.1", dst="10.0.0.2",
                             sport=80, dport=5000, flags=0x12)]
    paths = {"pcap": tmp_path / "mixed.pcap", "out": tmp_path / "out"}
    paths["pcap"].write_bytes(pcap_file((1_000_000 + i, f) for i, f in enumerate(frames)))
    code, _, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 0
    assert err == "note: skipped 2 frames that are not IPv4 TCP/UDP\n"
    assert paths["out"].exists()
    # Nothing skipped, nothing said.
    paths["pcap"].write_bytes(pcap_file([(1_000_000, frames[0])]))
    code, _, err = run([arg.format(**paths) for arg in argv], capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv", [
    ["ingest", "--pcap", "{pcap}", "--out", "{out}"],
    ["sample-report", "--pcap", "{pcap}", "--trials", "1000", "--out-json", "{out}"],
])
def test_pcap_commands_report_rejected_packets_and_aggregate_once(tmp_path, capsys, monkeypatch,
                                                                   argv):
    calls = []

    def counted(*args):
        calls.append(args)
        return aggregate_table(*args)

    monkeypatch.setattr(cli, "aggregate_table", counted)
    monkeypatch.setattr(sampling, "aggregate_table", counted)
    frame = eth_ipv4_frame(total_length=60, flags=0x02)
    paths = {"pcap": tmp_path / "late.pcap", "out": tmp_path / "out"}
    # The third packet is 1.5 s behind the second, past the reorder tolerance.
    paths["pcap"].write_bytes(pcap_file([(10_000_000, frame), (12_000_000, frame),
                                         (10_500_000, frame)]))
    code, _, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 0
    assert err == "note: rejected 1 out-of-order packets\n"
    assert len(calls) == 1
    assert paths["out"].exists()


def test_sample_report_on_a_capture_builds_no_per_flow_trace(tmp_path, capsys, monkeypatch):
    """The capture's episodes reach the report as one trace table: no
    FlowTrace is constructed, and the table is never iterated flow by flow."""
    pcap, out = tmp_path / "demo.pcap", tmp_path / "out.json"
    assert run(["synth", FIXTURE_SPEC, "--out-pcap", pcap], capsys)[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a per-flow trace was built")

    monkeypatch.setattr(sampling.FlowTrace, "__init__", refuse)
    monkeypatch.setattr(sampling.TraceTable, "__iter__", refuse)
    code, _, err = run(["sample-report", "--pcap", pcap, "--ratios", "1:64",
                        "--trials", "1000", "--out-json", out], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out.read_text(encoding="utf-8"))["flows"] == 80


def test_sample_report_on_a_capture_without_flows_exits_two(tmp_path, capsys):
    pcap, out = tmp_path / "arp.pcap", tmp_path / "out.json"
    pcap.write_bytes(pcap_file([(1_000_000, eth_ipv4_frame(ethertype=0x0806))]))
    code, _, err = run(["sample-report", "--pcap", pcap, "--trials", "1000", "--out-json", out],
                       capsys)
    assert code == 2
    assert err == ("note: skipped 1 frames that are not IPv4 TCP/UDP\n"
                   "error: sampling needs at least one flow\n")
    assert not out.exists()


def test_train_with_explicit_feature_list(tmp_path, capsys):
    flows_csv = tmp_path / "flows.csv"
    run(["synth", FIXTURE_SPEC, "--out-dataset", flows_csv], capsys)

    model = tmp_path / "model.json"
    code, _, _ = run(
        ["train", flows_csv, "--features", "7,16", "--out", model], capsys
    )
    assert code == 0
    assert json.loads(model.read_text(encoding="utf-8"))["selected_features"] == [7, 16]

    code, _, _ = run(
        ["train", flows_csv, "--features", "all", "--out", model], capsys
    )
    assert code == 0
    assert json.loads(model.read_text(encoding="utf-8"))["selected_features"] == list(range(1, 17))

    with pytest.raises(SystemExit) as exc_info:
        main(["train", str(flows_csv), "--features", "7,99", "--out", str(model)])
    assert exc_info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [["train", "{csv}", "--out", "{out}"],
                                     ["evaluate", "{csv}", "--report", "{out}"]])
def test_features_and_features_from_exclude_each_other(tmp_path, capsys, command):
    paths = {"csv": tmp_path / "flows.csv", "out": tmp_path / "out", "sel": tmp_path / "sel.json"}
    run(["synth", FIXTURE_SPEC, "--out-dataset", paths["csv"]], capsys)
    paths["sel"].write_text('{"selected": [7, 16]}', encoding="utf-8")
    both = command + ["--features", "1,2,3", "--features-from", "{sel}"]
    with pytest.raises(SystemExit) as exc_info:
        main([arg.format(**paths) for arg in both])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --features-from: not allowed with argument --features" in err
    assert not paths["out"].exists()


def test_select_takes_any_bins_up_to_int64(tmp_path, capsys):
    """At bins >= rows every tie group is its own bin, as at bins == rows;
    past int64 the codes have no type, and the option exits 2."""
    ds = tmp_path / "demo.csv"
    run(["synth", FIXTURE_SPEC, "--out-dataset", ds], capsys)
    code, out, _ = run(["select", ds, "--bins", "80"], capsys)
    assert (code, out) == (0, "selected features: 1\n")
    code, out, _ = run(["select", ds, "--bins", str(2**63 - 1)], capsys)
    assert (code, out) == (0, "selected features: 1\n")
    with pytest.raises(SystemExit) as exc_info:
        main(["select", str(ds), "--bins", str(10**20)])
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument --bins: bins must be in 2..{2**63 - 1}, got {10**20}\n")


@pytest.mark.parametrize("argv", [
    ["select", "{csv}", "--bins", str(2**63 - 1)],
    ["select", "{csv}", "--bins", str(10**20)],
    ["select", "{csv}", "--delta", "1e308"],
    ["evaluate", "{csv}", "--k", str(10**20)],
    ["evaluate", "{csv}", "--k", "2", "--seed", str(2**200)],
    ["sample-report", "--synth", "{spec}", "--trials", "1000", "--seed", str(2**200)],
    ["sample-report", "--synth", "{spec}", "--trials", str(sampling.MIN_TRIALS)],
    ["sample-report", "--synth", "{spec}", "--trials", str(sampling.MAX_TRIALS)],
    ["sample-report", "--synth", "{spec}", "--trials", "1000",
     "--ratios", ",".join(f"1:{n}" for n in range(1, 51))],
    *([command, "--pcap", "{pcap}", *rest, option, value]
      for command, rest in (("ingest", ("--out", "{out}")), ("sample-report", ("--trials", "1000")))
      for option in ("--inactive-timeout", "--active-timeout")
      for value in ("1e300", "1e-300")),
])
def test_numeric_options_at_their_extremes_exit_cleanly(tmp_path, capsys, argv):
    """Each run ends in exit 0, 1 or 2 with no exception escaping main."""
    paths = {"spec": tmp_path / "spec.json", "csv": tmp_path / "flows.csv",
             "pcap": tmp_path / "one.pcap", "out": tmp_path / "out"}
    # One flow for the packet commands; two flows in each of two classes for the others.
    paths["spec"].write_text(json.dumps({"classes": [spec_class(flows=1)]}), encoding="utf-8")
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"classes": [spec_class(), spec_class(label="b")]}), encoding="utf-8")
    assert run(["synth", two, "--out-dataset", paths["csv"]], capsys)[0] == 0
    assert run(["synth", paths["spec"], "--out-pcap", paths["pcap"]], capsys)[0] == 0
    try:
        code = main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


# Each subcommand over small inputs, and the numeric options it takes.
CHILD_RUNS = (
    (("ingest", "--pcap", "{pcap}", "--out", "{out}"), [name for name, _ in TIMEOUTS]),
    (("ingest", "--netflow", "{netflow}", "--out", "{out}"), [name for name, _ in TIMEOUTS]),
    (("select", "{csv}"), ["--bins", "--delta"]),
    (("train", "{csv}", "--out", "{out}"), [name for name, _ in PRIOR]),
    (("evaluate", "{csv}"), ["--k", "--seed", *(name for name, _ in PRIOR)]),
    (("sample-report", "--synth", "{spec}", "--trials", "1000"),
     ["--trials", "--seed", "--ratios", *(name for name, _ in TIMEOUTS)]),
)
OPTION_TEXT = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(("0", "1", "2", "-1", "1e308", "1e-320", "nan", "-inf", "", "1_000", "0x10",
                     str(2**63 - 1), str(2**63), str(sampling.MIN_TRIALS - 1),
                     str(sampling.MAX_TRIALS), str(sampling.MAX_TRIALS + 1))),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=4),
)
RATIOS_TEXT = OPTION_TEXT | st.lists(
    st.integers(-1, 2**70).map("1:{}".format) | st.sampled_from(("1:1", "2:3", "1:", "")),
    min_size=1, max_size=60).map(",".join)
# ``python -m flowident.cli`` under a 1 GiB address-space limit, which the
# child sets on itself; these inputs need under 300 MiB.
LIMITED_CLI = """
import resource, runpy
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
runpy.run_module("flowident.cli", run_name="__main__", alter_sys=True)
"""


@pytest.fixture(scope="module")
def child_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("child")
    paths = {name: tmp / name for name in ("spec", "csv", "pcap", "netflow", "out")}
    spec = {"classes": [spec_class(), spec_class(label="b")]}
    paths["spec"].write_text(json.dumps(spec), encoding="utf-8")
    assert main(["synth", *map(str, (paths["spec"], "--out-dataset", paths["csv"],
                                     "--out-pcap", paths["pcap"]))]) == 0
    paths["netflow"].write_bytes(b"".join(encode_netflow_v5(aggregate(read_pcap(paths["pcap"])))))
    return paths


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(CHILD_RUNS))
def test_numeric_options_exit_cleanly_in_a_child_process(child_inputs, data, run_spec):
    """``flowident`` in its own process, under an address-space limit set in
    that process only, exits 0, 1 or 2 with no traceback whatever numbers
    its options get."""
    command, options = run_spec
    argv = [arg.format(**child_inputs) for arg in command]
    for option in data.draw(st.lists(st.sampled_from(options), min_size=1, max_size=3, unique=True)):
        argv.append(f"{option}={data.draw(RATIOS_TEXT if option == '--ratios' else OPTION_TEXT)}")

    proc = subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv], capture_output=True,
                          encoding="utf-8", errors="replace", timeout=120)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text, message", [
    ('{"selected": [3.7, 16.2]}', "'selected': feature id 3.7 is not an integer"),
    ('{"selected": "12"}', "'selected': feature ids must be a list of integers, got '12'"),
    ('{"selected": [true, 2]}', "'selected': feature id True is not an integer"),
    ('{"selected": ["3"]}', "'selected': feature id '3' is not an integer"),
    ('{"selected": [0, 2]}', "'selected': feature id 0 outside 1..16"),
    ('{"selected": []}', "'selected': need at least one feature"),
    ("{nope", "not valid JSON"),
    ("5", "no 'selected' list"),
    ('{"kept": [3]}', "no 'selected' list"),
])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_bad_selection_json_exits_one_naming_the_file(tmp_path, capsys, command, text, message):
    flows_csv = tmp_path / "flows.csv"
    run(["synth", FIXTURE_SPEC, "--out-dataset", flows_csv], capsys)
    sel = tmp_path / "selection.json"
    sel.write_text(text, encoding="utf-8")
    out = ["--out", tmp_path / "model.json"] if command == "train" else []
    code, _, err = run([command, flows_csv, "--features-from", sel, *out], capsys)
    assert code == 1
    assert f"error: {sel}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("ids", [[9.9, 16], ["9"], [True], 9, [1, 1], [0]])
def test_model_with_non_integer_feature_ids_exits_one(tmp_path, capsys, ids):
    flows_csv = tmp_path / "flows.csv"
    model = tmp_path / "model.json"
    run(["synth", FIXTURE_SPEC, "--out-dataset", flows_csv], capsys)
    run(["train", flows_csv, "--features", "9,16", "--out", model], capsys)
    doc = json.loads(model.read_text(encoding="utf-8"))
    doc["selected_features"] = ids
    model.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(["classify", model, flows_csv, "--out", tmp_path / "p.csv"], capsys)
    assert code == 1
    assert f"error: {model}: selected_features: " in err


def test_tampered_model_version_exits_one(tmp_path, capsys):
    flows_csv = tmp_path / "flows.csv"
    model = tmp_path / "model.json"
    run(["synth", FIXTURE_SPEC, "--out-dataset", flows_csv], capsys)
    run(["train", flows_csv, "--out", model], capsys)
    doc = json.loads(model.read_text(encoding="utf-8"))
    doc["version"] = "nfi-model/99"
    model.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(
        ["classify", model, flows_csv, "--out", tmp_path / "p.csv"], capsys
    )
    assert code == 1
    assert "nfi-model/99" in err


def test_synth_requires_an_output(capsys):
    code, _, err = run(["synth", FIXTURE_SPEC], capsys)
    assert code == 2
    assert "nothing to do" in err


def test_parsing_a_command_without_a_seed_loads_no_random_generator():
    """numpy.random adds about 5 MiB to a process; only a command that draws loads it."""
    code = ("import sys; from flowident.cli import build_parser; "
            "build_parser().parse_args(['ingest', '--pcap', 'a', '--out', 'b']); "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "flowident.cli", "--help"],
        capture_output=True, encoding="utf-8",
    )
    assert proc.returncode == 0
    assert "flowident" in proc.stdout
    assert "sample-report" in proc.stdout


def test_non_finite_feature_cell_exits_one(tmp_path, capsys):
    flows_csv = tmp_path / "flows.csv"
    run(["synth", FIXTURE_SPEC, "--out-dataset", flows_csv], capsys)
    lines = flows_csv.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[2] = "nan"
    lines[5] = ",".join(cells)
    flows_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(["train", flows_csv, "--out", tmp_path / "m.json"], capsys)
    assert code == 1
    assert "line 6: column duration: non-finite value nan" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("tamper", [
    lambda doc: [1, 2],
    lambda doc: doc["classes"]["bulk"].update(n=-3),
    lambda doc: doc["classes"]["bulk"]["posteriors"]["1"].update(mu=float("nan")),
    lambda doc: doc["classes"]["bulk"]["plugin_means"].update({"1": float("inf")}),
    lambda doc: doc["classes"]["chat"]["posteriors"]["2"].update(kappa=0.0),
    lambda doc: doc["classes"]["chat"]["posteriors"]["2"].update(alpha=-1.0),
    lambda doc: doc["classes"]["chat"]["posteriors"]["2"].update(beta=float("inf")),
    lambda doc: doc["classes"]["chat"]["plugin_vars"].update({"2": 0.0}),
    lambda doc: doc.update(alphabet=["bulk", "bulk"]),
    lambda doc: doc.update(alphabet=[0], classes=[]),
    lambda doc: doc.update(alphabet=[1, "chat"], classes=[doc["classes"]["bulk"]]),
    lambda doc: doc.update(alphabet=[0, 1], classes=[doc["classes"]["bulk"], doc["classes"]["chat"]]),
])
def test_invalid_model_exits_one(tmp_path, capsys, tamper):
    flows_csv = tmp_path / "flows.csv"
    model = tmp_path / "model.json"
    run(["synth", FIXTURE_SPEC, "--out-dataset", flows_csv], capsys)
    run(["train", flows_csv, "--out", model], capsys)
    doc = json.loads(model.read_text(encoding="utf-8"))
    doc = tamper(doc) or doc
    model.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["classify", model, flows_csv, "--out", tmp_path / "p.csv"],
                 ["update", model, flows_csv, "--out", tmp_path / "m2.json"]):
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith(f"error: {model}: ")


def demo_dataset_and_model(tmp_path, capsys):
    """The demo spec's direct dataset and a model trained on its features 9 and 16."""
    ds_csv, model = tmp_path / "ds.csv", tmp_path / "model.json"
    run(["synth", FIXTURE_SPEC, "--out-dataset", ds_csv], capsys)
    run(["train", ds_csv, "--features", "9,16", "--out", model], capsys)
    return ds_csv, model


def tamper_model(model, tamper):
    doc = json.loads(model.read_text(encoding="utf-8"))
    tamper(doc)
    model.write_text(json.dumps(doc), encoding="utf-8")


def test_update_that_overflows_exits_two_and_writes_nothing(tmp_path, capsys):
    ds_csv, model = demo_dataset_and_model(tmp_path, capsys)
    tamper_model(model, lambda doc: doc["classes"]["bulk"]["posteriors"]["9"].update(
        mu=1e300, kappa=1e10))
    out = tmp_path / "m2.json"
    code, _, err = run(["update", model, ds_csv, "--out", out], capsys)
    assert code == 2
    assert err == "error: class 'bulk' feature 9: mu is not finite (inf)\n"
    assert not out.exists()


def test_train_whose_variance_overflows_exits_two_and_writes_nothing(tmp_path, capsys):
    ds_csv = tmp_path / "ds.csv"
    run(["synth", FIXTURE_SPEC, "--out-dataset", ds_csv], capsys)
    with open(ds_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    pps = rows[0].index("pps")
    bulk = [row for row in rows[1:] if row[-1] == "bulk"]
    bulk[0][pps], bulk[1][pps] = "1e200", "-1e200"
    with open(ds_csv, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "m.json"
    code, _, err = run(["train", ds_csv, "--out", out], capsys)
    assert code == 2
    assert err == "error: class 'bulk' feature 7: beta is not finite (inf)\n"
    assert not out.exists()


def test_model_whose_derived_variance_overflows_exits_one(tmp_path, capsys):
    ds_csv, model = demo_dataset_and_model(tmp_path, capsys)

    def tamper(doc):
        doc["classes"]["bulk"]["posteriors"]["9"].update(alpha=1.000000000001, beta=1e300)
        for entry in doc["classes"].values():
            del entry["plugin_vars"]

    tamper_model(model, tamper)
    out = tmp_path / "p.csv"
    code, _, err = run(["classify", model, ds_csv, "--out", out], capsys)
    assert code == 1
    assert err == f"error: {model}: class 'bulk' feature 9: plugin_vars is not finite (inf)\n"
    assert not out.exists()


def test_predictions_stay_two_fields_for_a_label_with_a_comma(tmp_path, capsys):
    cap, labels = tmp_path / "demo.pcap", tmp_path / "labels.csv"
    flows_csv, model, preds = tmp_path / "flows.csv", tmp_path / "model.json", tmp_path / "p.csv"
    run(["synth", FIXTURE_SPEC, "--out-pcap", cap, "--out-labels", labels], capsys)
    with open(labels, newline="", encoding="utf-8") as fh:
        rows = [[("voip, chat" if cell == "chat" else cell) for cell in row]
                for row in csv.reader(fh)]
    with open(labels, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    for argv in (["ingest", "--pcap", cap, "--labels", labels, "--out", flows_csv],
                 ["train", flows_csv, "--features", "9,16", "--out", model],
                 ["classify", model, flows_csv, "--out", preds]):
        assert run(argv, capsys)[0] == 0
    with open(preds, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["index", "label"]
    assert [row[0] for row in got[1:]] == [str(i) for i in range(80)]
    assert {len(row) for row in got} == {2}
    assert {row[1] for row in got[1:]} == {"bulk", "voip, chat"}
    assert preds.read_text(encoding="utf-8").startswith("index,label\n0,")


@pytest.mark.parametrize("argv, message", [
    (["ingest", "--pcap", "{pcap}", "--out", "{out}", "--inactive-timeout", "nan"],
     "inactive_timeout must be finite and positive, got nan"),
    (["ingest", "--pcap", "{pcap}", "--out", "{out}", "--active-timeout", "inf"],
     "active_timeout must be finite and positive, got inf"),
    (["sample-report", "--pcap", "{pcap}", "--out-json", "{out}", "--inactive-timeout", "nan"],
     "inactive_timeout must be finite and positive, got nan"),
    (["sample-report", "--pcap", "{pcap}", "--out-json", "{out}", "--active-timeout", "inf"],
     "active_timeout must be finite and positive, got inf"),
    (["train", "{csv}", "--out", "{out}", "--prior-kappa", "nan"],
     "prior kappa must be finite and positive, got nan"),
    (["train", "{csv}", "--out", "{out}", "--prior-beta", "inf"],
     "prior beta must be finite and positive, got inf"),
    (["train", "{csv}", "--out", "{out}", "--prior-mu=-inf"],
     "prior mu must be finite, got -inf"),
    (["evaluate", "{csv}", "--report", "{out}", "--prior-alpha", "nan"],
     "prior alpha must be finite and positive, got nan"),
    (["select", "{csv}", "--out", "{out}", "--delta", "nan"],
     "delta must be finite, got nan"),
])
def test_non_finite_numeric_option_exits_two(tmp_path, capsys, argv, message):
    paths = {"pcap": tmp_path / "demo.pcap", "csv": tmp_path / "flows.csv",
             "out": tmp_path / "out"}
    run(["synth", FIXTURE_SPEC, "--out-pcap", paths["pcap"], "--out-dataset", paths["csv"]],
        capsys)
    option = [arg for arg in argv if arg.startswith("--")][-1].split("=")[0]
    with pytest.raises(SystemExit) as exc_info:
        main([arg.format(**paths) for arg in argv])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {message}\n")
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv, message", [
    (["ingest", "--netflow", "{missing}", "--out", "{out}", "--inactive-timeout", "nan"],
     "argument --inactive-timeout: inactive_timeout must be finite and positive, got nan"),
    (["ingest", "--netflow", "{missing}", "--out", "{out}", "--active-timeout", "-5"],
     "argument --active-timeout: active_timeout must be finite and positive, got -5.0"),
    (["ingest", "--pcap", "{missing}", "--out", "{out}", "--inactive-timeout", "nan"],
     "argument --inactive-timeout: inactive_timeout must be finite and positive, got nan"),
    (["sample-report", "--synth", "{missing}", "--active-timeout", "0"],
     "argument --active-timeout: active_timeout must be finite and positive, got 0.0"),
    (["ingest", "--pcap", "{missing}", "--out", "{out}", "--active-timeout", "soon"],
     "argument --active-timeout: active_timeout must be a number, got 'soon'"),
    (["train", "{missing}", "--out", "{out}", "--prior-kappa", "nan"],
     "argument --prior-kappa: prior kappa must be finite and positive, got nan"),
    (["evaluate", "{missing}", "--prior-alpha", "0"],
     "argument --prior-alpha: prior alpha must be finite and positive, got 0.0"),
    (["select", "{missing}", "--delta", "nan"], "argument --delta: delta must be finite, got nan"),
    (["select", "{missing}", "--bins", str(10**20)],
     f"argument --bins: bins must be in 2..{2**63 - 1}, got {10**20}"),
    (["select", "{missing}", "--bins", "1"], f"argument --bins: bins must be in 2..{2**63 - 1}, got 1"),
    (["select", "{missing}", "--bins", "2.5"], "argument --bins: bins must be an integer, got '2.5'"),
    (["evaluate", "{missing}", "--k", "1"], "argument --k: k-fold needs k >= 2"),
    (["evaluate", "{missing}", "--k", "ten"], "argument --k: k must be an integer, got 'ten'"),
])
def test_numeric_options_are_refused_before_any_file_is_read(tmp_path, capsys, argv, message):
    """A missing input would exit 1: exit 2 naming the option means the value
    was refused while the command line was parsed, before any file was opened."""
    paths = {"missing": tmp_path / "missing", "out": tmp_path / "out"}
    with pytest.raises(SystemExit) as exc_info:
        main([arg.format(**paths) for arg in argv])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n")
    assert "Traceback" not in err
    assert not paths["out"].exists()


NOT_UTF8 = {
    "spec": b'{"classes": [{"label": "caf\xe9", "flows": 2}]}',
    "labels": b"ip_lo,port_lo,ip_hi,port_hi,proto,first_ts,label\n"
              b"10.0.0.1,80,10.0.0.2,5000,TCP,1,caf\xe9\n",
    "features": ",".join(FEATURE_NAMES + ("label",)).encode() + b"\n"
                + b"1," * 16 + b"caf\xe9\n",
    "selection": b'{"selected": [1], "note": "caf\xe9"}',
    "model": b'{"version": "nfi-model/1", "note": "caf\xe9"}',
}


@pytest.mark.parametrize("argv, bad", [
    (["synth", "{bad}", "--out-dataset", "{out}"], "spec"),
    (["ingest", "--pcap", "{pcap}", "--labels", "{bad}", "--out", "{out}"], "labels"),
    (["train", "{bad}", "--out", "{out}"], "features"),
    (["train", "{csv}", "--features-from", "{bad}", "--out", "{out}"], "selection"),
    (["classify", "{bad}", "{csv}", "--out", "{out}"], "model"),
])
def test_text_input_that_is_not_utf8_exits_one_naming_the_file(tmp_path, capsys, argv, bad):
    paths = {"pcap": tmp_path / "demo.pcap", "csv": tmp_path / "flows.csv",
             "out": tmp_path / "out", "bad": tmp_path / "latin1"}
    run(["synth", FIXTURE_SPEC, "--out-pcap", paths["pcap"], "--out-dataset", paths["csv"]],
        capsys)
    paths["bad"].write_bytes(NOT_UTF8[bad])
    code, _, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 1
    assert err.startswith(f"error: {paths['bad']}: ")
    assert "Traceback" not in err
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv, header", [
    (["ingest", "--pcap", "{pcap}", "--labels", "{bad}", "--out", "{out}"],
     "ip_lo,port_lo,ip_hi,port_hi,proto,first_ts,label"),
    (["train", "{bad}", "--out", "{out}"], ",".join(FEATURE_NAMES + ("label",))),
])
def test_csv_field_over_the_size_limit_exits_one_naming_the_file(tmp_path, capsys, argv, header):
    paths = {"pcap": tmp_path / "demo.pcap", "out": tmp_path / "out", "bad": tmp_path / "big.csv"}
    run(["synth", FIXTURE_SPEC, "--out-pcap", paths["pcap"]], capsys)
    paths["bad"].write_text(header + "\n" + "x" * 200_000 + "\n", encoding="utf-8")
    code, _, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 1
    assert err == f"error: {paths['bad']}: line 2: field larger than field limit (131072)\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv", [
    ["synth", "{bad}", "--out-dataset", "{out}"],
    ["train", "{csv}", "--features-from", "{bad}", "--out", "{out}"],
    ["classify", "{bad}", "{csv}", "--out", "{out}"],
])
def test_json_nested_too_deeply_exits_one_naming_the_file(tmp_path, capsys, argv):
    paths = {"csv": tmp_path / "flows.csv", "out": tmp_path / "out", "bad": tmp_path / "deep.json"}
    run(["synth", FIXTURE_SPEC, "--out-dataset", paths["csv"]], capsys)
    paths["bad"].write_text("[" * 100_000, encoding="utf-8")
    code, _, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 1
    assert err.startswith(f"error: {paths['bad']}: not valid JSON (maximum recursion depth")
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv", [
    ["synth", "{bad}", "--out-dataset", "{out}"],
    ["train", "{csv}", "--features-from", "{bad}", "--out", "{out}"],
    ["classify", "{bad}", "{csv}", "--out", "{out}"],
])
def test_json_integer_past_the_int_conversion_limit_exits_one_naming_the_file(tmp_path, capsys, argv):
    paths = {"csv": tmp_path / "flows.csv", "out": tmp_path / "out", "bad": tmp_path / "long.json"}
    run(["synth", FIXTURE_SPEC, "--out-dataset", paths["csv"]], capsys)
    paths["bad"].write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
    code, _, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 1
    assert err.startswith(f"error: {paths['bad']}: not valid JSON (Exceeds the limit (4300 digits)")
    assert not paths["out"].exists()


def spec_class(**changes):
    cls = {
        "label": "a", "flows": 2,
        "features": {"pps": {"mean": 1.0, "std": 1.0}},
        "packets": {"count": {"kind": "fixed", "value": 3},
                    "size": {"kind": "normal", "mean": 100, "std": 10},
                    "iat": {"kind": "uniform", "low": 0.1, "high": 0.2}},
    }
    return {**cls, **changes}


def with_packets(**changes):
    return spec_class(packets={**spec_class()["packets"], **changes})


@pytest.mark.parametrize("doc, message", [
    ({"classes": [1]}, "classes[0]: a class must be an object, got 1"),
    ({"classes": [spec_class(flows="abc")]}, "classes[0]: flows must be an integer, got 'abc'"),
    ({"seed": "x", "classes": [spec_class()]}, "seed must be an integer, got 'x'"),
    ({"classes": [spec_class(server_port="x")]},
     "classes[0]: server_port must be an integer, got 'x'"),
    ({"classes": [spec_class(features={"pps": {"mean": "x", "std": 1}})]},
     "classes[0]: feature 'pps': mean must be a finite number, got 'x'"),
    ({"classes": [spec_class(features=[1])]}, "classes[0]: features must be an object, got [1]"),
    ({"classes": [spec_class(packets=5)]}, "classes[0]: packets must be an object, got 5"),
    ({"classes": [with_packets(count={"kind": "fixed", "value": float("nan")})]},
     "classes[0].packets.count: value must be a finite number, got nan"),
    ({"classes": [spec_class(features={"pps": {"mean": 1, "std": -1}})]},
     "classes[0]: feature 'pps': std must be >= 0, got -1"),
    ({"classes": [with_packets(size={"kind": "normal", "mean": 100, "std": -10})]},
     "classes[0].packets.size: std must be >= 0, got -10"),
    ({"classes": [with_packets(iat={"kind": "uniform", "low": 0.2, "high": 0.1})]},
     "classes[0].packets.iat: high 0.1 is below low 0.2"),
    ({"classes": [spec_class(features={"pps": {"mean": float("nan"), "std": 1}})]},
     "classes[0]: feature 'pps': mean must be a finite number, got nan"),
    ({"classes": [with_packets(size={"kind": "uniform_int", "low": 1e300, "high": 1e300})]},
     "classes[0].packets.size: low and high must lie in the int64 range"),
    ({"classes": [with_packets(size={"kind": "uniform", "low": -1e308, "high": 1e308})]},
     "classes[0].packets.size: high - low must be a finite number, got inf"),
    ({"classes": [with_packets(count={"kind": "fixed", "value": 1e300})]},
     "classes[0].packets.count: packet count 1e+300 is above NetFlow v5's 32-bit counter "
     "(4294967295)"),
    ({"classes": [with_packets(iat={"kind": "fixed", "value": 1e300})]},
     "classes[0].packets.iat: packet times pass the 32-bit seconds of the pcap format (year 2106)"),
    ({"classes": [with_packets(iat={"kind": "fixed", "value": 5e9})]},
     "classes[0].packets.iat: packet times pass the 32-bit seconds of the pcap format (year 2106)"),
    ({"classes": [spec_class(flows=40, features={"pps": {"mean": 1e308, "std": 1e308}})]},
     "classes[0]: feature 'pps': drew inf, not a finite number"),
    ({"classes": [spec_class(flows=10**12)]}, "classes[0]: 1000000000000 flows of up to 27 draws "
     "each take the spec past its budget of 134217728 draws"),
])
def test_malformed_spec_exits_one_naming_the_file(tmp_path, capsys, doc, message):
    spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(["synth", spec, "--out-dataset", out, "--out-pcap", tmp_path / "o.pcap"],
                       capsys)
    assert code == 1
    assert err == f"error: {spec}: {message}\n"
    assert not out.exists()
    assert not (tmp_path / "o.pcap").exists()
