"""End-to-end command-line workflows."""

import argparse
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowident import cli, sampling
from flowident.cli import build_parser, main
from flowident.features import FEATURE_NAMES, Dataset, FeatureVector, write_dataset
from flowident.flow import Proto, aggregate_table
from flowident.ingest.netflow import encode_netflow_v5
from flowident.ingest.pcap import write_pcap
from helpers import eth_ipv4_frame, mk_packet, nf5_datagram, nf5_record, pcap_file

FIXTURE_SPEC = Path(__file__).parent / "fixtures" / "demo_spec.json"


def run(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


PRIOR = ("--prior-mu", "--prior-kappa", "--prior-alpha", "--prior-beta")

# Each subcommand's positionals and options in parser order, then its
# mutually exclusive groups.  A setting added, renamed or dropped edits this table.
OPTION_INVENTORY = {
    "ingest": (("--pcap", "--netflow", "--labels", "--out", "--inactive-timeout",
                "--active-timeout", "--complete-only"), [("--pcap", "--netflow")]),
    "select": (("dataset", "--bins", "--delta", "--out"), []),
    "train": (("dataset", "--out", "--features", "--features-from", *PRIOR),
              [("--features", "--features-from")]),
    "update": (("model", "dataset", "--out"), []),
    "classify": (("model", "dataset", "--out"), []),
    "sample-report": (("--pcap", "--synth", "--ratios", "--trials", "--seed", "--inactive-timeout",
                       "--active-timeout", "--out-csv", "--out-json"), [("--pcap", "--synth")]),
    "synth": (("spec", "--out-dataset", "--out-pcap", "--out-labels"), []),
    "evaluate": (("dataset", "--k", "--seed", "--features", "--features-from", "--report", "--csv",
                  *PRIOR), [("--features", "--features-from")]),
}


def test_option_inventory():
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    inventory = {
        name: (
            tuple(" ".join(a.option_strings) or a.dest
                  for a in parser._actions if not isinstance(a, argparse._HelpAction)),
            [tuple(" ".join(a.option_strings) for a in group._group_actions)
             for group in parser._mutually_exclusive_groups],
        )
        for name, parser in commands.choices.items()
    }
    assert inventory == OPTION_INVENTORY


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


def test_sample_report_rejects_bad_ratio(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["sample-report", "--synth", str(FIXTURE_SPEC), "--ratios", "128"])
    assert exc_info.value.code == 2
    assert "1:N" in capsys.readouterr().err


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
    before = json.loads(model.read_text(encoding="utf-8"))
    after = json.loads(model2.read_text(encoding="utf-8"))
    before.pop("metadata")
    after.pop("metadata")
    assert after == before


def test_ingest_from_netflow_export(tmp_path, capsys):
    packets = [
        mk_packet(ts=1_700_000_000_000_000, length=60, flags=0x02),
        mk_packet(ts=1_700_000_000_050_000, src="10.0.0.1", dst="10.0.0.2",
                  sport=80, dport=5000, length=52, flags=0x12),
        mk_packet(ts=1_700_000_001_000_000, src="10.0.0.7", dst="10.0.0.8",
                  sport=53, dport=777, proto=Proto.UDP, length=90),
    ]
    from flowident.flow import aggregate

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
    code, out, err = run(["select", ds, "--bins", str(10**20)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: bins must be in 2..{2**63 - 1}, got {10**20}\n"


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
    code, _, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
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
