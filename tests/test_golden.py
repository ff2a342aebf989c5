"""Golden files: outputs that must stay byte-for-byte the same.

The fixtures under ``tests/fixtures/golden_*`` were produced by the
per-row implementation (one ``FeatureVector`` at a time) that the
columnar dataset and the batch scorer replaced, from the frozen
72-row, three-class ``golden_features.csv``.  Any change to training,
updating, fold assignment, scoring or the report format that moves a
single bit shows up here.

The capture written from the demo spec is pinned by its sha256, so the
packet generator and the pcap writer cannot move a byte either.  The
sampling report on that capture (``golden_sampling.*``) was written by the
per-ratio Monte Carlo, one draw per (ratio, flow), that the one-draw engine
replaced; four of its JSON values moved in the last digit, and nothing else,
when each degradation became one rounding of an exact rational of the
survivors' integer sums.  The ``ingest`` outputs on that capture are pinned by the sha256
the per-flow ingest (one record, label row and feature vector per flow) gave
before the columnar one replaced it.  The NetFlow export and the label file
that ``ingest`` reads are pinned by the sha256 they had before the columnar
encoder replaced the per-record ``struct`` one.
"""

import hashlib
import json
from pathlib import Path

from flowident.classifier import load_model, save_model, train, update
from flowident.cli import main
from flowident.evaluation import assign_folds
from flowident.features import Dataset, read_dataset
from flowident.flow import aggregate
from flowident.ingest import encode_netflow_v5, write_labels
from flowident.ingest.pcap import write_pcap
from flowident.synth import generate_packets, load_synth_spec

FIXTURES = Path(__file__).parent / "fixtures"
FEATURES_CSV = FIXTURES / "golden_features.csv"
MODEL_FEATURES = (9, 3, 12, 16, 7)
TRAIN_ROWS = 48
FOLDS_K, FOLDS_SEED = 10, 7
SAMPLING_ARGS = ["--ratios", "1:1,1:8,1:128,1:1024", "--trials", "2000", "--seed", "3"]
DEMO_CAPTURE_SHA256 = "20aba2e14569ae0a9e84be7462d8164f61f0611723296c02bb64634c7d99b214"
INGEST_SHA256 = {
    "labeled": "64c87471cfbe9c3da249f9a4342a4d98bfc4f5c9bc64e8956b8f8055aa220c94",
    "complete": "415fd9a67da30cdfcb15e4aaa2382fe8d301105b6ce8619f2b23f3a6cffde262",
    "netflow": "f4eaf8b0e08ec1d769184c378b0fa62b338d06c9741c8eaad7abea06e5fe867e",
}
EXPORT_SHA256 = {
    "demo.nf5": "f50f48e0f4ad6150f458a100997ecda393e29aedc3389ea497bc4576ded0f492",
    "labels.csv": "0e768fb7a803a54a67abf2c3e02d907f6bbc31d48510821e716919f568e2630a",
}


def saved_model_bytes(model, path) -> bytes:
    save_model(model, path)
    return Path(path).read_bytes()


def trained_then_updated():
    ds = read_dataset(FEATURES_CSV)
    head = Dataset(ds.vectors[:TRAIN_ROWS], ds.alphabet)
    tail = Dataset(ds.vectors[TRAIN_ROWS:], ds.alphabet)
    return update(train(head, MODEL_FEATURES), tail)


def golden_folds() -> dict:
    labels = read_dataset(FEATURES_CSV).labels()
    return {"k": FOLDS_K, "seed": FOLDS_SEED, "folds": assign_folds(labels, FOLDS_K, FOLDS_SEED)}


def evaluate_report_text(tmp_path) -> str:
    out = tmp_path / "report.json"
    code = main(["evaluate", str(FEATURES_CSV), "--k", str(FOLDS_K),
                 "--seed", str(FOLDS_SEED), "--report", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8")


def test_trained_then_updated_model_bytes(tmp_path):
    got = saved_model_bytes(trained_then_updated(), tmp_path / "model.json")
    assert got == (FIXTURES / "golden_model.json").read_bytes()


def test_golden_model_survives_a_load_save_roundtrip(tmp_path):
    loaded = load_model(FIXTURES / "golden_model.json")
    got = saved_model_bytes(loaded, tmp_path / "model.json")
    assert got == (FIXTURES / "golden_model.json").read_bytes()


def test_fold_assignment():
    want = json.loads((FIXTURES / "golden_folds.json").read_text(encoding="utf-8"))
    assert golden_folds() == want


def test_evaluate_report_bytes(tmp_path):
    assert evaluate_report_text(tmp_path) == (FIXTURES / "golden_report.json").read_text(encoding="utf-8")


def test_demo_capture_bytes(tmp_path):
    packets, _ = generate_packets(load_synth_spec(FIXTURES / "demo_spec.json"))
    path = tmp_path / "demo.pcap"
    assert write_pcap(path, packets) == 2070
    data = path.read_bytes()
    assert len(data) == 2_151_283
    assert hashlib.sha256(data).hexdigest() == DEMO_CAPTURE_SHA256


def test_sampling_report_bytes(tmp_path):
    packets, _ = generate_packets(load_synth_spec(FIXTURES / "demo_spec.json"))
    capture, out_json, out_csv = tmp_path / "demo.pcap", tmp_path / "s.json", tmp_path / "s.csv"
    write_pcap(capture, packets)
    code = main(["sample-report", "--pcap", str(capture), *SAMPLING_ARGS,
                 "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert code == 0
    assert out_json.read_text(encoding="utf-8") == (FIXTURES / "golden_sampling.json").read_text(encoding="utf-8")
    assert out_csv.read_text(encoding="utf-8") == (FIXTURES / "golden_sampling.csv").read_text(encoding="utf-8")


def test_ingest_output_bytes(tmp_path):
    packets, label_rows = generate_packets(load_synth_spec(FIXTURES / "demo_spec.json"))
    capture, labels, export = tmp_path / "demo.pcap", tmp_path / "labels.csv", tmp_path / "demo.nf5"
    write_pcap(capture, packets)
    write_labels(labels, label_rows)
    export.write_bytes(b"".join(encode_netflow_v5(aggregate(packets))))
    for path in (export, labels):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256[path.name], path.name
    argv = {
        "labeled": ["--pcap", capture, "--labels", labels],
        "complete": ["--pcap", capture, "--complete-only"],
        "netflow": ["--netflow", export],
    }
    for name, args in argv.items():
        out = tmp_path / f"{name}.csv"
        assert main(["ingest", *map(str, args), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == INGEST_SHA256[name], name
