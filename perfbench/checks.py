"""Output checks, each against a reference computed without the layer under test.

The references come from the generator's ground truth, from plain NumPy
formulas, or from the file formats themselves, so a faster engine or a new
code path passes them unchanged as long as its results are right.  Every
check raises :class:`CheckError` with a reason.
"""

from __future__ import annotations

import csv
import json

import numpy as np

# Standard errors allowed between a Monte Carlo ADRE and its closed form.
CLT_Z = 6.0


class CheckError(Exception):
    """An output does not match its reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_feature_csv(path) -> tuple[list[str], np.ndarray, list[str]]:
    """Header, float matrix and label column of a feature CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _expect(bool(rows), f"{path}: empty file")
    header, body = rows[0], rows[1:]
    _expect(header[-1] == "label", f"{path}: last column is not 'label'")
    values = np.array([[float(v) for v in row[:-1]] for row in body], dtype=np.float64)
    return header, values.reshape(len(body), len(header) - 1), [row[-1] for row in body]


def _flow_rows(path):
    header, values, labels = read_feature_csv(path)
    col = {name: values[:, header.index(name)] for name in
           ("lport", "hport", "transproto", "bidir_packets", "bidir_bytes")}
    return col, labels


def check_capture(path, truth) -> None:
    """One labeled row per generated flow, with the flow's packets and bytes."""
    col, labels = _flow_rows(path)
    _expect(len(labels) == len(truth.flows),
            f"{path}: {len(labels)} rows for {len(truth.flows)} generated flows")
    seen = set()
    for i, label in enumerate(labels):
        key = (int(col["lport"][i]), int(col["hport"][i]), int(col["transproto"][i]))
        _expect(key in truth.flows and key not in seen, f"{path}: row {i} is not a new flow")
        seen.add(key)
        want_label, want_packets, want_bytes = truth.flows[key]
        _expect(label == want_label, f"{path}: row {i} labeled {label!r}, want {want_label!r}")
        _expect(col["bidir_packets"][i] == want_packets and col["bidir_bytes"][i] == want_bytes,
                f"{path}: row {i} packet or byte count differs from the generated flow")


def check_netflow(path, truth) -> None:
    """NetFlow rows conserve the capture's packets and bytes."""
    col, labels = _flow_rows(path)
    _expect(len(truth.flows) <= len(labels) <= len(truth.flows) + truth.bidirectional,
            f"{path}: {len(labels)} rows for {len(truth.flows)} encoded flows")
    _expect(int(col["bidir_packets"].sum()) == truth.packets,
            f"{path}: packet total differs from the encoded flows")
    _expect(int(col["bidir_bytes"].sum()) == truth.bytes,
            f"{path}: byte total differs from the encoded flows")


def check_selection(path) -> list[int]:
    with open(path) as fh:
        selected = json.load(fh)["selected"]
    _expect(bool(selected), f"{path}: no feature selected")
    _expect(len(set(selected)) == len(selected) and all(1 <= f <= 16 for f in selected),
            f"{path}: selected ids {selected} are not distinct ids in 1..16")
    return selected


def check_model(path, selected, labels) -> None:
    """The model uses the selected features and counts every training row."""
    with open(path) as fh:
        doc = json.load(fh)
    _expect(doc["selected_features"] == selected, f"{path}: features differ from the selection")
    for label in sorted(set(labels)):
        _expect(doc["classes"][label]["n"] == labels.count(label),
                f"{path}: class {label!r} count differs from its training rows")


def nb_oracle(model_path, dataset_path) -> tuple[list[str], np.ndarray]:
    """Gaussian naive Bayes labels from the model file's plug-in moments.

    Returns the labels and, per row, the gap between the two best scores so
    that callers can tell a genuine tie from a wrong answer.
    """
    with open(model_path) as fh:
        doc = json.load(fh)
    ids = doc["selected_features"]
    alphabet = doc["alphabet"]
    _, values, _ = read_feature_csv(dataset_path)
    x = values[:, [fid - 1 for fid in ids]]
    cls = [doc["classes"][label] for label in alphabet]
    n = np.array([c["n"] for c in cls], dtype=np.float64)
    mean = np.array([[c["plugin_means"][str(f)] for f in ids] for c in cls])
    var = np.array([[c["plugin_vars"][str(f)] for f in ids] for c in cls])
    scores = (np.log(n) - 0.5 * np.log(var).sum(axis=1))[None, :] - 0.5 * (
        (x[:, None, :] - mean[None, :, :]) ** 2 / var[None, :, :]
    ).sum(axis=2)
    best = np.argmax(scores, axis=1)
    top2 = np.sort(scores, axis=1)[:, -2:]
    return [alphabet[i] for i in best], top2[:, 1] - top2[:, 0]


def check_classify(pred_path, model_path, dataset_path) -> None:
    with open(pred_path, newline="") as fh:
        rows = list(csv.reader(fh))
    _expect(rows[:1] == [["index", "label"]], f"{pred_path}: bad header")
    got = [row[1] for row in rows[1:]]
    _expect([row[0] for row in rows[1:]] == [str(i) for i in range(len(got))],
            f"{pred_path}: indices are not 0..n-1")
    want, gap = nb_oracle(model_path, dataset_path)
    _expect(len(got) == len(want), f"{pred_path}: {len(got)} labels for {len(want)} rows")
    for i, (g, w) in enumerate(zip(got, want)):
        _expect(g == w or gap[i] < 1e-9, f"{pred_path}: row {i} predicted {g!r}, oracle says {w!r}")


def check_cv(path, rows: int, k: int) -> float:
    """Folds cover every row once; returns the mean overall accuracy."""
    with open(path) as fh:
        doc = json.load(fh)
    _expect(doc["k"] == k and len(doc["folds"]) == k, f"{path}: not {k} folds")
    _expect(sum(f["test_size"] for f in doc["folds"]) == rows, f"{path}: folds do not cover the rows")
    oa = doc["summary"]["mean_overall_accuracy"]
    _expect(0.0 < oa <= 1.0, f"{path}: accuracy {oa} outside (0, 1]")
    return oa


def check_class_counts(model, shown: dict[str, int]) -> None:
    """Per class, an updated model's n equals the rows it was shown."""
    got = {state.label: state.n for state in model.classes}
    _expect(got == shown, f"prequential model counts {got} differ from rows shown {shown}")


def _sample_variance_moments(weights: np.ndarray, p: float, trials: int) -> tuple[float, float]:
    """Variance of sum(w_i B_i) / (p sum(w_i)) for B_i ~ Bernoulli(p), and the
    standard error of its sample variance over ``trials`` draws."""
    total = weights.sum()
    v = weights**2 * p * (1 - p) / (p * total) ** 2
    m4 = weights**4 * p * (1 - p) * (1 - 3 * p + 3 * p * p) / (p * total) ** 4
    var = v.sum()
    mu4 = m4.sum() + 3 * (var**2 - (v**2).sum())
    se = np.sqrt(max(mu4 - var**2 * (trials - 3) / (trials - 1), 0.0) / trials)
    return float(var), float(se)


def check_sampling(path, truth, trials: int) -> None:
    """Length/size ADRE within a CLT tolerance of the closed-form mean
    relative-error variance; duration ADRE within [0, mean flow duration].

    Per-flow errors may be correlated (flows can share a random stream), so
    the tolerance adds per-flow standard errors instead of pooling them.
    """
    with open(path) as fh:
        doc = json.load(fh)
    _expect(doc["flows"] == len(truth.sizes), f"{path}: {doc['flows']} flows, want {len(truth.sizes)}")
    _expect(doc["trials"] == trials, f"{path}: {doc['trials']} trials, want {trials}")
    ratios = doc["metrics"]["length"]["adre"].keys()
    _expect(bool(ratios), f"{path}: no sampling ratio")
    for metric in ("length", "size"):
        _expect(doc["metrics"][metric]["adre"].keys() == ratios, f"{path}: ratio sets differ")
        for ratio, adre in doc["metrics"][metric]["adre"].items():
            p = 1.0 / int(ratio.split(":")[1])
            moments = [
                _sample_variance_moments(
                    np.ones(len(s)) if metric == "length" else s.astype(np.float64), p, trials
                )
                for s in truth.sizes
            ]
            want = np.mean([m[0] for m in moments])
            tol = CLT_Z * np.mean([m[1] for m in moments])
            _expect(abs(adre - want) <= tol,
                    f"{path}: {metric} ADRE at {ratio} is {adre:.6g}, closed form {want:.6g} ± {tol:.3g}")
    mean_duration = float(np.mean(truth.durations_s))
    for ratio, adre in doc["metrics"]["duration"]["adre"].items():
        _expect(0.0 <= adre <= mean_duration * (1 + 1e-9),
                f"{path}: duration ADRE at {ratio} is {adre:.6g}, outside [0, {mean_duration:.6g}]")
