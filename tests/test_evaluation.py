"""Confusion tallies, derived rates, and stratified cross-validation."""

import json
import random
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from flowident.errors import ContractError
from flowident.evaluation import (
    DEFAULT_FOLDS,
    ConfusionCounts,
    CVReport,
    MetricEntry,
    StratificationError,
    assign_folds,
    confusion,
    evaluate_predictions,
    kfold_cv,
    metrics,
)
from flowident.features import Dataset, FeatureVector
from helpers import confusion_oracle


# ---------------------------------------------------------------- confusion

def test_confusion_worked_example():
    truth = ["web"] * 10 + ["bulk"] * 10
    predicted = (["web"] * 8 + ["bulk"] * 2) + (["bulk"] * 9 + ["web"])
    counts = confusion(predicted, truth, "web")
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (8, 1, 9, 2)
    assert counts.total == 20
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == confusion_oracle(
        predicted, truth, "web"
    )


def test_confusion_validation():
    with pytest.raises(ContractError, match="lengths differ"):
        confusion(["a"], ["a", "b"], "a")
    with pytest.raises(ContractError, match="empty"):
        confusion([], [], "a")
    with pytest.raises(ContractError, match="negative"):
        ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


@pytest.mark.parametrize("count", [float("nan"), 1.5, 2.0, True, "3"])
def test_confusion_counts_refuse_a_count_that_is_not_an_integer(count):
    with pytest.raises(ContractError, match=f"count fn must be an integer, got {count!r}"):
        ConfusionCounts(3, 1, 2, count)


def test_confusion_counts_take_numpy_integers():
    counts = ConfusionCounts(np.int64(8), np.int32(1), np.intp(9), 2)
    assert metrics(counts) == metrics(ConfusionCounts(8, 1, 9, 2))


@pytest.mark.parametrize("seed", range(20))
def test_confusion_matches_oracle_on_random_labelings(seed):
    rnd = random.Random(seed)
    names = ["w", "x", "y", "z"][: rnd.randint(2, 4)]
    truth = [rnd.choice(names) for _ in range(rnd.randint(1, 200))]
    predicted = [rnd.choice(names) for _ in truth]
    for target in names:
        counts = confusion(predicted, truth, target)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == confusion_oracle(
            predicted, truth, target
        )
        assert counts.total == len(truth)


# ------------------------------------------------------------------ metrics

def test_metrics_frozen_values():
    entry = metrics(ConfusionCounts(tp=8, fp=1, tn=9, fn=2))
    assert entry.tpr == 0.8
    assert entry.fpr == 0.1
    assert entry.tnr == 0.9
    assert entry.fnr == 0.2
    assert entry.recall == 0.8
    assert entry.precision == 0.8888888888888888
    assert entry.f_measure == 0.8421052631578948
    assert entry.oa == 0.85
    assert entry.degenerate == ()


def test_f_measure_is_harmonic_mean():
    # 5499/5875 = 0.936 and 5499/5850 = 0.94 exactly; the harmonic mean of
    # those two rates is frozen from a by-hand evaluation
    entry = metrics(ConfusionCounts(tp=5499, fp=376, tn=0, fn=351))
    assert entry.precision == 0.936
    assert entry.recall == 0.94
    assert entry.f_measure == 0.9379957356076759


@pytest.mark.parametrize(
    "counts, zero_rates",
    [
        (ConfusionCounts(0, 0, 10, 0), ("tpr", "fnr", "precision", "f_measure")),
        (ConfusionCounts(10, 0, 0, 0), ("fpr", "tnr")),
        (ConfusionCounts(0, 5, 5, 0), ("tpr", "fnr", "f_measure")),
    ],
)
def test_degenerate_rates_are_zero_and_flagged(counts, zero_rates):
    entry = metrics(counts)
    for name in zero_rates:
        assert getattr(entry, name) == 0.0
    assert set(entry.degenerate) == set(zero_rates)


def test_metrics_reject_empty_table():
    with pytest.raises(ContractError, match="at least one sample"):
        metrics(ConfusionCounts(0, 0, 0, 0))


@pytest.mark.parametrize("seed", range(30))
def test_metrics_match_direct_formulas(seed):
    rnd = random.Random(seed)
    counts = ConfusionCounts(
        tp=rnd.randint(0, 50), fp=rnd.randint(0, 50),
        tn=rnd.randint(0, 50), fn=rnd.randint(0, 50),
    )
    if counts.total == 0:
        return
    entry = metrics(counts)
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    if tp + fn:
        assert entry.tpr == tp / (tp + fn)
        assert entry.fnr == fn / (tp + fn)
        assert abs(entry.tpr + entry.fnr - 1.0) <= 1e-12
    if fp + tn:
        assert entry.fpr == fp / (fp + tn)
        assert entry.tnr == tn / (fp + tn)
        assert abs(entry.tnr + entry.fpr - 1.0) <= 1e-12
    if tp + fp:
        assert entry.precision == tp / (tp + fp)
    assert entry.recall == entry.tpr
    if entry.precision + entry.recall:
        assert entry.f_measure == 2 * entry.precision * entry.recall / (
            entry.precision + entry.recall
        )
    assert entry.oa == (tp + tn) / counts.total


# ---------------------------------------------------------------- reporting

def test_evaluate_predictions_small_example():
    truth = ["a", "a", "b"]
    predicted = ["a", "b", "b"]
    report = evaluate_predictions(predicted, truth)
    assert report.n == 3
    assert report.overall_accuracy == pytest.approx(2 / 3)
    assert set(report.per_class) == {"a", "b"}
    assert report.per_class["a"].tpr == 0.5
    assert report.per_class["b"].tpr == 1.0
    assert report.per_class["b"].precision == 0.5


def test_evaluate_predictions_explicit_class_list():
    report = evaluate_predictions(["a", "a"], ["a", "a"], classes=("a", "b"))
    assert set(report.per_class) == {"a", "b"}
    entry = report.per_class["b"]
    assert entry.tpr == 0.0
    assert "tpr" in entry.degenerate  # class absent from this sample


def test_evaluate_predictions_validation():
    with pytest.raises(ContractError, match="lengths differ"):
        evaluate_predictions(["a"], ["a", "b"])
    with pytest.raises(ContractError, match="empty"):
        evaluate_predictions([], [])


def test_report_json_shape():
    report = evaluate_predictions(["a", "b"], ["a", "a"])
    doc = report.to_json_dict()
    assert doc["n"] == 2
    assert doc["overall_accuracy"] == 0.5
    assert set(doc["per_class"]) == {"a", "b"}
    assert doc["per_class"]["a"]["recall"] == 0.5
    assert isinstance(doc["per_class"]["a"]["degenerate"], tuple)


# ------------------------------------------------------------ fold assembly

def test_assign_folds_exact_balance():
    labels = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
    fold_of = assign_folds(labels, k=10, seed=0)
    assert len(fold_of) == 60
    for fold in range(10):
        members = [labels[i] for i, f in enumerate(fold_of) if f == fold]
        assert Counter(members) == {"a": 2, "b": 2, "c": 2}


def test_assign_folds_near_balance_with_remainders():
    labels = ["a"] * 25 + ["b"] * 25 + ["c"] * 25
    fold_of = assign_folds(labels, k=10, seed=3)
    sizes = Counter(fold_of)
    assert set(sizes) == set(range(10))
    for fold in range(10):
        members = Counter(labels[i] for i, f in enumerate(fold_of) if f == fold)
        for cls in ("a", "b", "c"):
            assert 2 <= members[cls] <= 3  # 25/10 rows per class per fold


def test_assign_folds_deterministic_per_seed():
    labels = ["a"] * 12 + ["b"] * 12
    assert assign_folds(labels, 4, seed=9) == assign_folds(labels, 4, seed=9)
    assert assign_folds(labels, 4, seed=9) != assign_folds(labels, 4, seed=10)


def test_assign_folds_leave_one_out():
    labels = ["a"] * 15 + ["b"] * 5
    fold_of = assign_folds(labels, k=20, seed=1)
    assert sorted(fold_of) == list(range(20))  # every fold holds exactly one row


def test_assign_folds_errors():
    labels = ["a"] * 10 + ["b"] * 3
    with pytest.raises(StratificationError, match="class 'b' has 3 flows"):
        assign_folds(labels, k=5, seed=0)
    with pytest.raises(ContractError, match="k >= 2"):
        assign_folds(labels, k=1, seed=0)
    with pytest.raises(ContractError, match="cannot make 14 folds from 13 rows"):
        assign_folds(labels, k=14, seed=0)


@pytest.mark.parametrize("k", [2.5, 3.0, True, float("nan")])
def test_fold_count_must_be_an_integer(k):
    """A float k is refused before any fold is dealt, not dealt as ceil(k) folds."""
    labels = ["a"] * 6 + ["b"] * 6
    with pytest.raises(ContractError, match=f"k must be an integer, got {k!r}"):
        assign_folds(labels, k, seed=0)
    ds = Dataset.from_labels(np.zeros((12, 16)), labels)
    with pytest.raises(ContractError, match=f"k must be an integer, got {k!r}"):
        kfold_cv(ds, nearest_mean_pipeline, k=k, seed=0)
    assert len(assign_folds(labels, np.int64(3), seed=0)) == 12


def test_numpy_fold_count_and_seed_are_reported_as_ints():
    """The report holds k and the seed as Python ints, so it can be written as JSON."""
    ds = constant_column_dataset(per_class=10)
    report = kfold_cv(ds, nearest_mean_pipeline, k=np.int64(5), seed=np.int64(3))
    assert (type(report.k), type(report.seed)) == (int, int)
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert (doc["k"], doc["seed"]) == (5, 3)
    assert report.to_json_dict() == kfold_cv(ds, nearest_mean_pipeline, k=5, seed=3).to_json_dict()


# ------------------------------------------------------------------ full CV

def constant_column_dataset(per_class=30):
    """Feature 1 equals the class index exactly: trivially separable."""
    vectors = []
    for c, label in enumerate(("a", "b", "c")):
        for _ in range(per_class):
            values = [0.0] * 16
            values[0] = float(c)
            vectors.append(FeatureVector.from_values(values, label=label))
    return Dataset(vectors, ("a", "b", "c"))


def nearest_mean_pipeline(train_ds, test_ds):
    centers = {}
    sums, counts = {}, {}
    for v in train_ds.vectors:
        sums[v.label] = sums.get(v.label, 0.0) + v.values()[0]
        counts[v.label] = counts.get(v.label, 0) + 1
    for label in sums:
        centers[label] = sums[label] / counts[label]
    return [
        min(centers, key=lambda lbl: abs(centers[lbl] - v.values()[0]))
        for v in test_ds.vectors
    ]


def test_kfold_cv_end_to_end():
    ds = constant_column_dataset()
    report = kfold_cv(ds, nearest_mean_pipeline, k=10, seed=0)
    assert report.k == 10 == DEFAULT_FOLDS
    assert report.seed == 0
    assert len(report.folds) == 10
    assert [doc["fold"] for doc in report.to_json_dict()["folds"]] == list(range(10))
    assert sum(fold.n for fold in report.folds) == len(ds)
    assert report.mean_overall_accuracy == 1.0
    assert report.macro_precision == 1.0
    assert report.macro_recall == 1.0
    assert report.macro_f_measure == 1.0


def test_kfold_cv_macro_values_recompute():
    rnd = random.Random(17)

    def noisy_pipeline(train_ds, test_ds):
        labels = list(train_ds.alphabet)
        return [
            v.label if rnd.random() < 0.7 else rnd.choice(labels)
            for v in test_ds.vectors
        ]

    ds = constant_column_dataset(per_class=20)
    report = kfold_cv(ds, noisy_pipeline, k=5, seed=2)
    import statistics

    for attr in ("precision", "recall", "f_measure"):
        want = statistics.fmean(
            statistics.fmean(
                getattr(entry, attr) for entry in fold.per_class.values()
            )
            for fold in report.folds
        )
        assert getattr(report, f"macro_{attr}") == pytest.approx(want, rel=1e-12)
    want_oa = statistics.fmean(f.overall_accuracy for f in report.folds)
    assert report.mean_overall_accuracy == pytest.approx(want_oa, rel=1e-12)


def test_kfold_cv_test_sets_partition_dataset():
    base = constant_column_dataset(per_class=13)
    data = base.data.copy()
    data[:, 1] = np.arange(len(base))  # feature 2 tags each row
    ds = Dataset.from_arrays(data, base.codes, base.alphabet)
    seen = []

    def recording_pipeline(train_ds, test_ds):
        seen.extend(test_ds.data[:, 1].tolist())
        assert len(train_ds) + len(test_ds) == len(ds)
        return [v.label for v in test_ds.vectors]

    kfold_cv(ds, recording_pipeline, k=13, seed=4)
    assert sorted(seen) == list(range(len(ds)))


def test_kfold_cv_rejects_wrong_prediction_count():
    ds = constant_column_dataset(per_class=10)

    def broken_pipeline(train_ds, test_ds):
        return ["a"]

    with pytest.raises(ContractError, match="wrong number of predictions"):
        kfold_cv(ds, broken_pipeline, k=5, seed=0)


def test_kfold_cv_requires_labels():
    ds = Dataset([FeatureVector.from_values([0.0] * 16)], ())
    with pytest.raises(ContractError, match="fully labeled"):
        kfold_cv(ds, nearest_mean_pipeline, k=2, seed=0)


def test_cv_report_json_shape():
    ds = constant_column_dataset(per_class=10)
    report = kfold_cv(ds, nearest_mean_pipeline, k=5, seed=6)
    doc = report.to_json_dict()
    assert doc["k"] == 5
    assert doc["summary"]["mean_overall_accuracy"] == 1.0
    assert len(doc["folds"]) == 5
    assert doc["folds"][0]["fold"] == 0
    assert doc["folds"][0]["per_class"]["a"]["tpr"] == 1.0


def test_cv_report_json_writes_each_fold_from_its_position_and_report():
    ds = constant_column_dataset(per_class=7)
    report = kfold_cv(ds, nearest_mean_pipeline, k=3, seed=1)
    folds = report.to_json_dict()["folds"]
    assert [doc["fold"] for doc in folds] == [0, 1, 2]
    for doc, fold in zip(folds, report.folds):
        assert list(doc) == ["fold", "test_size", "n", "overall_accuracy", "per_class"]
        assert doc["test_size"] == doc["n"] == fold.n
        for label, entry in fold.per_class.items():
            assert list(doc["per_class"][label]) == list(MetricEntry.__dataclass_fields__)
            assert tuple(doc["per_class"][label].values()) == astuple(entry)


def test_cv_report_is_plain_dataclass():
    report = CVReport(k=2, seed=0, folds=[])
    assert report.k == 2
