"""One-vs-rest confusion counts, derived metrics, and stratified k-fold CV.

Every rate with a zero denominator is reported as 0.0 and flagged in the
entry's ``degenerate`` list instead of raising or emitting NaN, so reports
stay machine-readable even for folds that never see a class.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, check_integer
from .features import Dataset

DEFAULT_FOLDS = 10


class StratificationError(ContractError):
    """A class is too small to spread across the requested folds."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for field in fields(self):
            check_integer(f"confusion count {field.name}", getattr(self, field.name))
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ContractError("confusion counts cannot be negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _one_vs_rest(predicted: list, truth: list, classes) -> tuple[dict[str, ConfusionCounts], int]:
    """One-vs-rest counts for each label in ``classes`` (None: every label seen,
    sorted), and the number of correct predictions.

    Each table comes from three counts over integer label codes: rows where
    its label is the truth, where it is predicted, and where both hold.
    """
    if len(predicted) != len(truth):
        raise ContractError("predicted and truth lengths differ")
    if not predicted:
        raise ContractError("cannot tally an empty prediction list")
    if classes is None:
        classes = tuple(sorted(set(truth) | set(predicted)))
    code = {label: i for i, label in enumerate(dict.fromkeys([*classes, *truth, *predicted]))}
    t = np.array([code[label] for label in truth], dtype=np.intp)
    p = np.array([code[label] for label in predicted], dtype=np.intp)
    tp = np.bincount(t[t == p], minlength=len(code))
    fn = np.bincount(t, minlength=len(code)) - tp
    fp = np.bincount(p, minlength=len(code)) - tp
    table = np.stack([tp, fp, len(truth) - tp - fn - fp, fn], axis=1).tolist()
    return {label: ConfusionCounts(*table[code[label]]) for label in classes}, int(tp.sum())


def confusion(predicted, truth, target: str) -> ConfusionCounts:
    """Tally one-vs-rest counts for ``target``."""
    return _one_vs_rest(list(predicted), list(truth), (target,))[0][target]


@dataclass(frozen=True)
class MetricEntry:
    tpr: float
    fpr: float
    tnr: float
    fnr: float
    precision: float
    recall: float
    f_measure: float
    oa: float
    degenerate: tuple[str, ...] = ()


def metrics(counts: ConfusionCounts) -> MetricEntry:
    """All derived rates for one one-vs-rest table."""
    if counts.total == 0:
        raise ContractError("metrics need at least one sample")
    degenerate: list[str] = []

    def rate(name: str, num: int, den: int) -> float:
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    tpr = rate("tpr", counts.tp, counts.tp + counts.fn)
    fpr = rate("fpr", counts.fp, counts.fp + counts.tn)
    tnr = rate("tnr", counts.tn, counts.tn + counts.fp)
    fnr = rate("fnr", counts.fn, counts.fn + counts.tp)
    precision = rate("precision", counts.tp, counts.tp + counts.fp)
    recall = tpr
    if precision + recall == 0:
        degenerate.append("f_measure")
        f_measure = 0.0
    else:
        f_measure = 2 * precision * recall / (precision + recall)
    oa = (counts.tp + counts.tn) / counts.total
    return MetricEntry(
        tpr=tpr, fpr=fpr, tnr=tnr, fnr=fnr,
        precision=precision, recall=recall, f_measure=f_measure, oa=oa,
        degenerate=tuple(degenerate),
    )


@dataclass(frozen=True)
class MetricReport:
    per_class: dict[str, MetricEntry]
    overall_accuracy: float
    n: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "overall_accuracy": self.overall_accuracy,
            "per_class": {label: {f.name: getattr(entry, f.name) for f in fields(entry)}
                          for label, entry in self.per_class.items()},
        }


def evaluate_predictions(predicted, truth, classes=None) -> MetricReport:
    """Per-class one-vs-rest metrics plus the global correct/total accuracy."""
    truth = list(truth)
    counts, correct = _one_vs_rest(list(predicted), truth, classes)
    per_class = {label: metrics(table) for label, table in counts.items()}
    return MetricReport(per_class=per_class, overall_accuracy=correct / len(truth), n=len(truth))


@dataclass
class CVReport:
    """Fold i is ``folds[i]``, the report on its test set, which is its ``n`` rows."""

    k: int
    seed: int
    folds: list[MetricReport]

    @property
    def mean_overall_accuracy(self) -> float:
        return float(np.mean([fold.overall_accuracy for fold in self.folds]))

    def _macro(self, attr: str) -> float:
        fold_means = [
            float(np.mean([getattr(e, attr) for e in fold.per_class.values()]))
            for fold in self.folds
        ]
        return float(np.mean(fold_means))

    @property
    def macro_precision(self) -> float:
        return self._macro("precision")

    @property
    def macro_recall(self) -> float:
        return self._macro("recall")

    @property
    def macro_f_measure(self) -> float:
        return self._macro("f_measure")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "summary": {
                "mean_overall_accuracy": self.mean_overall_accuracy,
                "macro_precision": self.macro_precision,
                "macro_recall": self.macro_recall,
                "macro_f_measure": self.macro_f_measure,
            },
            "folds": [{"fold": i, "test_size": fold.n, **fold.to_json_dict()}
                      for i, fold in enumerate(self.folds)],
        }


def check_folds(k: int) -> int:
    """``k`` as an int; a k that is not an integer of at least 2 raises.
    That k fits the row count needs the data."""
    k = check_integer("k", k)
    if k < 2:
        raise ContractError("k-fold needs k >= 2")
    return k


def assign_folds(labels, k: int, seed: int) -> list[int]:
    """Stratified fold assignment: per-class shuffle, global round-robin.

    Classes are taken in sorted label order; each class's row indices, in
    dataset order, are shuffled by one shared generator, and the shuffled
    runs laid end to end are dealt to folds 0, 1, ..., k-1, 0, ...
    With k equal to the number of rows this degenerates to leave-one-out;
    otherwise every class must have at least k rows so each fold sees it.
    """
    labels = list(labels)
    n = len(labels)
    check_folds(k)
    if k > n:
        raise ContractError(f"cannot make {k} folds from {n} rows")
    classes = sorted(set(labels))
    code = {label: i for i, label in enumerate(classes)}
    codes = np.array([code[label] for label in labels], dtype=np.intp)
    counts = np.bincount(codes, minlength=len(classes))
    if k < n:
        for label, count in zip(classes, counts.tolist()):
            if count < k:
                raise StratificationError(
                    f"class {label!r} has {count} flows; need at least k={k}"
                )
    rng = np.random.default_rng(seed)
    runs = np.split(np.argsort(codes, kind="stable"), np.cumsum(counts)[:-1])
    for run in runs:
        rng.shuffle(run)
    fold_of = np.empty(n, dtype=np.intp)
    fold_of[np.concatenate(runs)] = np.arange(n) % k
    return fold_of.tolist()


def kfold_cv(ds: Dataset, pipeline, k: int = DEFAULT_FOLDS, seed: int = 0) -> CVReport:
    """Stratified k-fold cross-validation of a train+predict closure.

    ``pipeline(train_ds, test_ds)`` must return one predicted label per test
    row.  Fold membership is deterministic given (ds order, k, seed).
    """
    k, seed = check_folds(k), check_integer("seed", seed)
    if (ds.codes < 0).any():
        raise ContractError("cross-validation needs a fully labeled dataset")
    fold_of = np.array(assign_folds(ds.labels(), k, seed))
    folds = []
    for fold in range(k):
        train_ds = ds.take(fold_of != fold)
        test_ds = ds.take(fold_of == fold)
        predicted = list(pipeline(train_ds, test_ds))
        if len(predicted) != len(test_ds):
            raise ContractError("pipeline returned the wrong number of predictions")
        folds.append(evaluate_predictions(predicted, test_ds.labels(), classes=ds.alphabet))
    return CVReport(k=k, seed=seed, folds=folds)
