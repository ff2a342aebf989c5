"""Gaussian naive-Bayes flow classifier with conjugate online updating.

The model keeps, per (class, feature), a normal-inverse-gamma state (mu,
kappa, alpha, beta), one float64[classes, features] array per parameter,
that a labeled batch folds into without revisiting old data, all classes
and features in one expression:

    kappa' = kappa + n
    mu'    = (kappa * mu + n * xbar) / kappa'
    alpha' = alpha + n / 2
    beta'  = beta + sumsq / 2 + kappa * n * (xbar - mu)^2 / (2 * kappa')

where n, xbar and sumsq are a class's batch count, mean and centered sum
of squares.  Folding one batch or the same rows split across several calls
lands on the same state, which is what makes retraining-free updates sound.

Scoring is done in log space with plug-in point estimates:
    log h(class) = log n - 0.5 * sum(log var) - 0.5 * sum((x - mean)^2 / var)
over the model's selected features, with a variance floor so constant
features cannot produce a singular model.  :func:`predict` scores every row
of a Dataset; one feature vector is a one-row Dataset, with the same bits.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ContractError, FormatError, check_finite
from .features import Dataset, NUM_FEATURES, validate_feature_ids
from .files import is_finite_number, read_json, write_json

MODEL_VERSION = "nfi-model/1"
VARIANCE_FLOOR = 1e-9


class InsufficientDataError(ContractError):
    """A class does not have enough rows to estimate its parameters."""


class UnknownClassError(ContractError):
    """An update batch mentions a label the model was never trained on."""


class ModelFormatError(FormatError):
    """A model file is unreadable or has the wrong version."""


@dataclass(frozen=True)
class NIGPrior:
    """Weak default prior: data dominates after a handful of flows."""

    mu: float = 0.0
    kappa: float = 1e-3
    alpha: float = 1.001
    beta: float = 1e-3

    def __post_init__(self) -> None:
        check_finite("prior mu", self.mu)
        for name in ("kappa", "alpha", "beta"):
            check_finite(f"prior {name}", getattr(self, name), positive=True)


NIG_PARAMS = ("mu", "kappa", "alpha", "beta")
_ARRAYS = NIG_PARAMS + ("plugin_means", "plugin_vars")


def nig_fold(nig: tuple, n, mean, sumsq) -> tuple:
    """Fold batches summarised by (n, mean, centered sum of squares) into ``nig =
    (mu, kappa, alpha, beta)`` elementwise: with ``n`` a (classes, 1) column, each
    class's batch folds into its row of (classes, features) arrays.  The square is libm
    ``pow``, as for a Python float's ``** 2``: ``x * x`` rounds 1 value in 1,000 apart."""
    mu, kappa, alpha, beta = nig
    kappa_n = kappa + n
    return (
        (kappa * mu + n * mean) / kappa_n,
        kappa_n,
        alpha + n / 2.0,
        beta + 0.5 * sumsq + kappa * n * np.float_power(mean - mu, 2) / (2.0 * kappa_n),
    )


@np.errstate(over="ignore")  # an infinite variance is refused by the model
def plugin_variance(alpha, beta) -> np.ndarray:
    """Posterior-mean variance beta / (alpha - 1), floored; the floor where alpha <= 1."""
    alpha = np.asarray(alpha, dtype=np.float64)
    ratio = np.divide(beta, alpha - 1.0, out=np.zeros_like(alpha), where=alpha > 1.0)
    return np.maximum(ratio, VARIANCE_FLOOR)


ClassCount = namedtuple("ClassCount", "label n")


def _plane(index) -> property:
    return property(lambda self: self.block[index])


@dataclass(frozen=True, eq=False)
class ClassifierModel:
    """Row counts and one float64 (6, classes, features) ``block``: row c of each
    plane is class ``alphabet[c]`` and column j feature ``feature_ids[j]``.  The
    planes ``mu``, ``kappa``, ``alpha`` and ``beta`` are the NIG state (``nig``),
    ``plugin_means`` and ``plugin_vars`` what scoring uses, all read-only views of
    the model's own copy of the block; a non-finite cell is refused.  ``n`` holds
    Python ints, exact beyond int64."""

    alphabet: tuple[str, ...]
    feature_ids: tuple[int, ...]
    n: tuple[int, ...]
    block: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shape = (len(_ARRAYS), len(self.alphabet), len(self.feature_ids))
        block = np.array(self.block, dtype=np.float64)
        if block.shape != shape or len(self.n) != shape[1]:
            raise ContractError(f"need one count per class and a block of shape {shape}")
        if not np.isfinite(block).all():
            k, c, j = np.argwhere(~np.isfinite(block))[0]
            raise ContractError(f"class {self.alphabet[c]!r} feature {self.feature_ids[j]}: "
                                f"{_ARRAYS[k]} is not finite ({block[k, c, j]})")
        block.flags.writeable = False
        object.__setattr__(self, "block", block)

    mu, kappa, alpha, beta, plugin_means, plugin_vars = map(_plane, range(len(_ARRAYS)))
    nig = _plane(slice(4))  # (mu, kappa, alpha, beta) as one (4, classes, features) view

    @property
    def classes(self) -> tuple[ClassCount, ...]:
        return tuple(map(ClassCount, self.alphabet, self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassifierModel):
            return NotImplemented
        return ((self.classes, self.feature_ids) == (other.classes, other.feature_ids)
                and np.array_equal(self.block, other.block))

    @property
    def total_flows(self) -> int:
        return sum(self.n)

    def _row(self, label: str) -> int:
        if label not in self.alphabet:
            raise UnknownClassError(f"unknown class {label!r}")
        return self.alphabet.index(label)


def _moments(data: np.ndarray, group: np.ndarray, counts: np.ndarray) -> tuple:
    """Means and centered sums of squares, (groups, d) arrays, of the rows of ``data``
    in each group, given each row's ``group`` and each group's non-zero row ``counts``.
    One weighted bincount per moment adds each (group, feature) cell's rows in row order
    from +0.0, so the bytes depend neither on how the classes interleave nor on how
    NumPy orders a reduction."""
    k, d = len(counts), data.shape[1]
    cells = ((group * d)[:, None] + np.arange(d)).ravel()  # row-major, as data.ravel()

    def sums(values):
        return np.bincount(cells, weights=values.ravel(), minlength=k * d).reshape(k, d)

    mean = sums(data) / counts[:, None]
    dev = mean[group]  # one (n, d) temporary: deviations, then their squares
    return mean, sums(np.square(np.subtract(data, dev, out=dev), out=dev))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result is refused by the model
def train(ds: Dataset, feature_ids=None, prior: NIGPrior = NIGPrior()) -> ClassifierModel:
    """Fit one class-conditional Gaussian per (class, selected feature).

    Plug-in estimates are the per-class sample mean and the n-1 sample
    variance; the conjugate state additionally folds the batch into
    ``prior`` so the model can keep learning after deployment.
    """
    if feature_ids is None:
        feature_ids = range(1, NUM_FEATURES + 1)
    ids = validate_feature_ids(feature_ids)
    if (ds.codes < 0).any():
        raise ContractError("training needs a fully labeled dataset")
    if not ds.alphabet:
        raise ContractError("training needs at least one class")
    counts = np.bincount(ds.codes, minlength=len(ds.alphabet))
    for label, count in zip(ds.alphabet, counts.tolist()):
        if count < 2:
            raise InsufficientDataError(f"class {label!r} has {count} flows; need at least 2")
    start = tuple(np.full(len(ids), getattr(prior, name), dtype=np.float64) for name in NIG_PARAMS)
    mean, sumsq = _moments(ds.matrix(ids), ds.codes, counts)
    nig = nig_fold(start, counts[:, None], mean, sumsq)
    sample_var = np.maximum(sumsq / (counts[:, None] - 1.0), VARIANCE_FLOOR)
    return ClassifierModel(ds.alphabet, ids, tuple(counts.tolist()), (*nig, mean, sample_var))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result is refused by the model
def update(model: ClassifierModel, new_ds: Dataset) -> ClassifierModel:
    """Fold new labeled flows into a copy of the model's block: the rows of classes in
    ``new_ds`` advance and refresh their plug-ins (posterior mean, beta / (alpha - 1)),
    the other rows keep their values, and the input model is never mutated."""
    if (new_ds.codes < 0).any():
        raise ContractError("update needs a fully labeled dataset")
    counts = np.bincount(new_ds.codes, minlength=len(new_ds.alphabet))
    present = np.flatnonzero(counts)
    if not present.size:
        return model
    rows = [model._row(new_ds.alphabet[code]) for code in present.tolist()]
    group = (np.cumsum(counts > 0) - 1)[new_ds.codes]  # a row's code's rank among present
    counts = counts[present]
    mean, sumsq = _moments(new_ds.matrix(model.feature_ids), group, counts)
    mu, kappa, alpha, beta = nig_fold(tuple(model.nig[:, rows]), counts[:, None], mean, sumsq)
    block = model.block.copy()
    block[:, rows] = mu, kappa, alpha, beta, mu, plugin_variance(alpha, beta)
    added = dict(zip(rows, counts.tolist()))
    n = tuple(k + added.get(row, 0) for row, k in enumerate(model.n))
    return ClassifierModel(model.alphabet, model.feature_ids, n, block)


@np.errstate(over="ignore")
def _log_scores(model: ClassifierModel, rows: np.ndarray) -> np.ndarray:
    """(n, C) log scores of rows already restricted to the model's features.

    The rows are made C-contiguous so that each (row, class) sum runs over
    contiguous features, in the same order as a one-row, one-class sum:
    a score does not depend on how many rows are scored together.  Rows go
    in blocks that keep the (rows, C, d) temporary near 8 MB.  A row whose
    squared distance from a class overflows scores -inf for that class.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if not np.isfinite(rows).all():
        raise ContractError("feature vector contains non-finite values")
    means, variances = model.plugin_means, model.plugin_vars
    base = np.log(np.array(model.n, dtype=np.float64)) - 0.5 * np.log(variances).sum(axis=1)
    scores = np.empty((rows.shape[0], len(model.alphabet)))
    block = max(1, 2**20 // max(1, means.size))
    for lo in range(0, rows.shape[0], block):
        x = rows[lo : lo + block, None, :]
        scores[lo : lo + block] = base - 0.5 * (((x - means) ** 2) / variances).sum(axis=2)
    return scores


def predict(model: ClassifierModel, ds: Dataset) -> list[str]:
    """Predicted label for every row, in dataset order; ties go to the first class."""
    best = np.argmax(_log_scores(model, ds.matrix(model.feature_ids)), axis=1)
    return [model.alphabet[i] for i in best.tolist()]


def model_to_json_dict(model: ClassifierModel) -> dict:
    keys = list(map(str, model.feature_ids))
    classes = {}
    for c, label in enumerate(model.alphabet):
        nig = zip(*(values[c].tolist() for values in model.nig))
        classes[label] = {
            "n": model.n[c],
            # {"<fid>": {"mu": ..., "kappa": ..., "alpha": ..., "beta": ...}, ...}
            "posteriors": dict(zip(keys, map(dict, map(zip, repeat(NIG_PARAMS), nig)))),
            "plugin_means": dict(zip(keys, model.plugin_means[c].tolist())),
            "plugin_vars": dict(zip(keys, model.plugin_vars[c].tolist())),
        }
    return {
        "version": MODEL_VERSION,
        "alphabet": list(model.alphabet),
        "selected_features": list(model.feature_ids),
        "classes": classes,
    }


def save_model(model: ClassifierModel, path) -> None:
    write_json(path, model_to_json_dict(model))


_LOAD_CHECKS = {  # document name -> (name in messages, what a value must be, its test)
    "mu": ("mu", "finite", lambda v: True),
    **{name: (name, "finite and > 0", lambda v: v > 0) for name in NIG_PARAMS[1:]},
    "plugin_means": ("plugin mean", "finite", lambda v: True),
    "plugin_vars": ("plugin variance", f"finite and >= {VARIANCE_FLOOR}",
                    lambda v: v >= VARIANCE_FLOOR),
}


def load_model(path) -> ClassifierModel:
    """Read a model file, refusing other versions, malformed documents and
    numbers that would make the scores meaningless."""
    doc = read_json(path, ModelFormatError)
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: model document is not a JSON object")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"{path}: model version {doc.get('version')!r} is not supported "
                               f"(want {MODEL_VERSION})")
    try:
        feature_ids = validate_feature_ids(doc.get("selected_features"))
    except ContractError as exc:
        raise ModelFormatError(f"{path}: selected_features: {exc}") from None
    alphabet, classes = doc.get("alphabet"), doc.get("classes")
    if not isinstance(alphabet, list) or not all(isinstance(label, str) for label in alphabet):
        raise ModelFormatError(f"{path}: alphabet must be a list of strings, got {alphabet!r}")
    if not isinstance(classes, dict):
        raise ModelFormatError(f"{path}: classes must be an object, got {type(classes).__name__}")
    if not alphabet:
        raise ModelFormatError(f"{path}: model has no classes")
    if len(set(alphabet)) < len(alphabet):
        raise ModelFormatError(f"{path}: alphabet repeats a label: {alphabet!r}")
    keys = list(map(str, feature_ids))
    try:
        entries = [classes[label] for label in alphabet]
        counts = tuple(entry["n"] for entry in entries)
        posts = [[entry["posteriors"][key] for key in keys] for entry in entries]
        for label, row in zip(alphabet, posts):
            if any(set(post) != set(NIG_PARAMS) for post in row):
                raise TypeError(f"class {label!r}: each posterior must hold exactly {NIG_PARAMS}")
        # (classes, features) values per parameter; None for a missing plug-in block
        values = {name: [[post[name] for post in row] for row in posts] for name in NIG_PARAMS}
        for block in ("plugin_means", "plugin_vars"):
            values[block] = [[entry[block][key] for key in keys] if entry.get(block) else None
                             for entry in entries]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"{path}: malformed model document ({exc})") from None
    for label, n in zip(alphabet, counts):
        if type(n) is not int or not 1 <= n <= sys.float_info.max:
            raise ModelFormatError(
                f"{path}: class {label!r}: n must be a positive integer, got {n!r}")
    for block, rows in values.items():
        name, need, ok = _LOAD_CHECKS[block]
        for label, row in zip(alphabet, rows):
            for key, value in zip(keys, row or ()):
                if not (is_finite_number(value) and ok(value)):
                    raise ModelFormatError(f"{path}: class {label!r} feature {key}: "
                                           f"{name} must be {need}, got {value!r}")
    nig = np.array([values[name] for name in NIG_PARAMS], dtype=np.float64)
    # A class without the plug-in block gets them from the posterior.
    derived = (nig[0], plugin_variance(nig[2], nig[3]))
    plugins = [[row or default for row, default in zip(values[block], fallback.tolist())]
               for block, fallback in zip(_ARRAYS[4:], derived)]
    try:
        return ClassifierModel(tuple(alphabet), feature_ids, counts, (*nig, *plugins))
    except ContractError as exc:  # a derived plug-in variance that overflowed
        raise ModelFormatError(f"{path}: {exc}") from None
