"""Gaussian naive-Bayes flow classifier with conjugate online updating.

Each class keeps, per feature, a normal-inverse-gamma state (mu, kappa,
alpha, beta), one float64 array per parameter, that a labeled batch folds
into without revisiting old data, all features in one expression:

    kappa' = kappa + n
    mu'    = (kappa * mu + n * xbar) / kappa'
    alpha' = alpha + n / 2
    beta'  = beta + sumsq / 2 + kappa * n * (xbar - mu)^2 / (2 * kappa')

where xbar is the batch mean and sumsq the batch's centered sum of squares.
Folding one batch or the same rows split across several calls lands on the
same state, which is what makes retraining-free updates sound.

Scoring is done in log space with plug-in point estimates:
    log h(class) = log n - 0.5 * sum(log var) - 0.5 * sum((x - mean)^2 / var)
over the model's selected features, with a variance floor so constant
features cannot produce a singular model.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import repeat

import numpy as np

from .errors import ContractError, FormatError, check_finite
from .features import Dataset, FeatureVector, NUM_FEATURES, validate_feature_ids
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


def nig_fold(nig: tuple, n: int, mean, sumsq) -> tuple:
    """Fold a batch summarised by (n, mean, centered sum of squares) into
    ``nig = (mu, kappa, alpha, beta)``, all features at once; ``n == 0`` returns
    ``nig`` itself.  The square is libm ``pow``, as for a Python float's ``** 2``:
    ``x * x`` rounds differently for about 1 value in 1,000."""
    if n == 0:
        return nig
    mu, kappa, alpha, beta = nig
    kappa_n = kappa + n
    return (
        (kappa * mu + n * mean) / kappa_n,
        kappa_n,
        alpha + n / 2.0,
        beta + 0.5 * sumsq + kappa * n * np.float_power(mean - mu, 2) / (2.0 * kappa_n),
    )


def plugin_variance(alpha, beta) -> np.ndarray:
    """Posterior-mean variance beta / (alpha - 1), floored; the floor where alpha <= 1."""
    alpha = np.asarray(alpha, dtype=np.float64)
    ratio = np.divide(beta, alpha - 1.0, out=np.zeros_like(alpha), where=alpha > 1.0)
    return np.maximum(ratio, VARIANCE_FLOOR)


@dataclass(frozen=True, eq=False)
class ClassState:
    """One class's row count and per-feature arrays in ``feature_ids`` order: the
    NIG state and the plug-ins scoring uses, each a read-only float64 copy."""

    label: str
    n: int
    mu: np.ndarray
    kappa: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    plugin_means: np.ndarray
    plugin_vars: np.ndarray

    def __post_init__(self) -> None:
        for name in _ARRAYS:
            values = np.array(getattr(self, name), dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def nig(self) -> tuple[np.ndarray, ...]:
        return self.mu, self.kappa, self.alpha, self.beta

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassState):
            return NotImplemented
        return (self.label, self.n) == (other.label, other.n) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAYS
        )


@dataclass(frozen=True)
class ClassifierModel:
    alphabet: tuple[str, ...]
    feature_ids: tuple[int, ...]
    classes: tuple[ClassState, ...]

    @property
    def total_flows(self) -> int:
        return sum(state.n for state in self.classes)

    def class_prior(self, label: str) -> float:
        for state in self.classes:
            if state.label == label:
                return state.n / self.total_flows
        raise UnknownClassError(f"unknown class {label!r}")


@dataclass(frozen=True)
class ClassScores:
    alphabet: tuple[str, ...]
    log_scores: tuple[float, ...]

    @property
    def predicted(self) -> str:
        # Ties go to the lowest class index: argmax returns the first max.
        return self.alphabet[int(np.argmax(self.log_scores))]


def _batch_stats(rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    n = rows.shape[0]
    mean = rows.mean(axis=0)
    sumsq = ((rows - mean) ** 2).sum(axis=0)
    return n, mean, sumsq


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
    data = ds.matrix(ids)
    start = tuple(np.full(len(ids), getattr(prior, name), dtype=np.float64) for name in NIG_PARAMS)
    states = []
    for code, label in enumerate(ds.alphabet):
        rows = data[ds.codes == code]
        if rows.shape[0] < 2:
            raise InsufficientDataError(
                f"class {label!r} has {rows.shape[0]} flows; need at least 2"
            )
        n, mean, sumsq = _batch_stats(rows)
        sample_var = np.maximum(sumsq / (n - 1), VARIANCE_FLOOR)
        states.append(ClassState(label, n, *nig_fold(start, n, mean, sumsq), mean, sample_var))
    return ClassifierModel(alphabet=ds.alphabet, feature_ids=ids, classes=tuple(states))


def update(model: ClassifierModel, new_ds: Dataset) -> ClassifierModel:
    """Fold new labeled flows into a copy of the model.

    Classes present in ``new_ds`` get advanced posteriors and refreshed
    plug-ins (posterior mean, beta / (alpha - 1)); untouched classes keep
    their state object.  The input model is never mutated.
    """
    if (new_ds.codes < 0).any():
        raise ContractError("update needs a fully labeled dataset")
    present = [new_ds.alphabet[code] for code in np.unique(new_ds.codes).tolist()]
    for label in present:
        if label not in model.alphabet:
            raise UnknownClassError(f"unknown class {label!r}")
    if not present:
        return model
    data = new_ds.matrix(model.feature_ids)
    states = list(model.classes)
    for i, state in enumerate(model.classes):
        if state.label in present:
            n, mean, sumsq = _batch_stats(data[new_ds.codes == new_ds.alphabet.index(state.label)])
            mu, kappa, alpha, beta = nig_fold(state.nig, n, mean, sumsq)
            states[i] = ClassState(state.label, state.n + n, mu, kappa, alpha, beta,
                                   mu, plugin_variance(alpha, beta))
    return replace(model, classes=tuple(states))


def _log_scores(model: ClassifierModel, rows: np.ndarray) -> np.ndarray:
    """(n, C) log scores of rows already restricted to the model's features.

    The rows are made C-contiguous so that each (row, class) sum runs over
    contiguous features, in the same order as a one-row, one-class sum:
    a score does not depend on how many rows are scored together.  Rows go
    in blocks that keep the (rows, C, d) temporary near 8 MB.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if not np.isfinite(rows).all():
        raise ContractError("feature vector contains non-finite values")
    means = np.stack([state.plugin_means for state in model.classes])
    variances = np.stack([state.plugin_vars for state in model.classes])
    log_n = np.log(np.array([state.n for state in model.classes], dtype=np.float64))
    base = log_n - 0.5 * np.log(variances).sum(axis=1)
    scores = np.empty((rows.shape[0], len(model.classes)))
    block = max(1, 2**20 // max(1, means.size))
    for lo in range(0, rows.shape[0], block):
        x = rows[lo : lo + block, None, :]
        scores[lo : lo + block] = base - 0.5 * (((x - means) ** 2) / variances).sum(axis=2)
    return scores


def score(model: ClassifierModel, x: FeatureVector) -> ClassScores:
    """Log-space class scores for one feature vector."""
    row = np.array([[x.value(fid) for fid in model.feature_ids]], dtype=np.float64)
    scores = _log_scores(model, row)[0]
    return ClassScores(alphabet=model.alphabet, log_scores=tuple(scores.tolist()))


def predict(model: ClassifierModel, ds: Dataset) -> list[str]:
    """Predicted label for every row, in dataset order; ties go to the first class."""
    best = np.argmax(_log_scores(model, ds.matrix(model.feature_ids)), axis=1)
    return [model.alphabet[i] for i in best.tolist()]


def model_to_json_dict(model: ClassifierModel, saved_at: str | None = None) -> dict:
    keys = list(map(str, model.feature_ids))
    classes = {}
    for state in model.classes:
        nig = zip(*(values.tolist() for values in state.nig))
        classes[state.label] = {
            "n": state.n,
            # {"<fid>": {"mu": ..., "kappa": ..., "alpha": ..., "beta": ...}, ...}
            "posteriors": dict(zip(keys, map(dict, map(zip, repeat(NIG_PARAMS), nig)))),
            "plugin_means": dict(zip(keys, state.plugin_means.tolist())),
            "plugin_vars": dict(zip(keys, state.plugin_vars.tolist())),
        }
    return {
        "version": MODEL_VERSION,
        "metadata": {
            "saved_at": saved_at
            or datetime.now(timezone.utc).isoformat(timespec="seconds")
        },
        "alphabet": list(model.alphabet),
        "selected_features": list(model.feature_ids),
        "classes": classes,
    }


def save_model(model: ClassifierModel, path) -> None:
    write_json(path, model_to_json_dict(model))


def _checked(where: str, keys, name: str, values, need: str, ok) -> np.ndarray:
    """``values`` as a float64 array, refusing the first that is not a finite
    JSON number passing ``ok``."""
    for key, value in zip(keys, values):
        if not (is_finite_number(value) and ok(value)):
            raise ModelFormatError(f"{where} feature {key}: {name} must be {need}, got {value!r}")
    return np.array(values, dtype=np.float64)


def _load_class(path, label: str, entry: dict, keys: list[str]) -> ClassState:
    """One class of a model document; refuses numbers that would make its scores meaningless."""
    where = f"{path}: class {label!r}"
    n = entry["n"]
    if type(n) is not int or not 1 <= n <= sys.float_info.max:
        raise ModelFormatError(f"{where}: n must be a positive integer, got {n!r}")
    posts = [entry["posteriors"][key] for key in keys]
    if any(set(post) != set(NIG_PARAMS) for post in posts):
        raise TypeError(f"class {label!r}: each posterior must hold exactly {NIG_PARAMS}")
    mu = _checked(where, keys, "mu", [p["mu"] for p in posts], "finite", lambda v: True)
    kappa, alpha, beta = (
        _checked(where, keys, name, [p[name] for p in posts], "finite and > 0", lambda v: v > 0)
        for name in NIG_PARAMS[1:]
    )
    # A document without the plug-in block gets them from the posterior.
    means, variances = entry.get("plugin_means"), entry.get("plugin_vars")
    plugin_means = mu if not means else _checked(
        where, keys, "plugin mean", [means[k] for k in keys], "finite", lambda v: True)
    plugin_vars = plugin_variance(alpha, beta) if not variances else _checked(
        where, keys, "plugin variance", [variances[k] for k in keys],
        f"finite and >= {VARIANCE_FLOOR}", lambda v: v >= VARIANCE_FLOOR)
    return ClassState(label, n, mu, kappa, alpha, beta, plugin_means, plugin_vars)


def load_model(path) -> ClassifierModel:
    """Read a model file, refusing other versions and out-of-range values."""
    doc = read_json(path, ModelFormatError)
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: model document is not a JSON object")
    version = doc.get("version")
    if version != MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: model version {version!r} is not supported (want {MODEL_VERSION})"
        )
    try:
        feature_ids = validate_feature_ids(doc.get("selected_features"))
    except ContractError as exc:
        raise ModelFormatError(f"{path}: selected_features: {exc}") from None
    keys = list(map(str, feature_ids))
    try:
        alphabet = tuple(doc["alphabet"])
        states = tuple(_load_class(path, label, doc["classes"][label], keys) for label in alphabet)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model document ({exc})") from None
    if not states:
        raise ModelFormatError(f"{path}: model has no classes")
    if len(set(alphabet)) < len(alphabet):
        raise ModelFormatError(f"{path}: alphabet repeats a label: {list(alphabet)!r}")
    return ClassifierModel(alphabet=alphabet, feature_ids=feature_ids, classes=states)
