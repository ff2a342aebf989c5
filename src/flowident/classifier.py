"""Gaussian naive-Bayes flow classifier with conjugate online updating.

Each class keeps, per feature, a normal-inverse-gamma state (mu, kappa,
alpha, beta) that a labeled batch folds into without revisiting old data:

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

import json
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .errors import ContractError, FormatError
from .features import Dataset, FeatureVector, NUM_FEATURES

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
        if self.kappa <= 0 or self.alpha <= 0 or self.beta <= 0:
            raise ContractError("kappa, alpha, and beta must be positive")


@dataclass(frozen=True)
class FeaturePosterior:
    mu: float
    kappa: float
    alpha: float
    beta: float

    def fold(self, n: int, mean: float, sumsq: float) -> "FeaturePosterior":
        """Absorb a batch summarised by (n, mean, centered sum of squares)."""
        if n == 0:
            return self
        kappa_n = self.kappa + n
        return FeaturePosterior(
            mu=(self.kappa * self.mu + n * mean) / kappa_n,
            kappa=kappa_n,
            alpha=self.alpha + n / 2.0,
            beta=self.beta + 0.5 * sumsq + self.kappa * n * (mean - self.mu) ** 2 / (2.0 * kappa_n),
        )

    def plugin_variance(self) -> float:
        if self.alpha > 1.0:
            return max(self.beta / (self.alpha - 1.0), VARIANCE_FLOOR)
        return VARIANCE_FLOOR


@dataclass(frozen=True)
class ClassState:
    label: str
    n: int
    posteriors: tuple[FeaturePosterior, ...]
    plugin_means: tuple[float, ...]
    plugin_vars: tuple[float, ...]


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


def _validate_feature_ids(feature_ids) -> tuple[int, ...]:
    ids = tuple(int(fid) for fid in feature_ids)
    if not ids:
        raise ContractError("need at least one feature")
    if len(set(ids)) != len(ids):
        raise ContractError("duplicate feature ids")
    for fid in ids:
        if not 1 <= fid <= NUM_FEATURES:
            raise ContractError(f"feature id {fid} outside 1..{NUM_FEATURES}")
    return ids


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
    ids = _validate_feature_ids(feature_ids)
    if (ds.codes < 0).any():
        raise ContractError("training needs a fully labeled dataset")
    if not ds.alphabet:
        raise ContractError("training needs at least one class")
    data = ds.matrix(ids)
    states = []
    for code, label in enumerate(ds.alphabet):
        rows = data[ds.codes == code]
        if rows.shape[0] < 2:
            raise InsufficientDataError(
                f"class {label!r} has {rows.shape[0]} flows; need at least 2"
            )
        n, mean, sumsq = _batch_stats(rows)
        sample_var = sumsq / (n - 1)
        states.append(
            ClassState(
                label=label,
                n=n,
                posteriors=tuple(
                    FeaturePosterior(prior.mu, prior.kappa, prior.alpha, prior.beta).fold(
                        n, mean[j], sumsq[j]
                    )
                    for j in range(len(ids))
                ),
                plugin_means=tuple(float(m) for m in mean),
                plugin_vars=tuple(max(float(v), VARIANCE_FLOOR) for v in sample_var),
            )
        )
    return ClassifierModel(alphabet=ds.alphabet, feature_ids=ids, classes=tuple(states))


def update(model: ClassifierModel, new_ds: Dataset) -> ClassifierModel:
    """Fold new labeled flows into a copy of the model.

    Classes present in ``new_ds`` get advanced posteriors and refreshed
    plug-ins (posterior mean, beta / (alpha - 1)); untouched classes keep
    their state bit for bit.  The input model is never mutated.
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
    states = []
    for state in model.classes:
        if state.label not in present:
            states.append(state)
            continue
        rows = data[new_ds.codes == new_ds.alphabet.index(state.label)]
        n, mean, sumsq = _batch_stats(rows)
        posteriors = tuple(
            post.fold(n, mean[j], sumsq[j]) for j, post in enumerate(state.posteriors)
        )
        states.append(
            ClassState(
                label=state.label,
                n=state.n + n,
                posteriors=posteriors,
                plugin_means=tuple(post.mu for post in posteriors),
                plugin_vars=tuple(post.plugin_variance() for post in posteriors),
            )
        )
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
    means = np.array([state.plugin_means for state in model.classes], dtype=np.float64)
    variances = np.array([state.plugin_vars for state in model.classes], dtype=np.float64)
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
    classes = {}
    for state in model.classes:
        classes[state.label] = {
            "n": state.n,
            "posteriors": {
                str(fid): {"mu": p.mu, "kappa": p.kappa, "alpha": p.alpha, "beta": p.beta}
                for fid, p in zip(model.feature_ids, state.posteriors)
            },
            "plugin_means": {
                str(fid): m for fid, m in zip(model.feature_ids, state.plugin_means)
            },
            "plugin_vars": {
                str(fid): v for fid, v in zip(model.feature_ids, state.plugin_vars)
            },
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
    with open(path, "w") as fh:
        json.dump(model_to_json_dict(model), fh, indent=2)
        fh.write("\n")


def _check_class(path, state: ClassState, feature_ids) -> None:
    """Refuse a class whose numbers would make its scores meaningless."""
    where = f"{path}: class {state.label!r}"
    # Bounds are compared as Python numbers: an int too large for a float fails them.
    if type(state.n) is not int or not 1 <= state.n <= sys.float_info.max:
        raise ModelFormatError(f"{where}: n must be a positive integer, got {state.n!r}")
    for fid, post, mean, var in zip(
        feature_ids, state.posteriors, state.plugin_means, state.plugin_vars
    ):
        for name, value, need, ok in (
            ("mu", post.mu, "finite", lambda v: True),
            ("plugin mean", mean, "finite", lambda v: True),
            ("kappa", post.kappa, "finite and > 0", lambda v: v > 0),
            ("alpha", post.alpha, "finite and > 0", lambda v: v > 0),
            ("beta", post.beta, "finite and > 0", lambda v: v > 0),
            ("plugin variance", var, f"finite and >= {VARIANCE_FLOOR}",
             lambda v: v >= VARIANCE_FLOOR),
        ):
            finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
            if not (finite and ok(value)):
                raise ModelFormatError(
                    f"{where} feature {fid}: {name} must be {need}, got {value!r}"
                )


def load_model(path) -> ClassifierModel:
    """Read a model file, refusing other versions and out-of-range values."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: model document is not a JSON object")
    version = doc.get("version")
    if version != MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: model version {version!r} is not supported (want {MODEL_VERSION})"
        )
    try:
        feature_ids = _validate_feature_ids(doc["selected_features"])
        alphabet = tuple(doc["alphabet"])
        states = []
        for label in alphabet:
            entry = doc["classes"][label]
            posteriors = tuple(
                FeaturePosterior(**entry["posteriors"][str(fid)]) for fid in feature_ids
            )
            plugin_means = entry.get("plugin_means")
            plugin_vars = entry.get("plugin_vars")
            states.append(
                ClassState(
                    label=label,
                    n=entry["n"],
                    posteriors=posteriors,
                    plugin_means=tuple(
                        plugin_means[str(fid)] if plugin_means else post.mu
                        for fid, post in zip(feature_ids, posteriors)
                    ),
                    plugin_vars=tuple(
                        plugin_vars[str(fid)] if plugin_vars else post.plugin_variance()
                        for fid, post in zip(feature_ids, posteriors)
                    ),
                )
            )
    except (KeyError, TypeError, ValueError, ContractError) as exc:
        raise ModelFormatError(f"{path}: malformed model document ({exc})") from None
    if not states:
        raise ModelFormatError(f"{path}: model has no classes")
    for state in states:
        _check_class(path, state, feature_ids)
    return ClassifierModel(alphabet=alphabet, feature_ids=feature_ids, classes=tuple(states))
