"""Correlation-based feature selection.

Continuous features are reduced to equal-frequency bin codes, relevance and
redundancy are both measured with symmetrical uncertainty
SU(X, Y) = 2 * I(X; Y) / (H(X) + H(Y)) in bits, and a fast filter keeps a
feature only while no better-ranked retained feature is at least as
predictive of it as the class labels are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateDatasetError, check_finite, check_integer
from .features import Dataset, NUM_FEATURES, feature_name

DEFAULT_BINS = 10
_MAX_BINS = 2**63 - 1  # the codes are int64


def check_bins(bins: int) -> int:
    """``bins`` as an int; a bin count that is not an integer in 2..2**63 - 1,
    the range of the int64 codes, raises."""
    bins = check_integer("bins", bins)
    if not 2 <= bins <= _MAX_BINS:
        raise ContractError(f"bins must be in 2..{_MAX_BINS}, got {bins}")
    return bins


def discretize(column, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Equal-frequency bin codes for one numeric column.

    Equal values always share a code, and a tie group straddling an ideal
    boundary drops into the lower bin; a constant column is all code 0.
    Sorted position i gets code i * bins // n, computed exactly in int64 for
    any bins up to 2**63 - 1.
    """
    values = np.asarray(column, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ContractError("discretize needs a non-empty 1-D column")
    bins = check_bins(bins)
    if not np.all(np.isfinite(values)):
        raise ContractError("column contains non-finite values")
    n = values.size
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # i * bins // n == i * q + i * r // n, where i * q < bins and i * r < n**2.
    q, r = divmod(bins, n)
    i = np.arange(n, dtype=np.int64)
    position_codes = i * q + (i * r) // n
    # Each element takes the code of its tie group's first sorted position.
    first_in_group = np.searchsorted(sorted_vals, sorted_vals, side="left")
    codes = np.empty(n, dtype=np.int64)
    codes[order] = position_codes[first_in_group]
    return codes


def _entropy(counts: np.ndarray) -> float:
    probs = counts[counts > 0] / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def symmetrical_uncertainty(x, y) -> float:
    """SU of two code vectors: 0 for two constants, 1 for identical partitions."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or x.shape != y.shape:
        raise ContractError("symmetrical_uncertainty needs two equal-length vectors")
    if x.size == 0:
        raise ContractError("empty input")
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    nx = int(xi.max()) + 1
    ny = int(yi.max()) + 1
    hx = _entropy(np.bincount(xi, minlength=nx))
    hy = _entropy(np.bincount(yi, minlength=ny))
    if hx + hy == 0.0:
        return 0.0
    hxy = _entropy(np.bincount(xi * ny + yi, minlength=nx * ny))
    su = 2.0 * (hx + hy - hxy) / (hx + hy)
    return min(1.0, max(0.0, su))


@dataclass(frozen=True)
class RemovedFeature:
    feature_id: int
    # The retained, better-ranked feature that made this one redundant;
    # None when the feature simply fell below the relevance threshold.
    peer_id: int | None


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[int, ...]
    removed: tuple[RemovedFeature, ...]
    su_with_label: dict[int, float]
    delta: float
    bins: int

    def to_json_dict(self) -> dict:
        return {
            "params": {"delta": self.delta, "bins": self.bins},
            "su": [
                {"feature_id": fid, "name": feature_name(fid), "su": self.su_with_label[fid]}
                for fid in sorted(self.su_with_label)
            ],
            "selected": list(self.selected),
            "removed": [
                {"feature_id": r.feature_id, "peer_id": r.peer_id} for r in self.removed
            ],
        }


def fcbf_select(ds: Dataset, delta: float = 0.0, bins: int = DEFAULT_BINS) -> SelectionResult:
    """Rank features by SU with the class, then prune redundant ones.

    Candidates are visited in descending label-SU order (ties to the lower
    feature id).  A candidate is removed the first time some retained
    higher-ranked feature F satisfies SU(F, candidate) >= SU(candidate,
    label); otherwise it is retained.  ``selected`` preserves rank order.
    """
    check_finite("delta", delta)
    bins = check_bins(bins)
    if (ds.codes < 0).any():
        raise ContractError("selection needs a fully labeled dataset")
    if not len(ds):
        raise ContractError("selection needs a non-empty dataset")
    if len(np.unique(ds.codes)) < 2:
        raise DegenerateDatasetError("selection needs at least two classes")

    # Label codes renumbered in sorted label order, whatever the alphabet's order.
    by_name = sorted(range(len(ds.alphabet)), key=ds.alphabet.__getitem__)
    label_codes = np.argsort(by_name)[ds.codes]
    data = ds.matrix()
    codes = {
        fid: discretize(data[:, fid - 1], bins) for fid in range(1, NUM_FEATURES + 1)
    }
    su_label = {
        fid: symmetrical_uncertainty(codes[fid], label_codes)
        for fid in range(1, NUM_FEATURES + 1)
    }

    ranked = sorted(su_label, key=lambda fid: (-su_label[fid], fid))
    selected: list[int] = []
    removed: list[RemovedFeature] = []
    for fid in ranked:
        if su_label[fid] < delta:
            removed.append(RemovedFeature(fid, None))
            continue
        peer = None
        for kept in selected:
            if symmetrical_uncertainty(codes[kept], codes[fid]) >= su_label[fid]:
                peer = kept
                break
        if peer is None:
            selected.append(fid)
        else:
            removed.append(RemovedFeature(fid, peer))
    return SelectionResult(
        selected=tuple(selected),
        removed=tuple(removed),
        su_with_label=su_label,
        delta=delta,
        bins=bins,
    )
