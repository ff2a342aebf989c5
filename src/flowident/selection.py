"""Correlation-based feature selection.

Continuous features are reduced to equal-frequency bin codes, relevance and
redundancy are both measured with symmetrical uncertainty
SU(X, Y) = 2 * I(X; Y) / (H(X) + H(Y)) in bits, and a fast filter keeps a
feature only while no better-ranked retained feature is at least as
predictive of it as the class labels are.

The filter bins, ranks and scores each feature once: one stable sort per
column gives its codes, their dense ranks and the partition's entropy, so
each SU it asks for is one joint bincount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a sorted key differs from the one before it, and at 0."""
    starts = np.empty(sorted_keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def _sorted_codes(values: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of a finite float64 column and the bin codes of
    its values in that order."""
    n = values.size
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # i * bins // n == i * q + i * r // n, where i * q < bins and i * r < n**2.
    q, r = divmod(bins, n)
    i = np.arange(n, dtype=np.int64)
    position_codes = i * q + (i * r) // n
    # Each element takes the code of its tie group's first sorted position,
    # the largest such code so far, as codes never fall along the sort.
    first_in_group = _run_starts(sorted_vals)
    return order, np.maximum.accumulate(np.where(first_in_group, position_codes, 0))


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
    order, sorted_codes = _sorted_codes(values, bins)
    codes = np.empty(values.size, dtype=np.int64)
    codes[order] = sorted_codes
    return codes


def _entropy(counts: np.ndarray) -> float:
    probs = counts[counts > 0] / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


class _Partition(NamedTuple):
    """Rows grouped by equal value: each row's dense rank among the distinct
    values, the number of distinct values, and the partition's entropy."""

    ranks: np.ndarray
    size: int
    entropy: float


def _partition(order: np.ndarray, sorted_keys: np.ndarray) -> _Partition:
    """The partition of the rows whose keys, taken in ``order``, are the
    non-decreasing ``sorted_keys``."""
    starts = _run_starts(sorted_keys)
    ranks = np.empty(sorted_keys.size, dtype=np.intp)
    ranks[order] = np.cumsum(starts) - 1
    counts = np.diff(np.append(np.flatnonzero(starts), sorted_keys.size))
    return _Partition(ranks, counts.size, _entropy(counts))


def _densify(keys: np.ndarray) -> _Partition:
    """The partition of rows by equal key, in sorted key order."""
    order = np.argsort(keys, kind="stable")
    return _partition(order, keys[order])


def _su(x: _Partition, y: _Partition) -> float:
    """SU of two partitions, from their entropies and one joint bincount."""
    if x.entropy + y.entropy == 0.0:
        return 0.0
    hxy = _entropy(np.bincount(x.ranks * y.size + y.ranks))
    su = 2.0 * (x.entropy + y.entropy - hxy) / (x.entropy + y.entropy)
    return min(1.0, max(0.0, su))


def symmetrical_uncertainty(x, y) -> float:
    """SU of two code vectors: 0 for two constants, 1 for identical partitions."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or x.shape != y.shape:
        raise ContractError("symmetrical_uncertainty needs two equal-length vectors")
    if x.size == 0:
        raise ContractError("empty input")
    if any(v.dtype.kind in "fc" and not np.isfinite(v).all() for v in (x, y)):
        raise ContractError("symmetrical_uncertainty got non-finite values")
    return _su(_densify(x), _densify(y))


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
    # Label codes renumbered in sorted label order, whatever the alphabet's order.
    by_name = sorted(range(len(ds.alphabet)), key=ds.alphabet.__getitem__)
    label = _densify(np.argsort(by_name)[ds.codes])
    if label.size < 2:
        raise DegenerateDatasetError("selection needs at least two classes")
    data = ds.matrix()
    bad = np.flatnonzero(~np.isfinite(data).all(axis=0))
    if bad.size:
        fid = int(bad[0]) + 1
        raise ContractError(f"feature {fid} ({feature_name(fid)}): column contains non-finite values")
    features = {fid: _partition(*_sorted_codes(data[:, fid - 1], bins))
                for fid in range(1, NUM_FEATURES + 1)}
    su_label = {fid: _su(features[fid], label) for fid in range(1, NUM_FEATURES + 1)}

    ranked = sorted(su_label, key=lambda fid: (-su_label[fid], fid))
    selected: list[int] = []
    removed: list[RemovedFeature] = []
    for fid in ranked:
        if su_label[fid] < delta:
            removed.append(RemovedFeature(fid, None))
            continue
        peer = None
        for kept in selected:
            if _su(features[kept], features[fid]) >= su_label[fid]:
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
