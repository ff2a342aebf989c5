"""The 16 per-flow features and the CSV dataset that carries them.

Feature ids 1..16 follow the column order of FEATURE_NAMES.  Zero-duration
flows use a 1 ms floor before any division, and the three directional
ratios guard against an empty backward direction with a denominator of
max(value, 1).
"""

from __future__ import annotations

import csv
import numbers
from functools import cached_property

import numpy as np

from .errors import ContractError, FormatError
from .files import csv_rows
from .flow import FlowRecord

FEATURE_NAMES = (
    "lport", "hport", "duration", "transproto", "tcpflags_fwd", "tcpflags_bwd",
    "pps", "bps", "mean_iat", "pkt_ratio", "byte_ratio", "pktlen_ratio",
    "bidir_packets", "bidir_bytes", "tos", "mean_pkt_len",
)

NUM_FEATURES = len(FEATURE_NAMES)

_COLUMN = {name: i for i, name in enumerate(FEATURE_NAMES)}

DURATION_FLOOR = 0.001


class SchemaError(FormatError):
    """A dataset file's columns do not match the canonical header."""


class FeatureVector:
    """One flow's 16 feature values, optionally labeled.

    ``row`` is a read-only float64 array of the values in FEATURE_NAMES
    order; a vector taken from a :class:`Dataset` is a view of one row of
    its matrix, so no values are copied.  Features read as attributes by
    name (``vec.pps``).
    """

    __slots__ = ("row", "label")

    def __init__(self, row: np.ndarray, label: str | None = None) -> None:
        self.row = row
        self.label = label

    def __getattr__(self, name: str) -> float:
        if name not in _COLUMN:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return float(self.row[_COLUMN[name]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return self.label == other.label and self.values() == other.values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(FEATURE_NAMES, self.values()))
        return f"FeatureVector({fields}, label={self.label!r})"

    def values(self) -> tuple[float, ...]:
        return tuple(self.row.tolist())

    def value(self, feature_id: int) -> float:
        return float(self.row[_column(feature_id)])

    def with_label(self, label: str | None) -> "FeatureVector":
        return FeatureVector(self.row, label)

    @classmethod
    def from_values(cls, values, label: str | None = None) -> "FeatureVector":
        row = np.array(values, dtype=np.float64)
        if row.shape != (NUM_FEATURES,):
            raise ContractError(f"expected {NUM_FEATURES} values, got {row.size}")
        row.flags.writeable = False
        return cls(row, label)


def _column(feature_id: int) -> int:
    if not 1 <= feature_id <= NUM_FEATURES:
        raise ContractError(f"feature id {feature_id} outside 1..{NUM_FEATURES}")
    return feature_id - 1


def validate_feature_ids(feature_ids) -> tuple[int, ...]:
    """The ids as a tuple of distinct ints in 1..NUM_FEATURES, at least one; a
    float, bool or string id raises ContractError rather than being truncated."""
    if isinstance(feature_ids, (str, bytes)) or not hasattr(feature_ids, "__iter__"):
        raise ContractError(f"feature ids must be a list of integers, got {feature_ids!r}")
    ids = tuple(feature_ids)
    if not ids:
        raise ContractError("need at least one feature")
    for fid in ids:
        if isinstance(fid, bool) or not isinstance(fid, numbers.Integral):
            raise ContractError(f"feature id {fid!r} is not an integer")
        _column(fid)
    if len(set(ids)) != len(ids):
        raise ContractError("duplicate feature ids")
    return tuple(map(int, ids))


def feature_name(feature_id: int) -> str:
    return FEATURE_NAMES[_column(feature_id)]


def featurize(flow: FlowRecord, label: str | None = None) -> FeatureVector:
    """Compute the 16 features of one flow episode, in FEATURE_NAMES order."""
    key = flow.key
    raw_duration = (flow.last_ts - flow.first_ts) / 1e6
    duration = raw_duration if raw_duration > 0 else DURATION_FLOOR
    packets = flow.total_packets
    total_bytes = flow.total_bytes
    mean_fwd_len = flow.fwd_bytes / flow.fwd_packets
    mean_bwd_len = flow.bwd_bytes / flow.bwd_packets if flow.bwd_packets else 0.0
    return FeatureVector.from_values(
        (
            min(key.port_lo, key.port_hi),                      # lport
            max(key.port_lo, key.port_hi),                      # hport
            duration,
            int(key.proto),                                     # transproto
            flow.tcp_flags_fwd,
            flow.tcp_flags_bwd,
            packets / duration,                                 # pps
            total_bytes / duration,                             # bps
            duration / packets,                                 # mean_iat
            flow.fwd_packets / max(flow.bwd_packets, 1),        # pkt_ratio
            flow.fwd_bytes / max(flow.bwd_bytes, 1),            # byte_ratio
            mean_fwd_len / max(mean_bwd_len, 1.0),              # pktlen_ratio
            packets,                                            # bidir_packets
            total_bytes,                                        # bidir_bytes
            flow.tos,
            total_bytes / packets,                              # mean_pkt_len
        ),
        label,
    )


class Dataset:
    """Feature rows as one read-only float64 matrix plus integer label codes.

    ``data[i]`` holds row i's 16 features and ``codes[i]`` indexes its label
    in ``alphabet``, or is -1 for an unlabeled row.
    """

    def __init__(self, vectors, alphabet) -> None:
        vectors = list(vectors)
        code = _label_codes(alphabet)
        for i, vec in enumerate(vectors):
            if vec.label not in code:
                raise ContractError(f"row {i}: label {vec.label!r} not in alphabet")
        rows = np.array([vec.row for vec in vectors], dtype=np.float64).reshape(-1, NUM_FEATURES)
        self._set(rows, [code[vec.label] for vec in vectors], alphabet)

    def _set(self, data, codes, alphabet) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.codes = np.asarray(codes, dtype=np.intp)
        self.data.flags.writeable = self.codes.flags.writeable = False
        self.alphabet = tuple(alphabet)

    @classmethod
    def from_arrays(cls, data, codes, alphabet) -> "Dataset":
        """A dataset over a copy of an (n, 16) matrix and n codes into ``alphabet``."""
        ds = cls.__new__(cls)
        ds._set(np.array(data, dtype=np.float64), np.array(codes, dtype=np.intp), alphabet)
        _label_codes(ds.alphabet)
        if ds.data.ndim != 2 or ds.data.shape[1] != NUM_FEATURES or ds.codes.shape != (len(ds),):
            raise ContractError(
                f"need an (n, {NUM_FEATURES}) matrix and n codes, "
                f"got {ds.data.shape} and {ds.codes.shape}"
            )
        if ds.codes.size and not -1 <= ds.codes.min() <= ds.codes.max() < len(ds.alphabet):
            raise ContractError(f"label codes outside -1..{len(ds.alphabet) - 1}")
        return ds

    @classmethod
    def from_vectors(cls, vectors) -> "Dataset":
        vectors = list(vectors)
        alphabet = tuple(sorted({v.label for v in vectors if v.label is not None}))
        return cls(vectors, alphabet)

    @cached_property
    def vectors(self) -> list[FeatureVector]:
        """The rows as :class:`FeatureVector` views of ``data``, made on first read."""
        return list(map(FeatureVector, self.data, self.labels()))

    def __len__(self) -> int:
        return self.data.shape[0]

    def __iter__(self):
        return iter(self.vectors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.alphabet == other.alphabet and all(
            map(np.array_equal, (self.codes, self.data), (other.codes, other.data)))

    def labels(self) -> list[str | None]:
        names = self.alphabet + (None,)  # code -1 reads as None
        return [names[c] for c in self.codes.tolist()]

    def matrix(self, feature_ids=None) -> np.ndarray:
        """Rows x selected features as float64; all 16 when ids is None."""
        if feature_ids is None:
            return self.data
        return self.data[:, [_column(fid) for fid in feature_ids]]

    def take(self, rows) -> "Dataset":
        """The subset at the given row indices, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        ds = Dataset.__new__(Dataset)
        ds._set(self.data[rows], self.codes[rows], self.alphabet)
        return ds

    def labeled_only(self) -> "Dataset":
        return self.take(np.flatnonzero(self.codes >= 0))


def _label_codes(alphabet: tuple[str, ...]) -> dict:
    """Label -> code, with None (unlabeled) -> -1; rejects a repeated label."""
    code = {label: i for i, label in enumerate(alphabet)}
    if len(code) != len(alphabet):
        raise ContractError("alphabet contains duplicate labels")
    code[None] = -1
    return code


_CSV_HEADER = FEATURE_NAMES + ("label",)


def write_dataset(ds: Dataset, path) -> None:
    """Write a dataset CSV; numbers carry 9 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for values, label in zip(ds.data.tolist(), ds.labels()):
            writer.writerow([f"{v:.9g}" for v in values] + [label or ""])


def read_dataset(path) -> Dataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    The header must match the canonical column list exactly; the error for
    a mismatch names the missing and unexpected columns.  A cell that is
    not a finite number is rejected with its line and column.
    """
    rows, labels = [], []
    for line, row in csv_rows(path, _CSV_HEADER, SchemaError):
        try:
            rows.append([float(v) for v in row[:NUM_FEATURES]])
        except ValueError as exc:
            raise SchemaError(f"{path}: line {line}: {exc}") from None
        labels.append(row[NUM_FEATURES] or None)
    data = np.array(rows, dtype=np.float64).reshape(-1, NUM_FEATURES)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, col = bad[0].tolist()
        raise SchemaError(
            f"{path}: line {i + 2}: column {FEATURE_NAMES[col]}: "
            f"non-finite value {float(data[i, col])!r}"
        )
    alphabet = tuple(sorted(set(labels) - {None}))
    code = _label_codes(alphabet)
    return Dataset.from_arrays(data, [code[label] for label in labels], alphabet)
