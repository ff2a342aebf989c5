"""The 16 per-flow features and the CSV dataset that carries them.

Feature ids 1..16 follow the column order of FEATURE_NAMES.  Zero-duration
flows use a 1 ms floor before any division, and the three directional
ratios guard against an empty backward direction with a denominator of
max(value, 1).
"""

from __future__ import annotations

import csv
import io
import numbers
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import ContractError, FormatError
from .files import csv_body, csv_rows
from .flow import FlowRecord, FlowTable

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


def feature_matrix(flows: FlowTable) -> np.ndarray:
    """The 16 features of every flow of a table, as a float64 (flows, 16)
    matrix in FEATURE_NAMES order."""
    raw_duration = (flows.last_ts - flows.first_ts) / 1e6
    duration = np.where(raw_duration > 0, raw_duration, DURATION_FLOOR)
    packets = flows.fwd_packets + flows.bwd_packets
    total_bytes = flows.fwd_bytes + flows.bwd_bytes
    mean_fwd_len = flows.fwd_bytes / flows.fwd_packets
    mean_bwd_len = np.where(flows.bwd_packets > 0,
                            flows.bwd_bytes / np.maximum(flows.bwd_packets, 1), 0.0)
    return np.array((
        np.minimum(flows.port_lo, flows.port_hi),                   # lport
        np.maximum(flows.port_lo, flows.port_hi),                   # hport
        duration,
        flows.proto,                                                # transproto
        flows.tcp_flags_fwd,
        flows.tcp_flags_bwd,
        packets / duration,                                         # pps
        total_bytes / duration,                                     # bps
        duration / packets,                                         # mean_iat
        flows.fwd_packets / np.maximum(flows.bwd_packets, 1),       # pkt_ratio
        flows.fwd_bytes / np.maximum(flows.bwd_bytes, 1),           # byte_ratio
        mean_fwd_len / np.maximum(mean_bwd_len, 1.0),               # pktlen_ratio
        packets,                                                    # bidir_packets
        total_bytes,                                                # bidir_bytes
        flows.tos,
        total_bytes / packets,                                      # mean_pkt_len
    ), dtype=np.float64).T


def featurize(flow: FlowRecord, label: str | None = None) -> FeatureVector:
    """The 16 features of one flow episode: :func:`feature_matrix` of a
    one-row table."""
    return FeatureVector.from_values(feature_matrix(FlowTable.from_records([flow]))[0], label)


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
        rows = [vec.row for vec in vectors]
        try:  # one shape check of the stacked rows; ragged rows fail to stack
            data = np.array(rows or np.empty((0, NUM_FEATURES)), dtype=np.float64)
            if data.shape != (len(rows), NUM_FEATURES):
                raise ValueError
        except ValueError:
            bad = [i for i, row in enumerate(rows) if np.shape(row) != (NUM_FEATURES,)]
            if not bad:
                raise
            raise ContractError(f"row {bad[0]}: expected {NUM_FEATURES} values, got shape "
                                f"{np.shape(rows[bad[0]])}") from None
        self._set(data, [code[vec.label] for vec in vectors], alphabet)

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
    def from_labels(cls, data, labels) -> "Dataset":
        """A dataset over a copy of an (n, 16) matrix and n labels, None for an
        unlabeled row; the alphabet is the distinct labels, sorted."""
        alphabet = tuple(sorted(set(labels) - {None}))
        code = _label_codes(alphabet)
        return cls.from_arrays(data, [code[label] for label in labels], alphabet)

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
        """The rows at an index array or boolean mask, in that order."""
        ds = Dataset.__new__(Dataset)
        ds._set(self.data[rows], self.codes[rows], self.alphabet)
        return ds

    def labeled_only(self) -> "Dataset":
        return self.take(self.codes >= 0)


def _label_codes(alphabet: tuple[str, ...]) -> dict:
    """Label -> code, with None (unlabeled) -> -1; rejects a repeated label."""
    code = {label: i for i, label in enumerate(alphabet)}
    if len(code) != len(alphabet):
        raise ContractError("alphabet contains duplicate labels")
    code[None] = -1
    return code


_CSV_HEADER = FEATURE_NAMES + ("label",)


def _csv_cells(values) -> list[str]:
    """Each string as ``csv.writer`` writes it as one cell of a longer row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    cells = []
    for value in values:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(("", value))
        cells.append(buffer.getvalue()[1:-2])  # less the empty cell's comma and the line end
    return cells


def write_dataset(ds: Dataset, path) -> None:
    """Write a dataset CSV; numbers carry 9 significant digits."""
    row = ",".join(["%.9g"] * NUM_FEATURES) + ",%s\r\n"
    labels = _csv_cells(ds.alphabet + ("",))  # code -1, unlabeled, reads the last
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(_CSV_HEADER)
        fh.writelines(row % (*values, labels[code])
                      for values, code in zip(ds.data.tolist(), ds.codes.tolist()))


_ROW = np.dtype([("values", np.float64, (NUM_FEATURES,)), ("label", object)])

# Text on which NumPy's parser may read what the csv module and float() refuse:
# NUL (the csv module refuses it before Python 3.11) and \x1c-\x1f, which NumPy
# strips from around a number as white space and float() does not.
_CONTROLS = "\x00\x1c\x1d\x1e\x1f"


def read_dataset(path) -> Dataset:
    """Read a dataset CSV written by :func:`write_dataset`.

    The header must match the canonical column list exactly; the error for
    a mismatch names the missing and unexpected columns.  A cell that is
    not a finite number is rejected with its line and column.  The body is
    parsed by one ``np.loadtxt`` call; a body NumPy refuses, or may read
    otherwise than the csv module, is walked by the csv module, which names
    the first fault.
    """
    body = csv_body(path, _CSV_HEADER, SchemaError)
    try:  # NumPy warns on a body of line ends alone, which holds no records
        table = (np.loadtxt(io.StringIO(body), dtype=_ROW, delimiter=",", quotechar='"',
                            comments=None, ndmin=1)
                 if body.strip("\r\n") else np.empty(0, _ROW))
    except ValueError:
        _check_records(path)
        # The csv module took every line end and NumPy did not: a lone CR.
        raise SchemaError(f"{path}: a line ends in CR alone; line ends must be LF or CRLF") from None
    labels = table["label"].tolist()
    if not _same_records(body, labels):
        _check_records(path)
    data = table["values"]
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, col = bad[0].tolist()
        line, _ = next(islice(csv_rows(path, _CSV_HEADER, SchemaError), i, None))
        raise SchemaError(
            f"{path}: line {line}: column {FEATURE_NAMES[col]}: "
            f"non-finite value {float(data[i, col])!r}"
        )
    return Dataset.from_labels(data, [label or None for label in labels])


def _same_records(body: str, labels: list[str]) -> bool:
    """Whether the csv module would read ``body`` as the records, with these
    labels, that NumPy read.

    The two agree unless the body holds a blank line (NumPy skips it), a
    line break inside a quoted number, one of ``_CONTROLS``, or a field past
    the csv module's size limit.  A line holds one record plus the line
    breaks inside its label, so a count of lines finds the first two.
    """
    if any(char in body for char in _CONTROLS):
        return False
    raw = np.frombuffer(body.encode(), np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    lines = ends.size + (body[-1:] not in ("", "\n"))
    longest = np.diff(ends, prepend=-1, append=raw.size).max() - 1  # bytes: no fewer than characters
    limit = csv.field_size_limit()
    return (lines == len(labels) + "".join(labels).count("\n")
            and longest <= limit and max(map(len, labels), default=0) <= limit)


def _check_records(path) -> None:
    """Raise the first fault the csv module finds below a feature CSV's
    header: a record without 17 fields, CSV syntax, or a numeric cell that
    ``float()`` refuses or that is not ASCII (``1_000``, ``١٢``)."""
    for line, row in csv_rows(path, _CSV_HEADER, SchemaError):
        for name, cell in zip(FEATURE_NAMES, row):
            try:
                float(cell)
                if "_" in cell or not cell.strip().isascii():
                    raise ValueError(f"{cell!r} is not an ASCII decimal number")
            except ValueError as exc:
                raise SchemaError(f"{path}: line {line}: column {name}: {exc}") from None
