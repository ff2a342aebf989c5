"""Equal-frequency discretization, symmetrical uncertainty, and the filter."""

import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowident.errors import ContractError, DegenerateDatasetError
from flowident.features import Dataset, FeatureVector
from flowident.selection import (
    DEFAULT_BINS,
    RemovedFeature,
    discretize,
    fcbf_select,
    symmetrical_uncertainty,
)
from helpers import discretize_oracle, su_oracle


# ---------------------------------------------------------------- discretize

def test_discretize_frozen_examples():
    assert discretize([5, 1, 3, 1, 9, 7], bins=3).tolist() == [1, 0, 1, 0, 2, 2]
    assert discretize([1, 2, 3, 4], bins=2).tolist() == [0, 0, 1, 1]
    assert discretize([7, 7, 7], bins=4).tolist() == [0, 0, 0]
    assert discretize(list(range(10)), bins=10).tolist() == list(range(10))
    # a tie group straddling the ideal boundary falls into the lower bin
    assert discretize([1, 1, 1, 2, 2, 2, 2, 2], bins=2).tolist() == [0] * 8
    assert discretize([3, 3, 3, 3, 3, 9, 9, 9], bins=2).tolist() == [0] * 5 + [1] * 3


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=60),
    st.integers(min_value=2, max_value=12) | st.just(2**63 - 1),
)
@example([3, 1, 2, 2], 2**63 - 1)
def test_discretize_matches_oracle(values, bins):
    assert discretize(values, bins).tolist() == discretize_oracle(values, bins)


@settings(max_examples=100)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=80))
def test_distinct_values_give_balanced_bins(bins, n):
    codes = discretize(np.arange(n, dtype=float), bins)
    counts = np.bincount(codes, minlength=bins)
    used = counts[counts > 0]
    assert used.max() - used.min() <= 1
    # codes are non-decreasing along the sorted column
    assert all(a <= b for a, b in zip(codes, codes[1:]))


def test_discretize_equal_values_share_codes():
    codes = discretize([4.0, 9.0, 4.0, 1.0, 9.0, 4.0], bins=3)
    assert codes[0] == codes[2] == codes[5]
    assert codes[1] == codes[4]


def test_discretize_validation():
    with pytest.raises(ContractError, match="non-empty"):
        discretize([])
    with pytest.raises(ContractError, match="non-empty"):
        discretize([[1.0, 2.0]])
    with pytest.raises(ContractError, match="bins"):
        discretize([1.0, 2.0], bins=1)
    with pytest.raises(ContractError, match=f"bins must be in 2..{2**63 - 1}, got {2**63}"):
        discretize([1.0, 2.0], bins=2**63)
    with pytest.raises(ContractError, match="non-finite"):
        discretize([1.0, float("nan")])


@pytest.mark.parametrize("bins", [2.5, 3.0, True, float("nan")])
def test_bin_count_must_be_an_integer(bins):
    """bins=2.5 is refused, not binned as 2 and recorded as 2.5."""
    with pytest.raises(ContractError, match=f"bins must be an integer, got {bins!r}"):
        discretize([1.0, 2.0, 3.0, 4.0], bins)
    ds, _ = planted_dataset()
    with pytest.raises(ContractError, match=f"bins must be an integer, got {bins!r}"):
        fcbf_select(ds, bins=bins)
    assert discretize([1.0, 2.0, 3.0, 4.0], np.int64(2)).tolist() == [0, 0, 1, 1]


def test_a_numpy_bin_count_is_reported_as_an_int():
    """The report holds the count as a Python int, so it can be written as JSON."""
    ds, _ = planted_dataset()
    result = fcbf_select(ds, bins=np.int64(10))
    assert type(result.bins) is int
    assert json.loads(json.dumps(result.to_json_dict()))["params"]["bins"] == 10


# --------------------------------------------------- symmetrical uncertainty

def test_su_frozen_example():
    su = symmetrical_uncertainty([0, 0, 1, 1], [0, 0, 0, 1])
    assert su == pytest.approx(0.3437110184854509, abs=1e-12)


def test_su_identical_partitions_is_one():
    assert symmetrical_uncertainty([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0
    x = [0, 1, 2, 0, 1, 2]
    assert symmetrical_uncertainty(x, x) == 1.0


def test_su_independent_is_zero():
    assert symmetrical_uncertainty([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_su_constants_are_zero():
    assert symmetrical_uncertainty([3, 3, 3], [3, 3, 3]) == 0.0
    assert symmetrical_uncertainty([3, 3, 3], [0, 1, 2]) == 0.0


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=50
    )
)
def test_su_matches_oracle_and_is_symmetric(pairs):
    x = [a for a, _ in pairs]
    y = [b for _, b in pairs]
    su = symmetrical_uncertainty(x, y)
    assert su == pytest.approx(su_oracle(x, y), abs=1e-12)
    assert su == pytest.approx(symmetrical_uncertainty(y, x), abs=1e-12)
    assert 0.0 <= su <= 1.0


def test_su_validation():
    with pytest.raises(ContractError, match="equal-length"):
        symmetrical_uncertainty([1, 2], [1, 2, 3])
    with pytest.raises(ContractError, match="empty"):
        symmetrical_uncertainty([], [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_su_refuses_non_finite_values(bad):
    """NaNs are not one cell of the partition, nor are infinities codes."""
    with pytest.raises(ContractError, match="non-finite"):
        symmetrical_uncertainty(np.array([bad, 1.0, bad]), np.array([0, 1, 2]))
    with pytest.raises(ContractError, match="non-finite"):
        symmetrical_uncertainty(np.array([0, 1, 2]), np.array([1.0, bad, 2.0]))


# ------------------------------------------------------------------ selector

def make_dataset(columns, labels, alphabet=None):
    """Build a Dataset whose 16 columns come from ``columns`` (dict id->list)."""
    n = len(labels)
    vectors = []
    for i in range(n):
        values = [float(columns.get(fid, [0.0] * n)[i]) for fid in range(1, 17)]
        vectors.append(FeatureVector.from_values(values, label=labels[i]))
    if alphabet is None:
        alphabet = tuple(sorted(set(labels)))
    return Dataset(vectors, alphabet)


def planted_dataset(n=600, seed=11):
    """Three informative columns (3, 9, 12), a noisy copy of each, the rest
    noise or constants.  Returns (dataset, labels)."""
    rnd = random.Random(seed)
    labels = [("a", "b", "c")[i % 3] for i in range(n)]
    y = [("a", "b", "c").index(lbl) for lbl in labels]
    informative = {}
    for fid, scale in ((3, 4.0), (9, 6.0), (12, 5.0)):
        informative[fid] = [scale * yi + rnd.uniform(0, 2) for yi in y]
    columns = dict(informative)
    # feature right after each planted one = same signal + small jitter
    for src, dst in ((3, 4), (9, 10), (12, 13)):
        columns[dst] = [v + rnd.uniform(0, 0.2) for v in columns[src]]
    for fid in (1, 2, 5, 6, 7, 8, 11, 14):
        columns[fid] = [rnd.uniform(0, 100) for _ in range(n)]
    # 15 and 16 left constant (all zeros)
    return make_dataset(columns, labels), labels


def test_planted_recovery():
    ds, _ = planted_dataset()
    result = fcbf_select(ds, delta=0.1)
    assert set(result.selected) == {3, 9, 12}
    removed = {r.feature_id: r.peer_id for r in result.removed}
    # each duplicate is absorbed by its planted source
    assert removed[4] == 3
    assert removed[10] == 9
    assert removed[13] == 12
    # noise and constants fall below the relevance threshold
    for fid in (1, 2, 5, 6, 7, 8, 11, 14, 15, 16):
        assert removed[fid] is None
    assert len(result.selected) + len(result.removed) == 16
    for fid in (3, 9, 12):
        assert result.su_with_label[fid] >= 0.5
    for fid in (1, 2, 5, 6, 7, 8, 11, 14):
        assert result.su_with_label[fid] < 0.1


def fcbf_oracle(ds, delta, bins):
    """Independent re-run of the published algorithm from its definition."""
    labels = [v.label for v in ds.vectors]
    names = sorted(set(labels))
    y = [names.index(lbl) for lbl in labels]
    codes = {
        fid: discretize_oracle([v.values()[fid - 1] for v in ds.vectors], bins)
        for fid in range(1, 17)
    }
    su_label = {fid: su_oracle(codes[fid], y) for fid in range(1, 17)}
    ranked = sorted(su_label, key=lambda fid: (-su_label[fid], fid))
    selected = []
    removed = []
    for fid in ranked:
        if su_label[fid] < delta:
            removed.append((fid, None))
            continue
        peer = None
        for kept in selected:
            if su_oracle(codes[kept], codes[fid]) >= su_label[fid]:
                peer = kept
                break
        if peer is None:
            selected.append(fid)
        else:
            removed.append((fid, peer))
    return tuple(selected), tuple(removed)


@pytest.mark.parametrize("seed,delta", [(0, 0.0), (1, 0.0), (2, 0.05), (3, 0.2)])
def test_matches_independent_oracle_on_random_data(seed, delta):
    rnd = random.Random(seed)
    n = 240
    labels = [("x", "y")[rnd.random() < 0.5] for _ in range(n)]
    y = [("x", "y").index(lbl) for lbl in labels]
    columns = {}
    for fid in range(1, 17):
        kind = rnd.random()
        if kind < 0.3:
            columns[fid] = [2.0 * yi + rnd.gauss(0, 1) for yi in y]
        elif kind < 0.6:
            columns[fid] = [rnd.gauss(0, 1) for _ in range(n)]
        else:
            columns[fid] = [rnd.choice([1.0, 5.0]) for _ in range(n)]
    ds = make_dataset(columns, labels)
    result = fcbf_select(ds, delta=delta, bins=8)
    want_selected, want_removed = fcbf_oracle(ds, delta, bins=8)
    assert result.selected == want_selected
    assert tuple((r.feature_id, r.peer_id) for r in result.removed) == want_removed


def test_monotone_transform_leaves_selection_unchanged():
    ds, labels = planted_dataset(seed=13)
    base = fcbf_select(ds, delta=0.1)
    transformed_cols = {}
    for fid in range(1, 17):
        col = [v.values()[fid - 1] for v in ds.vectors]
        transformed_cols[fid] = [3.0 * x**3 + 7.0 for x in col]  # strictly increasing
    ds2 = make_dataset(transformed_cols, labels)
    after = fcbf_select(ds2, delta=0.1)
    assert after.selected == base.selected
    assert after.removed == base.removed
    for fid in range(1, 17):
        assert after.su_with_label[fid] == pytest.approx(
            base.su_with_label[fid], abs=1e-12
        )


def test_high_delta_removes_everything():
    ds, _ = planted_dataset()
    result = fcbf_select(ds, delta=2.0)
    assert result.selected == ()
    assert all(r.peer_id is None for r in result.removed)


def test_constant_features_with_zero_delta_are_absorbed():
    # SU(kept, constant) = 0 >= su_label[constant] = 0, so the first kept
    # feature claims every constant column at delta=0
    ds, _ = planted_dataset()
    result = fcbf_select(ds, delta=0.0)
    removed = {r.feature_id: r.peer_id for r in result.removed}
    first_kept = result.selected[0]
    assert removed[15] == first_kept
    assert removed[16] == first_kept


def test_selection_determinism():
    ds, _ = planted_dataset(seed=21)
    first = fcbf_select(ds, delta=0.05, bins=6)
    second = fcbf_select(ds, delta=0.05, bins=6)
    assert first == second


def test_result_json_shape():
    ds, _ = planted_dataset()
    result = fcbf_select(ds, delta=0.1, bins=DEFAULT_BINS)
    doc = result.to_json_dict()
    assert doc["params"] == {"delta": 0.1, "bins": DEFAULT_BINS}
    assert doc["selected"] == list(result.selected)
    assert [entry["feature_id"] for entry in doc["su"]] == list(range(1, 17))
    assert all(entry["name"] for entry in doc["su"])
    assert {r["feature_id"] for r in doc["removed"]} | set(doc["selected"]) == set(
        range(1, 17)
    )


def test_selection_validation():
    values = [float(i) for i in range(16)]
    labeled = FeatureVector.from_values(values, label="a")
    with pytest.raises(ContractError, match="non-empty"):
        fcbf_select(Dataset([], ()))
    with pytest.raises(ContractError, match="labeled"):
        fcbf_select(Dataset.from_vectors([labeled, FeatureVector.from_values(values)]))
    with pytest.raises(DegenerateDatasetError, match="two classes"):
        fcbf_select(Dataset.from_vectors([labeled, labeled]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_selection_names_the_feature_with_a_non_finite_value(bad):
    ds, _ = planted_dataset()
    data = ds.data.copy()
    data[5, 6] = bad
    broken = Dataset.from_arrays(data, ds.codes, ds.alphabet)
    with pytest.raises(ContractError,
                       match=r"^feature 7 \(pps\): column contains non-finite values$"):
        fcbf_select(broken)


def test_removed_feature_is_frozen():
    entry = RemovedFeature(4, 3)
    with pytest.raises(AttributeError):
        entry.peer_id = 7
