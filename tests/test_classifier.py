"""Gaussian naive Bayes with conjugate (normal-inverse-gamma) updating."""

import json
import math
import random
import statistics

import numpy as np
import pytest

from flowident.classifier import (
    MODEL_VERSION,
    VARIANCE_FLOOR,
    ClassifierModel,
    InsufficientDataError,
    ModelFormatError,
    NIGPrior,
    UnknownClassError,
    _log_scores,
    load_model,
    model_to_json_dict,
    nig_fold,
    plugin_variance,
    predict,
    save_model,
    train,
    update,
)
from flowident.errors import ContractError
from flowident.features import Dataset, FeatureVector
from helpers import normal_pdf

PRIOR = NIGPrior()
ARRAYS = ("mu", "kappa", "alpha", "beta", "plugin_means", "plugin_vars")


def nig_state(mu, kappa, alpha, beta, d=1):
    """(mu, kappa, alpha, beta) arrays over d features, each filled with one value."""
    return tuple(np.full(d, value) for value in (mu, kappa, alpha, beta))


def make_ds(columns, labels, alphabet=None):
    """Dataset whose 16 columns come from ``columns`` (dict fid -> list)."""
    n = len(labels)
    vectors = []
    for i in range(n):
        values = [float(columns.get(fid, [0.0] * n)[i]) for fid in range(1, 17)]
        vectors.append(FeatureVector.from_values(values, label=labels[i]))
    if alphabet is None:
        alphabet = tuple(sorted({lbl for lbl in labels if lbl is not None}))
    return Dataset(vectors, alphabet)


def gaussian_ds(seed, classes, rows_per_class, means, scale=1.0):
    """Random 16-feature dataset; ``means`` maps label -> per-class offset."""
    rnd = random.Random(seed)
    vectors = []
    for label in classes:
        for _ in range(rows_per_class):
            values = [rnd.gauss(means[label], scale) for _ in range(16)]
            vectors.append(FeatureVector.from_values(values, label=label))
    return Dataset(vectors, tuple(classes))


# ----------------------------------------------------------------- NIG state

def test_prior_validation():
    NIGPrior(0.0, 1e-3, 1.001, 1e-3)
    for bad in (
        dict(kappa=0.0), dict(kappa=-1.0),
        dict(alpha=0.0), dict(beta=-2.0),
    ):
        with pytest.raises(ContractError, match="positive"):
            NIGPrior(**bad)


def test_fold_frozen_example():
    prior = nig_state(PRIOR.mu, PRIOR.kappa, PRIOR.alpha, PRIOR.beta)
    mu, kappa, alpha, beta = nig_fold(prior, 2, 3.0, 2.0)
    # frozen from a by-hand evaluation of the four update formulas
    assert kappa.tolist() == [2.001]
    assert mu.tolist() == [2.9985007496251876]
    assert alpha.tolist() == [2.001]
    assert beta.tolist() == [1.0054977511244376]
    assert plugin_variance(alpha, beta).tolist() == [1.004493257866571]


def test_fold_limits():
    # an overwhelming prior barely moves; a negligible one lands on the data
    heavy_mu = nig_fold(nig_state(5.0, 1e12, 2.0, 1.0), 10, -3.0, 4.0)[0]
    assert heavy_mu.item() == pytest.approx(5.0, abs=1e-9)
    light_mu = nig_fold(nig_state(5.0, 1e-12, 2.0, 1.0), 10, -3.0, 4.0)[0]
    assert light_mu.item() == pytest.approx(-3.0, abs=1e-9)


def test_plugin_variance_floor():
    assert plugin_variance([0.5], [1.0]).tolist() == [VARIANCE_FLOOR]
    assert plugin_variance([2.0], [1e-15]).tolist() == [VARIANCE_FLOOR]
    assert plugin_variance([3.0], [8.0]).tolist() == [4.0]


# -------------------------------------------------------------------- train

def test_train_two_point_plugins():
    ds = make_ds({7: [2.0, 4.0, 10.0, 20.0]}, ["a", "a", "b", "b"])
    model = train(ds, feature_ids=[7])
    assert model.alphabet == ("a", "b")
    assert model.feature_ids == (7,)
    assert model.classes == (("a", 2), ("b", 2))
    assert model.classes[0].label == "a" and model.classes[0].n == 2
    assert model.plugin_means.tolist() == [[3.0], [15.0]]
    assert model.plugin_vars.tolist() == [[2.0], [50.0]]  # n-1 variances of [2, 4], [10, 20]
    assert model.total_flows == 4


def test_class_priors_follow_counts():
    """Two classes with the same plug-in mean and variance score apart by the
    log of their count ratio, wherever the row lies."""
    ds = make_ds({2: [0, 1, 2] + [0, 2, 0, 2, 0, 2, 1]}, ["a"] * 3 + ["b"] * 7)
    model = train(ds, feature_ids=[2])
    assert model.plugin_means.tolist() == [[1.0], [1.0]]
    assert model.plugin_vars.tolist() == [[1.0], [1.0]]
    for x in (-3.0, 1.0, 40.0):
        a, b = log_scores(model, vector_at({2: x}))
        assert b - a == pytest.approx(math.log(7 / 3))


def test_train_matches_statistics_oracle():
    rnd = random.Random(33)
    labels = ["x"] * 40 + ["y"] * 25
    columns = {fid: [rnd.gauss(fid, 3.0) for _ in labels] for fid in range(1, 17)}
    ds = make_ds(columns, labels)
    model = train(ds)
    for c, label in enumerate(model.alphabet):
        rows = [i for i, lbl in enumerate(labels) if lbl == label]
        for j, fid in enumerate(model.feature_ids):
            col = [columns[fid][i] for i in rows]
            assert model.plugin_means[c, j] == pytest.approx(statistics.fmean(col), rel=1e-12)
            assert model.plugin_vars[c, j] == pytest.approx(statistics.variance(col), rel=1e-12)


def test_train_constant_feature_hits_floor():
    ds = make_ds({5: [7.0, 7.0, 7.0, 7.0]}, ["a", "a", "b", "b"])
    model = train(ds, feature_ids=[5])
    assert model.plugin_vars[0].tolist() == [VARIANCE_FLOOR]


def test_train_validation():
    ds = make_ds({1: [1.0, 2.0, 3.0]}, ["a", "a", "b"])
    with pytest.raises(InsufficientDataError, match="class 'b' has 1 flows"):
        train(ds)
    with pytest.raises(ContractError, match="at least one feature"):
        train(ds, feature_ids=[])
    with pytest.raises(ContractError, match="duplicate feature ids"):
        train(ds, feature_ids=[3, 3])
    with pytest.raises(ContractError, match="feature id 17"):
        train(ds, feature_ids=[17])
    unlabeled = Dataset(
        [FeatureVector.from_values([0.0] * 16)], ()
    )
    with pytest.raises(ContractError, match="fully labeled"):
        train(unlabeled)
    with pytest.raises(ContractError, match="at least one class"):
        train(Dataset([], ()))


def test_train_uses_declared_alphabet_order():
    ds = make_ds({1: [1.0, 2.0, 3.0, 4.0]}, ["b", "b", "a", "a"],
                 alphabet=("b", "a"))
    model = train(ds, feature_ids=[1])
    assert model.alphabet == ("b", "a")
    assert [s.label for s in model.classes] == ["b", "a"]


# ------------------------------------------------------------------- update

def split_dataset(ds, first):
    head = Dataset(ds.vectors[:first], ds.alphabet)
    tail = Dataset(ds.vectors[first:], ds.alphabet)
    return head, tail


@pytest.mark.parametrize("seed", range(10))
def test_sequential_equals_pooled(seed):
    rnd = random.Random(seed)
    classes = ("a", "b", "c")
    means = {"a": 0.0, "b": 4.0, "c": -3.0}
    base = gaussian_ds(seed, classes, 8, means)
    extra = gaussian_ds(seed + 1000, classes, 6, means)
    cut = rnd.randint(1, len(extra.vectors) - 1)
    first, second = split_dataset(extra, cut)

    model = train(base)
    pooled = update(model, extra)
    stepped = update(update(model, first), second)

    assert stepped.classes == pooled.classes
    # (mu, kappa, alpha, beta) and the plug-ins of each (class, feature)
    for name in ("mu", "kappa", "alpha", "beta", "plugin_means", "plugin_vars"):
        for a, b in zip(getattr(stepped, name).ravel(), getattr(pooled, name).ravel()):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_update_empty_batch_returns_model_itself():
    model = train(gaussian_ds(1, ("a", "b"), 4, {"a": 0.0, "b": 5.0}))
    assert update(model, Dataset([], model.alphabet)) is model


def test_update_preserves_untouched_class_rows_by_value():
    model = train(gaussian_ds(2, ("a", "b"), 4, {"a": 0.0, "b": 5.0}))
    saved = {name: getattr(model, name).copy() for name in ARRAYS}
    batch = make_ds({1: [0.4]}, ["a"], alphabet=("a", "b"))
    updated = update(model, batch)
    assert updated is not model
    for name in ARRAYS:
        assert not np.array_equal(getattr(updated, name)[0], saved[name][0])  # "a" advanced
        assert getattr(updated, name)[1].tolist() == saved[name][1].tolist()  # "b" untouched
        assert np.array_equal(getattr(model, name), saved[name])  # input not mutated
    assert updated.n == (5, 4)
    assert model.n == (4, 4)


def test_model_arrays_are_read_only_views_of_one_block():
    block = np.arange(1, 13).reshape(6, 1, 2)
    saved = block.copy()
    model = ClassifierModel(("a",), (1, 2), (3,), block)
    assert np.array_equal(block, saved) and block.flags.writeable
    block[0, 0, 0] = 5  # the model holds a copy
    assert model.mu.tolist() == [[1.0, 2.0]]
    assert model.block.shape == (6, 1, 2) and model.block.dtype == np.float64
    assert not model.block.flags.writeable
    # Disjoint slices of one array: np.shares_memory(mu, plugin_vars) is False.
    assert model.mu.base is model.plugin_vars.base is model.nig.base is model.block
    for name, values in [*zip(ARRAYS, model.block), ("nig", model.block[:4])]:
        plane = getattr(model, name)
        assert np.shares_memory(plane, model.block)
        assert np.array_equal(plane, values)
        assert not plane.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            plane[0, 0] = 1.0


def test_update_folds_into_a_new_block_and_leaves_the_input_block():
    model = train(gaussian_ds(2, ("a", "b"), 4, {"a": 0.0, "b": 5.0}))
    saved = model.block.copy()
    updated = update(model, make_ds({1: [0.4, 0.9]}, ["b", "b"], alphabet=("a", "b")))
    assert np.array_equal(model.block, saved)
    assert not np.shares_memory(updated.block, model.block)
    assert np.array_equal(updated.block[:, 0], saved[:, 0])
    assert not np.array_equal(updated.block[:, 1], saved[:, 1])
    assert not model.block.flags.writeable
    assert all(getattr(updated, name).base is updated.block for name in (*ARRAYS, "nig"))
    assert not updated.block.flags.writeable
    assert updated == ClassifierModel(model.alphabet, model.feature_ids, updated.n, updated.block)


def test_update_plugins_are_posterior_derived():
    model = train(gaussian_ds(3, ("a", "b"), 5, {"a": 0.0, "b": 5.0}))
    batch = gaussian_ds(4, ("a",), 3, {"a": 1.0})
    batch = Dataset(batch.vectors, ("a", "b"))
    updated = update(model, batch)
    assert updated.plugin_means[0].tolist() == updated.mu[0].tolist()
    assert updated.plugin_vars[0].tolist() == plugin_variance(
        updated.alpha[0], updated.beta[0]).tolist()
    assert updated.plugin_vars[1].tolist() == model.plugin_vars[1].tolist()  # "b": sample variance


def test_update_rejects_unknown_and_unlabeled():
    model = train(gaussian_ds(5, ("a", "b"), 4, {"a": 0.0, "b": 5.0}))
    with pytest.raises(UnknownClassError, match="'ftp'"):
        update(model, Dataset.from_vectors(
            [FeatureVector.from_values([0.0] * 16, label="ftp")]
        ))
    with pytest.raises(ContractError, match="fully labeled"):
        update(model, Dataset([FeatureVector.from_values([0.0] * 16)], model.alphabet))


def test_single_row_update_is_allowed():
    model = train(gaussian_ds(6, ("a", "b"), 4, {"a": 0.0, "b": 5.0}))
    one = make_ds({3: [0.2]}, ["a"], alphabet=("a", "b"))
    updated = update(model, one)
    assert updated.classes[0].n == 5


def test_counts_beyond_int64_stay_exact(tmp_path):
    model = train(gaussian_ds(16, ("a", "b"), 4, {"a": 0.0, "b": 5.0}), feature_ids=[1, 2])
    doc = model_to_json_dict(model)
    doc["classes"]["b"]["n"] = 2**70
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_model(path)
    assert loaded.n == (4, 2**70)
    updated = update(loaded, make_ds({1: [0.3, 0.1]}, ["b", "b"], alphabet=("a", "b")))
    assert updated.n == (4, 2**70 + 2)
    assert model_to_json_dict(updated)["classes"]["b"]["n"] == 2**70 + 2
    assert predict(updated, make_ds({2: [5.0]}, ["a"])) == ["b"]


def test_model_arrays_must_match_classes_and_features():
    block = np.ones((6, 2, 2))  # two classes of two features
    for alphabet, ids, counts, shape in [(("a",), (1, 2), (3,), r"\(6, 1, 2\)"),
                                         (("a", "b"), (1, 2, 3), (3, 3), r"\(6, 2, 3\)"),
                                         (("a", "b"), (1, 2), (3,), r"\(6, 2, 2\)")]:
        with pytest.raises(ContractError, match=f"need one count per class and a block of shape {shape}"):
            ClassifierModel(alphabet, ids, counts, block)
    with pytest.raises(ContractError, match=r"block of shape \(6, 2, 2\)"):
        ClassifierModel(("a", "b"), (1, 2), (3, 3), block[:5])
    for k, name in enumerate(ARRAYS):
        for bad in (float("inf"), float("-inf"), float("nan")):
            cells = block.copy()
            cells[k, 1, 0] = bad
            message = rf"class 'b' feature 7: {name} is not finite \({bad}\)"
            with pytest.raises(ContractError, match=message):
                ClassifierModel(("a", "b"), (7, 3), (3, 3), cells)


# ------------------------------------------------------------------ scoring

def hand_model():
    dummy = np.stack([nig_state(0.0, 1.0, 2.0, 1.0, d=2)] * 2, axis=1)
    plugin_means, plugin_vars = [(1.0, 10.0), (2.0, 8.0)], [(1.0, 4.0), (0.5, 1.0)]
    return ClassifierModel(("A", "B"), (7, 16), (3, 2), (*dummy, plugin_means, plugin_vars))


def vector_at(fid_values):
    values = [0.0] * 16
    for fid, v in fid_values.items():
        values[fid - 1] = v
    return Dataset([FeatureVector.from_values(values)], ())


def log_scores(model, one_row):
    return _log_scores(model, one_row.matrix(model.feature_ids))[0].tolist()


def test_score_frozen_example():
    model, x = hand_model(), vector_at({7: 1.5, 16: 9.0})
    scores = log_scores(model, x)
    # frozen from an arithmetic recomputation of log n - sum/2 terms
    assert scores[0] == pytest.approx(0.1554651081081645, abs=1e-12)
    assert scores[1] == pytest.approx(0.2897207708399179, abs=1e-12)
    assert predict(model, x) == ["B"]


def test_score_difference_equals_density_ratio():
    model = hand_model()
    x = vector_at({7: 1.21, 16: 8.4})
    scores = log_scores(model, x)
    (ma, mb), (va, vb) = model.plugin_means, model.plugin_vars
    ratio = (
        (3 * normal_pdf(1.21, ma[0], va[0]) * normal_pdf(8.4, ma[1], va[1]))
        / (2 * normal_pdf(1.21, mb[0], vb[0]) * normal_pdf(8.4, mb[1], vb[1]))
    )
    assert math.exp(scores[0] - scores[1]) == pytest.approx(
        ratio, rel=1e-9
    )


def test_tie_goes_to_first_class():
    dummy = np.stack([nig_state(0.0, 1.0, 2.0, 1.0)] * 2, axis=1)
    model = ClassifierModel(("earlier", "later"), (1,), (5, 5),
                            (*dummy, [(0.0,), (0.0,)], [(1.0,), (1.0,)]))
    x = vector_at({1: 0.3})
    scores = log_scores(model, x)
    assert scores[0] == scores[1]
    assert predict(model, x) == ["earlier"]


def test_score_rejects_non_finite_input():
    with pytest.raises(ContractError, match="non-finite"):
        predict(hand_model(), vector_at({7: float("nan")}))
    with pytest.raises(ContractError, match="non-finite"):
        predict(hand_model(), vector_at({16: float("inf")}))


def test_self_consistency_on_separated_classes():
    ds = gaussian_ds(7, ("a", "b", "c"), 60, {"a": 0.0, "b": 10.0, "c": 20.0})
    model = train(ds)
    got = predict(model, ds)
    truth = ds.labels()
    agree = sum(g == t for g, t in zip(got, truth))
    assert agree / len(truth) >= 0.99


def test_update_moves_decision_boundary():
    model = train(make_ds({1: [0.0, 0.2, 5.0, 5.2]}, ["a", "a", "b", "b"]),
                  feature_ids=[1])
    probe = vector_at({1: 8.0})
    assert predict(model, probe) == ["b"]
    # pull class "a" to the probe's neighbourhood with a big labeled batch
    shift = make_ds({1: [7.8 + 0.01 * i for i in range(50)]}, ["a"] * 50,
                    alphabet=("a", "b"))
    moved = update(model, shift)
    assert predict(moved, probe) == ["a"]


# -------------------------------------------------------------- persistence

def test_save_load_roundtrip(tmp_path):
    ds = gaussian_ds(8, ("a", "b"), 10, {"a": 0.0, "b": 6.0})
    model = train(ds, feature_ids=[7, 8, 16])
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert predict(loaded, ds) == predict(model, ds)


def test_model_json_shape():
    model = train(gaussian_ds(9, ("a", "b"), 4, {"a": 0.0, "b": 6.0}),
                  feature_ids=[2, 9])
    doc = model_to_json_dict(model)
    assert list(doc) == ["version", "alphabet", "selected_features", "classes"]  # no save time
    assert doc["version"] == MODEL_VERSION == "nfi-model/1"
    assert doc["alphabet"] == ["a", "b"]
    assert doc["selected_features"] == [2, 9]
    entry = doc["classes"]["a"]
    assert set(entry["posteriors"]) == {"2", "9"}
    assert set(entry["posteriors"]["2"]) == {"mu", "kappa", "alpha", "beta"}
    assert json.dumps(doc)  # serialisable as-is


def test_a_model_file_with_a_save_time_loads_to_an_equal_model(tmp_path):
    """Files written while models carried a ``metadata.saved_at`` stamp still load;
    the stamp is ignored and not written back."""
    model = train(gaussian_ds(9, ("a", "b"), 4, {"a": 0.0, "b": 6.0}), feature_ids=[2, 9])
    doc = model_to_json_dict(model)
    stamped = {"version": doc["version"], "metadata": {"saved_at": "2026-01-01T00:00:00+00:00"},
               **doc}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(stamped, indent=2), encoding="utf-8")
    loaded = load_model(path)
    assert loaded == model
    assert model_to_json_dict(loaded) == doc


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path)


def test_load_rejects_other_versions(tmp_path):
    model = train(gaussian_ds(10, ("a", "b"), 4, {"a": 0.0, "b": 6.0}))
    doc = model_to_json_dict(model)
    doc["version"] = "nfi-model/2"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="'nfi-model/2' is not supported"):
        load_model(path)


def test_load_rejects_malformed_document(tmp_path):
    model = train(gaussian_ds(11, ("a", "b"), 4, {"a": 0.0, "b": 6.0}),
                  feature_ids=[1, 2])
    doc = model_to_json_dict(model)
    del doc["classes"]["a"]["posteriors"]["1"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="malformed model document"):
        load_model(path)


def test_load_rebuilds_plugins_when_stripped(tmp_path):
    model = train(gaussian_ds(12, ("a", "b"), 6, {"a": 0.0, "b": 6.0}),
                  feature_ids=[4, 11])
    doc = model_to_json_dict(model)
    for entry in doc["classes"].values():
        del entry["plugin_means"]
        del entry["plugin_vars"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_model(path)
    assert loaded.plugin_means.tolist() == loaded.mu.tolist()
    assert loaded.plugin_vars.tolist() == plugin_variance(loaded.alpha, loaded.beta).tolist()


# ------------------------------------------------------------ load checks

def saved_doc(tmp_path):
    model = train(gaussian_ds(13, ("a", "b"), 5, {"a": 0.0, "b": 6.0}), feature_ids=[3, 8])
    return model_to_json_dict(model)


def load_doc(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_model(path)


def test_load_rejects_a_document_that_is_not_an_object(tmp_path):
    with pytest.raises(ModelFormatError, match="not a JSON object"):
        load_doc(tmp_path, [1, 2])


def test_load_rejects_a_model_without_classes(tmp_path):
    doc = saved_doc(tmp_path)
    doc["alphabet"], doc["classes"] = [], {}
    with pytest.raises(ModelFormatError, match="no classes"):
        load_doc(tmp_path, doc)


@pytest.mark.parametrize("alphabet, classes, message", [
    ([0], [], r"alphabet must be a list of strings, got \[0\]"),
    ("ab", {}, "alphabet must be a list of strings, got 'ab'"),
    (None, {}, "alphabet must be a list of strings, got None"),
    ([1, "b"], "entries", r"alphabet must be a list of strings, got \[1, 'b'\]"),
    (["a", "b"], "entries", "classes must be an object, got list"),
    (["a", "b"], None, "classes must be an object, got NoneType"),
])
def test_load_rejects_a_malformed_alphabet_or_classes(tmp_path, alphabet, classes, message):
    doc = saved_doc(tmp_path)
    if classes == "entries":
        classes = list(doc["classes"].values())
    doc["alphabet"], doc["classes"] = alphabet, classes
    with pytest.raises(ModelFormatError, match=message):
        load_doc(tmp_path, doc)


def test_load_rejects_out_of_range_feature_ids(tmp_path):
    doc = saved_doc(tmp_path)
    doc["selected_features"] = [3, 17]
    with pytest.raises(ModelFormatError, match="feature id 17"):
        load_doc(tmp_path, doc)


@pytest.mark.parametrize("n", [-3, 0, 2.5, True, "7", None, 10**400])
def test_load_rejects_a_count_that_is_not_a_positive_integer(tmp_path, n):
    doc = saved_doc(tmp_path)
    doc["classes"]["b"]["n"] = n
    with pytest.raises(ModelFormatError, match=r"class 'b': n must be a positive integer"):
        load_doc(tmp_path, doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "1.0", None])
@pytest.mark.parametrize("where", ["mu", "plugin_means"])
def test_load_rejects_non_finite_means(tmp_path, where, value):
    doc = saved_doc(tmp_path)
    entry = doc["classes"]["a"]
    if where == "mu":
        entry["posteriors"]["8"]["mu"] = value
    else:
        entry["plugin_means"]["8"] = value
    name = "mu" if where == "mu" else "plugin mean"
    with pytest.raises(ModelFormatError, match=rf"class 'a' feature 8: {name} must be finite"):
        load_doc(tmp_path, doc)


@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan"), 10**400])
@pytest.mark.parametrize("name", ["kappa", "alpha", "beta"])
def test_load_rejects_non_positive_posterior_scales(tmp_path, name, value):
    doc = saved_doc(tmp_path)
    doc["classes"]["b"]["posteriors"]["3"][name] = value
    with pytest.raises(ModelFormatError, match=rf"class 'b' feature 3: {name} must be"):
        load_doc(tmp_path, doc)


@pytest.mark.parametrize("value", [VARIANCE_FLOOR / 2, 0.0, -4.0, float("inf")])
def test_load_rejects_plugin_variances_below_the_floor(tmp_path, value):
    doc = saved_doc(tmp_path)
    doc["classes"]["a"]["plugin_vars"]["3"] = value
    with pytest.raises(ModelFormatError, match=r"class 'a' feature 3: plugin variance must be"):
        load_doc(tmp_path, doc)


def test_load_accepts_a_variance_at_the_floor(tmp_path):
    doc = saved_doc(tmp_path)
    doc["classes"]["a"]["plugin_vars"]["3"] = VARIANCE_FLOOR
    assert load_doc(tmp_path, doc).plugin_vars[0, 0] == VARIANCE_FLOOR


def test_stripped_plugins_of_an_updated_model_load_as_saved(tmp_path):
    """Updated plug-ins are posterior-derived, so without the plug-in block the
    document loads to the same model: the posterior mean, and beta / (alpha - 1)
    floored, with the floor where alpha <= 1."""
    model = train(gaussian_ds(14, ("a", "b"), 6, {"a": 0.0, "b": 6.0}), feature_ids=[2, 5, 13])
    updated = update(model, gaussian_ds(15, ("a", "b"), 3, {"a": 0.5, "b": 5.0}))
    doc = model_to_json_dict(updated)
    for entry in doc["classes"].values():
        del entry["plugin_means"], entry["plugin_vars"]
    assert load_doc(tmp_path, doc) == updated
    doc["classes"]["b"]["posteriors"]["5"]["alpha"] = 0.5
    loaded = load_doc(tmp_path, doc)
    for c, label in enumerate(("a", "b")):
        posts = [doc["classes"][label]["posteriors"][key] for key in ("2", "5", "13")]
        assert loaded.plugin_means[c].tolist() == [p["mu"] for p in posts]
        assert loaded.plugin_vars[c].tolist() == [
            max(p["beta"] / (p["alpha"] - 1.0), VARIANCE_FLOOR) if p["alpha"] > 1 else VARIANCE_FLOOR
            for p in posts
        ]
    assert loaded.plugin_vars[1, 1] == VARIANCE_FLOOR
