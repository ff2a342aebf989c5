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
    ClassScores,
    ClassState,
    FeaturePosterior,
    InsufficientDataError,
    ModelFormatError,
    NIGPrior,
    UnknownClassError,
    load_model,
    model_to_json_dict,
    predict,
    save_model,
    score,
    train,
    update,
)
from flowident.errors import ContractError
from flowident.features import Dataset, FeatureVector
from helpers import normal_pdf

PRIOR = NIGPrior()


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
    post = FeaturePosterior(PRIOR.mu, PRIOR.kappa, PRIOR.alpha, PRIOR.beta)
    folded = post.fold(2, 3.0, 2.0)
    # frozen from a by-hand evaluation of the four update formulas
    assert folded.kappa == 2.001
    assert folded.mu == 2.9985007496251876
    assert folded.alpha == 2.001
    assert folded.beta == 1.0054977511244376
    assert folded.plugin_variance() == 1.004493257866571


def test_fold_empty_batch_is_identity():
    post = FeaturePosterior(1.5, 2.0, 3.0, 4.0)
    assert post.fold(0, 99.0, 99.0) is post


def test_fold_limits():
    # an overwhelming prior barely moves; a negligible one lands on the data
    heavy = FeaturePosterior(5.0, 1e12, 2.0, 1.0).fold(10, -3.0, 4.0)
    assert heavy.mu == pytest.approx(5.0, abs=1e-9)
    light = FeaturePosterior(5.0, 1e-12, 2.0, 1.0).fold(10, -3.0, 4.0)
    assert light.mu == pytest.approx(-3.0, abs=1e-9)


def test_plugin_variance_floor():
    assert FeaturePosterior(0.0, 1.0, 0.5, 1.0).plugin_variance() == VARIANCE_FLOOR
    assert FeaturePosterior(0.0, 1.0, 2.0, 1e-15).plugin_variance() == VARIANCE_FLOOR
    assert FeaturePosterior(0.0, 1.0, 3.0, 8.0).plugin_variance() == 4.0


# -------------------------------------------------------------------- train

def test_train_two_point_plugins():
    ds = make_ds({7: [2.0, 4.0, 10.0, 20.0]}, ["a", "a", "b", "b"])
    model = train(ds, feature_ids=[7])
    a, b = model.classes
    assert model.alphabet == ("a", "b")
    assert model.feature_ids == (7,)
    assert a.label == "a" and a.n == 2
    assert a.plugin_means == (3.0,)
    assert a.plugin_vars == (2.0,)      # n-1 variance of [2, 4]
    assert b.plugin_means == (15.0,)
    assert b.plugin_vars == (50.0,)
    assert model.total_flows == 4
    assert model.class_prior("a") == 0.5


def test_class_priors_follow_counts():
    ds = make_ds({1: [0.0] * 10, 2: list(range(10))},
                 ["a"] * 3 + ["b"] * 7)
    model = train(ds, feature_ids=[2])
    assert model.class_prior("a") == pytest.approx(0.3)
    assert model.class_prior("b") == pytest.approx(0.7)
    with pytest.raises(UnknownClassError, match="'c'"):
        model.class_prior("c")


def test_train_matches_statistics_oracle():
    rnd = random.Random(33)
    labels = ["x"] * 40 + ["y"] * 25
    columns = {fid: [rnd.gauss(fid, 3.0) for _ in labels] for fid in range(1, 17)}
    ds = make_ds(columns, labels)
    model = train(ds)
    for state in model.classes:
        rows = [i for i, lbl in enumerate(labels) if lbl == state.label]
        for j, fid in enumerate(model.feature_ids):
            col = [columns[fid][i] for i in rows]
            assert state.plugin_means[j] == pytest.approx(statistics.fmean(col), rel=1e-12)
            assert state.plugin_vars[j] == pytest.approx(statistics.variance(col), rel=1e-12)


def test_train_constant_feature_hits_floor():
    ds = make_ds({5: [7.0, 7.0, 7.0, 7.0]}, ["a", "a", "b", "b"])
    model = train(ds, feature_ids=[5])
    assert model.classes[0].plugin_vars == (VARIANCE_FLOOR,)


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

    for got, want in zip(stepped.classes, pooled.classes):
        assert got.label == want.label and got.n == want.n
        for g, w in zip(got.posteriors, want.posteriors):
            for a, b in zip(
                (g.mu, g.kappa, g.alpha, g.beta), (w.mu, w.kappa, w.alpha, w.beta)
            ):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
        for a, b in zip(
            got.plugin_means + got.plugin_vars, want.plugin_means + want.plugin_vars
        ):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_update_empty_batch_returns_model_itself():
    model = train(gaussian_ds(1, ("a", "b"), 4, {"a": 0.0, "b": 5.0}))
    assert update(model, Dataset([], model.alphabet)) is model


def test_update_preserves_untouched_class_state_by_identity():
    model = train(gaussian_ds(2, ("a", "b"), 4, {"a": 0.0, "b": 5.0}))
    batch = make_ds({1: [0.4]}, ["a"], alphabet=("a", "b"))
    updated = update(model, batch)
    assert updated is not model
    assert updated.classes[0] is not model.classes[0]   # "a" advanced
    assert updated.classes[1] is model.classes[1]       # "b" untouched
    assert updated.classes[0].n == model.classes[0].n + 1
    assert model.classes[0].n == 4                      # input not mutated


def test_update_plugins_are_posterior_derived():
    model = train(gaussian_ds(3, ("a", "b"), 5, {"a": 0.0, "b": 5.0}))
    batch = gaussian_ds(4, ("a",), 3, {"a": 1.0})
    batch = Dataset(batch.vectors, ("a", "b"))
    updated = update(model, batch)
    state = updated.classes[0]
    assert state.plugin_means == tuple(p.mu for p in state.posteriors)
    assert state.plugin_vars == tuple(p.plugin_variance() for p in state.posteriors)


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


# ------------------------------------------------------------------ scoring

def hand_model():
    dummy = FeaturePosterior(0.0, 1.0, 2.0, 1.0)
    return ClassifierModel(
        alphabet=("A", "B"),
        feature_ids=(7, 16),
        classes=(
            ClassState("A", 3, (dummy, dummy), (1.0, 10.0), (1.0, 4.0)),
            ClassState("B", 2, (dummy, dummy), (2.0, 8.0), (0.5, 1.0)),
        ),
    )


def vector_at(fid_values):
    values = [0.0] * 16
    for fid, v in fid_values.items():
        values[fid - 1] = v
    return FeatureVector.from_values(values)


def test_score_frozen_example():
    scores = score(hand_model(), vector_at({7: 1.5, 16: 9.0}))
    assert scores.alphabet == ("A", "B")
    # frozen from an arithmetic recomputation of log n - sum/2 terms
    assert scores.log_scores[0] == pytest.approx(0.1554651081081645, abs=1e-12)
    assert scores.log_scores[1] == pytest.approx(0.2897207708399179, abs=1e-12)
    assert scores.predicted == "B"


def test_score_difference_equals_density_ratio():
    model = hand_model()
    x = vector_at({7: 1.21, 16: 8.4})
    scores = score(model, x)
    a, b = model.classes
    ratio = (
        (a.n * normal_pdf(1.21, a.plugin_means[0], a.plugin_vars[0])
         * normal_pdf(8.4, a.plugin_means[1], a.plugin_vars[1]))
        / (b.n * normal_pdf(1.21, b.plugin_means[0], b.plugin_vars[0])
           * normal_pdf(8.4, b.plugin_means[1], b.plugin_vars[1]))
    )
    assert math.exp(scores.log_scores[0] - scores.log_scores[1]) == pytest.approx(
        ratio, rel=1e-9
    )


def test_tie_goes_to_first_class():
    dummy = FeaturePosterior(0.0, 1.0, 2.0, 1.0)
    same = ClassState("later", 5, (dummy,), (0.0,), (1.0,))
    model = ClassifierModel(
        alphabet=("earlier", "later"),
        feature_ids=(1,),
        classes=(
            ClassState("earlier", 5, (dummy,), (0.0,), (1.0,)),
            same,
        ),
    )
    scores = score(model, vector_at({1: 0.3}))
    assert scores.log_scores[0] == scores.log_scores[1]
    assert scores.predicted == "earlier"


def test_score_rejects_non_finite_input():
    with pytest.raises(ContractError, match="non-finite"):
        score(hand_model(), vector_at({7: float("nan")}))
    with pytest.raises(ContractError, match="non-finite"):
        score(hand_model(), vector_at({16: float("inf")}))


def test_class_scores_predicted_uses_argmax():
    scores = ClassScores(("a", "b", "c"), (-5.0, -1.0, -3.0))
    assert scores.predicted == "b"


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
    assert score(model, probe).predicted == "b"
    # pull class "a" to the probe's neighbourhood with a big labeled batch
    shift = make_ds({1: [7.8 + 0.01 * i for i in range(50)]}, ["a"] * 50,
                    alphabet=("a", "b"))
    moved = update(model, shift)
    assert score(moved, probe).predicted == "a"


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
    doc = model_to_json_dict(model, saved_at="2026-08-18T00:00:00+00:00")
    assert doc["version"] == MODEL_VERSION == "nfi-model/1"
    assert doc["metadata"]["saved_at"] == "2026-08-18T00:00:00+00:00"
    assert doc["alphabet"] == ["a", "b"]
    assert doc["selected_features"] == [2, 9]
    entry = doc["classes"]["a"]
    assert set(entry["posteriors"]) == {"2", "9"}
    assert set(entry["posteriors"]["2"]) == {"mu", "kappa", "alpha", "beta"}
    assert json.dumps(doc)  # serialisable as-is


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{nope")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path)


def test_load_rejects_other_versions(tmp_path):
    model = train(gaussian_ds(10, ("a", "b"), 4, {"a": 0.0, "b": 6.0}))
    doc = model_to_json_dict(model)
    doc["version"] = "nfi-model/2"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="'nfi-model/2' is not supported"):
        load_model(path)


def test_load_rejects_malformed_document(tmp_path):
    model = train(gaussian_ds(11, ("a", "b"), 4, {"a": 0.0, "b": 6.0}),
                  feature_ids=[1, 2])
    doc = model_to_json_dict(model)
    del doc["classes"]["a"]["posteriors"]["1"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
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
    path.write_text(json.dumps(doc))
    loaded = load_model(path)
    for state in loaded.classes:
        assert state.plugin_means == tuple(p.mu for p in state.posteriors)
        assert state.plugin_vars == tuple(p.plugin_variance() for p in state.posteriors)


# ------------------------------------------------------------ load checks

def saved_doc(tmp_path):
    model = train(gaussian_ds(13, ("a", "b"), 5, {"a": 0.0, "b": 6.0}), feature_ids=[3, 8])
    return model_to_json_dict(model)


def load_doc(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return load_model(path)


def test_load_rejects_a_document_that_is_not_an_object(tmp_path):
    with pytest.raises(ModelFormatError, match="not a JSON object"):
        load_doc(tmp_path, [1, 2])


def test_load_rejects_a_model_without_classes(tmp_path):
    doc = saved_doc(tmp_path)
    doc["alphabet"], doc["classes"] = [], {}
    with pytest.raises(ModelFormatError, match="no classes"):
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
    assert load_doc(tmp_path, doc).classes[0].plugin_vars[0] == VARIANCE_FLOOR
