"""Batch code against the per-row code it replaced (oracles in helpers).

The batch scorer, the fold assignment, the bincount metric report and the
array NIG fold must give exactly what the per-row or per-feature versions
give: same floats, same ties.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowident.classifier import (
    VARIANCE_FLOOR,
    ClassifierModel,
    ClassState,
    _log_scores,
    nig_fold,
    plugin_variance,
    predict,
    score,
    train,
)
from flowident.evaluation import (
    StratificationError,
    assign_folds,
    confusion,
    evaluate_predictions,
    metrics,
)
from flowident.features import Dataset, FeatureVector
from flowident.synth import generate_dataset, parse_synth_spec
from helpers import (
    assign_folds_oracle,
    nig_fold_oracle,
    plugin_variance_oracle,
    predict_oracle,
    score_oracle,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
variance = st.floats(min_value=VARIANCE_FLOOR, max_value=1e6, allow_nan=False)


@st.composite
def models_and_rows(draw):
    feature_ids = tuple(draw(st.permutations(range(1, 17)))[: draw(st.integers(1, 16))])
    d = len(feature_ids)
    nig = ([0.0] * d, [1.0] * d, [2.0] * d, [1.0] * d)
    classes = []
    for c in range(draw(st.integers(1, 6))):
        classes.append(ClassState(
            f"c{c}",
            draw(st.integers(1, 10_000)),
            *nig,
            plugin_means=draw(st.lists(finite, min_size=d, max_size=d)),
            plugin_vars=draw(st.lists(variance, min_size=d, max_size=d)),
        ))
    if draw(st.booleans()):
        # A later copy of an earlier class scores the same on every row.
        twin = draw(st.sampled_from(classes))
        classes.append(ClassState("twin", twin.n, *twin.nig,
                                  twin.plugin_means, twin.plugin_vars))
    alphabet = tuple(state.label for state in classes)
    model = ClassifierModel(alphabet=alphabet, feature_ids=feature_ids, classes=tuple(classes))
    rows = draw(st.lists(st.lists(finite, min_size=16, max_size=16), max_size=40))
    return model, Dataset([FeatureVector.from_values(r) for r in rows], alphabet)


@settings(max_examples=300, deadline=None)
@given(models_and_rows())
def test_batch_predict_and_score_equal_the_per_row_oracle(case):
    model, ds = case
    got = predict(model, ds)
    assert got == predict_oracle(model, ds)
    assert "twin" not in got
    for vec in ds.vectors:
        values = [vec.value(fid) for fid in model.feature_ids]
        assert list(score(model, vec).log_scores) == score_oracle(model, values)


labels_strategy = st.lists(st.sampled_from(["web", "bulk", "chat", "a\x00", "a", ""]),
                           min_size=2, max_size=120)


@settings(max_examples=300, deadline=None)
@given(labels_strategy, st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_assign_folds_equals_the_per_class_oracle(labels, k, seed):
    k = min(k, len(labels))
    try:
        want = assign_folds_oracle(labels, k, seed)
    except ValueError:
        try:
            assign_folds(labels, k, seed)
        except StratificationError:
            return
        raise AssertionError("a class smaller than k was accepted")
    assert assign_folds(labels, k, seed) == want


pair_lists = st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from("abcd"), min_size=n, max_size=n),
    st.lists(st.sampled_from("abce"), min_size=n, max_size=n),
))


@settings(max_examples=300, deadline=None)
@given(pair_lists, st.sampled_from([None, ("a", "b", "c"), ("d", "a", "z"), ("b", "b")]))
def test_evaluate_predictions_equals_per_class_tallies(pair, classes):
    predicted, truth = pair
    report = evaluate_predictions(predicted, truth, classes=classes)
    if classes is None:
        classes = sorted(set(predicted) | set(truth))
    assert report.per_class == {
        label: metrics(confusion(predicted, truth, label)) for label in classes
    }
    assert report.overall_accuracy == sum(p == t for p, t in zip(predicted, truth)) / len(truth)
    assert report.n == len(truth)


def test_batch_scores_equal_the_oracle_on_a_trained_model():
    """Many messy rows through every feature: a changed summation order shows here."""
    spec = parse_synth_spec({"seed": 3, "classes": [
        {"label": f"c{i}", "flows": 300, "features": {"pps": {"mean": 0.3 * i, "std": 1.0}}}
        for i in range(8)
    ]})
    ds = generate_dataset(spec)
    model = train(ds)
    assert predict(model, ds) == predict_oracle(model, ds)
    for vec in ds.vectors[::7]:
        values = [vec.value(fid) for fid in model.feature_ids]
        assert list(score(model, vec).log_scores) == score_oracle(model, values)
    rows = ds.matrix(model.feature_ids)
    assert _log_scores(model, rows).tolist() == [score_oracle(model, r) for r in rows]


def test_nig_fold_and_plugin_variance_equal_the_per_feature_oracle():
    """20,000 features at mixed scales: a square taken as x * x instead of
    pow(x, 2) differs in the last bit for some of them."""
    rng = np.random.default_rng(11)
    size = 20_000
    scale = rng.choice([1e-6, 1.0, 1e3, 1e6], size)
    nig = (
        rng.standard_normal(size) * scale,
        rng.uniform(1e-3, 50.0, size),
        rng.uniform(0.2, 50.0, size),
        rng.uniform(1e-9, 10.0, size) * scale**2,
    )
    for n in (0, 1, 7, 250):
        mean = rng.standard_normal(size) * scale
        sumsq = rng.uniform(0.0, 10.0, size) * scale**2 * n
        got = np.column_stack(nig_fold(nig, n, mean, sumsq)).tolist()
        want = [
            list(nig_fold_oracle(*state, n, m, s))
            for state, m, s in zip(zip(*(a.tolist() for a in nig)), mean.tolist(), sumsq.tolist())
        ]
        assert got == want
        floors = [plugin_variance_oracle(a, b, VARIANCE_FLOOR) for _, _, a, b in want]
        assert plugin_variance(*np.array(want).T[2:]).tolist() == floors
