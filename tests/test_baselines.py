import numpy as np
import pytest

from proofgym.baselines import (
    EDIT_SENTINEL,
    HeuristicFeatures,
    constant_baseline,
    extract_features,
    token_edit_distance,
    train_linear_baseline,
)
from proofgym.engine import declare_domain
from proofgym.sexpr import parse_sexpr
from proofgym.terms import TermStore


@pytest.fixture
def store():
    s = TermStore()
    declare_domain(s)
    return s


# -- token edit distance ------------------------------------------------------------


def test_edit_distance_identity():
    assert token_edit_distance(["a", "b", "c"], ["a", "b", "c"]) == 0


def test_edit_distance_empty_sides():
    assert token_edit_distance([], ["x", "y"]) == 2
    assert token_edit_distance(["x"], []) == 1
    assert token_edit_distance([], []) == 0


def test_edit_distance_goldens():
    assert token_edit_distance(["a", "b"], ["a", "c"]) == 1  # substitute
    assert token_edit_distance(["a", "b"], ["a", "b", "c"]) == 1  # insert
    assert token_edit_distance(["a", "b", "c"], ["c", "b", "a"]) == 2
    assert token_edit_distance(list("kitten"), list("sitting")) == 3


def test_edit_distance_symmetry():
    a, b = list("abcab"), list("bcaba")
    assert token_edit_distance(a, b) == token_edit_distance(b, a)


# -- feature extraction ---------------------------------------------------------------


def test_extract_features_with_hypothesis(store):
    g_ty = parse_sexpr(store, "(c G)")
    goal = parse_sexpr(store, "(app eq (v b) (v b))")
    feats = extract_features(store, (("b", g_ty),), goal)
    assert feats.context_size == 1
    assert feats.goal_size == store.tree_size(goal)
    # "(c G)" vs "(app eq (v b) (v b))" tokenized
    expected = token_edit_distance("(c G)".split(), "(app eq (v b) (v b))".split())
    assert feats.min_edit_distance == expected


def test_extract_features_empty_ctx_sentinel(store):
    goal = parse_sexpr(store, "(app eq (c e) (c e))")
    feats = extract_features(store, (), goal)
    assert feats.context_size == 0
    assert feats.min_edit_distance == EDIT_SENTINEL == 10_000


def test_extract_features_picks_minimum(store):
    g_ty = parse_sexpr(store, "(c G)")
    goal_like = parse_sexpr(store, "(app eq (v b) (v b))")
    goal = parse_sexpr(store, "(app eq (v b) (v b))")
    feats = extract_features(store, (("h", goal_like), ("b", g_ty)), goal)
    assert feats.min_edit_distance == 0  # identical hypothesis wins


def test_features_as_array_order():
    feats = HeuristicFeatures(2, 7, 3)
    assert feats.as_array().tolist() == [2.0, 7.0, 3.0]


# -- constant baseline ----------------------------------------------------------------


def test_constant_baseline_modal():
    assert constant_baseline([3, 1, 3, 2, 3]) == 3


def test_constant_baseline_tie_lowest():
    assert constant_baseline([2, 1, 2, 1]) == 1
    assert constant_baseline([5, 4]) == 4


def test_constant_baseline_empty_rejected():
    with pytest.raises(ValueError):
        constant_baseline([])


# -- linear baseline ------------------------------------------------------------------


def _separable_data(n_per=30, seed=0):
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for cls, center in ((1, (-4.0, 0.0)), (2, (4.0, 0.0)), (3, (0.0, 5.0))):
        blocks.append(rng.normal(center, 0.4, size=(n_per, 2)))
        labels += [cls] * n_per
    return np.concatenate(blocks), labels


def test_linear_baseline_fits_separable_data():
    x, y = _separable_data()
    model = train_linear_baseline(x, y, n_classes=3)
    assert (model.predict(x) == np.asarray(y)).mean() == 1.0


def test_linear_baseline_deterministic():
    x, y = _separable_data()
    a = train_linear_baseline(x, y, n_classes=3)
    b = train_linear_baseline(x, y, n_classes=3)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_linear_baseline_standardizes():
    x, y = _separable_data()
    model = train_linear_baseline(x, y, n_classes=3)
    assert np.allclose(model.mean, x.mean(axis=0))
    assert np.allclose(model.std, x.std(axis=0))
    # scaling one feature by a large constant must not change accuracy
    x2 = x.copy()
    x2[:, 1] *= 1e6
    model2 = train_linear_baseline(x2, y, n_classes=3)
    assert (model2.predict(x2) == np.asarray(y)).mean() == 1.0


def test_linear_baseline_constant_feature_guard():
    x, y = _separable_data()
    x = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)  # zero-variance column
    model = train_linear_baseline(x, y, n_classes=3)
    assert np.isfinite(model.weights).all()
    assert (model.predict(x) == np.asarray(y)).mean() == 1.0


def test_linear_baseline_warns_on_absent_class():
    x, y = _separable_data()
    with pytest.warns(UserWarning, match=r"classes absent.*\[4\]"):
        train_linear_baseline(x, y, n_classes=4)


def test_predict_returns_one_based_ids():
    x, y = _separable_data(n_per=10)
    model = train_linear_baseline(x, y, n_classes=3)
    preds = model.predict(x)
    assert preds.min() >= 1 and preds.max() <= 3
