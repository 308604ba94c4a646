"""Random forest, AUC/confusion metrics and LOOCV hygiene."""

import contextlib
import math
import pickle
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from deepradiomics import forest
from deepradiomics.errors import (
    DimMismatch,
    EmptyTraining,
    LengthMismatch,
    NonFiniteData,
    SingleClass,
    SingleClassTraining,
    TooFewRows,
)
from deepradiomics.forest import (
    Dataset,
    RfModel,
    RfParams,
    TreeNode,
    _FOLD_SEED_STRIDE,
    _best_split,
    _fold,
    _grid_search,
    _stratified_split,
    compute_auc,
    confusion_matrix,
    expand_grid,
    loocv,
    rf_predict,
    rf_train,
    roc_points,
    tree_vote,
)
from deepradiomics.manifest import MAX_TREES


def blob_dataset(n_per_class=100, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per_class, 2))
    b = rng.normal(3.0, 1.0, (n_per_class, 2))
    X = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    ids = tuple(f"r{i}" for i in range(2 * n_per_class))
    return Dataset(ids=ids, X=X, y=y)


def separable_1d(n=20):
    x = np.array([(-1.0 - i) if i % 2 == 0 else (1.0 + i) for i in range(n)])
    y = (x > 0).astype(int)
    return Dataset(ids=tuple(f"p{i}" for i in range(n)), X=x.reshape(-1, 1), y=y)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class CountingRng:
    """A generator that counts its `choice` calls."""

    def __init__(self, rng):
        self.rng, self.choices = rng, 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self.rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def tree_signature(node):
    if node.proba is not None:
        return ("leaf", node.proba)
    return ("split", node.feature, tree_signature(node.left), tree_signature(node.right))


class TestRfTrain:
    def test_perfectly_separable_training_accuracy(self):
        ds = separable_1d(12)
        model = rf_train(ds, RfParams(n_trees=50, min_leaf=1), seed=3)
        scores = [rf_predict(model, row) for row in ds.X]
        assert all((s > 0.5) == bool(label) for s, label in zip(scores, ds.y))

    def test_identical_features_yield_single_leaf_trees(self):
        X = np.ones((8, 3))
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        model = rf_train(Dataset(ids=tuple("abcdefgh"), X=X, y=y), RfParams(n_trees=20, min_leaf=1), seed=0)
        for tree in model.trees:
            assert tree.proba is not None  # no split possible anywhere
            assert tree.proba[0] + tree.proba[1] == pytest.approx(1.0)

    def test_out_of_bag_accuracy_on_blobs(self):
        ds = blob_dataset(seed=5)
        model = rf_train(ds, RfParams(n_trees=100, min_leaf=1), seed=7)
        votes = np.zeros(ds.n)
        counts = np.zeros(ds.n)
        for t, tree in enumerate(model.trees):
            # tree t's bootstrap rows, drawn as rf_train draws them
            in_bag = np.random.default_rng(7 + t).integers(0, ds.n, size=ds.n)
            for i in np.setdiff1d(np.arange(ds.n), in_bag):
                votes[i] += tree_vote(tree, ds.X[i])
                counts[i] += 1
        seen = counts > 0
        pred = (votes[seen] / counts[seen]) >= 0.5
        accuracy = (pred == ds.y[seen].astype(bool)).mean()
        assert accuracy > 0.9

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_small_forest_is_prefix_of_large_forest(self, min_leaf):
        ds = blob_dataset(n_per_class=20, seed=8)
        small = rf_train(ds, RfParams(n_trees=7, min_leaf=min_leaf), seed=13)
        large = rf_train(ds, RfParams(n_trees=20, min_leaf=min_leaf), seed=13)
        assert large.trees[:7] == small.trees  # node for node, thresholds included

    def test_determinism(self):
        ds = blob_dataset(n_per_class=30, seed=1)
        a = rf_train(ds, RfParams(n_trees=10, min_leaf=1), seed=9)
        b = rf_train(ds, RfParams(n_trees=10, min_leaf=1), seed=9)
        assert [tree_signature(t) for t in a.trees] == [tree_signature(t) for t in b.trees]

    def test_monotone_rescaling_keeps_tree_structure(self):
        ds = blob_dataset(n_per_class=40, seed=2)
        transformed = ds.X.copy()
        transformed[:, 0] = 3.0 * transformed[:, 0] + 5.0
        transformed[:, 1] = transformed[:, 1] ** 3
        other = Dataset(ids=ds.ids, X=transformed, y=ds.y)
        a = rf_train(ds, RfParams(n_trees=15, min_leaf=2), seed=4)
        b = rf_train(other, RfParams(n_trees=15, min_leaf=2), seed=4)
        assert [tree_signature(t) for t in a.trees] == [tree_signature(t) for t in b.trees]

    @pytest.mark.parametrize("kwargs", [{"n_trees": 0, "min_leaf": 1}, {"n_trees": 1, "min_leaf": 0}])
    def test_params_below_one_rejected(self, kwargs):
        with pytest.raises(ValueError, match=">= 1"):
            RfParams(**kwargs)

    @pytest.mark.parametrize(
        "low, high",
        [
            (1 + np.spacing(1.0), 1 + 2 * np.spacing(1.0)),  # the midpoint rounds onto high
            (1e308, 1.7e308),  # low + high overflows to inf
            (-1.7e308, -1e308),  # and to -inf
        ],
    )
    def test_adjacent_values_split_and_stop(self, low, high):
        X = np.array([[low], [high], [low], [high]])
        ds = Dataset(ids=tuple("abcd"), X=X, y=np.array([0, 1, 0, 1]))
        with time_limit(2.0):  # a threshold of high sends every row left, forever
            model = rf_train(ds, RfParams(n_trees=10, min_leaf=1), seed=0)
        split = [t for t in model.trees if t.proba is None]
        assert split  # some bootstrap draws both values
        for tree in split:
            assert low <= tree.threshold < high
            assert tree.left.proba == (1.0, 0.0) and tree.right.proba == (0.0, 1.0)

    def test_errors(self):
        with pytest.raises(EmptyTraining):
            rf_train(Dataset(ids=(), X=np.empty((0, 2)), y=np.empty(0, int)), RfParams(1, 1), 0)
        with pytest.raises(SingleClassTraining):
            rf_train(Dataset(ids=("a", "b"), X=np.eye(2), y=np.array([1, 1])), RfParams(1, 1), 0)


def reference_best_split(X, y, rows, feats, min_leaf):
    """One feature at a time: the search _best_split must reproduce exactly."""
    n = rows.size
    ysub = y[rows]
    best = None
    for f in feats:
        xs = X[rows, f]
        order = np.argsort(xs, kind="stable")
        xv = xs[order]
        yv = ysub[order]
        cut = np.nonzero(xv[:-1] < xv[1:])[0]  # split between p and p+1
        if cut.size == 0:
            continue
        left_n = cut + 1
        ok = (left_n >= min_leaf) & (n - left_n >= min_leaf)
        cut = cut[ok]
        if cut.size == 0:
            continue
        left_n = cut + 1
        ones = np.cumsum(yv)
        l1 = ones[cut]
        r1 = ones[-1] - l1
        rn = n - left_n
        gl = 1.0 - (l1 / left_n) ** 2 - ((left_n - l1) / left_n) ** 2
        gr = 1.0 - (r1 / rn) ** 2 - ((rn - r1) / rn) ** 2
        weighted = (left_n * gl + rn * gr) / n
        j = int(np.argmin(weighted))  # first minimum -> lowest threshold
        if best is None or weighted[j] < best[0]:
            below, above = xv[cut[j]], xv[cut[j] + 1]
            thr = 0.5 * below + 0.5 * above  # the midpoint, unless it rounds onto above
            thr = thr if thr < above else below
            best = (float(weighted[j]), int(f), float(thr))
    return best


@st.composite
def split_problems(draw):
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 10))  # floor(sqrt(d)) reaches 3
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    decimals = draw(st.sampled_from([None, 0, 1]))  # rounding makes ties
    if decimals is not None:
        X = np.round(X, decimals)
    for f in draw(st.lists(st.integers(0, d - 1), max_size=d)):
        X[:, f] = 1.0  # constant column: no valid cut
    if draw(st.booleans()):
        # NaN sorts last, and no cut beside it is valid
        X[rng.integers(0, n, size=2), rng.integers(0, d)] = np.nan
    y = rng.integers(0, 2, n)
    rows = rng.integers(0, n, size=n)  # a bootstrap sample, repeats included
    mtry = draw(st.integers(1, d))
    feats = np.sort(rng.choice(d, size=mtry, replace=False))
    min_leaf = draw(st.integers(1, n // 2 + 1))  # one past n/2 leaves no valid cut
    return X, y, rows, feats, min_leaf


def batched_best_split(X, y, rows, feats, min_leaf):
    """_best_split on a ragged batch, one (gini, feature, threshold) or None per node."""
    weighted, feature, thr, *_ = _best_split(X, y, rows, np.asarray(feats), min_leaf)
    return [None if w == np.inf else (float(w), int(f), float(t)) for w, f, t in zip(weighted, feature, thr)]


@st.composite
def split_batches(draw):
    """Nodes of different sizes over one (X, y), sharing mtry and min_leaf."""
    X, y, _, _, _ = draw(split_problems())
    n, d = X.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
    rows = [rng.integers(0, n, size=m) for m in sizes]
    mtry = draw(st.integers(1, d))
    feats = np.array([np.sort(rng.choice(d, size=mtry, replace=False)) for _ in sizes])
    min_leaf = draw(st.integers(1, max(sizes) // 2 + 1))
    return X, y, rows, feats, min_leaf


class TestBestSplit:
    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_matches_per_feature_search(self, problem):
        X, y, rows, feats, min_leaf = problem
        assert batched_best_split(X, y, [rows], feats[None], min_leaf) == [reference_best_split(*problem)]

    @settings(max_examples=200, deadline=None)
    @given(split_batches())
    def test_ragged_batch_matches_each_node_alone(self, batch):
        X, y, rows, feats, min_leaf = batch
        expected = [reference_best_split(X, y, r, f, min_leaf) for r, f in zip(rows, feats)]
        assert batched_best_split(X, y, rows, feats, min_leaf) == expected

    @settings(max_examples=200, deadline=None)
    @given(split_batches())
    def test_rows_come_back_split_at_the_threshold(self, batch):
        X, y, nodes, feats, min_leaf = batch
        for node, w, f, t, r, k, k1 in zip(nodes, *_best_split(X, y, nodes, feats, min_leaf)):
            if w < np.inf:  # the rows x <= t, then the others, as multisets
                left = X[node, f] <= t
                assert sorted(r[:k]) == sorted(node[left]) and sorted(r[k : node.size]) == sorted(node[~left])
                assert k1 == y[node[left]].sum() and min_leaf <= k <= node.size - min_leaf

    def test_tie_prefers_lowest_feature_then_lowest_threshold(self):
        # both columns separate the classes equally well at two thresholds
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 1, 1, 0])
        tied = np.arange(4)
        # alone, and beside a wider node whose padding must not move the tie
        assert batched_best_split(X, y, [tied], [[0, 1]], 1)[0][1:] == (0, 0.5)
        batch = batched_best_split(X, y, [np.tile(tied, 3), tied], [[0, 1], [0, 1]], 1)
        assert [b[1:] for b in batch] == [(0, 0.5), (0, 0.5)]

    def test_nan_cells_sort_ahead_of_padding(self):
        X = np.array([[0.0], [np.nan], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1, 1])
        rows = [np.array([1, 0, 2, 3, 4]), np.array([0, 1, 3])]
        expected = [reference_best_split(X, y, r, np.array([0]), 1) for r in rows]
        assert batched_best_split(X, y, rows, [[0], [0]], 1) == expected
        assert expected[0] == (0.0, 0, 1.5)  # the NaN row goes with the right side


def reference_grow(X, y, rows, rng, min_leaf, mtry):
    """One tree grown alone, by recursion: the tree rf_train must reproduce exactly."""
    n = rows.size
    n1 = int(y[rows].sum())
    leaf = TreeNode(proba=((n - n1) / n, n1 / n))
    if n1 == 0 or n1 == n or n < 2 * min_leaf:
        return leaf
    feats = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
    best = reference_best_split(X, y, rows, feats, min_leaf)
    p1 = n1 / n
    if best is None or 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1) - best[0] <= 1e-12:
        return leaf
    _, f, thr = best
    go_left = X[rows, f] <= thr
    node = TreeNode(feature=f, threshold=thr)
    node.left = reference_grow(X, y, rows[go_left], rng, min_leaf, mtry)
    node.right = reference_grow(X, y, rows[~go_left], rng, min_leaf, mtry)
    return node


def reference_rf_train(ds, params, seed):
    mtry = max(1, math.isqrt(ds.d))
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(seed + t)
        rows = rng.integers(0, ds.n, size=ds.n)
        trees.append(reference_grow(ds.X, ds.y, rows, rng, params.min_leaf, mtry))
    return tuple(trees)


@st.composite
def forest_problems(draw):
    X, _, _, _, _ = draw(split_problems())
    n, d = X.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for f in draw(st.lists(st.integers(0, d - 1), max_size=d)):
        X[:, f] = X[:, rng.integers(0, d)]  # duplicated column: ties across features
    y = rng.integers(0, 2, n)
    y[rng.choice(n, size=2, replace=False)] = [0, 1]
    ds = Dataset(ids=tuple(f"r{i}" for i in range(n)), X=X, y=y)
    params = RfParams(
        # past 64 and 128 trees the forest grows in a new block
        n_trees=draw(st.integers(1, 150)),
        min_leaf=draw(st.integers(1, 4)),
    )
    return ds, params, draw(st.integers(0, 2**31))


class TestLockstepGrowth:
    @settings(max_examples=100, deadline=None)
    @given(forest_problems())
    def test_matches_trees_grown_one_at_a_time(self, problem):
        ds, params, seed = problem
        assert rf_train(ds, params, seed).trees == reference_rf_train(ds, params, seed)

    def test_crosses_block_boundaries(self):
        ds = blob_dataset(n_per_class=15, seed=4)
        params = RfParams(n_trees=140, min_leaf=2)
        assert rf_train(ds, params, 21).trees == reference_rf_train(ds, params, 21)


class TestRfPredict:
    def test_pure_class_model_scores_one(self):
        leaf = TreeNode(proba=(0.0, 1.0))
        model = RfModel(trees=(leaf, leaf, leaf), n_features=2)
        assert rf_predict(model, [0.0, 0.0]) == 1.0

    def test_single_tree_vote_granularity(self):
        for proba, expected in [((1.0, 0.0), 0.0), ((0.5, 0.5), 0.5), ((0.2, 0.8), 1.0)]:
            model = RfModel(trees=(TreeNode(proba=proba),), n_features=1)
            assert rf_predict(model, [0.0]) == expected

    def test_blob_centroids(self):
        ds = blob_dataset(seed=3)
        model = rf_train(ds, RfParams(n_trees=100, min_leaf=1), seed=11)
        assert rf_predict(model, [0.0, 0.0]) < 0.1
        assert rf_predict(model, [3.0, 3.0]) > 0.9

    def test_dim_mismatch(self):
        model = RfModel(trees=(TreeNode(proba=(1.0, 0.0)),), n_features=3)
        with pytest.raises(DimMismatch):
            rf_predict(model, [1.0, 2.0])


@st.composite
def auc_problems(draw):
    """Rounded scores with heavy ties, sometimes infinite, and both classes present."""
    n = draw(st.integers(2, 200))
    levels = draw(st.integers(1, 12))
    values = st.integers(0, levels).map(lambda v: v / levels)
    if draw(st.booleans()):
        values |= st.sampled_from([np.inf, -np.inf])
    scores = draw(st.lists(values, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[:2] = [0, 1]
    return scores, labels


class TestAuc:
    def test_perfect_ranking(self):
        assert compute_auc([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert compute_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_enumerated_pairs(self):
        # pairs ordered correctly: (.35,.1), (.8,.1), (.8,.4); inverted: (.35,.4)
        assert compute_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        base = compute_auc(scores, labels)
        assert compute_auc(3 * scores + 2, labels) == base
        assert compute_auc(np.exp(scores), labels) == base

    def test_single_class(self):
        with pytest.raises(SingleClass):
            compute_auc([0.1, 0.9], [1, 1])

    @settings(max_examples=300, deadline=None)
    @given(auc_problems())
    def test_matches_rankdata_and_pair_count(self, problem):
        scores, labels = problem
        s, y = np.asarray(scores), np.asarray(labels)
        n_pos, n_neg = int(y.sum()), int((1 - y).sum())
        # reference: the rank-sum formula over scipy's average ranks
        ranked = float((rankdata(s)[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
        pos, neg = s[y == 1], s[y == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        auc = compute_auc(scores, labels)
        assert auc == ranked
        assert auc == float(wins / (n_pos * n_neg))

    def test_nan_score_rejected(self):
        for metric in (compute_auc, roc_points):
            with pytest.raises(NonFiniteData, match="NaN"):
                metric([np.nan, 0.5, 0.2, 0.7], [0, 1, 0, 1])

    @pytest.mark.parametrize("labels", [[0, 1, 2], [-1, 1, 0], [1, 0, 0.5]])
    def test_labels_outside_zero_one_rejected(self, labels):
        for metric in (compute_auc, roc_points):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                metric([0.2, 0.3, 0.1], labels)

    def test_infinite_scores_are_ordered(self):
        assert compute_auc([-np.inf, 0.5, 0.2, np.inf], [0, 1, 0, 1]) == 1.0
        # pairs: (inf, inf) ties, (inf, .2) and (.7, .2) win, (.7, inf) loses
        assert compute_auc([np.inf, np.inf, 0.2, 0.7], [0, 1, 0, 1]) == 0.625
        assert roc_points([-np.inf, np.inf], [0, 1]) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


class TestConfusion:
    def test_perfect(self):
        m = confusion_matrix([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1])
        assert m.tolist() == [[2, 0], [0, 2]]

    def test_inverted(self):
        m = confusion_matrix([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1])
        assert m.tolist() == [[0, 2], [2, 0]]

    def test_hand_built_six(self):
        scores = [0.9, 0.4, 0.5, 0.6, 0.2, 0.5]
        labels = [1, 1, 0, 0, 0, 1]
        # threshold 0.5, >= is positive: predictions 1,0,1,1,0,1
        m = confusion_matrix(scores, labels)
        assert m.tolist() == [[1, 2], [1, 2]]

    @pytest.mark.parametrize("labels", [[0, 1, 2], [1, 0, 0.5], [0, np.nan, 1]])
    def test_labels_outside_zero_one_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            confusion_matrix([0.2, 0.3, 0.9], labels)

    def test_nan_score_rejected_single_class_accepted(self):
        with pytest.raises(NonFiniteData, match="NaN"):
            confusion_matrix([np.nan, 0.5, 0.2], [1, 1, 1])
        assert confusion_matrix([0.2, 0.7], [1, 1]).tolist() == [[0, 0], [1, 1]]

    @pytest.mark.parametrize("metric", [compute_auc, roc_points, confusion_matrix])
    def test_score_label_length_mismatch_rejected(self, metric):
        with pytest.raises(LengthMismatch, match="3 scores but 2 labels"):
            metric([0.1, 0.2, 0.3], [0, 1])

    def test_roc_endpoints(self):
        pts = roc_points([0.1, 0.9, 0.4, 0.7], [0, 1, 0, 1])
        assert pts[0] == (0.0, 0.0)
        assert pts[-1] == (1.0, 1.0)
        fprs = [p[0] for p in pts]
        tprs = [p[1] for p in pts]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)


def weak_signal_dataset(width):
    """14 rows with a weak class signal: grid points disagree, and some folds score AUC 1."""
    rng = np.random.default_rng(12)
    y = np.array([0, 1] * 7)
    X = rng.normal(size=(14, width)) + 0.8 * y[:, None]
    return Dataset(ids=tuple(f"q{i}" for i in range(14)), X=X, y=y)


def reference_fold(data, i, seed):
    """Fold i's seed, refit rows and inner (train, validation) split."""
    fold_seed = seed + i * 10007
    rest = np.array([j for j in range(data.n) if j != i])
    train_idx, val_idx = _stratified_split(data.y, rest, np.random.default_rng(fold_seed))
    return fold_seed, rest, train_idx, val_idx


def reference_val_aucs(data, train_idx, val_idx, points, fold_seed):
    """Each point's validation AUC, from a forest trained for that point alone."""
    y_val = data.y[val_idx]
    aucs = []
    for p in points:
        model = rf_train(data.subset(train_idx), p, fold_seed)
        val_scores = [rf_predict(model, data.X[v]) for v in val_idx]
        aucs.append(compute_auc(val_scores, y_val) if len(np.unique(y_val)) == 2 else 0.5)
    return aucs


def reference_loocv(data, grid, seed):
    """LOOCV that trains every grid point separately: (chosen params, scores)."""
    points = expand_grid(grid)
    chosen, scores = [], []
    for i in range(data.n):
        fold_seed, rest, train_idx, val_idx = reference_fold(data, i, seed)
        aucs = reference_val_aucs(data, train_idx, val_idx, points, fold_seed)
        ranked = [(-auc, p.n_trees, -p.min_leaf) for p, auc in zip(points, aucs)]
        best = points[ranked.index(min(ranked))]
        chosen.append(best)
        scores.append(rf_predict(rf_train(data.subset(rest), best, fold_seed), data.X[i]))
    return chosen, scores


def reference_stops(data, grid, seed):
    """Per fold, the point where an early-stopping search stops, scoring the
    points in tie-break order: the first with validation AUC 1, else the
    last (every point scored); None when the validation rows hold one
    class, so that no point needs scoring."""
    points = sorted(expand_grid(grid), key=lambda p: (p.n_trees, -p.min_leaf))
    stops = []
    for i in range(data.n):
        fold_seed, _, train_idx, val_idx = reference_fold(data, i, seed)
        if len(np.unique(data.y[val_idx])) < 2:
            stops.append(None)
            continue
        aucs = reference_val_aucs(data, train_idx, val_idx, points, fold_seed)
        stops.append(next((p for p, auc in zip(points, aucs) if auc == 1.0), points[-1]))
    return stops


class TestLoocv:
    def test_separable_gives_perfect_auc(self):
        ds = separable_1d(20)
        report = loocv(ds, {"n_trees": [25], "min_leaf": [1]}, seed=0)
        assert report.auc == 1.0
        assert report.accuracy == 1.0
        assert report.confusion.tolist() == [[10, 0], [0, 10]]

    def test_no_leakage_into_fold_training(self):
        ds = separable_1d(12)
        report = loocv(ds, {"n_trees": [10, 25], "min_leaf": [1, 3]}, seed=1)
        assert len(report.folds) == 12
        for audit in report.folds:
            assert audit.held_out_id not in audit.train_ids
            assert audit.held_out_id not in audit.val_ids
            assert audit.held_out_id not in audit.refit_ids
            # inner split partitions the fold-training rows
            assert set(audit.train_ids) | set(audit.val_ids) == set(audit.refit_ids)
            assert not set(audit.train_ids) & set(audit.val_ids)

    def test_grid_tie_break_prefers_small_forest_big_leaf(self):
        # perfectly separable -> every grid point ties at validation AUC 1
        ds = separable_1d(16)
        report = loocv(ds, {"n_trees": [25, 50], "min_leaf": [1, 2]}, seed=2)
        for audit in report.folds:
            assert audit.chosen == RfParams(n_trees=25, min_leaf=2)

    def test_separable_grows_one_grid_forest_per_fold(self, monkeypatch):
        # the first point in tie-break order scores AUC 1, so the search stops there
        ds = separable_1d(16)
        trained = []

        def recording_rf_train(train, params, seed, **kwargs):
            trained.append((train.n, params, seed))
            return rf_train(train, params, seed, **kwargs)

        monkeypatch.setattr(forest, "rf_train", recording_rf_train)
        report = loocv(ds, {"n_trees": [25, 50], "min_leaf": [1, 2]}, seed=2)
        expected = []
        for i, audit in enumerate(report.folds):
            fold_seed = 2 + i * 10007
            expected += [
                (len(audit.train_ids), RfParams(n_trees=25, min_leaf=2), fold_seed),
                (len(audit.refit_ids), RfParams(n_trees=25, min_leaf=2), fold_seed),
            ]
        assert trained == expected

    @staticmethod
    def assert_matches_brute_force(grid, width):
        ds = weak_signal_dataset(width)
        report = loocv(ds, grid, seed=3)
        chosen, scores = reference_loocv(ds, grid, seed=3)
        assert [a.chosen for a in report.folds] == chosen
        assert [s for _, s, _ in report.per_patient_scores] == scores
        assert len(set(chosen)) > 1

    @pytest.mark.parametrize(
        "grid",
        [
            {"n_trees": [4, 9], "min_leaf": [1, 2, 4]},
            # forests ending below, at and past the 64-tree block
            {"n_trees": [5, 64, 130], "min_leaf": [1, 2]},
        ],
    )
    def test_matches_brute_force_grid_search(self, grid):
        self.assert_matches_brute_force(grid, width=3)

    def test_matches_brute_force_grid_search_on_wider_rows(self):
        # floor(sqrt(5)) = 2 candidate features per split search
        self.assert_matches_brute_force({"n_trees": [6, 20], "min_leaf": [1, 3]}, width=5)

    def test_repeated_grid_values_name_the_same_points(self):
        self.assert_matches_brute_force({"n_trees": [5, 20, 5, 60], "min_leaf": [1, 3, 1]}, width=5)

    def test_matches_brute_force_when_a_middle_segment_stops(self):
        grid = {"n_trees": [5, 20, 60], "min_leaf": [1, 3]}
        self.assert_matches_brute_force(grid, width=3)
        stops = reference_stops(weak_signal_dataset(3), grid, seed=3)
        # some fold's first AUC of 1 is at 20 trees, so it grows none of the last segment
        assert any(p.n_trees == 20 for p in stops)

    def test_each_tree_is_seeded_once_per_fold(self, monkeypatch):
        ds = weak_signal_dataset(3)
        grid = {"n_trees": [20, 70], "min_leaf": [1, 2, 3]}
        seeds = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        report = loocv(ds, grid, seed=4)
        monkeypatch.undo()
        stops = reference_stops(ds, grid, seed=4)
        # per fold: the stratified split, each grid tree up to the point where
        # the search stops, then the refit's trees
        expected = []
        for i, (audit, stop) in enumerate(zip(report.folds, stops)):
            fold_seed = 4 + i * 10007
            expected += [fold_seed, *range(fold_seed, fold_seed + stop.n_trees)]
            expected += range(fold_seed, fold_seed + audit.chosen.n_trees)
        assert seeds == expected
        assert any(stop.n_trees == 20 for stop in stops)  # a fold that stops early
        assert RfParams(n_trees=70, min_leaf=1) in stops  # a fold that scores every point

    def test_grid_draws_each_feature_subset_once(self, monkeypatch):
        rng = np.random.default_rng(14)
        y = np.array([0, 1] * 15)
        X = rng.normal(size=(30, 5)) + 0.5 * y[:, None]
        ds = Dataset(ids=tuple(f"g{i}" for i in range(30)), X=X, y=y)
        train_idx, val_idx = _stratified_split(y, np.arange(30), np.random.default_rng(0))
        assert len(np.unique(y[val_idx])) == 2
        grid_rngs = []
        seed_trees = forest._seed_trees

        def counting_seed_trees(n, seeds):
            rngs, *rest = seed_trees(n, seeds)
            counted = [CountingRng(r) for r in rngs]
            grid_rngs.extend(counted)
            return counted, *rest

        monkeypatch.setattr(forest, "_seed_trees", counting_seed_trees)
        points = expand_grid({"n_trees": [10, 30], "min_leaf": [1, 2, 4]})
        train = ds.subset(train_idx)
        _grid_search(train, ds.subset(val_idx), points, 5)
        monkeypatch.undo()
        # split searches of tree t grown alone at each min_leaf
        searches = []
        for t in range(30):
            per_leaf = []
            for min_leaf in (1, 2, 4):
                tree_rng = CountingRng(np.random.default_rng(5 + t))
                rows = tree_rng.integers(0, train.n, size=train.n)
                reference_grow(train.X, train.y, rows, tree_rng, min_leaf, 2)  # mtry floor(sqrt(5))
                per_leaf.append(tree_rng.choices)
            searches.append(per_leaf)
        assert [r.choices for r in grid_rngs] == [max(c) for c in searches]
        assert sum(map(sum, searches)) > sum(map(max, searches))

    def test_single_class_validation_grows_no_grid_tree(self, monkeypatch):
        # two positives: a fold holding one out keeps the other in training,
        # so its validation rows are all negative
        rng = np.random.default_rng(9)
        y = np.array([1, 1] + [0] * 8)
        X = rng.normal(size=(10, 2)) + y[:, None]
        ds = Dataset(ids=tuple(f"s{i}" for i in range(10)), X=X, y=y)
        grid = {"n_trees": [5, 10], "min_leaf": [1, 2]}
        chosen, scores = reference_loocv(ds, grid, seed=6)
        seeded = []
        seed_trees = forest._seed_trees

        def recording_seed_trees(n, seeds):
            seeded.append((n, seeds[0]))
            return seed_trees(n, seeds)

        monkeypatch.setattr(forest, "_seed_trees", recording_seed_trees)
        report = loocv(ds, grid, seed=6)
        monkeypatch.undo()
        assert [a.chosen for a in report.folds] == chosen
        assert [s for _, s, _ in report.per_patient_scores] == scores
        single = []
        for i, audit in enumerate(report.folds):
            one_class = len({ds.y[ds.ids.index(v)] for v in audit.val_ids}) == 1
            grid_calls = seeded.count((len(audit.train_ids), 6 + i * 10007))
            assert grid_calls == (0 if one_class else 1)
            single.append(one_class)
        assert single == [True, True] + [False] * 8

    def test_one_point_grid_grows_only_the_refit_forests(self, monkeypatch):
        ds = blob_dataset(n_per_class=6, seed=8)  # every fold validates on both classes
        trained = []

        def recording_rf_train(train, params, seed, **kwargs):
            trained.append((train.n, params))
            return rf_train(train, params, seed, **kwargs)

        monkeypatch.setattr(forest, "rf_train", recording_rf_train)
        report = loocv(ds, {"n_trees": [7], "min_leaf": [2]}, seed=4)
        assert trained == [(ds.n - 1, RfParams(n_trees=7, min_leaf=2))] * ds.n
        labels = dict(zip(ds.ids, ds.y))
        assert all({labels[v] for v in a.val_ids} == {0, 1} for a in report.folds)

    def test_determinism(self):
        ds = blob_dataset(n_per_class=12, seed=6)
        a = loocv(ds, {"n_trees": [10], "min_leaf": [1]}, seed=5)
        b = loocv(ds, {"n_trees": [10], "min_leaf": [1]}, seed=5)
        assert a.per_patient_scores == b.per_patient_scores
        assert a.auc == b.auc

    def test_errors(self):
        tiny = Dataset(ids=("a", "b"), X=np.eye(2), y=np.array([0, 1]))
        with pytest.raises(TooFewRows):
            loocv(tiny, {"n_trees": [5], "min_leaf": [1]}, seed=0)
        ds = Dataset(ids=("a", "b", "c"), X=np.eye(3), y=np.array([1, 1, 1]))
        with pytest.raises(SingleClass):
            loocv(ds, {"n_trees": [5], "min_leaf": [1]}, seed=0)

    def test_expand_grid_canonical_order(self):
        points = expand_grid({"n_trees": [300, 100], "min_leaf": [5, 1]})
        assert points[0] == RfParams(n_trees=100, min_leaf=1)
        assert points[-1] == RfParams(n_trees=300, min_leaf=5)
        assert len(points) == 4


@st.composite
def fold_problems(draw):
    """A small dataset with tied cells and at least two rows of each class,
    and other one-decimal values for every row."""
    n = draw(st.integers(6, 12))
    d = draw(st.integers(1, 3))
    labels = st.lists(st.integers(0, 1), min_size=n - 4, max_size=n - 4)
    y = draw(st.permutations([0, 0, 1, 1] + draw(labels)))
    cells = st.lists(st.integers(-20, 20).map(lambda k: k / 10), min_size=n * d, max_size=n * d)
    X, other = (np.array(draw(cells)).reshape(n, d) for _ in range(2))
    ds = Dataset(ids=tuple(f"h{j}" for j in range(n)), X=X, y=np.array(y))
    return ds, other, draw(st.integers(0, 2**31))


FOLD_GRID = {"n_trees": [3, 6], "min_leaf": [1, 2]}


class TestFoldTask:
    @settings(max_examples=40, deadline=None)
    @given(fold_problems())
    def test_held_out_row_never_reaches_its_fold(self, problem):
        ds, other, seed = problem
        points = expand_grid(FOLD_GRID)
        for i in range(ds.n):
            score, audit = _fold(ds, points, seed, i)
            flipped = ds.y.copy()
            flipped[i] = 1 - flipped[i]
            assert _fold(Dataset(ds.ids, ds.X, flipped), points, seed, i) == (score, audit)
            moved = ds.X.copy()
            moved[i] = other[i]
            moved_score, moved_audit = _fold(Dataset(ds.ids, moved, ds.y), points, seed, i)
            assert moved_audit.chosen == audit.chosen
            rest = [j for j in range(ds.n) if j != i]
            refit = rf_train(ds.subset(rest), audit.chosen, seed + i * 10007)
            assert moved_score == rf_predict(refit, other[i])

    def test_folds_run_in_any_order(self):
        ds = weak_signal_dataset(3)
        report = loocv(ds, FOLD_GRID, seed=7)
        points = expand_grid(FOLD_GRID)
        backwards = [_fold(ds, points, 7, i) for i in reversed(range(ds.n))]
        scores, audits = zip(*reversed(backwards))
        assert [s for _, s, _ in report.per_patient_scores] == list(scores)
        assert report.folds == audits

    def test_fold_task_survives_pickling(self):
        task = (_fold, weak_signal_dataset(3), expand_grid(FOLD_GRID), 7, 5)
        fn, *args = pickle.loads(pickle.dumps(task))
        assert fn(*args) == _fold(*task[1:])

    def test_fold_seeds_never_share_a_tree_seed(self):
        # fold i seeds its trees fold_seed + t for t < n_trees <= MAX_TREES
        assert MAX_TREES <= _FOLD_SEED_STRIDE
