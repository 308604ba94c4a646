"""Random forest with leave-one-out cross-validation and ROC metrics.

CART trees, Gini impurity, bootstrap resampling, and floor(sqrt(d)) feature
subsampling at every node.  Everything is seeded and tie-breaking is fixed
(lowest feature index, then lowest threshold), so a (data, grid, seed)
triple always produces the same model and the same evaluation report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    EmptyTraining,
    LengthMismatch,
    NonFiniteData,
    SingleClass,
    SingleClassTraining,
    TooFewRows,
)

# a split must beat the parent impurity by more than float dust
_MIN_IMPURITY_DECREASE = 1e-12

DECISION_THRESHOLD = 0.5  # a score at or above it predicts class 1: high marker, long survival


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with patient ids and binary labels."""

    ids: tuple[str, ...]
    X: np.ndarray  # (n, d) float
    y: np.ndarray  # (n,) int in {0, 1}

    def __post_init__(self):
        if self.X.ndim != 2 or len(self.ids) != self.X.shape[0] or self.y.shape != (self.X.shape[0],):
            raise ValueError("ids, X and y must agree on the number of rows")
        if ((self.y != 0) & (self.y != 1)).any():
            raise ValueError("labels must be 0 or 1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            ids=tuple(self.ids[r] for r in rows), X=self.X[rows], y=self.y[rows]
        )


@dataclass(frozen=True)
class RfParams:
    n_trees: int
    min_leaf: int

    def __post_init__(self):
        if self.n_trees < 1 or self.min_leaf < 1:
            raise ValueError(
                f"n_trees and min_leaf must be >= 1, got {self.n_trees} and {self.min_leaf}"
            )


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (proba set)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    proba: tuple[float, float] | None = None  # leaf class frequencies (p0, p1)


@dataclass(frozen=True)
class RfModel:
    trees: tuple[TreeNode, ...]
    n_features: int


@dataclass(frozen=True)
class FoldAudit:
    """Which rows each LOOCV fold saw; used to assert there is no leakage."""

    held_out_id: str
    train_ids: tuple[str, ...]  # inner grid-search training rows
    val_ids: tuple[str, ...]  # inner validation rows
    refit_ids: tuple[str, ...]  # rows of the final per-fold model
    chosen: RfParams


@dataclass(frozen=True)
class EvalReport:
    auc: float
    accuracy: float
    confusion: np.ndarray  # [[tn, fp], [fn, tp]]
    per_patient_scores: tuple[tuple[str, float, int], ...]
    folds: tuple[FoldAudit, ...]


# --------------------------------------------------------------------------
# tree growth
# --------------------------------------------------------------------------

def _best_split(X, y, nodes, feats, min_leaf):
    """Lowest weighted-Gini split of every node in a batch, and its rows.

    Node b holds the rows nodes[b] and searches its sorted candidate
    features feats[b].  Each node's (features, rows) block is padded at
    the end of every row with NaN, and all blocks are sorted at once; the
    stable sort keeps real NaN cells in their original order ahead of the
    padding.  Cut p splits between sorted positions p and p+1 and counts
    when it leaves at least min_leaf rows a side and the two values
    differ.  Ties resolve to the lowest feature index and then the lowest
    threshold, the first minimum of the node's block in row-major order.
    Returns (weighted_gini, feature, threshold, rows, n_left, ones_left);
    weighted_gini is inf where a node has no valid cut.  rows[b] is node
    b's rows in its winning feature's sorted order, padding last, split at
    the chosen cut: its first n_left[b] rows, ones_left[b] of them class 1,
    go left.  Valid cuts lie between distinct values, so only rows depends
    on the order of nodes[b], and the stored threshold sends the same rows
    left (a NaN goes right); prediction compares with that threshold.
    """
    sizes = np.array([r.size for r in nodes])
    B, W = len(nodes), sizes.max()
    real = np.arange(W) < sizes[:, None]
    rows = np.zeros(real.shape, dtype=np.intp)
    rows[real] = np.concatenate(nodes)
    lo, hi = min_leaf - 1, W - min_leaf  # cuts in [lo, hi) leave min_leaf rows a side
    if lo >= hi:
        return np.full(B, np.inf), feats[:, 0], np.full(B, np.nan), rows, *np.zeros((2, B), int)
    xs = np.where(real[:, None, :], X[rows[:, None, :], feats[:, :, None]], np.nan)
    order = np.argsort(xs, axis=2, kind="stable")
    xv = np.take_along_axis(xs, order, axis=2)
    ones = np.cumsum(np.take_along_axis((y[rows] * real)[:, None, :], order, axis=2), axis=2)
    left_n = np.arange(lo + 1, hi + 1)
    rn = (sizes[:, None] - left_n)[:, None, :]
    l1 = ones[:, :, lo:hi]
    r1 = ones[:, :, -1:] - l1
    gl = 1.0 - (l1 / left_n) ** 2 - ((left_n - l1) / left_n) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):  # rn < 1 only on cuts masked below
        gr = 1.0 - (r1 / rn) ** 2 - ((rn - r1) / rn) ** 2
        weighted = (left_n * gl + rn * gr) / sizes[:, None, None]
    ok = (rn >= min_leaf) & (xv[:, :, lo:hi] < xv[:, :, lo + 1 : hi + 1])
    weighted = np.where(ok, weighted, np.inf).reshape(B, -1)
    first = np.argmin(weighted, axis=1)
    k, j = np.divmod(first, hi - lo)
    b = np.arange(B)
    below, above = xv[b, k, lo + j], xv[b, k, lo + j + 1]
    # halving each side first cannot overflow; where the midpoint still
    # rounds onto the upper value, the lower one splits the same rows
    thr = 0.5 * below + 0.5 * above
    split = np.take_along_axis(rows, order[b, k], axis=1), lo + j + 1, ones[b, k, lo + j]
    return weighted[b, first], feats[b, k], np.where(thr < above, thr, below), *split


_BLOCK = 64  # trees grown together; bounds the batched search's temporaries


def _seed_trees(n, seeds):
    """A generator per seed, the n bootstrap rows each one draws first, and
    an empty list per generator for the feature subsets it draws next."""
    rngs = [np.random.default_rng(s) for s in seeds]
    return rngs, np.array([rng.integers(0, n, size=n) for rng in rngs]), [[] for _ in rngs]


def _grow_block(X, y, rngs, boot, drawn, min_leaf, mtry):
    """One tree per generator, all grown together in depth-first steps.

    Tree b grows on the bootstrap rows boot[b] from rngs[b], which has
    drawn those rows and then the feature subsets listed in drawn[b], and
    nothing else.  Each tree keeps its own stack and walks its nodes in
    preorder, left before right.  A step advances every unfinished tree
    to its next node that needs a split search (pure and too-small nodes
    become leaves on the way and draw nothing) and searches all those
    nodes in one _best_split call.  The i-th searched node of tree b takes
    its candidate features from drawn[b][i], or, past the end of that
    list, draws them from rngs[b] and appends them.  Every draw is the
    same call, so draw i depends only on i, and a tree grows exactly as
    when it is grown alone from a fresh generator.  A node's children are
    its rows in the winning feature's sorted order, split at the chosen
    cut (_best_split); the stored threshold sends the same training rows
    left, and prediction compares with it.
    """
    d = X.shape[1]
    trees = [TreeNode() for _ in rngs]
    # a stack holds (node, rows, class-1 count) and pops the left child first
    stacks = [[entry] for entry in zip(trees, boot, y[boot].sum(axis=1).tolist())]
    searched = [0] * len(trees)  # split searches so far, per tree
    active = range(len(trees))
    while active:
        todo, draws, still = [], [], []
        for b in active:
            stack = stacks[b]
            while stack:
                node, rows, n1 = stack.pop()
                if n1 == 0 or n1 == rows.size or rows.size < 2 * min_leaf:
                    node.proba = ((rows.size - n1) / rows.size, n1 / rows.size)
                else:
                    if searched[b] == len(drawn[b]):
                        drawn[b].append(rngs[b].choice(d, size=mtry, replace=False))
                    draws.append(drawn[b][searched[b]])
                    searched[b] += 1
                    todo.append((stack, node, rows, n1))
                    still.append(b)
                    break
        if not todo:
            break
        active = still
        weighted, feature, thr, rows, n_left, ones_left = _best_split(
            X, y, [t[2] for t in todo], np.sort(draws, axis=1), min_leaf
        )
        cuts = zip(weighted.tolist(), feature.tolist(), thr.tolist(), n_left.tolist(), ones_left.tolist())
        for (stack, node, parent, ones), r, (w, f, t, k, k1) in zip(todo, rows, cuts):
            m, p1 = parent.size, ones / parent.size
            # a leaf unless the cut lowers the node's Gini impurity, 1 - p1^2 - (1 - p1)^2
            if 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1) - w <= _MIN_IMPURITY_DECREASE:
                node.proba = ((m - ones) / m, ones / m)
                continue
            node.feature, node.threshold = f, t
            node.left, node.right = TreeNode(), TreeNode()
            stack.append((node.right, r[k:m], ones - k1))
            stack.append((node.left, r[:k], k1))
    return trees


def rf_train(train: Dataset, params: RfParams, seed: int, *, _seeded=None) -> RfModel:
    """Grow a seeded forest on bootstrap resamples of `train`.

    Each split search draws floor(sqrt(d)) candidate features.  Tree t
    draws its bootstrap rows and per-node feature subsets from a generator
    seeded with `seed + t` alone, so the first k trees of a forest are
    exactly the forest grown with `n_trees=k` and the same seed, and the
    forest of b - a trees grown with seed `seed + a` is exactly trees
    a..b-1 of the forest of b trees.
    Each tree is seeded and bootstrapped by _seed_trees, unless `_seeded`
    hands over such a (generators, bootstrap rows, draw lists) triple for
    at least n_trees trees, each generator having drawn nothing since its
    bootstrap rows but the feature subsets in its draw list.  A tree takes
    its i-th split search's features from its list and draws only past
    the list's end, so the min_leaf forests of one segment of a fold's
    grid search share one triple and each subset is drawn once.  The
    trees grow in lockstep, in blocks of _BLOCK, with one batched split
    search per depth-first step; each tree is exactly the tree grown
    alone.
    """
    if train.n == 0:
        raise EmptyTraining("training set is empty")
    if len(np.unique(train.y)) < 2:
        raise SingleClassTraining("training set has a single class")
    mtry = max(1, math.isqrt(train.d))
    trees = []
    for start in range(0, params.n_trees, _BLOCK):
        stop = min(start + _BLOCK, params.n_trees)
        if _seeded is None:
            block = _seed_trees(train.n, range(seed + start, seed + stop))
        else:
            block = [part[start:stop] for part in _seeded]  # the same draw lists, not copies
        trees += _grow_block(train.X, train.y, *block, params.min_leaf, mtry)
    return RfModel(trees=tuple(trees), n_features=train.d)


def tree_vote(node: TreeNode, row: np.ndarray) -> float:
    """One tree's class-1 vote: leaf majority, ties counting 0.5."""
    while node.proba is None:
        node = node.left if row[node.feature] <= node.threshold else node.right
    p0, p1 = node.proba
    if p1 > p0:
        return 1.0
    if p1 < p0:
        return 0.0
    return 0.5


def rf_predict(model: RfModel, row) -> float:
    """Fraction of trees voting class 1 for this row."""
    row = np.asarray(row, dtype=np.float64).ravel()
    if row.size != model.n_features:
        raise DimMismatch(f"row has {row.size} features, model expects {model.n_features}")
    return float(sum(tree_vote(t, row) for t in model.trees) / len(model.trees))


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def _checked(scores, labels, what: str):
    """Scores as float64 and labels as int64, one per score: labels 0 or 1, scores not NaN."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != y.shape:
        raise LengthMismatch(f"{what}: {s.size} scores but {y.size} labels")
    if ((y != 0) & (y != 1)).any():
        raise ValueError("labels must be 0 or 1")
    if np.isnan(s).any():
        raise NonFiniteData(f"{what} scores contain NaN")
    return s, y.astype(np.int64)


def _scored_labels(scores, labels, what: str):
    """(scores, labels, n_pos, n_neg) for a ranking metric, which needs both classes."""
    s, y = _checked(scores, labels, what)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass(f"{what} needs both classes")
    return s, y, n_pos, n_neg


def compute_auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg) with ties counting 0.5.

    Average ranks are whole or half integers, so the rank sum is exact.
    """
    s, y, n_pos, n_neg = _scored_labels(scores, labels, "AUC")
    # each distinct score ranks at the mean of the sorted positions it spans
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def confusion_matrix(scores, labels) -> np.ndarray:
    """2x2 counts [[tn, fp], [fn, tp]]; score >= DECISION_THRESHOLD predicts positive."""
    s, y = _checked(scores, labels, "confusion matrix")
    pred = s >= DECISION_THRESHOLD
    tp = int((pred & (y == 1)).sum())
    tn = int((~pred & (y == 0)).sum())
    fp = int((pred & (y == 0)).sum())
    fn = int((~pred & (y == 1)).sum())
    return np.array([[tn, fp], [fn, tp]], dtype=np.int64)


def roc_points(scores, labels) -> list[tuple[float, float]]:
    """(fpr, tpr) pairs from the all-negative to the all-positive corner."""
    s, y, n_pos, n_neg = _scored_labels(scores, labels, "ROC")
    points = [(0.0, 0.0)]
    for thr in np.unique(s)[::-1]:
        pred = s >= thr
        points.append(
            (
                float((pred & (y == 0)).sum() / n_neg),
                float((pred & (y == 1)).sum() / n_pos),
            )
        )
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


# --------------------------------------------------------------------------
# leave-one-out cross-validation with per-fold grid search
# --------------------------------------------------------------------------

def expand_grid(grid: dict) -> list[RfParams]:
    """The points of a {'n_trees': [...], 'min_leaf': [...]} grid, by (n_trees, min_leaf)."""
    points = [
        RfParams(n_trees=int(nt), min_leaf=int(ml))
        for nt in grid["n_trees"]
        for ml in grid["min_leaf"]
    ]
    if not points:
        raise ValueError("hyperparameter grid is empty")
    return sorted(points, key=lambda p: (p.n_trees, p.min_leaf))


def _stratified_split(y, rest, rng):
    """80/20 split of `rest`, stratified; lone-class rows stay in train."""
    val: list[int] = []
    for cls in (0, 1):
        rows_c = [int(r) for r in rest if y[r] == cls]
        if len(rows_c) < 2:
            continue
        n_val = int(math.floor(0.2 * len(rows_c) + 0.5))
        n_val = min(max(n_val, 1), len(rows_c) - 1)
        perm = rng.permutation(len(rows_c))
        val.extend(rows_c[p] for p in perm[:n_val])
    val_set = set(val)
    train = [int(r) for r in rest if int(r) not in val_set]
    return np.array(train, dtype=np.int64), np.array(sorted(val_set), dtype=np.int64)


def _grid_search(train: Dataset, val: Dataset, points, fold_seed: int) -> RfParams:
    """The grid point with the best validation AUC for one LOOCV fold.

    Ties go to the smaller forest, then to the larger min_leaf, so the
    points are scored in that order: n_trees ascending, then min_leaf
    descending.  The first point that reaches the best AUC wins, and the
    search stops at the first AUC of 1, which no later point can beat.
    A one-point grid needs no search, and a single-class validation set
    scores every point 0.5; either way no grid tree is grown and the
    first point in that order is chosen.

    The grid's trees grow in segments [a, b), from 0 to the smallest grid
    n_trees and then between consecutive grid n_trees values.  Tree t is
    seeded with fold_seed + t alone (see rf_train), so segment [a, b) at
    min_leaf m is exactly trees a..b-1 of every min_leaf m forest of b or
    more trees.  A segment's min_leaf forests share one seeded set of
    generators, bootstrap rows and draw lists: each grid tree is seeded
    and bootstrapped once, and each of its feature subsets is drawn once,
    however many min_leaf values replay it; one segment's set is alive at
    a time.  Each min_leaf keeps the running sum of its trees' validation
    votes (the grid is a product, so every min_leaf has a point at every
    n_trees); votes are 0, 0.5 or 1, so that sum over n_trees is exactly
    rf_predict of the n_trees forest.
    """
    order = sorted(set(points), key=lambda p: (p.n_trees, -p.min_leaf))
    if len(order) == 1 or len(np.unique(val.y)) < 2:
        return order[0]
    vote_sums = dict.fromkeys({p.min_leaf for p in order}, 0.0)
    best, best_auc, start, stop = order[0], -1.0, 0, 0
    for p in order:
        if p.n_trees > stop:  # the next segment: free the last one's generators, seed its own
            seeded = None
            start, stop = stop, p.n_trees
            seeded = _seed_trees(train.n, range(fold_seed + start, fold_seed + stop))
        segment = RfParams(stop - start, p.min_leaf)
        model = rf_train(train, segment, fold_seed + start, _seeded=seeded)
        vote_sums[p.min_leaf] += np.array(
            [[tree_vote(t, row) for row in val.X] for t in model.trees]
        ).sum(axis=0)
        auc = compute_auc(vote_sums[p.min_leaf] / p.n_trees, val.y)
        if auc > best_auc:
            best, best_auc = p, auc
        if best_auc == 1.0:
            break
    return best


# Fold i's trees are seeded fold_seed + t for t < n_trees, so no two folds
# share a tree seed as long as manifest.MAX_TREES is at most the stride.
_FOLD_SEED_STRIDE = 10007


def _fold(data: Dataset, points, seed: int, i: int) -> tuple[float, FoldAudit]:
    """Fold i of LOOCV: (row i's held-out score, the fold's audit).  Its split,
    grid search and refit see only the other rows; of row i it reads only
    data.X[i], to score it.  It depends on its arguments alone."""
    fold_seed = seed + i * _FOLD_SEED_STRIDE
    rest = np.delete(np.arange(data.n), i)
    train_idx, val_idx = _stratified_split(data.y, rest, np.random.default_rng(fold_seed))
    train, val, refit = data.subset(train_idx), data.subset(val_idx), data.subset(rest)
    chosen = _grid_search(train, val, points, fold_seed)
    score = rf_predict(rf_train(refit, chosen, fold_seed), data.X[i])
    return score, FoldAudit(data.ids[i], train.ids, val.ids, refit.ids, chosen)


def loocv(data: Dataset, grid: dict, seed: int) -> EvalReport:
    """Leave-one-out evaluation with an inner 80/20 search of the
    {'n_trees': [...], 'min_leaf': [...]} grid per fold.

    The held-out row never touches tree growth or hyperparameter selection
    for its own fold; fold i (_fold) is seeded seed + i * _FOLD_SEED_STRIDE
    so folds can be computed in any order.  Each fold's grid search
    (_grid_search) scores the grid's points in tie-break order and stops
    at the first validation AUC of 1, growing no tree past that point; it
    seeds and bootstraps each tree it grows once and draws each of its
    feature subsets once, for all the grid's min_leaf forests.  It grows
    no tree when the grid has one point or the fold's validation rows
    hold a single class, so then the fold grows only its refit forest.
    """
    if data.n < 3:
        raise TooFewRows(f"LOOCV needs at least 3 rows, got {data.n}")
    if len(np.unique(data.y)) < 2:
        raise SingleClass("LOOCV needs both classes")
    points = expand_grid(grid)
    scores, audits = zip(*(_fold(data, points, seed, i) for i in range(data.n)))
    confusion = confusion_matrix(scores, data.y)
    accuracy = float((confusion[0, 0] + confusion[1, 1]) / data.n)
    return EvalReport(
        auc=compute_auc(scores, data.y),
        accuracy=accuracy,
        confusion=confusion,
        per_patient_scores=tuple((p, s, int(y)) for p, s, y in zip(data.ids, scores, data.y)),
        folds=audits,
    )
