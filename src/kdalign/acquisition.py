"""Simulated rule knowledge from decision trees.

Greedy CART with Gini impurity is fit on labeled data (bootstrap resampling
across trees); every root-to-leaf path whose matching samples are all
anomalous and nonempty becomes a rule after per-feature canonicalization
(<=/> interval bounds).  A bootstrap sample enters as integer row weights
(draw counts) on the full data, as in scikit-learn's random forests, and all
trees grow from one shared stable presort per candidate feature; candidates
are ``feature_indices`` if set, overriding ``feature_subsample``.  A noise
injector shifts thresholds by quantile
offsets to produce the incompletely-correct rules used in robustness studies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import kernels
from .config import RulesConfig
from .errors import DataError
from .rules import Condition, Rule, rule_match_mask

NOISE_DRAWS = 20  # perturbation draws per widening step of inject_noise
NOISE_WIDENINGS = 5  # times inject_noise widens the offset range past 10-30


@dataclass
class TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: tuple[int, int] = (0, 0)  # (#normal, #anomaly) reaching the node

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class DecisionTree:
    root: TreeNode
    config: RulesConfig
    features_used: tuple[int, ...]


def fit_tree(
    X: np.ndarray, y: np.ndarray, config: RulesConfig,
    weights: np.ndarray | None = None, orders: dict[int, np.ndarray] | None = None,
) -> DecisionTree:
    """Greedy CART on binary labels, seeded by ``config.seed``.

    Splits minimize weighted Gini impurity over midpoints of consecutive
    distinct sorted values; ties break to the lowest feature index, then the
    lowest threshold.  Recursion stops at max_depth, pure nodes, or when
    min_leaf admits no candidate.  Candidates are ``feature_indices`` if set
    (overriding ``feature_subsample``), else a seeded ``feature_subsample``
    draw, else all features.  Integer row ``weights`` (default ones) fit the
    tree of the sample with row i repeated ``weights[i]`` times, bit for bit.
    Trees grow from presorted orders (SLIQ): ``orders`` maps a feature to the
    stable argsort of its column, is filled for missing candidates and may be
    shared by trees on one X; the root keeps the rows of positive weight, and
    a split partitions the node's orders with one boolean mask.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("fit_tree needs a nonempty 2-D feature matrix")
    if set(np.unique(y)) - {0, 1}:
        raise DataError("labels must be binary")
    rng = np.random.default_rng(config.seed)
    n_features = X.shape[1]
    if config.feature_indices:
        candidates = tuple(sorted(config.feature_indices))
        if any(f < 0 or f >= n_features for f in candidates):
            raise DataError(f"feature allowlist {candidates} out of range for d={n_features}")
    elif 0 < config.feature_subsample < n_features:
        candidates = tuple(
            sorted(rng.choice(n_features, size=config.feature_subsample, replace=False))
        )
    else:
        candidates = tuple(range(n_features))
    weights = np.ones(X.shape[0], dtype=np.int64) if weights is None else weights
    orders = {} if orders is None else orders
    w_float = weights.astype(np.float64)
    y_float = y.astype(np.float64)
    in_left = np.zeros(X.shape[0], dtype=bool)

    def build(rows: np.ndarray, orders: dict[int, np.ndarray], depth: int) -> TreeNode:
        w = weights[rows]
        n_anomalous = int(w[y[rows] == 1].sum())
        counts = (int(w.sum()) - n_anomalous, n_anomalous)
        node = TreeNode(counts=counts)
        if depth >= config.max_depth or counts[0] == 0 or counts[1] == 0:
            return node
        best = None  # (impurity, feature, threshold, split_pos)
        for f, order in orders.items():
            values = X[order, f]
            pos, impurity = kernels.best_split_scan(
                values, y_float[order], config.min_leaf, w_float[order]
            )
            if pos < 0:
                continue
            threshold = (values[pos] + values[pos + 1]) / 2.0
            if best is None or impurity < best[0]:
                best = (impurity, f, threshold, pos)
        if best is None:
            return node
        _, f, threshold, pos = best
        node.feature = f
        node.threshold = float(threshold)
        left, right = orders[f][: pos + 1], orders[f][pos + 1 :]
        left_orders, right_orders = {}, {}
        if depth + 1 < config.max_depth:  # children at max_depth only count labels
            in_left[left] = True
            for g, order in orders.items():
                goes_left = in_left[order]
                left_orders[g], right_orders[g] = order[goes_left], order[~goes_left]
            in_left[left] = False
        node.left = build(left, left_orders, depth + 1)
        node.right = build(right, right_orders, depth + 1)
        return node

    root_orders = {}
    for f in candidates:
        if f not in orders:
            orders[f] = np.argsort(X[:, f], kind="stable")
        root_orders[f] = orders[f][weights[orders[f]] > 0]
    root = build(np.flatnonzero(weights), root_orders, 0)
    return DecisionTree(root, config, candidates)


@dataclass
class PathProvenance:
    rule_id: str
    tree_index: int
    tree_seed: int
    leaf_id: int
    support: int


def _canonical_conditions(path: list[tuple[int, float, bool]], names: Sequence[str]):
    """Tightest per-feature interval over (feature, threshold, went_left)."""
    upper: dict[int, float] = {}
    lower: dict[int, float] = {}
    for feature, threshold, went_left in path:
        if went_left:  # value <= threshold
            if feature not in upper or threshold < upper[feature]:
                upper[feature] = threshold
        else:  # value > threshold
            if feature not in lower or threshold > lower[feature]:
                lower[feature] = threshold
    conditions = []
    for feature in sorted(set(upper) | set(lower)):
        if feature in lower:
            conditions.append(Condition(names[feature], ">", lower[feature]))
        if feature in upper:
            conditions.append(Condition(names[feature], "<=", upper[feature]))
    return conditions


def extract_anomaly_paths(
    trees: Sequence[DecisionTree],
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
) -> tuple[list[Rule], list[PathProvenance]]:
    """All-right anomaly paths as rules, deduplicated across trees.

    A path qualifies when the samples of (X, y) matching its canonicalized
    conjunction are nonempty and all anomalous; this is checked against the
    full data even for bootstrap-fit trees, so the all-right property holds
    by construction.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    name_to_index = {n: i for i, n in enumerate(feature_names)}
    rules: list[Rule] = []
    provenance: list[PathProvenance] = []
    seen: set[tuple[Condition, ...]] = set()
    for tree_index, tree in enumerate(trees):
        leaf_counter = 0

        def walk(node: TreeNode, path: list[tuple[int, float, bool]]):
            nonlocal leaf_counter
            if node.is_leaf:
                leaf_id = leaf_counter
                leaf_counter += 1
                if not path:
                    return
                conditions = _canonical_conditions(path, feature_names)
                candidate = Rule(f"rule_{len(rules):03d}", conditions, True)
                mask = rule_match_mask(candidate, X, name_to_index)
                support = int(mask.sum())
                if support == 0 or not (y[mask] == 1).all():
                    return
                signature = tuple(conditions)
                if signature in seen:
                    return
                seen.add(signature)
                rules.append(candidate)
                provenance.append(
                    PathProvenance(
                        candidate.rule_id,
                        tree_index,
                        tree.config.seed,
                        leaf_id,
                        support,
                    )
                )
                return
            walk(node.left, path + [(node.feature, node.threshold, True)])
            walk(node.right, path + [(node.feature, node.threshold, False)])

        walk(tree.root, [])
    return rules, provenance


def acquire_rules(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    config: RulesConfig,
) -> tuple[list[Rule], list[PathProvenance]]:
    """Fit bootstrap trees on one shared presort; extract their all-right anomaly paths."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    orders: dict[int, np.ndarray] = {}
    trees = []
    for t in range(config.trees):
        tree_seed = int(rng.integers(0, 2**31 - 1))
        weights = None  # tree 0 sees the full data
        if t > 0:
            sample = np.random.default_rng(tree_seed).integers(0, X.shape[0], size=X.shape[0])
            weights = np.bincount(sample, minlength=X.shape[0])
        trees.append(fit_tree(X, y, replace(config, seed=tree_seed), weights, orders))
    return extract_anomaly_paths(trees, X, y, feature_names)


def inject_noise(
    rules: Sequence[Rule],
    ratio: float,
    rng: np.random.Generator,
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
) -> list[Rule]:
    """Perturb ceil(ratio*s) rules so each misclassifies >= 1 normal sample.

    One condition's threshold moves by a random quantile offset (10-30
    percentiles, widened when rejected); a draw is accepted once the noisy
    rule matches at least one normal training sample.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"noise ratio {ratio} outside [0, 1]")
    rules = list(rules)
    if ratio == 0.0 or not rules:
        return rules
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    name_to_index = {n: i for i, n in enumerate(feature_names)}
    n_noisy = int(np.ceil(ratio * len(rules)))
    chosen = rng.choice(len(rules), size=n_noisy, replace=False)
    out = list(rules)
    for ridx in sorted(int(i) for i in chosen):
        rule = rules[ridx]
        accepted = None
        last = None
        for widen in range(NOISE_WIDENINGS + 1):
            hi = 30.0 + 30.0 * widen
            for _ in range(NOISE_DRAWS):
                cond_i = int(rng.integers(len(rule.conditions)))
                cond = rule.conditions[cond_i]
                col = X[:, name_to_index[cond.attribute]]
                base_q = float((col <= cond.threshold).mean()) * 100.0
                offset = float(rng.uniform(10.0, hi)) * (1.0 if rng.random() < 0.5 else -1.0)
                q = float(np.clip(base_q + offset, 0.0, 100.0))
                new_threshold = float(np.percentile(col, q))
                conds = list(rule.conditions)
                conds[cond_i] = Condition(cond.attribute, cond.predicate, new_threshold)
                try:
                    candidate = Rule(rule.rule_id, conds, rule.consequent)
                except ValueError:
                    continue  # perturbation made the antecedent unsatisfiable
                last = candidate
                mask = rule_match_mask(candidate, X, name_to_index)
                if (mask & (y == 0)).any():
                    accepted = candidate
                    break
            if accepted is not None:
                break
        if accepted is None:
            warnings.warn(
                f"could not make rule {rule.rule_id!r} misclassify a normal sample; "
                "keeping widest perturbation"
            )
            accepted = last if last is not None else rule
        out[ridx] = accepted
    return out
