import warnings

import numpy as np
import pytest

from kdalign import acquisition
from kdalign.acquisition import (
    NOISE_DRAWS,
    NOISE_WIDENINGS,
    acquire_rules,
    extract_anomaly_paths,
    fit_tree,
    inject_noise,
)
from kdalign.rules import any_rule_mask, parse_rule, rule_match_mask
from kdalign.config import RulesConfig
from oracles import (
    acquire_rules_argsort,
    exhaustive_best_split,
    fit_tree_argsort,
    gini,
    tree_depth,
)


def separable_1d():
    X = np.array([[0.5], [1.0], [2.0], [4.0], [5.5], [6.0], [7.0], [8.0]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    return X, y


class TestFitTree:
    def test_gini_fifty_fifty(self):
        assert gini(np.array([0, 1, 0, 1])) == pytest.approx(0.5)

    def test_separable_single_split(self):
        X, y = separable_1d()
        tree = fit_tree(X, y, RulesConfig(max_depth=3))
        # oracle: exhaustive split search over the only feature
        threshold, _ = exhaustive_best_split(X[:, 0], y)
        assert not tree.root.is_leaf
        assert tree.root.threshold == pytest.approx(threshold)
        assert tree.root.threshold == pytest.approx((4.0 + 5.5) / 2)
        assert tree.root.left.is_leaf and tree.root.right.is_leaf
        assert tree.root.left.counts == (4, 0)
        assert tree.root.right.counts == (0, 4)

    def test_pure_input_single_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        tree = fit_tree(X, np.zeros(3, dtype=int), RulesConfig())
        assert tree.root.is_leaf

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0.5).astype(int)
        t1 = fit_tree(X, y, RulesConfig(max_depth=4, seed=9, feature_subsample=2))
        t2 = fit_tree(X, y, RulesConfig(max_depth=4, seed=9, feature_subsample=2))
        assert t1.features_used == t2.features_used

        def signature(node):
            if node.is_leaf:
                return ("leaf", node.counts)
            return (node.feature, node.threshold, signature(node.left), signature(node.right))

        assert signature(t1.root) == signature(t2.root)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 2, size=200)
        tree = fit_tree(X, y, RulesConfig(max_depth=3))
        assert tree_depth(tree.root) <= 3

    def test_feature_allowlist(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 4))
        y = (X[:, 0] > 0.8).astype(int)
        tree = fit_tree(X, y, RulesConfig(max_depth=2, feature_indices=(2, 3)))
        assert tree.features_used == (2, 3)

    def test_empty_dataset(self):
        with pytest.raises(Exception, match="nonempty"):
            fit_tree(np.zeros((0, 2)), np.zeros(0, dtype=int), RulesConfig())


def _tree_signature(node):
    """(feature, threshold bits, counts) of every node, in preorder."""
    here = (node.feature, float(node.threshold).hex(), node.counts)
    if node.is_leaf:
        return here
    return here, _tree_signature(node.left), _tree_signature(node.right)


def _tied_data(seed, n=300):
    """Columns with long runs of ties, one constant column, noisy labels."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 4, n),  # few distinct values: long runs of ties
        rng.integers(0, 12, n),
        np.round(rng.normal(size=n), 1),
        rng.normal(size=n),
        np.zeros(n),  # one value only: never splits
    ]).astype(np.float64)
    y = (((X[:, 0] >= 2) & (X[:, 2] > -0.3)) | (rng.random(n) < 0.15)).astype(int)
    return X, y, rng.integers(0, n, size=n)  # bootstrap sample: duplicated rows


TREE_GRID = pytest.mark.parametrize(
    "max_depth,min_leaf,feature_subsample,feature_indices",
    [(1, 1, 0, ()), (3, 1, 0, ()), (4, 3, 2, ()), (6, 1, 3, ()), (8, 5, 0, ()),
     (5, 2, 0, (1, 2, 4))],
)


class TestPresortedTrees:
    """Growing from presorted orders gives the trees of a fresh stable argsort
    per node, node for node, also with tied values and bootstrap duplicates,
    whether the sample is copied out or given as row weights."""

    @pytest.mark.parametrize("seed", range(5))
    @TREE_GRID
    def test_matches_argsort_per_node(
        self, seed, max_depth, min_leaf, feature_subsample, feature_indices
    ):
        X, y, sample = _tied_data(seed)
        X, y = X[sample], y[sample]
        config = RulesConfig(
            max_depth=max_depth, min_leaf=min_leaf, feature_subsample=feature_subsample,
            feature_indices=feature_indices, seed=seed,
        )
        tree = fit_tree(X, y, config)
        assert not tree.root.is_leaf
        assert _tree_signature(tree.root) == _tree_signature(fit_tree_argsort(X, y, config))

    @pytest.mark.parametrize("seed", range(5))
    @TREE_GRID
    def test_weights_over_shared_orders_match_the_copied_sample(
        self, seed, max_depth, min_leaf, feature_subsample, feature_indices
    ):
        X, y, sample = _tied_data(seed)
        config = RulesConfig(
            max_depth=max_depth, min_leaf=min_leaf, feature_subsample=feature_subsample,
            feature_indices=feature_indices, seed=seed,
        )
        orders = {f: np.argsort(X[:, f], kind="stable") for f in range(X.shape[1])}
        weights = np.bincount(sample, minlength=len(y))
        tree = fit_tree(X, y, config, weights, orders)
        assert not tree.root.is_leaf
        want = fit_tree_argsort(X[sample], y[sample], config)
        assert _tree_signature(tree.root) == _tree_signature(want)

    def test_orders_are_filled_only_for_drawn_features(self):
        X, y, _ = _tied_data(0)
        orders = {}
        tree = fit_tree(X, y, RulesConfig(feature_subsample=2, seed=3), orders=orders)
        assert sorted(orders) == list(tree.features_used)
        for f, order in orders.items():
            assert (order == np.argsort(X[:, f], kind="stable")).all()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "feature_subsample,feature_indices", [(0, ()), (2, ()), (0, (1, 2, 4))]
    )
    def test_acquire_rules_matches_trees_on_copied_samples(
        self, seed, feature_subsample, feature_indices
    ):
        X, y, _ = _tied_data(seed)
        names = [f"x{i}" for i in range(X.shape[1])]
        config = RulesConfig(
            trees=6, max_depth=6, min_leaf=2, feature_subsample=feature_subsample,
            feature_indices=feature_indices, seed=seed,
        )
        rules, provenance = acquire_rules(X, y, names, config)
        assert rules
        assert (rules, provenance) == acquire_rules_argsort(X, y, names, config)


class TestExtractPaths:
    def test_separable_yields_single_rule(self):
        X, y = separable_1d()
        tree = fit_tree(X, y, RulesConfig(max_depth=3))
        rules, provenance = extract_anomaly_paths([tree], X, y, ["x"])
        assert len(rules) == 1
        rule = rules[0]
        assert len(rule.conditions) == 1
        assert rule.conditions[0].predicate == ">"
        assert rule.conditions[0].threshold == pytest.approx(4.75)
        assert provenance[0].support == 4

    def test_all_normal_data_yields_nothing(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.zeros(30, dtype=int)
        tree = fit_tree(X, y, RulesConfig(max_depth=3))
        rules, _ = extract_anomaly_paths([tree], X, y, ["a", "b"])
        assert rules == []

    def test_identical_paths_deduplicated(self):
        X, y = separable_1d()
        tree = fit_tree(X, y, RulesConfig(max_depth=3))
        rules, _ = extract_anomaly_paths([tree, tree], X, y, ["x"])
        assert len(rules) == 1

    def test_canonicalization_matches_raw_path(self):
        # nested splits on one feature produce a single tight interval whose
        # match set equals walking the raw path
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 10, size=(300, 2))
        y = ((X[:, 0] > 6.0) & (X[:, 0] <= 8.5)).astype(int)
        tree = fit_tree(X, y, RulesConfig(max_depth=4))
        rules, _ = extract_anomaly_paths([tree], X, y, ["a", "b"])
        assert rules, "expected at least one anomaly path"
        for rule in rules:
            attrs = [c.attribute for c in rule.conditions]
            assert len(attrs) == len(set((a, c.predicate) for a, c in zip(attrs, rule.conditions)))
            mask = rule_match_mask(rule, X, {"a": 0, "b": 1})
            assert mask.any()
            assert (y[mask] == 1).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_all_right_property_on_random_datasets(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        X = rng.normal(size=(n, 3))
        y = ((X[:, 0] > 1.0) | (X[:, 1] < -1.2)).astype(int)
        rules, _ = acquire_rules(X, y, ["a", "b", "c"], RulesConfig(trees=3, max_depth=3, seed=seed))
        names = {"a": 0, "b": 1, "c": 2}
        for rule in rules:
            mask = rule_match_mask(rule, X, names)
            assert mask.any()
            assert (y[mask] == 1).all()


class TestInjectNoise:
    def setup_method(self):
        rng = np.random.default_rng(5)
        normals = rng.normal(0, 1, size=(200, 2))
        anoms_a = np.c_[rng.normal(5, 0.4, size=30), rng.normal(0, 1, size=30)]
        anoms_b = np.c_[rng.normal(0, 1, size=30), rng.normal(-5, 0.4, size=30)]
        self.X = np.vstack([normals, anoms_a, anoms_b])
        self.y = np.r_[np.zeros(200, dtype=int), np.ones(60, dtype=int)]
        self.names = ["a", "b"]
        self.rules, _ = acquire_rules(
            self.X, self.y, self.names, RulesConfig(trees=4, max_depth=2, seed=1)
        )
        assert len(self.rules) >= 2

    def test_ratio_zero_identity(self):
        out = inject_noise(self.rules, 0.0, np.random.default_rng(0), self.X, self.y, self.names)
        assert out == self.rules

    def test_ratio_one_all_modified_and_misclassifying(self):
        rules = self.rules[:5]
        out = inject_noise(rules, 1.0, np.random.default_rng(1), self.X, self.y, self.names)
        assert len(out) == len(rules)
        normals = self.y == 0
        for before, after in zip(rules, out):
            assert before != after
            mask = rule_match_mask(after, self.X, {"a": 0, "b": 1})
            assert (mask & normals).any()

    def test_ceiling_arithmetic(self):
        rules = self.rules * 3  # make 5+ rules
        rules = rules[:5]
        out = inject_noise(rules, 0.2, np.random.default_rng(2), self.X, self.y, self.names)
        modified = sum(1 for a, b in zip(rules, out) if a != b)
        assert modified == 1

    def test_noise_increases_false_positives(self):
        before = any_rule_mask(self.rules, self.X, {"a": 0, "b": 1})
        fp_before = int((before & (self.y == 0)).sum())
        out = inject_noise(self.rules, 0.5, np.random.default_rng(3), self.X, self.y, self.names)
        after = any_rule_mask(out, self.X, {"a": 0, "b": 1})
        fp_after = int((after & (self.y == 0)).sum())
        assert fp_after > fp_before

    def test_rule_that_cannot_misclassify_keeps_the_widest_perturbation(self, monkeypatch):
        # no normal rows, so every draw is rejected: some as contradictory,
        # the rest because they match no normal sample
        X = np.random.default_rng(0).normal(size=(50, 1))
        y = np.ones(50, dtype=int)
        rule = parse_rule("IF a > 0 AND a <= 0.05 THEN anomaly IS true", rule_id="r")
        tried = []

        def recording_mask(candidate, X, names):
            tried.append(candidate)
            return rule_match_mask(candidate, X, names)

        monkeypatch.setattr(acquisition, "rule_match_mask", recording_mask)
        with pytest.warns(UserWarning, match="could not make rule 'r' misclassify a normal sample"):
            (out,) = inject_noise([rule], 1.0, np.random.default_rng(4), X, y, ["a"])
        assert 0 < len(tried) < NOISE_DRAWS * (NOISE_WIDENINGS + 1)
        assert out == tried[-1] != rule
        assert [(c.attribute, c.predicate) for c in out.conditions] == [("a", ">"), ("a", "<=")]
        assert sum(a != b for a, b in zip(out.conditions, rule.conditions)) == 1

    def test_bad_ratio(self):
        with pytest.raises(ValueError, match="outside"):
            inject_noise(self.rules, 1.2, np.random.default_rng(0), self.X, self.y, self.names)
