import numpy as np
import pytest

from kdalign import kernels
from kdalign.ot import SCALING_RANGE, sinkhorn
from oracles import exhaustive_best_split, pairwise_sq_dists, sinkhorn_log_reference


def _sinkhorn_inputs(rng, s, m):
    C = rng.uniform(0.0, 4.0, size=(s, m))
    eps = 0.1 * C.mean()
    mu = np.full(s, 1.0 / s)
    nu = np.full(m, 1.0 / m)
    return -C / eps, np.log(mu), np.log(nu), mu, nu


def _random_problem(rng):
    """A random s x m problem with non-uniform marginals and an epsilon
    ranging from sharp (slow to converge) to smooth."""
    s, m = int(rng.integers(1, 12)), int(rng.integers(1, 301))
    C = rng.uniform(0.0, 4.0, size=(s, m))
    eps = float(rng.choice([0.02, 0.1, 1.0])) * C.mean()
    mu = rng.dirichlet(np.ones(s) * 2.0)
    nu = rng.dirichlet(np.ones(m) * 2.0)
    return -C / eps, np.log(mu), np.log(nu), mu, nu


class TestSinkhornParity:
    def test_forced_coupling(self):
        M, lmu, lnu, mu, nu = _sinkhorn_inputs(np.random.default_rng(0), 1, 1)
        plan, iters, rr, rc = kernels.sinkhorn_log(M, lmu, lnu, mu, nu, 100, 1e-12)
        assert plan[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert rr <= 1e-12 and rc <= 1e-12

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_reference_loop(self, seed):
        # Same plan bits, iteration count and row residual as the loop that
        # re-checks both residuals on a fresh plan every iteration; the column
        # residual is read off the potentials, so it may differ by rounding.
        args = _random_problem(np.random.default_rng(seed))
        for tol in (1e-3, 1e-6, 1e-9):
            for max_iter in (5, 50, 500):
                plan, iters, res_row, res_col = kernels.sinkhorn_log(*args, max_iter, tol)
                ref_plan, ref_iters, ref_row, ref_col = sinkhorn_log_reference(*args, max_iter, tol)
                assert np.array_equal(plan, ref_plan), (tol, max_iter)
                assert iters == ref_iters, (tol, max_iter)
                assert res_row == ref_row, (tol, max_iter)
                assert abs(res_col - ref_col) <= 1e-14, (tol, max_iter)

    @pytest.mark.parametrize("seed", range(8))
    def test_zero_tolerance_stops_at_fixed_point(self, seed):
        # With tol=0 the loop stops once the potentials stop moving; every
        # later iteration of the reference reproduces the same plan.
        args = _random_problem(np.random.default_rng(1000 + seed))
        for max_iter in (5, 50, 500):
            plan, iters, _, _ = kernels.sinkhorn_log(*args, max_iter, 0.0)
            ref_plan, ref_iters, _, _ = sinkhorn_log_reference(*args, max_iter, 0.0)
            assert np.array_equal(plan, ref_plan), max_iter
            assert iters <= ref_iters

    def test_max_iter_must_be_positive(self):
        args = _sinkhorn_inputs(np.random.default_rng(1), 2, 3)
        with pytest.raises(ValueError, match="max_iter"):
            kernels.sinkhorn_log(*args, 0, 1e-6)

    @staticmethod
    def _zero_mass_problem(seed):
        rng = np.random.default_rng(50 + seed)
        s, m = 5, 9
        C = rng.uniform(0.0, 3.0, size=(s, m))
        mu = rng.dirichlet(np.ones(s))
        nu = rng.dirichlet(np.ones(m))
        mu[[1, 4]] = 0.0
        nu[[0, 3, 6, 7]] = 0.0
        mu /= mu.sum()
        nu /= nu.sum()
        return C, mu, nu, np.array([0, 2, 3]), np.array([1, 2, 4, 5, 8])

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_mass_rows_and_columns(self, seed):
        # ot.sinkhorn solves the positive-mass subproblem with the scaling
        # kernel and leaves exact zeros around it.
        C, mu, nu, rows, cols = self._zero_mass_problem(seed)
        eps = 0.1 * C.mean()
        got = sinkhorn(C, mu, nu, epsilon=eps, max_iter=500, tol=1e-9)
        sub = -C[np.ix_(rows, cols)] / eps
        ref_plan, ref_iters, ref_row, ref_col = kernels.sinkhorn_scaling(sub, mu[rows], nu[cols], 500, 1e-9)
        assert np.array_equal(got.plan[np.ix_(rows, cols)], ref_plan)
        assert not got.plan[[1, 4]].any() and not got.plan[:, [0, 3, 6, 7]].any()
        assert got.iterations == ref_iters and got.residual_row == ref_row
        assert got.residual_col == ref_col
        assert got.converged

    def test_wide_cost_range_falls_back_to_log_kernel(self):
        C, mu, nu, rows, cols = self._zero_mass_problem(0)
        sub_c = C[np.ix_(rows, cols)]
        eps = (sub_c.max() - sub_c.min()) / (SCALING_RANGE + 100.0)
        got = sinkhorn(C, mu, nu, epsilon=eps, max_iter=500, tol=1e-9)
        ref_plan, ref_iters, ref_row, ref_col = kernels.sinkhorn_log(
            -sub_c / eps, np.log(mu[rows]), np.log(nu[cols]), mu[rows], nu[cols], 500, 1e-9
        )
        assert np.array_equal(got.plan[np.ix_(rows, cols)], ref_plan)
        assert not got.plan[[1, 4]].any() and not got.plan[:, [0, 3, 6, 7]].any()
        assert got.iterations == ref_iters and got.residual_row == ref_row
        assert got.residual_col == ref_col
        assert got.converged == (ref_row <= 1e-9 and ref_col <= 1e-9)


class TestSinkhornScaling:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_reference_loop(self, seed):
        # The scaling iterations are the log-domain ones in other variables:
        # the same stop decisions, and plans equal up to rounding.
        M, log_mu, log_nu, mu, nu = _random_problem(np.random.default_rng(seed))
        for tol in (1e-3, 1e-6, 1e-9):
            for max_iter in (5, 50, 500):
                plan, iters, _, _ = kernels.sinkhorn_scaling(M, mu, nu, max_iter, tol)
                ref_plan, ref_iters, _, _ = sinkhorn_log_reference(M, log_mu, log_nu, mu, nu, max_iter, tol)
                assert iters == ref_iters, (tol, max_iter)
                assert np.abs(plan - ref_plan).max() <= 1e-13, (tol, max_iter)

    @pytest.mark.parametrize("seed", range(3))
    def test_widest_scaling_range_stays_finite(self, seed):
        # Cost ranges just inside ot.SCALING_RANGE, with marginals spread
        # over many decades, on the widest plan shape a workload solves.
        rng = np.random.default_rng(300 + seed)
        s, m = 11, 2048
        C = rng.uniform(0.0, 1.0, size=(s, m))
        M = -(C - C.min()) / (C.max() - C.min()) * rng.uniform(550.0, SCALING_RANGE)
        mu = rng.dirichlet(np.full(s, 0.2))
        nu = rng.dirichlet(np.full(m, 0.2))
        assert (mu > 0).all() and (nu > 0).all()
        tol = 1e-3
        plan, iters, res_row, res_col = kernels.sinkhorn_scaling(M, mu, nu, 1000, tol)
        _, ref_iters, ref_row, ref_col = kernels.sinkhorn_log(M, np.log(mu), np.log(nu), mu, nu, 1000, tol)
        assert np.isfinite(plan).all() and np.isfinite([res_row, res_col]).all()
        assert iters == ref_iters < 1000
        assert res_row <= tol and res_col <= tol
        assert ref_row <= tol and ref_col <= tol

    def test_max_iter_must_be_positive(self):
        M, _, _, mu, nu = _sinkhorn_inputs(np.random.default_rng(1), 2, 3)
        with pytest.raises(ValueError, match="max_iter"):
            kernels.sinkhorn_scaling(M, mu, nu, 0, 1e-6)


class TestPairwiseParity:
    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        got = pairwise_sq_dists(a, b)
        for i in range(3):
            for j in range(4):
                expected = sum((a[i, k] - b[j, k]) ** 2 for k in range(5))
                assert got[i, j] == pytest.approx(expected, rel=1e-12)


class TestSplitScan:
    @pytest.mark.parametrize("seed", range(10))
    def test_against_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        values = np.sort(np.round(rng.normal(size=n), 2))
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        min_leaf = int(rng.integers(1, 4))
        idx, imp = kernels.best_split_scan(values, labels, min_leaf, np.ones(n))
        threshold, expected_imp = exhaustive_best_split(values, labels, min_leaf)
        if threshold is None:
            assert idx == -1
        else:
            assert imp == pytest.approx(expected_imp, abs=1e-12)
            assert (values[idx] + values[idx + 1]) / 2.0 == pytest.approx(threshold)

    def test_no_valid_split(self):
        values = np.array([1.0, 1.0, 1.0])
        labels = np.array([0.0, 1.0, 0.0])
        idx, imp = kernels.best_split_scan(values, labels, 1, np.ones(3))
        assert idx == -1 and imp == np.inf

    @staticmethod
    def _weighted_and_expanded(values, labels, weights, min_leaf):
        """(impurity bits, threshold bits) of the weighted scan and of the
        unweighted scan of the rows repeated by their weights; None for no split."""
        out = []
        for v, lab, w in ((values, labels, weights),
                          (values.repeat(weights), labels.repeat(weights), np.ones(weights.sum()))):
            idx, imp = kernels.best_split_scan(v, lab, min_leaf, w)
            out.append(None if idx < 0 else (imp.hex(), ((v[idx] + v[idx + 1]) / 2.0).hex()))
        return out

    @pytest.mark.parametrize("seed", range(40))
    def test_weighted_rows_scan_like_their_expansion(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        values = np.sort(rng.integers(0, 6, size=n)).astype(np.float64)  # runs of ties
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        weights = rng.integers(1, 5, size=n)
        min_leaf = int(rng.integers(1, weights.sum() // 2 + 2))  # up to no valid split
        weighted, expanded = self._weighted_and_expanded(values, labels, weights, min_leaf)
        assert weighted == expanded

    @pytest.mark.parametrize(
        "values,weights,min_leaf,splits",
        [([0, 1, 2], [3, 2, 3], 3, True),  # both sides exactly min_leaf
         ([0, 0, 1, 1, 2], [2, 1, 1, 3, 1], 4, False),  # the only min_leaf split is in a tie
         ([0, 1], [1, 1], 2, False),  # total weight below 2 * min_leaf
         ([1, 1, 1], [2, 2, 2], 1, False)],  # one value only
    )
    def test_weighted_edges(self, values, weights, min_leaf, splits):
        values, weights = np.array(values, dtype=np.float64), np.array(weights)
        labels = (np.arange(len(values)) % 2).astype(np.float64)
        weighted, expanded = self._weighted_and_expanded(values, labels, weights, min_leaf)
        assert weighted == expanded
        assert (weighted is not None) == splits
