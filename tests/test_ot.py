import numpy as np
import pytest

from kdalign import kernels
from kdalign.autodiff import ParamSet, Tape
from kdalign.errors import NumericError, ShapeError
from kdalign.ot import cost_matrix_tape, ot_loss_tape, sinkhorn
from oracles import (
    cost_matrix,
    exact_ot_uniform,
    grad_check,
    ot_distance,
    sinkhorn_tape,
    uniform_marginals,
)


def tape_cost(e_f, e_x, metric="sqeuclidean"):
    t = Tape()
    return t.value(cost_matrix_tape(t, e_f, t.leaf(np.asarray(e_x, dtype=np.float64)), metric))


class TestCostMatrix:
    def test_identical_rows(self):
        C = tape_cost(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
        assert C[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_three_four_five(self):
        C = tape_cost(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert C[0, 0] == pytest.approx(25.0)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 6)), rng.normal(size=(4, 6))
        C = tape_cost(a, b)
        for i in range(3):
            for j in range(4):
                assert C[i, j] == pytest.approx(((a[i] - b[j]) ** 2).sum(), rel=1e-12)

    def test_cosine(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        C = tape_cost(a, b, metric="cosine")
        np.testing.assert_allclose(C, [[1.0, 0.0, 2.0]], atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            tape_cost(np.ones((2, 3)), np.ones((2, 4)))


class TestSinkhorn:
    def test_one_by_one_forced(self):
        plan = sinkhorn(np.array([[3.7]]), np.array([1.0]), np.array([1.0]), epsilon=0.5)
        assert plan.plan[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert plan.converged
        assert plan.residual_row <= 1e-6

    def test_two_by_two_symmetry_and_limit(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        mu, nu = uniform_marginals(2, 2)
        plan = sinkhorn(C, mu, nu, epsilon=0.5).plan
        assert plan.sum() == pytest.approx(1.0, abs=1e-9)
        assert plan[0, 0] == pytest.approx(plan[1, 1], abs=1e-12)
        assert plan[0, 1] == pytest.approx(plan[1, 0], abs=1e-12)
        # small epsilon approaches the exact assignment [[0.5, 0], [0, 0.5]]
        sharp = sinkhorn(C, mu, nu, epsilon=0.01).plan
        np.testing.assert_allclose(sharp, [[0.5, 0.0], [0.0, 0.5]], atol=1e-4)

    @pytest.mark.parametrize("seed", range(10))
    def test_three_by_three_near_exact_ot(self, seed):
        rng = np.random.default_rng(seed)
        C = rng.uniform(0.5, 3.0, size=(3, 3))
        mu, nu = uniform_marginals(3, 3)
        eps = 0.01 * C.mean()
        plan = sinkhorn(C, mu, nu, epsilon=eps, max_iter=5000, tol=1e-9)
        value = ot_distance(C, plan.plan)
        exact = exact_ot_uniform(C)
        assert value == pytest.approx(exact, rel=0.02)

    @pytest.mark.parametrize("seed", range(12))
    def test_marginal_residuals(self, seed):
        rng = np.random.default_rng(100 + seed)
        s, m = int(rng.integers(2, 11)), int(rng.integers(2, 51))
        C = rng.uniform(0, 5, size=(s, m))
        mu, nu = uniform_marginals(s, m)
        for scale in (0.05, 0.1, 0.5):
            plan = sinkhorn(C, mu, nu, epsilon=scale * C.mean())
            assert plan.converged
            assert plan.residual_row <= 1e-6
            assert plan.residual_col <= 1e-6

    def test_distance_non_increasing_in_epsilon(self):
        rng = np.random.default_rng(42)
        C = rng.uniform(0.2, 4.0, size=(4, 7))
        mu, nu = uniform_marginals(4, 7)
        values = []
        for scale in (1.0, 0.3, 0.1, 0.03):
            plan = sinkhorn(C, mu, nu, epsilon=scale * C.mean(), max_iter=5000, tol=1e-10)
            values.append(ot_distance(C, plan.plan))
        for hi, lo in zip(values, values[1:]):
            assert lo <= hi + 1e-8

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(9)
        C = rng.uniform(0.1, 2.0, size=(3, 5))
        mu, nu = uniform_marginals(3, 5)
        eps = 0.2 * C.mean()
        base = sinkhorn(C, mu, nu, epsilon=eps, tol=1e-10, max_iter=2000)
        for alpha in (0.5, 3.0, 100.0):
            scaled = sinkhorn(alpha * C, mu, nu, epsilon=alpha * eps, tol=1e-10, max_iter=2000)
            np.testing.assert_allclose(scaled.plan, base.plan, atol=1e-9)
            assert ot_distance(alpha * C, scaled.plan) == pytest.approx(
                alpha * ot_distance(C, base.plan), rel=1e-8
            )

    def test_overflow_safety_large_costs(self):
        rng = np.random.default_rng(3)
        C = rng.uniform(0, 1e6, size=(5, 9))
        mu, nu = uniform_marginals(5, 9)
        plan = sinkhorn(C, mu, nu, epsilon=0.1 * C.mean())
        assert np.isfinite(plan.plan).all()
        assert plan.converged

    def test_nan_cost_rejected(self):
        C = np.array([[np.nan]])
        with pytest.raises(NumericError):
            sinkhorn(C, np.array([1.0]), np.array([1.0]), epsilon=0.1)

    def test_nonconvergence_flagged_not_raised(self):
        C = np.random.default_rng(0).uniform(0, 3, size=(4, 6))
        mu, nu = uniform_marginals(4, 6)
        plan = sinkhorn(C, mu, nu, epsilon=0.001 * C.mean(), max_iter=2)
        assert not plan.converged
        assert plan.iterations == 2

    def test_zero_mass_rows_get_zero_plan(self):
        C = np.random.default_rng(1).uniform(0, 2, size=(3, 4))
        mu = np.array([0.5, 0.0, 0.5])
        nu = np.full(4, 0.25)
        plan = sinkhorn(C, mu, nu, epsilon=0.2)
        np.testing.assert_array_equal(plan.plan[1], np.zeros(4))
        assert plan.converged

    @pytest.mark.parametrize("seed", range(5))
    def test_full_support_runs_the_scaling_kernel_on_the_whole_cost(self, seed):
        rng = np.random.default_rng(seed)
        C = rng.uniform(0, 3, size=(3, 16))
        mu = np.full(3, 1 / 3)
        nu = rng.uniform(0.5, 2.0, size=16)
        nu /= nu.sum()
        eps = 0.1 * C.mean()
        out = sinkhorn(C, mu, nu, eps, max_iter=500, tol=1e-6)
        plan, iters, _, _ = kernels.sinkhorn_scaling(-C / eps, mu, nu, 500, 1e-6)
        assert out.plan.tobytes() == plan.tobytes() and out.iterations == iters
        C[1, 4] = np.nan
        with pytest.raises(NumericError, match="NaN"):
            sinkhorn(C, mu, nu, eps)
        with pytest.raises(ValueError, match="sums to"):
            sinkhorn(np.ones((3, 16)), mu * 1.01, nu, eps)

    def test_bad_marginals_rejected(self):
        C = np.ones((2, 2))
        with pytest.raises(ValueError, match="sums to"):
            sinkhorn(C, np.array([0.5, 0.6]), np.array([0.5, 0.5]), epsilon=0.1)
        with pytest.raises(ValueError, match="negative"):
            sinkhorn(C, np.array([1.5, -0.5]), np.array([0.5, 0.5]), epsilon=0.1)
        with pytest.raises(ValueError, match="positive"):
            sinkhorn(C, *uniform_marginals(2, 2), epsilon=0.0)

    @pytest.mark.parametrize("which", ["mu", "nu"])
    def test_nan_marginal_rejected(self, which):
        # NaN passes both the < 0 and the sum tests; the plan would be all NaN
        marginals = {"mu": np.array([0.5, 0.5]), "nu": np.array([0.5, 0.5])}
        marginals[which][0] = np.nan
        with pytest.raises(ValueError, match=f"{which} has negative or NaN entries"):
            sinkhorn(np.ones((2, 2)), marginals["mu"], marginals["nu"], epsilon=0.1)


class TestDistance:
    def test_distance_examples(self):
        assert ot_distance(np.array([[7.0]]), np.array([[1.0]])) == 7.0
        assert ot_distance(np.zeros((3, 4)), np.random.default_rng(0).random((3, 4))) == 0.0

    def test_distance_scalar_oracle(self):
        rng = np.random.default_rng(5)
        C, S = rng.random((4, 6)), rng.random((4, 6))
        expected = sum(C[i, j] * S[i, j] for i in range(4) for j in range(6))
        assert ot_distance(C, S) == pytest.approx(expected, rel=1e-12)


class TestTapeSide:
    def test_cost_matrix_tape_matches_solver_side(self):
        rng = np.random.default_rng(2)
        e_f = rng.normal(size=(3, 5))
        e_x = rng.normal(size=(4, 5))
        t = Tape()
        cid = cost_matrix_tape(t, e_f, t.leaf(e_x))
        np.testing.assert_allclose(t.value(cid), cost_matrix(e_f, e_x), atol=1e-12)

    def test_unrolled_plan_matches_solver(self):
        rng = np.random.default_rng(4)
        C = rng.uniform(0.1, 2.0, size=(3, 6))
        mu, nu = uniform_marginals(3, 6)
        eps = 0.3 * C.mean()
        t = Tape()
        sid = sinkhorn_tape(t, t.leaf(C), mu, nu, eps, n_iter=200)
        reference = sinkhorn(C, mu, nu, epsilon=eps, max_iter=200, tol=0.0)
        np.testing.assert_allclose(t.value(sid), reference.plan, atol=1e-10)

    def test_unrolled_gradient_wrt_cost(self):
        rng = np.random.default_rng(6)
        C0 = rng.uniform(0.5, 2.0, size=(2, 4))
        mu, nu = uniform_marginals(2, 4)
        eps = 0.5 * C0.mean()
        params = ParamSet({"C": C0})

        def build(t, ids):
            plan = sinkhorn_tape(t, ids["C"], mu, nu, eps, n_iter=30)
            return t.full_sum(t.hadamard(ids["C"], plan))

        report = grad_check(build, params, h=1e-6, tol=1e-3)
        assert report.passed, report.max_rel_error

    def test_detached_plan_gradient_is_plan(self):
        rng = np.random.default_rng(7)
        C0 = rng.uniform(0.1, 2.0, size=(3, 5))
        S = rng.random((3, 5))
        t = Tape()
        cid = t.leaf(C0)
        loss = ot_loss_tape(t, cid, S)
        adj = t.backward(loss)
        np.testing.assert_allclose(adj[cid], S, atol=1e-15)
