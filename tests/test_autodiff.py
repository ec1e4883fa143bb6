import numpy as np
import pytest

from kdalign import gcn
from kdalign.autodiff import Forward, ParamSet, Tape, bind_params
from kdalign.config import KnowEncoderConfig, ModelConfig, OtConfig, TrainConfig
from kdalign.encoders import embed_width
from kdalign.errors import NumericError, ShapeError
from kdalign.evaluate import split_dataset
from kdalign.synthetic import make_synthetic
from kdalign.train import Adam, train
from oracles import grad_check


class TestForward:
    def test_matmul_identity(self):
        t = Tape()
        a = t.leaf(np.eye(2))
        b = t.leaf([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(t.value(t.matmul(a, b)), [[1, 2], [3, 4]])

    def test_relu(self):
        t = Tape()
        x = t.leaf([[-1.0], [2.0]])
        np.testing.assert_array_equal(t.value(t.relu(x)), [[0.0], [2.0]])

    def test_row_sum_of_ones(self):
        t = Tape()
        x = t.leaf(np.ones((2, 3)))
        np.testing.assert_array_equal(t.value(t.row_sum(x)), [[3.0], [3.0]])

    def test_shape_mismatch(self):
        t = Tape()
        a = t.leaf(np.ones((2, 3)))
        b = t.leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            t.add(a, b)
        with pytest.raises(ShapeError):
            t.matmul(a, a)

    def test_log_negative_raises(self):
        t = Tape()
        x = t.leaf([[-0.5]])
        with pytest.raises(NumericError):
            t.log(x)

    def test_log_of_zero_saturates(self):
        t = Tape()
        x = t.leaf([[0.0]])
        out = t.value(t.log(x))
        assert np.isfinite(out).all()

    def test_deterministic(self):
        def run():
            t = Tape()
            x = t.leaf([[0.3, -0.7], [1.1, 0.0]])
            return t.value(t.sigmoid(t.matmul(x, x)))

        a, b = run(), run()
        assert (a == b).all()


class TestForwardExecutor:
    """A Forward gives the bytes of the Tape primitive it stands for, on the
    shapes of the encoders (blocks of 1,024 rows) and of the GCN."""

    SHAPES = ((1024, 11, 32), (8, 16, 1), (1, 4, 32), (7, 13, 5))  # rows, fan-in, fan-out

    @staticmethod
    def both(fn, *arrays):
        """``fn`` run on a Tape, with the arrays as leaves, and on a Forward."""
        t = Tape()
        tape_out = t.value(fn(t, *(t.leaf(a) for a in arrays)))
        f = Forward()
        return tape_out, f.value(fn(f, *(f.leaf(a) for a in arrays)))

    @pytest.mark.parametrize("rows, fan_in, fan_out", SHAPES)
    def test_primitives_give_the_tape_bytes(self, rows, fan_in, fan_out):
        rng = np.random.default_rng(rows * fan_in)
        x, w = rng.normal(size=(rows, fan_in)), rng.normal(size=(fan_in, fan_out))
        bias, z = rng.normal(size=(1, fan_out)), rng.normal(size=(rows, fan_out))
        mask = (rng.random((rows, 1)) < 0.5).astype(np.float64)
        cases = [
            (lambda e, x, w: e.matmul(x, w), x, w),
            (lambda e, x, w, b: e.linear(x, w, b), x, w, bias),
            (lambda e, m, z: e.hadamard(e.broadcast_col(m, fan_out), z), mask, z),
            (lambda e, z, y: e.add(z, y), z, 2.0 * z[::-1]),
            (lambda e, z, y: e.hadamard(z, y), z, z[::-1]),
            (lambda e, z: e.relu(z), z),
            (lambda e, z: e.sigmoid(e.add(z, z)), 400.0 * z),
            (lambda e, x, w, b: e.relu(e.linear(x, w, b)), x, w, bias),
        ]
        for i, (fn, *arrays) in enumerate(cases):
            tape_out, fwd_out = self.both(fn, *arrays)
            assert fwd_out.shape == tape_out.shape, i
            assert fwd_out.tobytes() == tape_out.tobytes(), i

    def test_inputs_become_float64_matrices(self):
        f = Forward()
        assert f.constant(3).shape == (1, 1) and f.leaf([1, 2]).shape == (2, 1)
        value = np.ones((2, 2))
        assert f.constant(value) is value and f.leaf(value, copy=False) is value
        copied = f.leaf(value)
        value[0, 0] = 5.0
        assert copied[0, 0] == 1.0

    def test_matmul_shape_mismatch_raises_shape_error(self):
        f = Forward()
        with pytest.raises(ShapeError, match=r"matmul \(2, 3\) @ \(2, 2\)"):
            f.matmul(np.ones((2, 3)), np.ones((2, 2)))

    @pytest.mark.parametrize("rows, fan_in, fan_out", SHAPES)
    def test_one_forward_reuses_its_bias_blocks(self, rows, fan_in, fan_out):
        """A first use adds the bias row; later uses add a block of repeated
        rows, a row slice of it for a shorter input and a new block for a
        taller one; a second bias of the same shape gets its own block."""
        rng = np.random.default_rng(rows + fan_out)
        x, w = rng.normal(size=(rows, fan_in)), rng.normal(size=(fan_in, fan_out))
        first, second = rng.normal(size=(1, fan_out)), rng.normal(size=(1, fan_out))
        shorter = x[: -(-rows // 2)]
        f = Forward()
        uses = [(shorter, first), (x, first), (shorter, first)]
        uses += [(x, second), (shorter, second), (x, second)]
        for x_in, bias in uses:
            t = Tape()
            want = t.value(t.linear(t.leaf(x_in), t.leaf(w), t.leaf(bias)))
            assert f.linear(x_in, w, bias).tobytes() == want.tobytes()

    def test_tape_linear_records_matmul_broadcast_row_add(self):
        rng = np.random.default_rng(4)
        arrays = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=(1, 3))

        def run(fn):
            t = Tape()
            ids = [t.leaf(a) for a in arrays]
            loss = t.reduce_mean(t.square(fn(t, *ids)))
            adj = t.backward(loss)
            return t, [adj[i] for i in ids]

        fused, fused_grads = run(lambda t, x, w, b: t.linear(x, w, b))
        spelled, spelled_grads = run(lambda t, x, w, b: t.add(t.matmul(x, w), t.broadcast_row(b, 5)))
        assert [op for op, _, _ in fused._records[3:6]] == ["matmul", "broadcast_row", "add"]
        assert fused._records == spelled._records
        for got, want in zip(fused_grads, spelled_grads):
            assert got.tobytes() == want.tobytes()


class TestBackward:
    def test_sigmoid_at_zero(self):
        t = Tape()
        x = t.leaf([[0.0]])
        adj = t.backward(t.sigmoid(x))
        assert adj[x][0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_quadratic(self):
        t = Tape()
        x = t.leaf([[1.0], [2.0]])
        loss = t.matmul(t.transpose(x), x)
        adj = t.backward(loss)
        np.testing.assert_allclose(adj[x], [[2.0], [4.0]])

    def test_loss_must_be_scalar(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="1x1"):
            t.backward(x)

    def test_repeated_backward_identical(self):
        t = Tape()
        x = t.leaf([[0.2, -0.4]])
        loss = t.reduce_mean(t.exp(x))
        g1 = t.backward(loss)[x]
        g2 = t.backward(loss)[x]
        np.testing.assert_array_equal(g1, g2)

    def test_backward_does_not_touch_forward_values(self):
        t = Tape()
        x = t.leaf([[0.5]])
        y = t.exp(x)
        before = t.value(y).copy()
        t.backward(t.reduce_mean(y))
        np.testing.assert_array_equal(t.value(y), before)

    def test_three_layer_composition_fd(self):
        rng = np.random.default_rng(11)
        params = ParamSet(
            {
                "w1": rng.normal(size=(4, 5)) * 0.5,
                "w2": rng.normal(size=(5, 3)) * 0.5,
                "w3": rng.normal(size=(3, 1)) * 0.5,
            }
        )
        x = rng.normal(size=(6, 4))

        def build(t, ids):
            h1 = t.relu(t.matmul(t.leaf(x), ids["w1"]))
            h2 = t.sigmoid(t.matmul(h1, ids["w2"]))
            return t.reduce_mean(t.matmul(h2, ids["w3"]))

        report = grad_check(build, params, h=1e-6, tol=1e-4)
        assert report.passed, report.max_rel_error


def _unary_builders(x_const):
    def with_op(op_name, post="mean"):
        def build(t, ids):
            out = getattr(t, op_name)(ids["x"])
            return t.reduce_mean(out)

        return build

    return {
        name: with_op(name)
        for name in ["exp", "relu", "sigmoid", "square", "transpose"]
    }


class TestPrimitiveGradients:
    """Central finite differences across random shapes for every primitive."""

    @pytest.mark.parametrize("seed", range(10))
    def test_unary_primitives(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        x = rng.normal(size=shape)
        params = ParamSet({"x": x})
        for name, build in _unary_builders(x).items():
            report = grad_check(build, params, tol=1e-4)
            assert report.passed, (name, report.max_rel_error)

    @pytest.mark.parametrize("seed", range(10))
    def test_log_gradient_on_positive_input(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 3.0, size=(3, 2))
        report = grad_check(lambda t, ids: t.reduce_mean(t.log(ids["x"])), ParamSet({"x": x}))
        assert report.passed

    @pytest.mark.parametrize("seed", range(10))
    def test_binary_primitives(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, m, k = (int(rng.integers(1, 5)) for _ in range(3))
        params = ParamSet(
            {"a": rng.normal(size=(n, m)), "b": rng.normal(size=(n, m)), "c": rng.normal(size=(m, k))}
        )

        cases = {
            "add": lambda t, ids: t.reduce_mean(t.add(ids["a"], ids["b"])),
            "sub": lambda t, ids: t.reduce_mean(t.sub(ids["a"], ids["b"])),
            "hadamard": lambda t, ids: t.reduce_mean(t.hadamard(ids["a"], ids["b"])),
            "matmul": lambda t, ids: t.reduce_mean(t.matmul(ids["a"], ids["c"])),
            "smul": lambda t, ids: t.reduce_mean(t.smul(ids["a"], 2.5)),
        }
        for name, build in cases.items():
            report = grad_check(build, params, tol=1e-4)
            assert report.passed, (name, report.max_rel_error)

    @pytest.mark.parametrize("seed", range(10))
    def test_reduction_and_broadcast_primitives(self, seed):
        rng = np.random.default_rng(200 + seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        params = ParamSet(
            {"a": rng.normal(size=(n, m)), "row": rng.normal(size=(1, m)), "col": rng.normal(size=(n, 1))}
        )
        cases = {
            "row_sum": lambda t, ids: t.reduce_mean(t.square(t.row_sum(ids["a"]))),
            "col_sum": lambda t, ids: t.reduce_mean(t.square(t.col_sum(ids["a"]))),
            "broadcast_row": lambda t, ids: t.reduce_mean(
                t.hadamard(t.broadcast_row(ids["row"], n), ids["a"])
            ),
            "broadcast_col": lambda t, ids: t.reduce_mean(
                t.hadamard(t.broadcast_col(ids["col"], m), ids["a"])
            ),
        }
        for name, build in cases.items():
            report = grad_check(build, params, tol=1e-4)
            assert report.passed, (name, report.max_rel_error)

    def test_exp_log_chain_tolerance(self):
        rng = np.random.default_rng(5)
        params = ParamSet({"x": rng.uniform(-1, 1, size=(3, 3))})

        def build(t, ids):
            return t.reduce_mean(t.log(t.exp(t.square(ids["x"]))))

        assert grad_check(build, params, tol=1e-3).passed


class TestGradCheckReport:
    def test_linear_map_near_exact(self):
        rng = np.random.default_rng(0)
        params = ParamSet({"w": rng.normal(size=(3, 2))})
        x = rng.normal(size=(4, 3))

        def build(t, ids):
            return t.reduce_mean(t.matmul(t.leaf(x), ids["w"]))

        report = grad_check(build, params, h=1e-6, tol=1e-10)
        assert report.passed
        assert report.worst < 1e-10

    def test_mlp_with_sigmoid_head(self):
        rng = np.random.default_rng(2)
        params = ParamSet({"w1": rng.normal(size=(3, 4)), "w2": rng.normal(size=(4, 1))})
        x = rng.normal(size=(5, 3))

        def build(t, ids):
            return t.reduce_mean(t.sigmoid(t.matmul(t.relu(t.matmul(t.leaf(x), ids["w1"])), ids["w2"])))

        report = grad_check(build, params, tol=1e-4)
        assert report.passed
        assert set(report.max_rel_error) == {"w1", "w2"}


class TestAdjointAliasing:
    """A node's first gradient contribution is stored as is, so ``add``,
    ``sub`` and ``transpose`` hand their own adjoint (or a view of it) to
    their inputs.  Accumulating a second contribution must not write through
    it.

    Each loss is <op(a), W> + <a^T + B, V> for leaves a, B, W and V.  The
    second branch is swept first: its ``add`` hands one adjoint G (equal to
    V) to the leaf B and to ``a^T``, so a's first contribution is a view of
    B's adjoint.  op(a) then adds to it, and must leave B's adjoint V.
    """

    CASES = {
        "add": (lambda t, a: t.add(a, a), (3, 2)),
        "sub": (lambda t, a: t.sub(a, a), (3, 2)),
        "hadamard": (lambda t, a: t.hadamard(a, a), (3, 2)),
        "transpose_transpose": (lambda t, a: t.add(t.transpose(t.transpose(a)), a), (3, 2)),
    }

    def _build(self, name, nodes):
        op, out_shape = self.CASES[name]
        rng = np.random.default_rng(len(name))
        w = rng.normal(size=out_shape)
        b, v = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))

        def build(t, ids):
            a = ids["a"]
            nodes["out"] = op(t, a)
            nodes["w"] = t.leaf(w)
            first = t.full_sum(t.hadamard(nodes["out"], nodes["w"]))
            nodes["b"] = t.leaf(b)
            nodes["a_t_plus_b"] = t.add(t.transpose(a), nodes["b"])
            nodes["v"] = t.leaf(v)
            second = t.full_sum(t.hadamard(nodes["a_t_plus_b"], nodes["v"]))
            return t.add(first, second)

        return build, w, v

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gradient_matches_finite_differences(self, name):
        build, _, _ = self._build(name, {})
        params = ParamSet({"a": np.random.default_rng(3).normal(size=(3, 2))})
        report = grad_check(build, params, tol=1e-6)
        assert report.passed, report.max_rel_error

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_shared_leaf_adjoints_not_overwritten(self, name):
        nodes = {}
        build, w, v = self._build(name, nodes)
        t = Tape()
        ids = bind_params(t, ParamSet({"a": np.random.default_rng(3).normal(size=(3, 2))}))
        loss = build(t, ids)
        first = t.backward(loss)
        snapshot = [None if g is None else g.copy() for g in first]
        second = t.backward(loss)
        for g1, g2 in zip(snapshot, second):
            assert (g1 is None) == (g2 is None)
            if g1 is not None:
                np.testing.assert_array_equal(g1, g2)
        leaves = {ids["a"], nodes["w"], nodes["b"], nodes["v"]}
        assert {nid for nid, g in enumerate(first) if g is not None} == leaves
        np.testing.assert_array_equal(first[nodes["b"]], v)
        np.testing.assert_array_equal(first[nodes["w"]], t.value(nodes["out"]))
        np.testing.assert_array_equal(first[nodes["v"]], t.value(nodes["a_t_plus_b"]))


class TestConstants:
    """``constant`` inputs take no gradient; the leaves' adjoints stay exact."""

    @staticmethod
    def _graph(t, x_node, w_node, v_node):
        """loss = mean(relu(x w) * v) + mean(exp(v)) + sum(x^T x)"""
        h = t.hadamard(t.relu(t.matmul(x_node, w_node)), v_node)
        gram = t.matmul(t.transpose(x_node), x_node)
        return t.add(t.add(t.reduce_mean(h), t.reduce_mean(t.exp(v_node))), t.full_sum(gram))

    def _inputs(self):
        rng = np.random.default_rng(4)
        return rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(5, 4))

    @pytest.mark.parametrize("as_constant", [("x",), ("v",), ("x", "v"), ("w", "v")])
    def test_leaf_adjoints_match_an_all_leaf_tape(self, as_constant):
        values = dict(zip("xwv", self._inputs()))
        t_leaf, t_mixed = Tape(), Tape()
        leaf_ids = {k: t_leaf.leaf(v) for k, v in values.items()}
        mixed_ids = {
            k: (t_mixed.constant(v) if k in as_constant else t_mixed.leaf(v))
            for k, v in values.items()
        }
        adj_leaf = t_leaf.backward(self._graph(t_leaf, *leaf_ids.values()))
        adj_mixed = t_mixed.backward(self._graph(t_mixed, *mixed_ids.values()))
        assert len(t_leaf) == len(t_mixed)
        for k in values:
            if k in as_constant:
                assert adj_mixed[mixed_ids[k]] is None
            else:
                got, want = adj_mixed[mixed_ids[k]], adj_leaf[leaf_ids[k]]
                assert got.tobytes() == want.tobytes()

    def test_constants_and_what_only_they_reach_get_none(self):
        x, w, v = self._inputs()
        t = Tape()
        x_id, w_id, v_id = t.constant(x), t.leaf(w), t.constant(v)
        only_const = t.exp(t.hadamard(t.matmul(x_id, t.constant(np.ones((3, 4)))), t.relu(v_id)))
        mixed = t.matmul(x_id, w_id)
        product = t.hadamard(mixed, only_const)
        loss = t.reduce_mean(product)
        adj = t.backward(loss)
        assert [nid for nid, g in enumerate(adj) if g is not None] == [w_id]
        np.testing.assert_allclose(adj[w_id], x.T @ (t.value(only_const) / 20), rtol=1e-14)

    def test_loss_no_leaf_reaches_gets_no_adjoint(self):
        t = Tape()
        t.leaf(np.ones((2, 2)))
        loss = t.reduce_mean(t.exp(t.constant(np.full((2, 2), 0.5))))
        assert t.backward(loss) == [None] * len(t)

    def test_constant_records_the_array_and_checks_its_shape(self):
        t = Tape()
        value = np.arange(6.0).reshape(2, 3)
        assert t.value(t.constant(value)) is value
        assert t.value(t.leaf(value)) is not value
        with pytest.raises(ShapeError):
            t.constant(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize(
        "value,want",
        [([1, 2], [[1.0], [2.0]]), (np.arange(3.0), [[0.0], [1.0], [2.0]]), (2.5, [[2.5]]),
         (np.array(7), [[7.0]]), (np.ones((1, 2), dtype=np.int64), [[1.0, 1.0]]),
         (np.ones((2, 1), dtype=np.float32), [[1.0], [1.0]])],
    )
    def test_constant_converts_what_is_not_a_2d_float64_array(self, value, want):
        t = Tape()
        got = t.value(t.constant(value))
        assert got.dtype == np.float64 and got.tolist() == want

    @pytest.mark.parametrize("op", ["add", "sub", "hadamard"])
    def test_elementwise_shape_errors_name_the_op_and_shapes(self, op):
        t = Tape()
        a, b = t.leaf(np.ones((2, 3))), t.constant(np.ones((3, 2)))
        with pytest.raises(ShapeError, match=rf"^{op} \(2, 3\) vs \(3, 2\)$"):
            getattr(t, op)(a, b)


class TestParamSet:
    def test_views_into_one_vector_in_the_given_order(self):
        params = ParamSet({"w": np.arange(6.0).reshape(3, 2), "b": [[6.0, 7.0]]})
        np.testing.assert_array_equal(params.vector, np.arange(8.0))
        assert list(params.values) == list(params.grads) == ["w", "b"]
        assert all(v.base is params.vector for v in params.values.values())
        assert all(g.base is params.grad_vector for g in params.grads.values())
        params.grads["b"][...] = 1.0
        np.testing.assert_array_equal(params.grad_vector, [0, 0, 0, 0, 0, 0, 1, 1])
        params.zero_grads()
        assert not params.grad_vector.any()

    def test_mappings_refuse_item_assignment(self):
        params = ParamSet({"w": np.ones((2, 2))})
        with pytest.raises(TypeError):
            params.values["w"] = np.zeros((2, 2))
        with pytest.raises(TypeError):
            params.grads["w"] = np.zeros((2, 2))

    def test_a_new_vector_rebinds_the_views(self):
        params = ParamSet({"w": np.ones((2, 2)), "b": np.ones((1, 2))})
        old = params.values["w"]
        params.vector = params.vector * 3.0
        np.testing.assert_array_equal(params.values["w"], np.full((2, 2), 3.0))
        np.testing.assert_array_equal(old, np.ones((2, 2)))
        with pytest.raises(ShapeError):
            params.vector = np.zeros(5)

    def test_copy_is_independent(self):
        rng = np.random.default_rng(1)
        params = ParamSet({"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(1, 2))})
        params.grads["w"][...] = 1.0
        twin = params.copy()
        assert twin.vector is not params.vector
        assert twin.vector.tobytes() == params.vector.tobytes()
        assert not twin.grad_vector.any()
        before = params.vector.copy()
        twin.values["w"][...] = 0.0
        np.testing.assert_array_equal(params.vector, before)
        params.vector = params.vector + 1.0
        assert not twin.values["w"].any()

    def test_empty(self):
        params = ParamSet({})
        assert params.vector.shape == params.grad_vector.shape == (0,)
        assert not params.values and not params.grads
        params.zero_grads()
        Adam(params, lr=0.1).step(params)
        assert params.copy().vector.shape == (0,)
        tape = Tape()
        assert bind_params(tape, params) == {} and len(tape) == 0


class TestBindParamsNoCopy:
    """``bind_params`` records the views into the parameter vector itself, so
    the updates must replace the vector rather than write into it."""

    def test_adam_step_leaves_a_bound_tape_unchanged(self):
        rng = np.random.default_rng(0)
        params = ParamSet({"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(1, 2))})
        tape = Tape()
        ids = bind_params(tape, params)
        before = {k: tape.value(nid).copy() for k, nid in ids.items()}
        opt = Adam(params, lr=0.1)
        for view in params.grads.values():
            view[...] = 1.0
        opt.step(params)
        for k, nid in ids.items():
            assert not np.array_equal(params.values[k], before[k])
            np.testing.assert_array_equal(tape.value(nid), before[k])

    def test_pretraining_update_leaves_bound_tapes_unchanged(self, monkeypatch):
        clauses = [(1, 2), (-1, 2), (2,), (-1, -2, 3)]
        bound = []

        def recording_bind(tape, params):
            ids = bind_params(tape, params)
            bound.append((tape, ids, {k: tape.value(nid).copy() for k, nid in ids.items()}))
            return ids

        monkeypatch.setattr(gcn, "bind_params", recording_bind)
        config = KnowEncoderConfig(steps=6, seed=3, hidden=8, eval_every=2)
        gcn.pretrain_encoder(clauses, config, 8)
        assert len(bound) > config.steps
        for tape, ids, snapshot in bound:
            for k, nid in ids.items():
                np.testing.assert_array_equal(tape.value(nid), snapshot[k])
        first, last = bound[1][2], bound[-1][2]  # bound[0]: the initial validation pass
        assert any(not np.array_equal(first[k], last[k]) for k in first)


class TestTapeSizes:
    """The tape sizes per backward that the benchmark's traced W1 run pins
    (29 nodes per λ=0 training step, 47 per λ>0 step, 524 per pretraining
    step), checked here on small inputs with the default sections."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        seen = []
        backward = Tape.backward

        def counting(tape, loss):
            seen.append(len(tape))
            return backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", counting)
        return seen

    @pytest.mark.parametrize("rule_weight, nodes", [(0.0, 29), (0.5, 47)])
    def test_training_step(self, sizes, rule_weight, nodes):
        data, _ = make_synthetic(seed=0, n_normal=300, n_direct=20, n_rule=30)
        split = split_dataset(data, [], k_labeled=10, seed=0)
        model = ModelConfig()
        e_f = np.random.default_rng(0).normal(size=(3, embed_width(model)))
        train(split, model, e_f, TrainConfig(epochs=1, rule_weight=rule_weight), OtConfig())
        assert sizes and set(sizes) == {nodes}

    def test_pretraining_step(self, sizes):
        clauses = [(1, -2), (3, -4), (-1, 5)]
        gcn.pretrain_encoder(clauses, KnowEncoderConfig(steps=3), embed_width(ModelConfig()))
        assert sizes and set(sizes) == {524}
