import dataclasses
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from kdalign import kernels
from kdalign import train as train_module
from kdalign.autodiff import ParamSet, Tape, bind_params
from kdalign.config import KnowEncoderConfig, ModelConfig, OtConfig, TrainConfig, load_config
from kdalign.encoders import (
    bce_loss_tape,
    embed_width,
    encode_tape,
    forward_scores,
    init_encoder,
    init_head,
    score_tape,
)
from kdalign.errors import ConfigError, DataError, NumericError
from kdalign.evaluate import Dataset, split_dataset
from kdalign.gcn import NODE_TYPES
from kdalign.ot import cost_matrix_tape
from kdalign.train import (
    MAGIC,
    Adam,
    ModelCheckpoint,
    infer,
    load_checkpoint,
    save_checkpoint,
    train,
)
from oracles import (
    adam_per_tensor,
    checkpoints_equal,
    cost_matrix,
    grad_check,
    sinkhorn_tape,
    uniform_marginals,
)

REFERENCE_INI = Path(__file__).resolve().parent.parent / "configs" / "synthetic.ini"


def toy_split(seed=0, n=400, with_rule_cluster=True):
    rng = np.random.default_rng(seed)
    n_anom = 40
    normals = rng.normal(0, 1, size=(n - n_anom, 3))
    anoms = rng.normal(0, 1, size=(n_anom, 3)) + np.array([4.0, 0.0, 0.0])
    X = np.vstack([normals, anoms])
    y = np.r_[np.zeros(n - n_anom, dtype=int), np.ones(n_anom, dtype=int)]
    order = rng.permutation(n)
    data = Dataset(X[order], y[order], ["a", "b", "c"])
    return split_dataset(data, [], k_labeled=10, seed=seed)


def small_model(h=4, **kwargs):
    return ModelConfig(hidden=(8, h), **kwargs)


def fast_config(**kwargs):
    defaults = dict(epochs=3, batch_size=64, learning_rate=0.01, seed=0, patience=5)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def with_crc(body: bytes) -> bytes:
    """A checkpoint body followed by its valid checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


class TestCheckpointIO:
    def roundtrip(self, ck, tmp_path):
        path = tmp_path / "model.kdal"
        save_checkpoint(ck, path)
        return load_checkpoint(path)

    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = small_model()
        params = init_encoder(model, 3, rng)
        params.update(init_head(model, rng))
        for name in params:
            params[name] = rng.normal(size=params[name].shape)
        params["norm/mean"] = rng.normal(size=(1, 3))
        params["norm/std"] = rng.uniform(0.5, 2.0, size=(1, 3))
        ck = ModelCheckpoint(params=params, seed=7, model=model, e_f=rng.normal(size=(5, 4)))
        again = self.roundtrip(ck, tmp_path)
        assert checkpoints_equal(again, ck)
        for name in ck.params:
            assert (again.params[name] == ck.params[name]).all()
        assert (again.e_f == ck.e_f).all()

    def test_version_4_metadata_is_pinned(self, tmp_path):
        # each section is stored as its whole field dict, under its section name
        params = {"enc/w0": np.zeros((1, 2)), "enc/b0": np.zeros((1, 2)),
                  "head/w0": np.zeros((2, 1)), "head/b0": np.zeros((1, 1)),
                  "norm/mean": np.zeros((1, 1)), "norm/std": np.ones((1, 1))}
        params.update({f"know_encoder/layer0/{t}": np.zeros((5, 2)) for t in NODE_TYPES})
        ck = ModelCheckpoint(
            params=params,
            seed=3,
            model=ModelConfig(hidden=(2,), dropout_first=0.25),
            know_encoder=KnowEncoderConfig(layers=1, steps=7),
            e_f=np.zeros((1, 2)),
        )
        path = tmp_path / "model.kdal"
        save_checkpoint(ck, path)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC + struct.pack("<I", 4)
        assert raw == with_crc(raw[:-4])
        (length,) = struct.unpack("<Q", raw[8:16])
        tensors = ", ".join(
            f'{{"cols": {c}, "name": "{n}", "rows": {r}}}'
            for n, r, c in [
                ("enc/b0", 1, 2), ("enc/w0", 1, 2), ("head/b0", 1, 1), ("head/w0", 2, 1),
                ("know_encoder/layer0/and", 5, 2), ("know_encoder/layer0/global", 5, 2),
                ("know_encoder/layer0/leaf", 5, 2), ("know_encoder/layer0/or", 5, 2),
                ("norm/mean", 1, 1), ("norm/std", 1, 1), ("E_F", 1, 2),
            ]
        )
        assert raw[16 : 16 + length].decode() == (
            '{"know_encoder": {"and_reg": 0.1, "eval_every": 20, "hidden": 16, '
            '"layers": 1, "learning_rate": 0.05, "margin": 1.0, "or_reg": 0.1, "seed": 0, '
            '"steps": 7, "val_pairs": 4}, '
            '"model": {"blocks": 2, "dropout_first": 0.25, "dropout_second": 0.0, '
            '"head_hidden": [], "hidden": [2], "kind": "mlp", "main_dim": 32, '
            '"transform": "sigmoid"}, "seed": 3, "tensors": [' + tensors + "]}"
        )
        assert checkpoints_equal(load_checkpoint(path), ck)

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "model.kdal"
        ck = ModelCheckpoint(params={"w": np.ones((2, 2))}, seed=0)
        save_checkpoint(ck, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "model.kdal"
        save_checkpoint(ModelCheckpoint(params={"w": np.ones((2, 2))}, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.kdal"
        save_checkpoint(ModelCheckpoint(params={"w": np.ones((4, 4))}, seed=0), path)
        body = path.read_bytes()[:-4]
        path.write_bytes(with_crc(body[: len(body) - 10]))
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_tensor_metadata_mismatch(self, tmp_path):
        path = tmp_path / "model.kdal"
        save_checkpoint(ModelCheckpoint(params={"w": np.ones((2, 3))}, seed=0), path)
        body = bytearray(path.read_bytes()[:-4])
        # flip the tensor-table name ("w" -> "v") so it disagrees with metadata
        idx = body.rindex(b"w")
        body[idx] = ord("v")
        path.write_bytes(with_crc(bytes(body)))
        with pytest.raises(DataError, match="does not match metadata"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.kdal"
        save_checkpoint(ModelCheckpoint(params={"w": np.ones((2, 2))}, seed=0), path)
        path.write_bytes(with_crc(path.read_bytes()[:-4] + b"x"))
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_every_changed_byte_is_a_data_error(self, tmp_path):
        path = tmp_path / "model.kdal"
        save_checkpoint(ModelCheckpoint(params={"w": np.ones((2, 2))}, seed=0), path)
        raw = path.read_bytes()
        for pos in range(len(raw)):
            changed = bytearray(raw)
            changed[pos] ^= 0x01
            path.write_bytes(bytes(changed))
            with pytest.raises(DataError, match="magic|version|checksum"):
                load_checkpoint(path)


class TestAdam:
    def test_matches_reference_formula(self):
        params = ParamSet({"w": np.array([[1.0, -2.0]])})
        opt = Adam(params, lr=0.1)
        g = np.array([[0.5, -1.0]])
        m = v = np.zeros((1, 2))
        w = np.array([[1.0, -2.0]])
        for t in range(1, 4):
            params.grads["w"][...] = g
            opt.step(params)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            w = w - 0.1 * mh / (np.sqrt(vh) + 1e-8)
            np.testing.assert_allclose(params.values["w"], w, atol=1e-15)


    def test_bytes_equal_the_per_tensor_loop(self):
        rng = np.random.default_rng(5)
        shapes = {"enc/w0": (4, 32), "enc/b0": (1, 32), "enc/w1": (32, 16), "enc/b1": (1, 16),
                  "head/w0": (16, 1), "head/b0": (1, 1)}
        init = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        steps = [
            {k: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2) for k, shape in shapes.items()}
            for _ in range(6)
        ]
        steps[2]["enc/b1"][...] = 0.0  # a tensor the loss does not reach keeps a zero gradient
        params = ParamSet(init)
        opt = Adam(params, lr=0.01)
        for grads in steps:
            params.zero_grads()
            for k, g in grads.items():
                params.grads[k][...] = g
            opt.step(params)
        want = adam_per_tensor(init, steps, lr=0.01)
        for k in shapes:
            assert params.values[k].tobytes() == want[k].tobytes(), k


class TestTrainLoop:
    def test_deterministic_checkpoints(self):
        split = toy_split()
        model = small_model()
        ck1, log1 = train(split, model, None, fast_config())
        ck2, log2 = train(split, model, None, fast_config())
        assert checkpoints_equal(ck1, ck2)
        assert [r.total for r in log1] == [r.total for r in log2]

    def test_lambda_zero_bit_equals_ot_disabled(self):
        # lambda = 0 with E_F trains exactly as a run without knowledge
        split = toy_split()
        model = small_model()
        e_f = np.random.default_rng(5).normal(size=(3, embed_width(model)))
        ck_zero, log_zero = train(split, model, e_f, fast_config(rule_weight=0.0))
        ck_off, log_off = train(split, model, None, fast_config(rule_weight=1.0))
        assert checkpoints_equal(ck_zero, dataclasses.replace(ck_off, e_f=e_f))
        assert [r.l_p for r in log_zero] == [r.l_p for r in log_off]
        assert all(r.l_ot == 0.0 for r in log_zero)

    def test_log_records_each_epochs_sinkhorn_solves(self, monkeypatch):
        split = toy_split()
        model = small_model()
        e_f = np.random.default_rng(5).normal(size=(3, embed_width(model)))
        plans = []
        solve = train_module.sinkhorn
        monkeypatch.setattr(train_module, "sinkhorn", lambda *a, **k: plans.append(solve(*a, **k)) or plans[-1])
        # at 50 iterations the last two epochs each leave one of 5 solves unconverged
        _, log = train(split, model, e_f, fast_config(rule_weight=1.0), OtConfig(max_iter=50))
        steps = len(plans) // len(log)
        for record, start in zip(log, range(0, len(plans), steps)):
            epoch = plans[start : start + steps]
            assert record.sinkhorn_iters_mean == sum(p.iterations for p in epoch) / steps
            assert record.sinkhorn_iters_max == max(p.iterations for p in epoch)
            assert record.sinkhorn_nonconverged == sum(not p.converged for p in epoch)
        assert [r.sinkhorn_nonconverged for r in log] == [0, 1, 1]
        assert list(json.loads(log[0].to_json())) == [
            "epoch", "L_P", "L_OT", "total", "val_auprc",
            "sinkhorn_iters_mean", "sinkhorn_iters_max", "sinkhorn_nonconverged",
        ]
        _, log_zero = train(split, model, e_f, fast_config(rule_weight=0.0))
        assert [json.loads(r.to_json())["sinkhorn_iters_max"] for r in log_zero] == [0, 0, 0]
        assert {(r.sinkhorn_iters_mean, r.sinkhorn_iters_max, r.sinkhorn_nonconverged)
                for r in log_zero} == {(0, 0, 0)}

    def test_ot_changes_trajectory(self):
        split = toy_split()
        model = small_model()
        e_f = np.random.default_rng(5).normal(size=(3, embed_width(model)))
        ck_base, _ = train(split, model, e_f, fast_config(rule_weight=0.0))
        ck_ot, log_ot = train(split, model, e_f, fast_config(rule_weight=1.0))
        assert not checkpoints_equal(ck_base, ck_ot)
        assert all(r.l_ot > 0.0 for r in log_ot)

    def test_loss_decreases_on_separable_data(self):
        split = toy_split(seed=1)
        model = small_model()
        e_f = np.random.default_rng(2).normal(size=(2, embed_width(model)))
        cfg = fast_config(epochs=20, rule_weight=0.1, learning_rate=0.02, patience=50)
        _, log = train(split, model, e_f, cfg)
        totals = np.array([r.total for r in log])
        smooth = np.convolve(totals, np.ones(3) / 3, mode="valid")
        assert smooth[-1] < smooth[0]
        drops = np.diff(smooth) <= 1e-6
        assert drops.mean() > 0.8  # strictly decreasing after smoothing, small wiggle allowed

    def test_best_checkpoint_matches_logged_curve(self):
        split = toy_split(seed=2)
        model = small_model()
        cfg = fast_config(epochs=8, patience=100)
        ck, log = train(split, model, None, cfg)
        best_epoch = int(np.argmax([r.val_auprc for r in log])) + 1
        # retrain stopping exactly at the best epoch and compare parameters
        ck_short, _ = train(split, model, None, fast_config(epochs=best_epoch, patience=100))
        for name in ck.params:
            np.testing.assert_array_equal(ck.params[name], ck_short.params[name])

    def test_early_stopping_honors_patience(self):
        split = toy_split(seed=3)
        model = small_model()
        cfg = fast_config(epochs=50, patience=2, learning_rate=0.0)
        _, log = train(split, model, None, cfg)
        # zero learning rate: epoch 1 is the best; stop after patience more epochs
        assert len(log) == 3

    def test_nan_loss_aborts(self):
        split = toy_split(seed=4)
        split.data.X[split.train_idx[0], 0] = np.nan
        model = small_model()
        with pytest.raises(NumericError, match="non-finite"):
            train(split, model, None, fast_config(standardize=False))

    def test_log_domain_fallback_trains_like_scaling(self, monkeypatch):
        # With the scaling threshold at 0 every OT solve takes the log-domain
        # kernel; the two kernels differ only in rounding.
        split = toy_split()
        model = small_model()
        e_f = np.random.default_rng(5).normal(size=(3, embed_width(model)))
        log_calls = []
        log_kernel = kernels.sinkhorn_log
        monkeypatch.setattr(kernels, "sinkhorn_log", lambda *args: log_calls.append(1) or log_kernel(*args))
        _, log_scaling = train(split, model, e_f, fast_config(rule_weight=1.0))
        assert not log_calls
        monkeypatch.setattr("kdalign.ot.SCALING_RANGE", 0.0)
        _, log_fallback = train(split, model, e_f, fast_config(rule_weight=1.0))
        assert log_calls
        assert [r.epoch for r in log_fallback] == [r.epoch for r in log_scaling]
        for got, want in zip(log_fallback, log_scaling):
            for field in ("l_p", "l_ot", "total", "val_auprc"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=0.0), field

    def test_sinkhorn_failure_rate_aborts(self):
        split = toy_split(seed=5)
        model = small_model()
        e_f = np.random.default_rng(1).normal(size=(4, embed_width(model)))
        ot = OtConfig(max_iter=1, tol=1e-14, epsilon_scale=0.001)
        with pytest.raises(NumericError, match="Sinkhorn failed"):
            train(split, model, e_f, fast_config(rule_weight=1.0), ot)

    def test_loss_head_mismatch_rejected(self):
        split = toy_split()
        with pytest.raises(ConfigError, match="sigmoid"):
            train(split, small_model(transform="raw"), None, fast_config())
        with pytest.raises(ConfigError, match="raw"):
            train(split, small_model(), None, fast_config(loss="deviation"))

    def test_deviation_loss_variant_trains(self):
        split = toy_split(seed=6)
        model = small_model(transform="raw")
        ck, log = train(split, model, None, fast_config(loss="deviation", epochs=2))
        assert len(log) == 2
        scores = infer(ck, split.data.X[split.test_idx])
        assert np.isfinite(scores).all()


class TestInfer:
    def test_empty_input(self):
        split = toy_split()
        model = small_model()
        ck, _ = train(split, model, None, fast_config(epochs=1))
        assert infer(ck, np.zeros((0, 3))).shape == (0,)

    def test_idempotent(self):
        split = toy_split()
        model = small_model()
        ck, _ = train(split, model, None, fast_config(epochs=1))
        X = split.data.X[split.test_idx]
        a, b = infer(ck, X), infer(ck, X)
        assert (a == b).all()

    def test_matches_eval_forward_with_best_params(self):
        split = toy_split()
        model = small_model()
        ck, _ = train(split, model, None, fast_config(epochs=2))
        X = split.train_features()
        scores = infer(ck, X)
        detector = ParamSet(
            {k: v for k, v in ck.params.items() if k.startswith(("enc/", "head/"))}
        )
        expected = forward_scores(X, model, detector, ck.params["norm/mean"], ck.params["norm/std"])
        np.testing.assert_array_equal(scores, expected)

    def test_width_mismatch(self):
        split = toy_split()
        model = small_model()
        ck, _ = train(split, model, None, fast_config(epochs=1))
        with pytest.raises(DataError, match="width"):
            infer(ck, np.zeros((2, 5)))

    def test_knowledge_only_checkpoint_rejected(self):
        ck = ModelCheckpoint(params={"know_encoder/layer0/and": np.ones((2, 2))}, seed=0)
        with pytest.raises(DataError, match="no detector"):
            infer(ck, np.zeros((1, 2)))


class TestComposedGradient:
    def test_joint_loss_unrolled_sinkhorn(self):
        # s=2 rules, m=4 samples, h=3: full finite-difference check of
        # L_P + lambda * <C, S> with the plan unrolled through the tape
        rng = np.random.default_rng(12)
        model = ModelConfig(hidden=(5, 3))
        values = init_encoder(model, 3, rng)
        values.update(init_head(model, rng))
        params = ParamSet(values)
        X = rng.normal(size=(4, 3))
        y = np.array([1, 0, 0, 1])
        e_f = rng.normal(size=(2, 3))
        mu, nu = uniform_marginals(2, 4)
        lam = 0.7

        # epsilon is held fixed across perturbations: the per-batch epsilon
        # recomputation is a detached scale choice, not a gradient path
        t0 = Tape()
        e0 = t0.value(encode_tape(t0, t0.leaf(X), model, bind_params(t0, params)))
        eps = 0.3 * float(cost_matrix(e_f, e0).mean())

        def build(t, ids):
            e_id = encode_tape(t, t.leaf(X), model, ids)
            s_id = score_tape(t, e_id, model, ids)
            l_p = bce_loss_tape(t, s_id, y)
            c_id = cost_matrix_tape(t, e_f, e_id)
            plan = sinkhorn_tape(t, c_id, mu, nu, eps, n_iter=40)
            l_ot = t.full_sum(t.hadamard(c_id, plan))
            return t.add(l_p, t.smul(l_ot, lam))

        report = grad_check(build, params, h=1e-6, tol=1e-3)
        assert report.passed, report.max_rel_error


class TestReferenceTapeShape:
    """One training step of the reference [model]/[train]/[ot] (mlp 32,16,
    sigmoid head, bce, sqeuclidean) records these many tape nodes; the
    benchmark pins the same counts on its reference workload."""

    @pytest.mark.parametrize("rule_weight, nodes", [(0.0, 29), (0.5, 47)])
    def test_nodes_per_step(self, monkeypatch, rule_weight, nodes):
        cfg = load_config(str(REFERENCE_INI))
        model, ot = ModelConfig(**cfg["model"]), OtConfig(**cfg["ot"])
        config = TrainConfig(**{**cfg["train"], "epochs": 1, "rule_weight": rule_weight})
        counts = []

        class CountingTape(Tape):
            def backward(self, loss):
                counts.append(len(self))
                return super().backward(loss)

        monkeypatch.setattr(train_module, "Tape", CountingTape)
        e_f = np.random.default_rng(0).normal(size=(3, embed_width(model)))
        train(toy_split(), model, e_f, config, ot)
        assert counts and set(counts) == {nodes}


class TestBatchComposition:
    def test_labeled_anomalies_filling_the_batch_rejected(self):
        model = small_model()
        with pytest.raises(ConfigError, match=r"k_labeled \(10\) must be below batch_size \(10\)"):
            train(toy_split(), model, None, fast_config(batch_size=10))

    def test_one_unlabeled_row_per_batch_trains(self):
        model = small_model()
        _, log = train(toy_split(), model, None, fast_config(batch_size=11, epochs=1))
        assert len(log) == 1
