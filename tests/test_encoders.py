import math

import numpy as np
import pytest

from kdalign import encoders
from kdalign.autodiff import Forward, ParamSet, Tape, bind_params
from kdalign.config import ModelConfig
from kdalign.encoders import (
    bce_loss_tape,
    deviation_loss_tape,
    deviation_prior,
    embed_width,
    encode_tape,
    forward_scores,
    init_encoder,
    init_head,
    score_tape,
)
from kdalign.errors import ShapeError
from oracles import grad_check


def make_params(model, input_dim, seed=0):
    rng = np.random.default_rng(seed)
    values = init_encoder(model, input_dim, rng)
    values.update(init_head(model, rng))
    return ParamSet(values)


def identity_scores(x, model, params):
    """forward_scores with the identity standardizer."""
    return forward_scores(x, model, params, np.zeros((1, x.shape[1])), np.ones((1, x.shape[1])))


def embed(x, model, params, **mode):
    """E_X of one tape; ``mode`` passes train/dropout_seed to encode_tape."""
    t = Tape()
    return t.value(encode_tape(t, t.leaf(x), model, bind_params(t, params), **mode))


class TestEncode:
    def test_embed_width(self):
        assert embed_width(ModelConfig(hidden=(6, 3), main_dim=9)) == 3
        assert embed_width(ModelConfig(kind="resnet", hidden=(6, 3), main_dim=9)) == 9

    def test_identity_mlp_reproduces_input(self):
        spec = ModelConfig(hidden=(3,))
        params = ParamSet({"enc/w0": np.eye(3), "enc/b0": np.zeros((1, 3))})
        x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        t = Tape()
        ids = bind_params(t, params)
        out = t.value(encode_tape(t, t.leaf(x), spec, ids))
        np.testing.assert_array_equal(out, x)

    def test_eval_mode_deterministic(self):
        spec = ModelConfig(kind="resnet", hidden=(8,), blocks=2, main_dim=6,
                           dropout_first=0.5, dropout_second=0.3)
        params = make_params(spec, 4, seed=1)
        x = np.random.default_rng(0).normal(size=(5, 4))
        e1, s1 = embed(x, spec, params), identity_scores(x, spec, params)
        e2, s2 = embed(x, spec, params), identity_scores(x, spec, params)
        assert (e1 == e2).all() and (s1 == s2).all()

    def test_resnet_zeroed_blocks_equal_stem(self):
        spec = ModelConfig(kind="resnet", hidden=(8,), blocks=1, main_dim=6)
        params = make_params(spec, 4, seed=2)
        params.values["enc/block0/w2"][:] = 0.0
        params.values["enc/block0/b2"][:] = 0.0
        x = np.random.default_rng(1).normal(size=(7, 4))
        e = embed(x, spec, params)
        stem = x @ params.values["enc/stem_w"] + params.values["enc/stem_b"]
        np.testing.assert_allclose(e, stem, atol=1e-12)

    def test_dropout_seed_reproducible_and_step_varying(self):
        spec = ModelConfig(kind="resnet", hidden=(8,), blocks=1, main_dim=6, dropout_first=0.5)
        params = make_params(spec, 4, seed=3)
        x = np.random.default_rng(2).normal(size=(16, 4))
        a = embed(x, spec, params, train=True, dropout_seed=7)
        b = embed(x, spec, params, train=True, dropout_seed=7)
        c = embed(x, spec, params, train=True, dropout_seed=8)
        assert (a == b).all()
        assert not (a == c).all()

    def test_width_mismatch(self):
        spec = ModelConfig(hidden=(4,))
        params = ParamSet(init_encoder(spec, 3, np.random.default_rng(0)))
        t = Tape()
        ids = bind_params(t, params)
        with pytest.raises(ShapeError):
            encode_tape(t, t.leaf(np.ones((2, 5))), spec, ids)

    def test_row_permutation_equivariance(self):
        spec = ModelConfig(hidden=(6, 3))
        params = make_params(spec, 4, seed=4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 4))
        perm = rng.permutation(9)
        e, s = embed(x, spec, params), identity_scores(x, spec, params)
        ep, sp = embed(x[perm], spec, params), identity_scores(x[perm], spec, params)
        np.testing.assert_allclose(ep, e[perm], atol=1e-12)
        np.testing.assert_allclose(sp, s[perm], atol=1e-12)

    @pytest.mark.parametrize("kind", ["mlp", "resnet"])
    def test_scoring_in_blocks_matches_one_tape(self, kind, monkeypatch):
        # 3 full blocks and a 1-row remainder, padded to a full row tile
        spec = ModelConfig(kind=kind, hidden=(8,), main_dim=16)
        params = make_params(spec, 4, seed=6)
        x = np.random.default_rng(7).normal(size=(3 * encoders.SCORE_CHUNK + 1, 4))
        blocks = identity_scores(x, spec, params)
        monkeypatch.setattr(encoders, "SCORE_CHUNK", x.shape[0])
        one_tape = identity_scores(x, spec, params)
        assert blocks.shape == (x.shape[0],)
        assert blocks.tobytes() == one_tape.tobytes()


class TestForwardScoring:
    """The encoder and head on a non-recording Forward give the bytes of a
    Tape run of the same padded block."""

    MODELS = [
        ModelConfig(kind="mlp"),
        ModelConfig(kind="mlp", transform="raw", head_hidden=(8,)),
        ModelConfig(kind="resnet", main_dim=16),
        ModelConfig(kind="resnet", main_dim=16, transform="raw", head_hidden=(8,)),
    ]

    @staticmethod
    def scores(executor, x, model, params):
        ids = bind_params(executor, params)
        e = encode_tape(executor, executor.constant(x), model, ids)
        return executor.value(score_tape(executor, e, model, ids))

    @pytest.mark.parametrize(
        "model", MODELS, ids=lambda m: f"{m.kind}-{m.transform}-{m.head_hidden}"
    )
    @pytest.mark.parametrize("rows", [1, 7, 8, 1025])
    def test_forward_equals_tape_on_a_padded_block(self, model, rows):
        params = make_params(model, 6, seed=rows)
        padded = -(-rows // encoders.ROW_ALIGN) * encoders.ROW_ALIGN
        x = np.zeros((padded, 6))
        x[:rows] = np.random.default_rng(rows + 1).normal(size=(rows, 6))
        on_tape = self.scores(Tape(), x, model, params)
        on_forward = self.scores(Forward(), x, model, params)
        assert on_forward.shape == (padded, 1)
        assert on_forward.tobytes() == on_tape.tobytes()
        if rows <= encoders.SCORE_CHUNK:  # forward_scores scores the block the same way
            assert identity_scores(x[:rows], model, params).tobytes() == on_tape[:rows, 0].tobytes()


class TestRowLocalScores:
    """With one BLAS thread, a row's score is the one it gets when scored
    alone, however many rows are scored with it."""

    COUNTS = (1, 7, 8, 9, 1023, 1024, 1025, 4097, 8193)

    @pytest.mark.parametrize("kind", ["mlp", "resnet"])
    def test_each_row_alone_equals_one_call(self, kind):
        spec = ModelConfig(kind=kind, head_hidden=(8,))
        params = make_params(spec, 11, seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(3.0, 2.0, size=(max(self.COUNTS), 11))
        mean, std = rng.normal(3.0, 1.0, size=(1, 11)), rng.uniform(0.5, 3.0, size=(1, 11))
        alone = np.array([forward_scores(row[None], spec, params, mean, std)[0] for row in x])
        for n in self.COUNTS:
            together = forward_scores(x[:n], spec, params, mean, std)
            assert together.tobytes() == alone[:n].tobytes(), n

    def test_standardizes_each_row_as_the_whole_matrix_would(self):
        spec = ModelConfig()
        params = make_params(spec, 4, seed=10)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2 * encoders.SCORE_CHUNK + 3, 4))
        mean, std = rng.normal(size=(1, 4)), rng.uniform(0.5, 2.0, size=(1, 4))
        want = identity_scores((x - mean) / std, spec, params)
        assert forward_scores(x, spec, params, mean, std).tobytes() == want.tobytes()


class TestScore:
    def test_zero_head_gives_half(self):
        head = ModelConfig(hidden=(4,))
        params = ParamSet({"head/w0": np.zeros((4, 1)), "head/b0": np.zeros((1, 1))})
        t = Tape()
        ids = bind_params(t, params)
        out = t.value(score_tape(t, t.leaf(np.random.default_rng(0).normal(size=(5, 4))), head, ids))
        np.testing.assert_array_equal(out, np.full((5, 1), 0.5))

    def test_single_row(self):
        head = ModelConfig(hidden=(3,), head_hidden=(4,))
        params = ParamSet(init_head(head, np.random.default_rng(0)))
        t = Tape()
        ids = bind_params(t, params)
        out = t.value(score_tape(t, t.leaf(np.ones((1, 3))), head, ids))
        assert out.shape == (1, 1)
        assert 0.0 < out[0, 0] < 1.0

    def test_row_locality(self):
        # score of row i is unchanged when another row is perturbed
        head = ModelConfig(hidden=(4,), head_hidden=(5,))
        params = ParamSet(init_head(head, np.random.default_rng(1)))
        rng = np.random.default_rng(2)
        e = rng.normal(size=(6, 4))
        t = Tape()
        ids = bind_params(t, params)
        base = t.value(score_tape(t, t.leaf(e), head, ids)).copy()
        e2 = e.copy()
        e2[3] += rng.normal(size=4)
        t2 = Tape()
        ids2 = bind_params(t2, params)
        out = t2.value(score_tape(t2, t2.leaf(e2), head, ids2))
        keep = [i for i in range(6) if i != 3]
        np.testing.assert_array_equal(out[keep], base[keep])
        assert out[3, 0] != base[3, 0]


class TestBce:
    def test_half_scores_give_ln2(self):
        t = Tape()
        s = t.leaf(np.full((4, 1), 0.5))
        loss = t.value(bce_loss_tape(t, s, np.array([0, 1, 0, 1])))[0, 0]
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_perfect_scores_near_zero(self):
        t = Tape()
        s = t.leaf(np.array([[1 - 1e-12], [1e-12]]))
        loss = t.value(bce_loss_tape(t, s, np.array([1, 0])))[0, 0]
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.05, 0.95, size=8)
        labels = rng.integers(0, 2, size=8)
        t = Tape()
        loss = t.value(bce_loss_tape(t, t.leaf(scores.reshape(-1, 1)), labels))[0, 0]
        expected = -sum(
            y * math.log(s + 1e-30) + (1 - y) * math.log(1 - s + 1e-30)
            for s, y in zip(scores, labels)
        ) / 8
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        spec = ModelConfig(hidden=(5, 4))
        params = make_params(spec, 3, seed=5)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)

        def build(t, ids):
            e = encode_tape(t, t.leaf(x), spec, ids)
            s = score_tape(t, e, spec, ids)
            return bce_loss_tape(t, s, y)

        report = grad_check(build, params, tol=1e-4)
        assert report.passed, report.max_rel_error


class TestDeviation:
    def test_prior_is_deterministic_per_step(self):
        assert deviation_prior(3, 10) == deviation_prior(3, 10)
        assert deviation_prior(3, 10) != deviation_prior(3, 11)

    def test_scores_at_prior_mean_give_zero(self):
        mean, std = deviation_prior(0, 0)
        t = Tape()
        s = t.leaf(np.full((5, 1), mean))
        loss = t.value(deviation_loss_tape(t, s, np.zeros(5), mean, std))[0, 0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_saturated_anomaly_contributes_zero(self):
        mean, std = deviation_prior(0, 1)
        t = Tape()
        s = t.leaf(np.array([[mean + 10.0 * std]]))
        loss = t.value(deviation_loss_tape(t, s, np.ones(1), mean, std))[0, 0]
        assert loss == 0.0

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(6)
        mean, std = deviation_prior(1, 2)
        scores = rng.normal(size=7)
        labels = rng.integers(0, 2, size=7)
        t = Tape()
        loss = t.value(
            deviation_loss_tape(t, t.leaf(scores.reshape(-1, 1)), labels, mean, std)
        )[0, 0]
        expected = 0.0
        for s, y in zip(scores, labels):
            dev = (s - mean) / std
            expected += (1 - y) * abs(dev) + y * max(0.0, 5.0 - dev)
        expected /= 7
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gradient_through_raw_head(self):
        rng = np.random.default_rng(7)
        spec = ModelConfig(hidden=(5,), transform="raw")
        params = make_params(spec, 3, seed=8)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        mean, std = deviation_prior(9, 0)

        def build(t, ids):
            e = encode_tape(t, t.leaf(x), spec, ids)
            s = score_tape(t, e, spec, ids)
            return deviation_loss_tape(t, s, y, mean, std)

        report = grad_check(build, params, tol=1e-4)
        assert report.passed, report.max_rel_error
