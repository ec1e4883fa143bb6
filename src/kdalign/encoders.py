"""Data encoders (MLP and residual) plus the scoring head and losses.

The encoder output E_X is the representation feeding the head; its width h
is the last hidden width for the MLP and the main stream width for the
residual variant.  Training-mode dropout masks derive from a counter-based
seed so a run is reproducible from its single seed; eval mode is
deterministic with dropout off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Forward, ParamSet, Tape, bind_params
from .errors import NumericError, ShapeError

if TYPE_CHECKING:  # config imports this module for the accepted strings
    from .config import ModelConfig

DEVIATION_MARGIN = 5.0
DEVIATION_PRIOR_SIZE = 5000
ENCODER_KINDS = ("mlp", "resnet")
HEAD_TRANSFORMS = ("sigmoid", "raw")  # probabilities | raw scores
LOSSES = ("bce", "deviation")  # bce needs the sigmoid head, deviation the raw one
# Rows per scoring block: a larger block makes fewer numpy calls per row, a
# smaller one keeps its few live temporaries in cache.
SCORE_CHUNK = 1024
ROW_ALIGN = 8  # scoring blocks are padded to a multiple of the BLAS gemm row tile


def embed_width(model: ModelConfig) -> int:
    """Width h of E_X: the last hidden width (mlp) or the main stream width."""
    return model.hidden[-1] if model.kind == "mlp" else model.main_dim


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(size=(fan_in, fan_out)) * np.sqrt(2.0 / (fan_in + fan_out))


def init_encoder(
    model: ModelConfig, input_dim: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    values: dict[str, np.ndarray] = {}
    if model.kind == "mlp":
        widths = [input_dim, *model.hidden]
        for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
            values[f"enc/w{i}"] = glorot(rng, fi, fo)
            values[f"enc/b{i}"] = np.zeros((1, fo))
        return values
    values["enc/stem_w"] = glorot(rng, input_dim, model.main_dim)
    values["enc/stem_b"] = np.zeros((1, model.main_dim))
    width = model.hidden[-1]
    for i in range(model.blocks):
        values[f"enc/block{i}/w1"] = glorot(rng, model.main_dim, width)
        values[f"enc/block{i}/b1"] = np.zeros((1, width))
        values[f"enc/block{i}/w2"] = glorot(rng, width, model.main_dim)
        values[f"enc/block{i}/b2"] = np.zeros((1, model.main_dim))
    return values


def init_head(model: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    values: dict[str, np.ndarray] = {}
    widths = [embed_width(model), *model.head_hidden, 1]
    for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
        values[f"head/w{i}"] = glorot(rng, fi, fo)
        values[f"head/b{i}"] = np.zeros((1, fo))
    return values


def _dropout(tape: Tape, x: int, rate: float, seed_parts: tuple[int, ...]) -> int:
    if rate <= 0.0:
        return x
    shape = tape.value(x).shape
    rng = np.random.default_rng(seed_parts)
    mask = (rng.random(shape) >= rate) / (1.0 - rate)
    return tape.hadamard(x, tape.constant(mask))


def encode_tape(
    tape: Tape | Forward,
    x_id: int,
    model: ModelConfig,
    ids: dict[str, int],
    train: bool = False,
    dropout_seed: int | tuple[int, ...] = 0,
) -> int:
    """E_X for a batch node: hidden ReLU layers, identity on the output layer."""
    cols = tape.value(x_id).shape[1]
    first = tape.value(ids["enc/w0" if model.kind == "mlp" else "enc/stem_w"])
    if cols != first.shape[0]:
        raise ShapeError(f"input width {cols} != encoder width {first.shape[0]}")
    if model.kind == "mlp":
        z = x_id
        n_layers = len(model.hidden)
        for i in range(n_layers):
            z = tape.linear(z, ids[f"enc/w{i}"], ids[f"enc/b{i}"])
            if i < n_layers - 1:
                z = tape.relu(z)
        return z
    seed = dropout_seed if isinstance(dropout_seed, tuple) else (dropout_seed,)
    z = tape.linear(x_id, ids["enc/stem_w"], ids["enc/stem_b"])
    for i in range(model.blocks):
        h = tape.linear(z, ids[f"enc/block{i}/w1"], ids[f"enc/block{i}/b1"])
        h = tape.relu(h)
        if train:
            h = _dropout(tape, h, model.dropout_first, (*seed, i, 0))
        h = tape.linear(h, ids[f"enc/block{i}/w2"], ids[f"enc/block{i}/b2"])
        if train:
            h = _dropout(tape, h, model.dropout_second, (*seed, i, 1))
        z = tape.add(z, h)
    return z


def score_tape(tape: Tape | Forward, e_id: int, model: ModelConfig, ids: dict[str, int]) -> int:
    """One score per row of E_X."""
    cols = tape.value(e_id).shape[1]
    if cols != embed_width(model):
        raise ShapeError(f"embedding width {cols} != head width {embed_width(model)}")
    z = e_id
    n_layers = len(model.head_hidden) + 1
    for i in range(n_layers):
        z = tape.linear(z, ids[f"head/w{i}"], ids[f"head/b{i}"])
        if i < n_layers - 1:
            z = tape.relu(z)
    if model.transform == "sigmoid":
        z = tape.sigmoid(z)
    return z


def bce_loss_tape(tape: Tape, scores_id: int, labels: np.ndarray) -> int:
    """Mean binary cross-entropy for probability scores in (0, 1)."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    m = tape.value(scores_id).shape[0]
    if y.shape[0] != m:
        raise ShapeError(f"{y.shape[0]} labels for {m} scores")
    y_id = tape.constant(y)
    one = tape.constant(np.ones((m, 1)))
    pos = tape.hadamard(y_id, tape.log(scores_id))
    neg = tape.hadamard(tape.sub(one, y_id), tape.log(tape.sub(one, scores_id)))
    return tape.smul(tape.reduce_mean(tape.add(pos, neg)), -1.0)


def deviation_prior(seed: int, step: int, size: int = DEVIATION_PRIOR_SIZE) -> tuple[float, float]:
    """Mean/std of the standard-normal reference scores, fixed seed per step."""
    draws = np.random.default_rng((seed, step, 0xDE7)).standard_normal(size)
    mean = float(draws.mean())
    std = float(draws.std())
    if std == 0.0:
        raise NumericError("degenerate deviation prior: zero standard deviation")
    return mean, std


def deviation_loss_tape(
    tape: Tape, scores_id: int, labels: np.ndarray, prior_mean: float, prior_std: float
) -> int:
    """Deviation loss on raw scores: inliers shrink |dev|, outliers are pushed
    past the margin m = DEVIATION_MARGIN: mean[(1-y)|dev| + y max(0, m - dev)]."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    m = tape.value(scores_id).shape[0]
    if y.shape[0] != m:
        raise ShapeError(f"{y.shape[0]} labels for {m} scores")
    mean_const = tape.constant(np.full((m, 1), prior_mean))
    dev = tape.smul(tape.sub(scores_id, mean_const), 1.0 / prior_std)
    abs_dev = tape.add(tape.relu(dev), tape.relu(tape.smul(dev, -1.0)))
    margin_term = tape.relu(tape.sub(tape.constant(np.full((m, 1), DEVIATION_MARGIN)), dev))
    y_id = tape.constant(y)
    one = tape.constant(np.ones((m, 1)))
    inlier = tape.hadamard(tape.sub(one, y_id), abs_dev)
    outlier = tape.hadamard(y_id, margin_term)
    return tape.reduce_mean(tape.add(inlier, outlier))


def forward_scores(
    X: np.ndarray, model: ModelConfig, params: ParamSet, mean: np.ndarray, std: np.ndarray
) -> np.ndarray:
    """Eval-mode scores of raw rows, standardized as ``(X - mean) / std``.

    The rows stream through in independent blocks of SCORE_CHUNK rows, so
    memory stays bounded however many rows come.  Each block is standardized
    on its own, padded with zero rows to a multiple of ROW_ALIGN and run
    through the encoder and head on one non-recording ``Forward``; the padded
    scores are dropped.  The padding makes every row go through the same BLAS
    gemm kernel: numpy sends a 1-row matmul to gemv, and gemm rounds the rows
    of a partial tile differently from a full one.  So, with one BLAS thread,
    a row's score does not depend on which other rows are scored with it.
    With more than one block, ``mean``, ``std`` and each bias are added from
    blocks of repeated rows (see ``Forward``): broadcasting cost a quarter.
    """
    scores = np.empty(len(X))
    fwd = Forward()
    ids = bind_params(fwd, params)
    shape = (-(-min(len(X), SCORE_CHUNK) // ROW_ALIGN) * ROW_ALIGN, X.shape[1])
    buf = np.empty(shape)
    tall = shape[0] if len(X) > SCORE_CHUNK else 1  # one 1xd row slices to itself
    mean, std = (np.reshape(v, (1, -1)).repeat(tall, axis=0) for v in (mean, std))
    for start in range(0, len(X), SCORE_CHUNK):
        rows = min(SCORE_CHUNK, len(X) - start)
        x = buf[: -(-rows // ROW_ALIGN) * ROW_ALIGN]
        np.divide(np.subtract(X[start : start + rows], mean[:rows], out=x[:rows]), std[:rows], out=x[:rows])
        x[rows:] = 0.0
        e = encode_tape(fwd, fwd.constant(x), model, ids)
        scores[start : start + rows] = score_tape(fwd, e, model, ids)[:rows, 0]
    return scores
