"""Joint training: prediction loss plus weighted OT distance, then inference.

Every batch holds all labeled anomalies followed by the same number of
unlabeled rows, drawn by the seeded sampler, so the batch labels and the
Sinkhorn marginals are built once per run.  The OT term aligns the batch's
embeddings against the frozen knowledge embeddings E_F; its gradient reaches
the encoder through the cost matrix while the plan stays detached.  With
rule weight 0 (or no E_F) the step reduces bit-exactly to the prediction
loss.  The best-validation-AUPRC checkpoint is returned.

Checkpoint container layout (little-endian): magic "KDAL", version u32,
metadata length u64 + JSON metadata, then one entry per tensor:
name length u16 + name, rows u64, cols u64, row-major float64 data, and last
a u32 ``zlib.crc32`` of every byte before it, checked before the metadata
is read.

Version 4 JSON metadata holds ``seed``, the ``tensors`` list and one object
per section in ``SECTIONS``: ``model`` (the detector's ``[model]``) and
``know_encoder`` (the ``[know_encoder]`` of its knowledge encoder), each the
section's field dict, or null when that network is absent.  The loader reads
each dict through ``config.load_config``: it needs exactly the section's
fields, with values that pass the section's checks and re-serialise to the
stored JSON.  A detector's ``enc/*``, ``head/*`` and ``norm/*`` tensors must
be the ones ``init_encoder``/``init_head`` give its ``[model]``.  Versions 1
to 3 are rejected (3 had two ``[know_encoder]`` width keys, 2 no checksum).
"""

from __future__ import annotations

import io
import json
import math
import struct
import zlib
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .atomic import write_atomic
from .autodiff import ParamSet, Tape, accumulate_grads, bind_params
from .config import SCHEMA, KnowEncoderConfig, ModelConfig, OtConfig, TrainConfig, load_config
from .config import render_value
from .encoders import (
    bce_loss_tape,
    deviation_loss_tape,
    deviation_prior,
    encode_tape,
    forward_scores,
    init_encoder,
    init_head,
    score_tape,
)
from .errors import ConfigError, DataError, NumericError
from .evaluate import SplitDataset, auprc
from .ot import cost_matrix_tape, ot_loss_tape, sinkhorn

MAGIC = b"KDAL"
VERSION = 4
SECTIONS = ("model", "know_encoder")  # ModelCheckpoint fields stored as their section dicts
_LOG_KEYS = ("epoch", "L_P", "L_OT", "total", "val_auprc", "sinkhorn_iters_mean",
             "sinkhorn_iters_max", "sinkhorn_nonconverged")  # EpochRecord's fields in a log line


@dataclass
class EpochRecord:
    """One epoch's mean losses and validation AUPRC, and its Sinkhorn solves:
    the mean and largest iteration count and the solves that did not
    converge (all 0 when the epoch ran no OT term)."""

    epoch: int
    l_p: float
    l_ot: float
    total: float
    val_auprc: float
    sinkhorn_iters_mean: float = 0.0
    sinkhorn_iters_max: int = 0
    sinkhorn_nonconverged: int = 0

    def to_json(self) -> str:
        return json.dumps(dict(zip(_LOG_KEYS, astuple(self))))


class Adam:
    """Gradient descent with Adam-style moment estimates and constant rate,
    elementwise over the whole parameter vector."""

    def __init__(self, params: ParamSet, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params.vector)
        self.v = np.zeros_like(params.vector)

    def step(self, params: ParamSet) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        g = params.grad_vector
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        update = (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)
        params.vector = params.vector - self.lr * update


@dataclass
class ModelCheckpoint:
    params: dict[str, np.ndarray]
    seed: int
    model: ModelConfig | None = None
    know_encoder: KnowEncoderConfig | None = None
    e_f: np.ndarray | None = None


def with_knowledge_encoder(
    ck: ModelCheckpoint, config: KnowEncoderConfig, params: dict[str, np.ndarray]
) -> ModelCheckpoint:
    """``ck`` plus a copy of the knowledge encoder that produced its E_F."""
    know = {k: v.copy() for k, v in params.items() if k.startswith("know_encoder/")}
    return replace(ck, params={**ck.params, **know}, know_encoder=config)


def save_checkpoint(ck: ModelCheckpoint, path) -> None:
    tensors: list[tuple[str, np.ndarray]] = [
        (name, np.asarray(v, dtype=np.float64)) for name, v in sorted(ck.params.items())
    ]
    if ck.e_f is not None:
        tensors.append(("E_F", np.asarray(ck.e_f, dtype=np.float64)))
    sections = {name: getattr(ck, name) for name in SECTIONS}
    meta = {
        **{name: None if c is None else asdict(c) for name, c in sections.items()},
        "seed": ck.seed,
        "tensors": [
            {"name": n, "rows": int(a.shape[0]), "cols": int(a.shape[1])} for n, a in tensors
        ],
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(meta_bytes)), meta_bytes]
    for name, arr in tensors:
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, struct.pack("<QQ", *arr.shape)]
        parts.append(arr.astype("<f8").tobytes(order="C"))
    body = b"".join(parts)
    write_atomic(path, body + struct.pack("<I", zlib.crc32(body)))


def _read_exact(fh: io.BytesIO, n: int, what: str) -> bytes:
    """``n`` bytes, checked against the bytes left before reading, so that a
    corrupt length cannot ask for more memory than the file holds."""
    data = fh.read(n) if n <= len(fh.getbuffer()) - fh.tell() else b""
    if len(data) != n:
        raise DataError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path) -> ModelCheckpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    body = raw[:-4]
    with io.BytesIO(body) as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise DataError("not a KDAL checkpoint: bad magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        if zlib.crc32(body) != int.from_bytes(raw[-4:], "little"):
            raise DataError("checkpoint checksum mismatch")
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8, "metadata length"))
        meta = _metadata(_read_exact(fh, meta_len, "metadata"))
        tensors: dict[str, np.ndarray] = {}
        for entry in meta["tensors"]:
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "tensor name length"))
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8", "replace")
            rows, cols = struct.unpack("<QQ", _read_exact(fh, 16, "tensor shape"))
            if not isinstance(entry, dict) or (name, rows, cols) != (
                entry.get("name"), entry.get("rows"), entry.get("cols")
            ):
                raise DataError(
                    f"tensor {name!r} ({rows}x{cols}) does not match metadata entry {entry}"
                )
            data = _read_exact(fh, rows * cols * 8, f"tensor {name!r} data")
            tensors[name] = np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
            if not np.isfinite(tensors[name]).all():
                raise DataError(f"checkpoint tensor {name!r} holds a non-finite value")
        if fh.read(1):
            raise DataError("trailing bytes after tensor table")

    e_f = tensors.pop("E_F", None)
    ck = ModelCheckpoint(tensors, meta["seed"], e_f=e_f, **{n: _section(meta, n) for n in SECTIONS})
    if ck.model is not None:
        _check_detector(ck)
    return ck


def _section(meta: dict, name: str):
    """The [name] section stored as its field dict, read through the config
    parser; its values must re-serialise to the stored JSON."""
    stored = meta.get(name)
    if stored is None:
        return None
    keys = sorted(f.name for f in fields(SCHEMA[name]))
    if not isinstance(stored, dict) or sorted(stored) != keys:
        raise DataError(f"checkpoint {name!r} metadata needs the keys {keys}: {stored}")
    overrides = [
        (f"{name}.{k}", render_value(tuple(v) if isinstance(v, list) else v))
        for k, v in stored.items()
    ]
    try:
        section = SCHEMA[name](**load_config(None, overrides)[name])
    except ConfigError as exc:
        raise DataError(f"checkpoint metadata does not fit [{name}]: {exc}") from None
    if json.dumps(asdict(section), sort_keys=True) != json.dumps(stored, sort_keys=True):
        raise DataError(f"checkpoint {name!r} metadata {stored} does not re-serialise as written")
    return section


def _check_detector(ck: ModelCheckpoint) -> None:
    """Its enc/*, head/* and norm/* tensors are those its [model] creates."""
    if "norm/mean" not in ck.params:
        raise DataError("checkpoint detector lacks the tensor 'norm/mean'")
    width, rng = ck.params["norm/mean"].shape[1], np.random.default_rng(0)
    made = {**init_encoder(ck.model, width, rng), **init_head(ck.model, rng)}
    want = {name: value.shape for name, value in made.items()}
    want["norm/mean"] = want["norm/std"] = (1, width)
    have = {n: a.shape for n, a in ck.params.items() if n.startswith(("enc/", "head/", "norm/"))}
    for name in sorted(want.keys() | have.keys()):
        if have.get(name) != want.get(name):
            raise DataError(
                f"checkpoint tensor {name!r}: {_shape(have.get(name))} in the file, "
                f"{_shape(want.get(name))} for its [model]"
            )


def _shape(shape) -> str:
    return "x".join(map(str, shape)) if shape else "absent"


def _metadata(raw: bytes) -> dict:
    """The checkpoint's JSON metadata, checked for the keys the reader needs."""
    try:
        meta = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise DataError(f"checkpoint metadata is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise DataError("checkpoint metadata is not a JSON object")
    if not isinstance(meta.get("tensors"), list):
        raise DataError("checkpoint metadata lacks a 'tensors' list")
    if type(meta.get("seed")) is not int:
        raise DataError("checkpoint metadata lacks an integer 'seed'")
    return meta


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _standardizer(X_train: np.ndarray, enabled: bool):
    if not enabled:
        return np.zeros((1, X_train.shape[1])), np.ones((1, X_train.shape[1]))
    mean = X_train.mean(axis=0, keepdims=True)
    std = X_train.std(axis=0, keepdims=True)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def train(
    split: SplitDataset,
    model: ModelConfig,
    e_f: np.ndarray | None,
    config: TrainConfig,
    ot: OtConfig = OtConfig(),
) -> tuple[ModelCheckpoint, list[EpochRecord]]:
    """Run weakly-supervised training and return the best checkpoint + log.

    ``e_f`` is the frozen knowledge embedding set, or None to train on the
    prediction loss alone.
    """
    if config.loss == "bce" and model.transform != "sigmoid":
        raise ConfigError("bce loss needs the sigmoid head transform")
    if config.loss == "deviation" and model.transform != "raw":
        raise ConfigError("deviation loss needs the raw head transform")
    use_ot = config.rule_weight > 0.0 and e_f is not None

    rng = np.random.default_rng(config.seed)
    X_train = split.train_features()
    values = init_encoder(model, X_train.shape[1], rng)
    values.update(init_head(model, rng))
    params = ParamSet(values)
    opt = Adam(params, config.learning_rate)

    mean, std = _standardizer(X_train, config.standardize)
    X_train = (X_train - mean) / std
    y_train = split.train_labels
    X_val = split.data.X[split.val_idx]
    y_val = split.data.y[split.val_idx]

    anom_pos = np.flatnonzero(y_train == 1)
    pool = np.flatnonzero(y_train == 0)
    n_train = X_train.shape[0]
    batch_size = min(config.batch_size, n_train)
    if anom_pos.size >= batch_size:
        raise ConfigError(
            f"k_labeled ({anom_pos.size}) must be below batch_size ({batch_size}): the "
            "labeled anomalies would fill every batch and leave no unlabeled rows"
        )
    steps_per_epoch = max(1, math.ceil(n_train / batch_size))
    need = batch_size - anom_pos.size
    yb = np.zeros(anom_pos.size + min(need, pool.size))
    yb[: anom_pos.size] = 1.0
    if use_ot:
        mu = np.full(e_f.shape[0], 1.0 / e_f.shape[0])
        nu = np.where(yb == 1, ot.anomaly_mass_boost, 1.0)
        nu /= nu.sum()

    best_val = -np.inf
    best_params = params.copy()
    best_epoch = 0
    log: list[EpochRecord] = []
    global_step = 0

    for epoch in range(1, config.epochs + 1):
        lp_sum = lot_sum = 0.0
        failures = iters_sum = iters_max = 0
        for _ in range(steps_per_epoch):
            fill = pool if pool.size <= need else rng.choice(pool, size=need, replace=False)
            xb = X_train[np.concatenate([anom_pos, fill])]

            tape = Tape()
            ids = bind_params(tape, params)
            x_id = tape.constant(xb)
            e_id = encode_tape(
                tape, x_id, model, ids, train=True, dropout_seed=(config.seed, global_step)
            )
            s_id = score_tape(tape, e_id, model, ids)
            if config.loss == "bce":
                l_p = bce_loss_tape(tape, s_id, yb)
            else:
                prior_mean, prior_std = deviation_prior(config.seed, global_step)
                l_p = deviation_loss_tape(tape, s_id, yb, prior_mean, prior_std)

            l_ot_value = 0.0
            if use_ot:
                c_id = cost_matrix_tape(tape, e_f, e_id, metric=ot.metric)
                c_value = tape.value(c_id)
                epsilon = ot.epsilon_scale * float(c_value.mean())
                if epsilon <= 0.0:
                    epsilon = ot.epsilon_scale
                plan = sinkhorn(c_value, mu, nu, epsilon, max_iter=ot.max_iter, tol=ot.tol)
                if not plan.converged:
                    failures += 1
                iters_sum += plan.iterations
                iters_max = max(iters_max, plan.iterations)
                l_ot = ot_loss_tape(tape, c_id, plan.plan)
                l_ot_value = float(tape.value(l_ot)[0, 0])
                total = tape.add(l_p, tape.smul(l_ot, config.rule_weight))
            else:
                total = l_p

            total_value = float(tape.value(total)[0, 0])
            if not math.isfinite(total_value):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            lp_sum += float(tape.value(l_p)[0, 0])
            lot_sum += l_ot_value

            params.zero_grads()
            accumulate_grads(params, ids, tape.backward(total))
            opt.step(params)
            global_step += 1

        if use_ot and failures * 2 > steps_per_epoch:
            raise NumericError(
                f"Sinkhorn failed to converge in {failures}/{steps_per_epoch} batches"
            )

        val_auprc = auprc(forward_scores(X_val, model, params, mean, std), y_val)
        record = EpochRecord(
            epoch,
            lp_sum / steps_per_epoch,
            lot_sum / steps_per_epoch,
            (lp_sum + config.rule_weight * lot_sum) / steps_per_epoch,
            val_auprc,
            iters_sum / steps_per_epoch,
            iters_max,
            failures,
        )
        log.append(record)
        if val_auprc > best_val:
            best_val = val_auprc
            best_params = params.copy()
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break

    tensors = {k: v.copy() for k, v in best_params.values.items()}
    tensors["norm/mean"] = mean
    tensors["norm/std"] = std
    ck = ModelCheckpoint(
        params=tensors, seed=config.seed, model=model, e_f=None if e_f is None else e_f.copy()
    )
    return ck, log


def infer(ck: ModelCheckpoint, X: np.ndarray) -> np.ndarray:
    """Scores of raw rows: ``forward_scores`` standardizes each block of rows
    with the checkpoint's norm/* tensors and scores it on its own, so, with
    one BLAS thread, the scores are row-local.  A score that is not finite
    raises NumericError."""
    if ck.model is None:
        raise DataError("checkpoint has no detector (knowledge-encoder-only container)")
    X = np.asarray(X, dtype=np.float64)
    width = ck.params["norm/mean"].shape[1]
    if X.ndim != 2 or X.shape[1] != width:
        raise DataError(
            f"input width {X.shape[1] if X.ndim == 2 else X.shape} != encoder width {width}"
        )
    detector = ParamSet({k: v for k, v in ck.params.items() if k.startswith(("enc/", "head/"))})
    with np.errstate(all="ignore"):  # overflow shows as the non-finite scores checked below
        scores = forward_scores(X, ck.model, detector, ck.params["norm/mean"], ck.params["norm/std"])
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise NumericError(f"{bad} of {scores.size} scores are not finite")
    return scores


def write_training_log(log: list[EpochRecord], path) -> None:
    write_atomic(path, "".join(record.to_json() + "\n" for record in log))
