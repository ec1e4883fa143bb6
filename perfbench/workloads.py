"""Workload definitions and their output checks.

A workload is a synthetic dataset (``kdalign.synthetic.make_synthetic`` with
fixed arguments), ``configs/synthetic.ini`` plus ``section.key=value``
overrides, and the checks its results must pass.  The training data of a
workload is fixed: its quality pins depend on it.  The run's ``--seed``
selects the 100,000-row scoring set that ``infer_rows_per_s`` is measured on.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from kdalign.evaluate import save_csv
from kdalign.synthetic import make_synthetic

SCORING_ROWS = {"n_normal": 96_000, "n_direct": 1_600, "n_rule": 2_400}


@dataclass(frozen=True)
class Workload:
    name: str
    data_seed: int
    shape: dict  # make_synthetic keyword arguments other than the seed
    overrides: tuple[str, ...]
    # Per-seed KDAlign test AUPRCs and the lambda=0 mean, to 3 decimals.
    pins: tuple[float, ...] = ()
    baseline_pin: float | None = None


WORKLOADS = {
    # The paper protocol on the reference dataset; carries the quality pins.
    # Small matrices: training cost is per-op tape overhead and 3 x 128 OT.
    "w1-reference": Workload(
        name="w1-reference",
        data_seed=42,
        shape={},
        overrides=(),
        pins=(0.998, 0.995, 1.000, 0.939, 0.998),
        baseline_pin=0.423,
    ),
    # Knowledge side dominates: split scans over 21.6k rows, GCN pretraining
    # over five formulae; the largest CSV for setup_s.
    "w2-knowledge": Workload(
        name="w2-knowledge",
        data_seed=1,
        shape={"n_normal": 20_000, "n_direct": 600, "n_rule": 1_000, "n_features": 16},
        overrides=(
            "rules.trees=10",
            "rules.max_depth=4",
            "rules.min_leaf=3",
            "rules.feature_indices=0,2,4,5,6,7",
            "eval.seeds=0",
            "train.epochs=3",
            "eval.include_baseline=false",
        ),
    ),
    # Same layers as w1 with large, arithmetic-bound matrices (11 rules x 2048
    # rows per plan) and the resnet, dropout, deviation, cosine and
    # mass-boost paths that w1 never runs.
    "w3-wide-ot": Workload(
        name="w3-wide-ot",
        data_seed=7,
        shape={"n_normal": 8_000, "n_direct": 400, "n_rule": 600, "n_features": 8},
        overrides=(
            "rules.trees=30",
            "rules.max_depth=4",
            "rules.min_leaf=5",
            "rules.feature_indices=0,2,3,4,5",
            "rules.feature_subsample=3",
            "know_encoder.steps=60",
            "model.kind=resnet",
            "model.main_dim=16",
            "model.transform=raw",
            "model.dropout_first=0.1",
            "train.loss=deviation",
            "ot.metric=cosine",
            "ot.anomaly_mass_boost=2.0",
            "train.batch_size=2048",
            "train.epochs=20",
            "train.patience=30",
            "eval.k_labeled=40",
            "eval.seeds=0,1,2",
            "train.lambda_grid=1.0",
            "eval.include_baseline=false",
        ),
    ),
}


def override_pairs(wl: Workload) -> list[tuple[str, str]]:
    """The overrides in the ("section.key", raw) form ``load_config`` takes."""
    return [tuple(item.split("=", 1)) for item in wl.overrides]


def make_dataset(wl: Workload):
    return make_synthetic(seed=wl.data_seed, **wl.shape)[0]


def make_scoring_set(wl: Workload, run_seed: int) -> np.ndarray:
    """100,000 rows from the workload's generator, seeded apart from its data."""
    seed = int(np.random.SeedSequence([wl.data_seed, run_seed]).generate_state(1)[0])
    n_features = wl.shape.get("n_features", 4)
    return make_synthetic(seed=seed, n_features=n_features, **SCORING_ROWS)[0].X


def write_dataset_csv(wl: Workload, path: str) -> None:
    """Write the workload CSV with the program's own writer, atomically."""
    tmp = f"{path}.{os.getpid()}.tmp"
    save_csv(make_dataset(wl), tmp)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages (empty = passed).
# ---------------------------------------------------------------------------


def report_rows(report) -> list[tuple]:
    keys = ("seed", "rule_weight", "auprc", "rec_at_k", "k", "tie_at_cut", "val_auprc")
    return [tuple(row[k] for k in keys) for row in report.rows]


def check_report(wl: Workload, cfg: dict, report) -> list[str]:
    problems = []
    seeds = list(cfg["eval"]["seeds"])
    expected = len(seeds) * (1 + int(cfg["eval"]["include_baseline"]))
    if len(report.rows) != expected:
        problems.append(f"report has {len(report.rows)} rows, expected {expected}")
    for row in report.rows:
        for key in ("auprc", "rec_at_k", "val_auprc"):
            if not math.isfinite(row[key]):
                problems.append(f"seed {row['seed']}: {key} is {row[key]!r}")
    kd = [row["auprc"] for row in report.rows if row["rule_weight"] > 0]
    if wl.pins:
        got = tuple(f"{a:.3f}" for a in kd)
        want = tuple(f"{a:.3f}" for a in wl.pins)
        if got != want:
            problems.append(f"KDAlign per-seed AUPRC {got} != pins {want}")
    if wl.baseline_pin is not None:
        base = [row["auprc"] for row in report.rows if row["rule_weight"] == 0]
        got_mean = f"{np.mean(base):.3f}" if base else "none"
        if got_mean != f"{wl.baseline_pin:.3f}":
            problems.append(f"baseline mean AUPRC {got_mean} != pin {wl.baseline_pin:.3f}")
    return problems


def check_embeddings(knowledge) -> list[str]:
    e_f = knowledge.e_f
    if e_f.size == 0 or not np.isfinite(e_f).all():
        return [f"E_F of shape {e_f.shape} is empty or has non-finite entries"]
    return []
