"""End-to-end experiment orchestration.

One experiment: acquire (or load) rules, pretrain the knowledge encoder on
their clauses, which hands back the frozen E_F, then per seed split /
train / infer / score.  The lambda grid, when given, is tuned per seed on
validation AUPRC; the lambda=0 baseline can run alongside for paired
ablation rows.  The noise study repeats the whole pipeline per noisy-rule
ratio.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .acquisition import acquire_rules, inject_noise
from .atomic import write_atomic
from .config import (
    KnowEncoderConfig,
    ModelConfig,
    OtConfig,
    RulesConfig,
    TrainConfig,
    write_effective_config,
)
from .encoders import embed_width
from .errors import ConfigError, DataError
from .evaluate import Dataset, MetricReport, auprc, load_csv, rec_at_k_detail, split_dataset
from .gcn import PretrainResult, pretrain_encoder
from .rules import Rule, format_threshold, load_rules
from .train import (
    EpochRecord,
    ModelCheckpoint,
    infer,
    train,
    with_knowledge_encoder,
    write_training_log,
)


@dataclass
class KnowledgeArtifacts:
    rules: list[Rule]
    pretrain: PretrainResult

    @property
    def e_f(self) -> np.ndarray:
        return self.pretrain.e_f


def load_dataset(cfg: dict) -> Dataset:
    """The dataset named by [data] path."""
    if not cfg["data"]["path"]:
        raise ConfigError("[data] path is required")
    return load_csv(cfg["data"]["path"])


def compile_rules(
    rules: list[Rule],
) -> tuple[dict[tuple[str, str, str], int], list[tuple[int, ...]]]:
    """One shared proposition table ``{(subject, predicate, object): id}``,
    and each rule's clause as a tuple of signed ids sorted by variable.

    A rule ``(p_1 AND ... AND p_k) IMPLIES p_c`` is exactly the one clause
    ``(NOT p_1 OR ... OR NOT p_k OR p_c)``.  Ids are 1-based and handed out
    in first-use order: each rule's conditions in turn as (attribute,
    operator, threshold string), then its consequent as (anomaly, is,
    True/False).  A repeated condition gives one literal.  No condition has
    the predicate ``is``, so a clause is never a tautology."""
    table: dict[tuple[str, str, str], int] = {}
    clauses = []
    for rule in rules:
        triples = [(c.attribute, c.predicate, format_threshold(c.threshold)) for c in rule.conditions]
        triples.append(("anomaly", "is", str(rule.consequent)))
        ids = [table.setdefault(t, len(table) + 1) for t in triples]
        clauses.append(tuple(sorted({-i for i in ids[:-1]} | {ids[-1]}, key=abs)))
    return table, clauses


def build_knowledge(
    data: Dataset | None, cfg: dict, rules: list[Rule] | None = None
) -> KnowledgeArtifacts:
    """Load the [rules] path or acquire rules from ``data``, pretrain the
    knowledge encoder per [know_encoder], as wide out as [model]'s encoder;
    the pretraining result holds the frozen E_F."""
    rc = RulesConfig(**cfg["rules"])
    if rules is None:
        if rc.path:
            rules = load_rules(rc.path)
        else:
            rules, _ = acquire_rules(data.X, data.y, data.feature_names, rc)
    if not rules:
        raise DataError(f"{rc.path or 'acquisition'}: no rules to pretrain on")
    _, clauses = compile_rules(rules)
    ke = KnowEncoderConfig(**cfg["know_encoder"])
    return KnowledgeArtifacts(
        rules, pretrain_encoder(clauses, ke, embed_width(ModelConfig(**cfg["model"])))
    )


@dataclass
class SeedOutcome:
    seed: int
    rule_weight: float
    test_auprc: float
    test_rec_at_k: float
    k: int
    tie_at_cut: bool
    best_val_auprc: float
    checkpoint: ModelCheckpoint
    log: list[EpochRecord]


def run_seed(
    data: Dataset,
    knowledge: KnowledgeArtifacts | None,
    cfg: dict,
    seed: int,
    rule_weight: float | None = None,
) -> SeedOutcome:
    """Split, train (tuning lambda on validation when a grid is set), score."""
    rules = knowledge.rules if knowledge is not None else []
    split = split_dataset(data, rules, cfg["eval"]["k_labeled"], seed)
    model = ModelConfig(**cfg["model"])
    tc = TrainConfig(**cfg["train"])
    ot = OtConfig(**cfg["ot"])
    grid = [rule_weight] if rule_weight is not None else list(tc.lambda_grid) or [tc.rule_weight]
    best: tuple[float, ModelCheckpoint, list[EpochRecord], float] | None = None
    e_f = None if knowledge is None else knowledge.e_f
    for lam in grid:
        ck, log = train(split, model, e_f, replace(tc, seed=seed, rule_weight=lam), ot)
        if knowledge is not None:
            pre = knowledge.pretrain
            ck = with_knowledge_encoder(ck, pre.config, pre.params.values)
        val_best = max(r.val_auprc for r in log)
        if best is None or val_best > best[0]:
            best = (val_best, ck, log, lam)
    val_best, ck, log, lam = best
    X_test = data.X[split.test_idx]
    y_test = data.y[split.test_idx]
    scores = infer(ck, X_test)
    value, k, tie = rec_at_k_detail(scores, y_test)
    return SeedOutcome(
        seed=seed,
        rule_weight=lam,
        test_auprc=auprc(scores, y_test),
        test_rec_at_k=value,
        k=k,
        tie_at_cut=tie,
        best_val_auprc=val_best,
        checkpoint=ck,
        log=log,
    )


def _add_seed_rows(
    report: MetricReport, data: Dataset, knowledge: KnowledgeArtifacts, cfg: dict, seed: int, **keys
) -> SeedOutcome:
    """Run one seed, and its lambda=0 baseline when [eval] asks for it, and
    add a row per model; ``keys`` lead each row's seed and metric columns."""
    outcome = run_seed(data, knowledge, cfg, seed)
    runs = [("kdalign", outcome)]
    if cfg["eval"]["include_baseline"]:
        runs.append(("baseline", run_seed(data, knowledge, cfg, seed, rule_weight=0.0)))
    for model, run in runs:
        report.add(
            model=model,
            **keys,
            seed=seed,
            rule_weight=run.rule_weight,
            auprc=run.test_auprc,
            rec_at_k=run.test_rec_at_k,
            k=run.k,
            tie_at_cut=run.tie_at_cut,
            val_auprc=run.best_val_auprc,
        )
    return outcome


def run_experiment(cfg: dict, out_dir: str | None = None, data: Dataset | None = None) -> MetricReport:
    """Full protocol over all seeds; optionally persists artifacts."""
    if data is None:
        data = load_dataset(cfg)
    knowledge = build_knowledge(data, cfg)
    report = MetricReport()
    for seed in cfg["eval"]["seeds"]:
        outcome = _add_seed_rows(report, data, knowledge, cfg, seed)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            write_training_log(outcome.log, os.path.join(out_dir, f"train_seed{seed}.jsonl"))
    if out_dir:
        _write_pretrain_log(knowledge.pretrain, os.path.join(out_dir, "pretrain.jsonl"))
        write_effective_config(cfg, out_dir)
        _write_report(report, out_dir, "report", cfg)
    return report


def noise_study(cfg: dict, out_dir: str | None = None, data: Dataset | None = None) -> MetricReport:
    """Repeat the experiment per noisy-rule ratio (rules re-perturbed, the
    knowledge encoder re-pretrained on the perturbed corpus)."""
    if data is None:
        data = load_dataset(cfg)
    base = build_knowledge(data, cfg)
    report = MetricReport()
    for ratio_index, ratio in enumerate(cfg["eval"]["noise_ratios"]):
        if ratio == 0.0:
            knowledge = base
        else:
            rng = np.random.default_rng((cfg["rules"]["seed"], ratio_index, 0x401))
            noisy = inject_noise(
                base.rules, ratio, rng, data.X, data.y, data.feature_names
            )
            knowledge = build_knowledge(data, cfg, rules=noisy)
        for seed in cfg["eval"]["seeds"]:
            _add_seed_rows(report, data, knowledge, cfg, seed, noise_ratio=ratio)
    if out_dir:
        write_effective_config(cfg, out_dir)
        _write_report(report, out_dir, "noise_report", cfg, per=" per noise ratio")
    return report


def _write_pretrain_log(result: PretrainResult, path: str) -> None:
    """One JSON line per pretraining step: its ``step`` (from 1) and
    ``loss``, plus ``val_accuracy`` on the steps that ran a validation pass;
    a first line, step 0, holds the untrained encoder's ``val_accuracy``."""
    accuracy = dict(result.val_history)
    lines = [{"step": 0, "val_accuracy": accuracy[0]}]
    for step, loss in enumerate(result.loss_history, start=1):
        lines.append({"step": step, "loss": loss})
        if step in accuracy:
            lines[-1]["val_accuracy"] = accuracy[step]
    write_atomic(path, "".join(json.dumps(line) + "\n" for line in lines))


def _write_report(report: MetricReport, out_dir: str, stem: str, cfg: dict, per: str = "") -> None:
    """The report as text and CSV; the text ends with what each ± spans."""
    n, seed = len(cfg["eval"]["seeds"]), cfg["know_encoder"]["seed"]
    spans = f"mean±std over {n} split seed{'s' * (n != 1)} (eval.seeds){per}; "
    spans += f"one knowledge encoder{per} (know_encoder.seed {seed})\n"
    os.makedirs(out_dir, exist_ok=True)
    for suffix, text in ((".txt", report.to_table() + spans), (".csv", report.to_delimited())):
        write_atomic(os.path.join(out_dir, stem + suffix), text)
