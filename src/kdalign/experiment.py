"""End-to-end experiment orchestration.

One experiment: acquire (or load) rules, compile them to d-DNNF, pretrain
the knowledge encoder, freeze E_F, then per seed split / train / infer /
score.  The lambda grid, when given, is tuned per seed on validation AUPRC;
the lambda=0 baseline can run alongside for paired ablation rows.  The noise
study repeats the whole pipeline per noisy-rule ratio.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .acquisition import AcquisitionConfig, acquire_rules, inject_noise
from .config import write_effective_config
from .ddnnf import DdnnfGraph, compile_ddnnf
from .encoders import EncoderSpec, HeadSpec
from .errors import ConfigError, DataError
from .evaluate import Dataset, MetricReport, auprc, load_csv, rec_at_k_detail, split_dataset
from .gcn import PretrainConfig, embed_knowledge_set, pretrain_encoder
from .logic import PropositionTable, formula_to_cnf, rule_to_formula
from .rules import Rule, load_rules
from .train import EpochRecord, ModelCheckpoint, TrainConfig, infer, train, write_training_log


@dataclass
class KnowledgeArtifacts:
    rules: list[Rule]
    table: PropositionTable
    graphs: list[DdnnfGraph]
    e_f: np.ndarray
    know_spec: Any
    know_params: dict[str, np.ndarray]
    pretrain_history: list[float] = field(default_factory=list)


def compile_rules(rules: list[Rule]) -> tuple[PropositionTable, list[DdnnfGraph]]:
    table = PropositionTable()
    graphs = []
    for rule in rules:
        formula = rule_to_formula(rule, table)
        graphs.append(compile_ddnnf(formula_to_cnf(formula)))
    return table, graphs


def pretrain_config_from(cfg: dict, n_propositions: int) -> PretrainConfig:
    ke = cfg["know_encoder"]
    return PretrainConfig(
        n_layers=ke["layers"],
        hidden_width=ke["hidden"],
        embed_width=ke["embed"],
        var_capacity=max(ke["var_capacity"], n_propositions),
        margin=ke["margin"],
        learning_rate=ke["learning_rate"],
        steps=ke["steps"],
        and_reg=ke["and_reg"],
        or_reg=ke["or_reg"],
        val_pairs=ke["val_pairs"],
        eval_every=ke["eval_every"],
        seed=ke["seed"],
    )


def build_knowledge(data: Dataset, cfg: dict, rules: list[Rule] | None = None) -> KnowledgeArtifacts:
    """Acquire/load rules and produce the frozen knowledge embedding set."""
    rc = cfg["rules"]
    if rules is None:
        if rc["path"]:
            rules = load_rules(rc["path"])
        else:
            rules, _ = acquire_rules(
                data.X,
                data.y,
                data.feature_names,
                AcquisitionConfig(
                    n_trees=rc["trees"],
                    max_depth=rc["max_depth"],
                    min_leaf=rc["min_leaf"],
                    feature_subsample=rc["feature_subsample"],
                    feature_indices=tuple(rc["feature_indices"]),
                    seed=rc["seed"],
                ),
            )
    if not rules:
        raise DataError("no rules available: acquisition produced an empty set")
    table, graphs = compile_rules(rules)
    pre_cfg = pretrain_config_from(cfg, len(table))
    result = pretrain_encoder(graphs, pre_cfg)
    e_f = embed_knowledge_set(graphs, result.spec, result.params)
    return KnowledgeArtifacts(
        rules=rules,
        table=table,
        graphs=graphs,
        e_f=e_f,
        know_spec=result.spec,
        know_params=dict(result.params.values),
        pretrain_history=result.loss_history,
    )


def encoder_specs_from(cfg: dict, input_dim: int) -> tuple[EncoderSpec, HeadSpec]:
    mc = cfg["model"]
    enc = EncoderSpec(
        kind=mc["kind"],
        input_dim=input_dim,
        hidden=tuple(mc["hidden"]),
        blocks=mc["blocks"],
        main_dim=mc["main_dim"],
        dropout_first=mc["dropout_first"],
        dropout_second=mc["dropout_second"],
    )
    head = HeadSpec(embed_dim=enc.embed_dim, hidden=tuple(mc["head_hidden"]), transform=mc["transform"])
    return enc, head


def train_config_from(cfg: dict, seed: int, rule_weight: float | None = None) -> TrainConfig:
    tc, oc = cfg["train"], cfg["ot"]
    return TrainConfig(
        rule_weight=tc["rule_weight"] if rule_weight is None else rule_weight,
        epochs=tc["epochs"],
        batch_size=tc["batch_size"],
        learning_rate=tc["learning_rate"],
        seed=seed,
        loss=tc["loss"],
        patience=tc["patience"],
        ot_enabled=tc["ot_enabled"],
        ot_metric=oc["metric"],
        sinkhorn_epsilon_scale=oc["epsilon_scale"],
        sinkhorn_max_iter=oc["max_iter"],
        sinkhorn_tol=oc["tol"],
        anomaly_mass_boost=oc["anomaly_mass_boost"],
        unrolled_ot=oc["unrolled"],
        unrolled_iters=oc["unrolled_iters"],
        standardize=tc["standardize"],
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
    enc, head = encoder_specs_from(cfg, data.X.shape[1])
    grid = list(cfg["train"]["lambda_grid"])
    if rule_weight is not None:
        grid = [rule_weight]
    elif not grid:
        grid = [cfg["train"]["rule_weight"]]
    best: tuple[float, ModelCheckpoint, list[EpochRecord], float] | None = None
    for lam in grid:
        ck, log = train(
            split,
            enc,
            head,
            train_config_from(cfg, seed, rule_weight=lam),
            e_f=None if knowledge is None else knowledge.e_f,
            know_spec=None if knowledge is None else knowledge.know_spec,
            know_params=None if knowledge is None else knowledge.know_params,
        )
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


def run_experiment(cfg: dict, out_dir: str | None = None, data: Dataset | None = None) -> MetricReport:
    """Full protocol over all seeds; optionally persists artifacts."""
    train_config_from(cfg, cfg["train"]["seed"])  # reject bad [train]/[ot] values up front
    if data is None:
        if not cfg["data"]["path"]:
            raise ConfigError("[data] path is required")
        data = load_csv(cfg["data"]["path"])
    knowledge = build_knowledge(data, cfg)
    report = MetricReport()
    for seed in cfg["eval"]["seeds"]:
        outcome = run_seed(data, knowledge, cfg, seed)
        report.add(
            seed=seed,
            rule_weight=outcome.rule_weight,
            auprc=outcome.test_auprc,
            rec_at_k=outcome.test_rec_at_k,
            k=outcome.k,
            tie_at_cut=outcome.tie_at_cut,
            val_auprc=outcome.best_val_auprc,
        )
        if cfg["eval"]["include_baseline"]:
            baseline = run_seed(data, knowledge, cfg, seed, rule_weight=0.0)
            report.add(
                seed=seed,
                rule_weight=0.0,
                auprc=baseline.test_auprc,
                rec_at_k=baseline.test_rec_at_k,
                k=baseline.k,
                tie_at_cut=baseline.tie_at_cut,
                val_auprc=baseline.best_val_auprc,
            )
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            write_training_log(outcome.log, os.path.join(out_dir, f"train_seed{seed}.jsonl"))
    if out_dir:
        write_effective_config(cfg, out_dir)
        _write_report(report, out_dir, "report")
    return report


def noise_study(cfg: dict, out_dir: str | None = None, data: Dataset | None = None) -> MetricReport:
    """Repeat the experiment per noisy-rule ratio (rules re-perturbed, the
    knowledge encoder re-pretrained on the perturbed corpus)."""
    train_config_from(cfg, cfg["train"]["seed"])  # reject bad [train]/[ot] values up front
    if data is None:
        if not cfg["data"]["path"]:
            raise ConfigError("[data] path is required")
        data = load_csv(cfg["data"]["path"])
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
            outcome = run_seed(data, knowledge, cfg, seed)
            report.add(
                noise_ratio=ratio,
                seed=seed,
                rule_weight=outcome.rule_weight,
                auprc=outcome.test_auprc,
                rec_at_k=outcome.test_rec_at_k,
            )
            if cfg["eval"]["include_baseline"]:
                baseline = run_seed(data, knowledge, cfg, seed, rule_weight=0.0)
                report.add(
                    noise_ratio=ratio,
                    seed=seed,
                    rule_weight=0.0,
                    auprc=baseline.test_auprc,
                    rec_at_k=baseline.test_rec_at_k,
                )
    if out_dir:
        write_effective_config(cfg, out_dir)
        _write_report(report, out_dir, "noise_report")
    return report


def _write_report(report: MetricReport, out_dir: str, stem: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for suffix, text in ((".txt", report.to_table()), (".csv", report.to_delimited())):
        path = os.path.join(out_dir, stem + suffix)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
