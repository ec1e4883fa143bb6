"""Command-line surface: one binary, one subcommand per pipeline stage.

``train`` runs one protocol seed, ``experiment.run_seed`` at [train] seed:
split, train each [train] lambda_grid value (rule_weight when the grid is
empty), keep the one with the best validation AUPRC and score the test
split.  Its knowledge comes from the --encoder checkpoint or is pretrained
on the [rules] path; with neither it trains once at lambda 0.  It writes
checkpoint.kdal, training_log.jsonl (one JSON line per epoch) and
effective_config.ini into --out.  ``experiment --out`` writes one
train_seed<N>.jsonl per seed, pretrain.jsonl, effective_config.ini and the
report.  A training log line holds the epoch's ``epoch``, mean ``L_P``,
``L_OT`` and ``total``, its ``val_auprc``, and its Sinkhorn solves: the
mean and the largest iteration count (``sinkhorn_iters_mean``,
``sinkhorn_iters_max``) and how many did not converge
(``sinkhorn_nonconverged``), all 0 at lambda 0.  pretrain.jsonl holds one
line per knowledge-encoder pretraining step, its ``step`` and ``loss``, plus
its held-out triplet ``val_accuracy`` on the steps that ran a validation
pass; the first line, step 0, holds only the untrained encoder's accuracy.

A data CSV is UTF-8 with a header row of distinct column names.  Its
``label`` column holds 0 or 1, an optional ``split`` column holds train, val
or test, and every other column is a feature whose cells are finite numbers
as Python's ``float`` reads them.  Cells may be quoted; each row has as many
cells as the header.  ``infer`` scores the features and ignores labels: the
``label`` column may be missing or hold any text.  The other subcommands
that read a CSV need the labels.

The knowledge encoder has no width keys.  Each subcommand that pretrains it
makes E_F as wide as the [model] encoder's embedding (the last [model] hidden
width, or main_dim for resnet), and its input encodes every proposition of
the rules.  So ``train --encoder`` needs an encoder pretrained under a
[model] of the same embedding width; another width exits 1.

A rule file ending in ``.json`` takes any attribute name.  Any other is a
``.rules`` file of DSL lines, whose attributes are identifiers that are not
keywords (see ``rules``).  So ``acquire-rules --out r.rules`` on a CSV with a
column such as ``x-1`` exits 2 and writes nothing; ``--out r.json`` works.

``compile-rules`` writes one JSON object.  ``propositions`` lists each
proposition the rules use, with its ``id``, ``subject``, ``predicate`` and
``object``, numbered in first-use order: each rule's conditions in turn,
then its consequent.  ``rules`` holds per rule its ``id`` and ``text``, the
``variables`` of its clause (its distinct conditions and its consequent, k in
all), ``ddnnf_nodes`` = 4k - 1 (the decision chain plus the two unreachable
TRUE/FALSE sinks) and ``model_count`` = 2^k - 1.

``infer`` writes one score per line, one line per CSV row.  Scores are
row-local: with one BLAS thread, a row's score does not depend on the other
rows in the file.  A score that is not finite (weights whose products
overflow) fails the run with exit 3 and writes nothing.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure.  All outputs are written atomically (temp file + rename); every
config key is overridable with --section.key=value flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .acquisition import acquire_rules
from .atomic import write_atomic
from .autodiff import ParamSet
from .config import SCHEMA, ModelConfig, RulesConfig, load_config, render_value
from .config import write_effective_config
from .encoders import embed_width
from .errors import ConfigError, DataError, NumericError
from .evaluate import auprc, load_csv, rec_at_k_detail, save_csv
from .experiment import (
    KnowledgeArtifacts,
    build_knowledge,
    compile_rules,
    load_dataset,
    noise_study,
    run_experiment,
    run_seed,
)
from .gcn import PretrainResult
from .rules import load_rules, render_rule, save_rules
from .synthetic import make_synthetic
from .train import ModelCheckpoint, infer, load_checkpoint, save_checkpoint, write_training_log


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="INI", help="config file (INI sections)")
    group = parser.add_argument_group("config overrides")
    for section, cls in SCHEMA.items():
        for f in dataclasses.fields(cls):
            text = f.metadata["help"]
            if f.metadata["choices"]:
                text += ": " + " | ".join(f.metadata["choices"])
            group.add_argument(
                f"--{section}.{f.name}",
                dest=f"cfg::{section}.{f.name}",
                metavar="V",
                default=None,
                help=f"{text} (default: {render_value(f.default)})",
            )


def _collect_config(args) -> dict:
    overrides = []
    for key, value in vars(args).items():
        if key.startswith("cfg::") and value is not None:
            overrides.append((key[len("cfg::") :], str(value)))
    return load_config(getattr(args, "config", None), overrides)


def _read_values(path: str, labels: bool = False) -> np.ndarray:
    """The finite numbers of a one-per-line file; with ``labels``, each 0 or 1."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric value {line!r}") from None
            if labels and value not in (0.0, 1.0):
                raise DataError(f"{path}: line {lineno}: label {line!r} is not 0 or 1")
            if not math.isfinite(value):
                raise DataError(f"{path}: line {lineno}: non-finite value {line!r}")
            values.append(value)
    if not values:
        raise DataError(f"{path}: no values")
    return np.array(values)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth_data(args) -> int:
    data, clusters = make_synthetic(
        seed=args.seed,
        n_normal=args.n_normal,
        n_direct=args.n_direct,
        n_rule=args.n_rule,
        n_features=args.features,
        noise=args.noise,
    )
    save_csv(data, args.out)
    if args.clusters_out:
        write_atomic(args.clusters_out, "\n".join(clusters) + "\n")
    print(f"wrote {data.n_samples} samples ({int(data.y.sum())} anomalies) to {args.out}")
    return 0


def cmd_acquire_rules(args) -> int:
    cfg = _collect_config(args)
    data = load_dataset(cfg)
    rules, provenance = acquire_rules(
        data.X, data.y, data.feature_names, RulesConfig(**cfg["rules"])
    )
    save_rules(rules, args.out)
    sidecar = str(args.out) + ".provenance.json"
    write_atomic(
        sidecar,
        json.dumps([p.__dict__ for p in provenance], indent=2) + "\n",
    )
    if not rules:
        print("warning: no all-right anomaly paths found; wrote empty rule file", file=sys.stderr)
    print(f"wrote {len(rules)} rules to {args.out}")
    return 0


def cmd_compile_rules(args) -> int:
    rules = load_rules(args.rules)
    table, clauses = compile_rules(rules)
    payload = {
        "propositions": [
            {"id": pid, "subject": subject, "predicate": predicate, "object": obj}
            for (subject, predicate, obj), pid in table.items()
        ],
        "rules": [
            {
                "id": rule.rule_id,
                "text": render_rule(rule),
                "ddnnf_nodes": 4 * len(clause) - 1,
                "variables": sorted(abs(lit) for lit in clause),
                "model_count": 2 ** len(clause) - 1,
            }
            for rule, clause in zip(rules, clauses)
        ],
    }
    write_atomic(args.out, json.dumps(payload, indent=2) + "\n")
    print(f"compiled {len(rules)} rules -> {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _collect_config(args)
    if not cfg["rules"]["path"]:
        raise ConfigError("[rules] path is required")
    knowledge = build_knowledge(None, cfg)
    pre = knowledge.pretrain
    ck = ModelCheckpoint(
        dict(pre.params.values), pre.config.seed, know_encoder=pre.config, e_f=knowledge.e_f
    )
    save_checkpoint(ck, args.out)
    print(
        f"pretrained knowledge encoder on {len(knowledge.rules)} formulae "
        f"(best val accuracy {pre.best_val_accuracy:.3f}) -> {args.out}"
    )
    return 0


def _encoder_knowledge(path: str, cfg: dict) -> KnowledgeArtifacts:
    """The rules at the [rules] path with the E_F and knowledge encoder that
    the checkpoint at ``path`` holds for them, as wide as [model] embeds."""
    rules_path = cfg["rules"]["path"]
    if not rules_path:  # the split deletes the anomalies the rules cover
        raise ConfigError("train --encoder needs the [rules] path of the encoder's rules")
    pre = load_checkpoint(path)
    if pre.e_f is None or pre.know_encoder is None:
        raise DataError(f"{path}: not a knowledge-encoder checkpoint")
    rules = load_rules(rules_path)
    if len(rules) != pre.e_f.shape[0]:
        raise ConfigError(f"{rules_path} has {len(rules)} rules but {path} embeds {pre.e_f.shape[0]}")
    width = embed_width(ModelConfig(**cfg["model"]))
    if pre.e_f.shape[1] != width:
        raise ConfigError(
            f"{path} embeds its rules {pre.e_f.shape[1]} wide, but [model] embeds {width} wide"
        )
    return KnowledgeArtifacts(rules, PretrainResult(pre.know_encoder, ParamSet(pre.params), pre.e_f))


def cmd_train(args) -> int:
    cfg = _collect_config(args)
    data = load_dataset(cfg)
    knowledge = None
    if args.encoder:
        knowledge = _encoder_knowledge(args.encoder, cfg)
    elif cfg["rules"]["path"]:
        knowledge = build_knowledge(data, cfg)
    seed = cfg["train"]["seed"]
    outcome = run_seed(data, knowledge, cfg, seed, rule_weight=None if knowledge is not None else 0.0)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(outcome.checkpoint, os.path.join(args.out, "checkpoint.kdal"))
    write_training_log(outcome.log, os.path.join(args.out, "training_log.jsonl"))
    write_effective_config(cfg, args.out)
    print(
        f"trained {len(outcome.log)} epochs at lambda {outcome.rule_weight}, "
        f"best validation AUPRC {outcome.best_val_auprc:.4f} -> {args.out}"
    )
    return 0


def cmd_infer(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    data = load_csv(args.data, labeled=False)
    scores = infer(ck, data.X)
    write_atomic(args.out, (f"{float(s)!r}\n" for s in scores))
    print(f"wrote {scores.size} scores to {args.out}")
    return 0


def cmd_eval(args) -> int:
    scores = _read_values(args.scores)
    labels = _read_values(args.labels, labels=True).astype(np.int64)
    if scores.shape != labels.shape:
        raise DataError(
            f"{scores.size} scores vs {labels.size} labels; counts must match"
        )
    if not labels.any():
        raise DataError("labels hold no 1; AUPRC and Rec@K need at least one positive label")
    value, k, tie = rec_at_k_detail(scores, labels)
    print(f"auprc={auprc(scores, labels):.6f} rec@k={value:.6f} k={k} tie_at_cut={tie}")
    return 0


def cmd_experiment(args) -> int:
    cfg = _collect_config(args)
    report = run_experiment(cfg, out_dir=args.out)
    print(report.to_table(), end="")
    return 0


def cmd_noise_study(args) -> int:
    cfg = _collect_config(args)
    report = noise_study(cfg, out_dir=args.out)
    print(report.to_table(), end="")
    return 0


@functools.cache  # one argparse tree per process, shared by every main call
def build_parser() -> _Parser:
    parser = _Parser(prog="kdalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate the bundled synthetic dataset")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p.add_argument("--n-normal", type=int, default=1500, help="normal samples (default: 1500)")
    p.add_argument("--n-direct", type=int, default=90, help="directly-labeled anomaly cluster size (default: 90)")
    p.add_argument("--n-rule", type=int, default=150, help="rule-covered anomaly cluster size (default: 150)")
    p.add_argument("--features", type=int, default=4, help="feature count (default: 4)")
    p.add_argument("--noise", type=float, default=0.5, help="cluster standard deviation (default: 0.5)")
    p.add_argument("--clusters-out", default=None, help="optional per-row cluster tag file")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("acquire-rules", help="extract all-right anomaly paths from decision trees")
    p.add_argument("--out", required=True, help="output rule file (.rules or .json)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_acquire_rules)

    p = sub.add_parser("compile-rules", help="compile rules to d-DNNF and report structure")
    p.add_argument("--rules", required=True, help="rule file")
    p.add_argument("--out", required=True, help="output JSON artifact")
    p.set_defaults(func=cmd_compile_rules)

    p = sub.add_parser("pretrain", help="pretrain the knowledge encoder on a rule file")
    p.add_argument("--out", required=True, help="output checkpoint path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="train the detector (with or without knowledge)")
    p.add_argument("--encoder", default=None, help="pretrained knowledge-encoder checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="score a dataset with a trained checkpoint")
    p.add_argument("--checkpoint", required=True, help="trained checkpoint")
    p.add_argument("--data", required=True, help="dataset CSV (labels ignored)")
    p.add_argument("--out", required=True, help="output score file, one per line")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="compute AUPRC and Rec@K from score/label files")
    p.add_argument("--scores", required=True, help="score file, one float per line")
    p.add_argument("--labels", required=True, help="label file, one 0/1 per line")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run the full multi-seed protocol")
    p.add_argument("--out", default=None, help="output directory for reports")
    _add_config_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("noise-study", help="run the noisy-rule robustness study")
    p.add_argument("--out", default=None, help="output directory for reports")
    _add_config_flags(p)
    p.set_defaults(func=cmd_noise_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:  # a rule, CSV or score file
        print(f"data error: not UTF-8 text: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
