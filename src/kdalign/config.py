"""Run configuration: one dataclass per INI section, its loader and writer.

Each key is declared once, as a field of its section's dataclass below: the
annotation is its type (``int``, ``float``, ``bool``, ``str`` or a
comma-separated ``tuple``), and ``key(...)`` gives its default, help text and
accepted values, which constructing a section checks.  ``SCHEMA`` maps each
INI section to its dataclass; the CLI derives its ``--section.key`` flags
from it, and each stage takes its section object.  ``load_config`` reports
every unknown key and every rejected value of an INI file and its overrides
in one ``ConfigError`` and returns plain ``{section: {key: value}}`` dicts;
the effective configuration is echoed into each output directory.

The knowledge encoder has no width keys: it embeds as wide as the [model]
encoder, and its input encodes every proposition of its rules.
"""

from __future__ import annotations

import configparser
import math
import operator
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Any, get_args, get_type_hints

from .atomic import write_atomic
from .encoders import ENCODER_KINDS, HEAD_TRANSFORMS, LOSSES
from .errors import ConfigError
from .ot import METRICS


def key(default, help: str, *, choices=(), ge=None, gt=None, le=None, lt=None, nonempty=False):
    """A config key: its default, help text and accepted values.

    Bounds apply to a number or to each element of a tuple; a float key
    must also be finite.  The CLI appends ``choices`` to the help text.
    """
    checks = {"choices": choices, "ge": ge, "gt": gt, "le": le, "lt": lt, "nonempty": nonempty}
    return field(default=default, metadata={"help": help, **checks})


_BOUNDS = (
    ("ge", ">=", operator.ge),
    ("gt", ">", operator.gt),
    ("le", "<=", operator.le),
    ("lt", "<", operator.lt),
)


def _rejection(spec: dict, value) -> str | None:
    """Why ``value`` is not accepted by a field's metadata, or None."""
    if spec["choices"] and value not in spec["choices"]:
        return f"must be one of {', '.join(spec['choices'])}"
    items, what = (value, "entries ") if isinstance(value, tuple) else ((value,), "")
    if spec["nonempty"] and not items:
        return "must not be empty"
    for x in items:
        if isinstance(x, float) and not math.isfinite(x):
            return f"{what}must be finite"
        for name, op, holds in _BOUNDS:
            if spec[name] is not None and not holds(x, spec[name]):
                return f"{what}must be {op} {spec[name]}"
    return None


class Section:
    """Base of the section dataclasses: construction checks every field."""

    def __post_init__(self):
        name = _SECTION_NAMES[type(self)]
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            why = _rejection(f.metadata, value)
            if why:
                shown = render_value(value) if isinstance(value, tuple) else value
                problems.append(f"[{name}] {f.name} {why}, got {shown!r}")
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass(frozen=True)
class DataConfig(Section):
    path: str = key("", "dataset CSV (header row, numeric features, 'label' column)")


@dataclass(frozen=True)
class RulesConfig(Section):
    path: str = key("", "rule file (.rules DSL or .json); empty = acquire from data")
    trees: int = key(5, "number of bootstrap decision trees", ge=1)
    max_depth: int = key(4, "maximum tree depth", ge=1)
    min_leaf: int = key(1, "minimum samples per leaf", ge=1)
    feature_subsample: int = key(0, "random feature subset size per tree (0 = all)", ge=0)
    feature_indices: tuple[int, ...] = key((), "explicit feature allowlist for tree splits", ge=0)
    seed: int = key(0, "acquisition / noise-injection seed", ge=0)


@dataclass(frozen=True)
class KnowEncoderConfig(Section):
    layers: int = key(2, "GCN layer count", ge=1)
    hidden: int = key(16, "GCN hidden width", ge=1)
    steps: int = key(300, "pretraining gradient steps", ge=0)
    learning_rate: float = key(0.05, "pretraining step size", ge=0)
    margin: float = key(1.0, "triplet margin", ge=0)
    and_reg: float = key(0.1, "AND-node structural regularizer weight", ge=0)
    or_reg: float = key(0.1, "OR-node spread regularizer weight", ge=0)
    val_pairs: int = key(4, "held-out triples per formula", ge=1)
    eval_every: int = key(20, "steps between validation passes", ge=1)
    seed: int = key(0, "pretraining seed", ge=0)


@dataclass(frozen=True)
class ModelConfig(Section):
    kind: str = key("mlp", "encoder kind", choices=ENCODER_KINDS)
    hidden: tuple[int, ...] = key(
        (32, 16), "hidden widths (mlp) / block width (resnet)", ge=1, nonempty=True
    )
    blocks: int = key(2, "residual block count (resnet)", ge=1)
    main_dim: int = key(32, "residual stream width (resnet)", ge=1)
    dropout_first: float = key(0.0, "dropout after block activation", ge=0, lt=1)
    dropout_second: float = key(0.0, "dropout after second block linear", ge=0, lt=1)
    head_hidden: tuple[int, ...] = key((), "hidden widths of the scoring head", ge=1)
    transform: str = key("sigmoid", "head output", choices=HEAD_TRANSFORMS)


@dataclass(frozen=True)
class OtConfig(Section):
    metric: str = key("sqeuclidean", "cost metric", choices=METRICS)
    epsilon_scale: float = key(0.1, "epsilon as a fraction of mean batch cost", gt=0)
    max_iter: int = key(500, "Sinkhorn iteration cap", ge=1)
    tol: float = key(1e-6, "marginal residual tolerance", ge=0)
    anomaly_mass_boost: float = key(
        1.0, "marginal mass multiplier for labeled anomalies", ge=0, le=1e6
    )


@dataclass(frozen=True)
class TrainConfig(Section):
    rule_weight: float = key(1.0, "OT loss weight lambda; used only if lambda_grid is empty", ge=0)
    lambda_grid: tuple[float, ...] = key((), "candidate lambdas tuned on validation AUPRC", ge=0)
    epochs: int = key(30, "training epochs", ge=1)
    batch_size: int = key(128, "batch size (labeled anomalies always included)", ge=1)
    learning_rate: float = key(0.01, "Adam learning rate", ge=0)
    loss: str = key("bce", "prediction loss", choices=LOSSES)
    patience: int = key(10, "early-stopping patience in epochs", ge=0)
    standardize: bool = key(True, "standardize features on train statistics")
    seed: int = key(0, "training seed", ge=0)


@dataclass(frozen=True)
class EvalConfig(Section):
    seeds: tuple[int, ...] = key((0,), "experiment seeds (one full run each)", ge=0, nonempty=True)
    k_labeled: int = key(10, "labeled anomalies retained in training", ge=0)
    noise_ratios: tuple[float, ...] = key(
        (0.0, 0.05, 0.1, 0.2), "noisy-rule ratios for the noise study", ge=0, le=1
    )
    include_baseline: bool = key(True, "also run the lambda=0 baseline per seed")


SCHEMA: dict[str, type[Section]] = {
    "data": DataConfig,
    "rules": RulesConfig,
    "know_encoder": KnowEncoderConfig,
    "model": ModelConfig,
    "ot": OtConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
}
_SECTION_NAMES = {cls: name for name, cls in SCHEMA.items()}


def render_value(value) -> str:
    """A value as written in an INI file or shown as a flag default."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse(kind, text: str):
    """The value of ``text`` for a field annotated ``kind``."""
    if kind is bool:
        low = text.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if kind in (int, float, str):
        return kind(text)
    item = get_args(kind)[0]  # tuple[item, ...]
    return tuple(item(p) for p in text.split(",") if p.strip())


def load_config(path: str | None = None, overrides: list[tuple[str, str]] | None = None):
    """Effective config from defaults, an optional INI file, and overrides.

    ``overrides`` holds ("section.key", raw value) pairs from the CLI.  Every
    unknown section/key and every rejected value across file and overrides
    is reported in one error.
    """
    problems: list[str] = []
    kinds = {section: get_type_hints(cls) for section, cls in SCHEMA.items()}
    texts: dict[str, dict[str, str]] = {section: {} for section in SCHEMA}

    def put(section: str, name: str, text: str) -> None:
        if name not in kinds.get(section, ()):
            problems.append(f"unknown key [{section}] {name}")
        else:
            texts[section][name] = text

    if path:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"config file not found: {path}")
            sections = {section: parser.items(section) for section in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: " + " ".join(str(exc).split())) from None
        for section, items in sections.items():
            if section not in SCHEMA:
                problems.append(f"unknown section [{section}]")
                continue
            for name, text in items:
                put(section, name, text)
    for dotted, text in overrides or []:
        section, dot, name = dotted.partition(".")
        if not dot:
            problems.append(f"override {dotted!r} is not of the form section.key")
            continue
        put(section, name, text)

    cfg: dict[str, dict[str, Any]] = {}
    for section, cls in SCHEMA.items():
        values = {}
        for name, text in texts[section].items():
            try:
                values[name] = _parse(kinds[section][name], text)
            except ValueError as exc:
                problems.append(f"[{section}] {name}: {exc}")
        try:
            cfg[section] = asdict(cls(**values))
        except ConfigError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))
    return cfg


def render_config(cfg: dict[str, dict[str, Any]]) -> str:
    lines = []
    for section, keys in cfg.items():
        lines.append(f"[{section}]")
        lines.extend(f"{name} = {render_value(value)}" for name, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def write_effective_config(cfg, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_atomic(os.path.join(out_dir, "effective_config.ini"), render_config(cfg))
