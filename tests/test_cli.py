import csv
import dataclasses
import json
import os
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from kdalign import cli
from kdalign.acquisition import acquire_rules
from kdalign.config import KnowEncoderConfig, ModelConfig, RulesConfig, load_config
from kdalign.encoders import init_encoder, init_head
from kdalign.evaluate import load_csv
from kdalign.experiment import build_knowledge, run_seed
from kdalign.rules import Condition, Rule, load_rules, save_rules
from kdalign.train import MAGIC, VERSION, ModelCheckpoint, infer, load_checkpoint, save_checkpoint
from oracles import compile_ddnnf

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    code = cli.main(
        ["synth-data", "--out", str(path), "--seed", "1", "--n-normal", "200",
         "--n-direct", "20", "--n-rule", "20"]
    )
    assert code == 0
    return path


def run_one_line(argv, capsys) -> tuple[int, str]:
    """Exit code and the single stderr line of one CLI run."""
    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1, err
    return code, lines[0]


# ---------------------------------------------------------------------------
# Malformed input: each row exits 1 (config) or 2 (data) with one stderr line.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--train.batch_size", "0", "[train] batch_size"),
        ("--ot.epsilon_scale", "-1", "[ot] epsilon_scale"),
        ("--ot.epsilon_scale", "nan", "[ot] epsilon_scale"),
        ("--ot.max_iter", "0", "[ot] max_iter"),
        ("--ot.tol", "-1e-6", "[ot] tol"),
        ("--model.hidden", "", "[model] hidden"),
        ("--model.kind", "foo", "[model] kind"),
        ("--ot.metric", "foo", "[ot] metric"),
        ("--model.transform", "foo", "[model] transform"),
        ("--model.dropout_first", "1.5", "[model] dropout_first"),
        ("--know_encoder.eval_every", "0", "[know_encoder] eval_every"),
        ("--know_encoder.val_pairs", "0", "[know_encoder] val_pairs"),
        ("--eval.k_labeled", "-1", "[eval] k_labeled"),
        ("--ot.anomaly_mass_boost", "-1", "[ot] anomaly_mass_boost"),
        ("--train.learning_rate", "nan", "[train] learning_rate"),
        ("--ot.anomaly_mass_boost", "1e308", "[ot] anomaly_mass_boost"),
        ("--eval.include_baseline", "maybe", "[eval] include_baseline: not a boolean: 'maybe'"),
        ("--config", "no-such-dir/missing.ini", "config file not found: no-such-dir/missing.ini"),
    ],
)
def test_bad_training_step_config_exits_1(small_csv, tmp_path, capsys, flag, value, key):
    code, line = run_one_line(
        ["experiment", "--data.path", small_csv, "--out", tmp_path / "out",
         "--know_encoder.steps", "2", "--train.epochs", "1", "--eval.seeds", "0",
         f"{flag}={value}"],
        capsys,
    )
    assert code == 1
    assert line.startswith("config error:") and key in line


SYNTH_DATA_ERRORS = {  # synth-data flags -> the text of their one config error line
    "--n-normal -5": "n_normal must be >= 0, got -5",
    "--n-direct -1": "n_direct must be >= 0, got -1",
    "--n-rule -1": "n_rule must be >= 0, got -1",
    "--seed -1": "seed must be >= 0, got -1",
    "--n-normal 0 --n-direct 0 --n-rule 0": "got 0 rows",
    "--features 3": "n_features must be >= 4, got 3",
    "--noise nan": "noise must be finite and > 0, got nan",
    "--noise inf": "noise must be finite and > 0, got inf",
    "--noise 0": "noise must be finite and > 0, got 0.0",
    "--noise -0.5": "noise must be finite and > 0, got -0.5",
    "--noise 1e308": "noise 1e+308 overflows a generated value",
    "--n-normal 100000000000000": "features do not fit in memory",  # 3.2 PB: past any address space
}


def test_synth_data_writes_one_cluster_tag_per_row(tmp_path):
    data, tags = tmp_path / "synth.csv", tmp_path / "clusters.txt"
    argv = ["synth-data", "--out", data, "--seed", "1", "--n-normal", "30", "--n-direct", "5",
            "--n-rule", "4", "--clusters-out", tags]
    assert cli.main([str(a) for a in argv]) == 0
    lines = tags.read_text().splitlines()
    assert tags.read_text().endswith("\n")
    assert len(lines) == len(data.read_text().splitlines()) - 1 == 39
    assert {"normal_a", "normal_b", "direct", "rule"} == set(lines)
    assert lines.count("direct") == 5 and lines.count("rule") == 4


@pytest.mark.parametrize("flags", sorted(SYNTH_DATA_ERRORS))
def test_bad_synth_data_exits_1(tmp_path, capsys, flags):
    out = tmp_path / "synth.csv"
    code, line = run_one_line(["synth-data", "--out", out, *flags.split()], capsys)
    assert code == 1
    assert line.startswith("config error:") and SYNTH_DATA_ERRORS[flags] in line, line
    assert not out.exists()


def _rule_file(tmp_path, text, name="rules.json"):
    path = tmp_path / name
    path.write_text(text)
    return ["compile-rules", "--rules", path, "--out", tmp_path / "out.json"]


def _with_crc(body: bytes) -> bytes:
    """A checkpoint body followed by its valid checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


def _checkpoint(tmp_path, meta: bytes, tensors=(), version=VERSION):
    path = tmp_path / "model.kdal"
    raw = MAGIC + struct.pack("<I", version) + struct.pack("<Q", len(meta)) + meta
    for name, arr in tensors:
        raw += struct.pack("<H", len(name)) + name.encode() + struct.pack("<QQ", *arr.shape)
        raw += arr.astype("<f8").tobytes()
    path.write_bytes(_with_crc(raw))
    return path


def _infer_meta(tmp_path, small_csv, meta: bytes, tensors=(), version=VERSION):
    ck = _checkpoint(tmp_path, meta, tensors, version)
    return ["infer", "--checkpoint", ck, "--data", small_csv, "--out", tmp_path / "s.txt"]


def _detector(tmp_path, small_csv, stored=None, drop=(), resize=None, first=None):
    """infer on a default-[model] detector for the 4 CSV features, altered;
    ``first`` maps tensor names to the value of their [0, 0] entry."""
    model = ModelConfig()
    rng = np.random.default_rng(0)
    tensors = {**init_encoder(model, 4, rng), **init_head(model, rng)}
    tensors.update({"norm/mean": np.zeros((1, 4)), "norm/std": np.ones((1, 4))})
    for name in drop:
        del tensors[name]
    if resize:
        tensors[resize[0]] = np.zeros(resize[1])
    for name, value in (first or {}).items():
        tensors[name][0, 0] = value
    meta = {
        "seed": 0,
        "model": {**dataclasses.asdict(model), **(stored or {})},
        "tensors": [
            {"name": n, "rows": a.shape[0], "cols": a.shape[1]} for n, a in tensors.items()
        ],
    }
    return _infer_meta(tmp_path, small_csv, json.dumps(meta).encode(), tensors.items())


def _with_cell(tmp_path, small_csv, row, col, text):
    lines = small_csv.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[col] = text
    lines[row - 1] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _split_without_anomaly(tmp_path, small_csv, empty):
    """experiment on the CSV with a split column whose ``empty`` split holds
    no anomaly."""
    lines = small_csv.read_text().splitlines()
    tags = ["train"] * 7 + ["val", "test", "test"]
    out = [lines[0] + ",split"]
    for i, line in enumerate(lines[1:]):
        tag = tags[i % len(tags)]
        out.append(f"{line},{'train' if tag == empty and line.endswith(',1') else tag}")
    path = tmp_path / "split.csv"
    path.write_text("\n".join(out) + "\n")
    return ["experiment", "--data.path", path, "--out", tmp_path / "out", "--eval.seeds=0",
            "--rules.max_depth=2", "--rules.min_leaf=5", "--rules.feature_indices=2",
            "--know_encoder.steps=2", "--train.epochs=1"]


def _eval(tmp_path, scores_text, labels_text):
    scores, labels = tmp_path / "scores.txt", tmp_path / "labels.txt"
    scores.write_text(scores_text)
    labels.write_text(labels_text)
    return ["eval", "--scores", scores, "--labels", labels]


def _infer_bad_csv(tmp_path, small_csv, text):
    ck = tmp_path / "model.kdal"
    save_checkpoint(ModelCheckpoint(params={}, seed=0), ck)
    data = _with_cell(tmp_path, small_csv, 7, 2, text)
    return ["infer", "--checkpoint", ck, "--data", data, "--out", tmp_path / "s.txt"]


def _in_latin1(argv, index):
    """``argv`` with the file at ``argv[index]`` re-encoded in Latin-1, so
    that each 'é' in it is the byte 0xe9, which is not UTF-8."""
    path = Path(argv[index])
    path.write_bytes(path.read_text(encoding="utf-8").encode("latin-1"))
    return argv


def _wide_rule(tmp_path, n_conditions, command):
    """A rule of ``n_conditions`` distinct conditions, plus a one-condition
    rule, through ``compile-rules`` or ``pretrain``."""
    conditions = " AND ".join(f"f1 > {i}" for i in range(n_conditions))
    text = f"IF {conditions} THEN anomaly IS true\nIF f2 > 0 THEN anomaly IS true\n"
    argv = _rule_file(tmp_path, text, "wide.rules")
    if command == "compile-rules":
        return argv
    return ["pretrain", "--rules.path", argv[2], "--out", tmp_path / "enc.kdal"]


def _data_file(tmp_path, text, command):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return [command, "--data.path", path, "--out", tmp_path / "out.rules"]


def _infer_header_only(tmp_path, small_csv):
    data = tmp_path / "header.csv"
    data.write_text(small_csv.read_text().splitlines()[0] + "\n")
    ck = tmp_path / "model.kdal"
    save_checkpoint(ModelCheckpoint(params={}, seed=0), ck)
    return ["infer", "--checkpoint", ck, "--data", data, "--out", tmp_path / "s.txt"]


def _train_encoder_from_lambda0_run(tmp_path, small_csv):
    """train --encoder given the checkpoint of a train run without rules."""
    run, rules = tmp_path / "run", tmp_path / "one.rules"
    assert cli.main(["train", "--data.path", str(small_csv), "--out", str(run),
                     "--train.epochs=1"]) == 0
    save_rules([Rule("r0", [Condition("f1", ">", 0.0)], True)], rules)
    return ["train", "--data.path", small_csv, "--rules.path", rules,
            "--encoder", run / "checkpoint.kdal", "--out", tmp_path / "run2"]


def _infer_corrupt_byte(tmp_path, small_csv, pos, value, crc):
    """infer on a saved checkpoint with byte ``pos`` set to ``value``; with
    ``crc`` the checksum is rewritten to match the changed bytes."""
    ck = tmp_path / "model.kdal"
    save_checkpoint(ModelCheckpoint(params={"w": np.eye(2)}, seed=0), ck)
    raw = bytearray(ck.read_bytes())
    raw[pos] = value
    ck.write_bytes(_with_crc(bytes(raw[:-4])) if crc else bytes(raw))
    return ["infer", "--checkpoint", ck, "--data", small_csv, "--out", tmp_path / "s.txt"]


def _infer_tensor_past_end(tmp_path, small_csv):
    """infer on a checkpoint whose tensor header and metadata agree on a
    10^6 x 10^6 shape that the file does not hold."""
    n = 10**6
    meta = json.dumps({"seed": 0, "tensors": [{"name": "w", "rows": n, "cols": n}]}).encode()
    ck = tmp_path / "model.kdal"
    ck.write_bytes(_with_crc(
        MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(meta)) + meta
        + struct.pack("<H", 1) + b"w" + struct.pack("<QQ", n, n) + bytes(8)
    ))
    return ["infer", "--checkpoint", ck, "--data", small_csv, "--out", tmp_path / "s.txt"]


MALFORMED_FILES = {
    "rule-missing-key": (
        lambda t, csv: _rule_file(t, '[{"id":"r1","consequent":true}]'),
        "rule entry 0: missing key 'conditions'",
    ),
    "rule-payload-not-list": (
        lambda t, csv: _rule_file(t, '{"id":"r1"}'),
        "must be a list of rules",
    ),
    "rule-bad-condition": (
        lambda t, csv: _rule_file(
            t,
            '[{"id":"r1","conditions":[{"attr":"a","op":"~","threshold":1}],"consequent":true}]',
        ),
        "rule entry 0: unknown predicate '~'",
    ),
    "rule-entry-not-object": (
        lambda t, csv: _rule_file(t, "[5]"),
        "rule entry 0 must be an object, got a number",
    ),
    "rule-conditions-not-list": (
        lambda t, csv: _rule_file(t, '[{"id":"r1","conditions":5,"consequent":true}]'),
        "rule entry 0: 'conditions' must be a list, got a number",
    ),
    "rule-condition-not-object": (
        lambda t, csv: _rule_file(t, '[{"id":"r1","conditions":[5],"consequent":true}]'),
        "rule entry 0: condition 0 must be an object, got a number",
    ),
    "rule-threshold-string": (
        lambda t, csv: _rule_file(
            t,
            '[{"id":"r1","conditions":[{"attr":"a","op":">","threshold":"1"}],"consequent":true}]',
        ),
        "rule entry 0: condition 0 'threshold' must be a number, got a string",
    ),
    "rule-threshold-past-float-range": (
        lambda t, csv: _rule_file(
            t,
            '[{"id":"r1","conditions":[{"attr":"a","op":">","threshold":1' + "0" * 400 + '}],'
            '"consequent":true}]',
        ),
        "rule entry 0: int too large to convert to float",
    ),
    "rule-id-null": (
        lambda t, csv: _rule_file(
            t,
            '[{"id":null,"conditions":[{"attr":"a","op":">","threshold":1}],"consequent":true}]',
        ),
        "data error: rule entry 0: 'id' must be a string, got null",
    ),
    "rule-id-object": (
        lambda t, csv: _rule_file(
            t,
            '[{"id":{"x":1},"conditions":[{"attr":"a","op":">","threshold":1}],"consequent":true}]',
        ),
        "data error: rule entry 0: 'id' must be a string, got an object",
    ),
    "rule-threshold-past-digit-limit": (  # json.loads refuses ints past 4,300 digits
        lambda t, csv: _rule_file(
            t,
            '[{"id":"r1","conditions":[{"attr":"a","op":">","threshold":1' + "0" * 5000 + '}],'
            '"consequent":true}]',
        ),
        "invalid rule JSON: Exceeds the limit (4300 digits)",
    ),
    "rule-consequent-string": (
        lambda t, csv: _rule_file(
            t,
            '[{"id":"r1","conditions":[{"attr":"a","op":">","threshold":1}],"consequent":"false"}]',
        ),
        "rule entry 0: 'consequent' must be a boolean, got a string",
    ),
    "rule-dsl-infinite-threshold": (
        lambda t, csv: _rule_file(t, "IF f3 <= -1e999 THEN anomaly IS true\n", "r.rules"),
        "line 1: condition threshold must be finite",
    ),
    "rule-dsl-contradiction": (
        lambda t, csv: _rule_file(t, "IF f3 > 5 AND f3 < 3 THEN anomaly IS true\n", "r.rules"),
        "line 1: rule 'rule_000': contradictory conditions on attribute 'f3'",
    ),
    "rule-not-utf8": (
        lambda t, csv: _in_latin1(_rule_file(t, "IF fé > 1 THEN anomaly IS true\n", "r.rules"), 2),
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9",
    ),
    "rule-past-enumeration-bound": (
        lambda t, csv: _wide_rule(t, 16, "pretrain"),
        "formula 0 has 17 variables; enumeration bound is 16",
    ),
    "checkpoint-meta-length-past-end": (  # byte 14: the metadata length
        lambda t, csv: _infer_corrupt_byte(t, csv, 14, 109, crc=True),
        "truncated checkpoint while reading metadata",
    ),
    "checkpoint-tensor-past-end": (
        _infer_tensor_past_end,
        "truncated checkpoint while reading tensor 'w' data",
    ),
    "checkpoint-meta-not-json": (
        lambda t, csv: _infer_meta(t, csv, b"{not json"),
        "metadata is not JSON",
    ),
    "checkpoint-meta-no-tensors": (
        lambda t, csv: _infer_meta(t, csv, b'{"seed": 0}'),
        "'tensors'",
    ),
    "checkpoint-meta-no-seed": (
        lambda t, csv: _infer_meta(t, csv, b'{"tensors": []}'),
        "'seed'",
    ),
    "checkpoint-version-1": (
        lambda t, csv: _infer_meta(t, csv, b'{"seed": 0, "tensors": []}', version=1),
        "unsupported checkpoint version 1",
    ),
    "checkpoint-version-2": (  # version 3 without the checksum
        lambda t, csv: _infer_meta(t, csv, b'{"seed": 0, "tensors": []}', version=2),
        "unsupported checkpoint version 2",
    ),
    "checkpoint-version-3": (  # [know_encoder] with its embed and var_capacity keys
        lambda t, csv: _infer_meta(t, csv, b'{"seed": 0, "tensors": []}', version=3),
        "unsupported checkpoint version 3",
    ),
    "checkpoint-flipped-byte": (  # a tensor value changed, still finite
        lambda t, csv: _infer_corrupt_byte(t, csv, -6, 0xF1, crc=False),
        "checkpoint checksum mismatch",
    ),
    "checkpoint-meta-unknown-key": (
        lambda t, csv: _detector(t, csv, stored={"bogus": 1}),
        "checkpoint 'model' metadata needs the keys",
    ),
    "checkpoint-meta-bad-value": (
        lambda t, csv: _detector(t, csv, stored={"kind": "foo"}),
        "does not fit [model]",
    ),
    "checkpoint-meta-string-for-int": (
        lambda t, csv: _detector(t, csv, stored={"blocks": "2"}),
        "does not re-serialise as written",
    ),
    "checkpoint-no-norm": (
        lambda t, csv: _detector(t, csv, drop=("norm/mean", "norm/std")),
        "lacks the tensor 'norm/mean'",
    ),
    "checkpoint-no-enc-w1": (
        lambda t, csv: _detector(t, csv, drop=("enc/w1",)),
        "tensor 'enc/w1': absent in the file, 32x16 for its [model]",
    ),
    "checkpoint-nan-weight": (
        lambda t, csv: _detector(t, csv, first={"enc/w0": np.nan}),
        "checkpoint tensor 'enc/w0' holds a non-finite value",
    ),
    "checkpoint-enc-w0-shape": (
        lambda t, csv: _detector(t, csv, resize=("enc/w0", (4, 7))),
        "tensor 'enc/w0': 4x7 in the file, 4x32 for its [model]",
    ),
    "experiment-nan-cell": (
        lambda t, csv: ["experiment", "--data.path", _with_cell(t, csv, 5, 1, "nan")],
        "row 5, column 'f2': non-finite value nan",
    ),
    "infer-nan-cell": (
        lambda t, csv: _infer_bad_csv(t, csv, "nan"),
        "row 7, column 'f3': non-finite value nan",
    ),
    "infer-csv-not-utf8": (
        lambda t, csv: _in_latin1(_infer_bad_csv(t, csv, "é"), 4),
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9",
    ),
    "infer-inf-cell": (
        lambda t, csv: _infer_bad_csv(t, csv, "-inf"),
        "row 7, column 'f3': non-finite value -inf",
    ),
    "acquire-allowlist-out-of-range": (
        lambda t, csv: ["acquire-rules", "--data.path", csv, "--out", t / "r.rules",
                        "--rules.feature_indices", "9"],
        "data error: feature allowlist (9,) out of range for d=4",
    ),
    "eval-all-zero-labels": (
        lambda t, csv: _eval(t, "0.1\n0.5\n0.3\n", "0\n0\n0\n"),
        "labels hold no 1; AUPRC and Rec@K need at least one positive label",
    ),
    "eval-nan-score": (
        lambda t, csv: _eval(t, "0.9\nnan\n0.1\n", "1\n0\n1\n"),
        "scores.txt: line 2: non-finite value 'nan'",
    ),
    "eval-inf-score": (
        lambda t, csv: _eval(t, "0.9\n0.2\n# c\n-inf\n", "1\n0\n1\n"),
        "scores.txt: line 4: non-finite value '-inf'",
    ),
    "eval-half-label": (
        lambda t, csv: _eval(t, "0.9\n0.2\n0.1\n", "1\n0.5\n0\n"),
        "labels.txt: line 2: label '0.5' is not 0 or 1",
    ),
    "eval-label-past-1": (
        lambda t, csv: _eval(t, "0.9\n0.2\n0.1\n", "1.7\n0\n1\n"),
        "labels.txt: line 1: label '1.7' is not 0 or 1",
    ),
    "eval-nan-label": (
        lambda t, csv: _eval(t, "0.9\n0.2\n0.1\n", "1\n0\nnan\n"),
        "labels.txt: line 3: label 'nan' is not 0 or 1",
    ),
    "eval-count-mismatch": (
        lambda t, csv: _eval(t, "0.1\n0.2\n0.3\n", "1\n0\n"),
        "3 scores vs 2 labels; counts must match",
    ),
    "eval-non-numeric-score": (
        lambda t, csv: _eval(t, "0.1\nabc\n", "1\n0\n"),
        "scores.txt: line 2: non-numeric value 'abc'",
    ),
    "eval-comment-only-scores": (
        lambda t, csv: _eval(t, "# only\n# comments\n", "1\n0\n"),
        "scores.txt: no values",
    ),
    "train-cell-past-field-limit": (  # csv.field_size_limit() is 131,072 characters
        lambda t, csv: _data_file(t, 'f1,label\n"' + "1" * 200_000 + '",0\n', "train"),
        "data.csv: row 2: field larger than field limit",
    ),
    "train-header-label-twice": (
        lambda t, csv: _data_file(t, "f1,label,label\n1,0,0\n2,1,1\n", "train"),
        "data.csv: the header names column 'label' more than once",
    ),
    "acquire-header-feature-twice": (
        lambda t, csv: _data_file(t, "f1,f1,label\n1,0,0\n2,1,1\n", "acquire-rules"),
        "data.csv: the header names column 'f1' more than once",
    ),
    "infer-header-only-csv": (
        _infer_header_only,
        "header.csv: no data rows",
    ),
    "train-encoder-lambda0-checkpoint": (
        _train_encoder_from_lambda0_run,
        "checkpoint.kdal: not a knowledge-encoder checkpoint",
    ),
    "experiment-val-without-anomaly": (
        lambda t, csv: _split_without_anomaly(t, csv, "val"),
        "the val split has no anomaly",
    ),
    "experiment-test-without-anomaly": (
        lambda t, csv: _split_without_anomaly(t, csv, "test"),
        "the test split has no anomaly",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exits_2(small_csv, tmp_path, capsys, case):
    make_argv, message = MALFORMED_FILES[case]
    code, line = run_one_line(make_argv(tmp_path, small_csv), capsys)
    assert code == 2
    assert line.startswith("data error:") and message in line, line


def test_infer_with_non_finite_scores_exits_3(small_csv, tmp_path, capsys):
    # finite weights whose products overflow: scores of inf - inf, and no numpy warning
    argv = _detector(tmp_path, small_csv, first={"enc/w0": 1e308, "enc/w1": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, line = run_one_line(argv, capsys)
    assert code == 3
    assert line.startswith("numeric failure:") and "scores are not finite" in line, line
    assert not (tmp_path / "s.txt").exists()


# ---------------------------------------------------------------------------
# Subcommands read their settings from the config sections.
# ---------------------------------------------------------------------------


def test_acquire_rules_reads_the_rules_section(small_csv, tmp_path):
    out = tmp_path / "rules.rules"
    argv = ["acquire-rules", "--data.path", str(small_csv), "--out", str(out),
            "--rules.max_depth=1", "--rules.trees=3"]
    assert cli.main(argv) == 0
    rules = load_rules(out)
    assert rules and all(len(r.conditions) == 1 for r in rules)
    provenance = json.loads(Path(str(out) + ".provenance.json").read_text())
    assert {p["tree_index"] for p in provenance} <= {0, 1, 2}


@pytest.mark.parametrize("names", [("x-1", "x-2", "x-3", "x-4"), ("and", "false", "if", "is"),
                                   ("fé", "gé", "hé", "ié"), ("a>b", "a<b", "a=b", "a!b")])
def test_acquire_rules_refuses_a_rules_file_that_would_not_parse_back(small_csv, tmp_path, capsys,
                                                                      names):
    # a .rules attribute is a DSL identifier; .json takes any column name
    data = tmp_path / "named.csv"
    data.write_text(",".join([*names, "label"]) + "\n" + small_csv.read_text().split("\n", 1)[1],
                    encoding="utf-8")
    code, line = run_one_line(["acquire-rules", "--data.path", data, "--out", tmp_path / "r.rules"],
                              capsys)
    assert code == 2
    assert line.startswith("data error: rule 'rule_000': attribute "), line
    assert line.endswith("is not a rule-language name; save the rules to .json instead"), line
    assert sorted(tmp_path.iterdir()) == [data]  # no rule file and no provenance sidecar
    out = tmp_path / "r.json"
    assert cli.main(["acquire-rules", "--data.path", str(data), "--out", str(out)]) == 0
    dataset = load_csv(data)
    rules, _ = acquire_rules(dataset.X, dataset.y, dataset.feature_names, RulesConfig())
    assert rules and load_rules(out) == rules


def test_pretrain_checkpoint_carries_the_know_encoder_seed(small_csv, tmp_path):
    # E_F is as wide as the [model] encoder's embedding: the last hidden width
    rules = tmp_path / "rules.rules"
    assert cli.main(["acquire-rules", "--data.path", str(small_csv), "--out", str(rules)]) == 0
    out = tmp_path / "enc.kdal"
    argv = ["pretrain", "--rules.path", str(rules), "--out", str(out),
            "--know_encoder.steps=2", "--know_encoder.seed=7", "--model.hidden=32,5"]
    assert cli.main(argv) == 0
    ck = load_checkpoint(out)
    assert ck.seed == 7 and ck.know_encoder.seed == 7
    assert ck.e_f.shape[1] == 5 and np.isfinite(ck.e_f).all()


def test_experiment_resnet_with_the_default_main_dim_exits_0(small_csv, tmp_path):
    # the knowledge encoder takes the resnet's main_dim, 32, as its width
    argv = ["experiment", "--data.path", small_csv, "--out", tmp_path / "out",
            "--model.kind=resnet", "--rules.max_depth=2", "--rules.min_leaf=5",
            "--rules.feature_indices=2", "--know_encoder.steps=2", "--train.epochs=1",
            "--eval.seeds=0", "--eval.include_baseline=false"]
    assert cli.main([str(a) for a in argv]) == 0


def test_pretrain_without_a_rules_path_exits_1(tmp_path, capsys):
    code, line = run_one_line(["pretrain", "--out", tmp_path / "enc.kdal"], capsys)
    assert code == 1
    assert line == "config error: [rules] path is required"


def test_train_encoder_without_a_rules_path_exits_1(small_csv, tmp_path, capsys):
    enc = tmp_path / "enc.kdal"
    know = ModelCheckpoint({}, 0, know_encoder=KnowEncoderConfig(), e_f=np.ones((2, 16)))
    save_checkpoint(know, enc)
    argv = ["train", "--data.path", small_csv, "--encoder", enc, "--out", tmp_path / "run"]
    code, line = run_one_line(argv, capsys)
    assert code == 1
    assert line == "config error: train --encoder needs the [rules] path of the encoder's rules"
    assert not (tmp_path / "run").exists()


def test_train_encoder_with_another_rule_count_exits_1(small_csv, tmp_path, capsys):
    enc, rules = tmp_path / "enc.kdal", tmp_path / "two.rules"
    know = ModelCheckpoint({}, 0, know_encoder=KnowEncoderConfig(), e_f=np.ones((3, 16)))
    save_checkpoint(know, enc)
    save_rules([Rule(f"r{i}", [Condition("x0", ">", float(i))], True) for i in range(2)], rules)
    argv = ["train", "--data.path", small_csv, "--rules.path", rules, "--encoder", enc,
            "--out", tmp_path / "run"]
    code, line = run_one_line(argv, capsys)
    assert code == 1
    assert line == f"config error: {rules} has 2 rules but {enc} embeds 3"
    assert not (tmp_path / "run").exists()


def test_train_encoder_pretrained_under_another_model_exits_1(small_csv, tmp_path, capsys):
    enc, rules = tmp_path / "enc.kdal", tmp_path / "two.rules"
    know = ModelCheckpoint({}, 0, know_encoder=KnowEncoderConfig(), e_f=np.ones((2, 16)))
    save_checkpoint(know, enc)
    save_rules([Rule(f"r{i}", [Condition("x0", ">", float(i))], True) for i in range(2)], rules)
    argv = ["train", "--data.path", small_csv, "--rules.path", rules, "--encoder", enc,
            "--out", tmp_path / "run", "--model.hidden=32,8"]
    code, line = run_one_line(argv, capsys)
    assert code == 1
    assert line == f"config error: {enc} embeds its rules 16 wide, but [model] embeds 8 wide"
    assert not (tmp_path / "run").exists()


def test_infer_ignores_labels(small_csv, tmp_path, capsys):
    # a CSV cut without its label column, or with a label of '?', scores as
    # the labeled file does; train still refuses the '?'
    run = tmp_path / "run"
    assert cli.main(["train", "--data.path", str(small_csv), "--out", str(run),
                     "--train.epochs=1"]) == 0
    assert small_csv.read_text().startswith("f1,f2,f3,f4,label\n")
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                 for line in small_csv.read_text().splitlines()))
    unknown = _with_cell(tmp_path, small_csv, 7, 4, "?")
    scores = []
    for data in (small_csv, unlabeled, unknown):
        out = tmp_path / f"{data.stem}.txt"
        argv = ["infer", "--checkpoint", run / "checkpoint.kdal", "--data", data, "--out", out]
        assert cli.main([str(a) for a in argv]) == 0
        scores.append(out.read_bytes())
    assert scores[0] == scores[1] == scores[2]
    code, line = run_one_line(["train", "--data.path", unknown, "--out", tmp_path / "run2",
                               "--train.epochs=1"], capsys)
    assert code == 2
    assert line == f"data error: {unknown}: row 7, column 'label': expected 0 or 1, got '?'"


def test_experiment_writes_the_pretraining_curve(small_csv, tmp_path):
    out = tmp_path / "out"
    argv = ["experiment", "--data.path", small_csv, "--out", out, "--rules.max_depth=2",
            "--rules.min_leaf=5", "--rules.feature_indices=2", "--know_encoder.steps=7",
            "--know_encoder.eval_every=3", "--train.epochs=1", "--eval.seeds=0",
            "--eval.include_baseline=false"]
    assert cli.main([str(a) for a in argv]) == 0
    pre = build_knowledge(load_csv(str(small_csv)), load_config(str(out / "effective_config.ini"))).pretrain
    lines = [json.loads(line) for line in (out / "pretrain.jsonl").read_text().splitlines()]
    assert [line["step"] for line in lines] == list(range(8))
    assert [line["loss"] for line in lines[1:]] == pre.loss_history
    assert [(line["step"], line["val_accuracy"]) for line in lines if "val_accuracy" in line] == [
        (step, acc) for step, acc in pre.val_history
    ]
    assert [step for step, _ in pre.val_history] == [0, 3, 6, 7] and "loss" not in lines[0]


def test_train_echoes_the_data_path(small_csv, tmp_path):
    out = tmp_path / "run"
    argv = ["train", "--data.path", str(small_csv), "--out", str(out), "--train.epochs=1"]
    assert cli.main(argv) == 0
    effective = load_config(str(out / "effective_config.ini"))
    assert effective["data"]["path"] == str(small_csv)
    assert f"[data]\npath = {small_csv}\n" in (out / "effective_config.ini").read_text()


def test_train_tunes_the_lambda_grid_like_run_seed(small_csv, tmp_path, capsys):
    rules, out, want = tmp_path / "rules.rules", tmp_path / "run", tmp_path / "want.kdal"
    acquire = ["acquire-rules", "--data.path", small_csv, "--out", rules, "--rules.max_depth=2",
               "--rules.min_leaf=5", "--rules.feature_indices=2"]
    train = ["train", "--data.path", small_csv, "--rules.path", rules, "--out", out,
             "--know_encoder.steps=5", "--train.epochs=3", "--train.seed=1",
             "--train.lambda_grid=0.5,2.0"]
    assert cli.main([str(a) for a in acquire]) == 0
    capsys.readouterr()
    assert cli.main([str(a) for a in train]) == 0
    printed = capsys.readouterr().out

    cfg = load_config(str(out / "effective_config.ini"))
    data = load_csv(str(small_csv))
    knowledge = build_knowledge(data, cfg)
    outcome = run_seed(data, knowledge, cfg, 1)
    save_checkpoint(outcome.checkpoint, want)
    assert (out / "checkpoint.kdal").read_bytes() == want.read_bytes()
    logged = (out / "training_log.jsonl").read_text().splitlines()
    assert logged == [record.to_json() for record in outcome.log]
    solo = {lam: run_seed(data, knowledge, cfg, 1, rule_weight=lam) for lam in (0.5, 2.0)}
    best = max(solo, key=lambda lam: solo[lam].best_val_auprc)  # the first on a tie
    assert outcome.rule_weight == best and f"at lambda {best}," in printed
    assert outcome.best_val_auprc == solo[best].best_val_auprc


def test_pipeline_smoke(small_csv, tmp_path, capsys):
    """synth-data -> acquire-rules -> compile-rules -> pretrain -> train -> infer -> eval."""
    rules, enc = tmp_path / "rules.rules", tmp_path / "enc.kdal"
    run, scores, labels = tmp_path / "run", tmp_path / "scores.txt", tmp_path / "labels.txt"
    fast = ["--know_encoder.steps=5", "--train.epochs=2"]
    steps = [
        ["acquire-rules", "--data.path", small_csv, "--out", rules, "--rules.max_depth=2",
         "--rules.min_leaf=5", "--rules.feature_indices=2"],
        ["compile-rules", "--rules", rules, "--out", tmp_path / "compiled.json"],
        ["pretrain", "--rules.path", rules, "--out", enc, *fast],
        ["train", "--data.path", small_csv, "--rules.path", rules, "--encoder", enc,
         "--out", run, *fast],
        ["infer", "--checkpoint", run / "checkpoint.kdal", "--data", small_csv, "--out", scores],
    ]
    for argv in steps:
        assert cli.main([str(a) for a in argv]) == 0, argv
    data = load_csv(str(small_csv))
    ck = load_checkpoint(run / "checkpoint.kdal")
    assert scores.read_text() == "".join(f"{float(s)!r}\n" for s in infer(ck, data.X))
    assert ck.know_encoder is not None and ck.e_f.shape == (len(load_rules(rules)), 16)

    labels.write_text("".join(f"{int(v)}\n" for v in data.y))
    capsys.readouterr()
    assert cli.main(["eval", "--scores", str(scores), "--labels", str(labels)]) == 0
    assert capsys.readouterr().out.startswith("auprc=")

    # a trained checkpoint as --encoder lends only its knowledge encoder
    for source, out in ((enc, tmp_path / "a"), (run / "checkpoint.kdal", tmp_path / "b")):
        argv = ["train", "--data.path", small_csv, "--rules.path", rules, "--encoder", source,
                "--out", out, "--train.epochs=1", "--train.seed=1"]
        assert cli.main([str(a) for a in argv]) == 0
    retrained = (tmp_path / "b" / "checkpoint.kdal").read_bytes()
    assert retrained == (tmp_path / "a" / "checkpoint.kdal").read_bytes()


def test_noise_study_rows_at_ratio_0_are_the_experiment_rows(small_csv, tmp_path, capsys):
    fast = ["--data.path", small_csv, "--rules.max_depth=2", "--rules.min_leaf=5",
            "--rules.feature_indices=2", "--eval.k_labeled=5", "--know_encoder.steps=5",
            "--train.epochs=2", "--eval.seeds=0,1"]
    argv = ["noise-study", *fast, "--eval.noise_ratios=0,0.2", "--out", tmp_path / "noise"]
    capsys.readouterr()
    assert cli.main([str(a) for a in argv]) == 0
    summary = [line.split()[:2] for line in capsys.readouterr().out.splitlines() if "±" in line]
    assert sorted(summary) == sorted(
        [m, r] for m in ("kdalign", "baseline") for r in ("0.000000", "0.200000")
    )
    assert cli.main([str(a) for a in ["experiment", *fast, "--out", tmp_path / "exp"]]) == 0

    def rows(path):
        return list(csv.DictReader(path.read_text().splitlines()))

    at_0 = [r for r in rows(tmp_path / "noise" / "noise_report.csv")
            if r.pop("noise_ratio") == "0.000000"]
    assert at_0 == rows(tmp_path / "exp" / "report.csv")


def test_failed_write_keeps_the_old_file(small_csv, tmp_path, monkeypatch, capsys):
    old_csv, old_rules = tmp_path / "old.csv", tmp_path / "old.rules"
    old_csv.write_text("old csv\n")
    old_rules.write_text("old rules\n")

    def no_rename(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", no_rename)
    for argv in (["synth-data", "--out", old_csv, "--n-normal", "50"],
                 ["acquire-rules", "--data.path", small_csv, "--out", old_rules]):
        code, line = run_one_line(argv, capsys)
        assert code == 2 and "cannot rename" in line, line
    assert old_csv.read_text() == "old csv\n" and old_rules.read_text() == "old rules\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv", "old.rules"]


# ---------------------------------------------------------------------------
# Help text
# ---------------------------------------------------------------------------


def test_compile_rules_takes_a_rule_of_any_width(tmp_path):
    """A rule of 1 to 21 conditions compiles: a clause of k literals has
    2^k - 1 models and a chain of 4k - 1 d-DNNF nodes, sinks included, as
    many as the reference chain has."""
    for n_conditions in (1, 2, 7, 21):
        out = tmp_path / str(n_conditions)
        out.mkdir()
        argv = _wide_rule(out, n_conditions, "compile-rules")
        assert cli.main([str(a) for a in argv]) == 0
        k = n_conditions + 1
        wide = json.loads((out / "out.json").read_text())["rules"][0]
        assert wide["variables"] == list(range(1, k + 1))
        assert wide["model_count"] == 2**k - 1
        assert wide["ddnnf_nodes"] == compile_ddnnf((*range(-1, -k, -1), k)).n_nodes()
    assert wide["ddnnf_nodes"] == 87


def test_compile_rules_matches_golden(tmp_path):
    """The compile-rules JSON of a 3-rule file (a shared condition, a
    repeated one, ``anomaly IS false``), recorded from the general
    formula-to-CNF path that ``rule_to_clause`` replaced."""
    out = tmp_path / "compiled.json"
    assert cli.main(["compile-rules", "--rules", str(GOLDEN / "compile_rules_three.rules"),
                     "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "compile_rules_three.json").read_text()


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("help_*.txt")), ids=lambda p: p.stem)
def test_help_matches_golden(golden, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    command = golden.stem[len("help_"):].replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == golden.read_text()
