import json
import struct
from pathlib import Path

import numpy as np
import pytest

from kdalign import cli
from kdalign.rules import load_rules
from kdalign.train import MAGIC, VERSION, ModelCheckpoint, load_checkpoint, save_checkpoint

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


def _rule_json(tmp_path, text):
    path = tmp_path / "rules.json"
    path.write_text(text)
    return ["compile-rules", "--rules", path, "--out", tmp_path / "out.json"]


def _checkpoint(tmp_path, meta: bytes):
    path = tmp_path / "model.kdal"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(meta)) + meta)
    return path


def _infer_meta(tmp_path, small_csv, meta: bytes):
    ck = _checkpoint(tmp_path, meta)
    return ["infer", "--checkpoint", ck, "--data", small_csv, "--out", tmp_path / "s.txt"]


def _with_cell(tmp_path, small_csv, row, col, text):
    lines = small_csv.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[col] = text
    lines[row - 1] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _spec_meta(encoder: dict) -> bytes:
    return json.dumps({"seed": 0, "tensors": [], "encoder": encoder}).encode()


def _infer_bad_csv(tmp_path, small_csv, text):
    ck = tmp_path / "model.kdal"
    save_checkpoint(ModelCheckpoint(params={}, seed=0), ck)
    data = _with_cell(tmp_path, small_csv, 7, 2, text)
    return ["infer", "--checkpoint", ck, "--data", data, "--out", tmp_path / "s.txt"]


MALFORMED_FILES = {
    "rule-missing-key": (
        lambda t, csv: _rule_json(t, '[{"id":"r1","consequent":true}]'),
        "rule entry 0: missing key 'conditions'",
    ),
    "rule-payload-not-list": (
        lambda t, csv: _rule_json(t, '{"id":"r1"}'),
        "must be a list of rules",
    ),
    "rule-bad-condition": (
        lambda t, csv: _rule_json(
            t,
            '[{"id":"r1","conditions":[{"attr":"a","op":"~","threshold":1}],"consequent":true}]',
        ),
        "rule entry 0: unknown predicate '~'",
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
    "checkpoint-spec-unknown-field": (
        lambda t, csv: _infer_meta(t, csv, _spec_meta({"kind": "mlp", "input_dim": 4, "bogus": 1})),
        "does not fit EncoderSpec",
    ),
    "checkpoint-spec-bad-value": (
        lambda t, csv: _infer_meta(t, csv, _spec_meta({"kind": "foo", "input_dim": 4})),
        "does not fit EncoderSpec",
    ),
    "experiment-nan-cell": (
        lambda t, csv: ["experiment", "--data.path", _with_cell(t, csv, 5, 1, "nan")],
        "row 5, column 'f2': non-finite value nan",
    ),
    "infer-nan-cell": (
        lambda t, csv: _infer_bad_csv(t, csv, "nan"),
        "row 7, column 'f3': non-finite value nan",
    ),
    "infer-inf-cell": (
        lambda t, csv: _infer_bad_csv(t, csv, "-inf"),
        "row 7, column 'f3': non-finite value -inf",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exits_2(small_csv, tmp_path, capsys, case):
    make_argv, message = MALFORMED_FILES[case]
    code, line = run_one_line(make_argv(tmp_path, small_csv), capsys)
    assert code == 2
    assert line.startswith("data error:") and message in line, line


# ---------------------------------------------------------------------------
# Subcommands read their settings from the config sections.
# ---------------------------------------------------------------------------


def test_acquire_rules_reads_the_rules_section(small_csv, tmp_path):
    out = tmp_path / "rules.rules"
    argv = ["acquire-rules", "--data", str(small_csv), "--out", str(out),
            "--rules.max_depth=1", "--rules.trees=3"]
    assert cli.main(argv) == 0
    rules = load_rules(out)
    assert rules and all(len(r.conditions) == 1 for r in rules)
    provenance = json.loads(Path(str(out) + ".provenance.json").read_text())
    assert {p["tree_index"] for p in provenance} <= {0, 1, 2}


def test_pretrain_checkpoint_carries_the_know_encoder_seed(small_csv, tmp_path):
    rules = tmp_path / "rules.rules"
    assert cli.main(["acquire-rules", "--data", str(small_csv), "--out", str(rules)]) == 0
    out = tmp_path / "enc.kdal"
    argv = ["pretrain", "--rules", str(rules), "--out", str(out),
            "--know_encoder.steps=2", "--know_encoder.seed=7", "--know_encoder.embed=5"]
    assert cli.main(argv) == 0
    ck = load_checkpoint(out)
    assert ck.seed == 7 and ck.know_spec.embed_width == 5
    assert ck.e_f.shape[1] == 5 and np.isfinite(ck.e_f).all()


# ---------------------------------------------------------------------------
# Help text
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("help_*.txt")), ids=lambda p: p.stem)
def test_help_matches_golden(golden, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    command = golden.stem[len("help_"):].replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == golden.read_text()
