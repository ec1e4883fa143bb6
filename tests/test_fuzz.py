"""Seeded fuzz of the CLI: mutated checkpoints and CSV cells through
``kdalign infer``, mutated rule files, in the DSL and in JSON, through
``kdalign compile-rules``, and bounded generator flags through
``kdalign synth-data``.

Every run must keep the exit-code contract (0 ok, 1 config, 2 data, 3
numeric) with at most one stderr line and no traceback.  A mutation that
breaks it becomes a named row of ``test_cli.MALFORMED_FILES`` once mended.
"""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from kdalign import cli
from kdalign.evaluate import load_csv
from kdalign.errors import DataError
from kdalign.rules import load_rules, rules_to_json, save_rules

CELL_TOKENS = ("", " ", "nan", "-inf", "1e999", "-1e308", "1e308", "abc", "0x1p3", "1,2",
               '"', "1e", "--1", "\t", "\x00", "é", "9" * 400)
CELL_CHARS = "0123456789.eE+-, \"'naif\t\x00é"
RULES = Path(__file__).parent / "golden" / "compile_rules_three.rules"
RULE_TOKENS = ("", " ", "nan", "inf", "-1e999", "1e308", "1e-400", "0x10", "1_0", "9" * 400,
               "==", "=>", "<>", "!", "IF", "AND", "THEN", "anomaly", "true", "#", "(", "--1",
               "1e", ".", "\t", "\x00", "é", "٣", "f1 f2", "\n", "\udcff")
RULE_CHARS = "0123456789.eE+-<>=!# \tfaIFNDx_é\x00\n\udcff"  # \udcff: the byte 0xff
CONDITION = re.compile(r"(?:IF|AND) (\S+) (\S+) (\S+)")
JSON_VALUES = (5, -1, 0, 1.5, 10**400, float("nan"), float("inf"), True, False, None, "", "false",
               "1", "é", ">", [], [5], [{}], {}, {"attr": 5})
JSON_CHARS = '{}[]:,"0123456789.eE+-truefalsn é\x00'
COUNT_TOKENS = ("-5000", "-1", "0", "1", "2", "3", "40", "5000")
SYNTH_TOKENS = {  # each flag's tokens all parse as its type; counts stay <= 5,000
    "--seed": ("-1", "0", "7", str(2**70)),
    "--n-normal": COUNT_TOKENS,
    "--n-direct": COUNT_TOKENS,
    "--n-rule": COUNT_TOKENS,
    "--features": ("-4", "0", "3", "4", "5", "9"),
    "--noise": ("nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e-300", "0.5", "7",
                "1e150", "1e307", "1e308"),
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small CSV and a one-epoch detector checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    csv, run = root / "synth.csv", root / "run"
    assert cli.main(["synth-data", "--out", str(csv), "--seed", "1", "--n-normal", "200",
                     "--n-direct", "20", "--n-rule", "20"]) == 0
    assert cli.main(["train", "--data.path", str(csv), "--out", str(run), "--train.epochs=1"]) == 0
    return csv, run / "checkpoint.kdal"


def contract_breach(argv, capsys, exit_codes=(0, 1, 2, 3)) -> str | None:
    """What of the contract one in-process CLI run breaks, if anything;
    ``exit_codes`` are the exit codes the run may end with."""
    capsys.readouterr()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([str(a) for a in argv])
    except Exception as exc:  # the installed CLI would print a traceback
        return f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code not in exit_codes:
        return f"exit {code}"
    if len(err.splitlines()) > 1 or "Traceback" in err:
        return f"exit {code} with stderr {err!r}"
    return None


def mutate_bytes(raw: bytes, rng: np.random.Generator) -> bytes:
    """The file truncated, or 1-4 of its bytes set to random values."""
    if rng.random() < 0.2:
        return raw[: rng.integers(0, len(raw))]
    out = bytearray(raw)
    for pos in rng.integers(0, len(out), size=rng.integers(1, 5)):
        out[pos] = rng.integers(0, 256)
    return bytes(out)


def mutate_cell(text: str, rng: np.random.Generator) -> str:
    """One cell, header included, replaced by a hostile token or with 1-3
    of its characters changed."""
    lines = text.splitlines()
    row = rng.integers(0, len(lines))
    cells = lines[row].split(",")
    col = rng.integers(0, len(cells))
    if rng.random() < 0.5:
        cells[col] = CELL_TOKENS[rng.integers(0, len(CELL_TOKENS))]
    else:
        chars = list(cells[col] or " ")
        for _ in range(rng.integers(1, 4)):
            chars[rng.integers(0, len(chars))] = CELL_CHARS[rng.integers(0, len(CELL_CHARS))]
        cells[col] = "".join(chars)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def mutate_rules(text: str, rng: np.random.Generator) -> str:
    """One attribute, predicate or threshold replaced by a hostile token, or
    1-3 characters of the file changed."""
    if rng.random() < 0.5:
        conditions = list(CONDITION.finditer(text))
        cond = conditions[rng.integers(0, len(conditions))]
        group = rng.integers(1, 4)
        token = RULE_TOKENS[rng.integers(0, len(RULE_TOKENS))]
        return text[: cond.start(group)] + token + text[cond.end(group) :]
    chars = list(text)
    for _ in range(rng.integers(1, 4)):
        chars[rng.integers(0, len(chars))] = RULE_CHARS[rng.integers(0, len(RULE_CHARS))]
    return "".join(chars)


def json_paths(node, path=()):
    """The path of every value in a JSON document, the document included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_paths(child, (*path, key))


def json_mutations(text: str, rng: np.random.Generator, n_edits: int):
    """A JSON rule file with each of its values, the whole list included,
    replaced by each hostile value in turn, then with each object key dropped
    in turn, then ``n_edits`` seeded copies with 1-3 characters changed."""
    paths = list(json_paths(json.loads(text)))
    for path in paths:
        for value in JSON_VALUES:
            yield json.dumps(_replaced(json.loads(text), path, value))
    for path in paths:
        if path and isinstance(path[-1], str):
            yield json.dumps(_replaced(json.loads(text), path, None, drop=True))
    for _ in range(n_edits):
        chars = list(text)
        for _ in range(rng.integers(1, 4)):
            chars[rng.integers(0, len(chars))] = JSON_CHARS[rng.integers(0, len(JSON_CHARS))]
        yield "".join(chars)


def _replaced(payload, path, value, drop=False):
    """``payload`` with the value at ``path`` set to ``value``, or dropped."""
    if not path:
        return value
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return payload


def test_mutated_checkpoints_keep_the_exit_contract(trained, tmp_path, capsys):
    """The checksum turns every changed checkpoint into a data error."""
    csv, checkpoint = trained
    raw = checkpoint.read_bytes()
    rng = np.random.default_rng(20240205)
    path = tmp_path / "mutated.kdal"
    breaches = []
    for case in range(300):
        mutated = mutate_bytes(raw, rng)
        path.write_bytes(mutated)
        argv = ["infer", "--checkpoint", path, "--data", csv, "--out", tmp_path / "s.txt"]
        breach = contract_breach(argv, capsys, (0, 1, 2, 3) if mutated == raw else (2,))
        if breach:
            breaches.append((case, breach))
    assert breaches == []


def test_mutated_csv_cells_keep_the_exit_contract(trained, tmp_path, capsys):
    csv, checkpoint = trained
    text = csv.read_text()
    rng = np.random.default_rng(20240206)
    path = tmp_path / "mutated.csv"
    breaches = []
    for case in range(200):
        path.write_text(mutate_cell(text, rng), encoding="utf-8")
        argv = ["infer", "--checkpoint", checkpoint, "--data", path, "--out", tmp_path / "s.txt"]
        breach = contract_breach(argv, capsys)
        if breach:
            breaches.append((case, breach))
    assert breaches == []


def test_mutated_rule_files_keep_the_exit_contract(tmp_path, capsys):
    text = RULES.read_text()
    rng = np.random.default_rng(20240207)
    path = tmp_path / "mutated.rules"
    breaches = []
    for case in range(300):
        path.write_text(mutate_rules(text, rng), encoding="utf-8", errors="surrogateescape")
        argv = ["compile-rules", "--rules", path, "--out", tmp_path / "c.json"]
        breach = contract_breach(argv, capsys)
        if breach:
            breaches.append((case, breach))
    assert breaches == []


def test_mutated_json_rule_files_keep_the_exit_contract(tmp_path, capsys):
    text = rules_to_json(load_rules(RULES))
    rng = np.random.default_rng(20240208)
    path = tmp_path / "mutated.json"
    breaches = []
    for case, mutated in enumerate(json_mutations(text, rng, n_edits=200)):
        path.write_text(mutated, encoding="utf-8")
        argv = ["compile-rules", "--rules", path, "--out", tmp_path / "c.json"]
        breach = contract_breach(argv, capsys)
        if breach:
            breaches.append((case, breach))
    assert breaches == []


def test_mutated_json_rule_files_that_load_save_to_dsl_or_refuse(tmp_path):
    """A rule set that loads from JSON either saves to a .rules file that
    reads back to the same conditions and consequents, or is refused with a
    DataError before any file is written."""
    text = rules_to_json(load_rules(RULES))
    rng = np.random.default_rng(20240208)
    source, dsl = tmp_path / "mutated.json", tmp_path / "saved.rules"
    mismatches, loaded, refused = [], 0, 0
    for case, mutated in enumerate(json_mutations(text, rng, n_edits=200)):
        source.write_text(mutated, encoding="utf-8")
        try:
            rules = load_rules(source)
        except DataError:
            continue
        loaded += 1
        try:
            save_rules(rules, dsl)
        except DataError:
            refused += 1
            assert not dsl.exists()
            continue
        again = load_rules(dsl)
        dsl.unlink()
        if [(r.conditions, r.consequent) for r in again] != [(r.conditions, r.consequent) for r in rules]:
            mismatches.append(case)
    assert mismatches == []
    assert 0 < refused < loaded


def test_synth_data_flags_keep_the_exit_contract(tmp_path, capsys):
    rng = np.random.default_rng(20240209)
    out = tmp_path / "synth.csv"
    breaches, written = [], 0
    for case in range(120):
        argv = ["synth-data", "--out", out]
        argv += [f"{flag}={tokens[rng.integers(0, len(tokens))]}"
                 for flag, tokens in SYNTH_TOKENS.items()]
        breach = contract_breach(argv, capsys, (0, 1))
        if breach is None and out.exists():
            load_csv(out)  # raises on a file that later subcommands reject
            written += 1
            out.unlink()
        if breach:
            breaches.append((case, argv[3:], breach))
    assert breaches == []
    assert 0 < written < 120
