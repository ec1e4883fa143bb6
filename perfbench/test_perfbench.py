"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_report,
    make_dataset,
    make_scoring_set,
    override_pairs,
    write_dataset_csv,
)

from kdalign import config  # noqa: E402
from kdalign.evaluate import MetricReport  # noqa: E402

INI = str(ROOT / "configs" / "synthetic.ini")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Reduced sizes: the same code paths as the full workloads in a few seconds.
REDUCED = {
    "w1-reference": ({}, ("know_encoder.steps=10", "train.epochs=2", "eval.seeds=0")),
    "w2-knowledge": (
        {"n_normal": 3000, "n_direct": 150, "n_rule": 200, "n_features": 16},
        ("know_encoder.steps=10",),
    ),
    "w3-wide-ot": (
        {"n_normal": 3000, "n_direct": 200, "n_rule": 200, "n_features": 8},
        ("rules.trees=8", "know_encoder.steps=10", "train.epochs=2", "eval.seeds=0"),
    ),
}


def reduced(name: str):
    shape, extra = REDUCED[name]
    wl = WORKLOADS[name]
    return dataclasses.replace(
        wl, shape={**wl.shape, **shape}, overrides=wl.overrides + extra, pins=(), baseline_pin=None
    )


def load(wl):
    return config.load_config(INI, override_pairs(wl)), make_dataset(wl)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_data_is_byte_identical_per_seed(name, tmp_path):
    wl = WORKLOADS[name]
    digests = []
    for i in range(2):
        path = tmp_path / f"data{i}.csv"
        write_dataset_csv(wl, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    a, b = make_scoring_set(wl, 3), make_scoring_set(wl, 3)
    assert a.shape[0] == 100_000 and a.tobytes() == b.tobytes()
    assert not np.array_equal(a, make_scoring_set(wl, 4))


def test_benchmark_json_names_and_limits():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    e2e, layers = BENCH["end_to_end"], BENCH["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(name_re.fullmatch(n) for n in names)
    assert [w["name"] for w in BENCH["workloads"]] == sorted(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_workload_passes_output_checks(name):
    wl = reduced(name)
    cfg, data = load(wl)
    out = run.Outcome()
    _, tr, report = run.protocol(cfg, data, layers=False)
    run.account_seed_runs(out, tr)
    run.check_first_run(out, wl, cfg, data, tr, report)
    assert out.problems == [] and out.failed == 0 and out.attempted == len(report.rows)


def test_traced_counts_repeat_and_tracing_keeps_results():
    wl = reduced("w1-reference")
    cfg, data = load(wl)
    _, _, plain = run.protocol(cfg, data, layers=False)
    metrics, reports = [], []
    for _ in range(2):
        _, tr, report = run.protocol(cfg, data, layers=True)
        metrics.append(tracer.layer_metrics(tr.spans))
        reports.append(report)
    for key in tracer.COUNT_METRICS:
        assert metrics[0][key] == metrics[1][key], key
    out = run.Outcome()
    run.check_same_results(out, [plain] + reports, "traced and untraced runs")
    assert out.problems == []
    # Every binding is restored after a traced run.
    assert tracer.experiment.run_seed.__module__ == "kdalign.experiment"
    assert tracer.autodiff.Tape.backward.__qualname__ == "Tape.backward"


def test_layer_metrics_cover_the_declared_names():
    declared = {m["name"] for m in BENCH["per_layer"]}
    assert set(tracer.layer_metrics([])) | {"tracing_overhead_ratio"} == declared
    assert set(tracer.COUNT_METRICS) <= declared


def test_w1_reference_traced_counts():
    """The full W1 protocol: quality pins and the tape/Sinkhorn counts."""
    wl = WORKLOADS["w1-reference"]
    cfg, data = load(wl)
    _, tr, report = run.protocol(cfg, data, layers=True)
    assert check_report(wl, cfg, report) == []
    m = tracer.layer_metrics(tr.spans)
    assert m["autodiff.nodes_per_backward.pretrain"] == 524
    assert m["autodiff.nodes_per_backward.train_lambda0"] == 29
    assert m["autodiff.nodes_per_backward.train_lambda_pos"] == 47
    assert (m["train.steps.lambda0"], m["train.steps.lambda_pos"]) == (1125, 2250)
    assert m["autodiff.backward_calls"] == 200 + 1125 + 2250
    assert m["ot.sinkhorn_calls"] == 2250
    assert (m["ot.sinkhorn_iters_p50"], m["ot.sinkhorn_iters_max"]) == (13, 89)
    assert m["ot.sinkhorn_converged_ratio"] == 1.0


def test_pin_mismatch_is_reported():
    wl = WORKLOADS["w1-reference"]
    cfg = config.load_config(INI)
    report = MetricReport()
    for seed, a in enumerate((0.998, 0.995, 1.0, 0.939, 0.997)):
        report.add(seed=seed, rule_weight=0.5, auprc=a, rec_at_k=1.0, k=1, tie_at_cut=False, val_auprc=1.0)
        report.add(seed=seed, rule_weight=0.0, auprc=0.423, rec_at_k=0.5, k=1, tie_at_cut=False, val_auprc=1.0)
    problems = check_report(wl, cfg, report)
    assert len(problems) == 1 and "pins" in problems[0]


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    wrong = dataclasses.replace(reduced("w1-reference"), pins=(0.5,))
    monkeypatch.setattr(run, "SETUP_MIN", 1)
    monkeypatch.setitem(sys.modules["workloads"].WORKLOADS, "w1-reference", wrong)
    code = run.main(["--workload", "w1-reference", "--seed", "1", "--seconds", "1", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "CHECK FAILED: KDAlign per-seed AUPRC" in captured.err
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "w1-reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
