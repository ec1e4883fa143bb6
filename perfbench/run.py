"""kdalign benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload w1-reference --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced runs of the same protocol and reports the
per-layer metrics.  Every run checks the program's outputs; a failed check
is printed and the run exits 1 after its result line.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit, names and units as declared in
``BENCHMARK.json``).  Generated data, the result file and the trace spans go
to ``.perfbench/<workload>/`` under the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is one process with no extra threads, and
# the setting must be in place before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INI = ROOT / "configs" / "synthetic.ini"
if not (ROOT / "src" / "kdalign" / "__init__.py").is_file():
    sys.exit(f"perfbench: no kdalign sources under {ROOT / 'src'}")  # never measure an installed copy
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from kdalign import config, evaluate, experiment, kernels, train  # noqa: E402
from kdalign.errors import ConfigError, DataError, NumericError, ShapeError  # noqa: E402
from tracer import COUNT_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_embeddings,
    check_report,
    make_scoring_set,
    override_pairs,
    report_rows,
    write_dataset_csv,
)

KDALIGN_ERRORS = (ConfigError, DataError, NumericError, ShapeError)
SETUP_MIN = 5  # fresh-process set-ups per run, at least
INFER_BATCH_S = 0.5  # scoring calls after each protocol run, for about this long
INFER_MIN_CALLS = 3
MIN_TRACED_PAIRS = 2  # two traced runs, so that their counts can be compared


class Outcome:
    """What a run attempted, what failed, and which checks did not pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads() -> int | str:
    """Ask the OpenBLAS bundled with numpy for its thread count."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown (OPENBLAS_NUM_THREADS=1)"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, env=env, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    numba_enabled = bool(getattr(kernels, "NUMBA_ENABLED", False))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "numba_enabled": numba_enabled,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernels": "numba" if numba_enabled else "numpy (the numba kernels are not measured)",
    }


# ---------------------------------------------------------------------------
# Measurement and checks
# ---------------------------------------------------------------------------


def measure_setup(csv_path: Path, overrides: tuple[str, ...]) -> float:
    """Seconds of one fresh-process set-up (see setup_child.py)."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(ROOT / "src"), str(INI), str(csv_path),
           *overrides]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def protocol(cfg: dict, data, layers: bool, csv_path: Path | None = None):
    """One ``run_experiment`` under a Tracer; returns (run_s, tracer, report).

    With ``csv_path`` the dataset is loaded inside the tracer (traced runs
    time ``load_csv`` as a layer).  A kdalign error ends the protocol early
    and leaves ``report`` as None.
    """
    report = None
    with Tracer(layers) as tr:
        if csv_path is not None:
            data = evaluate.load_csv(str(csv_path))
        start = perf_counter()
        try:
            report = experiment.run_experiment(cfg, data=data)
        except KDALIGN_ERRORS as exc:
            tr.failure = f"run_experiment raised {type(exc).__name__}: {exc}"
        run_s = perf_counter() - start
    return run_s, tr, report


def stage_times(run_s: float, tr: Tracer) -> tuple[float, float, float]:
    return run_s, tr.total_s("experiment.build_knowledge"), tr.total_s("experiment.run_seed")


def account_seed_runs(out: Outcome, tr: Tracer) -> None:
    for outcome in tr.results["experiment.run_seed"]:
        out.operation(math.isfinite(outcome.test_auprc),
                      f"seed {outcome.seed}: test AUPRC {outcome.test_auprc!r}")
    for _ in range(tr.errors.get("experiment.run_seed", 0)):
        out.operation(False, "run_seed raised a kdalign error")
    if tr.failure:
        out.problems.append(tr.failure)


def check_first_run(out: Outcome, wl, cfg, data, tr: Tracer, report) -> None:
    """Output checks on one protocol run: report, E_F, finite scores."""
    if report is None:
        out.problems.append("run_experiment produced no report")
        return
    out.problems += check_report(wl, cfg, report)
    for knowledge in tr.results["experiment.build_knowledge"]:
        out.problems += check_embeddings(knowledge)
    for outcome in tr.results["experiment.run_seed"]:
        scores = train.infer(outcome.checkpoint, data.X)
        if scores.shape != (data.n_samples,) or not np.isfinite(scores).all():
            out.problems.append(f"seed {outcome.seed}: non-finite or missing scores")


def check_same_results(out: Outcome, reports, what: str) -> None:
    rows = [report_rows(r) for r in reports if r is not None]
    if any(r != rows[0] for r in rows[1:]):
        out.problems.append(f"report rows differ between {what}")


def quality(report) -> dict[str, float]:
    kd = [r for r in report.rows if r["rule_weight"] > 0]
    base = [r for r in report.rows if r["rule_weight"] == 0]
    return {
        "auprc_kdalign": statistics.fmean(r["auprc"] for r in kd),
        "auprc_baseline": statistics.fmean(r["auprc"] for r in base) if base else math.nan,
        "rec_at_k_kdalign": statistics.fmean(r["rec_at_k"] for r in kd),
    }


def timed_run(wl, cfg, csv_path: Path, seconds: float, seed: int, out: Outcome):
    """End-to-end metrics with tracing off.

    The run repeats a cycle (one fresh-process set-up, one protocol run, a
    batch of scoring calls) while another cycle fits in ``seconds``, so that
    the samples of every metric spread over the whole run.
    """
    start = perf_counter()
    data = evaluate.load_csv(str(csv_path))
    setup, runs, reports, cycles, infer_s = [], [], [], [], []
    first = ck = X = reference = None
    while not cycles or perf_counter() + statistics.median(cycles) <= start + seconds:
        cycle_start = perf_counter()
        setup.append(measure_setup(csv_path, wl.overrides))
        run_s, tr, report = protocol(cfg, data, layers=False)
        account_seed_runs(out, tr)
        reports.append(report)
        runs.append(stage_times(run_s, tr))
        if first is None:
            first = tr
            check_first_run(out, wl, cfg, data, tr, report)
            if report is None or not tr.results["experiment.run_seed"]:
                return None
            ck = next(o.checkpoint for o in tr.results["experiment.run_seed"] if o.rule_weight > 0)
            X = make_scoring_set(wl, seed)
        batch_start = perf_counter()
        for call in itertools.count():
            if call >= INFER_MIN_CALLS and perf_counter() - batch_start >= INFER_BATCH_S:
                break
            t0 = perf_counter()
            scores = train.infer(ck, X)
            infer_s.append(perf_counter() - t0)
            reference = scores if reference is None else reference
            ok = scores.shape == (X.shape[0],) and bool(np.isfinite(scores).all())
            out.operation(ok and np.array_equal(scores, reference), "scoring call: non-finite or changed scores")
        cycles.append(perf_counter() - cycle_start)
        if report is None:
            break
    while len(setup) < SETUP_MIN:
        setup.append(measure_setup(csv_path, wl.overrides))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_same_results(out, reports, "repeated runs")
    metrics = quality(reports[0])

    if not cfg["eval"]["include_baseline"]:
        # The protocol has no lambda=0 rows; score the baseline outside the timing.
        knowledge = first.results["experiment.build_knowledge"][0]
        base = [experiment.run_seed(data, knowledge, cfg, s, rule_weight=0.0) for s in cfg["eval"]["seeds"]]
        for outcome in base:
            out.operation(math.isfinite(outcome.test_auprc), f"baseline seed {outcome.seed}: AUPRC")
        metrics["auprc_baseline"] = statistics.fmean(o.test_auprc for o in base)

    metrics.update(
        setup_s=statistics.median(setup),
        run_s=statistics.median(r[0] for r in runs),
        knowledge_s=statistics.median(r[1] for r in runs),
        detector_s=statistics.median(r[2] for r in runs),
        infer_rows_per_s=X.shape[0] / statistics.median(infer_s),
        succeeded_ratio=1.0 - out.failed / out.attempted,
        peak_rss_mb=peak_rss_mb,
    )
    raw = {"setup_s": setup, "runs": runs, "infer_s": infer_s, "cycles": cycles}
    return metrics, raw, None


def traced_run(wl, cfg, csv_path: Path, seconds: float, out: Outcome):
    """Per-layer metrics: untraced and traced runs alternate."""
    start = perf_counter()
    data = evaluate.load_csv(str(csv_path))
    plain, traced, reports, spans, missing = [], [], [], [], []
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() + plain[-1][0] + traced[-1][0] <= start + seconds:
        run_s, tr, report = protocol(cfg, data, layers=False)
        account_seed_runs(out, tr)
        plain.append(stage_times(run_s, tr))
        reports.append(report)
        if len(reports) == 1:
            check_first_run(out, wl, cfg, data, tr, report)
        run_s, tr, report = protocol(cfg, None, layers=True, csv_path=csv_path)
        account_seed_runs(out, tr)
        traced.append((run_s, layer_metrics(tr.spans)))
        missing = tr.missing
        reports.append(report)
        spans.append(tr.spans)
        if report is None or reports[0] is None:
            break
    check_same_results(out, reports, "traced and untraced runs")
    if reports[0] is None:
        return None
    layers = [m for _, m in traced]
    for name in COUNT_METRICS:
        if any(m[name] != layers[0][name] for m in layers[1:]):
            out.problems.append(f"per-layer count {name} differs between traced runs")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    untraced = {key: statistics.median(p[i] for p in plain)
                for i, key in enumerate(("run_s", "knowledge_s", "detector_s"))}
    metrics["tracing_overhead_ratio"] = statistics.median(t for t, _ in traced) / untraced["run_s"]
    print("untraced " + " ".join(f"{k}={v:.4f}s" for k, v in untraced.items()))
    if missing:
        print("not traced (binding not found): " + ", ".join(missing))
    raw = {"untraced": plain, "untraced_median": untraced, "traced_run_s": [t for t, _ in traced],
           "not_traced": missing}
    return metrics, raw, spans


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def write_outputs(out_dir: Path, args, env: dict, result: dict, problems, raw, spans) -> None:
    path = out_dir / f"result-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                                "environment": env, "problems": problems, "raw": raw, **result},
                               indent=1, sort_keys=True))
    if spans:
        with open(out_dir / f"spans-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            for repeat, run_spans in enumerate(spans):
                for s in run_spans:
                    fh.write(json.dumps({"repeat": repeat, "name": s[0], "parent": s[1],
                                         "start": s[2], "end": s[3], "attrs": s[4]}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench" / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "data.csv"
    write_dataset_csv(wl, str(csv_path))
    cfg = config.load_config(str(INI), override_pairs(wl))

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    out = Outcome()
    if args.trace:
        measured = traced_run(wl, cfg, csv_path, args.seconds, out)
        specs = declared["per_layer"]
    else:
        measured = timed_run(wl, cfg, csv_path, args.seconds, args.seed, out)
        specs = declared["end_to_end"]
    metrics, raw, spans = measured if measured is not None else ({}, {}, None)

    names = {s["name"] for s in specs}
    if measured is not None and set(metrics) != names:
        out.problems.append(f"metrics {sorted(set(metrics) ^ names)} are not as declared in BENCHMARK.json")
    result = {
        "correct": not out.problems,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
                    for s in specs if s["name"] in metrics},
    }
    write_outputs(out_dir, args, env, result, out.problems, raw, spans)
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
