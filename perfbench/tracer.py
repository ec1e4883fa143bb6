"""Spans around calls into kdalign's modules, recorded from outside.

``Tracer`` patches public functions at the binding their caller looks up
(``kdalign.train.sinkhorn``, ``kdalign.kernels.best_split_scan``,
``kdalign.autodiff.Tape.backward``, ...), keeps one span per call in memory
and restores every binding on exit.  With ``layers=False`` it wraps only the
two experiment stages that the end-to-end metrics ``knowledge_s`` and
``detector_s`` need; with ``layers=True`` it wraps every layer and
``layer_metrics`` turns the spans into the per-layer metrics.

A span is ``[name, parent index, start, end, attrs]``; ``parent`` is -1 at
the top.  Step spans (``train.step``, ``gcn.pretrain_step``) are synthesised:
a training step runs from its ``Tape()`` to the end of its ``Adam.step``, a
pretraining step from its ``Tape()`` to the end of its backward pass.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from kdalign import acquisition, autodiff, evaluate, experiment, gcn, kernels, train

# (owner, attribute, span name, attrs on call, attrs on result)
STAGES = [
    (experiment, "build_knowledge", "experiment.build_knowledge", None, None),
    (experiment, "run_seed", "experiment.run_seed", None, None),
]
LAYERS = [
    (evaluate, "load_csv", "evaluate.load_csv", None, None),
    (experiment, "acquire_rules", "acquisition.acquire_rules", None,
     lambda r: {"rules": len(r[0])}),
    (acquisition, "fit_tree", "acquisition.fit_tree", None, None),
    (kernels, "best_split_scan", "kernels.best_split_scan", None, None),
    (experiment, "compile_ddnnf", "ddnnf.compile_ddnnf", None,
     lambda r: {"nodes": r.n_nodes()}),
    (experiment, "pretrain_encoder", "gcn.pretrain_encoder", None,
     lambda r: {"best_val_accuracy": r.best_val_accuracy}),
    (gcn, "gcn_forward_tape", "gcn.gcn_forward_tape", None, None),
    (gcn, "gcn_forward", "gcn.gcn_forward", None, None),
    (experiment, "embed_knowledge_set", "gcn.embed_knowledge_set", None, None),
    (experiment, "train", "train.train",
     lambda args, kw: {"rule_weight": args[3].rule_weight},
     lambda r: {"epochs": len(r[1])}),
    (train, "encode_tape", "encoders.encode_tape", None, None),
    (train, "forward_scores", "encoders.forward_scores", None, None),
    (train, "cost_matrix_tape", "ot.cost_matrix_tape", None, None),
    (train, "sinkhorn", "ot.sinkhorn", None,
     lambda r: {"iters": r.iterations, "converged": r.converged}),
    (train.Adam, "step", "train.adam_step", None, None),
    (experiment, "infer", "train.infer", None, None),
]


class Tracer:
    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[list] = []
        self.results: dict[str, list] = {"experiment.build_knowledge": [], "experiment.run_seed": []}
        self.errors: dict[str, int] = {}
        self.failure: str | None = None
        self.missing: list[str] = []
        self._open: list[int] = []
        self._step_start: float | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, on_call, on_result in STAGES:
                self._patch(owner, attr, self._wrap(getattr(owner, attr), name, on_call, on_result))
            if self.layers:
                self._patch(autodiff.Tape, "backward", self._wrap_backward(autodiff.Tape.backward))
                # A layer binding that the program no longer has is skipped and
                # listed in ``missing``; its metrics then read 0.
                for owner, attr, name, on_call, on_result in LAYERS:
                    if hasattr(owner, attr):
                        self._patch(owner, attr, self._wrap(getattr(owner, attr), name, on_call, on_result))
                    else:
                        self.missing.append(name)
                for module in (train, gcn):
                    if hasattr(module, "Tape"):
                        self._patch(module, "Tape", self._tape_factory(module.Tape))
                    else:
                        self.missing.append(f"{module.__name__}.Tape")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str, on_call, on_result):
        spans, open_ = self.spans, self._open
        keep = self.results.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, open_[-1] if open_ else -1, 0.0, 0.0, None])
            if on_call is not None:
                spans[sid][4] = on_call(args, kwargs)
            open_.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                spans[sid][2:4] = start, perf_counter()
                open_.pop()
            if on_result is not None:
                spans[sid][4] = {**(spans[sid][4] or {}), **on_result(result)}
            if keep is not None:
                keep.append(result)
            if name == "train.adam_step" and self._step_start is not None:
                self._emit_step("train.step", {"lambda_pos": self._context() == "train_lambda_pos"})
            return result

        return wrapper

    def _wrap_backward(self, fn):
        spans, open_ = self.spans, self._open

        def backward(tape, loss):
            context = self._context()
            sid = len(spans)
            spans.append(["autodiff.backward", open_[-1] if open_ else -1, 0.0, 0.0,
                          {"nodes": len(tape), "context": context}])
            start = perf_counter()
            try:
                return fn(tape, loss)
            finally:
                spans[sid][2:4] = start, perf_counter()
                if context == "pretrain" and self._step_start is not None:
                    self._emit_step("gcn.pretrain_step", None)

        return backward

    def _tape_factory(self, cls):
        def make_tape():
            self._step_start = perf_counter()
            return cls()

        return make_tape

    def _emit_step(self, name: str, attrs) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self._step_start, perf_counter(), attrs])
        self._step_start = None

    def _context(self) -> str:
        for sid in reversed(self._open):
            name = self.spans[sid][0]
            if name == "gcn.pretrain_encoder":
                return "pretrain"
            if name == "train.train":
                return "train_lambda_pos" if self.spans[sid][4]["rule_weight"] > 0 else "train_lambda0"
        return "other"

    def total_s(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Counts that must repeat exactly between traced runs of the same workload.
COUNT_METRICS = (
    "acquisition.fit_tree_calls",
    "kernels.best_split_scan_calls",
    "acquisition.rules",
    "ddnnf.nodes",
    "gcn.pretrain_tape_nodes_per_step",
    "gcn.forward_tape_calls",
    "gcn.forward_calls",
    "autodiff.backward_calls",
    "autodiff.nodes_per_backward.train_lambda0",
    "autodiff.nodes_per_backward.train_lambda_pos",
    "autodiff.nodes_per_backward.pretrain",
    "encoders.forward_scores_calls",
    "ot.sinkhorn_calls",
    "ot.sinkhorn_iters_p50",
    "ot.sinkhorn_iters_max",
    "ot.sinkhorn_converged_ratio",
    "train.steps.lambda0",
    "train.steps.lambda_pos",
    "train.epochs",
    "experiment.run_seed_calls",
)


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p99(values) -> float:
    """The 99th percentile, or 0 when fewer than ten samples lie beyond it."""
    if len(values) < 1000:
        return 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[98])


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run; a percentile of no samples is 0."""
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def group(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s[3] - s[2] for s in group(name))

    def ms(span_list):
        return [(s[3] - s[2]) * 1e3 for s in span_list]

    def attr(name, key):
        return [s[4][key] for s in group(name)]

    backward = group("autodiff.backward")
    nodes = {
        ctx: [s[4]["nodes"] for s in backward if s[4]["context"] == ctx]
        for ctx in ("train_lambda0", "train_lambda_pos", "pretrain")
    }
    steps0 = [s for s in group("train.step") if not s[4]["lambda_pos"]]
    steps_pos = [s for s in group("train.step") if s[4]["lambda_pos"]]
    sink_iters = attr("ot.sinkhorn", "iters")
    sink_conv = attr("ot.sinkhorn", "converged")
    accuracy = attr("gcn.pretrain_encoder", "best_val_accuracy")
    return {
        "evaluate.load_csv_s": total("evaluate.load_csv"),
        "acquisition.acquire_rules_s": total("acquisition.acquire_rules"),
        "acquisition.fit_tree_calls": len(group("acquisition.fit_tree")),
        "kernels.best_split_scan_calls": len(group("kernels.best_split_scan")),
        "kernels.best_split_scan_s": total("kernels.best_split_scan"),
        "acquisition.rules": sum(attr("acquisition.acquire_rules", "rules")),
        "ddnnf.compile_s": total("ddnnf.compile_ddnnf"),
        "ddnnf.nodes": sum(attr("ddnnf.compile_ddnnf", "nodes")),
        "gcn.pretrain_s": total("gcn.pretrain_encoder"),
        "gcn.pretrain_step_ms_p50": p50(ms(group("gcn.pretrain_step"))),
        "gcn.pretrain_tape_nodes_per_step": p50(nodes["pretrain"]),
        "gcn.forward_tape_calls": len(group("gcn.gcn_forward_tape")),
        "gcn.forward_calls": len(group("gcn.gcn_forward")),
        "gcn.embed_s": total("gcn.embed_knowledge_set"),
        "gcn.best_val_accuracy": accuracy[-1] if accuracy else 0.0,
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.backward_calls": len(backward),
        "autodiff.nodes_per_backward.train_lambda0": p50(nodes["train_lambda0"]),
        "autodiff.nodes_per_backward.train_lambda_pos": p50(nodes["train_lambda_pos"]),
        "autodiff.nodes_per_backward.pretrain": p50(nodes["pretrain"]),
        "encoders.encode_tape_s": total("encoders.encode_tape"),
        "encoders.forward_scores_s": total("encoders.forward_scores"),
        "encoders.forward_scores_calls": len(group("encoders.forward_scores")),
        "ot.cost_matrix_tape_s": total("ot.cost_matrix_tape"),
        "ot.sinkhorn_s": total("ot.sinkhorn"),
        "ot.sinkhorn_calls": len(sink_iters),
        "ot.sinkhorn_ms_p50": p50(ms(group("ot.sinkhorn"))),
        "ot.sinkhorn_ms_p99": p99(ms(group("ot.sinkhorn"))),
        "ot.sinkhorn_iters_p50": p50(sink_iters),
        "ot.sinkhorn_iters_max": max(sink_iters, default=0),
        "ot.sinkhorn_converged_ratio": sum(sink_conv) / len(sink_conv) if sink_conv else 0.0,
        "train.steps.lambda0": len(steps0),
        "train.steps.lambda_pos": len(steps_pos),
        "train.step_ms_p50.lambda0": p50(ms(steps0)),
        "train.step_ms_p99.lambda0": p99(ms(steps0)),
        "train.step_ms_p50.lambda_pos": p50(ms(steps_pos)),
        "train.step_ms_p99.lambda_pos": p99(ms(steps_pos)),
        "train.adam_s": total("train.adam_step"),
        "train.epochs": sum(attr("train.train", "epochs")),
        "train.infer_s": total("train.infer"),
        "experiment.run_seed_calls": len(group("experiment.run_seed")),
    }
