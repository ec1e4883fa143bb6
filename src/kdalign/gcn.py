"""Knowledge encoder: formula graphs -> GCN embeddings.

The GCN sees formulae of two shapes, each built straight into an undirected
graph: a rule's clause as its d-DNNF decision chain
c_i = l_i OR (NOT l_i AND c_{i+1}) (``clause_graph``), and an assignment as
the AND of its literals (``assignment_graph``).  Each graph holds one node
per AND, OR and literal leaf plus a global node linked to everything, with
self-loops, and is encoded with a multi-layer GCN using the
symmetric-normalized propagation rule.
Node heterogeneity is realized by routing each node's row through the weight
matrix of its node type before aggregation.  The formula embedding is the
global node's output row.  One GCN forward serves both passes: pretraining
records it on a Tape and differentiates through it, and the validation
triples run it on a non-recording Forward (``embed_formulae``).

Pretraining separates formula embeddings from the embeddings of their
unsatisfying assignments with a triplet objective plus structural
regularizers, and is run once before detector training.  It hands back the
frozen embedding set E_F: the formula rows of the best validation pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Forward, ParamSet, Tape, accumulate_grads, bind_params
from .config import KnowEncoderConfig
from .encoders import glorot
from .errors import DataError

NODE_TYPES = ("and", "or", "leaf", "global")
TYPE_INDEX = {t: i for i, t in enumerate(NODE_TYPES)}

# The most variables a pretraining clause may have.  Its models are drawn by
# index from one int64, which would allow 63; at 16, every rule file keeps its
# outcome, pretrained or refused with exit 2.
MAX_ENUM_VARS = 16

# The GCN input is 4 + max(VAR_CAPACITY, largest proposition id) wide.  Every
# reference figure was made with 24, and no benchmark workload has more than
# 17 propositions (w1 4, w2 10, w3 17), so none of them is encoded wider.
VAR_CAPACITY = 24


@dataclass
class FormulaGraph:
    node_types: np.ndarray  # int codes into NODE_TYPES
    features: np.ndarray  # N x (4 + var_capacity)
    adj: np.ndarray  # symmetric, self-loops on the diagonal
    children: list[tuple[int, ...]]  # child ids of AND and OR nodes (empty elsewhere)
    global_index: int
    norm: np.ndarray = field(init=False)  # D^-1/2 adj D^-1/2
    masks: list[np.ndarray] = field(init=False)  # one N x 1 mask per node type
    selectors: np.ndarray = field(init=False)  # N x N identity: selectors[i : i + 1] @ z = z[i]
    child_means: list[np.ndarray | None] = field(init=False)  # 1 x N: child mean row, or None

    def __post_init__(self):
        inv_sqrt = 1.0 / np.sqrt(self.adj.sum(axis=1))
        self.norm = self.adj * inv_sqrt[:, None] * inv_sqrt[None, :]
        self.masks = [(self.node_types == i).astype(np.float64).reshape(-1, 1) for i in range(4)]
        self.selectors = np.eye(len(self.node_types))
        self.child_means = [
            self.selectors[list(kids)].mean(axis=0, keepdims=True) if kids else None
            for kids in self.children
        ]


def clause_graph(clause: tuple[int, ...], width: int) -> FormulaGraph:
    """The graph of a clause's decision chain over its literals sorted by
    variable: c_i = l_i OR (NOT l_i AND c_{i+1}), c_k the leaf l_k.

    Nodes come in the order a Shannon-expansion compiler creates them: the
    leaf of each positive l_i on the way down, the leaf l_k, then per step
    back up the leaf NOT l_i, the AND, the leaf l_i when it is negative, and
    the OR, which lists the branch on +v_i first: 4k - 3 nodes for k
    literals, plus the global node.
    """
    nodes: list[tuple[str, int, tuple[int, ...]]] = []

    def node(kind: str, literal: int = 0, kids: tuple[int, ...] = ()) -> int:
        nodes.append((kind, literal, kids))
        return len(nodes) - 1

    lits = sorted(clause, key=abs)
    own = [node("leaf", lit) if lit > 0 else None for lit in lits[:-1]]
    root = node("leaf", lits[-1])
    for i in range(len(lits) - 2, -1, -1):
        lit = lits[i]
        rest = node("and", 0, (node("leaf", -lit), root))
        root = node("or", 0, (own[i], rest) if lit > 0 else (rest, node("leaf", lit)))
    return _formula_graph(nodes, width)


def assignment_graph(model: tuple[int, ...], width: int) -> FormulaGraph:
    """The graph of a full assignment, one signed literal per variable: the
    AND of its leaves sorted by variable, or the one leaf of a single
    variable."""
    lits = sorted(model, key=abs)
    nodes = [("leaf", lit, ()) for lit in lits]
    if len(lits) > 1:
        nodes.append(("and", 0, tuple(range(len(lits)))))
    return _formula_graph(nodes, width)


def _formula_graph(nodes: list[tuple[str, int, tuple[int, ...]]], width: int) -> FormulaGraph:
    """A formula's (type, literal, children) nodes, children before parents,
    plus a global node linked to every node, with self-loops.  A node's
    features are its type one-hot, then for a leaf its literal as a signed
    one-hot over variables, 4 + ``width`` wide."""
    n = len(nodes) + 1
    node_types = np.array([TYPE_INDEX[kind] for kind, _, _ in nodes] + [TYPE_INDEX["global"]])
    features = np.zeros((n, 4 + width))
    features[np.arange(n), node_types] = 1.0
    adj = np.eye(n)
    adj[n - 1, :] = adj[:, n - 1] = 1.0
    for i, (_, lit, kids) in enumerate(nodes):
        if lit:
            features[i, 4 + abs(lit) - 1] = 1.0 if lit > 0 else -1.0
        for c in kids:
            adj[i, c] = adj[c, i] = 1.0
    return FormulaGraph(node_types, features, adj, [kids for _, _, kids in nodes] + [()], n - 1)


def layer_dims(config: KnowEncoderConfig, var_capacity: int, embed: int) -> list[tuple[int, int]]:
    """(fan-in, fan-out) per GCN layer: 4 + var_capacity wide in, ``embed`` out."""
    widths = [4 + var_capacity, *[config.hidden] * (config.layers - 1), embed]
    return list(zip(widths[:-1], widths[1:]))


def param_name(layer: int, node_type: str) -> str:
    return f"know_encoder/layer{layer}/{node_type}"


def init_know_encoder(
    config: KnowEncoderConfig, var_capacity: int, embed: int, rng: np.random.Generator
) -> ParamSet:
    values = {}
    for l, (fan_in, fan_out) in enumerate(layer_dims(config, var_capacity, embed)):
        for t in NODE_TYPES:
            values[param_name(l, t)] = glorot(rng, fan_in, fan_out)
    return ParamSet(values)


def gcn_forward_tape(
    tape: Tape | Forward, fg: FormulaGraph, config: KnowEncoderConfig, ids: dict[str, int]
) -> int:
    """Node embeddings after all layers, each layer as wide as its weights."""
    norm = tape.constant(fg.norm)
    z = tape.constant(fg.features)
    for l in range(config.layers):
        out_w = tape.value(ids[param_name(l, "and")]).shape[1]
        h = None
        for ti, t in enumerate(NODE_TYPES):
            routed = tape.matmul(z, ids[param_name(l, t)])
            masked = tape.hadamard(tape.broadcast_col(tape.constant(fg.masks[ti]), out_w), routed)
            h = masked if h is None else tape.add(h, masked)
        z = tape.matmul(norm, h)
        if l < config.layers - 1:
            z = tape.relu(z)
    return z


def formula_embedding_tape(tape: Tape | Forward, z_id: int, fg: FormulaGraph) -> int:
    return _node_row(tape, fg, fg.global_index, z_id)


def _node_row(tape: Tape | Forward, fg: FormulaGraph, i: int, z_id: int) -> int:
    return tape.matmul(tape.constant(fg.selectors[i : i + 1]), z_id)


def embed_formulae(
    graphs: list[FormulaGraph], config: KnowEncoderConfig, params: ParamSet
) -> np.ndarray:
    """One formula-embedding row per graph, from the GCN forward run on a
    non-recording Forward; a graph object listed again is embedded once."""
    fwd = Forward()
    ids = bind_params(fwd, params)
    rows: dict[int, np.ndarray] = {}
    for fg in graphs:
        if id(fg) not in rows:
            rows[id(fg)] = formula_embedding_tape(fwd, gcn_forward_tape(fwd, fg, config, ids), fg)
    return np.vstack([rows[id(fg)] for fg in graphs])


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------


@dataclass
class PretrainResult:
    """The snapshot with the best held-out triplet accuracy, and E_F: the
    formula rows of the validation pass that set it, one per formula."""

    config: KnowEncoderConfig
    params: ParamSet
    e_f: np.ndarray
    loss_history: list[float] = field(default_factory=list)
    val_history: list[tuple[int, float]] = field(default_factory=list)
    best_val_accuracy: float = 0.0


def clause_model(clause: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Model ``j`` of a clause sorted by variable, as a literal per variable:
    the ``itertools.product`` assignments over (False, True) with the first
    variable most significant, skipping the counter-model (every literal
    false); with ``c`` its index, model ``j`` is index ``j + (j >= c)``."""
    k = len(clause)
    c = sum(1 << (k - 1 - i) for i, lit in enumerate(clause) if lit < 0)
    p = j + (j >= c)
    return tuple(abs(lit) if p >> (k - 1 - i) & 1 else -abs(lit) for i, lit in enumerate(clause))


def pretrain_encoder(
    clauses: list[tuple[int, ...]], config: KnowEncoderConfig, embed: int
) -> PretrainResult:
    """Train the knowledge encoder, ``embed`` wide out and wide enough in for
    every proposition of ``clauses``, on (formula, sat, unsat) triplets.

    Each formula is a rule's clause, as the graph of its decision chain
    (``clause_graph``); its satisfying assignments are all but one, drawn by
    index with ``clause_model``, and its one falsifying assignment sets
    every literal false; each distinct assignment gets one graph, the AND of
    its literals (``assignment_graph``).  The triplet loss
    max(0, d(e_f, e_sat) - d(e_f, e_unsat) + margin) is averaged over one
    sampled triple per formula per step; AND nodes are pulled toward the
    mean of their children, OR children toward unit mean squared spread.
    Plain gradient descent with a fixed step; the returned parameters are
    the snapshot with the best held-out triplet accuracy, and the returned
    E_F is that validation pass's formula rows.
    """
    if len(clauses) < 2:
        raise DataError(f"pretraining needs at least 2 formulae, got {len(clauses)}")
    var_capacity = max(VAR_CAPACITY, *(abs(lit) for c in clauses for lit in c))
    rng = np.random.default_rng(config.seed)
    params = init_know_encoder(config, var_capacity, embed, rng)
    corpus = []  # (formula graph, clause with its literals sorted by variable)
    for idx, clause in enumerate(clauses):
        if len(clause) > MAX_ENUM_VARS:
            raise DataError(
                f"formula {idx} has {len(clause)} variables; enumeration bound is {MAX_ENUM_VARS}"
            )
        clause = tuple(sorted(clause, key=abs))
        corpus.append((clause_graph(clause, var_capacity), clause))

    @functools.cache
    def fg_of(model: tuple[int, ...]) -> FormulaGraph:
        return assignment_graph(model, var_capacity)

    def draw_sat_unsat(clause: tuple[int, ...]) -> tuple[FormulaGraph, FormulaGraph]:
        sat = clause_model(clause, int(rng.integers(2 ** len(clause) - 1)))
        return fg_of(sat), fg_of(tuple(-lit for lit in clause))

    val_graphs = []  # (formula, sat, unsat) triples, flattened; repeats share one object
    for fg, clause in corpus:
        for _ in range(config.val_pairs):
            val_graphs += [fg, *draw_sat_unsat(clause)]

    def validate(p: ParamSet) -> tuple[float, np.ndarray]:
        e = embed_formulae(val_graphs, config, p)
        e_f, e_s, e_u = e[0::3], e[1::3], e[2::3]
        hits = ((e_f - e_s) ** 2).sum(axis=1) < ((e_f - e_u) ** 2).sum(axis=1)
        return int(hits.sum()) / len(hits), e_f[:: config.val_pairs].copy()

    acc, rows = validate(params)
    result = PretrainResult(config, params.copy(), rows, val_history=[(0, acc)], best_val_accuracy=acc)

    for step in range(config.steps):
        tape = Tape()
        ids = bind_params(tape, params)
        margin = tape.scalar(config.margin)
        triplet_total = None
        and_total, or_total = None, None
        n_and, n_or = 0, 0
        for fg, clause in corpus:
            z_id = gcn_forward_tape(tape, fg, config, ids)
            e_f = formula_embedding_tape(tape, z_id, fg)
            fg_sat, fg_unsat = draw_sat_unsat(clause)
            z_sat = gcn_forward_tape(tape, fg_sat, config, ids)
            z_unsat = gcn_forward_tape(tape, fg_unsat, config, ids)
            e_s = formula_embedding_tape(tape, z_sat, fg_sat)
            e_u = formula_embedding_tape(tape, z_unsat, fg_unsat)
            d_pos = tape.row_sum(tape.square(tape.sub(e_f, e_s)))
            d_neg = tape.row_sum(tape.square(tape.sub(e_f, e_u)))
            t_loss = tape.relu(tape.add(tape.sub(d_pos, d_neg), margin))
            triplet_total = t_loss if triplet_total is None else tape.add(triplet_total, t_loss)

            a_pen, a_n, o_pen, o_n = _structure_penalties(tape, fg, z_id)
            if a_pen is not None:
                and_total = a_pen if and_total is None else tape.add(and_total, a_pen)
                n_and += a_n
            if o_pen is not None:
                or_total = o_pen if or_total is None else tape.add(or_total, o_pen)
                n_or += o_n

        loss = tape.smul(triplet_total, 1.0 / len(corpus))
        if and_total is not None and config.and_reg > 0:
            loss = tape.add(loss, tape.smul(and_total, config.and_reg / n_and))
        if or_total is not None and config.or_reg > 0:
            loss = tape.add(loss, tape.smul(or_total, config.or_reg / n_or))

        result.loss_history.append(float(tape.value(loss)[0, 0]))
        params.zero_grads()
        accumulate_grads(params, ids, tape.backward(loss))
        params.vector = params.vector - config.learning_rate * params.grad_vector

        if (step + 1) % config.eval_every == 0 or step + 1 == config.steps:
            acc, rows = validate(params)
            result.val_history.append((step + 1, acc))
            if acc > result.best_val_accuracy:
                result.params = params.copy()
                result.e_f = rows
                result.best_val_accuracy = acc
    return result


def _structure_penalties(tape: Tape, fg: FormulaGraph, z_id: int):
    """AND: squared distance of node to child mean.  OR: (spread - 1)^2."""
    and_total, or_total = None, None
    n_and = n_or = 0
    for i, kids in enumerate(fg.children):
        if not kids:
            continue
        z_mean = tape.matmul(tape.constant(fg.child_means[i]), z_id)
        if fg.node_types[i] == TYPE_INDEX["and"]:
            z_node = _node_row(tape, fg, i, z_id)
            pen = tape.row_sum(tape.square(tape.sub(z_node, z_mean)))
            and_total = pen if and_total is None else tape.add(and_total, pen)
            n_and += 1
        elif fg.node_types[i] == TYPE_INDEX["or"]:
            spread = None
            for c in kids:
                z_c = _node_row(tape, fg, c, z_id)
                d = tape.row_sum(tape.square(tape.sub(z_c, z_mean)))
                spread = d if spread is None else tape.add(spread, d)
            spread = tape.smul(spread, 1.0 / len(kids))
            pen = tape.square(tape.sub(spread, tape.scalar(1.0)))
            or_total = pen if or_total is None else tape.add(or_total, pen)
            n_or += 1
    return and_total, n_and, or_total, n_or
