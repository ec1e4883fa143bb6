"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: exhaustive enumeration, scalar
loops, a Sinkhorn loop that re-measures its plan every iteration.  The
interning ``PropositionTable`` and ``rule_to_clause`` by which the package
once compiled rules are the reference of ``experiment.compile_rules``.  The
general d-DNNF compiler the package once used for any CNF lives here too
(``compile_cnf``: Shannon expansion with hash-consing and a memo over
residual clause sets), with its evaluator, model counter and decomposability
and determinism checks.  So does the path by which the package once built a
GCN graph: a rule's clause compiled to its decision chain
(``compile_ddnnf``) or an assignment to its AND of literals
(``assignment_ddnnf``), each a ``DdnnfGraph`` with the chain's TRUE/FALSE
sinks, then converted by ``ddnnf_to_graph`` with a reachability walk and an
id remap.  ``compile_cnf`` is the chain's reference, and the chain and
``ddnnf_to_graph`` are the reference of ``gcn.clause_graph`` and
``gcn.assignment_graph``.  None of it shares code with the implementations
under test, except that the unrolled Sinkhorn and the finite-difference
gradient check are built from the tape's primitives, ``ddnnf_to_graph``
returns the package's ``FormulaGraph`` with its ``TYPE_INDEX`` codes,
``rule_to_clause`` reads ``format_threshold``, ``rec_at_k`` reads
``rec_at_k_detail``, ``gcn_forward`` reads the GCN's parameter names and
layer widths, ``fit_tree_argsort`` runs the Gini split kernel
``best_split_scan``, and ``acquire_rules_argsort`` reads its trees' paths
with ``extract_anomaly_paths``.
"""

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from kdalign.acquisition import DecisionTree, TreeNode, extract_anomaly_paths
from kdalign.autodiff import ParamSet, Tape, bind_params
from kdalign.errors import DataError, ShapeError
from kdalign.evaluate import rec_at_k_detail
from kdalign.gcn import NODE_TYPES, TYPE_INDEX, FormulaGraph, param_name
from kdalign.kernels import best_split_scan
from kdalign.rules import Rule, format_threshold


def eval_clauses(clauses, assignment):
    for clause in clauses:
        ok = False
        for lit in clause:
            if assignment[abs(lit)] == (lit > 0):
                ok = True
                break
        if not ok:
            return False
    return True


def all_assignments(variables):
    ordered = sorted(set(variables))
    for bits in itertools.product([False, True], repeat=len(ordered)):
        yield dict(zip(ordered, bits))


def count_models(clauses, variables):
    return sum(1 for a in all_assignments(variables) if eval_clauses(clauses, a))


def permutation_matrices(n):
    for perm in itertools.permutations(range(n)):
        P = np.zeros((n, n))
        for i, j in enumerate(perm):
            P[i, j] = 1.0
        yield P


def exact_ot_uniform(C):
    """Exact OT value for a square cost matrix with uniform marginals.

    By Birkhoff's theorem the vertices of the scaled coupling polytope are
    permutation matrices divided by n, so the optimum is the cheapest
    assignment.
    """
    n = C.shape[0]
    assert C.shape == (n, n)
    best = np.inf
    for P in permutation_matrices(n):
        best = min(best, float((C * P / n).sum()))
    return best


def average_precision(scores, labels):
    """AP by explicit precision/recall at every distinct threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    total_pos = int(labels.sum())
    assert total_pos > 0
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        picked = scores >= t
        tp = int(labels[picked].sum())
        precision = tp / int(picked.sum())
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def auprc_group_loop(scores, labels):
    """``evaluate.auprc`` as a Python loop over the tie groups, adding each
    group's recall gain times its precision in turn."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    total_pos = int(labels.sum())
    assert total_pos > 0
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    boundaries = np.flatnonzero(np.diff(s_sorted)) if s_sorted.size > 1 else np.array([], dtype=int)
    group_ends = np.append(boundaries, s_sorted.size - 1)
    tp_cum = np.cumsum(labels[order])
    ap = 0.0
    prev_recall = 0.0
    for end in group_ends:
        tp = int(tp_cum[end])
        precision = tp / (end + 1)
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def recall_at_k(scores, labels):
    """Recall among the top-k samples, k = number of positives, stable ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    k = int(labels.sum())
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    top = order[:k]
    return sum(labels[i] for i in top) / k


def gini(y):
    n = len(y)
    if n == 0:
        return 0.0
    p = sum(y) / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def gini_weighted(y_left, y_right):
    n = len(y_left) + len(y_right)
    return (len(y_left) * gini(y_left) + len(y_right) * gini(y_right)) / n


def exhaustive_best_split(values, labels, min_leaf=1):
    """Try every midpoint of consecutive distinct sorted values."""
    order = np.argsort(values, kind="stable")
    sv = np.asarray(values, dtype=float)[order]
    sy = np.asarray(labels, dtype=int)[order]
    best = (None, np.inf)
    for i in range(len(sv) - 1):
        if sv[i] == sv[i + 1]:
            continue
        if i + 1 < min_leaf or len(sv) - i - 1 < min_leaf:
            continue
        imp = gini_weighted(sy[: i + 1].tolist(), sy[i + 1 :].tolist())
        if imp < best[1]:
            best = ((sv[i] + sv[i + 1]) / 2.0, imp)
    return best


def uniform_marginals(s, m):
    return np.full(s, 1.0 / s), np.full(m, 1.0 / m)


def ot_distance(C, S):
    if C.shape != S.shape:
        raise ShapeError(f"cost {C.shape} vs plan {S.shape}")
    return float((C * S).sum())


def gcn_forward(fg, config, params):
    """Node embeddings of a FormulaGraph, in plain numpy: the bit-exact
    reference of the tape forward."""
    deg = fg.adj.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    norm = fg.adj * inv_sqrt[:, None] * inv_sqrt[None, :]
    masks = [(fg.node_types == i).astype(np.float64).reshape(-1, 1) for i in range(4)]
    z = fg.features
    for l in range(config.layers):
        h = np.zeros((z.shape[0], params.values[param_name(l, "and")].shape[1]))
        for ti, t in enumerate(NODE_TYPES):
            h = h + masks[ti] * (z @ params.values[param_name(l, t)])
        z = norm @ h
        if l < config.layers - 1:
            z = np.maximum(z, 0.0)
    return z


def sinkhorn_log_reference(M, log_mu, log_nu, mu, nu, max_iter, tol):
    """Log-domain Sinkhorn that rebuilds the plan every iteration and stops
    once both marginal residuals measured on it are within `tol`."""
    s, m = M.shape
    u = np.zeros(s)
    v = np.zeros(m)
    plan = np.exp(M)
    iters = 0
    res_row = np.inf
    res_col = np.inf
    for it in range(1, max_iter + 1):
        a = M + u[:, None]
        cmax = a.max(axis=0)
        v = log_nu - (np.log(np.exp(a - cmax[None, :]).sum(axis=0)) + cmax)
        b = M + v[None, :]
        rmax = b.max(axis=1)
        u = log_mu - (np.log(np.exp(b - rmax[:, None]).sum(axis=1)) + rmax)
        plan = np.exp(M + u[:, None] + v[None, :])
        res_row = np.abs(plan.sum(axis=1) - mu).max()
        res_col = np.abs(plan.sum(axis=0) - nu).max()
        iters = it
        if res_row <= tol and res_col <= tol:
            break
    return plan, iters, res_row, res_col


def pairwise_sq_dists(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def cost_matrix(e_f, e_x, metric="sqeuclidean"):
    """Cost between two row sets in plain numpy; reference for cost_matrix_tape."""
    e_f = np.asarray(e_f, dtype=np.float64)
    e_x = np.asarray(e_x, dtype=np.float64)
    if e_f.ndim != 2 or e_x.ndim != 2 or e_f.shape[1] != e_x.shape[1]:
        raise ShapeError(f"embedding widths differ: {e_f.shape} vs {e_x.shape}")
    if metric == "sqeuclidean":
        return pairwise_sq_dists(e_f, e_x)
    assert metric == "cosine", metric
    na = np.linalg.norm(e_f, axis=1, keepdims=True)
    nb = np.linalg.norm(e_x, axis=1, keepdims=True)
    sim = (e_f @ e_x.T) / np.maximum(na * nb.T, 1e-30)
    return np.maximum(1.0 - sim, 0.0)


def condition_holds(cond, value):
    """One condition on one scalar, strict IEEE comparisons, exact equality."""
    t = cond.threshold
    return {
        ">": value > t,
        ">=": value >= t,
        "<": value < t,
        "<=": value <= t,
        "=": value == t,
        "!=": value != t,
    }[cond.predicate]


def antecedent_satisfiable(conditions):
    """True iff each attribute has a real value meeting all its conditions.

    The thresholds cut the line into points and open intervals, and each
    condition is constant on every piece.  So it tries, exactly in
    ``Fraction``s, every threshold, the midpoint of each pair of adjacent
    distinct thresholds, and one point past each end; reference for the
    check a ``Rule`` runs on its antecedent."""
    for attr in {c.attribute for c in conditions}:
        conds = [c for c in conditions if c.attribute == attr]
        cuts = sorted({Fraction(c.threshold) for c in conds})
        points = [*cuts, *((a + b) / 2 for a, b in zip(cuts, cuts[1:])), cuts[0] - 1, cuts[-1] + 1]
        if not any(all(condition_holds(c, x) for c in conds) for x in points):
            return False
    return True


def match_rule(rule, values, name_to_index):
    """True iff every antecedent condition holds for one sample; reference
    for rule_match_mask."""
    for cond in rule.conditions:
        if cond.attribute not in name_to_index:
            raise DataError(f"rule {rule.rule_id!r}: unknown attribute {cond.attribute!r}")
        if not condition_holds(cond, float(values[name_to_index[cond.attribute]])):
            return False
    return True


def _lse_rows(tape, a_id):
    """Row-wise log-sum-exp (n x m -> n x 1) with a detached max shift."""
    shift = tape.value(a_id).max(axis=1, keepdims=True)
    m = tape.value(a_id).shape[1]
    centered = tape.sub(a_id, tape.broadcast_col(tape.leaf(shift), m))
    return tape.add(tape.log(tape.row_sum(tape.exp(centered))), tape.leaf(shift))


def _lse_cols(tape, a_id):
    shift = tape.value(a_id).max(axis=0, keepdims=True)
    n = tape.value(a_id).shape[0]
    centered = tape.sub(a_id, tape.broadcast_row(tape.leaf(shift), n))
    return tape.add(tape.log(tape.col_sum(tape.exp(centered))), tape.leaf(shift))


def sinkhorn_tape(tape, c_id, mu, nu, epsilon, n_iter):
    """Unrolled Sinkhorn returning the plan as a differentiable tape node.

    Runs exactly `n_iter` iterations (no convergence branching) so the
    gradient path is a fixed computation graph: the gradient oracle for the
    detached-plan OT loss.  Marginals must be strictly positive.
    """
    s, m = tape.value(c_id).shape
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    assert mu.shape == (s,) and nu.shape == (m,) and (mu > 0).all() and (nu > 0).all()
    M = tape.smul(c_id, -1.0 / epsilon)
    log_mu = tape.leaf(np.log(mu).reshape(-1, 1))  # s x 1
    log_nu = tape.leaf(np.log(nu).reshape(1, -1))  # 1 x m
    u = tape.leaf(np.zeros((s, 1)))
    v = tape.leaf(np.zeros((1, m)))
    for _ in range(n_iter):
        a = tape.add(M, tape.broadcast_col(u, m))
        v = tape.sub(log_nu, _lse_cols(tape, a))
        b = tape.add(M, tape.broadcast_row(v, s))
        u = tape.sub(log_mu, _lse_rows(tape, b))
    logits = tape.add(tape.add(M, tape.broadcast_col(u, m)), tape.broadcast_row(v, s))
    return tape.exp(logits)


def checkpoints_equal(a, b):
    """Bit-for-bit equality of two ModelCheckpoints: tensors, E_F, seed, sections."""
    if set(a.params) != set(b.params):
        return False
    for name, arr in a.params.items():
        other = b.params[name]
        if arr.shape != other.shape or not (arr == other).all():
            return False
    if (a.e_f is None) != (b.e_f is None):
        return False
    if a.e_f is not None and not (a.e_f == b.e_f).all():
        return False
    return a.seed == b.seed and a.model == b.model and a.know_encoder == b.know_encoder


def tree_depth(node):
    """Depth of a fitted decision tree below ``node`` (a leaf has depth 0)."""
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def fit_tree_argsort(X, y, config):
    """``fit_tree`` as it was before presorting: a fresh stable argsort of the
    node's rows for every node and candidate feature.  Same split kernel and
    candidate draw; returns the root ``TreeNode``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    n_features = X.shape[1]
    if config.feature_indices:
        candidates = tuple(sorted(config.feature_indices))
    elif 0 < config.feature_subsample < n_features:
        candidates = tuple(
            sorted(rng.choice(n_features, size=config.feature_subsample, replace=False))
        )
    else:
        candidates = tuple(range(n_features))

    def build(idx, depth):
        labels = y[idx]
        counts = (int((labels == 0).sum()), int((labels == 1).sum()))
        node = TreeNode(counts=counts)
        if depth >= config.max_depth or counts[0] == 0 or counts[1] == 0:
            return node
        best = None  # (impurity, feature, threshold, order, split_pos)
        for f in candidates:
            order = np.argsort(X[idx, f], kind="stable")
            values = X[idx[order], f]
            pos, impurity = best_split_scan(
                values, labels[order].astype(np.float64), config.min_leaf, np.ones(len(idx))
            )
            if pos < 0:
                continue
            threshold = (values[pos] + values[pos + 1]) / 2.0
            if best is None or impurity < best[0]:
                best = (impurity, f, threshold, order, pos)
        if best is None:
            return node
        _, f, threshold, order, pos = best
        node.feature = f
        node.threshold = float(threshold)
        node.left = build(np.sort(idx[order[: pos + 1]]), depth + 1)
        node.right = build(np.sort(idx[order[pos + 1 :]]), depth + 1)
        return node

    return build(np.arange(X.shape[0]), 0)


def acquire_rules_argsort(X, y, feature_names, config):
    """``acquire_rules`` as it was before bootstrap weights: each tree is
    ``fit_tree_argsort`` on a copy of its bootstrap sample ``X[sample]``."""
    rng = np.random.default_rng(config.seed)
    trees = []
    for t in range(config.trees):
        tree_seed = int(rng.integers(0, 2**31 - 1))
        if t == 0:
            sample = np.arange(X.shape[0])
        else:
            sample = np.random.default_rng(tree_seed).integers(0, X.shape[0], size=X.shape[0])
        tree_config = replace(config, seed=tree_seed)
        root = fit_tree_argsort(X[sample], y[sample], tree_config)
        trees.append(DecisionTree(root, tree_config, ()))
    return extract_anomaly_paths(trees, X, y, feature_names)


def rec_at_k(scores, labels):
    """Rec@K alone, without the k and tie flag of ``rec_at_k_detail``."""
    value, _, _ = rec_at_k_detail(scores, labels)
    return value


@dataclass(frozen=True)
class Proposition:
    pid: int
    subject: str
    predicate: str
    obj: str


class PropositionTable:
    """Interning table mapping (subject, predicate, object) triples to ids."""

    def __init__(self):
        self._by_triple: dict[tuple[str, str, str], Proposition] = {}

    def intern(self, subject: str, predicate: str, obj: str) -> int:
        key = (subject, predicate, obj)
        prop = self._by_triple.get(key)
        if prop is None:
            prop = Proposition(len(self._by_triple) + 1, subject, predicate, obj)
            self._by_triple[key] = prop
        return prop.pid

    def __len__(self) -> int:
        return len(self._by_triple)

    def propositions(self) -> list[Proposition]:
        """All propositions in id order (ids are handed out in insertion order)."""
        return list(self._by_triple.values())


def rule_to_clause(rule: Rule, table: PropositionTable) -> tuple[int, ...]:
    """The clause of ``rule``: its negated conditions and its consequent.

    Conditions are interned in order as (attribute, operator, threshold
    string), then the consequent as (anomaly, is, True/False); literals are
    sorted by id, and a repeated condition gives one literal.  The consequent
    has the predicate ``is``, which no condition has, so the clause is never
    a tautology.
    """
    pids = {
        table.intern(c.attribute, c.predicate, format_threshold(c.threshold))
        for c in rule.conditions
    }
    consequent = table.intern("anomaly", "is", "True" if rule.consequent else "False")
    return tuple(sorted([-p for p in pids] + [consequent], key=abs))


K_AND, K_OR, K_LEAF, K_TRUE, K_FALSE = "and", "or", "leaf", "true", "false"


@dataclass
class DdnnfGraph:
    """Rooted DAG with node kinds and, or, leaf, true, false.

    ``literals[i]`` is the signed variable id for leaf nodes (0 otherwise);
    ``children[i]`` lists child node ids, each lower than i.
    """

    kinds: list[str]
    literals: list[int]
    children: list[tuple[int, ...]]
    root: int

    def n_nodes(self) -> int:
        return len(self.kinds)


def compile_ddnnf(clause: tuple[int, ...]) -> DdnnfGraph:
    """The decision chain of a non-empty clause of signed variable ids over
    distinct variables: 4k - 1 nodes for k literals, sinks included.

    With the literals sorted by variable, node c_i is
    ``l_i OR (NOT l_i AND c_{i+1})`` and c_k is the leaf l_k; an OR lists
    the branch on +v_i first.  Nodes are numbered in the order a
    Shannon-expansion compiler creates them: the TRUE and FALSE sinks first
    (unreachable from the root), then each positive l_i's leaf on the way
    down the chain, then, on the way back up, the branch leaves, ANDs and
    ORs."""
    kinds, literals, children = [K_TRUE, K_FALSE], [0, 0], [(), ()]

    def node(kind: str, literal: int = 0, kids: tuple[int, ...] = ()) -> int:
        kinds.append(kind)
        literals.append(literal)
        children.append(kids)
        return len(kinds) - 1

    lits = sorted(clause, key=abs)
    own = [node(K_LEAF, lit) if lit > 0 else None for lit in lits[:-1]]
    root = node(K_LEAF, lits[-1])
    for i in range(len(lits) - 2, -1, -1):
        lit = lits[i]
        rest = node(K_AND, 0, (node(K_LEAF, -lit), root))
        root = node(K_OR, 0, (own[i], rest) if lit > 0 else (rest, node(K_LEAF, lit)))
    return DdnnfGraph(kinds, literals, children, root)


def assignment_ddnnf(model: tuple[int, ...]) -> DdnnfGraph:
    """Conjunction-of-literals d-DNNF for a full assignment, given as one
    signed literal per variable."""
    n, lits = len(model), sorted(model, key=abs)
    if n == 1:
        return DdnnfGraph([K_LEAF], lits, [()], root=0)
    return DdnnfGraph([K_LEAF] * n + [K_AND], lits + [0], [()] * n + [tuple(range(n))], root=n)


def ddnnf_to_graph(graph: DdnnfGraph, var_capacity: int) -> FormulaGraph:
    """Augmented undirected graph for one compiled formula.

    Only nodes reachable from the root are kept.  TRUE/FALSE sinks map to
    leaf-typed nodes with an all-zero literal encoding.  Initial features are
    the node-type one-hot concatenated with a signed variable one-hot for
    literal leaves, padded to 4 + var_capacity.
    """
    reachable = set()
    stack = [graph.root]
    while stack:
        nid = stack.pop()
        if nid in reachable:
            continue
        reachable.add(nid)
        stack.extend(graph.children[nid])
    order = sorted(reachable)
    remap = {nid: i for i, nid in enumerate(order)}
    n = len(order) + 1  # plus the global node
    global_index = n - 1

    type_codes = np.empty(n, dtype=np.int64)
    features = np.zeros((n, 4 + var_capacity))
    children: list[tuple[int, ...]] = []
    adj = np.zeros((n, n))
    for nid in order:
        i = remap[nid]
        kind = graph.kinds[nid]
        if kind == K_AND:
            code = TYPE_INDEX["and"]
        elif kind == K_OR:
            code = TYPE_INDEX["or"]
        else:  # leaf, true, false
            code = TYPE_INDEX["leaf"]
        type_codes[i] = code
        features[i, code] = 1.0
        if kind == K_LEAF:
            lit = graph.literals[nid]
            var = abs(lit)
            if var > var_capacity:
                raise ShapeError(f"literal variable {var} exceeds encoder capacity {var_capacity}")
            features[i, 4 + var - 1] = 1.0 if lit > 0 else -1.0
        kids = tuple(remap[c] for c in graph.children[nid])
        children.append(kids)
        for c in kids:
            adj[i, c] = 1.0
            adj[c, i] = 1.0
    type_codes[global_index] = TYPE_INDEX["global"]
    features[global_index, TYPE_INDEX["global"]] = 1.0
    children.append(())
    adj[global_index, :] = 1.0
    adj[:, global_index] = 1.0
    np.fill_diagonal(adj, 1.0)
    return FormulaGraph(type_codes, features, adj, children, global_index)


def check_determinism(graph, exhaustive_max_vars=16):
    """Verify OR children are pairwise inconsistent by exhaustive evaluation.

    Only practical for small variable counts; raises beyond the bound.
    """
    vs = varsets(graph)
    for i, kind in enumerate(graph.kinds):
        if kind != K_OR:
            continue
        kids = graph.children[i]
        union_vars = frozenset().union(*(vs[c] for c in kids))
        if len(union_vars) > exhaustive_max_vars:
            raise ValueError(f"OR node {i} spans {len(union_vars)} vars, too many to check")
        for assignment in all_assignments(union_vars):
            sat = [c for c in kids if eval_ddnnf(graph, assignment, node=c)]
            if len(sat) > 1:
                raise AssertionError(
                    f"OR node {i}: children {sat} jointly satisfied by {assignment}"
                )


def varsets(graph):
    """The set of variables below each node, by node id."""
    out = []
    for i, kind in enumerate(graph.kinds):
        if kind == K_LEAF:
            out.append(frozenset((abs(graph.literals[i]),)))
        else:
            out.append(frozenset().union(*(out[c] for c in graph.children[i])))
    return out


class _Builder:
    """Graph under construction with hash-consing: shared TRUE/FALSE sinks,
    one node per distinct (kind, literal, children)."""

    def __init__(self):
        self.kinds, self.literals, self.children = [], [], []
        self._unique = {}
        self.true_id = self._node(K_TRUE, 0, ())
        self.false_id = self._node(K_FALSE, 0, ())

    def _node(self, kind, literal, kids):
        key = (kind, literal, kids)
        if key not in self._unique:
            self._unique[key] = len(self.kinds)
            self.kinds.append(kind)
            self.literals.append(literal)
            self.children.append(kids)
        return self._unique[key]

    def leaf(self, literal):
        return self._node(K_LEAF, literal, ())

    def conj(self, kids):
        return kids[0] if len(kids) == 1 else self._node(K_AND, 0, kids)

    def disj(self, kids):
        return kids[0] if len(kids) == 1 else self._node(K_OR, 0, kids)


def _condition(clauses, literal):
    """Residual clause set after asserting ``literal``; None encodes a conflict."""
    out = set()
    for clause in clauses:
        if literal in clause:
            continue
        if -literal in clause:
            reduced = clause - {-literal}
            if not reduced:
                return None
            out.add(reduced)
        else:
            out.add(clause)
    return frozenset(out)


def compile_cnf(clauses):
    """Any CNF, as clauses of signed variable ids, compiled to an equivalent
    d-DNNF by Shannon expansion on the lowest-numbered variable left,
    memoized on the residual clause set; the +v branch comes first.
    Unsatisfiable input compiles to the FALSE sink, no clauses to TRUE.
    The result is checked for decomposability."""
    b = _Builder()
    memo = {}

    def build(residual):
        if not residual:
            return b.true_id
        if residual in memo:
            return memo[residual]
        var = min(abs(lit) for clause in residual for lit in clause)
        branches = []
        for literal in (var, -var):
            rest = _condition(residual, literal)
            if rest is None:
                continue
            sub = build(rest)
            if sub == b.false_id:
                continue
            lf = b.leaf(literal)
            branches.append(lf if sub == b.true_id else b.conj((lf, sub)))
        memo[residual] = b.false_id if not branches else b.disj(tuple(branches))
        return memo[residual]

    start = frozenset(frozenset(clause) for clause in clauses)
    root = b.false_id if frozenset() in start else build(start)
    graph = DdnnfGraph(b.kinds, b.literals, b.children, root)
    check_decomposability(graph)
    return graph


def check_decomposability(graph):
    """Raise if any AND node's children share variables."""
    vs = varsets(graph)
    for i, kind in enumerate(graph.kinds):
        if kind != K_AND:
            continue
        seen = set()
        for c in graph.children[i]:
            if seen & vs[c]:
                raise AssertionError(f"AND node {i} children share variables {seen & vs[c]}")
            seen |= vs[c]


def eval_ddnnf(graph, assignment, node=None):
    """Truth value of ``node`` (default: the root) under a full assignment."""
    nid = graph.root if node is None else node
    kind = graph.kinds[nid]
    if kind in (K_TRUE, K_FALSE):
        return kind == K_TRUE
    if kind == K_LEAF:
        lit = graph.literals[nid]
        return assignment[abs(lit)] == (lit > 0)
    values = (eval_ddnnf(graph, assignment, c) for c in graph.children[nid])
    return all(values) if kind == K_AND else any(values)


def model_count(graph, n_vars):
    """Exact model count over an n_vars-variable space: products at AND
    nodes, sums at OR nodes with a smoothing factor 2^(missing vars) per
    child, and a final factor for the variables absent from the graph."""
    vs = varsets(graph)
    counts = []
    for nid, kind in enumerate(graph.kinds):
        kids = graph.children[nid]
        if kind in (K_TRUE, K_LEAF):
            counts.append(1)
        elif kind == K_FALSE:
            counts.append(0)
        elif kind == K_AND:
            counts.append(math.prod(counts[c] for c in kids))
        else:
            counts.append(sum(counts[c] << (len(vs[nid]) - len(vs[c])) for c in kids))
    root_vars = len(vs[graph.root])
    if n_vars < root_vars:
        raise ValueError(f"n_vars={n_vars} below the graph's own {root_vars} variables")
    return counts[graph.root] << (n_vars - root_vars)


def adam_per_tensor(values, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with one moment pair per tensor, stepped tensor by tensor: the
    elementwise formula that ``train.Adam`` runs once over the flat vector."""
    values = {k: np.array(x, dtype=np.float64) for k, x in values.items()}
    m = {k: np.zeros_like(x) for k, x in values.items()}
    v = {k: np.zeros_like(x) for k, x in values.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        b1c = 1.0 - beta1**t
        b2c = 1.0 - beta2**t
        for name, g in grads.items():
            m[name] = beta1 * m[name] + (1.0 - beta1) * g
            v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
            update = (m[name] / b1c) / (np.sqrt(v[name] / b2c) + eps)
            values[name] = values[name] - lr * update
    return values


@dataclass
class GradCheckReport:
    max_rel_error: dict
    tol: float

    @property
    def passed(self):
        return all(err <= self.tol for err in self.max_rel_error.values())

    @property
    def worst(self):
        return max(self.max_rel_error.values(), default=0.0)


def grad_check(build_fn, params, h=1e-6, tol=1e-4):
    """Compare tape adjoints against central finite differences.

    ``build_fn(tape, ids)`` must deterministically construct a scalar loss
    from bound parameter nodes.  Relative error per element is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    tape = Tape()
    ids = bind_params(tape, params)
    loss = build_fn(tape, ids)
    adjoints = tape.backward(loss)

    def loss_value(values):
        t = Tape()
        pid = bind_params(t, ParamSet(dict(values)))
        return float(t.value(build_fn(t, pid))[0, 0])

    report = {}
    for name in params.values:
        analytic = adjoints[ids[name]]
        if analytic is None:
            analytic = np.zeros_like(params.values[name])
        worst = 0.0
        base = {k: v.copy() for k, v in params.values.items()}
        flat = base[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value(base)
            flat[i] = orig - h
            down = loss_value(base)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic.reshape(-1)[i]
            denom = max(1.0, abs(a), abs(numeric))
            worst = max(worst, abs(a - numeric) / denom)
        report[name] = worst
    return GradCheckReport(report, tol)
