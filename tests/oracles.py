"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: recursive tree evaluation, exhaustive
enumeration, scalar loops, a Sinkhorn loop that re-measures its plan every
iteration.  None of it shares code with the implementations under test.
"""

import itertools

import numpy as np


def eval_tree(node, assignment):
    """Recursive truth evaluation of an FNode tree."""
    if node.kind == "leaf":
        return assignment[node.pid]
    if node.kind == "not":
        return not eval_tree(node.children[0], assignment)
    if node.kind == "and":
        return all(eval_tree(c, assignment) for c in node.children)
    if node.kind == "or":
        return any(eval_tree(c, assignment) for c in node.children)
    if node.kind == "implies":
        a, b = node.children
        return (not eval_tree(a, assignment)) or eval_tree(b, assignment)
    raise ValueError(node.kind)


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


def recall_at_k(scores, labels):
    """Recall among the top-k samples, k = number of positives, stable ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    k = int(labels.sum())
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    top = order[:k]
    return sum(labels[i] for i in top) / k


def gini_weighted(y_left, y_right):
    def gini(y):
        n = len(y)
        if n == 0:
            return 0.0
        p = sum(y) / n
        return 1.0 - p * p - (1.0 - p) * (1.0 - p)

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
