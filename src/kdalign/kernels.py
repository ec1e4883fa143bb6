"""Hot numeric kernels, vectorized with numpy.

``sinkhorn_scaling`` and its log-domain fallback ``sinkhorn_log`` run the
Sinkhorn iterations behind :func:`kdalign.ot.sinkhorn`, and
``best_split_scan`` is the Gini split search of the acquisition trees.
``tests/oracles.py`` holds the plain-loop references they are tested against.
"""

import numpy as np

# ---------------------------------------------------------------------------
# Sinkhorn iterations, in the scaling domain and in the log domain.
#
# Inputs: M = -C/eps (finite), marginals (strictly positive) and, for the log
# kernel, their logs.  Potentials u, v start at zero; an iteration updates v
# against nu, then u against mu, and the plan of iteration k is
# exp((M + u_k[:, None]) + v_k[None, :]).  The u-update makes the row marginal
# exact, so the column residual alone decides the stop: the column sums of
# plan k are nu * exp(v_k - v_{k+1}), read off the next v-update.  Iteration
# stops once that (infinity norm) is within `tol`, or at `max_iter`; the plan
# is then built once from u_k and v_k, and its row residual measured on it.
#
# sinkhorn_scaling (Cuturi 2013) iterates a = exp(u), b = exp(v + max M) on
# K = exp(M - max M): two matvecs instead of four exp/log passes, and column
# sums b * K^T a = nu * exp(v_k - v_{k+1}).  K falls to exp(-(max M - min M)),
# so past a range of 600 ot.sinkhorn falls back to sinkhorn_log (Schmitzer 2019).
# ---------------------------------------------------------------------------


def _log_col_update(a, log_nu):
    cmax = a.max(axis=0)
    return log_nu - (np.log(np.exp(a - cmax[None, :]).sum(axis=0)) + cmax)


def sinkhorn_log(M, log_mu, log_nu, mu, nu, max_iter, tol):
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    u = np.zeros(M.shape[0])
    a = M + u[:, None]
    v = _log_col_update(a, log_nu)
    for it in range(1, max_iter + 1):
        b = M + v[None, :]
        rmax = b.max(axis=1)
        u = log_mu - (np.log(np.exp(b - rmax[:, None]).sum(axis=1)) + rmax)
        a = M + u[:, None]
        v_next = _log_col_update(a, log_nu)
        res_col = np.abs(nu * np.exp(v - v_next) - nu).max()
        if res_col <= tol or it == max_iter:
            break
        v = v_next
    plan = np.exp(a + v[None, :])
    res_row = np.abs(plan.sum(axis=1) - mu).max()
    return plan, it, res_row, res_col


def sinkhorn_scaling(M, mu, nu, max_iter, tol):
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    K = np.exp(M - M.max())
    b = nu / K.sum(axis=0)
    for it in range(1, max_iter + 1):
        a = mu / K.dot(b)
        kta = a.dot(K)
        res_col = np.abs(b * kta - nu).max()
        if res_col <= tol or it == max_iter:
            break
        b = nu / kta
    plan = a[:, None] * K * b[None, :]
    res_row = np.abs(plan.sum(axis=1) - mu).max()
    return plan, it, res_row, res_col


# ---------------------------------------------------------------------------
# Best Gini split over one sorted feature column of weighted rows.
#
# `values` ascending; `labels` in {0, 1} and `weights` (positive integer row
# counts) aligned with `values`.  Candidate split positions i place rows
# [0..i] left and [i+1..] right; positions where values[i] == values[i+1] are
# invalid, as are those leaving less than `min_leaf` weight on either side.
# Returns (position, weighted Gini impurity) of the best candidate, scanning
# ascending and keeping strict improvements so ties resolve to the lowest
# threshold; (-1, inf) when no candidate exists.  Between distinct values the
# cumulative weights (integers below 2**53) are the counts of the sample with
# each row repeated by its weight, so the scan gives that sample's bits.
# ---------------------------------------------------------------------------


def best_split_scan(values, labels, min_leaf, weights):
    n_left = np.cumsum(weights, dtype=np.float64)
    n = n_left[-1]
    if n < 2 * min_leaf:
        return -1, np.inf
    pos = np.cumsum(weights * labels, dtype=np.float64)
    total_pos = pos[-1]
    n_left = n_left[:-1]
    n_right = n - n_left
    valid = values[:-1] != values[1:]
    valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return -1, np.inf
    pl = pos[:-1]
    pr = total_pos - pl
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = 1.0 - (pl / n_left) ** 2 - ((n_left - pl) / n_left) ** 2
        gini_r = 1.0 - (pr / n_right) ** 2 - ((n_right - pr) / n_right) ** 2
        weighted = (n_left * gini_l + n_right * gini_r) / n
    weighted = np.where(valid, weighted, np.inf)
    best = int(np.argmin(weighted))
    return best, float(weighted[best])
