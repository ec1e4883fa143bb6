"""Hot numeric kernels, vectorized with numpy.

``sinkhorn_log`` runs the log-domain Sinkhorn iterations behind
:func:`kdalign.ot.sinkhorn`, and ``best_split_scan`` is the Gini split search
of the acquisition trees.  Each computation has this one implementation; ``tests/oracles.py``
holds the plain-loop references they are tested against.
"""

import numpy as np

# ---------------------------------------------------------------------------
# Log-domain Sinkhorn iterations.
#
# Inputs: M = -C/eps (finite), log marginals and marginals (strictly
# positive).  Scaled potentials u, v start at zero; one iteration is a
# v-update against log_nu followed by a u-update against log_mu, and the
# plan of iteration k is exp((M + u_k[:, None]) + v_k[None, :]).  After the
# u-update the row marginal is exact, so only the column residual decides
# the stop.  It is read off the next v-update: the column sums of plan k are
# nu * exp(v_k - v_{k+1}).  Iteration stops once that residual (infinity
# norm) drops to `tol` or `max_iter` is reached; the plan is then built once
# from the `M + u_k[:, None]` the last v-update used, and its row residual is
# measured on it.
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


# ---------------------------------------------------------------------------
# Best Gini split over one sorted feature column.
#
# `values` ascending, `labels` in {0, 1} aligned with `values`.  Candidate
# split positions i place samples [0..i] left and [i+1..] right; positions
# where values[i] == values[i+1] are invalid, as are those violating
# `min_leaf` on either side.  Returns (position, weighted Gini impurity) of
# the best candidate, scanning ascending and keeping strict improvements so
# ties resolve to the lowest threshold; (-1, inf) when no candidate exists.
# ---------------------------------------------------------------------------


def best_split_scan(values, labels, min_leaf):
    n = values.shape[0]
    if n < 2 * min_leaf:
        return -1, np.inf
    pos = np.cumsum(labels).astype(np.float64)
    total_pos = pos[-1]
    idx = np.arange(n - 1)
    n_left = (idx + 1).astype(np.float64)
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
