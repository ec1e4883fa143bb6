"""Entropic optimal transport between knowledge and data embeddings.

``sinkhorn`` runs the Sinkhorn-Knopp solver in the scaling domain, or in the
log domain where the cost range would underflow the scaling kernel, and
returns the plan with its marginal residuals.  ``cost_matrix_tape`` builds
the cost between E_F and a batch's embeddings on the tape; the loss holds
the plan constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .autodiff import Tape
from .errors import NumericError, ShapeError

METRICS = ("sqeuclidean", "cosine")

SCALING_RANGE = 600.0
"""Widest ``max M - min M`` (M = -C/epsilon) solved in the scaling domain:
exp(-600) ~ 2.7e-261 leaves about 47 decades above the smallest normal double."""


def _validate_marginal(w: np.ndarray, n: int, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise ShapeError(f"{name} has shape {w.shape}, expected ({n},)")
    if not (w >= 0).all():
        raise ValueError(f"{name} has negative or NaN entries")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} sums to {w.sum()!r}, expected 1 within 1e-12")
    return w


@dataclass
class TransportPlan:
    plan: np.ndarray
    residual_row: float
    residual_col: float
    iterations: int
    epsilon: float
    converged: bool


def sinkhorn(
    C: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    epsilon: float,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> TransportPlan:
    """Solve entropy-regularized OT by Sinkhorn-Knopp iterations.

    Alternately matches the plan's column and row marginals to nu and mu, in
    the scaling domain while ``max M - min M <= SCALING_RANGE`` over the rows
    and columns with mass, in the log domain beyond.  Each u-update makes the
    row marginal exact, so iteration stops when the column residual reaches
    `tol` (infinity norm) or `max_iter` passes; the row residual is measured
    once on the returned plan.  ``converged`` requires both residuals to be
    within `tol`.  Rows or columns with zero marginal mass receive zero plan
    mass exactly.  Non-convergence is reported through ``converged``, not an
    exception.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise ShapeError(f"cost matrix must be 2-D, got shape {C.shape}")
    if not np.isfinite(C).all():
        what = "NaN" if np.isnan(C).any() else "non-finite entries"
        raise NumericError(f"cost matrix contains {what}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    s, m = C.shape
    mu = _validate_marginal(mu, s, "mu")
    nu = _validate_marginal(nu, m, "nu")

    full = mu.min() > 0 and nu.min() > 0
    if full:
        sub_mu, sub_nu, M = mu, nu, -C / epsilon
    else:
        rows = np.flatnonzero(mu > 0)
        cols = np.flatnonzero(nu > 0)
        sub_mu, sub_nu, M = mu[rows], nu[cols], -C[np.ix_(rows, cols)] / epsilon
    if M.max() - M.min() <= SCALING_RANGE:
        out = kernels.sinkhorn_scaling(M, sub_mu, sub_nu, max_iter, tol)
    else:
        out = kernels.sinkhorn_log(M, np.log(sub_mu), np.log(sub_nu), sub_mu, sub_nu, max_iter, tol)
    plan_sub, iters, res_row, res_col = out
    if full:
        plan = plan_sub
    else:
        plan = np.zeros((s, m))
        plan[np.ix_(rows, cols)] = plan_sub
    converged = bool(res_row <= tol and res_col <= tol)
    return TransportPlan(plan, float(res_row), float(res_col), int(iters), float(epsilon), converged)


# ---------------------------------------------------------------------------
# Tape-side OT: differentiable cost matrix and the detached-plan loss.
# ---------------------------------------------------------------------------


def cost_matrix_tape(tape: Tape, e_f: np.ndarray, e_x_id: int, metric: str = "sqeuclidean") -> int:
    """Cost between constant E_F rows and tape E_X rows, differentiable in E_X."""
    e_f = np.asarray(e_f, dtype=np.float64)
    s = e_f.shape[0]
    m = tape.value(e_x_id).shape[0]
    if metric == "sqeuclidean":
        f_sq = tape.constant((e_f**2).sum(axis=1, keepdims=True))  # s x 1
        x_sq = tape.row_sum(tape.square(e_x_id))  # m x 1
        cross = tape.matmul(tape.constant(e_f), tape.transpose(e_x_id))  # s x m
        out = tape.add(
            tape.broadcast_col(f_sq, m),
            tape.broadcast_row(tape.transpose(x_sq), s),
        )
        return tape.add(out, tape.smul(cross, -2.0))
    if metric == "cosine":
        norms = np.linalg.norm(e_f, axis=1, keepdims=True)
        nf = e_f / np.maximum(norms, 1e-30)
        cross = tape.matmul(tape.constant(nf), tape.transpose(e_x_id))  # s x m
        # 1/|e_x| per row via exp(-0.5 log(|e_x|^2)); the shifted log guards 0
        inv_norm = tape.exp(tape.smul(tape.log(tape.row_sum(tape.square(e_x_id))), -0.5))
        sim = tape.hadamard(cross, tape.broadcast_row(tape.transpose(inv_norm), s))
        ones = tape.constant(np.ones((s, m)))
        return tape.relu(tape.sub(ones, sim))
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def ot_loss_tape(tape: Tape, c_id: int, plan: np.ndarray) -> int:
    """<C, S> with the plan held constant (envelope-style gradient via C)."""
    return tape.full_sum(tape.hadamard(c_id, tape.constant(plan)))
