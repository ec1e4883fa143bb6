"""Reverse-mode automatic differentiation over dense float64 matrices.

A Tape records primitive applications append-only; ``backward`` runs one
reverse topological sweep and returns exact adjoints for the differentiable
``leaf`` inputs.  Data, graphs and other fixed inputs are recorded with
``constant``: they take no gradient, so backward neither computes nor stores
an adjoint for them or for any node that only constants reach.  Every value
is a 2-D float64 array (scalars are 1x1); there is no implicit broadcasting
beyond the explicit broadcast_row / broadcast_col primitives.  The only
saturating primitive is the eps-shifted log.

A ``Forward`` runs the same network code without recording it, for passes
that never call ``backward``: scoring, E_F and the pretraining validation.
It has the Tape's forward primitives, but a node id is the value itself, so
each temporary is freed once the next op has read it.  Its broadcast_col
returns its input for the hadamard after it to broadcast.  Its ``linear``
adds the bias in place, from a bias's second use on out of a block of
repeated rows built once per Forward: numpy's broadcast loop for a 1xK row
is about twice as slow as a same-shape add.  Elementwise ops give the same
bits either way.  Use a Tape for a gradient, a Forward otherwise.

A network's parameters live in a ``ParamSet``: one contiguous float64 vector
with a named 2-D view per tensor, and a gradient vector beside it, so that an
optimizer step is a few whole-vector operations.  ``bind_params`` records the
views as leaves without copying them; an update replaces the vector, never
writes into it, so every tape bound before the update stays valid.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from .errors import NumericError, ShapeError

LOG_SHIFT = 1e-30


def as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got {arr.ndim}")
    return arr


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so that
    exp never overflows; exp(-|x|) is the exp of either branch."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class Tape:
    """Append-only record of primitive applications.

    Node ids index both the recorded ops and their forward values.  Values
    are never mutated after recording; repeated ``backward`` calls on the
    same tape return identical gradients.
    """

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._records: list[tuple[str, tuple[int, ...], object]] = []  # (op, inputs, aux)
        self._grad: list[bool] = []  # does a differentiable leaf reach the node?

    def __len__(self) -> int:
        return len(self._values)

    def value(self, nid: int) -> np.ndarray:
        return self._values[nid]

    def _push(self, value: np.ndarray, op: str, inputs: tuple[int, ...], need: bool, aux=None) -> int:
        self._values.append(value)
        self._records.append((op, inputs, aux))
        self._grad.append(need)
        return len(self._values) - 1

    def leaf(self, value, copy: bool = True) -> int:
        """A differentiable input.  ``copy=False`` records the array itself,
        which then must not be written to while the tape is in use."""
        if type(value) is not np.ndarray or value.ndim != 2 or value.dtype != np.float64:
            value = as_matrix(value)
        return self._push(value.copy() if copy else value, "leaf", (), True)

    def constant(self, value) -> int:
        """An input that takes no gradient, recorded without a copy: the
        array must not be written to while the tape is in use."""
        if type(value) is not np.ndarray or value.ndim != 2 or value.dtype != np.float64:
            value = as_matrix(value)
        return self._push(value, "constant", (), False)

    # -- primitives ---------------------------------------------------------

    def matmul(self, a: int, b: int) -> int:
        va, vb = self._values[a], self._values[b]
        if va.shape[1] != vb.shape[0]:
            raise ShapeError(f"matmul {va.shape} @ {vb.shape}")
        return self._push(va @ vb, "matmul", (a, b), self._grad[a] or self._grad[b])

    def add(self, a: int, b: int) -> int:
        va, vb = self._values[a], self._values[b]
        if va.shape != vb.shape:
            raise ShapeError(f"add {va.shape} vs {vb.shape}")
        return self._push(va + vb, "add", (a, b), self._grad[a] or self._grad[b])

    def sub(self, a: int, b: int) -> int:
        va, vb = self._values[a], self._values[b]
        if va.shape != vb.shape:
            raise ShapeError(f"sub {va.shape} vs {vb.shape}")
        return self._push(va - vb, "sub", (a, b), self._grad[a] or self._grad[b])

    def hadamard(self, a: int, b: int) -> int:
        va, vb = self._values[a], self._values[b]
        if va.shape != vb.shape:
            raise ShapeError(f"hadamard {va.shape} vs {vb.shape}")
        return self._push(va * vb, "hadamard", (a, b), self._grad[a] or self._grad[b])

    def smul(self, a: int, scalar: float) -> int:
        return self._push(self._values[a] * float(scalar), "smul", (a,), self._grad[a], float(scalar))

    def exp(self, a: int) -> int:
        return self._push(np.exp(self._values[a]), "exp", (a,), self._grad[a])

    def log(self, a: int) -> int:
        v = self._values[a]
        if v.size and v.min() < 0.0:
            raise NumericError("log of negative value")
        return self._push(np.log(v + LOG_SHIFT), "log", (a,), self._grad[a])

    def relu(self, a: int) -> int:
        return self._push(np.maximum(self._values[a], 0.0), "relu", (a,), self._grad[a])

    def sigmoid(self, a: int) -> int:
        return self._push(stable_sigmoid(self._values[a]), "sigmoid", (a,), self._grad[a])

    def row_sum(self, a: int) -> int:
        return self._push(self._values[a].sum(axis=1, keepdims=True), "row_sum", (a,), self._grad[a])

    def col_sum(self, a: int) -> int:
        return self._push(self._values[a].sum(axis=0, keepdims=True), "col_sum", (a,), self._grad[a])

    def broadcast_row(self, a: int, rows: int) -> int:
        v = self._values[a]
        if v.shape[0] != 1:
            raise ShapeError(f"broadcast_row expects a 1xM row, got {v.shape}")
        return self._push(v.repeat(rows, axis=0), "broadcast_row", (a,), self._grad[a], rows)

    def broadcast_col(self, a: int, cols: int) -> int:
        v = self._values[a]
        if v.shape[1] != 1:
            raise ShapeError(f"broadcast_col expects an Nx1 column, got {v.shape}")
        return self._push(v.repeat(cols, axis=1), "broadcast_col", (a,), self._grad[a], cols)

    def transpose(self, a: int) -> int:
        return self._push(self._values[a].T, "transpose", (a,), self._grad[a])

    def square(self, a: int) -> int:
        return self._push(self._values[a] ** 2, "square", (a,), self._grad[a])

    def reduce_mean(self, a: int) -> int:
        v = self._values[a]
        return self._push(np.array([[v.sum() / v.size]]), "reduce_mean", (a,), self._grad[a])

    # -- composites ---------------------------------------------------------

    def full_sum(self, a: int) -> int:
        return self.col_sum(self.row_sum(a))

    def scalar(self, value: float) -> int:
        return self.constant(np.array([[float(value)]]))

    def linear(self, x: int, w: int, b: int) -> int:
        return self.add(self.matmul(x, w), self.broadcast_row(b, self._values[x].shape[0]))

    # -- reverse sweep ------------------------------------------------------

    def backward(self, loss: int) -> list[np.ndarray | None]:
        """Adjoints of the leaves with respect to a scalar loss node.

        Returns a list indexed by node id that holds the adjoint of every
        leaf the loss depends on and None everywhere else, the loss and every
        other interior node included: an interior adjoint is dropped once it
        has reached the node's inputs, so the sweep holds only the adjoints
        still to be propagated.  The adjoints may share memory: a node's
        first gradient contribution is stored as is (``add`` hands its own
        adjoint to both inputs, ``transpose`` hands a view of it), and later
        contributions are added out of place.  Treat every returned array as
        read-only.
        """
        if self._values[loss].shape != (1, 1):
            raise ShapeError(f"loss node must be 1x1, got {self._values[loss].shape}")
        values, records, grad = self._values, self._records, self._grad
        adj: list[np.ndarray | None] = [None] * len(values)
        if not grad[loss]:
            return adj
        adj[loss] = np.ones((1, 1))
        for nid in range(loss, -1, -1):
            g = adj[nid]
            if g is None:
                continue
            op, inputs, aux = records[nid]
            if op == "leaf":
                continue
            adj[nid] = None
            for target, contrib in _BACKWARD[op](values, grad, inputs, aux, nid, g):
                prev = adj[target]
                adj[target] = contrib if prev is None else prev + contrib
        return adj


class Forward:
    """The Tape's forward primitives for a pass that records nothing: a node
    id is its value.  It keeps ``linear``'s bias blocks: one pass per Forward."""

    def __init__(self):
        self._blocks: list[list[np.ndarray]] = []  # [bias row, the row or its repeated rows]

    @staticmethod
    def value(nid: np.ndarray) -> np.ndarray:
        return nid

    @staticmethod
    def leaf(value, copy: bool = True) -> np.ndarray:
        value = as_matrix(value)
        return value.copy() if copy else value

    constant = staticmethod(as_matrix)

    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul {a.shape} @ {b.shape}")
        return a @ b

    def linear(self, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = self.matmul(x, w)  # a fresh array: the bias is added in place
        held = next((h for h in self._blocks if h[0] is b), None)
        if held is None:  # a first use adds the row: a block used once would not pay off
            self._blocks.append([b, b])
            return np.add(out, b, out=out)
        if len(held[1]) < len(out):
            held[1] = b.repeat(len(out), axis=0)
        return np.add(out, held[1][: len(out)], out=out)

    add = staticmethod(np.add)
    hadamard = staticmethod(np.multiply)
    sigmoid = staticmethod(stable_sigmoid)

    @staticmethod
    def relu(a: np.ndarray) -> np.ndarray:
        return np.maximum(a, 0.0)

    @staticmethod
    def broadcast_col(a: np.ndarray, count: int) -> np.ndarray:
        return a


# ---------------------------------------------------------------------------
# Backward rules: (values, needs-gradient flags, inputs, aux, node id, node
# adjoint) -> (input id, contribution) pairs, in input order, for the inputs
# that need a gradient (a swept unary node's input always does).
# ---------------------------------------------------------------------------


def _matmul_bw(vals, grad, inputs, aux, nid, g):
    a, b = inputs
    if not grad[b]:
        return ((a, g @ vals[b].T),)
    if not grad[a]:
        return ((b, vals[a].T @ g),)
    return (a, g @ vals[b].T), (b, vals[a].T @ g)


def _add_bw(vals, grad, inputs, aux, nid, g):
    a, b = inputs
    if grad[a] and grad[b]:
        return (a, g), (b, g)
    return ((a if grad[a] else b, g),)


def _sub_bw(vals, grad, inputs, aux, nid, g):
    a, b = inputs
    if not grad[b]:
        return ((a, g),)
    if not grad[a]:
        return ((b, -g),)
    return (a, g), (b, -g)


def _hadamard_bw(vals, grad, inputs, aux, nid, g):
    a, b = inputs
    if not grad[b]:
        return ((a, g * vals[b]),)
    if not grad[a]:
        return ((b, g * vals[a]),)
    return (a, g * vals[b]), (b, g * vals[a])


def _reduce_mean_bw(vals, grad, inputs, aux, nid, g):
    x = inputs[0]
    return ((x, np.full(vals[x].shape, g[0, 0] / vals[x].size)),)


def _sigmoid_bw(vals, grad, inputs, aux, nid, g):
    s = vals[nid]
    return ((inputs[0], g * s * (1.0 - s)),)


_BACKWARD = {
    "matmul": _matmul_bw,
    "add": _add_bw,
    "sub": _sub_bw,
    "hadamard": _hadamard_bw,
    "reduce_mean": _reduce_mean_bw,
    "sigmoid": _sigmoid_bw,
    "smul": lambda vals, grad, inputs, aux, nid, g: ((inputs[0], g * aux),),
    "exp": lambda vals, grad, inputs, aux, nid, g: ((inputs[0], g * vals[nid]),),
    "log": lambda vals, grad, inputs, aux, nid, g: ((inputs[0], g / (vals[inputs[0]] + LOG_SHIFT)),),
    "relu": lambda vals, grad, inputs, aux, nid, g: ((inputs[0], g * (vals[inputs[0]] > 0.0)),),
    "row_sum": lambda vals, grad, inputs, aux, nid, g: (
        (inputs[0], g.repeat(vals[inputs[0]].shape[1], axis=1)),
    ),
    "col_sum": lambda vals, grad, inputs, aux, nid, g: (
        (inputs[0], g.repeat(vals[inputs[0]].shape[0], axis=0)),
    ),
    "broadcast_row": lambda vals, grad, inputs, aux, nid, g: ((inputs[0], g.sum(axis=0, keepdims=True)),),
    "broadcast_col": lambda vals, grad, inputs, aux, nid, g: ((inputs[0], g.sum(axis=1, keepdims=True)),),
    "transpose": lambda vals, grad, inputs, aux, nid, g: ((inputs[0], g.T),),
    "square": lambda vals, grad, inputs, aux, nid, g: ((inputs[0], 2.0 * g * vals[inputs[0]]),),
}


class ParamSet:
    """Named parameter matrices held in one contiguous float64 vector.

    ``values`` maps each name to a 2-D view into ``vector``, and ``grads`` to
    one into ``grad_vector``, in the order the parameters were given.  Both
    mappings refuse item assignment: gradients are written into their views.
    ``bind_params`` records the value views on a tape without copying them,
    so an update assigns a new ``vector``, which rebinds ``values``, as Adam
    and the pretraining step do, and never writes into the old one.
    """

    def __init__(self, values: Mapping[str, np.ndarray]):
        arrays = {k: as_matrix(v) for k, v in values.items()}
        self._layout, self._size = [], 0
        for name, arr in arrays.items():
            self._layout.append((name, self._size, self._size + arr.size, arr.shape))
            self._size += arr.size
        self.vector = np.concatenate([a.ravel() for a in arrays.values()]) if arrays else np.zeros(0)
        self.grad_vector = np.zeros(self._size)
        self.grads = self._views(self.grad_vector)

    def _views(self, vector: np.ndarray) -> MappingProxyType:
        return MappingProxyType({n: vector[a:b].reshape(shape) for n, a, b, shape in self._layout})

    @property
    def vector(self) -> np.ndarray:
        return self._vector

    @vector.setter
    def vector(self, new: np.ndarray) -> None:
        if new.shape != (self._size,):
            raise ShapeError(f"parameter vector of shape {new.shape}, expected ({self._size},)")
        self._vector = new
        self.values = self._views(new)

    def zero_grads(self) -> None:
        self.grad_vector.fill(0.0)

    def copy(self) -> "ParamSet":
        """The same values in a new vector, with zero gradients."""
        return ParamSet(self.values)


def bind_params(tape: Tape | Forward, params: ParamSet) -> dict[str, int]:
    """Record each ``params.values`` view as a leaf, without a copy: the
    tape stays valid because updates replace ``params.vector``."""
    return {name: tape.leaf(value, copy=False) for name, value in params.values.items()}


def accumulate_grads(params: ParamSet, ids: dict[str, int], adjoints) -> None:
    grads = params.grads
    for name, nid in ids.items():
        g = adjoints[nid]
        if g is not None:
            view = grads[name]
            view += g  # in place: the mapping refuses item assignment
