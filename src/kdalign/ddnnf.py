"""Exact d-DNNF compilation by Shannon expansion, plus model counting.

The compiler branches on the lowest-numbered variable remaining in the
residual clause set, memoizing on the clause set itself, so every OR node's
children are conditioned on complementary literals (determinism by
construction).  Decomposability is re-checked on the finished graph.  Nodes
are hash-consed: shared TRUE/FALSE sinks, one node per distinct
(kind, payload, children).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import DataError

K_AND, K_OR, K_LEAF, K_TRUE, K_FALSE = "and", "or", "leaf", "true", "false"

MAX_COMPILE_VARS = 20


@dataclass
class DdnnfGraph:
    """Rooted DAG with node kinds and, or, leaf, true, false.

    ``literals[i]`` is the signed variable id for leaf nodes (0 otherwise);
    ``children[i]`` lists child node ids.  ``varsets[i]`` caches the set of
    variables reachable from node i.
    """

    kinds: list[str]
    literals: list[int]
    children: list[tuple[int, ...]]
    root: int
    varsets: list[frozenset[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.varsets:
            self.varsets = _compute_varsets(self.kinds, self.literals, self.children)

    def n_nodes(self) -> int:
        return len(self.kinds)


def _compute_varsets(kinds, literals, children) -> list[frozenset[int]]:
    varsets: list[frozenset[int]] = []
    for i, kind in enumerate(kinds):
        if kind == K_LEAF:
            varsets.append(frozenset((abs(literals[i]),)))
        elif kind in (K_TRUE, K_FALSE):
            varsets.append(frozenset())
        else:
            acc: set[int] = set()
            for c in children[i]:
                acc |= varsets[c]
            varsets.append(frozenset(acc))
    return varsets


class _Builder:
    def __init__(self):
        self.kinds: list[str] = []
        self.literals: list[int] = []
        self.children: list[tuple[int, ...]] = []
        self._unique: dict[tuple, int] = {}
        self.true_id = self._node(K_TRUE, 0, ())
        self.false_id = self._node(K_FALSE, 0, ())

    def _node(self, kind: str, literal: int, kids: tuple[int, ...]) -> int:
        key = (kind, literal, kids)
        nid = self._unique.get(key)
        if nid is None:
            nid = len(self.kinds)
            self._unique[key] = nid
            self.kinds.append(kind)
            self.literals.append(literal)
            self.children.append(kids)
        return nid

    def leaf(self, literal: int) -> int:
        return self._node(K_LEAF, literal, ())

    def conj(self, kids: tuple[int, ...]) -> int:
        return kids[0] if len(kids) == 1 else self._node(K_AND, 0, kids)

    def disj(self, kids: tuple[int, ...]) -> int:
        return kids[0] if len(kids) == 1 else self._node(K_OR, 0, kids)


def _condition(clauses: frozenset[frozenset[int]], literal: int):
    """Residual clause set after asserting `literal`; None encodes a conflict."""
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


def compile_ddnnf(clauses: Sequence[tuple[int, ...]]) -> DdnnfGraph:
    """Compile a CNF, given as clauses of signed variable ids, into an
    equivalent d-DNNF graph.

    Unsatisfiable input compiles to the FALSE sink; an empty clause list to
    TRUE.  Raises DataError on more than MAX_COMPILE_VARS distinct variables
    (the recursion is exponential in the worst case and meant for rule-sized
    formulae).
    """
    n_vars = len({abs(lit) for clause in clauses for lit in clause})
    if n_vars > MAX_COMPILE_VARS:
        raise DataError(
            f"formula {list(clauses)} has {n_vars} variables, compile bound is {MAX_COMPILE_VARS}"
        )
    b = _Builder()
    memo: dict[frozenset[frozenset[int]], int] = {}

    def build(clauses: frozenset[frozenset[int]]) -> int:
        if not clauses:
            return b.true_id
        hit = memo.get(clauses)
        if hit is not None:
            return hit
        var = min(abs(lit) for clause in clauses for lit in clause)
        branches = []
        for literal in (var, -var):
            residual = _condition(clauses, literal)
            if residual is None:
                continue
            sub = build(residual)
            if sub == b.false_id:
                continue
            lf = b.leaf(literal)
            branches.append(lf if sub == b.true_id else b.conj((lf, sub)))
        nid = b.false_id if not branches else b.disj(tuple(branches))
        memo[clauses] = nid
        return nid

    start = frozenset(frozenset(clause) for clause in clauses)
    if frozenset() in start:
        root = b.false_id
    else:
        root = build(start)
    graph = DdnnfGraph(b.kinds, b.literals, b.children, root)
    check_decomposability(graph)
    return graph


def check_decomposability(graph: DdnnfGraph) -> None:
    """Raise if any AND node's children share variables."""
    for i, kind in enumerate(graph.kinds):
        if kind != K_AND:
            continue
        seen: set[int] = set()
        for c in graph.children[i]:
            vs = graph.varsets[c]
            if seen & vs:
                raise AssertionError(f"AND node {i} children share variables {seen & vs}")
            seen |= vs
    # Acyclicity holds structurally: children ids are created before parents.


def eval_ddnnf(graph: DdnnfGraph, assignment: Mapping[int, bool], node: int | None = None) -> bool:
    if node is None:
        node = graph.root
    cache: dict[int, bool] = {}

    def rec(nid: int) -> bool:
        if nid in cache:
            return cache[nid]
        kind = graph.kinds[nid]
        if kind == K_TRUE:
            val = True
        elif kind == K_FALSE:
            val = False
        elif kind == K_LEAF:
            lit = graph.literals[nid]
            val = assignment[abs(lit)] == (lit > 0)
        elif kind == K_AND:
            val = all(rec(c) for c in graph.children[nid])
        else:
            val = any(rec(c) for c in graph.children[nid])
        cache[nid] = val
        return val

    return rec(node)


def model_count(graph: DdnnfGraph, n_vars: int) -> int:
    """Exact model count over an n_vars-variable space.

    Standard d-DNNF recursion: products at AND nodes, sums at OR nodes with a
    smoothing factor 2^(missing vars) per child, and a final factor for
    variables absent from the whole graph.
    """
    counts: list[int] = [0] * graph.n_nodes()
    for nid in range(graph.n_nodes()):
        kind = graph.kinds[nid]
        if kind == K_TRUE:
            counts[nid] = 1
        elif kind == K_FALSE:
            counts[nid] = 0
        elif kind == K_LEAF:
            counts[nid] = 1
        elif kind == K_AND:
            acc = 1
            for c in graph.children[nid]:
                acc *= counts[c]
            counts[nid] = acc
        else:
            nv = len(graph.varsets[nid])
            acc = 0
            for c in graph.children[nid]:
                acc += counts[c] * (1 << (nv - len(graph.varsets[c])))
            counts[nid] = acc
    root_vars = len(graph.varsets[graph.root])
    if n_vars < root_vars:
        raise ValueError(f"n_vars={n_vars} below the graph's own {root_vars} variables")
    return counts[graph.root] * (1 << (n_vars - root_vars))
