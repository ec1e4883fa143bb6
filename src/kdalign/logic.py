"""Propositional formulae: rule transformation, CNF conversion, evaluation.

Formulae are trees over {NOT, AND, OR, IMPLIES, LEAF}; leaves reference
1-based proposition ids interned in a shared PropositionTable so identical
(subject, predicate, object) triples reuse one id across rules.  CNF clauses
are tuples of signed proposition ids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .rules import Rule, _format_threshold

NOT, AND, OR, IMPLIES, LEAF = "not", "and", "or", "implies", "leaf"

DEFAULT_MAX_CLAUSES = 4096


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
        self._by_id: dict[int, Proposition] = {}

    def intern(self, subject: str, predicate: str, obj: str) -> int:
        key = (subject, predicate, obj)
        prop = self._by_triple.get(key)
        if prop is None:
            prop = Proposition(len(self._by_triple) + 1, subject, predicate, obj)
            self._by_triple[key] = prop
            self._by_id[prop.pid] = prop
        return prop.pid

    def __len__(self) -> int:
        return len(self._by_triple)

    def __contains__(self, pid: int) -> bool:
        return pid in self._by_id

    def propositions(self) -> list[Proposition]:
        return [self._by_id[i] for i in sorted(self._by_id)]


@dataclass(frozen=True)
class FNode:
    kind: str
    children: tuple["FNode", ...] = ()
    pid: int = 0

    def __post_init__(self):
        if self.kind == LEAF:
            if self.children:
                raise ValueError("leaf node cannot have children")
        elif self.kind == NOT:
            if len(self.children) != 1:
                raise ValueError("NOT takes exactly one child")
        elif self.kind == IMPLIES:
            if len(self.children) != 2:
                raise ValueError("IMPLIES is binary")
        elif self.kind in (AND, OR):
            if len(self.children) < 2:
                raise ValueError(f"{self.kind.upper()} needs at least two children")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")


def leaf(pid: int) -> FNode:
    return FNode(LEAF, pid=pid)


def lnot(child: FNode) -> FNode:
    return FNode(NOT, (child,))


def land(children: Iterable[FNode]) -> FNode:
    return FNode(AND, tuple(children))


def lor(children: Iterable[FNode]) -> FNode:
    return FNode(OR, tuple(children))


def implies(antecedent: FNode, consequent: FNode) -> FNode:
    return FNode(IMPLIES, (antecedent, consequent))


@dataclass
class PropFormula:
    root: FNode
    table: PropositionTable

    def __post_init__(self):
        for pid in self.variables():
            if pid not in self.table:
                raise ValueError(f"leaf proposition id {pid} missing from table")

    def variables(self) -> set[int]:
        out: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.kind == LEAF:
                out.add(node.pid)
            else:
                stack.extend(node.children)
        return out


@dataclass
class CnfFormula:
    clauses: list[tuple[int, ...]]
    table: PropositionTable

    def variables(self) -> set[int]:
        return {abs(lit) for clause in self.clauses for lit in clause}


def rule_to_formula(rule: Rule, table: PropositionTable) -> PropFormula:
    """Transform a rule into (p_1 AND ... AND p_k) IMPLIES p_consequent.

    Each condition becomes a proposition (attribute, operator, threshold
    string); the consequent proposition is (anomaly, is, True/False).
    """
    pids = [
        table.intern(c.attribute, c.predicate, _format_threshold(c.threshold))
        for c in rule.conditions
    ]
    consequent = table.intern("anomaly", "is", "True" if rule.consequent else "False")
    antecedent = leaf(pids[0]) if len(pids) == 1 else land(leaf(p) for p in pids)
    return PropFormula(implies(antecedent, leaf(consequent)), table)


# ---------------------------------------------------------------------------
# CNF conversion: implication elimination, negation pushing, distribution.
# The output is logically equivalent to the input (not just equisatisfiable);
# tautological clauses and duplicate literals are dropped.
# ---------------------------------------------------------------------------


def _to_nnf(node: FNode, negate: bool) -> FNode:
    if node.kind == LEAF:
        return lnot(node) if negate else node
    if node.kind == NOT:
        return _to_nnf(node.children[0], not negate)
    if node.kind == IMPLIES:
        a, b = node.children
        if negate:  # not(a -> b) == a and not b
            return land((_to_nnf(a, False), _to_nnf(b, True)))
        return lor((_to_nnf(a, True), _to_nnf(b, False)))
    kind = node.kind
    if negate:
        kind = OR if kind == AND else AND
    return FNode(kind, tuple(_to_nnf(c, negate) for c in node.children))


def _distribute(node: FNode, max_clauses: int) -> list[frozenset[int]]:
    if node.kind == LEAF:
        return [frozenset((node.pid,))]
    if node.kind == NOT:
        return [frozenset((-node.children[0].pid,))]
    if node.kind == AND:
        out: list[frozenset[int]] = []
        for child in node.children:
            out.extend(_distribute(child, max_clauses))
            if len(out) > max_clauses:
                raise ValueError(f"CNF distribution exceeds {max_clauses} clauses")
        return out
    # OR: cross-product merge of child clause sets
    parts = [_distribute(c, max_clauses) for c in node.children]
    out = []
    for combo in itertools.product(*parts):
        merged = frozenset().union(*combo)
        out.append(merged)
        if len(out) > max_clauses:
            raise ValueError(f"CNF distribution exceeds {max_clauses} clauses")
    return out


def formula_to_cnf(formula: PropFormula, max_clauses: int = DEFAULT_MAX_CLAUSES) -> CnfFormula:
    nnf = _to_nnf(formula.root, False)
    raw = _distribute(nnf, max_clauses)
    clauses: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for clause in raw:
        if any(-lit in clause for lit in clause):
            continue  # tautology
        if clause in seen:
            continue
        seen.add(clause)
        clauses.append(tuple(sorted(clause, key=lambda lit: (abs(lit), lit))))
    return CnfFormula(clauses, formula.table)


# ---------------------------------------------------------------------------
# Assignment enumeration
# ---------------------------------------------------------------------------


def assignments(variables: Iterable[int]) -> Iterator[dict[int, bool]]:
    """All 2^n assignments over the given variables, in a fixed order."""
    ordered = sorted(set(variables))
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, bits))
