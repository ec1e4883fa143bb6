"""Propositional encoding of rules: interned propositions and rule clauses.

Each (subject, predicate, object) triple is interned once in a shared
PropositionTable, so identical conditions reuse one 1-based id across rules.
A rule ``(p_1 AND ... AND p_k) IMPLIES p_c`` is exactly the one clause
``(NOT p_1 OR ... OR NOT p_k OR p_c)``, written as a tuple of signed ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rules import Rule, format_threshold


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
