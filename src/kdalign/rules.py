"""If/else rule knowledge: DSL parsing, rendering, file I/O, and matching.

A rule is a conjunction of attribute-threshold conditions implying an
anomaly verdict, written as::

    IF attr_1 > 5 AND attr_2 = 0 THEN anomaly IS true

Keywords are case-insensitive.  Rule files hold one rule per line with ``#``
comments; a JSON form with explicit ids round-trips the same content.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import write_atomic
from .errors import DataError, RuleSyntaxError

PREDICATES = (">", ">=", "<", "<=", "=", "!=")


@dataclass(frozen=True)
class Condition:
    attribute: str
    predicate: str
    threshold: float

    def __post_init__(self):
        if not self.attribute:
            raise ValueError("condition attribute must be nonempty")
        if self.predicate not in PREDICATES:
            raise ValueError(f"unknown predicate {self.predicate!r}")
        if not math.isfinite(self.threshold):
            raise ValueError("condition threshold must be finite")


@dataclass
class Rule:
    rule_id: str
    conditions: list[Condition]
    consequent: bool

    def __post_init__(self):
        if not self.conditions:
            raise ValueError(f"rule {self.rule_id!r}: empty antecedent")
        _check_satisfiable(self)


def _check_satisfiable(rule: Rule) -> None:
    """Reject antecedents whose per-attribute constraints admit no real value."""
    by_attr: dict[str, list[Condition]] = {}
    for cond in rule.conditions:
        by_attr.setdefault(cond.attribute, []).append(cond)
    for attr, conds in by_attr.items():
        lo, lo_open = -math.inf, False
        hi, hi_open = math.inf, False
        eqs: set[float] = set()
        neqs: set[float] = set()
        for c in conds:
            if c.predicate == ">":
                if c.threshold > lo or (c.threshold == lo and not lo_open):
                    lo, lo_open = c.threshold, True
            elif c.predicate == ">=":
                if c.threshold > lo:
                    lo, lo_open = c.threshold, False
            elif c.predicate == "<":
                if c.threshold < hi or (c.threshold == hi and not hi_open):
                    hi, hi_open = c.threshold, True
            elif c.predicate == "<=":
                if c.threshold < hi:
                    hi, hi_open = c.threshold, False
            elif c.predicate == "=":
                eqs.add(c.threshold)
            else:
                neqs.add(c.threshold)
        unsat = False
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            unsat = True
        if len(eqs) > 1:
            unsat = True
        if len(eqs) == 1:
            e = next(iter(eqs))
            if e < lo or e > hi or (e == lo and lo_open) or (e == hi and hi_open):
                unsat = True
            if e in neqs:
                unsat = True
        # With no equality the interval contains infinitely many reals, so a
        # finite set of != exclusions can only empty a single-point interval.
        if not eqs and lo == hi and not lo_open and not hi_open and lo in neqs:
            unsat = True
        if unsat:
            raise ValueError(
                f"rule {rule.rule_id!r}: contradictory conditions on attribute {attr!r}"
            )


# ---------------------------------------------------------------------------
# DSL parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<pred>==|>=|<=|!=|>|<|=)|(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)

_KEYWORDS = {"if", "and", "then", "is", "anomaly", "true", "false"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise RuleSyntaxError(f"unexpected character {stripped[0]!r}", offset)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _offset(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i][2]
        return len(self.text)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def expect_keyword(self, word: str):
        tok = self.peek()
        if tok is None or tok[0] != "ident" or tok[1].lower() != word:
            raise RuleSyntaxError(f"expected {word.upper()!r}", self._offset())
        self.i += 1

    def take_ident(self) -> str:
        tok = self.peek()
        if tok is None or tok[0] != "ident" or tok[1].lower() in _KEYWORDS:
            raise RuleSyntaxError("expected attribute name", self._offset())
        self.i += 1
        return tok[1]

    def take_predicate(self) -> str:
        tok = self.peek()
        if tok is None or tok[0] != "pred":
            raise RuleSyntaxError("expected predicate (one of >, >=, <, <=, =, !=)", self._offset())
        if tok[1] not in PREDICATES:
            raise RuleSyntaxError(f"unknown predicate {tok[1]!r}", self._offset())
        self.i += 1
        return tok[1]

    def take_number(self) -> float:
        tok = self.peek()
        if tok is None or tok[0] != "num":
            raise RuleSyntaxError("expected numeric threshold", self._offset())
        self.i += 1
        return float(tok[1])

    def take_bool(self) -> bool:
        tok = self.peek()
        if tok is not None and tok[0] == "ident" and tok[1].lower() in ("true", "false"):
            self.i += 1
            return tok[1].lower() == "true"
        raise RuleSyntaxError("expected 'true' or 'false'", self._offset())

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "ident" and tok[1].lower() == word


def parse_rule(text: str, rule_id: str = "rule") -> Rule:
    """Parse one DSL line into a Rule.

    Grammar: ``IF cond (AND cond)* THEN anomaly IS (true|false)`` with
    ``cond := IDENT PRED NUMBER``.  Raises RuleSyntaxError with the byte
    offset of the offending token.
    """
    p = _Parser(text)
    p.expect_keyword("if")
    conditions = [_parse_condition(p)]
    while p.at_keyword("and"):
        p.i += 1
        conditions.append(_parse_condition(p))
    p.expect_keyword("then")
    p.expect_keyword("anomaly")
    p.expect_keyword("is")
    consequent = p.take_bool()
    if p.peek() is not None:
        raise RuleSyntaxError("trailing input after rule", p._offset())
    return Rule(rule_id, conditions, consequent)


def _parse_condition(p: _Parser) -> Condition:
    attr = p.take_ident()
    pred = p.take_predicate()
    value = p.take_number()
    return Condition(attr, pred, value)


def render_rule(rule: Rule) -> str:
    parts = " AND ".join(
        f"{c.attribute} {c.predicate} {format_threshold(c.threshold)}"
        for c in rule.conditions
    )
    verdict = "true" if rule.consequent else "false"
    return f"IF {parts} THEN anomaly IS {verdict}"


def format_threshold(value: float) -> str:
    """A threshold as the rule language and the proposition names write it:
    an integral value as an integer, any other as its ``repr``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------


def parse_rules_text(text: str) -> list[Rule]:
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rules.append(parse_rule(line, rule_id=f"rule_{len(rules):03d}"))
        except ValueError as exc:  # a RuleSyntaxError, or a rule its checks reject
            raise DataError(f"line {lineno}: {exc}") from exc
    return rules


def rules_to_text(rules: Sequence[Rule]) -> str:
    return "".join(render_rule(r) + "\n" for r in rules)


def rules_to_json(rules: Sequence[Rule]) -> str:
    payload = [
        {
            "id": r.rule_id,
            "conditions": [
                {"attr": c.attribute, "op": c.predicate, "threshold": c.threshold}
                for c in r.conditions
            ],
            "consequent": r.consequent,
        }
        for r in rules
    ]
    return json.dumps(payload, indent=2)


_JSON_TYPES = {
    dict: "an object", list: "a list", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _typed(value, kinds: tuple[type, ...], what: str):
    """``value`` if it is a JSON value of one of the Python ``kinds`` (a
    boolean only where ``bool`` is listed); else a DataError naming ``what``."""
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise DataError(f"{what} must be {_JSON_TYPES[kinds[0]]}, got {_JSON_TYPES[type(value)]}")
    return value


def rules_from_json(text: str) -> list[Rule]:
    """Rules from the JSON form of ``rules_to_json``: a list of objects with
    an ``id`` (a string, or an integer kept as its decimal text),
    ``conditions`` (objects with a string ``attr`` and ``op`` and a numeric
    ``threshold``) and a boolean ``consequent``."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise DataError(f"invalid rule JSON: {exc}") from None
    if not isinstance(payload, list):
        raise DataError(f"rule JSON must be a list of rules, got {_JSON_TYPES[type(payload)]}")
    rules = []
    for index, obj in enumerate(payload):
        where = f"rule entry {index}"
        try:
            entry = _typed(obj, (dict,), where)
            conds = []
            for ci, c in enumerate(_typed(entry["conditions"], (list,), f"{where}: 'conditions'")):
                at = f"{where}: condition {ci}"
                c = _typed(c, (dict,), at)
                conds.append(Condition(
                    _typed(c["attr"], (str,), f"{at} 'attr'"),
                    _typed(c["op"], (str,), f"{at} 'op'"),
                    float(_typed(c["threshold"], (int, float), f"{at} 'threshold'")),
                ))
            consequent = _typed(entry["consequent"], (bool,), f"{where}: 'consequent'")
            rule_id = _typed(entry["id"], (str, int), f"{where}: 'id'")
            rules.append(Rule(str(rule_id), conds, consequent))
        except KeyError as exc:
            raise DataError(f"{where}: missing key {exc}") from None
        except DataError:  # already names its entry
            raise
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{where}: {exc}") from None
    return rules


def load_rules(path) -> list[Rule]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        return rules_from_json(text)
    return parse_rules_text(text)


def save_rules(rules: Sequence[Rule], path) -> None:
    json_file = str(path).endswith(".json")
    write_atomic(path, rules_to_json(rules) if json_file else rules_to_text(rules))


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def rule_match_mask(rule: Rule, X: np.ndarray, name_to_index: Mapping[str, int]) -> np.ndarray:
    """Vectorized match over the rows of X."""
    mask = np.ones(X.shape[0], dtype=bool)
    for cond in rule.conditions:
        if cond.attribute not in name_to_index:
            raise DataError(f"rule {rule.rule_id!r}: unknown attribute {cond.attribute!r}")
        col = X[:, name_to_index[cond.attribute]]
        p, t = cond.predicate, cond.threshold
        if p == ">":
            mask &= col > t
        elif p == ">=":
            mask &= col >= t
        elif p == "<":
            mask &= col < t
        elif p == "<=":
            mask &= col <= t
        elif p == "=":
            mask &= col == t
        else:
            mask &= col != t
    return mask


def any_rule_mask(rules: Iterable[Rule], X: np.ndarray, name_to_index: Mapping[str, int]) -> np.ndarray:
    mask = np.zeros(X.shape[0], dtype=bool)
    for rule in rules:
        mask |= rule_match_mask(rule, X, name_to_index)
    return mask
