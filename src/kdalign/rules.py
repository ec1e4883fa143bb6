"""If/else rule knowledge: DSL parsing, rendering, file I/O, and matching.

A rule is a conjunction of attribute-threshold conditions implying an
anomaly verdict, written as::

    IF attr_1 > 5 AND attr_2 = 0 THEN anomaly IS true

Keywords are case-insensitive; an attribute is an identifier
(``[A-Za-z_][A-Za-z0-9_]*``) that is not a keyword.  Rule files hold one
rule per line with ``#`` comments; a JSON form with explicit ids holds the
same content and takes any attribute name.

A predicate ``>``, ``>=``, ``<``, ``<=``, ``=``, ``!=`` means ``value <op>
threshold`` under ``operator.gt``, ``ge``, ``lt``, ``le``, ``eq``, ``ne``.
A rule is accepted when each attribute admits a real value meeting all its
conditions.  With no ``=``, that holds if the tightest lower bound is below
the tightest upper bound: finitely many ``!=`` cannot exclude every real
between them.  Otherwise it holds exactly when all the conditions hold at
one point, the ``=`` value if there is one, else the lower bound.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import write_atomic
from .errors import DataError, RuleSyntaxError

_COMPARE = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "<=": operator.le, "=": operator.eq, "!=": operator.ne,
}
PREDICATES = tuple(_COMPARE)


@dataclass(frozen=True)
class Condition:
    attribute: str
    predicate: str
    threshold: float

    def __post_init__(self):
        if not self.attribute:
            raise ValueError("condition attribute must be nonempty")
        if self.predicate not in _COMPARE:
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
    """Reject antecedents whose per-attribute conditions admit no real value."""
    for attr in dict.fromkeys(c.attribute for c in rule.conditions):
        conds = [c for c in rule.conditions if c.attribute == attr]
        lo = max((c.threshold for c in conds if c.predicate in (">", ">=")), default=-math.inf)
        hi = min((c.threshold for c in conds if c.predicate in ("<", "<=")), default=math.inf)
        equal = [c.threshold for c in conds if c.predicate == "="]
        if equal or not lo < hi:
            point = equal[0] if equal else lo
            if not all(_COMPARE[c.predicate](point, c.threshold) for c in conds):
                raise ValueError(f"rule {rule.rule_id!r}: contradictory conditions on attribute {attr!r}")


# ---------------------------------------------------------------------------
# DSL parsing
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {"if", "and", "then", "is", "anomaly", "true", "false"}
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<pred>==|>=|<=|!=|>|<|=)|(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_NAME.pattern})|(?P<end>\Z))"
)


def _is_attribute_name(word: str) -> bool:
    """Whether the DSL reads ``word`` as one attribute name."""
    return _NAME.fullmatch(word) is not None and word.lower() not in _KEYWORDS


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` per token, the last an ``end`` at ``len(text)``."""
    tokens, pos = [], 0
    while not tokens or tokens[-1][0] != "end":
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            offset = len(text) - len(text[pos:].lstrip())
            raise RuleSyntaxError(f"unexpected character {text[offset]!r}", offset)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def parse_rule(text: str, rule_id: str = "rule") -> Rule:
    """Parse one DSL line into a Rule.

    Grammar: ``IF cond (AND cond)* THEN anomaly IS (true|false)`` with
    ``cond := IDENT PRED NUMBER``.  Raises RuleSyntaxError with the byte
    offset of the offending token.
    """
    tokens = _tokenize(text)
    at = 0

    def take(kind: str, expected: str, accept=lambda word: True) -> str:
        """The next token's text if it is a ``kind`` that ``accept``s, else ``expected``."""
        nonlocal at
        got, word, offset = tokens[at]
        if got != kind or not accept(word):
            raise RuleSyntaxError(expected, offset)
        at += 1
        return word

    def keyword(word: str) -> None:
        take("ident", f"expected {word.upper()!r}", lambda w: w.lower() == word)

    keyword("if")
    conditions = []
    while True:
        attr = take("ident", "expected attribute name", _is_attribute_name)
        pred = take("pred", f"expected predicate (one of {', '.join(PREDICATES)})")
        if pred not in _COMPARE:
            raise RuleSyntaxError(f"unknown predicate {pred!r}", tokens[at - 1][2])
        conditions.append(Condition(attr, pred, float(take("num", "expected numeric threshold"))))
        if (tokens[at][0], tokens[at][1].lower()) != ("ident", "and"):
            break
        at += 1
    for word in ("then", "anomaly", "is"):
        keyword(word)
    verdict = take("ident", "expected 'true' or 'false'", lambda w: w.lower() in ("true", "false"))
    take("end", "trailing input after rule")
    return Rule(rule_id, conditions, verdict.lower() == "true")


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
    """The DSL lines of ``rules``; a DataError if an attribute is not a DSL
    name, since the line would not parse back."""
    for rule in rules:
        for cond in rule.conditions:
            if not _is_attribute_name(cond.attribute):
                raise DataError(f"rule {rule.rule_id!r}: attribute {cond.attribute!r} is not a "
                                "rule-language name; save the rules to .json instead")
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
        mask &= _COMPARE[cond.predicate](X[:, name_to_index[cond.attribute]], cond.threshold)
    return mask


def any_rule_mask(rules: Iterable[Rule], X: np.ndarray, name_to_index: Mapping[str, int]) -> np.ndarray:
    mask = np.zeros(X.shape[0], dtype=bool)
    for rule in rules:
        mask |= rule_match_mask(rule, X, name_to_index)
    return mask
