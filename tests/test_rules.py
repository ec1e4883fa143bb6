import numpy as np
import pytest

from kdalign.errors import DataError, RuleSyntaxError
from kdalign.experiment import compile_rules
from kdalign.rules import (
    PREDICATES,
    Condition,
    Rule,
    format_threshold,
    load_rules,
    parse_rule,
    parse_rules_text,
    render_rule,
    rule_match_mask,
    rules_from_json,
    rules_to_json,
    rules_to_text,
    save_rules,
)
from oracles import antecedent_satisfiable, condition_holds, match_rule


class TestParse:
    def test_worked_example(self):
        rule = parse_rule("IF attr_1 > 5 AND attr_2 = 0 THEN anomaly IS true")
        assert rule.conditions == [
            Condition("attr_1", ">", 5.0),
            Condition("attr_2", "=", 0.0),
        ]
        assert rule.consequent is True

    def test_single_condition(self):
        rule = parse_rule("IF x >= 0 THEN anomaly IS true")
        assert len(rule.conditions) == 1
        assert rule.conditions[0] == Condition("x", ">=", 0.0)

    EXPECTED_PREDICATE = "expected predicate (one of >, >=, <, <=, =, !=)"
    ERRORS = [  # each line the parser rejects, with its exact message and byte offset
        ("IF x @ 1 THEN anomaly IS true", "unexpected character '@'", 5),
        ("IF x > 1 THEN anomaly IS true é", "unexpected character 'é'", 30),
        ("", "expected 'IF'", 0),
        ("x > 1 THEN anomaly IS true", "expected 'IF'", 0),
        ("IF x > 1 anomaly IS true", "expected 'THEN'", 9),
        ("IF x > 1 THEN y IS true", "expected 'ANOMALY'", 14),
        ("IF x > 1 THEN anomaly true", "expected 'IS'", 22),
        ("IF and > 1 THEN anomaly IS true", "expected attribute name", 3),
        ("IF 5 > 1 THEN anomaly IS true", "expected attribute name", 3),
        ("IF THEN anomaly IS true", "expected attribute name", 3),
        ("IF x 1 THEN anomaly IS true", EXPECTED_PREDICATE, 5),
        ("IF x > 1 AND y THEN anomaly IS true", EXPECTED_PREDICATE, 15),
        ("IF x == 5 THEN anomaly IS true", "unknown predicate '=='", 5),
        ("IF x > high THEN anomaly IS true", "expected numeric threshold", 7),
        ("IF x > 1 THEN anomaly IS maybe", "expected 'true' or 'false'", 25),
        ("IF x > 1 THEN anomaly IS", "expected 'true' or 'false'", 24),
        ("IF x > 1 THEN anomaly IS true extra", "trailing input after rule", 30),
        ("IF", "expected attribute name", 2),
        ("IF x > 1 AND", "expected attribute name", 12),
        ("IF x", EXPECTED_PREDICATE, 4),
        ("IF x   ", EXPECTED_PREDICATE, 7),
        ("IF x >", "expected numeric threshold", 6),
    ]

    @pytest.mark.parametrize("text, message, offset", ERRORS)
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rule(text)
        assert str(exc.value) == f"{message} (at offset {offset})"
        assert exc.value.offset == offset

    def test_keywords_case_insensitive(self):
        rule = parse_rule("if x > 1 and y < 2 then ANOMALY is FALSE")
        assert rule.consequent is False
        assert [c.attribute for c in rule.conditions] == ["x", "y"]

    def test_negative_and_scientific_thresholds(self):
        rule = parse_rule("IF a > -3.5 AND b <= 1e-2 THEN anomaly IS true")
        assert rule.conditions[0].threshold == -3.5
        assert rule.conditions[1].threshold == 0.01

    def test_contradictory_antecedent_rejected(self):
        with pytest.raises(ValueError, match="contradictory"):
            parse_rule("IF x > 5 AND x < 4 THEN anomaly IS true")
        with pytest.raises(ValueError, match="contradictory"):
            parse_rule("IF x > 5 AND x <= 5 THEN anomaly IS true")
        with pytest.raises(ValueError, match="contradictory"):
            parse_rule("IF x = 3 AND x != 3 THEN anomaly IS true")
        # satisfiable combinations must pass
        parse_rule("IF x >= 5 AND x <= 5 THEN anomaly IS true")
        parse_rule("IF x > 1 AND x > 2 AND x < 9 THEN anomaly IS true")

    SATISFIABILITY_GRID = (-1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-323, 0.5, 1.0, 1e308)

    def test_satisfiability_agrees_with_the_exact_oracle(self):
        rng = np.random.default_rng(20240210)
        accepted = 0
        for _ in range(10_000):
            conds = [
                Condition("ab"[int(rng.random() < 0.3)], str(rng.choice(PREDICATES)),
                          float(rng.choice(self.SATISFIABILITY_GRID)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            try:
                Rule("r", conds, True)
            except ValueError as exc:
                assert not antecedent_satisfiable(conds), conds
                assert str(exc).startswith("rule 'r': contradictory conditions on attribute "), exc
            else:
                assert antecedent_satisfiable(conds), conds
                accepted += 1
        assert 3_000 < accepted < 7_000

    def test_parse_render_roundtrip(self):
        rng = np.random.default_rng(7)
        preds = [">", ">=", "<", "<=", "=", "!="]
        for _ in range(50):
            n = int(rng.integers(1, 5))
            conds = [
                Condition(f"f{i}", preds[int(rng.integers(len(preds)))], float(np.round(rng.normal() * 10, 3)))
                for i in range(n)
            ]
            rule = Rule("r", conds, bool(rng.integers(2)))
            again = parse_rule(render_rule(rule), rule_id="r")
            assert again == rule

    def test_render_case_and_whitespace_insensitive_reparse(self):
        text = "   if  x   >  5   then  anomaly  is  true  "
        assert parse_rule(text) == parse_rule("IF x > 5 THEN anomaly IS true")


class TestMatch:
    RULE = parse_rule("IF attr_1 > 5 AND attr_2 = 0 THEN anomaly IS true")
    NAMES = {"attr_1": 0, "attr_2": 1}

    def test_match(self):
        assert match_rule(self.RULE, [6.0, 0.0], self.NAMES) is True

    def test_strict_boundary(self):
        assert match_rule(self.RULE, [5.0, 0.0], self.NAMES) is False

    AROUND = {  # the mask on values below, at and above the threshold
        ">": [False, False, True],
        ">=": [False, True, True],
        "<": [True, False, False],
        "<=": [True, True, False],
        "=": [False, True, False],
        "!=": [True, False, True],
    }

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_mask_around_the_threshold_agrees_with_the_oracle(self, predicate):
        rule = Rule("r", [Condition("x", predicate, 2.5)], True)
        X = np.array([[-1.0, 2.0], [-1.0, 2.5], [-1.0, 3.0]])
        names = {"w": 0, "x": 1}
        mask = rule_match_mask(rule, X, names)
        assert mask.dtype == bool
        assert mask.tolist() == [match_rule(rule, row, names) for row in X] == self.AROUND[predicate]

    def test_missing_attribute(self):
        with pytest.raises(DataError, match="unknown attribute"):
            rule_match_mask(self.RULE, np.array([[6.0]]), {"attr_1": 0})

    def test_match_agrees_with_formula_evaluation(self):
        # match_rule(rule, x) iff the induced assignment satisfies the
        # antecedent conjunction: the negative literals of the rule's clause.
        rng = np.random.default_rng(3)
        rule = parse_rule("IF a > 1 AND b <= 0.5 AND c != 2 THEN anomaly IS true")
        names = {"a": 0, "b": 1, "c": 2}
        table, (clause,) = compile_rules([rule])
        antecedent = [-lit for lit in clause if lit < 0]
        assert len(antecedent) == 3
        for _ in range(200):
            x = rng.normal(size=3) * 2
            if rng.random() < 0.2:
                x[2] = 2.0
            assignment = {
                table[(c.attribute, c.predicate, format_threshold(c.threshold))]: condition_holds(
                    c, x[names[c.attribute]]
                )
                for c in rule.conditions
            }
            assert match_rule(rule, x, names) == all(assignment[p] for p in antecedent)


class TestFiles:
    def test_text_roundtrip(self, tmp_path):
        text = "# comment line\nIF x > 5 THEN anomaly IS true\n\nIF y <= 2 AND z != 0 THEN anomaly IS false  # tail\n"
        rules = parse_rules_text(text)
        assert len(rules) == 2
        assert rules[0].rule_id == "rule_000"
        again = parse_rules_text(rules_to_text(rules))
        assert again == rules

    def test_json_roundtrip(self):
        rules = parse_rules_text("IF x > 5 THEN anomaly IS true\nIF y < 1 THEN anomaly IS true\n")
        again = rules_from_json(rules_to_json(rules))
        assert again == rules

    @staticmethod
    def _with_id(rule_id: str) -> str:
        cond = '{"attr":"x","op":">","threshold":1}'
        return f'[{{"id":{rule_id},"conditions":[{cond}],"consequent":true}}]'

    @pytest.mark.parametrize("rule_id, kept", [('"r7"', "r7"), ("7", "7"), ("-3", "-3")])
    def test_json_id_is_a_string_or_an_integer(self, rule_id, kept):
        assert rules_from_json(self._with_id(rule_id))[0].rule_id == kept

    @pytest.mark.parametrize("rule_id, got", [("true", "a boolean"), ("1.5", "a number"),
                                              ("[]", "a list")])
    def test_json_id_of_another_type_is_a_data_error(self, rule_id, got):
        with pytest.raises(DataError) as info:
            rules_from_json(self._with_id(rule_id))
        assert str(info.value) == f"rule entry 0: 'id' must be a string, got {got}"

    def test_load_dispatches_on_extension(self, tmp_path):
        rules = parse_rules_text("IF x > 5 THEN anomaly IS true\n")
        for name in ("rules.txt", "rules.json"):
            path = tmp_path / name
            save_rules(rules, path)
            assert load_rules(path) == rules

    def test_bad_line_reports_line_number(self):
        with pytest.raises(DataError, match="line 2"):
            parse_rules_text("IF x > 5 THEN anomaly IS true\nIF THEN anomaly IS true\n")
