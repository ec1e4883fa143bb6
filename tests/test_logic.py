import numpy as np
import pytest

from kdalign.logic import (
    PropositionTable,
    formula_to_cnf,
    implies,
    land,
    leaf,
    lnot,
    lor,
    PropFormula,
    rule_to_formula,
)
from kdalign.rules import parse_rule
from oracles import all_assignments, eval_clauses, eval_tree


def random_formula(rng, pids, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return leaf(int(rng.choice(pids)))
    kind = rng.choice(["not", "and", "or", "implies"])
    if kind == "not":
        return lnot(random_formula(rng, pids, depth - 1))
    if kind == "implies":
        return implies(
            random_formula(rng, pids, depth - 1), random_formula(rng, pids, depth - 1)
        )
    n = int(rng.integers(2, 4))
    children = tuple(random_formula(rng, pids, depth - 1) for _ in range(n))
    return land(children) if kind == "and" else lor(children)


def table_with(n):
    table = PropositionTable()
    for i in range(n):
        table.intern(f"p{i}", "is", "True")
    return table


class TestRuleToFormula:
    def test_worked_example(self):
        table = PropositionTable()
        rule = parse_rule("IF attr_1 > 5 AND attr_2 = 0 THEN anomaly IS true")
        f = rule_to_formula(rule, table)
        assert f.root.kind == "implies"
        antecedent, consequent = f.root.children
        assert antecedent.kind == "and"
        assert [c.pid for c in antecedent.children] == [1, 2]
        assert consequent.pid == 3
        assert [(p.pid, p.subject, p.predicate, p.obj) for p in table.propositions()] == [
            (1, "attr_1", ">", "5"),
            (2, "attr_2", "=", "0"),
            (3, "anomaly", "is", "True"),
        ]

    def test_single_condition_degenerate(self):
        table = PropositionTable()
        f = rule_to_formula(parse_rule("IF x >= 0 THEN anomaly IS true"), table)
        antecedent, _ = f.root.children
        assert antecedent.kind == "leaf"

    def test_shared_condition_reuses_proposition_id(self):
        table = PropositionTable()
        f1 = rule_to_formula(parse_rule("IF attr_1 > 5 THEN anomaly IS true"), table)
        f2 = rule_to_formula(
            parse_rule("IF attr_1 > 5 AND attr_2 < 1 THEN anomaly IS true"), table
        )
        # same triple -> same id in both formulae
        assert f1.root.children[0].pid == f2.root.children[0].children[0].pid
        # consequent (anomaly, is, True) also deduplicated
        assert f1.root.children[1].pid == f2.root.children[1].pid
        assert len(table) == 3


class TestCnf:
    def test_implication_single_clause(self):
        table = table_with(3)
        f = PropFormula(implies(land((leaf(1), leaf(2))), leaf(3)), table)
        cnf = formula_to_cnf(f)
        assert cnf.clauses == [(-1, -2, 3)]

    def test_single_leaf(self):
        cnf = formula_to_cnf(PropFormula(leaf(1), table_with(1)))
        assert cnf.clauses == [(1,)]

    def test_tautology_clause_dropped(self):
        table = table_with(2)
        f = PropFormula(lor((leaf(1), lnot(leaf(1)))), table)
        assert formula_to_cnf(f).clauses == []

    def test_no_duplicate_literals(self):
        table = table_with(2)
        f = PropFormula(lor((leaf(1), leaf(1), leaf(2))), table)
        assert formula_to_cnf(f).clauses == [(1, 2)]

    def test_blowup_bound(self):
        table = table_with(26)
        terms = tuple(land((leaf(2 * i + 1), leaf(2 * i + 2))) for i in range(13))
        f = PropFormula(lor(terms), table)
        with pytest.raises(ValueError, match="exceeds"):
            formula_to_cnf(f)

    @pytest.mark.parametrize("seed", range(40))
    def test_equivalence_random_4var(self, seed):
        rng = np.random.default_rng(seed)
        table = table_with(4)
        f = PropFormula(random_formula(rng, [1, 2, 3, 4]), table)
        cnf = formula_to_cnf(f)
        for assignment in all_assignments([1, 2, 3, 4]):
            assert eval_tree(f.root, assignment) == eval_clauses(cnf.clauses, assignment)

    def test_equivalence_up_to_8_vars(self):
        rng = np.random.default_rng(99)
        pids = list(range(1, 9))
        table = table_with(8)
        for _ in range(15):
            f = PropFormula(random_formula(rng, pids, depth=4), table)
            cnf = formula_to_cnf(f)
            for assignment in all_assignments(pids):
                assert eval_tree(f.root, assignment) == eval_clauses(cnf.clauses, assignment)


class TestNodeInvariants:
    def test_implies_binary(self):
        with pytest.raises(ValueError):
            from kdalign.logic import FNode

            FNode("implies", (leaf(1),))

    def test_and_or_arity(self):
        from kdalign.logic import FNode

        with pytest.raises(ValueError):
            FNode("and", (leaf(1),))
        with pytest.raises(ValueError):
            FNode("or", (leaf(1),))

    def test_leaf_resolves_in_table(self):
        with pytest.raises(ValueError, match="missing from table"):
            PropFormula(leaf(5), table_with(1))
