import numpy as np
import pytest

from kdalign.experiment import compile_rules
from kdalign.rules import PREDICATES, Condition, Rule, format_threshold, parse_rule
from oracles import (
    PropositionTable,
    all_assignments,
    check_decomposability,
    check_determinism,
    compile_ddnnf,
    eval_clauses,
    eval_ddnnf,
    model_count,
    rule_to_clause,
)


def triples(table):
    return [(pid, *triple) for triple, pid in table.items()]


class TestCompileRules:
    def test_worked_example(self):
        rule = parse_rule("IF attr_1 > 5 AND attr_2 = 0 THEN anomaly IS true")
        table, clauses = compile_rules([rule])
        assert clauses == [(-1, -2, 3)]
        assert triples(table) == [
            (1, "attr_1", ">", "5"),
            (2, "attr_2", "=", "0"),
            (3, "anomaly", "is", "True"),
        ]

    def test_single_condition(self):
        table, clauses = compile_rules([parse_rule("IF x >= 0 THEN anomaly IS true")])
        assert clauses == [(-1, 2)]
        assert len(table) == 2

    def test_shared_condition_reuses_proposition_id(self):
        table, (c1, c2) = compile_rules([
            parse_rule("IF attr_1 > 5 THEN anomaly IS true"),
            parse_rule("IF attr_1 > 5 AND attr_2 < 1 THEN anomaly IS true"),
        ])
        # the condition and the consequent (anomaly, is, True) keep their ids
        assert c1 == (-1, 2)
        assert c2 == (-1, 2, -3)
        assert len(table) == 3

    def test_repeated_condition_gives_one_literal(self):
        rule = parse_rule("IF a > 1 AND b = 0 AND a > 1 THEN anomaly IS true")
        table, clauses = compile_rules([rule])
        assert clauses == [(-1, -2, 3)]
        assert len(table) == 3

    def test_anomaly_is_false(self):
        table, (_, clause) = compile_rules([
            parse_rule("IF a > 1 THEN anomaly IS true"),
            parse_rule("IF a > 1 AND b <= 2 THEN anomaly IS false"),
        ])
        assert clause == (-1, -3, 4)
        assert triples(table)[1:] == [
            (2, "anomaly", "is", "True"),
            (3, "b", "<=", "2"),
            (4, "anomaly", "is", "False"),
        ]


def random_rules(rng, n):
    """``n`` satisfiable rules over six attributes: every predicate, repeated
    conditions, both verdicts."""
    rules = []
    while len(rules) < n:
        conds = []
        for _ in range(int(rng.integers(1, 6))):
            if conds and rng.random() < 0.25:
                conds.append(conds[int(rng.integers(len(conds)))])
            else:
                threshold = float(rng.integers(-3, 4)) / 2
                conds.append(Condition(f"a{rng.integers(6)}", str(rng.choice(PREDICATES)), threshold))
        try:
            rules.append(Rule(f"r{len(rules)}", conds, bool(rng.random() < 0.7)))
        except ValueError:
            continue  # contradictory antecedent
    return rules


@pytest.mark.parametrize("seed", range(10))
def test_clause_holds_unless_the_antecedent_holds_without_the_consequent(seed):
    rng = np.random.default_rng(seed)
    rules = random_rules(rng, 20)
    table, clauses = compile_rules(rules)
    for rule, clause in zip(rules, clauses):
        conds = {table[(c.attribute, c.predicate, format_threshold(c.threshold))]
                 for c in rule.conditions}
        consequent = table[("anomaly", "is", str(rule.consequent))]
        assert sorted({abs(lit) for lit in clause}) == sorted(conds | {consequent})
        for assignment in all_assignments(conds | {consequent}):
            expected = not all(assignment[p] for p in conds) or assignment[consequent]
            assert eval_clauses([clause], assignment) == expected


def test_compile_rules_matches_the_interning_oracle():
    """Same clauses and the same (id, triple) list, in id order, as the
    interning table the package once compiled rules with."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        rules = random_rules(rng, int(rng.integers(1, 31)))
        oracle = PropositionTable()
        expected = [rule_to_clause(rule, oracle) for rule in rules]
        table, clauses = compile_rules(rules)
        assert clauses == expected
        assert triples(table) == [(p.pid, p.subject, p.predicate, p.obj)
                                  for p in oracle.propositions()]


@pytest.mark.parametrize("seed", range(40))
def test_compiled_rule_is_a_d_dnnf_of_its_implication(seed):
    """Each rule compiles to a decomposable, deterministic graph that holds
    exactly when the rule's implication does: one counter-model over the
    rule's propositions, the case pretraining relies on."""
    rng = np.random.default_rng(seed + 100)
    rules = random_rules(rng, 3)
    table, clauses = compile_rules(rules)
    graphs = [compile_ddnnf(c) for c in clauses]
    n_props = len(table)
    for rule, g in zip(rules, graphs):
        check_decomposability(g)
        check_determinism(g)
        conds = {table[(c.attribute, c.predicate, format_threshold(c.threshold))]
                 for c in rule.conditions}
        consequent = table[("anomaly", "is", str(rule.consequent))]
        variables = conds | {consequent}
        counter_models = 0
        for assignment in all_assignments(variables):
            expected = not all(assignment[p] for p in conds) or assignment[consequent]
            assert eval_ddnnf(g, assignment) == expected
            counter_models += not expected
        assert counter_models == 1
        assert model_count(g, n_props) == 2**n_props - 2 ** (n_props - len(variables))
    assert len(table) == n_props


def test_three_rule_graphs_are_pinned():
    """d-DNNF graphs (kinds, literals, children, root) recorded from the
    general formula-to-CNF path that ``rule_to_clause`` replaced."""
    rules = [
        parse_rule("IF f1 > 0.5 AND f2 <= 1 THEN anomaly IS true"),
        parse_rule("IF f2 <= 1 AND f3 != 2 AND f1 > 0.5 THEN anomaly IS true"),
        parse_rule("IF f4 = 0 AND f4 = 0 THEN anomaly IS false"),
    ]
    graphs = [compile_ddnnf(c) for c in compile_rules(rules)[1]]
    T, F, L, A, O = "true", "false", "leaf", "and", "or"
    assert [(g.kinds, g.literals, g.children, g.root) for g in graphs] == [
        (
            [T, F, L, L, A, L, O, L, A, L, O],
            [0, 0, 3, 2, 0, -2, 0, 1, 0, -1, 0],
            [(), (), (), (), (3, 2), (), (4, 5), (), (7, 6), (), (8, 9)],
            10,
        ),
        (
            [T, F, L, L, L, A, O, L, A, L, O, L, A, L, O],
            [0, 0, 3, -4, -3, 0, 0, 2, 0, -2, 0, 1, 0, -1, 0],
            [(), (), (), (), (), (4, 3), (2, 5), (), (7, 6), (), (8, 9), (), (11, 10), (),
             (12, 13)],
            14,
        ),
        (
            [T, F, L, L, A, L, O],
            [0, 0, 6, 5, 0, -5, 0],
            [(), (), (), (), (3, 2), (), (4, 5)],
            6,
        ),
    ]
