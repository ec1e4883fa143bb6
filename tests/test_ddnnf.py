import numpy as np
import pytest

from kdalign.ddnnf import (
    K_FALSE,
    K_LEAF,
    check_decomposability,
    compile_ddnnf,
    eval_ddnnf,
    model_count,
)
from oracles import all_assignments, check_determinism, count_models, eval_clauses


def random_cnf(rng, max_vars=8, max_clauses=12):
    n_vars = int(rng.integers(1, max_vars + 1))
    n_clauses = int(rng.integers(1, max_clauses + 1))
    clauses = []
    for _ in range(n_clauses):
        width = int(rng.integers(1, min(3, n_vars) + 1))
        vs = rng.choice(np.arange(1, n_vars + 1), size=width, replace=False)
        clause = tuple(int(v) if rng.random() < 0.5 else -int(v) for v in vs)
        clauses.append(clause)
    return clauses, n_vars


class TestCompile:
    def test_unit_clause(self):
        g = compile_ddnnf([[1]])
        assert g.kinds[g.root] == K_LEAF
        assert g.literals[g.root] == 1

    def test_implication_clause_counts_seven(self):
        g = compile_ddnnf([[-1, -2, 3]])
        assert model_count(g, 3) == 7
        assert count_models([(-1, -2, 3)], [1, 2, 3]) == 7

    def test_contradiction_compiles_to_false(self):
        g = compile_ddnnf([[1], [-1]])
        assert g.kinds[g.root] == K_FALSE
        assert model_count(g, 1) == 0

    def test_empty_cnf_is_true(self):
        g = compile_ddnnf([])
        assert model_count(g, 3) == 8

    def test_variable_bound(self):
        clauses = [[i] for i in range(1, 22)]
        with pytest.raises(ValueError, match="compile bound"):
            compile_ddnnf(clauses)

    def test_leaf_count_with_extra_vars(self):
        g = compile_ddnnf([[2]])
        assert model_count(g, 1) == 1
        assert model_count(g, 2) == 2


class TestRandomized:
    @pytest.mark.parametrize("seed", range(200))
    def test_model_count_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        clauses, n_vars = random_cnf(rng)
        g = compile_ddnnf(clauses)
        expected = count_models(clauses, range(1, n_vars + 1))
        assert model_count(g, n_vars) == expected

    @pytest.mark.parametrize("seed", range(0, 200, 7))
    def test_structural_checks_and_equivalence(self, seed):
        rng = np.random.default_rng(seed + 1000)
        clauses, n_vars = random_cnf(rng)
        g = compile_ddnnf(clauses)
        check_decomposability(g)
        check_determinism(g)
        for assignment in all_assignments(range(1, n_vars + 1)):
            assert eval_ddnnf(g, assignment) == eval_clauses(clauses, assignment)
