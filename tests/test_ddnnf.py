import numpy as np
import pytest

from oracles import (
    K_FALSE,
    K_LEAF,
    K_OR,
    all_assignments,
    check_decomposability,
    check_determinism,
    compile_cnf,
    compile_ddnnf,
    count_models,
    eval_clauses,
    eval_ddnnf,
    model_count,
)


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


def random_clause(rng, max_width=15, n_vars=30):
    """A clause of 1 to ``max_width`` literals over distinct variables, in
    random order and with random signs."""
    width = int(rng.integers(1, max_width + 1))
    vs = rng.choice(np.arange(1, n_vars + 1), size=width, replace=False)
    return tuple(int(v) if rng.random() < 0.5 else -int(v) for v in vs)


def as_tuple(g):
    return g.kinds, g.literals, g.children, g.root


class TestChain:
    def test_matches_the_general_compiler_on_random_clauses(self):
        rng = np.random.default_rng(2024)
        clauses = [random_clause(rng) for _ in range(1200)]
        assert sum(len(c) == 1 for c in clauses) > 50  # unit clauses included
        for clause in clauses:
            assert as_tuple(compile_ddnnf(clause)) == as_tuple(compile_cnf([clause])), clause

    def test_size_is_linear_without_a_variable_bound(self):
        clause = tuple(-v for v in range(1, 60)) + (60,)
        g = compile_ddnnf(clause)
        assert g.n_nodes() == 4 * 60 - 1
        assert g.kinds[g.root] == K_OR
        assert all(c < i for i, kids in enumerate(g.children) for c in kids)


class TestCompile:
    """The oracle compiler against brute force, so it can serve as the
    chain's reference."""

    def test_unit_clause(self):
        g = compile_cnf([[1]])
        assert g.kinds[g.root] == K_LEAF
        assert g.literals[g.root] == 1

    def test_implication_clause_counts_seven(self):
        g = compile_cnf([[-1, -2, 3]])
        assert model_count(g, 3) == 7
        assert count_models([(-1, -2, 3)], [1, 2, 3]) == 7

    def test_contradiction_compiles_to_false(self):
        g = compile_cnf([[1], [-1]])
        assert g.kinds[g.root] == K_FALSE
        assert model_count(g, 1) == 0

    def test_empty_cnf_is_true(self):
        g = compile_cnf([])
        assert model_count(g, 3) == 8

    def test_leaf_count_with_extra_vars(self):
        g = compile_cnf([[2]])
        assert model_count(g, 1) == 1
        assert model_count(g, 2) == 2


class TestRandomized:
    @pytest.mark.parametrize("seed", range(200))
    def test_model_count_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        clauses, n_vars = random_cnf(rng)
        g = compile_cnf(clauses)
        expected = count_models(clauses, range(1, n_vars + 1))
        assert model_count(g, n_vars) == expected

    @pytest.mark.parametrize("seed", range(0, 200, 7))
    def test_structural_checks_and_equivalence(self, seed):
        rng = np.random.default_rng(seed + 1000)
        clauses, n_vars = random_cnf(rng)
        g = compile_cnf(clauses)
        check_decomposability(g)
        check_determinism(g)
        for assignment in all_assignments(range(1, n_vars + 1)):
            assert eval_ddnnf(g, assignment) == eval_clauses(clauses, assignment)
