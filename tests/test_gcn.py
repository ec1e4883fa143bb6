import tracemalloc

import numpy as np
import pytest

from kdalign import gcn
from kdalign.autodiff import ParamSet, Tape, bind_params
from kdalign.experiment import compile_rules
from kdalign.gcn import (
    NODE_TYPES,
    assignment_graph,
    clause_graph,
    clause_model,
    embed_formulae,
    formula_embedding_tape,
    gcn_forward_tape,
    init_know_encoder,
    layer_dims,
    param_name,
    pretrain_encoder,
    VAR_CAPACITY,
)
from kdalign.gcn import FormulaGraph, TYPE_INDEX
from kdalign.config import KnowEncoderConfig
from kdalign.errors import DataError
from kdalign.rules import parse_rule
from oracles import all_assignments, assignment_ddnnf, compile_ddnnf, ddnnf_to_graph, gcn_forward


def forward(fg, spec, params):
    """Node embeddings of one graph from a forward-only tape."""
    t = Tape()
    return t.value(gcn_forward_tape(t, fg, spec, bind_params(t, params)))


def homogeneous_params(spec, var_capacity, embed, rng):
    params = init_know_encoder(spec, var_capacity, embed, rng)
    for l in range(spec.layers):
        shared = params.values[param_name(l, "and")]
        for t in NODE_TYPES:
            params.values[param_name(l, t)][...] = shared
    return params


class TestGraphConversion:
    def test_single_leaf(self):
        fg = clause_graph((1,), 4)
        assert fg.node_types.shape[0] == 2
        np.testing.assert_array_equal(fg.adj, [[1.0, 1.0], [1.0, 1.0]])
        assert fg.node_types[fg.global_index] == TYPE_INDEX["global"]
        # signed literal one-hot on the leaf row
        assert fg.features[0, 4] == 1.0

    def test_negative_literal_sign(self):
        fg = assignment_graph((-2,), 4)
        assert fg.features[0, 4 + 1] == -1.0

    def test_global_connected_to_all(self):
        fg = clause_graph((-1, -2, 3), 4)
        gi = fg.global_index
        assert (fg.adj[gi] == 1.0).all()
        assert (fg.adj[:, gi] == 1.0).all()
        # the chain's 4k - 1 nodes less its two sinks, plus the global node
        assert fg.adj.shape[0] == 4 * 3 - 2

    def test_adjacency_symmetric_with_self_loops(self):
        for fg in (clause_graph((1, -2, 3), 8), assignment_graph((1, -2, 3), 8)):
            np.testing.assert_array_equal(fg.adj, fg.adj.T)
            np.testing.assert_array_equal(np.diag(fg.adj), np.ones(fg.adj.shape[0]))
            assert (fg.adj.sum(axis=1) >= 1).all()


def assert_same_graph(got, want):
    """Every field of two FormulaGraphs, derived ones included, equal."""
    for name in ("node_types", "features", "adj", "norm"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.children == want.children
    assert got.global_index == want.global_index
    assert len(got.masks) == len(want.masks)
    assert all(np.array_equal(a, b) for a, b in zip(got.masks, want.masks))
    assert [m is None for m in got.child_means] == [m is None for m in want.child_means]
    assert all(np.array_equal(a, b) for a, b in zip(got.child_means, want.child_means) if a is not None)


class TestBuildersMatchTheDdnnfPath:
    """``clause_graph`` and ``assignment_graph`` against the reference path:
    the d-DNNF chain or conjunction, converted by ``ddnnf_to_graph``."""

    def check_clause(self, clause, width, rng):
        assert_same_graph(clause_graph(clause, width), ddnnf_to_graph(compile_ddnnf(clause), width))
        ordered = tuple(sorted(clause, key=abs))
        n_models = 2 ** len(ordered) - 1
        picks = range(n_models) if n_models <= 8 else rng.integers(n_models, size=4)
        models = [clause_model(ordered, int(j)) for j in picks]
        for model in [*models, tuple(-lit for lit in ordered)]:
            assert_same_graph(assignment_graph(model, width), ddnnf_to_graph(assignment_ddnnf(model), width))

    def test_random_clauses_and_their_models(self):
        rng = np.random.default_rng(22)
        widths = rng.integers(1, 17, size=1200)
        assert (widths == 1).sum() > 50 and (widths == 16).sum() > 50
        for k in widths:
            variables = rng.choice(np.arange(1, 31), size=k, replace=False)
            clause = tuple(int(v) if rng.random() < 0.5 else -int(v) for v in variables)
            self.check_clause(clause, 30 + int(rng.integers(3)), rng)

    def test_the_three_pinned_rules(self):
        # the rules of test_logic's test_three_rule_graphs_are_pinned
        rules = [
            parse_rule("IF f1 > 0.5 AND f2 <= 1 THEN anomaly IS true"),
            parse_rule("IF f2 <= 1 AND f3 != 2 AND f1 > 0.5 THEN anomaly IS true"),
            parse_rule("IF f4 = 0 AND f4 = 0 THEN anomaly IS false"),
        ]
        for clause in compile_rules(rules)[1]:
            self.check_clause(clause, VAR_CAPACITY, np.random.default_rng(0))


class TestForward:
    def test_layer_dims(self):
        spec = KnowEncoderConfig(layers=3, hidden=6)
        assert layer_dims(spec, 8, 5) == [(12, 6), (6, 6), (6, 5)]
        assert layer_dims(KnowEncoderConfig(layers=1), 1, 2) == [(5, 2)]

    def test_layer_widths_come_from_the_weights(self):
        # each layer is as wide out as its weights; the config gives no width
        rng = np.random.default_rng(4)
        fg = clause_graph((-1, -2, 3), 5)
        spec = KnowEncoderConfig(layers=2)
        for embed in (3, 7):
            params = init_know_encoder(spec, 5, embed, rng)
            assert forward(fg, spec, params).shape == (fg.adj.shape[0], embed)
            assert embed_formulae([fg], spec, params).shape == (1, embed)

    def test_single_node_identity(self):
        # one leaf plus global: check the 1-layer identity configuration on a
        # hand-built single-node graph (self-loop only => norm == 1); the
        # features are padded with zeros to the 4 + var_capacity input width
        fg = FormulaGraph(
            node_types=np.array([TYPE_INDEX["leaf"]]),
            features=np.array([[1.0, 2.0, 0.0, 0.0, 0.0]]),
            adj=np.array([[1.0]]),
            children=[()],
            global_index=0,
        )
        spec = KnowEncoderConfig(layers=1)
        params = ParamSet({param_name(0, t): np.eye(5, 2) for t in NODE_TYPES})
        out = forward(fg, spec, params)
        np.testing.assert_allclose(out, [[1.0, 2.0]], atol=1e-15)

    def test_two_node_average(self):
        # fully connected pair with self-loops: each degree 2, output rows are
        # the average of the two input rows
        fg = FormulaGraph(
            node_types=np.array([TYPE_INDEX["leaf"], TYPE_INDEX["global"]]),
            features=np.array([[2.0, 0.0, 0.0, 0.0, 0.0], [0.0, 4.0, 0.0, 0.0, 0.0]]),
            adj=np.ones((2, 2)),
            children=[(), ()],
            global_index=1,
        )
        params = ParamSet({param_name(0, t): np.eye(5, 2) for t in NODE_TYPES})
        out = forward(fg, KnowEncoderConfig(layers=1), params)
        np.testing.assert_allclose(out, [[1.0, 2.0], [1.0, 2.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_closed_form_propagation(self, seed):
        # homogeneous weights: L-layer forward must equal the dense
        # norm-adjacency evaluation to 1e-12 on random graphs <= 12 nodes
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        adj = (rng.random((n, n)) < 0.4).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 1.0)
        types = rng.integers(0, 4, size=n)
        spec = KnowEncoderConfig(layers=2, hidden=5)
        feats = rng.normal(size=(n, 4 + 2))
        fg = FormulaGraph(types, feats, adj, [() for _ in range(n)], global_index=n - 1)
        params = homogeneous_params(spec, 2, 3, rng)

        out = forward(fg, spec, params)

        deg = adj.sum(axis=1)
        norm = np.diag(deg**-0.5) @ adj @ np.diag(deg**-0.5)
        z = feats
        for l in range(2):
            z = norm @ (z @ params.values[param_name(l, "and")])
            if l == 0:
                z = np.maximum(z, 0.0)
        np.testing.assert_allclose(out, z, atol=1e-12)

    def test_tape_matches_numpy_forward(self):
        rng = np.random.default_rng(3)
        spec = KnowEncoderConfig(layers=2, hidden=6)
        fg = clause_graph((-1, -2, 3), 8)
        params = init_know_encoder(spec, 8, 4, rng)
        t = Tape()
        ids = bind_params(t, params)
        z_id = gcn_forward_tape(t, fg, spec, ids)
        np.testing.assert_array_equal(t.value(z_id), gcn_forward(fg, spec, params))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        spec = KnowEncoderConfig(layers=2, hidden=6)
        fg = clause_graph((1, -2, 3), 8)
        params = init_know_encoder(spec, 8, 4, rng)
        base = embed_formulae([fg], spec, params)

        n = fg.adj.shape[0]
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        fg2 = FormulaGraph(
            node_types=fg.node_types[perm],
            features=fg.features[perm],
            adj=fg.adj[np.ix_(perm, perm)],
            children=[tuple(int(inv[c]) for c in fg.children[p]) for p in perm],
            global_index=int(inv[fg.global_index]),
        )
        permuted = embed_formulae([fg2], spec, params)
        np.testing.assert_allclose(permuted, base, atol=1e-10)

    def test_identical_formulae_identical_embeddings(self):
        rng = np.random.default_rng(6)
        spec = KnowEncoderConfig(layers=2, hidden=6)
        params = init_know_encoder(spec, 8, 4, rng)
        g1 = clause_graph((1, 2), 8)
        g2 = clause_graph((1, 2), 8)
        e = embed_formulae([g1, g2], spec, params)
        np.testing.assert_array_equal(e[0], e[1])

    def test_repeated_graphs_embed_like_each_graph_alone(self):
        rng = np.random.default_rng(8)
        spec = KnowEncoderConfig(layers=2, hidden=6)
        params = init_know_encoder(spec, 8, 4, rng)
        graphs = [clause_graph((1, 2), 8), assignment_graph((1, -2, 3), 8), clause_graph((-3,), 8)]
        listed = [graphs[i] for i in (0, 1, 0, 2, 2, 1, 0)]
        got = embed_formulae(listed, spec, params)
        for row, fg in zip(got, listed):
            assert row.tobytes() == embed_formulae([fg], spec, params)[0].tobytes()


    def test_embed_formulae_equals_a_tape_forward(self):
        """The Forward pass gives the bytes of a Tape forward of each graph,
        a graph object listed twice included."""
        rng = np.random.default_rng(9)
        spec = KnowEncoderConfig(layers=3, hidden=6)
        params = init_know_encoder(spec, 8, 4, rng)
        graphs = [clause_graph((1, -2, 3), 8), assignment_graph((1, 2), 8), clause_graph((-3,), 8)]
        assignment = assignment_graph((1, -2, 3), 8)
        listed = [graphs[0], assignment, graphs[1], graphs[0], graphs[2], assignment]
        t = Tape()
        ids = bind_params(t, params)
        rows = [t.value(formula_embedding_tape(t, gcn_forward_tape(t, fg, spec, ids), fg))
                for fg in listed]
        assert embed_formulae(listed, spec, params).tobytes() == np.vstack(rows).tobytes()


def toy_corpus():
    return [(1,), (-1,), (1, 2), (-1, 2), (2,), (-1, -2, 3), (1, -3), (1, -3, 2), (-2, 3), (1, 2, 3)]


class TestPretrain:
    def test_zero_steps_returns_initialization(self):
        clauses = toy_corpus()
        cfg = KnowEncoderConfig(steps=0, seed=1, hidden=8)
        result = pretrain_encoder(clauses, cfg, 8)
        assert result.config == cfg
        fresh = init_know_encoder(cfg, VAR_CAPACITY, 8, np.random.default_rng(1))
        for name in fresh.values:
            np.testing.assert_array_equal(result.params.values[name], fresh.values[name])

    def test_input_encodes_every_proposition(self):
        # 4 + max(VAR_CAPACITY, largest proposition id) wide in, ``embed`` wide out
        cfg = KnowEncoderConfig(steps=0, layers=1)
        for clauses, fan_in in [(toy_corpus(), 4 + VAR_CAPACITY), ([(1, -30), (2,)], 34)]:
            weights = pretrain_encoder(clauses, cfg, 5).params.values[param_name(0, "leaf")]
            assert weights.shape == (fan_in, 5)

    def test_needs_two_formulae(self):
        with pytest.raises(DataError, match="at least 2 formulae, got 1"):
            pretrain_encoder(toy_corpus()[:1], KnowEncoderConfig(steps=0), 16)

    def test_enumeration_bound_names_the_formula(self):
        wide = (*(-v for v in range(1, 17)), 17)
        with pytest.raises(DataError, match="formula 1 has 17 variables; enumeration bound is 16"):
            pretrain_encoder([toy_corpus()[0], wide], KnowEncoderConfig(steps=0), 16)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_indexed_models_are_the_enumeration_without_the_counter_model(self, k):
        rng = np.random.default_rng(k)
        for _ in range(3):
            variables = sorted(int(v) for v in rng.choice(30, size=k, replace=False) + 1)
            clause = tuple(int(v) if rng.random() < 0.5 else -int(v) for v in variables)
            counter = {abs(lit): lit < 0 for lit in clause}
            expected = [
                tuple(v if a[v] else -v for v in variables)
                for a in all_assignments(variables)
                if a != counter
            ]
            assert [clause_model(clause, j) for j in range(2**k - 1)] == expected

    @pytest.mark.parametrize("seed, best_step", [(1, 0), (2, 40), (0, 60)])
    def test_e_f_is_the_corpus_embedded_under_the_returned_parameters(self, seed, best_step):
        clauses = toy_corpus()
        cfg = KnowEncoderConfig(steps=60, seed=seed, hidden=12, eval_every=20)
        result = pretrain_encoder(clauses, cfg, 6)
        # the first pass to read the best accuracy set it: step 0, a middle
        # pass that the last one ties, or the last pass
        assert next(s for s, acc in result.val_history if acc == result.best_val_accuracy) == best_step
        graphs = [clause_graph(c, VAR_CAPACITY) for c in clauses]
        expected = embed_formulae(graphs, cfg, result.params)
        assert result.e_f.flags.c_contiguous
        assert result.e_f.tobytes() == expected.tobytes()

    def test_wide_clauses_are_not_enumerated(self):
        # a 16-variable clause has 65,535 models; drawing one by index builds no other
        wide = [tuple(-v for v in range(1, 16)) + (16,), tuple(range(1, 17))]
        tracemalloc.start()
        try:
            pretrain_encoder(wide, KnowEncoderConfig(steps=0), 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_loss_decreases_on_toy_corpus(self):
        clauses = toy_corpus()
        cfg = KnowEncoderConfig(steps=50, seed=3, hidden=8)
        result = pretrain_encoder(clauses, cfg, 8)
        smooth = np.convolve(result.loss_history, np.ones(5) / 5, mode="valid")
        assert smooth[-1] < smooth[0]
        # monotone after smoothing: allow tiny numeric wiggle
        assert all(b <= a + 0.05 * abs(a) + 1e-9 for a, b in zip(smooth, smooth[1:]))

    def test_separates_p_from_not_p(self):
        clauses = [(1,), (-1,)]
        cfg = KnowEncoderConfig(steps=120, seed=2, margin=1.0, hidden=8)
        result = pretrain_encoder(clauses, cfg, 8)
        fg_p = clause_graph(clauses[0], VAR_CAPACITY)
        fg_sat = assignment_graph((1,), VAR_CAPACITY)
        fg_unsat = assignment_graph((-1,), VAR_CAPACITY)
        e_p, e_s, e_u = embed_formulae([fg_p, fg_sat, fg_unsat], cfg, result.params)
        assert ((e_p - e_s) ** 2).sum() < ((e_p - e_u) ** 2).sum()

    def test_heldout_accuracy_on_toy_corpus(self, monkeypatch):
        # the 8-wide input this check was tuned at; at the 28-wide default
        # input, seed 0 reaches 0.85 in 250 steps
        monkeypatch.setattr(gcn, "VAR_CAPACITY", 4)
        clauses = toy_corpus()
        cfg = KnowEncoderConfig(steps=250, seed=0, hidden=12)
        result = pretrain_encoder(clauses, cfg, 12)
        assert result.best_val_accuracy >= 0.9
