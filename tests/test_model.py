import math

import numpy as np
import pytest

from kgcn.errors import ConfigError
from kgcn.graph import (
    Triple,
    batched_layers,
    build_adjacency,
    distinct_layers,
    sample_neighborhood,
)
from kgcn.model import (
    AGGREGATORS,
    KgcnScorer,
    MfScorer,
    ModelConfig,
    aggregate,
    backward_layers,
    forward_layers,
)
from kgcn.numerics import ParameterStore, finite_difference_gradient, init_params, softmax
from kgcn.trainer import batch_loss

from conftest import random_graph, tiny_instance
from oracle import straight_line_predict


def _param_store(user, entity, relation, hop_weights, hop_biases):
    """A ParameterStore holding copies of hand-set tables."""
    tables = [np.asarray(t, dtype=np.float64)
              for t in (user, entity, relation, hop_weights, hop_biases)]
    shapes = dict(zip(("user", "entity", "relation", "hop_weights", "hop_biases"),
                      (t.shape for t in tables)))
    return ParameterStore(np.concatenate([t.ravel() for t in tables]), shapes)


def _mix(neighbor_reps, relation_vecs, u_vec, uniform_weights=False):
    """forward_layers on one item whose K neighbors have the representations
    neighbor_reps and link to it by the relation vectors relation_vecs.
    Returns that item's mixing weights (K,) and mixed vector (d,)."""
    reps = np.asarray(neighbor_reps, dtype=np.float64)
    K, d = reps.shape
    params = _param_store(
        user=np.asarray(u_vec, dtype=np.float64).reshape(1, d),
        entity=np.vstack([np.zeros(d), reps]),
        relation=np.asarray(relation_vecs, dtype=np.float64),
        hop_weights=[np.eye(d)],
        hop_biases=[np.zeros(d)],
    )
    config = ModelConfig(d=d, H=1, K=K, uniform_weights=uniform_weights)
    ent_layers = [np.array([[0]]), np.arange(1, K + 1).reshape(1, K)]
    rel_layers = [np.empty((1, 0), dtype=np.int64), np.arange(K).reshape(1, K)]
    _, state = forward_layers(np.array([0]), params.user, ent_layers, rel_layers,
                              params, config)
    return state.weights[0][0, 0], state.mixed[(0, 0)][0, 0]


class TestUserRelationScore:
    """The mixing weights are the softmax of the user-relation scores <u, r>,
    so log-weight differences are score differences."""

    def test_orthogonal(self):
        # <u, r> = 0 for r orthogonal to u, the same as for the zero relation
        w, _ = _mix(np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0]))
        assert w.tolist() == [0.5, 0.5]

    def test_unit_self_score(self):
        u = np.array([0.6, 0.8])
        w, _ = _mix(np.zeros((2, 2)), np.stack([u, np.zeros(2)]), u)
        assert abs(math.log(w[0]) - math.log(w[1]) - 1.0) <= 1e-15

    def test_scaling_preserves_argmax(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=4)
        rels = rng.normal(size=(5, 4))
        base, _ = _mix(np.zeros((5, 4)), rels, u)
        scaled, _ = _mix(np.zeros((5, 4)), rels, 3.0 * u)
        base_scores = np.log(base) - np.log(base[0])
        scaled_scores = np.log(scaled) - np.log(scaled[0])
        assert np.allclose(scaled_scores, 3.0 * base_scores, atol=1e-12)
        assert np.argmax(scaled) == np.argmax(base)


class TestNeighborhoodMix:
    def test_identical_relations_give_mean(self):
        rng = np.random.default_rng(1)
        reps = rng.normal(size=(4, 3))
        rels = np.tile(rng.normal(size=3), (4, 1))
        u = rng.normal(size=3)
        _, got = _mix(reps, rels, u)
        assert np.allclose(got, reps.mean(axis=0), atol=1e-14)

    def test_single_neighbor_passthrough(self):
        reps = np.array([[2.0, -1.0]])
        rels = np.array([[100.0, 100.0]])
        _, got = _mix(reps, rels, np.array([1.0, 1.0]))
        assert np.allclose(got, reps[0], atol=1e-15)

    def test_dominant_score_saturates(self):
        # one user-relation score exceeds the rest by > 50: the softmax puts
        # ~1 - 2e-22 on it, so the mix collapses onto that neighbor
        u = np.array([10.0, 0.0])
        rels = np.array([[6.0, 0.0], [0.0, 0.0], [0.1, 0.0]])
        reps = np.array([[1.0, 2.0], [-5.0, 3.0], [4.0, -4.0]])
        scores = [np.dot(u, r) for r in rels]
        assert scores[0] - max(scores[1:]) > 50
        # independent expected value
        es = [math.exp(s - max(scores)) for s in scores]
        ws = [e / sum(es) for e in es]
        expected = sum(w * reps[i] for i, w in enumerate(ws))
        _, got = _mix(reps, rels, u)
        assert np.allclose(got, expected, atol=1e-16)
        assert np.max(np.abs(got - reps[0])) <= 1e-15

    def test_uniform_weights_ignore_scores(self):
        rng = np.random.default_rng(2)
        reps = rng.normal(size=(5, 2))
        rels = rng.normal(size=(5, 2)) * 100
        _, got = _mix(reps, rels, rng.normal(size=2), uniform_weights=True)
        assert np.allclose(got, reps.mean(axis=0), atol=1e-15)

    def test_convex_hull(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            reps = rng.normal(size=(6, 4))
            rels = rng.normal(size=(6, 4))
            _, got = _mix(reps, rels, rng.normal(size=4))
            assert np.all(got <= reps.max(axis=0) + 1e-12)
            assert np.all(got >= reps.min(axis=0) - 1e-12)


class TestAggregate:
    def test_sum_identity(self):
        s, m = np.array([1.0, 2.0]), np.array([0.5, -0.5])
        # s + m > 0, so the ReLU passes it through unchanged
        got = aggregate(s, m, np.eye(2), np.zeros(2), "relu", "sum")
        assert np.allclose(got, s + m, atol=1e-15)

    def test_neighbor_ignores_self(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=3)
        W, b = rng.normal(size=(3, 3)), rng.normal(size=3)
        a = aggregate(rng.normal(size=3), m, W, b, "tanh", "neighbor")
        b_out = aggregate(rng.normal(size=3) * 100, m, W, b, "tanh", "neighbor")
        assert np.array_equal(a, b_out)

    def test_concat_shape(self):
        d = 3
        got = aggregate(np.ones(d), np.ones(d), np.zeros((d, 2 * d)), np.zeros(d),
                        "relu", "concat")
        assert got.shape == (d,)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            aggregate(np.ones(3), np.ones(3), np.zeros((3, 6)), np.zeros(3),
                      "relu", "sum")


def _fixture_three_entities(aggregator):
    """3 entities, 2 relations, d=2, K=2, H=1, hand-set parameters."""
    triples = [Triple(0, 0, 1), Triple(1, 1, 2)]
    adj = build_adjacency(triples, 3)
    sample = sample_neighborhood(adj, K=2, seed=0, num_relations=2)
    d = 2
    in_dim = 4 if aggregator == "concat" else 2
    W = np.array([[0.5, -0.1, 0.2, 0.3], [-0.2, 0.4, 0.1, -0.5]])[:, :in_dim]
    params = _param_store(
        user=np.array([[0.3, -0.2]]),
        entity=np.array([[0.1, 0.4], [-0.3, 0.2], [0.5, -0.1]]),
        relation=np.array([[0.2, 0.1], [-0.4, 0.3], [0.0, 0.0]]),
        hop_weights=[W.copy()],
        hop_biases=[np.array([0.05, -0.05])],
    )
    config = ModelConfig(d=d, H=1, K=2, aggregator=aggregator)
    return params, sample, config


def _oracle_probability(u, v, sample, params, config):
    """tests/oracle.py's probability for (u, v) over v's row of batched_layers."""
    ent_layers, rel_layers = batched_layers(sample, [v], config.H)
    return straight_line_predict(
        params.user[u].tolist(),
        [l[0].tolist() for l in ent_layers],
        [l[0].tolist() for l in rel_layers],
        params.entity.tolist(),
        params.relation.tolist(),
        [w.tolist() for w in params.hop_weights],
        [b.tolist() for b in params.hop_biases],
        config.aggregator,
        config.uniform_weights,
    )


def _forward_one(params, sample, config, u, v):
    """forward_batch's probability for the single record (u, v)."""
    probs, _ = KgcnScorer(params, sample, config).forward_batch([u], [v])
    return probs[0]


class TestForward:
    @pytest.mark.parametrize("aggregator", ["sum", "concat", "neighbor"])
    def test_three_entity_fixture_matches_oracle(self, aggregator):
        params, sample, config = _fixture_three_entities(aggregator)
        for v in range(3):
            prob = _forward_one(params, sample, config, 0, v)
            expected = _oracle_probability(0, v, sample, params, config)
            assert abs(prob - expected) <= 1e-12

    def test_random_instances_match_oracle(self):
        for trial in range(12):
            agg = ["sum", "concat", "neighbor"][trial % 3]
            params, sample, config, M, E, R = tiny_instance(
                seed=100 + trial, aggregator=agg, uniform=bool(trial % 2))
            u, v = trial % M, trial % E
            prob = _forward_one(params, sample, config, u, v)
            assert abs(prob - _oracle_probability(u, v, sample, params, config)) <= 1e-12

    def test_probability_in_open_interval_bulk(self):
        # 10^3 random parameter draws
        params0, sample, config, M, E, R = tiny_instance(seed=55, d=3, K=2, H=1)
        for i in range(1000):
            params = init_params(M, E, R, config.d, config.H, config.aggregator, seed=i)
            prob = _forward_one(params, sample, config, 0, 0)
            assert 0.0 < prob < 1.0

    def test_uniform_equals_softmax_when_relations_equal(self):
        params, sample, config, M, E, R = tiny_instance(seed=77, d=3, K=2, H=2)
        params.relation[:] = params.relation[0]
        p_soft = _forward_one(params, sample, config, 0, 1)
        cfg_avg = ModelConfig(d=config.d, H=config.H, K=config.K,
                              aggregator=config.aggregator, uniform_weights=True)
        p_avg = _forward_one(params, sample, cfg_avg, 0, 1)
        assert abs(p_soft - p_avg) <= 1e-12

    def test_batched_matches_single_record(self):
        params, sample, config, M, E, R = tiny_instance(seed=31, d=4, K=3, H=2)
        scorer = KgcnScorer(params, sample, config)
        users = np.array([0, 1, 0, 1])
        items = np.array([0, 1, 2, min(3, E - 1)])
        probs, _ = scorer.forward_batch(users, items)
        for b in range(4):
            single = _forward_one(params, sample, config, users[b], items[b])
            assert abs(single - probs[b]) <= 1e-12

    def test_permutation_equivariance_h1(self):
        params, sample, config, M, E, R = tiny_instance(seed=91, d=3, K=3, H=1)
        user = np.array([0])
        ent_layers, rel_layers = batched_layers(sample, [2], 1)
        base, _ = forward_layers(user, params.user[user], ent_layers, rel_layers, params, config)
        perm = np.array([2, 0, 1])
        ent_layers[1] = ent_layers[1][:, perm]
        rel_layers[1] = rel_layers[1][:, perm]
        permuted, _ = forward_layers(user, params.user[user], ent_layers, rel_layers,
                                     params, config)
        assert abs(base[0] - permuted[0]) <= 1e-12

    def test_permutation_equivariance_h2(self):
        params, sample, config, M, E, R = tiny_instance(seed=92, d=3, K=2, H=2)
        user = np.array([0])
        ent_layers, rel_layers = batched_layers(sample, [1], 2)
        base, _ = forward_layers(user, params.user[user], ent_layers, rel_layers, params, config)
        # permute the two children of the root, moving their layer-2 blocks along
        perm1 = np.array([1, 0])
        ent_layers[1] = ent_layers[1][:, perm1]
        rel_layers[1] = rel_layers[1][:, perm1]
        block_perm = np.concatenate([perm1 * 2 + 0, perm1 * 2 + 1]).reshape(2, 2).T.reshape(-1)
        ent_layers[2] = ent_layers[2][:, block_perm]
        rel_layers[2] = rel_layers[2][:, block_perm]
        permuted, _ = forward_layers(user, params.user[user], ent_layers, rel_layers,
                                     params, config)
        assert abs(base[0] - permuted[0]) <= 1e-12


class TestDistinctScoring:
    """KgcnScorer.score for a single user runs over each hop's distinct
    entities; it must give the per-record tree's probabilities."""

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("H", [1, 2, 3])
    @pytest.mark.parametrize("uniform", [False, True])
    def test_single_user_matches_tree_and_oracle(self, aggregator, H, uniform):
        rng = np.random.default_rng(10 * H + uniform)
        triples, _ = random_graph(rng, 10, 3, 14)
        sample = sample_neighborhood(build_adjacency(triples, 11), K=3, seed=H, num_relations=3)
        params = init_params(2, 11, 3, 4, H, aggregator, seed=H)
        config = ModelConfig(d=4, H=H, K=3, aggregator=aggregator, uniform_weights=uniform)
        scorer = KgcnScorer(params, sample, config)
        # a duplicate, an item next to its sampled neighbor, the isolated entity 10
        items = np.array([3, 3, int(sample.neighbors[3, 0]), 10, *range(10)])
        users = np.ones(items.size, dtype=np.int64)
        got = scorer.score(users, items)
        tree, _ = scorer.forward_batch(users, items)
        assert np.max(np.abs(got - tree)) <= 1e-12
        for v, p in zip(items, got):
            assert abs(p - _oracle_probability(1, int(v), sample, params, config)) <= 1e-12

    def test_mixed_users_score_through_trees(self):
        params, sample, config, M, E, R = tiny_instance(seed=11, d=3, K=2, H=2)
        scorer = KgcnScorer(params, sample, config)
        users, items = np.array([0, 1, 0]), np.array([0, 1, 2]) % E
        tree, _ = scorer.forward_batch(users, items)
        assert np.array_equal(scorer.score(users, items), tree)

    def test_backward_refuses_distinct_layout(self):
        params, sample, config, M, E, R = tiny_instance(seed=12, d=3, K=2, H=2)
        layers = distinct_layers(sample, np.arange(E), config.H)
        user = np.array([0])
        _, state = forward_layers(user, params.user[user], layers.ent_layers, layers.rel_layers,
                                  params, config, children=layers.children)
        with pytest.raises(ConfigError):
            backward_layers(state, params, np.ones(len(layers.ent_layers[0][0])))

    def test_relation_scores_equal_per_slot_products(self):
        # scored once per (user, relation), then gathered: bit for bit the
        # inner product of every slot's own user and relation vectors
        params, sample, config, M, E, R = tiny_instance(seed=13, d=19, K=3, H=2)
        users, items = np.array([0, 1, 1]), np.array([0, 1, 2]) % E
        _, state = KgcnScorer(params, sample, config).forward_batch(users, items)
        for hop, w in enumerate(state.weights):
            rv = params.relation[state.rel_layers[hop + 1]].reshape(3, -1, config.K, config.d)
            pi = np.sum(params.user[users][:, None, None, :] * rv, axis=-1)
            assert np.array_equal(w, softmax(pi))


def _gradient_check(params, sample, config, users, items, labels, floor=1e-4):
    scorer = KgcnScorer(params, sample, config)
    labels = np.asarray(labels, dtype=np.float64)

    def loss_fn(p):
        probs, _ = KgcnScorer(p, sample, config).forward_batch(users, items)
        return batch_loss(probs, labels, p, 0.0)

    probs, state = scorer.forward_batch(users, items)
    upstream = (probs - labels) / (probs * (1.0 - probs)) / len(labels)
    analytic = scorer.backward_batch(state, upstream)
    numeric = finite_difference_gradient(loss_fn, params)
    worst = 0.0
    for (_, a), (_, f) in zip(analytic.blocks(), numeric.blocks()):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst, analytic


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        params, sample, config, M, E, R = tiny_instance(seed=21, d=3, K=2, H=2)
        scorer = KgcnScorer(params, sample, config)
        probs, state = scorer.forward_batch(np.array([0, 1]), np.array([0, 1]))
        grads = scorer.backward_batch(state, np.zeros(2))
        for _, a in grads.blocks():
            assert np.all(a == 0.0)

    @pytest.mark.parametrize("aggregator", ["sum", "concat", "neighbor"])
    def test_matches_finite_differences(self, aggregator):
        for trial in range(4):
            params, sample, config, M, E, R = tiny_instance(
                seed=300 + trial, aggregator=aggregator, uniform=(trial == 3))
            users = np.array([0, 1, 0])
            items = np.array([0, 1, 2]) % E
            labels = np.array([1.0, 0.0, 1.0])
            worst, _ = _gradient_check(params, sample, config, users, items, labels)
            assert worst < 1e-5

    def test_untouched_entity_rows_zero(self):
        params, sample, config, M, E, R = tiny_instance(seed=41, d=2, K=2, H=1)
        scorer = KgcnScorer(params, sample, config)
        items = np.array([0])
        probs, state = scorer.forward_batch(np.array([0]), items)
        grads = scorer.backward_batch(state, np.ones(1))
        touched = set(np.concatenate([l.reshape(-1) for l in state.ent_layers]).tolist())
        for e in range(E):
            if e not in touched:
                assert np.all(grads.entity[e] == 0.0)
        # and the gradient reaches at least the item row
        assert np.any(grads.entity[0] != 0.0) or 0 not in touched

    def test_untouched_user_rows_zero(self):
        params, sample, config, M, E, R = tiny_instance(seed=42, d=2, K=2, H=1)
        scorer = KgcnScorer(params, sample, config)
        probs, state = scorer.forward_batch(np.array([0]), np.array([0]))
        grads = scorer.backward_batch(state, np.ones(1))
        for m in range(1, M):
            assert np.all(grads.user[m] == 0.0)


class TestMfBaseline:
    def test_zero_vectors_give_half(self):
        params = init_params(2, 3, 1, 4, 0, "mf", seed=0)
        params.user[:] = 0.0
        assert MfScorer(params).score(np.array([0]), np.array([1]))[0] == 0.5

    def test_output_range(self):
        params = init_params(3, 4, 1, 8, 0, "mf", seed=1)
        users, items = np.meshgrid(np.arange(3), np.arange(4), indexing="ij")
        probs = MfScorer(params).score(users.ravel(), items.ravel())
        assert np.all((0.0 < probs) & (probs < 1.0))

    def test_gradients_match_finite_differences(self):
        params = init_params(3, 4, 1, 3, 0, "mf", seed=2)
        users = np.array([0, 2, 1])
        items = np.array([1, 3, 0])
        labels = np.array([1.0, 0.0, 1.0])
        scorer = MfScorer(params)

        def loss_fn(p):
            probs, _ = MfScorer(p).forward_batch(users, items)
            return batch_loss(probs, labels, p, 0.0)

        probs, state = scorer.forward_batch(users, items)
        upstream = (probs - labels) / (probs * (1.0 - probs)) / 3.0
        analytic = scorer.backward_batch(state, upstream)
        numeric = finite_difference_gradient(loss_fn, params)
        for (_, a), (_, f) in zip(analytic.blocks(), numeric.blocks()):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-4)
            assert np.max(np.abs(a - f) / denom) < 1e-5
