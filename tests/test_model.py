import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from kgcn import model
from kgcn.errors import ConfigError
from kgcn.graph import NodeLayers, batched_layers, build_adjacency, sample_neighborhood
from kgcn.model import (
    MIX_BLOCK,
    KgcnScorer,
    ModelConfig,
    aggregate,
    forward_layers,
)
from kgcn.numerics import AGGREGATORS, ParameterStore, init_params, sigmoid, softmax
from kgcn.trainer import batch_loss

from conftest import mix_by_product, random_graph, softmax_by_np_max, tiny_instance
from oracle import finite_difference_gradient, receptive_tree, straight_line_predict


def _backward(scorer, state, dlogit):
    """scorer's gradients for dlogit, added into a zeroed store as the trainer does."""
    return scorer.backward_batch(state, dlogit, ParameterStore.zeros_like(scorer.params))


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
    layers = NodeLayers(
        ent_layers=[np.array([0]), np.arange(1, K + 1)],
        node_users=[np.zeros(1, dtype=np.int64), np.zeros(K, dtype=np.int64)],
        rel_layers=[np.empty((0, K), dtype=np.int64), np.arange(K).reshape(1, K)],
        children=[np.arange(K).reshape(1, K)],
        inverse=np.array([0]),
        user_idx=np.array([0]),
    )
    _, state = forward_layers(layers, params, config)
    return state.weights[0][0], state.mixed[(0, 0)][0]


class TestModelConfig:
    """ModelConfig is the one check of a model's settings: the sampler,
    init_params and the layers trust the config they are given."""

    @pytest.mark.parametrize("fields, message", [
        ({"aggregator": "max"}, "unknown aggregator 'max'"),
        ({"d": 0}, "embedding dimension must be >= 1, got d=0"),
        ({"K": 0}, "neighbor sample size must be >= 1, got K=0"),
        ({"H": -1}, "got H=-1 with 'sum'"),
        ({"H": 0}, "got H=0 with 'sum'"),
        ({"aggregator": "mf"}, "got H=1 with 'mf'"),
    ], ids=["unknown_aggregator", "d_zero", "K_zero", "H_negative", "H_zero_sum", "mf_H_one"])
    def test_invalid_settings_are_refused(self, fields, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ModelConfig(**{"d": 4, "H": 1, "K": 4, "aggregator": "sum", **fields})

    @pytest.mark.parametrize("name", ["K", "d", "H"])
    def test_sizes_past_a_checkpoint_header_are_refused(self, name):
        # the header holds K, d and H as uint32, and indices stay below 2^31
        with pytest.raises(ConfigError, match=f"^{name} must be below {2 ** 31}, got {2 ** 31}$"):
            ModelConfig(**{"d": 4, "H": 1, "K": 4, name: 2 ** 31})
        ModelConfig(**{"d": 4, "H": 1, "K": 4, name: 2 ** 31 - 1})

    def test_frozen(self):
        # checked once, at construction, so no field may change afterwards
        config = ModelConfig(d=4, H=1, K=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.K = 0


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
        w, got = _mix(reps, rels, rng.normal(size=2), uniform_weights=True)
        assert np.all(w == 1.0 / 5)
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


def _fixture_three_entities(aggregator):
    """3 entities, 2 relations, d=2, K=2, H=1, hand-set parameters."""
    triples = np.array([[0, 0, 1], [1, 1, 2]])
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
    """tests/oracle.py's probability for (u, v) over v's receptive-field tree."""
    layers, relations = receptive_tree(sample, v, config.H)
    return straight_line_predict(
        params.user[u].tolist(),
        layers,
        relations,
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
        aggregators = ["sum", "concat", "neighbor"] * 4 + ["mf"] * 2
        for trial, agg in enumerate(aggregators):
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
        # reorder the root's K children together with their relations
        params, sample, config, M, E, R = tiny_instance(seed=91, d=3, K=3, H=1)
        layers = batched_layers(sample, [0], [2], 1)
        base, _ = forward_layers(layers, params, config)
        perm = np.array([2, 0, 1])
        layers.children[0] = layers.children[0][:, perm]
        layers.rel_layers[1] = layers.rel_layers[1][:, perm]
        permuted, _ = forward_layers(layers, params, config)
        assert abs(base[0] - permuted[0]) <= 1e-12

    def test_permutation_equivariance_h2(self):
        # reorder hop 1's nodes, moving their rows and the pointers to them
        params, sample, config, M, E, R = tiny_instance(seed=92, d=3, K=2, H=2)
        layers = batched_layers(sample, [0, 1], [1, 2], 2)
        base, _ = forward_layers(layers, params, config)
        n = layers.ent_layers[1].size
        perm = np.roll(np.arange(n), 1)        # new row i holds old node perm[i]
        for field in (layers.ent_layers, layers.node_users):
            field[1] = field[1][perm]
        layers.rel_layers[2] = layers.rel_layers[2][perm]
        layers.children[1] = layers.children[1][perm]
        layers.children[0] = np.argsort(perm)[layers.children[0]]
        permuted, _ = forward_layers(layers, params, config)
        assert np.max(np.abs(base - permuted)) <= 1e-12


class TestDistinctScoring:
    """KgcnScorer.score runs over each hop's distinct (user, entity) nodes; it
    must give every record the probability it has when scored alone and the
    oracle's over the record's K-ary tree."""

    @pytest.mark.parametrize("H, aggregator",
                             [(H, agg) for H in (1, 2, 3) for agg in AGGREGATORS] + [(0, "mf")])
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
        for v, p in zip(items, got):
            assert abs(p - _forward_one(params, sample, config, 1, v)) <= 1e-12
            assert abs(p - _oracle_probability(1, int(v), sample, params, config)) <= 1e-12

    def test_mixed_users_match_oracle(self):
        params, sample, config, M, E, R = tiny_instance(seed=11, d=3, K=2, H=2)
        scorer = KgcnScorer(params, sample, config)
        users, items = np.array([0, 1, 0, 1]), np.array([0, 1, 2, 0]) % E
        got = scorer.score(users, items)
        for u, v, p in zip(users, items, got):
            assert abs(p - _oracle_probability(int(u), int(v), sample, params, config)) <= 1e-12

    def test_relation_scores_equal_per_slot_products(self):
        # scored once per (user, relation), then gathered: bit for bit the
        # inner product of every node's own user and relation vectors
        params, sample, config, M, E, R = tiny_instance(seed=13, d=19, K=3, H=2)
        users, items = np.array([0, 1, 1]), np.array([0, 1, 2]) % E
        _, state = KgcnScorer(params, sample, config).forward_batch(users, items)
        for hop, w in enumerate(state.weights):
            rv = params.relation[state.rel_layers[hop + 1]]
            uv = params.user[state.user_idx[state.node_users[hop]]]
            assert np.array_equal(w, softmax(np.sum(uv[:, None, :] * rv, axis=-1)))


def _within_two_summation_orders(got, want, w, rows, children):
    """|got - want| <= 2 (K - 1) eps sum_k |w_k x_k|: two orders of the same
    K-term sum each lie within (K - 1) eps sum_k |w_k x_k| of the exact one."""
    bound = 2 * (w.shape[1] - 1) * np.finfo(np.float64).eps * mix_by_product(
        np.abs(w), np.abs(rows), children)
    return bool(np.all(np.abs(got - want) <= bound))


def _probability_bound(state, params):
    """Per record, a bound on |p - p'| between the forward that left `state`
    and one at d = 1 whose mixes add the same terms in another order.

    Both forwards share the weights, so they differ only by rounding, and the
    bound carries each level's difference through the H iterations. Each
    forward rounds every operation within u = eps / 2 of its result, exp and
    tanh within 4 ulp (4 eps |y|). A mix, sum_k w_k x_k, lies within K u
    sum_k |w_k x_k| of its exact value and moves by at most sum_k w_k times
    its children's difference; an addition, and a linear layer's n products
    plus the bias, lie within u and (n + 1) u times the sum of their terms'
    magnitudes; the logistic lies within 7 eps p (exp, then an addition and a
    division). relu, tanh and the logistic move by at most their largest
    slope within the input's difference of the input (relu is also exact).
    Each rounding enters once per forward; the factor 1.001 covers the terms
    of order eps^2.
    """
    eps = np.finfo(np.float64).eps
    config = state.config
    H, K = config.H, config.K
    delta = [np.zeros(level.shape) for level in state.levels[0]]
    for it in range(H):
        W, b, cur = params.hop_weights[it], params.hop_biases[it], state.levels[it]
        nxt = []
        for hop in range(H - it):
            w, children = state.weights[hop], state.children[hop]
            d_mixed = mix_by_product(w, delta[hop + 1], children) + K * eps * mix_by_product(
                w, np.abs(cur[hop + 1]), children)
            x = model._aggregator_input(cur[hop], state.mixed[it, hop], config.aggregator)
            d_x = model._aggregator_input(delta[hop], d_mixed, config.aggregator)
            if config.aggregator == "sum":
                d_x = d_x + eps * np.abs(x)
            z, terms = x @ W.T + b, np.abs(x) @ np.abs(W).T + np.abs(b)
            d_z = d_x @ np.abs(W).T + (x.shape[1] + 1) * eps * terms
            if model._iteration_activation(it, H) == "relu":
                nxt.append(np.where(z > -d_z, d_z, 0.0))
            else:
                q = np.exp(-2 * np.maximum(np.abs(z) - d_z, 0.0))      # tanh' = 4q / (1 + q)^2
                nxt.append(4 * q / (1 + q) ** 2 * d_z + 8 * eps * np.abs(state.levels[it + 1][hop]))
        delta = nxt
    user = state.user_vec[state.node_users[0]]
    logit = np.sum(user * state.levels[H][0], axis=1)
    d_logit = np.sum(np.abs(user) * delta[0], axis=1) + eps * np.abs(logit)
    q = np.exp(-np.maximum(np.abs(logit) - d_logit, 0.0))              # sigmoid' = q / (1 + q)^2
    return 1.001 * (q / (1 + q) ** 2 * d_logit + 14 * eps * sigmoid(logit))[state.inverse]


class TestMixKernels:
    """forward's blocked np.take + einsum mix and the column-max softmax give
    the sums of the (n, K, d) product form and the weights of the np.max form:
    bit for bit for d >= 2; at d = 1 einsum's inner loop adds the K terms in
    another order, and the mix agrees within the bound of two summation
    orders (probabilities within that bound carried through the H layers)."""

    @pytest.mark.parametrize("K", [1, 2, 3, 5, 8, 16, 32])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 16, 17, 64])
    def test_mix_equals_product_form(self, K, d):
        rng = np.random.default_rng(100 * K + d)
        step = max(1, MIX_BLOCK // (K * d))
        n = 3 * step + 1                          # three whole blocks and one of a single node
        rows = rng.uniform(-1e3, 1e3, size=(40, d))
        children = rng.integers(0, 40, size=(n, K))
        children[:2] = 7                          # nodes whose K children are one entity
        w = softmax(rng.normal(size=(n, K)))
        got, want = model._mix(w, rows, children), mix_by_product(w, rows, children)
        if d >= 2:
            assert np.array_equal(got, want)
        else:
            assert _within_two_summation_orders(got, want, w, rows, children)

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("H", [1, 2, 3])
    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("K, d", [(1, 4), (3, 4), (8, 16), (5, 1)])
    def test_forward_and_backward_equal_product_form(self, monkeypatch, aggregator, H,
                                                      uniform, K, d):
        # 40 entities and 30 triples: most entities have fewer than K
        # neighbors (repeated children) and entity 39 has none (K self-loops)
        rng = np.random.default_rng(10 * H + K)
        triples, _ = random_graph(rng, 39, 4, 30)
        sample = sample_neighborhood(build_adjacency(triples, 40), K=K, seed=H, num_relations=4)
        params = init_params(3, 40, 4, d, H, aggregator, seed=K)
        params.flat[:] *= 4.0                     # scores far from 0: peaked weights
        config = ModelConfig(d=d, H=H, K=K, aggregator=aggregator, uniform_weights=uniform)
        scorer = KgcnScorer(params, sample, config)
        # user 1's whole catalogue, a duplicate record and two other users
        users = np.array([1] * 40 + [0, 0, 2])
        items = np.array([*range(40), 39, 39, 5])

        def probs_grads_and_state():
            probs, state = scorer.forward_batch(users, items)
            grads = _backward(scorer, state, (probs - 0.5) / probs.size)
            return probs, grads.flat.copy(), state

        got = probs_grads_and_state()
        monkeypatch.setattr(model, "_mix", mix_by_product)
        monkeypatch.setattr(model, "softmax", softmax_by_np_max)
        want = probs_grads_and_state()
        assert all(map(np.array_equal, got[2].weights, want[2].weights))
        if d >= 2:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        else:
            assert np.all(np.abs(got[0] - want[0]) <= _probability_bound(got[2], params))
            assert np.max(np.abs(got[1] - want[1])) <= 1e-14 * np.max(np.abs(want[1]))


class TestForwardMemory:
    def test_catalogue_forward_forms_no_n_k_d_array(self):
        # One user's whole catalogue at K=32, d=16: the largest hop's (n, K, d)
        # gather is 12.3 MB. Everything else the forward allocates (levels,
        # weights, scores, softmax temporaries, one 512 KiB mix block) peaks
        # at about 7.4 MB. A forward that gathers a whole hop's children at
        # once peaks above one such array: 18.4 MB with one einsum over the
        # whole gather, 29-30 MB with np.sum(w[..., None] * rows[children],
        # axis=1), whose product is as large again.
        rng = np.random.default_rng(3)
        E, K, d = 3000, 32, 16
        triples, _ = random_graph(rng, E, 6, 4 * E)
        sample = sample_neighborhood(build_adjacency(triples, E), K=K, seed=1, num_relations=6)
        params = init_params(2, E, 6, d, 2, "sum", seed=2)
        config = ModelConfig(d=d, H=2, K=K)
        layers = batched_layers(sample, np.zeros(E, dtype=np.int64), np.arange(E), 2)
        largest_gather = max(c.shape[0] for c in layers.children) * K * d * 8
        tracemalloc.start()
        try:
            forward_layers(layers, params, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < largest_gather, (peak, largest_gather)


def _gradient_check(params, sample, config, users, items, labels, floor=1e-4):
    scorer = KgcnScorer(params, sample, config)
    labels = np.asarray(labels, dtype=np.float64)

    def loss_fn(p):
        probs, _ = KgcnScorer(p, sample, config).forward_batch(users, items)
        return batch_loss(probs, labels, p, 0.0)

    probs, state = scorer.forward_batch(users, items)
    analytic = _backward(scorer, state, (probs - labels) / len(labels))   # dL/dlogit
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
        grads = _backward(scorer, state, np.zeros(2))
        for _, a in grads.blocks():
            assert np.all(a == 0.0)

    @pytest.mark.parametrize("aggregator", ["sum", "concat", "neighbor", "mf"])
    def test_matches_finite_differences(self, aggregator):
        for trial in range(4):
            params, sample, config, M, E, R = tiny_instance(
                seed=300 + trial, aggregator=aggregator, uniform=(trial == 3))
            users = np.array([0, 1, 0])
            items = np.array([0, 1, 2]) % E
            labels = np.array([1.0, 0.0, 1.0])
            worst, _ = _gradient_check(params, sample, config, users, items, labels)
            assert worst < 1e-5

    @pytest.mark.parametrize("aggregator, uniform",
                             [(agg, uni) for agg in AGGREGATORS for uni in (False, True)]
                             + [("mf", False)])
    def test_shared_nodes_match_finite_differences(self, aggregator, uniform):
        # a duplicate record, one user on three records, and an item that is
        # another item's sampled neighbor: records share nodes
        params, sample, config, M, E, R = tiny_instance(
            seed=350, d=3, K=2, H=2, aggregator=aggregator, uniform=uniform)
        v = 1
        users = np.array([0, 0, 1, 0])
        items = np.array([v, v, v, sample.neighbors[v, 0]])
        worst, _ = _gradient_check(params, sample, config, users, items, [1.0, 1.0, 0.0, 0.0])
        assert worst < 1e-5
        _, state = KgcnScorer(params, sample, config).forward_batch(users, items)
        assert state.ent_layers[0].size < items.size

    def test_untouched_entity_rows_zero(self):
        params, sample, config, M, E, R = tiny_instance(seed=41, d=2, K=2, H=1)
        scorer = KgcnScorer(params, sample, config)
        items = np.array([0])
        probs, state = scorer.forward_batch(np.array([0]), items)
        grads = _backward(scorer, state, np.ones(1))
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
        grads = _backward(scorer, state, np.ones(1))
        for m in range(1, M):
            assert np.all(grads.user[m] == 0.0)


class TestMfBaseline:
    """At H=0 the scorer is sigma(<user, item embedding>)."""

    def test_zero_vectors_give_half(self):
        params, sample, config, M, E, R = tiny_instance(seed=0, d=4, aggregator="mf")
        params.user[:] = 0.0
        assert KgcnScorer(params, sample, config).score(np.array([0]), np.array([1]))[0] == 0.5

    def test_output_range(self):
        params, sample, config, M, E, R = tiny_instance(seed=1, d=8, aggregator="mf")
        users, items = np.meshgrid(np.arange(M), np.arange(E), indexing="ij")
        probs = KgcnScorer(params, sample, config).score(users.ravel(), items.ravel())
        assert np.all((0.0 < probs) & (probs < 1.0))
