import numpy as np
import pytest

from kgcn.errors import ParseError
from kgcn.graph import (
    Triple,
    batched_layers,
    build_adjacency,
    distinct_layers,
    load_kg,
    sample_neighborhood,
)

from conftest import random_graph


class TestLoadKg:
    def test_single_triple(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("0\t5\t1\n")
        triples, E, R = load_kg(str(p))
        assert triples == [Triple(0, 5, 1)]
        assert (E, R) == (2, 6)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("")
        triples, E, R = load_kg(str(p))
        assert triples == [] and E == 0 and R == 0

    def test_counts_are_one_plus_max(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("0\t0\t1\n2\t1\t0\n")
        _, E, R = load_kg(str(p))
        assert (E, R) == (3, 2)

    def test_negative_index_rejected(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("0\t0\t1\n1\t-2\t0\n")
        with pytest.raises(ParseError) as exc:
            load_kg(str(p))
        assert exc.value.line_no == 2

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("0\t0\n")
        with pytest.raises(ParseError):
            load_kg(str(p))


class TestAdjacency:
    def test_both_directions(self):
        adj = build_adjacency([Triple(0, 5, 1)], 2)
        assert adj[0] == [(1, 5)]
        assert adj[1] == [(0, 5)]

    def test_empty(self):
        assert build_adjacency([], 3) == [[], [], []]

    def test_self_loop_contributes_twice(self):
        adj = build_adjacency([Triple(0, 1, 0)], 1)
        assert adj[0] == [(0, 1), (0, 1)]

    def test_symmetry_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, adj = random_graph(rng, 12, 4, 30)
            for h in range(len(adj)):
                for (t, r) in adj[h]:
                    assert adj[h].count((t, r)) == adj[t].count((h, r))

    def test_duplicate_triples_preserved(self):
        adj = build_adjacency([Triple(0, 1, 1), Triple(0, 1, 1)], 2)
        assert adj[0] == [(1, 1), (1, 1)]


class TestNeighborSample:
    def test_small_neighborhood_sampled_with_replacement(self):
        adj = [[(1, 0), (2, 0), (3, 0)], [], [], []]
        s = sample_neighborhood(adj, K=8, seed=0, num_relations=1)
        row = s.neighbors[0]
        assert len(row) == 8
        assert set(row.tolist()) <= {1, 2, 3}
        assert len(set(row.tolist())) < 8  # duplicates forced by pigeonhole

    def test_exact_size_neighborhood_is_permutation(self):
        pairs = [(i, 0) for i in range(1, 9)]
        adj = [pairs] + [[] for _ in range(9)]
        s = sample_neighborhood(adj, K=8, seed=3, num_relations=1)
        assert sorted(s.neighbors[0].tolist()) == list(range(1, 9))

    def test_isolated_entity_gets_self_relation(self):
        adj = [[], [(0, 0)]]
        s = sample_neighborhood(adj, K=4, seed=0, num_relations=5)
        assert s.neighbors[0].tolist() == [0, 0, 0, 0]
        assert s.relations[0].tolist() == [5, 5, 5, 5]
        assert s.self_relation == 5

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        _, adj = random_graph(rng, 20, 3, 50)
        a = sample_neighborhood(adj, K=4, seed=9, num_relations=3)
        b = sample_neighborhood(adj, K=4, seed=9, num_relations=3)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.relations, b.relations)

    def test_sampled_pairs_come_from_adjacency(self):
        rng = np.random.default_rng(6)
        _, adj = random_graph(rng, 15, 3, 25)
        s = sample_neighborhood(adj, K=5, seed=1, num_relations=3)
        for v in range(15):
            allowed = set(adj[v]) if adj[v] else {(v, 3)}
            got = set(zip(s.neighbors[v].tolist(), s.relations[v].tolist()))
            assert got <= allowed


def _plain_tree(sample, v, H):
    """Item v's receptive field expanded in plain Python from the sample."""
    layers, relations = [[v]], [[]]
    for _ in range(H):
        relations.append([int(r) for e in layers[-1] for r in sample.relations[e]])
        layers.append([int(n) for e in layers[-1] for n in sample.neighbors[e]])
    return layers, relations


class TestReceptiveField:
    """Rows of batched_layers: one receptive field per item."""

    def test_depth_zero(self):
        adj = [[(1, 0)], [(0, 0)]]
        s = sample_neighborhood(adj, K=2, seed=0, num_relations=1)
        ent_layers, _ = batched_layers(s, [0], H=0)
        assert len(ent_layers) == 1
        assert ent_layers[0][0].tolist() == [0]

    def test_two_hop_layer_sizes(self):
        rng = np.random.default_rng(2)
        _, adj = random_graph(rng, 10, 2, 25)
        s = sample_neighborhood(adj, K=2, seed=0, num_relations=2)
        ent_layers, _ = batched_layers(s, [4], H=2)
        assert [l.shape[1] for l in ent_layers] == [1, 2, 4]
        assert sum(l.shape[1] for l in ent_layers) == 7

    def test_single_neighbor_repeats(self):
        adj = [[(1, 0)], [(0, 0)]]
        s = sample_neighborhood(adj, K=3, seed=0, num_relations=1)
        # forced by with-replacement sampling; the sampler's own output is the
        # reference for what layer 1 must contain
        assert s.neighbors[0].tolist() == [1, 1, 1]
        ent_layers, _ = batched_layers(s, [0], H=1)
        assert ent_layers[1][0].tolist() == [1, 1, 1]

    def test_shape_law(self):
        rng = np.random.default_rng(3)
        for K in (1, 2, 4, 8):
            for H in (0, 1, 2, 3):
                _, adj = random_graph(rng, 12, 3, 30)
                s = sample_neighborhood(adj, K=K, seed=0, num_relations=3)
                v = int(rng.integers(12))
                ent_layers, rel_layers = batched_layers(s, [v], H)
                assert [l.shape[1] for l in ent_layers] == [K ** h for h in range(H + 1)]
                for h in range(1, H + 1):
                    assert rel_layers[h].shape[1] == K ** h

    def test_membership_in_sample(self):
        rng = np.random.default_rng(4)
        _, adj = random_graph(rng, 12, 3, 30)
        s = sample_neighborhood(adj, K=3, seed=2, num_relations=3)
        ent_layers, rel_layers = batched_layers(s, [5], H=2)
        for h in range(len(ent_layers) - 1):
            parents = ent_layers[h][0]
            for j, parent in enumerate(parents):
                children = ent_layers[h + 1][0][j * 3:(j + 1) * 3]
                rels = rel_layers[h + 1][0][j * 3:(j + 1) * 3]
                assert children.tolist() == s.neighbors[parent].tolist()
                assert rels.tolist() == s.relations[parent].tolist()

    def test_batched_layers_match_per_item_fields(self):
        rng = np.random.default_rng(8)
        _, adj = random_graph(rng, 10, 2, 25)
        s = sample_neighborhood(adj, K=2, seed=0, num_relations=2)
        items = np.array([0, 3, 7])
        ent_layers, rel_layers = batched_layers(s, items, H=2)
        for b, v in enumerate(items):
            layers, relations = _plain_tree(s, int(v), H=2)
            for h in range(3):
                assert ent_layers[h][b].tolist() == layers[h]
                if h >= 1:
                    assert rel_layers[h][b].tolist() == relations[h]


class TestDistinctLayers:
    def _sample(self):
        rng = np.random.default_rng(9)
        triples, _ = random_graph(rng, 12, 3, 20)
        # entity 12 has no triple: its sample is K self-loops
        s = sample_neighborhood(build_adjacency(triples, 13), K=3, seed=4, num_relations=3)
        items = np.array([5, 0, 5, 12, int(s.neighbors[5, 0]), 0])
        return s, items

    def test_each_entity_once_per_hop(self):
        s, items = self._sample()
        layers = distinct_layers(s, items, H=3)
        trees, _ = batched_layers(s, items, H=3)
        for ents, tree in zip(layers.ent_layers, trees):
            assert ents.shape[0] == 1
            assert ents[0].tolist() == sorted(set(tree.ravel().tolist()))

    def test_children_map_back_to_sample(self):
        s, items = self._sample()
        layers = distinct_layers(s, items, H=3)
        assert layers.ent_layers[0][0][layers.inverse].tolist() == items.tolist()
        for h, child in enumerate(layers.children):
            parents = layers.ent_layers[h][0]
            assert child.shape == (parents.size, 3)
            assert np.array_equal(layers.ent_layers[h + 1][0][child], s.neighbors[parents])
            assert np.array_equal(layers.rel_layers[h + 1].reshape(-1, 3), s.relations[parents])

    def test_isolated_entity_is_its_own_child(self):
        s, _ = self._sample()
        layers = distinct_layers(s, np.array([12]), H=2)
        assert [e.tolist() for e in layers.ent_layers] == [[[12]]] * 3
        assert layers.rel_layers[1].tolist() == [[3, 3, 3]]
