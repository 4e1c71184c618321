"""Knowledge-graph storage: triple loading, undirected adjacency, fixed-size
neighbor sampling and layered receptive fields, either as one K-ary tree per
item or merged into each hop's distinct entities.

The graph is treated undirected: every triple contributes both directions
with the same relation index. Entities with no edges at all get K copies of
a self-loop carrying a reserved relation index (== num_relations), so every
entity has exactly K sampled (neighbor, relation) pairs and downstream
shapes stay fixed.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParseError


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


def load_kg(path):
    """Parse a triple file (head<TAB>relation<TAB>tail per line).

    Returns (triples, num_entities, num_relations) where the counts are
    1 + the maximum observed index (0 for an empty file).
    """
    triples = []
    max_ent = -1
    max_rel = -1
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(path, line_no, f"expected 3 fields, got {len(parts)}")
            try:
                h, r, t = (int(p) for p in parts)
            except ValueError:
                raise ParseError(path, line_no, f"non-integer field in {parts}") from None
            if h < 0 or r < 0 or t < 0:
                raise ParseError(path, line_no, "negative index")
            triples.append(Triple(h, r, t))
            max_ent = max(max_ent, h, t)
            max_rel = max(max_rel, r)
    return triples, max_ent + 1, max_rel + 1


def build_adjacency(triples, num_entities):
    """Undirected adjacency: per-entity list of (neighbor, relation) pairs.

    Each triple contributes both (t, r) to adj[h] and (h, r) to adj[t];
    duplicate triples are preserved, so repeated facts stay upweighted
    during sampling. A self-loop (v, r, v) therefore appears twice in adj[v].
    """
    adj = [[] for _ in range(num_entities)]
    for h, r, t in triples:
        adj[h].append((t, r))
        adj[t].append((h, r))
    return adj


@dataclass
class NeighborSample:
    """Fixed mapping entity -> exactly K sampled (neighbor, relation) pairs.

    Computed once per run and reused everywhere so receptive fields are
    stable across epochs. self_relation is the reserved relation index used
    for isolated entities.
    """

    neighbors: np.ndarray   # (E, K) int64
    relations: np.ndarray   # (E, K) int64
    sample_size: int
    seed: int
    self_relation: int


def sample_neighborhood(adjacency, K, seed, num_relations):
    """Draw the fixed-size neighbor sample for every entity.

    Entities with >= K neighbors get K draws without replacement; entities
    with 1..K-1 neighbors get K draws with replacement (duplicates expected);
    isolated entities get K copies of (self, self_relation). Deterministic
    given the seed.
    """
    if K < 1:
        raise ConfigError(f"neighbor sample size must be >= 1, got K={K}")
    E = len(adjacency)
    rng = np.random.default_rng(seed)
    neighbors = np.empty((E, K), dtype=np.int64)
    relations = np.empty((E, K), dtype=np.int64)
    self_relation = num_relations
    for v in range(E):
        pairs = adjacency[v]
        n = len(pairs)
        if n == 0:
            neighbors[v] = v
            relations[v] = self_relation
            continue
        idx = rng.choice(n, size=K, replace=(n < K))
        for j, i in enumerate(idx):
            neighbors[v, j] = pairs[i][0]
            relations[v, j] = pairs[i][1]
    return NeighborSample(
        neighbors=neighbors,
        relations=relations,
        sample_size=K,
        seed=seed,
        self_relation=self_relation,
    )


def batched_layers(sample, items, H):
    """Receptive fields for a whole batch of items at once.

    Returns (ent_layers, rel_layers): ent_layers[h] has shape (B, K^h), and
    row b is item b's layered expansion to depth H, one K-ary tree: entry j
    of a hop has its K sampled neighbors at entries j*K .. j*K+K-1 of the
    next. rel_layers[h] (h >= 1) aligns with ent_layers[h], giving the
    relation that links each entry to its parent; rel_layers[0] is a (B, 0)
    placeholder.
    """
    items = np.asarray(items, dtype=np.int64)
    B = items.shape[0]
    ent_layers = [items.reshape(B, 1)]
    rel_layers = [np.empty((B, 0), dtype=np.int64)]
    for _ in range(H):
        prev = ent_layers[-1]
        ent_layers.append(sample.neighbors[prev].reshape(B, -1))
        rel_layers.append(sample.relations[prev].reshape(B, -1))
    return ent_layers, rel_layers


class DistinctLayers(NamedTuple):
    """Each hop's distinct entities for one user's batch of items.

    ent_layers[h] is (1, n_h): every entity the items reach in exactly h
    steps, once, in ascending order. rel_layers[h + 1] is (1, n_h * K): the
    sampled relations of those entities, row-major. children[h] is (n_h, K):
    where each of them finds its K sampled neighbors in ent_layers[h + 1].
    inverse maps the items, in the order given, to their column of
    ent_layers[0].
    """

    ent_layers: list
    rel_layers: list
    children: list
    inverse: np.ndarray


def distinct_layers(sample, items, H):
    """The receptive fields of many items, merged per hop.

    Holds the same entities as batched_layers(sample, items, H) but each
    only once per hop. Deduplication marks a boolean table over the entities
    instead of sorting, so its cost is one pass over the table per hop.
    """
    items = np.asarray(items, dtype=np.int64)
    seen = np.zeros(sample.neighbors.shape[0], dtype=bool)

    def dedupe(idx):
        seen[:] = False
        seen[idx] = True
        return np.flatnonzero(seen), np.cumsum(seen)[idx] - 1

    ents, inverse = dedupe(items)
    ent_layers = [ents[None, :]]
    rel_layers = [np.empty((1, 0), dtype=np.int64)]
    children = []
    for _ in range(H):
        prev = ent_layers[-1][0]
        ents, child = dedupe(sample.neighbors[prev])
        ent_layers.append(ents[None, :])
        rel_layers.append(sample.relations[prev].reshape(1, -1))
        children.append(child)
    return DistinctLayers(ent_layers, rel_layers, children, inverse)
