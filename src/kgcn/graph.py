"""Knowledge-graph storage: triple loading, undirected adjacency, fixed-size
neighbor sampling and the layered receptive fields of a batch of records.

The graph is treated undirected: every triple contributes both directions
with the same relation index. Entities with no edges at all get K copies of
a self-loop carrying a reserved relation index (== num_relations), so every
entity has exactly K sampled (neighbor, relation) pairs and downstream
shapes stay fixed.

Because the sample is fixed per entity, an entity's representation after an
aggregation iteration depends only on the user, the entity and the
iteration. batched_layers therefore lays a batch's receptive fields out as
nodes, one per distinct (user, entity) pair within a hop, each pointing at
its K sampled children in the next hop: the K-ary tree of every record,
with its repeats merged.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParseError

# Entity and relation indices stay below this, so batched_layers' int64 node
# keys and a checkpoint header's uint32 counts hold any of them.
INDEX_LIMIT = 2 ** 31


def text_lines(path):
    """(line number, line) of each line of a UTF-8 text file; a file that is
    not UTF-8 is a ParseError naming it and its first undecodable line."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            yield from enumerate(f, start=1)
        except UnicodeDecodeError:
            raise ParseError(path, _first_undecodable_line(path), "not UTF-8 text") from None


def _first_undecodable_line(path):
    with open(path, "rb") as f:
        for line_no, line in enumerate(f.read().splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_no


def read_lines(path):
    """(line number, stripped line) of each non-blank line of text_lines(path)."""
    for line_no, line in text_lines(path):
        line = line.strip()
        if line:
            yield line_no, line


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
    for line_no, line in read_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, line_no, f"expected 3 fields, got {len(parts)}")
        try:
            h, r, t = (int(p) for p in parts)
        except ValueError:
            raise ParseError(path, line_no, f"non-integer field in {parts}") from None
        if not (0 <= h < INDEX_LIMIT and 0 <= r < INDEX_LIMIT and 0 <= t < INDEX_LIMIT):
            raise ParseError(path, line_no, f"index outside [0, {INDEX_LIMIT})")
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


class NodeLayers(NamedTuple):
    """A batch's receptive fields, one node per distinct (user, entity) per hop.

    ent_layers[h] is (n_h,): the entity of each node at hop h, the nodes in
    ascending (user, entity) order. node_users[h] is (n_h,): each node's
    user, as an index into user_idx, the batch's distinct users ascending.
    rel_layers[h + 1] and children[h] are (n_h, K): the sampled relations of
    hop h's nodes and where their K sampled children sit in hop h + 1;
    rel_layers[0] is an empty placeholder. inverse maps each record to its
    hop-0 node.
    """

    ent_layers: list
    node_users: list
    rel_layers: list
    children: list
    inverse: np.ndarray
    user_idx: np.ndarray


def _distinct(keys, size):
    """The distinct keys in [0, size), ascending, and each key's index among
    them: by a boolean table over [0, size) when it holds at most four
    entries per key, as for one user's catalogue, otherwise by a sort."""
    keys = keys.ravel()
    if size <= 4 * keys.size:
        seen = np.zeros(size, dtype=bool)
        seen[keys] = True
        return np.flatnonzero(seen), np.cumsum(seen)[keys] - 1
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq, inverse.ravel()


def batched_layers(sample, users, items, H):
    """The NodeLayers of the records (users[b], items[b]) to depth H; a node's
    key is user * E + entity, so one dedupe per hop orders the nodes."""
    E, K = sample.neighbors.shape
    users = np.asarray(users, dtype=np.int64)
    user_idx, user_of = _distinct(users, int(users.max(initial=-1)) + 1)
    size = user_idx.size * E
    nodes, inverse = _distinct(user_of * E + np.asarray(items, dtype=np.int64), size)
    ent_layers, node_users = [nodes % E], [nodes // E]
    rel_layers, children = [np.empty((0, K), dtype=np.int64)], []
    for _ in range(H):
        ents = ent_layers[-1]
        nodes, child = _distinct(node_users[-1][:, None] * E + sample.neighbors[ents], size)
        rel_layers.append(sample.relations[ents])
        children.append(child.reshape(ents.size, K))
        ent_layers.append(nodes % E)
        node_users.append(nodes // E)
    return NodeLayers(ent_layers, node_users, rel_layers, children, inverse, user_idx)
