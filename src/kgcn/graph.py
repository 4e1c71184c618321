"""Knowledge-graph storage: integer tables, the CSR undirected adjacency,
fixed-size neighbor sampling and the layered receptive fields of a batch of
records.

kg.txt (head, relation, tail) and final_ratings.txt (user, item, label) are
integer tables: one row per line, each field an ASCII decimal integer (an
optional sign, then digits 0-9) in int64's range, fields separated by
whitespace and blank lines skipped. read_int_table and write_int_table are
their one reader and writer; the writer separates fields by tabs.

The graph is treated undirected: every triple contributes both directions
with the same relation index. build_adjacency stores it as CSR. Triple i
gives the source pairs 2i (head -> tail) and 2i + 1 (tail -> head), and a
stable sort by source puts entity v's pairs, in file order, at rows
offsets[v]:offsets[v + 1] of pairs, a (2T, 2) array holding the neighbor
column and the relation column. Duplicate triples are kept, so a repeated
fact is drawn more often. Adjacency.degree is the one count of each entity's
pairs; a self-loop (v, r, v) gives v the pair (v, r) twice, so it counts twice.

sample_neighborhood draws every entity's K (neighbor, relation) pairs at
once from one numpy Generator seeded with the run's seed: first one uniform
key per pair, then K uniforms per entity with fewer than K pairs.
- An entity with K or more pairs takes the K of them with the smallest keys
  (one lexsort by entity, then key): K draws without replacement.
- An entity with 1..K-1 pairs takes pair floor(u * degree) for each of its
  K uniforms u: K draws with replacement.
- An entity with no pairs gets K copies of a self-loop carrying a reserved
  relation index (== num_relations).
So every entity has exactly K sampled pairs: the sample is two (E, K) arrays,
neighbors and relations, and downstream shapes stay fixed.

Because the sample is fixed per entity, an entity's representation after an
aggregation iteration depends only on the user, the entity and the
iteration. batched_layers therefore lays a batch's receptive fields out as
nodes, one per distinct (user, entity) pair within a hop, each pointing at
its K sampled children in the next hop: the K-ary tree of every record, with
its repeats merged. Hop H enters only as raw embeddings, the same for every
user, so it has no nodes: hop H - 1's children are entity ids.
"""

import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParseError

# Entity and relation indices stay below this, so batched_layers' int64 node
# keys and a checkpoint header's uint32 counts hold any of them.
INDEX_LIMIT = 2 ** 31

WRITE_ROWS = 8192   # write_int_table holds the text of this many rows at a time

DECIMAL = re.compile(r"[+-]?[0-9]+")   # an integer table's field, before its range check


def text_lines(path):
    """(line number, line) of each line of a UTF-8 text file, newline removed;
    a file that is not UTF-8 is a ParseError naming its first undecodable line,
    and one that starts with a byte-order mark, which would join its first field,
    is a ParseError at line 1."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(path, len(raw[:e.start + 1].splitlines()), "not UTF-8 text") from None
    if text.startswith("\ufeff"):
        raise ParseError(path, 1, "starts with a UTF-8 byte-order mark")
    return enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1)


def read_lines(path):
    """(line number, stripped line) of each non-blank line of text_lines(path)."""
    for line_no, line in text_lines(path):
        line = line.strip()
        if line:
            yield line_no, line


def _is_row(fields, columns):
    return len(fields) == columns and all(
        DECIMAL.fullmatch(f) and -2 ** 63 <= int(f) < 2 ** 63 for f in fields)


def read_int_table(path, columns):
    """The (rows, columns) int64 array of an integer table; a line that is
    not `columns` integers is a ParseError naming the first such line."""
    try:
        with open(path, encoding="utf-8") as f:
            if all(line.isspace() for line in f):   # np.loadtxt warns on a table without rows
                return np.empty((0, columns), dtype=np.int64)
        table = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2, encoding="utf-8")
    except ValueError:   # a UnicodeDecodeError too
        table = None
    if table is None or table.shape[1] != columns:
        line_no = next(n for n, line in read_lines(path) if not _is_row(line.split(), columns))
        raise ParseError(path, line_no, f"expected {columns} integers in int64's range")
    return table


def require_rows(path, table, checks):
    """Raise a ParseError at the line of the first row of `table`, read from
    `path` by read_int_table, that fails one of `checks`: a dict from
    message to a mask of the rows that pass. The first failed check names it."""
    passed = np.logical_and.reduce(list(checks.values()))
    if not passed.all():
        row = int(np.argmin(passed))
        message = next(m for m, ok in checks.items() if not ok[row])
        line_no = next(islice(read_lines(path), row, None))[0]
        raise ParseError(path, line_no, f"{message}, got {table[row].tolist()}")


def write_int_table(path, columns):
    """Write equal-length 1-D integer arrays as the columns of an integer
    table, one row per line, stacking WRITE_ROWS rows at a time."""
    row = "\t".join(["%d"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        for start in range(0, len(columns[0]), WRITE_ROWS):
            chunk = np.column_stack([column[start:start + WRITE_ROWS] for column in columns])
            f.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def load_kg(path):
    """Read kg.txt, an integer table of (head, relation, tail) rows.

    Returns (triples, num_entities, num_relations): triples is the (T, 3)
    int64 array, and the counts are 1 + the largest index (0 for no triple).
    """
    triples = read_int_table(path, 3)
    require_rows(path, triples, {
        f"index outside [0, {INDEX_LIMIT})": ((0 <= triples) & (triples < INDEX_LIMIT)).all(axis=1),
    })
    num_entities = int(triples[:, 0::2].max(initial=-1)) + 1
    return triples, num_entities, int(triples[:, 1].max(initial=-1)) + 1


@dataclass(frozen=True, eq=False)
class Adjacency:
    """The CSR adjacency of a knowledge graph (layout in the module docstring).

    len() is the number of entities E, and adjacency[v] is entity v's
    (neighbor, relation) pairs, a (degree, 2) view of pairs.
    """

    offsets: np.ndarray   # (E + 1,) int64, ascending from 0
    pairs: np.ndarray     # (2T, 2) int64: the neighbor column, then the relation column

    def __len__(self):
        return self.offsets.size - 1

    def __getitem__(self, v):
        if not 0 <= v < len(self):
            raise IndexError(f"entity {v} outside [0, {len(self)})")
        return self.pairs[self.offsets[v]:self.offsets[v + 1]]

    @property
    def degree(self):
        """(E,) int64: each entity's number of pairs."""
        return np.diff(self.offsets)


def build_adjacency(triples, num_entities):
    """The undirected CSR Adjacency of a (T, 3) triple array over
    num_entities entities, which must exceed every index in it."""
    # triple (h, r, t) gives h the pair (t, r), then t the pair (h, r)
    order = np.argsort(triples[:, 0::2].ravel(), kind="stable")
    offsets = np.zeros(num_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(triples[:, 0::2].ravel(), minlength=num_entities), out=offsets[1:])
    return Adjacency(offsets, triples[:, [2, 1, 0, 1]].reshape(-1, 2)[order])


@dataclass
class NeighborSample:
    """Fixed mapping entity -> exactly K sampled (neighbor, relation) pairs.

    Computed once per run and reused everywhere so receptive fields are
    stable across epochs.
    """

    neighbors: np.ndarray   # (E, K) int64
    relations: np.ndarray   # (E, K) int64


def sample_neighborhood(adjacency, K, seed, num_relations):
    """Draw the fixed-size neighbor sample of every entity of an Adjacency
    by the sampling rule of the module docstring. Deterministic given the seed."""
    E, degree, start = len(adjacency), adjacency.degree, adjacency.offsets[:-1]
    rng = np.random.default_rng(seed)
    keys = rng.random(len(adjacency.pairs))
    # each entity's pairs in ascending key order, entities staying in CSR order
    by_key = np.lexsort((keys, np.repeat(np.arange(E), degree)))
    full, few = degree >= K, (degree > 0) & (degree < K)
    slots = np.empty((E, K), dtype=np.int64)
    slots[full] = by_key[start[full, None] + np.arange(K)]
    draws = rng.random((np.count_nonzero(few), K))
    slots[few] = start[few, None] + (draws * degree[few, None]).astype(np.int64)
    neighbors = np.repeat(np.arange(E, dtype=np.int64)[:, None], K, axis=1)
    relations = np.full((E, K), num_relations, dtype=np.int64)
    linked = degree > 0
    neighbors[linked], relations[linked] = np.moveaxis(adjacency.pairs[slots[linked]], -1, 0)
    return NeighborSample(neighbors, relations)


class NodeLayers(NamedTuple):
    """A batch's receptive fields, one node per distinct (user, entity) per hop < max(H, 1).

    ent_layers[h] is (n_h,): the entity of each node at hop h, the nodes in
    ascending (user, entity) order. node_users[h] is (n_h,): each node's
    user, as an index into user_idx, the batch's distinct users ascending.
    rel_layers[h + 1] and children[h] are (n_h, K): the sampled relations of
    hop h's nodes and where their K sampled children sit in hop h + 1, or at
    h = H - 1 the children's entity ids; rel_layers[0] is an empty
    placeholder. inverse maps each record to its hop-0 node.
    """

    ent_layers: list
    node_users: list
    rel_layers: list
    children: list
    inverse: np.ndarray
    user_idx: np.ndarray


def _distinct(keys, size):
    """The distinct keys in [0, size), ascending, and each key's index among
    them, shaped like keys: by a boolean table over [0, size) when it holds
    at most four entries per key (one user's catalogue), else by a sort."""
    if size <= 4 * keys.size:
        seen = np.zeros(size, dtype=bool)
        seen[keys] = True
        return np.flatnonzero(seen), np.cumsum(seen)[keys] - 1
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq, inverse.reshape(keys.shape)


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
    for hop in range(H):
        ents = ent_layers[hop]
        rel_layers.append(sample.relations[ents])
        children.append(sample.neighbors[ents])   # hop H - 1's children stay entity ids
        if hop < H - 1:
            nodes, children[hop] = _distinct(node_users[hop][:, None] * E + children[hop], size)
            ent_layers.append(nodes % E)
            node_users.append(nodes // E)
    return NodeLayers(ent_layers, node_users, rel_layers, children, inverse, user_idx)
