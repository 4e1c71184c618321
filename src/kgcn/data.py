"""Ratings ingestion and preprocessing.

Pipeline: load delimited ratings as user, item and rating columns -> code
users in sorted raw-key order and items in first-appearance order -> keep the
rows at or above the rating threshold (if any) and deduplicate them into
(user, raw item) positives -> map items onto knowledge-graph entity indices
(items occupy a prefix of entity index space; unmapped items are dropped and
counted) -> one sorted, deduplicated key per (user, entity) positive, with
users densified in sorted raw-key order -> for each user, in that order, draw
min(p, u) negatives without replacement from the u mapped entities the user
has no positive for -> join positives and negatives sorted by (user, item) ->
split 6:2:2 (configurable) into train/validation/test.

Negatives are drawn once here, not resampled per epoch, so the validation
and test label sets are fixed and well defined. All steps are deterministic
given the seed; rerunning the pipeline reproduces byte-identical outputs.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .graph import (DECIMAL, INDEX_LIMIT, read_int_table, read_lines, require_rows,
                    text_lines, write_int_table)

log = logging.getLogger(__name__)

DELIMITERS = {"tab": "\t", "comma": ",", "double-colon": "::", "semicolon": ";"}


@dataclass
class InteractionDataset:
    """Labeled (user, item) records with dense indices.

    users/items/labels are parallel int64 arrays; labels are 0/1. items are
    entity indices (the item prefix of entity index space), num_items is the
    size of that prefix.
    """

    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray
    num_users: int
    num_items: int

    def __len__(self):
        return len(self.labels)

    def subset(self, idx):
        return InteractionDataset(
            users=self.users[idx],
            items=self.items[idx],
            labels=self.labels[idx],
            num_users=self.num_users,
            num_items=self.num_items,
        )


@dataclass
class SplitDataset:
    train: InteractionDataset
    validation: InteractionDataset
    test: InteractionDataset
    seed: int


def load_ratings(path, delimiter, skip_header):
    """Read a delimited ratings file into three columns in file order: user
    keys and item keys (lists of str) and ratings (a float64 array).

    Each non-empty line needs at least user, item, rating fields; extra
    trailing fields (e.g. timestamps) are ignored. Fields may be wrapped in
    double quotes. A rating is an ASCII decimal float such as 4, 4.5 or 1e0;
    a malformed line, or one that is not UTF-8, raises ParseError with the
    line number.
    """
    users, items, ratings = [], [], []
    for line_no, line in text_lines(path):
        if not line.strip() or (skip_header and line_no == 1):
            continue
        parts = [p.strip().strip('"') for p in line.split(delimiter, 3)[:3]]
        if len(parts) < 3:
            raise ParseError(path, line_no, f"expected >=3 fields, got {len(parts)}")
        user, item = parts[0], parts[1]
        if not user or not item:
            raise ParseError(path, line_no, "empty user or item key")
        try:
            if not parts[2].isascii() or "_" in parts[2]:
                raise ValueError   # float() reads "1_0" as 10.0 and "\u0661" as 1.0
            rating = float(parts[2])
        except ValueError:
            raise ParseError(path, line_no, f"bad rating value {parts[2]!r}") from None
        if not math.isfinite(rating):
            raise ParseError(path, line_no, f"non-finite rating {parts[2]!r}")
        users.append(user)
        items.append(item)
        ratings.append(rating)
    return users, items, np.array(ratings, dtype=np.float64)


def load_item2entity(path):
    """Read the two-column item -> entity-index mapping file.

    Lines are 'raw_item_id<TAB>entity_id', the entity an ASCII decimal
    integer as in an integer table. An item listed twice is an error.
    """
    mapping = {}
    for line_no, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 2 fields, got {len(parts)}")
        item, entity = parts[0].strip(), parts[1].strip()
        if item in mapping:
            raise DataError(f"{path}:{line_no}: duplicate mapping for item {item!r}")
        if not DECIMAL.fullmatch(entity):
            raise ParseError(path, line_no, f"bad entity index {entity!r}")
        mapping[item] = int(entity)
        if not 0 <= mapping[item] < INDEX_LIMIT:
            raise ParseError(path, line_no, f"entity index outside [0, {INDEX_LIMIT})")
    return mapping


def split(dataset, ratios, seed):
    """Uniform random partition into train/validation/test by ratio.

    Sizes follow the largest-remainder rounding of the normalized ratios, so
    they match the exact proportions within one record. Deterministic given
    the seed.
    """
    if len(ratios) != 3 or not all(0 <= r < np.inf for r in ratios) or sum(ratios) <= 0:
        raise ConfigError(f"split ratios need three finite parts >= 0, not all 0; got {ratios}")
    n = len(dataset)
    total = float(sum(ratios))
    exact = [n * r / total for r in ratios]
    sizes = [int(np.floor(x)) for x in exact]
    remainders = [x - s for x, s in zip(exact, sizes)]
    for _ in range(n - sum(sizes)):
        i = int(np.argmax(remainders))
        sizes[i] += 1
        remainders[i] = -1.0
    for part, (size, ratio) in enumerate(zip(sizes, ratios)):
        if size == 0 and ratio > 0 and n >= 3:
            log.warning("split part %d received zero records (ratio %s)", part, ratio)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    a, b = sizes[0], sizes[0] + sizes[1]
    return SplitDataset(
        train=dataset.subset(np.sort(perm[:a])),
        validation=dataset.subset(np.sort(perm[a:b])),
        test=dataset.subset(np.sort(perm[b:])),
        seed=seed,
    )


def write_final_ratings(path, dataset):
    """Write final_ratings.txt: one (user, item, label) row per record."""
    write_int_table(path, (dataset.users, dataset.items, dataset.labels))


def read_final_ratings(path, num_users, num_items):
    """Read final_ratings.txt, an integer table of (user, item, label) rows,
    into an InteractionDataset over num_users users and num_items items. A
    label other than 0/1 and an index outside those counts are parse errors:
    numpy would wrap or reject such an index later."""
    table = read_int_table(path, 3)
    if not len(table):
        raise DataError(f"{path}: no interactions")
    users, items, labels = np.ascontiguousarray(table.T)
    require_rows(path, table, {
        "label must be 0 or 1": (labels == 0) | (labels == 1),
        f"user index outside [0, {num_users})": (0 <= users) & (users < num_users),
        f"item index outside [0, {num_items})": (0 <= items) & (items < num_items),
    })
    return InteractionDataset(users=users, items=items, labels=labels,
                              num_users=num_users, num_items=num_items)


def preprocess(ratings_path, mapping_path, delimiter="\t", threshold=None,
               seed=0, skip_header=False):
    """Run the full ingestion pipeline.

    Returns (dataset, user_index, item2entity, stats) where stats carries the
    headline dataset counts. A (user, raw item) pair is positive when one of
    its ratings reaches the threshold (any rating, with none); interactions
    and dropped_unmapped count the distinct positive pairs whose raw item is
    mapped and unmapped, so two raw items on one entity count twice.
    """
    users, items, ratings = load_ratings(ratings_path, delimiter=delimiter,
                                         skip_header=skip_header)
    item2entity = load_item2entity(mapping_path)
    # dicts, not numpy str_ arrays, code the keys: those drop trailing NULs
    user_keys = sorted(set(users))
    user_code = {user: i for i, user in enumerate(user_keys)}
    item_code = {item: i for i, item in enumerate(dict.fromkeys(items))}
    users = np.fromiter(map(user_code.__getitem__, users), np.int64, len(users))
    items = np.fromiter(map(item_code.__getitem__, items), np.int64, len(items))
    if threshold is not None:
        positive = ratings >= threshold
        users, items = users[positive], items[positive]
    users, items = np.divmod(np.unique(users * len(item_code) + items), len(item_code))
    universe = np.unique(np.fromiter(item2entity.values(), dtype=np.int64))
    # each pair's entity as its rank in universe, -1 if unmapped; ranks, not entity
    # ids, keep the keys below inside int64 whatever ids the mapping file holds
    entity = np.array([item2entity.get(item, -1) for item in item_code], dtype=np.int64)
    rank = np.where(entity < 0, -1, np.searchsorted(universe, entity))[items]
    mapped = rank >= 0
    interactions = int(np.count_nonzero(mapped))
    dropped = len(mapped) - interactions
    if dropped:
        log.info("excluded %d positives whose items have no entity mapping", dropped)
    if not interactions:
        raise DataError("no interactions survive preprocessing")
    present, users = np.unique(users[mapped], return_inverse=True)
    user_index = {user_keys[code]: i for i, code in enumerate(present.tolist())}
    keys = np.unique(users * len(universe) + rank[mapped])
    users, ranks = np.divmod(keys, len(universe))
    items = universe[ranks]
    bounds = np.searchsorted(users, np.arange(len(user_index) + 1))
    rng = np.random.default_rng(seed)
    drawn = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        unwatched = np.delete(universe, ranks[lo:hi])
        k = min(hi - lo, len(unwatched))
        drawn.append(rng.choice(unwatched, size=k, replace=False) if k else unwatched[:0])
    users = np.concatenate([users, np.repeat(np.arange(len(user_index)), list(map(len, drawn)))])
    items = np.concatenate([items, *drawn])
    labels = np.repeat(np.array([1, 0], dtype=np.int64), [len(keys), len(users) - len(keys)])
    order = np.lexsort((items, users))
    dataset = InteractionDataset(users=users[order], items=items[order], labels=labels[order],
                                 num_users=len(user_index), num_items=int(universe[-1]) + 1)
    stats = {
        "users": dataset.num_users,
        "items": len(item2entity),
        "interactions": interactions,
        "dropped_unmapped": dropped,
    }
    return dataset, user_index, item2entity, stats
