"""Ratings ingestion and preprocessing.

Pipeline: load delimited ratings -> collapse to implicit-feedback positives
(optional rating threshold) -> map items onto knowledge-graph entity indices
(items occupy a prefix of entity index space; unmapped items are dropped and
counted) -> from here on int64 arrays: one sorted, deduplicated key per
(user, entity) positive, with users densified in sorted raw-key order -> for
each user, in that order, draw min(p, u) negatives without replacement from
the u mapped entities the user has no positive for -> join positives and
negatives sorted by (user, item) -> split 6:2:2 (configurable) into
train/validation/test.

Negatives are drawn once here, not resampled per epoch, so the validation
and test label sets are fixed and well defined. All steps are deterministic
given the seed; rerunning the pipeline reproduces byte-identical outputs.
"""

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .graph import (INDEX_LIMIT, read_int_table, read_lines, require_rows, text_lines,
                    write_int_table)

log = logging.getLogger(__name__)

DELIMITERS = {"tab": "\t", "comma": ",", "double-colon": "::", "semicolon": ";"}


class RawRating(NamedTuple):
    user_id: str
    item_id: str
    rating: float


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


def load_ratings(path, delimiter="\t", skip_header=False):
    """Read a delimited ratings file into RawRating records, order preserved.

    Each non-empty line needs at least user, item, rating fields; extra
    trailing fields (e.g. timestamps) are ignored. Fields may be wrapped in
    double quotes. A malformed line, or one that is not UTF-8, raises
    ParseError with the line number.
    """
    ratings = []
    for line_no, line in text_lines(path):
        if not line.strip():
            continue
        if skip_header and line_no == 1:
            continue
        parts = [p.strip().strip('"') for p in line.split(delimiter)]
        if len(parts) < 3:
            raise ParseError(path, line_no, f"expected >=3 fields, got {len(parts)}")
        user, item = parts[0], parts[1]
        if not user or not item:
            raise ParseError(path, line_no, "empty user or item key")
        try:
            rating = float(parts[2])
        except ValueError:
            raise ParseError(path, line_no, f"bad rating value {parts[2]!r}") from None
        if not np.isfinite(rating):
            raise ParseError(path, line_no, f"non-finite rating {parts[2]!r}")
        ratings.append(RawRating(user, item, rating))
    return ratings


def implicitize(ratings, threshold=None):
    """Convert explicit ratings to implicit-feedback positives.

    Duplicate (user, item) pairs collapse to one record keeping the maximum
    rating, then the threshold (if any) is applied: kept iff rating >=
    threshold. With no threshold every rated pair counts as positive.
    Returns (user, item) pairs in first-appearance order.
    """
    best = {}
    order = []
    for r in ratings:
        key = (r.user_id, r.item_id)
        if key not in best:
            best[key] = r.rating
            order.append(key)
        elif r.rating > best[key]:
            best[key] = r.rating
    if threshold is None:
        return list(order)
    return [key for key in order if best[key] >= threshold]


def load_item2entity(path):
    """Read the two-column item -> entity-index mapping file.

    Lines are 'raw_item_id<TAB>entity_id'. An item listed twice is an error.
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
        try:
            mapping[item] = int(entity)
        except ValueError:
            raise ParseError(path, line_no, f"bad entity index {entity!r}") from None
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
        raise ConfigError(f"bad split ratios {ratios}")
    n = len(dataset)
    if n == 0:
        raise DataError("cannot split an empty dataset")
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
    write_int_table(path, np.column_stack([dataset.users, dataset.items, dataset.labels]))


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
    headline dataset counts (positives kept, records dropped by mapping).
    """
    ratings = load_ratings(ratings_path, delimiter=delimiter, skip_header=skip_header)
    pairs = implicitize(ratings, threshold=threshold)
    item2entity = load_item2entity(mapping_path)
    mapped = [(user, item2entity[item]) for user, item in pairs if item in item2entity]
    dropped = len(pairs) - len(mapped)
    if dropped:
        log.info("excluded %d positives whose items have no entity mapping", dropped)
    if not mapped:
        raise DataError("no interactions survive preprocessing")
    user_index = {u: i for i, u in enumerate(sorted({u for u, _ in mapped}))}
    universe = np.unique(np.fromiter(item2entity.values(), dtype=np.int64))
    # key = user * |universe| + the entity's rank in universe; ranks, not entity
    # ids, keep the key inside int64 whatever ids the mapping file holds
    rank = dict(zip(universe.tolist(), range(len(universe))))
    keys = np.unique(np.array([user_index[u] * len(universe) + rank[v] for u, v in mapped],
                              dtype=np.int64))
    users, ranks = np.divmod(keys, len(universe))
    items = universe[ranks]
    bounds = np.searchsorted(users, np.arange(len(user_index) + 1))
    rng = np.random.default_rng(seed)
    drawn = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        unwatched = np.setdiff1d(universe, items[lo:hi], assume_unique=True)
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
        "interactions": len(mapped),
        "dropped_unmapped": dropped,
    }
    return dataset, user_index, item2entity, stats
