"""Seeded raw-input generators for the benchmark.

Both write the three raw files that `kgcn preprocess` reads (ratings.tsv,
item2entity.tsv, kg.txt). The program never sees the seed, only the files.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class LastfmShape:
    """Sizes of the Last.FM row of the paper's Table 1."""

    users: int = 1872
    items: int = 3846
    entities: int = 9366
    relations: int = 60
    triples: int = 15518
    positives: int = 41000


def write_lastfm_like(dir_path, seed, shape=LastfmShape()):
    """Random KG and implicit ratings with the given counts.

    Items are entities 0..items-1. Triple heads are items or other entities,
    tails any entity, relations Zipf-skewed, so degrees vary and some
    entities stay isolated. Each user gets a geometric number of positives
    drawn without replacement from a Zipf item popularity. Negatives are
    drawn uniformly, so item popularity is the only signal to learn; the KG
    carries none.
    """
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_items, n_ent = shape.items, shape.entities

    rel_p = 1.0 / np.arange(1, shape.relations + 1)
    heads = np.where(rng.random(shape.triples) < 0.7,
                     rng.integers(n_items, size=shape.triples),
                     rng.integers(n_ent, size=shape.triples))
    rels = rng.choice(shape.relations, size=shape.triples, p=rel_p / rel_p.sum())
    tails = rng.integers(n_ent, size=shape.triples)
    with open(dir_path / "kg.txt", "w", encoding="utf-8") as f:
        f.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in zip(heads, rels, tails))

    with open(dir_path / "item2entity.tsv", "w", encoding="utf-8") as f:
        f.writelines(f"i{i}\t{i}\n" for i in range(n_items))

    pop = 1.0 / np.arange(1, n_items + 1) ** 0.8
    pop = pop[rng.permutation(n_items)]
    pop /= pop.sum()
    mean = shape.positives / shape.users
    counts = np.clip(rng.geometric(1.0 / mean, size=shape.users), 1, n_items // 2)
    with open(dir_path / "ratings.tsv", "w", encoding="utf-8") as f:
        for u, c in enumerate(counts):
            items = rng.choice(n_items, size=int(c), replace=False, p=pop)
            f.writelines(f"u{u}\ti{v}\t1.0\n" for v in items)
    return dir_path


# Sizes of the planted-signal data used by the CLI tests.
PLANTED_ATTRS = 30
PLANTED_ITEMS_PER_ATTR = 20
PLANTED_USERS = 150
PLANTED_POS_PER_USER = 6


def write_planted(dir_path, seed):
    """Raw files whose labels follow shared KG attributes.

    Item i links to attribute entity items + i // PLANTED_ITEMS_PER_ATTR.
    Every user likes a few items of a single attribute group, so the label
    signal runs through the KG while per-item interactions stay sparse: KGCN
    can learn it and matrix factorization cannot.
    """
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_items = PLANTED_ATTRS * PLANTED_ITEMS_PER_ATTR
    with open(dir_path / "item2entity.tsv", "w", encoding="utf-8") as f:
        f.writelines(f"it{i}\t{i}\n" for i in range(n_items))
    with open(dir_path / "kg.txt", "w", encoding="utf-8") as f:
        for i in range(n_items):
            group = i // PLANTED_ITEMS_PER_ATTR
            f.write(f"{i}\t{group % 3}\t{n_items + group}\n")
    with open(dir_path / "ratings.tsv", "w", encoding="utf-8") as f:
        for u in range(PLANTED_USERS):
            group = u % PLANTED_ATTRS
            items = np.arange(group * PLANTED_ITEMS_PER_ATTR, (group + 1) * PLANTED_ITEMS_PER_ATTR)
            for v in rng.choice(items, size=PLANTED_POS_PER_USER, replace=False):
                f.write(f"u{u}\tit{v}\t1.0\n")
    return dir_path
