"""Shared fixtures and builders for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgcn.graph import build_adjacency, sample_neighborhood
from kgcn.numerics import SIGMOID_CLAMP

SRC = Path(__file__).resolve().parent.parent / "src"

# address space of a capped child process: room for Python and numpy, far
# below the memory of the machine the tests run on
CHILD_ADDRESS_SPACE = 3 * 2 ** 30


def _cap_address_space():
    import resource
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = CHILD_ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(hard, CHILD_ADDRESS_SPACE)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def run_capped(args, timeout=120):
    """Run `python args...` with src/ and tests/ importable, one BLAS thread,
    and an address space capped at CHILD_ADDRESS_SPACE, so that no allocation
    it makes can take the machine's memory; returns the CompletedProcess."""
    path = [str(SRC), str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, preexec_fn=_cap_address_space,
                          capture_output=True, text=True, timeout=timeout)


def random_graph(rng, num_entities, num_relations, num_triples):
    """A (num_triples, 3) array of random (head, relation, tail) rows and its
    CSR adjacency; the draws go head, relation, tail, one row at a time."""
    triples = np.array([(rng.integers(num_entities), rng.integers(num_relations),
                         rng.integers(num_entities)) for _ in range(num_triples)],
                       dtype=np.int64).reshape(-1, 3)
    return triples, build_adjacency(triples, num_entities)


def tiny_instance(seed, d=None, K=None, H=None, aggregator="sum", uniform=False):
    """Random small model + graph for gradient and oracle checks; the "mf"
    aggregator is the H=0 model."""
    from kgcn.model import ModelConfig
    from kgcn.numerics import init_params

    rng = np.random.default_rng(seed)
    E = int(rng.integers(3, 9))
    R = int(rng.integers(1, 4))
    M = int(rng.integers(2, 4))
    d = d if d is not None else int(rng.integers(1, 5))
    K = K if K is not None else int(rng.integers(1, 4))
    H = H if H is not None else int(rng.integers(1, 3))
    if aggregator == "mf":
        H = 0
    triples, adj = random_graph(rng, E, R, 2 * E)
    sample = sample_neighborhood(adj, K, int(rng.integers(10_000)), R)
    params = init_params(M, E, R, d, H, aggregator, seed=int(rng.integers(10_000)))
    config = ModelConfig(d=d, H=H, K=K, aggregator=aggregator, uniform_weights=uniform)
    return params, sample, config, M, E, R


def softmax_by_np_max(scores):
    """numerics.softmax with the row max taken by np.max's reduction, the
    form the column-by-column max must equal bit for bit."""
    scores = np.asarray(scores, dtype=np.float64)
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def sigmoid_by_branches(x):
    """numerics.sigmoid as two masked branches, 1 / (1 + exp(-x)) where x >= 0
    and exp(x) / (1 + exp(x)) elsewhere: the form the one expression must
    equal bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)


def mix_by_product(w, rows, children):
    """model._mix as one (n, K, d) product summed over K, the form the
    blocked einsum must equal bit for bit at d >= 2."""
    return np.sum(w[..., None] * rows[children], axis=1)


def write_synthetic_raw(dir_path, n_attrs=30, items_per_attr=20, n_users=150,
                        pos_per_user=6, seed=11):
    """Raw-format files for a dataset whose labels follow shared KG attributes.

    Items 0..n_items-1 are entities; each links to one attribute entity
    (n_items + group). Every user likes a handful of items from a single
    attribute group, so the KG pathway carries the label signal while
    per-item interactions stay sparse.
    """
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_items = n_attrs * items_per_attr
    with open(dir_path / "item2entity.tsv", "w") as f:
        for i in range(n_items):
            f.write(f"it{i}\t{i}\n")
    with open(dir_path / "kg.txt", "w") as f:
        for i in range(n_items):
            group = i // items_per_attr
            f.write(f"{i}\t{group % 3}\t{n_items + group}\n")
    with open(dir_path / "ratings.tsv", "w") as f:
        for u in range(n_users):
            group = u % n_attrs
            items = np.arange(group * items_per_attr, (group + 1) * items_per_attr)
            for v in rng.choice(items, size=pos_per_user, replace=False):
                f.write(f"u{u}\tit{v}\t1.0\n")
    return dir_path


@pytest.fixture(scope="session")
def synthetic_raw_dir(tmp_path_factory):
    return write_synthetic_raw(tmp_path_factory.mktemp("synth"))
