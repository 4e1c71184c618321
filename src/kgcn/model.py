"""KGCN forward pass and its exact reverse-mode gradient.

The computation per (user, item) record follows the layered receptive field:
entity representations start from the embedding table, then H aggregation
iterations each mix every node's K sampled children (softmax over
user-relation scores as the bias weights) and pass the result through a
per-iteration transform W x + b, ReLU on inner iterations and tanh on the
last. The prediction is sigmoid(<user, final item vector>). At H=0, under
the aggregator name "mf", the item vector is the item's own embedding: the
inner-product matrix-factorization baseline.

forward_layers runs on one of two layouts of the same receptive fields:
- tree (graph.batched_layers): one K-ary tree per record, K^h slots at hop h.
  Records may mix users, and backward_layers can differentiate it, so
  training, validation and CTR scoring use it.
- distinct (graph.distinct_layers): one user, each hop's distinct entities
  once, with an index to their children in the next hop. An entity's
  representation after an iteration depends only on the user, the entity
  and the iteration, because the neighbor sample is fixed per entity, so
  the tree's repeated slots need computing only once. KgcnScorer.score uses
  it when all records share one user, as when ranking a catalogue. It has
  no backward pass, and its probabilities match the tree layout's to within
  floating-point rounding of the matrix products (a few 1e-16).

All shapes carry an explicit batch axis; a single record is a batch of one.
The backward pass is written by hand and is checked against central finite
differences in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .graph import batched_layers, distinct_layers
from .numerics import GradientStore, activate, sigmoid, softmax

AGGREGATORS = ("sum", "concat", "neighbor")


@dataclass
class ModelConfig:
    d: int
    H: int
    K: int
    aggregator: str = "sum"         # one of AGGREGATORS, or "mf" at H=0
    uniform_weights: bool = False   # replace softmax bias weights by 1/K

    def validate(self):
        if self.d < 1:
            raise ConfigError(f"embedding dimension must be >= 1, got d={self.d}")
        if self.aggregator not in (*AGGREGATORS, "mf"):
            raise ConfigError(f"unknown aggregator {self.aggregator!r}")
        if self.H < 0 or (self.H == 0) != (self.aggregator == "mf"):
            raise ConfigError(f"receptive-field depth H=0 is the mf model and every other "
                              f"needs H >= 1; got H={self.H} with {self.aggregator!r}")
        if self.K < 1:
            raise ConfigError(f"neighbor sample size must be >= 1, got K={self.K}")
        return self


def aggregate(self_rep, mixed, W, b, activation, variant):
    """Combine an entity's own and neighborhood representations.

    sum: act(W (self + mixed) + b); concat: act(W [self; mixed] + b);
    neighbor: act(W mixed + b), independent of self_rep.
    """
    if variant == "sum":
        x = np.asarray(self_rep) + np.asarray(mixed)
    elif variant == "concat":
        x = np.concatenate([self_rep, mixed], axis=-1)
    elif variant == "neighbor":
        x = np.asarray(mixed)
    else:
        raise ConfigError(f"unknown aggregator {variant!r}")
    W = np.asarray(W)
    if W.shape[1] != x.shape[-1]:
        raise ConfigError(f"weight shape {W.shape} does not accept input dim {x.shape[-1]}")
    return activate(x @ W.T + b, activation)


@dataclass
class LayerState:
    """Everything the backward pass needs from one forward call.

    levels[it][hop] is the (B, K^hop, d) representation entering aggregation
    iteration `it` (levels[0] holds the raw embeddings, levels[H][0] the final
    item vectors). weights[hop] are the (B, K^hop, K) mixing weights, shared
    by all iterations because they depend only on the user and the relations.
    In the distinct layout K^hop becomes n_hop, the hop's distinct entities.
    """

    user_idx: np.ndarray
    user_vec: np.ndarray
    ent_layers: list
    rel_layers: list
    children: list          # None in the tree layout
    levels: list
    mixed: dict
    weights: list
    item_vec: np.ndarray    # (B, d) final item representation v^u; (n_0, d) distinct
    logits: np.ndarray      # (B,); (n_0,) distinct
    probs: np.ndarray       # (B,); (n_0,) distinct
    config: ModelConfig


def _iteration_activation(it, H):
    return "relu" if it < H - 1 else "tanh"


def forward_layers(user_idx, user_vec, ent_layers, rel_layers, params, config,
                   children=None):
    """Batched KGCN forward over explicit index layers. Returns (probs, LayerState).

    With children=None the layers are the tree layout of batched_layers:
    ent_layers[h] is (B, K^h), row b is record b's receptive field, and
    entry j of a hop has its K children at entries j*K .. j*K+K-1 of the
    next. With children given they are the distinct layout of
    distinct_layers: one user (B == 1), ent_layers[h] is (1, n_h) and
    children[h] (n_h, K) indexes each entity's children in hop h + 1; probs
    then has one entry per entry of ent_layers[0].
    """
    B, d = user_vec.shape
    K, H = config.K, config.H
    levels = [[params.entity[idx] for idx in ent_layers]]
    if not config.uniform_weights:
        # <u, r> depends only on (user, relation): score every relation once
        rel_scores = np.sum(user_vec[:, None, :] * params.relation, axis=-1)  # (B, R + 1)
    weights = []
    for hop in range(H):
        rel = rel_layers[hop + 1]
        if config.uniform_weights:
            w = np.full((B, rel.shape[1] // K, K), 1.0 / K)
        else:
            w = softmax(np.take_along_axis(rel_scores, rel, axis=1).reshape(B, -1, K))
        weights.append(w)
    mixed_cache = {}
    for it in range(H):
        act = _iteration_activation(it, H)
        cur = levels[it]
        nxt = []
        for hop in range(H - it):
            if children is None:
                neigh = cur[hop + 1].reshape(B, -1, K, d)
            else:
                neigh = cur[hop + 1][:, children[hop]]
            mixed = np.sum(weights[hop][..., None] * neigh, axis=2)
            mixed_cache[(it, hop)] = mixed
            out = aggregate(
                cur[hop], mixed,
                params.hop_weights[it], params.hop_biases[it],
                act, config.aggregator,
            )
            nxt.append(out)
        if not all(np.all(np.isfinite(a)) for a in nxt):
            raise NumericalError(f"non-finite representation at aggregation iteration {it + 1}")
        levels.append(nxt)
    item_vec = levels[H][0].reshape(-1, d)
    logits = np.sum(user_vec * item_vec, axis=1)
    probs = sigmoid(logits)
    state = LayerState(
        user_idx=np.asarray(user_idx, dtype=np.int64),
        user_vec=user_vec,
        ent_layers=ent_layers,
        rel_layers=rel_layers,
        children=children,
        levels=levels,
        mixed=mixed_cache,
        weights=weights,
        item_vec=item_vec,
        logits=logits,
        probs=probs,
        config=config,
    )
    return probs, state


def backward_layers(state, params, upstream, grads=None):
    """Exact gradients of the forward pass w.r.t. every touched parameter.

    upstream is dL/dprob per record, shape (B,). Returns a GradientStore;
    rows of the embedding tables outside the receptive fields stay zero.
    """
    config = state.config
    if state.children is not None:
        raise ConfigError("backward needs the tree layout; a distinct-entity forward only scores")
    B, d = state.user_vec.shape
    K, H = config.K, config.H
    if grads is None:
        grads = GradientStore.zeros_like(params)
    upstream = np.asarray(upstream, dtype=np.float64)

    y = state.probs
    ds = upstream * y * (1.0 - y)                      # dL/dlogit
    du = ds[:, None] * state.item_vec                  # prediction -> user vec
    d_level = [(ds[:, None] * state.user_vec)[:, None, :]]  # dL/d v^u, (B, 1, d)

    dw_hop = [np.zeros_like(w) for w in state.weights]
    for it in reversed(range(H)):
        act = _iteration_activation(it, H)
        cur = state.levels[it]
        out = state.levels[it + 1]
        d_prev = [np.zeros_like(a) for a in cur]
        for hop in range(H - it):
            g = d_level[hop]
            a = out[hop]
            dz = g * (a > 0) if act == "relu" else g * (1.0 - a * a)
            mixed = state.mixed[(it, hop)]
            if config.aggregator == "sum":
                x = cur[hop] + mixed
            elif config.aggregator == "concat":
                x = np.concatenate([cur[hop], mixed], axis=-1)
            else:
                x = mixed
            dz2 = dz.reshape(-1, d)
            grads.hop_weights[it] += dz2.T @ x.reshape(-1, x.shape[-1])
            grads.hop_biases[it] += dz2.sum(axis=0)
            dx = (dz2 @ params.hop_weights[it]).reshape(x.shape)
            if config.aggregator == "sum":
                dself, dmixed = dx, dx
            elif config.aggregator == "concat":
                dself, dmixed = dx[..., :d], dx[..., d:]
            else:
                dself, dmixed = None, dx
            if dself is not None:
                d_prev[hop] += dself
            neigh = cur[hop + 1].reshape(B, -1, K, d)
            dw_hop[hop] += np.sum(dmixed[:, :, None, :] * neigh, axis=-1)
            d_prev[hop + 1] += (state.weights[hop][..., None] * dmixed[:, :, None, :]).reshape(B, -1, d)
        d_level = d_prev

    for hop in range(H + 1):
        np.add.at(grads.entity, state.ent_layers[hop].reshape(-1), d_level[hop].reshape(-1, d))

    if not config.uniform_weights:
        for hop in range(H):
            w = state.weights[hop]
            dwh = dw_hop[hop]
            # softmax backward, then pi = <u, r> fans out to user and relations
            dpi = w * (dwh - np.sum(dwh * w, axis=-1, keepdims=True))
            rv = params.relation[state.rel_layers[hop + 1]].reshape(B, -1, K, d)
            du = du + np.sum(dpi[..., None] * rv, axis=(1, 2))
            drel = dpi[..., None] * state.user_vec[:, None, None, :]
            np.add.at(grads.relation, state.rel_layers[hop + 1].reshape(-1), drel.reshape(-1, d))

    np.add.at(grads.user, state.user_idx, du)
    return grads


class KgcnScorer:
    """Batched scoring interface over a fixed neighbor sample."""

    def __init__(self, params, sample, config):
        config.validate()
        if sample.sample_size != config.K:
            raise ConfigError(f"neighbor sample K={sample.sample_size} != config K={config.K}")
        self.params = params
        self.sample = sample
        self.config = config

    def forward_batch(self, users, items):
        users = np.asarray(users, dtype=np.int64)
        ent_layers, rel_layers = batched_layers(self.sample, items, self.config.H)
        return forward_layers(
            users, self.params.user[users], ent_layers, rel_layers,
            self.params, self.config,
        )

    def backward_batch(self, state, upstream, grads=None):
        return backward_layers(state, self.params, upstream, grads=grads)

    def score(self, users, items):
        """Probabilities for (user, item) records.

        Records that all share one user, as when ranking a catalogue, are
        scored over each hop's distinct entities; mixed users over one tree
        per record.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.size == 0 or np.any(users != users[0]):
            probs, _ = self.forward_batch(users, items)
            return probs
        layers = distinct_layers(self.sample, items, self.config.H)
        user = users[:1]
        probs, _ = forward_layers(
            user, self.params.user[user], layers.ent_layers, layers.rel_layers,
            self.params, self.config, children=layers.children,
        )
        return probs[layers.inverse]

