"""KGCN forward pass and its exact reverse-mode gradient.

The computation per (user, item) record follows the layered receptive field:
entity representations start from the embedding table, then H aggregation
iterations each mix every node's K sampled children (softmax over
user-relation scores as the bias weights) and pass the result through a
per-iteration transform W x + b, ReLU on inner iterations and tanh on the
last. The prediction is sigmoid(<user, final item vector>). At H=0, under
the aggregator name "mf", the item vector is the item's own embedding: the
inner-product matrix-factorization baseline.

forward_layers and backward_layers run over graph.batched_layers' nodes:
one per distinct (user, entity) pair within a hop. A representation after
an iteration depends only on the user, the entity and the iteration, so
records that share a user and reach the same entity share its node, and
each node is computed once. Training, validation, CTR scoring and ranking a
catalogue for one user all take this one path. Each record's probability is
its hop-0 node's.

A score <u, r> depends only on (user, relation): forward fills one (U, R + 1)
score table per batch (all zeros for uniform weights, so exactly 1/K) and
gathers each node's K scores from the raveled table with one np.take at the
flat index user * (R + 1) + relation; backward adds the scores' gradients at
the same index. A node's mix, sum_k w_k child_k, runs over blocks of nodes
(_mix): np.take gathers a block's children and one einsum contracts them with
the weights, so forward forms no (n, K, d) array. Backward still forms two
per hop: the children gather that gives dL/dw, and the weighted rows it
scatters onto the children. Every row gather is np.take(table, idx, axis=0),
the same rows as table[idx], made faster.

backward_layers takes dL/dlogit per record; each of its steps is the adjoint
of one forward step, so the user and relation gradients of the scores are two
matrix products with the table's gradient. It is checked against central
finite differences in the tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .graph import batched_layers
from .numerics import ModelConfig, activate, sigmoid, softmax


def _aggregator_input(self_rep, mixed, variant):
    """aggregate's input: self + mixed (sum), [self; mixed] (concat), else mixed (neighbor)."""
    if variant == "sum":
        return np.asarray(self_rep) + np.asarray(mixed)
    if variant == "concat":
        return np.concatenate([self_rep, mixed], axis=-1)
    return np.asarray(mixed)


def _input_adjoint(dx, variant):
    """Adjoint of _aggregator_input: (dL/dself, dL/dmixed); neighbor's dL/dself is 0."""
    if variant == "concat":
        d = dx.shape[-1] // 2
        return dx[..., :d], dx[..., d:]
    return (dx if variant == "sum" else 0.0), dx


def aggregate(self_rep, mixed, W, b, activation, variant):
    """Combine an entity's own and neighborhood representations.

    sum: act(W (self + mixed) + b); concat: act(W [self; mixed] + b);
    neighbor: act(W mixed + b), independent of self_rep.
    """
    x = _aggregator_input(self_rep, mixed, variant)
    return activate(x @ W.T + b, activation)


@dataclass
class LayerState:
    """Everything the backward pass needs from one forward call.

    The first six fields are the graph.NodeLayers the forward ran over;
    user_vec holds the vectors of its user_idx. levels[it][hop] is the
    (n_hop, d) representation of hop's nodes entering aggregation iteration
    `it` (levels[0] holds the raw embeddings, levels[H][0] the final item
    vectors). weights[hop] are the (n_hop, K) mixing weights, shared by all
    iterations because they depend only on the user and the relations, and
    score_index[hop] the (n_hop, K) flat indices of their scores in the
    raveled (U, R + 1) score table.
    """

    ent_layers: list
    node_users: list
    rel_layers: list
    children: list
    inverse: np.ndarray
    user_idx: np.ndarray
    user_vec: np.ndarray
    levels: list
    mixed: dict
    weights: list
    score_index: list
    config: ModelConfig


def _iteration_activation(it, H):
    return "relu" if it < H - 1 else "tanh"


# _mix gathers children in blocks of about this many float64s (512 KiB), so
# it never forms an (n, K, d) array and each block is contracted from cache.
MIX_BLOCK = 2 ** 16


def _mix(w, rows, children):
    """mixed[n] = sum_k w[n, k] rows[children[n, k]]: (n, K) weights, (n, K)
    row indices into (m, d) rows. Each block of nodes is one np.take gather
    and one einsum. For d >= 2 the einsum adds the K terms in the order of
    np.sum(w[..., None] * rows[children], axis=1), so the sums are equal bit
    for bit; at d = 1 numpy takes another inner loop and they agree to
    rounding."""
    n, K = children.shape
    out = np.empty((n, rows.shape[1]))
    step = max(1, MIX_BLOCK // (K * rows.shape[1]))
    for s in range(0, n, step):
        np.einsum("nk,nkd->nd", w[s:s + step], np.take(rows, children[s:s + step], axis=0),
                  out=out[s:s + step])
    return out


def forward_layers(layers, params, config):
    """KGCN forward over a batch's graph.NodeLayers. Returns (probs, LayerState),
    probs holding one probability per record."""
    H = config.H
    user_vec = np.take(params.user, layers.user_idx, axis=0)
    levels = [[np.take(params.entity, ents, axis=0) for ents in layers.ent_layers]]
    if config.uniform_weights:
        rel_scores = np.zeros((user_vec.shape[0], params.relation.shape[0]))
    else:
        rel_scores = np.sum(user_vec[:, None, :] * params.relation, axis=-1)  # (U, R + 1)
    # each node's K scores, as flat indices into the raveled (U, R + 1) table
    score_index = [layers.node_users[h][:, None] * rel_scores.shape[1] + layers.rel_layers[h + 1]
                   for h in range(H)]
    weights = [softmax(np.take(rel_scores, idx)) for idx in score_index]
    mixed = {}
    for it in range(H):
        act = _iteration_activation(it, H)
        cur = levels[it]
        nxt = []
        for hop in range(H - it):
            mixed[it, hop] = _mix(weights[hop], cur[hop + 1], layers.children[hop])
            nxt.append(aggregate(cur[hop], mixed[it, hop], params.hop_weights[it],
                                 params.hop_biases[it], act, config.aggregator))
        if not all(np.all(np.isfinite(a)) for a in nxt):
            raise NumericalError(f"non-finite representation at aggregation iteration {it + 1}")
        levels.append(nxt)
    item_vec = levels[H][0]
    logits = np.sum(np.take(user_vec, layers.node_users[0], axis=0) * item_vec, axis=1)
    probs = sigmoid(logits)[layers.inverse]
    return probs, LayerState(**layers._asdict(), user_vec=user_vec, levels=levels, mixed=mixed,
                             weights=weights, score_index=score_index, config=config)


def _add_rows(out, idx, rows):
    """np.add.at(out, idx, rows): the same adds, in the same order, made over
    flat views, which numpy runs several times faster than a scatter of rows."""
    d = out.shape[-1]
    flat_idx = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    np.add.at(np.reshape(out, -1, copy=False), flat_idx, rows.ravel())


def backward_layers(state, params, dlogit, grads):
    """Exact gradients of the forward pass w.r.t. every touched parameter.

    dlogit is dL/dlogit per record, shape (B,). Adds the gradients into
    grads, a ParameterStore of params' layout, and returns it.
    """
    config = state.config
    H = config.H
    item_vec = state.levels[H][0]
    ds = np.bincount(state.inverse, weights=dlogit, minlength=item_vec.shape[0])  # per hop-0 node
    du = np.zeros_like(state.user_vec)                 # per batch user
    _add_rows(du, state.node_users[0], ds[:, None] * item_vec)
    d_level = [ds[:, None] * state.user_vec[state.node_users[0]]]  # dL/d v^u
    d_scores = np.zeros((du.shape[0], params.relation.shape[0]))   # dL/d rel_scores
    for it in reversed(range(H)):
        act = _iteration_activation(it, H)
        cur = state.levels[it]
        d_prev = [np.zeros_like(a) for a in cur]
        for hop in range(H - it):
            # levels[it + 1] = act(W x + b), x = _aggregator_input(self, mixed)
            a = state.levels[it + 1][hop]
            dz = d_level[hop] * ((a > 0) if act == "relu" else (1.0 - a * a))
            grads.hop_weights[it] += dz.T @ _aggregator_input(
                cur[hop], state.mixed[it, hop], config.aggregator)
            grads.hop_biases[it] += dz.sum(axis=0)
            d_self, d_mixed = _input_adjoint(dz @ params.hop_weights[it], config.aggregator)
            d_prev[hop] += d_self
            # mixed = sum_k w_k child_k
            w = state.weights[hop]
            children = state.children[hop]
            dw = np.sum(d_mixed[:, None, :] * np.take(cur[hop + 1], children, axis=0), axis=-1)
            _add_rows(d_prev[hop + 1], children, w[..., None] * d_mixed[:, None, :])
            # w = softmax(rel_scores.ravel()[score_index])
            dpi = w * (dw - np.sum(dw * w, axis=-1, keepdims=True))
            np.add.at(np.reshape(d_scores, -1, copy=False), state.score_index[hop], dpi)
        d_level = d_prev

    for hop in range(H + 1):
        _add_rows(grads.entity, state.ent_layers[hop], d_level[hop])
    if not config.uniform_weights:
        # rel_scores = user_vec @ relation.T (uniform weights score a constant table)
        du += d_scores @ params.relation
        grads.relation += d_scores.T @ state.user_vec
    grads.user[state.user_idx] += du
    return grads


class KgcnScorer:
    """Batched scoring interface over a fixed neighbor sample."""

    def __init__(self, params, sample, config):
        K = sample.neighbors.shape[1]
        if K != config.K:
            raise ConfigError(f"neighbor sample K={K} != config K={config.K}")
        self.params = params
        self.sample = sample
        self.config = config

    def forward_batch(self, users, items):
        layers = batched_layers(self.sample, users, items, self.config.H)
        return forward_layers(layers, self.params, self.config)

    def backward_batch(self, state, dlogit, grads):
        return backward_layers(state, self.params, dlogit, grads)

    def score(self, users, items):
        """Probabilities for (user, item) records."""
        return self.forward_batch(users, items)[0]
