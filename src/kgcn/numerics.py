"""Dense float64 kernels: parameter storage, activations, softmax, Adam,
finite-difference gradients, and the binary checkpoint format.

Everything is plain numpy in 64-bit precision so that analytic gradients can
be checked against central differences to tight tolerances.

Every trainable number lives in one contiguous float64 vector,
ParameterStore.flat, in checkpoint order: user (M, d), entity (E, d), relation
(R + 1, d), hop weights w1..wH, hop biases b1..bH. The named tables are
reshaped views of it, so a write through one shows in flat and the reverse.
Write into a view (`params.user[...] = x`), never rebind one
(`params.user = x`): Adam, the L2 term and the checkpoint read only flat.
"""

import math
import os
import struct

import numpy as np

from .errors import ConfigError, DataError, NumericalError

SIGMOID_CLAMP = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"KGCN"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<7I")  # version, M, E, R + 1, d, H, aggregator tag

# aggregator tags in the checkpoint header; bit 3 marks uniform neighbor weights
_AGG_TAGS = {"sum": 0, "concat": 1, "neighbor": 2, "mf": 3}
_TAG_AGGS = {v: k for k, v in _AGG_TAGS.items()}
_UNIFORM_BIT = 8


def table_shapes(num_users, num_entities, relation_rows, d, H, aggregator):
    """Shape of every table, in the order they sit in ParameterStore.flat.

    The H hop weights are one (H, d, in_dim) block and the H biases one
    (H, d) block; in_dim is 2d for the concat aggregator, else d.
    """
    in_dim = 2 * d if aggregator == "concat" else d
    return {"user": (num_users, d), "entity": (num_entities, d), "relation": (relation_rows, d),
            "hop_weights": (H, d, in_dim), "hop_biases": (H, d)}


class ParameterStore:
    """Trainable tables as views of one flat float64 vector (see the module
    docstring for the layout); a gradient has the same layout.

    relation has one extra row (index num_relations) reserved for the
    self-loop relation given to isolated entities.
    """

    def __init__(self, flat, shapes):
        self.flat = flat
        self.shapes = shapes
        sizes = [math.prod(shape) for shape in shapes.values()]
        parts = np.split(flat, np.cumsum(sizes)[:-1])   # reshape rejects a wrong size
        self.user, self.entity, self.relation, weights, biases = (
            part.reshape(shape) for part, shape in zip(parts, shapes.values()))
        self.hop_weights = list(weights)
        self.hop_biases = list(biases)

    @classmethod
    def zeros_like(cls, params):
        """An all-zero store of params' layout, as a gradient accumulator:
        rows of the embedding tables never touched in a batch stay zero."""
        return cls(np.zeros_like(params.flat), params.shapes)

    def blocks(self):
        """Yield (name, array) for every trainable block, in flat's order."""
        yield from (("user", self.user), ("entity", self.entity), ("relation", self.relation))
        yield from ((f"w{i + 1}", w) for i, w in enumerate(self.hop_weights))
        yield from ((f"b{i + 1}", b) for i, b in enumerate(self.hop_biases))

    def copy(self):
        return ParameterStore(self.flat.copy(), self.shapes)

    def squared_norm(self):
        return float(self.flat @ self.flat)

    @property
    def d(self):
        return self.user.shape[1]

    @property
    def H(self):
        return len(self.hop_weights)

    @property
    def num_users(self):
        return self.user.shape[0]

    @property
    def num_entities(self):
        return self.entity.shape[0]


GradientStore = ParameterStore


class AdamState:
    """First/second moment vectors over ParameterStore.flat, the shared step
    counter, and two rows of scratch space so that a step allocates nothing."""

    def __init__(self, size):
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.t = 0
        self.scratch = np.empty((2, size))

    @classmethod
    def zeros_like(cls, params):
        return cls(params.flat.size)


def _glorot(rng, shape):
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def init_params(num_users, num_entities, num_relations, d, H, aggregator, seed):
    """Build a ParameterStore with Glorot-uniform tables and zero biases.

    num_relations counts the real relations; one extra embedding row is
    appended for the reserved self-loop relation. H = 0 yields no hop
    weights (the matrix-factorization baseline).
    """
    if min(num_users, num_entities, d) < 1 or num_relations < 0 or H < 0:
        raise ConfigError(
            f"bad dims: M={num_users} E={num_entities} R={num_relations} d={d} H={H}"
        )
    if aggregator not in _AGG_TAGS:
        raise ConfigError(f"unknown aggregator {aggregator!r}")
    shapes = table_shapes(num_users, num_entities, num_relations + 1, d, H, aggregator)
    params = ParameterStore(np.zeros(sum(map(math.prod, shapes.values()))), shapes)
    rng = np.random.default_rng(seed)
    for _, table in params.blocks():
        if table.ndim == 2:     # every table but the biases, in flat's order
            table[...] = _glorot(rng, table.shape)
    return params


def softmax(scores, axis=-1):
    """Max-subtracted softmax along `axis`; rows sum to 1 within 1e-12."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid(x):
    """Numerically stable logistic, clamped to [1e-12, 1 - 1e-12]."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)


def activate(x, kind):
    """Elementwise activation: relu or tanh."""
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "tanh":
        return np.tanh(x)
    raise ValueError(f"unknown activation {kind!r}")


def adam_step(params, grads, state, eta, lam=0.0):
    """One Adam update with bias correction over the whole flat vector.

    L2 regularization enters as an extra 2*lam*theta on every parameter's
    gradient before the moment updates, so the whole model decays each step,
    not just rows touched by the batch. Every operation writes into params,
    state or state.scratch; grads is only read. Returns (params, state).
    """
    g = grads.flat
    if not np.isfinite(g).all():
        bad = next(name for name, a in grads.blocks() if not np.isfinite(a).all())
        raise NumericalError(f"non-finite gradient in block {bad!r}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    theta, m, v = params.flat, state.m, state.v
    s, q = state.scratch
    if lam != 0.0:
        g = np.add(g, np.multiply(2.0 * lam, theta, out=s), out=s)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=q)
    v *= ADAM_BETA2
    q = np.multiply(g, g, out=q)
    q *= 1.0 - ADAM_BETA2
    v += q
    # theta -= eta * (m / c1) / (sqrt(v / c2) + eps), in that order
    s = np.divide(m, c1, out=s)
    s *= eta
    q = np.sqrt(np.divide(v, c2, out=q), out=q)
    q += ADAM_EPS
    s /= q
    theta -= s
    return params, state


def finite_difference_gradient(loss_fn, params, eps=1e-6):
    """Central-difference gradient of loss_fn(params) over every coordinate.

    Test oracle only: O(#params) loss evaluations. params is restored to its
    original values before returning.
    """
    grads = ParameterStore.zeros_like(params)
    theta = params.flat
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        up = loss_fn(params)
        theta[i] = orig - eps
        down = loss_fn(params)
        theta[i] = orig
        grads.flat[i] = (up - down) / (2.0 * eps)
    return grads


def format_float(x):
    """Text of a float for CSV output: the shortest decimal that round-trips
    to float(x), and 'nan' for NaN.

    Converting first keeps numpy scalars from printing as 'np.float64(...)'
    (their repr under numpy >= 2), so the text is the same on every numpy.
    """
    return repr(float(x))


def save_checkpoint(path, params, aggregator, uniform_weights=False):
    """Write magic 'KGCN', the header, then flat as little-endian f64."""
    tag = _AGG_TAGS[aggregator] | (_UNIFORM_BIT if uniform_weights else 0)
    header = _HEADER.pack(CHECKPOINT_VERSION, params.num_users, params.num_entities,
                          params.relation.shape[0], params.d, params.H, tag)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + header)
        f.write(params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, aggregator, uniform_weights).

    The file size must be exactly what the header describes; it is checked
    before the parameters are allocated.
    """
    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: bad magic bytes")
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"{path}: truncated checkpoint header")
        version, M, E, R_tot, d, H, tag = _HEADER.unpack(header)
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        base_tag = tag & ~_UNIFORM_BIT
        if base_tag not in _TAG_AGGS:
            raise DataError(f"{path}: unknown aggregator tag {tag}")
        shapes = table_shapes(M, E, R_tot, d, H, _TAG_AGGS[base_tag])
        size = sum(map(math.prod, shapes.values()))
        expected = len(CHECKPOINT_MAGIC) + _HEADER.size + 8 * size
        found = os.fstat(f.fileno()).st_size
        if found != expected:
            raise DataError(f"{path}: {found} bytes, but its header describes {expected}")
        flat = np.empty(size, dtype="<f8")
        if f.readinto(flat) != 8 * size:
            raise DataError(f"{path}: truncated checkpoint")
    return ParameterStore(flat, shapes), _TAG_AGGS[base_tag], bool(tag & _UNIFORM_BIT)
