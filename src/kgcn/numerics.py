"""Dense float64 kernels: parameter storage, activations, softmax, Adam,
finite-difference gradients, and the binary checkpoint format.

Everything is plain numpy in 64-bit precision so that analytic gradients can
be checked against central differences to tight tolerances.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError

SIGMOID_CLAMP = 1e-12

CHECKPOINT_MAGIC = b"KGCN"
CHECKPOINT_VERSION = 1

# aggregator tags in the checkpoint header; bit 3 marks uniform neighbor weights
_AGG_TAGS = {"sum": 0, "concat": 1, "neighbor": 2, "mf": 3}
_TAG_AGGS = {v: k for k, v in _AGG_TAGS.items()}
_UNIFORM_BIT = 8


@dataclass
class ParameterStore:
    """Trainable tables: user/entity/relation embeddings plus per-hop
    transform weights and biases.

    relation has one extra row (index num_relations) reserved for the
    self-loop relation given to isolated entities.
    """

    user: np.ndarray          # (M, d)
    entity: np.ndarray        # (E, d)
    relation: np.ndarray      # (R + 1, d)
    hop_weights: list         # H matrices, (d, d) or (d, 2d) for concat
    hop_biases: list          # H vectors, (d,)
    d: int
    H: int

    def blocks(self):
        """Yield (name, array) for every trainable block, in fixed order."""
        yield "user", self.user
        yield "entity", self.entity
        yield "relation", self.relation
        for i, w in enumerate(self.hop_weights):
            yield f"w{i + 1}", w
        for i, b in enumerate(self.hop_biases):
            yield f"b{i + 1}", b

    def copy(self):
        return ParameterStore(
            user=self.user.copy(),
            entity=self.entity.copy(),
            relation=self.relation.copy(),
            hop_weights=[w.copy() for w in self.hop_weights],
            hop_biases=[b.copy() for b in self.hop_biases],
            d=self.d,
            H=self.H,
        )

    def squared_norm(self):
        return float(sum(np.sum(a * a) for _, a in self.blocks()))

    @property
    def num_users(self):
        return self.user.shape[0]

    @property
    def num_entities(self):
        return self.entity.shape[0]


@dataclass
class GradientStore:
    """Per-batch gradient accumulator with the same shapes as ParameterStore.

    Rows of the embedding tables never touched in a batch stay exactly zero.
    """

    user: np.ndarray
    entity: np.ndarray
    relation: np.ndarray
    hop_weights: list
    hop_biases: list

    @classmethod
    def zeros_like(cls, params):
        return cls(
            user=np.zeros_like(params.user),
            entity=np.zeros_like(params.entity),
            relation=np.zeros_like(params.relation),
            hop_weights=[np.zeros_like(w) for w in params.hop_weights],
            hop_biases=[np.zeros_like(b) for b in params.hop_biases],
        )

    def blocks(self):
        yield "user", self.user
        yield "entity", self.entity
        yield "relation", self.relation
        for i, w in enumerate(self.hop_weights):
            yield f"w{i + 1}", w
        for i, b in enumerate(self.hop_biases):
            yield f"b{i + 1}", b


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros_like(cls, params, beta1=0.9, beta2=0.999, eps=1e-8):
        m = {name: np.zeros_like(a) for name, a in params.blocks()}
        v = {name: np.zeros_like(a) for name, a in params.blocks()}
        return cls(m=m, v=v, t=0, beta1=beta1, beta2=beta2, eps=eps)


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
    in_dim = 2 * d if aggregator == "concat" else d
    rng = np.random.default_rng(seed)
    return ParameterStore(
        user=_glorot(rng, (num_users, d)),
        entity=_glorot(rng, (num_entities, d)),
        relation=_glorot(rng, (num_relations + 1, d)),
        hop_weights=[_glorot(rng, (d, in_dim)) for _ in range(H)],
        hop_biases=[np.zeros(d) for _ in range(H)],
        d=d,
        H=H,
    )


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
    """One Adam update with bias correction.

    L2 regularization enters as an extra 2*lam*theta on every parameter's
    gradient before the moment updates, so the whole model decays each step,
    not just rows touched by the batch. Updates params/state in place and
    returns them.
    """
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    grad_blocks = dict(grads.blocks())
    for name, theta in params.blocks():
        g = grad_blocks[name]
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in block {name!r}")
        if lam != 0.0:
            g = g + 2.0 * lam * theta
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        theta -= eta * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


def finite_difference_gradient(loss_fn, params, eps=1e-6):
    """Central-difference gradient of loss_fn(params) over every coordinate.

    Test oracle only: O(#params) loss evaluations. params is restored to its
    original values before returning.
    """
    grads = GradientStore.zeros_like(params)
    grad_blocks = dict(grads.blocks())
    for name, theta in params.blocks():
        flat = theta.reshape(-1)
        gflat = grad_blocks[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn(params)
            flat[i] = orig - eps
            down = loss_fn(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
    return grads


def format_float(x):
    """Text of a float for CSV output: the shortest decimal that round-trips
    to float(x), and 'nan' for NaN.

    Converting first keeps numpy scalars from printing as 'np.float64(...)'
    (their repr under numpy >= 2), so the text is the same on every numpy.
    """
    return repr(float(x))


def save_checkpoint(path, params, aggregator, uniform_weights=False):
    """Write magic 'KGCN', version, dims and all tables as little-endian f64."""
    tag = _AGG_TAGS[aggregator] | (_UNIFORM_BIT if uniform_weights else 0)
    header = struct.pack(
        "<6I",
        CHECKPOINT_VERSION,
        params.user.shape[0],
        params.entity.shape[0],
        params.relation.shape[0],
        params.d,
        params.H,
    )
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(header)
        f.write(struct.pack("<I", tag))
        for _, a in params.blocks():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, aggregator, uniform_weights)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: bad magic bytes")
        header = f.read(28)     # version, M, E, R + 1, d, H, aggregator tag
        if len(header) != 28:
            raise DataError(f"{path}: truncated checkpoint header")
        version, M, E, R_tot, d, H, tag = struct.unpack("<7I", header)
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        base_tag = tag & ~_UNIFORM_BIT
        if base_tag not in _TAG_AGGS:
            raise DataError(f"{path}: unknown aggregator tag {tag}")
        aggregator = _TAG_AGGS[base_tag]
        uniform = bool(tag & _UNIFORM_BIT)
        in_dim = 2 * d if aggregator == "concat" else d

        def read_table(shape):
            n = int(np.prod(shape))
            buf = f.read(8 * n)
            if len(buf) != 8 * n:
                raise DataError(f"{path}: truncated checkpoint")
            return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

        params = ParameterStore(
            user=read_table((M, d)),
            entity=read_table((E, d)),
            relation=read_table((R_tot, d)),
            hop_weights=[read_table((d, in_dim)) for _ in range(H)],
            hop_biases=[read_table((d,)) for _ in range(H)],
            d=d,
            H=H,
        )
    return params, aggregator, uniform

