"""Dense float64 kernels: the model's description (ModelConfig), parameter
storage, activations, softmax, Adam, the binary checkpoint format and the CSV
text of results.

Everything is plain numpy in 64-bit precision so that analytic gradients can
be checked against central differences to tight tolerances.

Every trainable number lives in one contiguous float64 vector,
ParameterStore.flat, in checkpoint order: user (M, d), entity (E, d), relation
(R + 1, d), hop weights w1..wH, hop biases b1..bH. The named tables are
reshaped views of it, so a write through one shows in flat and the reverse.
Write into a view (`params.user[...] = x`), never rebind one
(`params.user = x`): Adam, the L2 term and the checkpoint read only flat.

A trained model is fully described by three things, the arguments of
model.KgcnScorer(params, sample, config): its ParameterStore, the
graph.NeighborSample it was trained with and its ModelConfig. A checkpoint
(version 2) holds exactly these, all little-endian:

    offset       size       field
    0            4          magic b"KGCN"
    4            8 x uint32 version (2), M, E, R + 1, d, H, aggregator tag, K
    36           P x f8     flat, P = ParameterStore.flat.size
    36 + 8P      E*K x i8   the sampled neighbors, (E, K) row-major
    36 + 8P+8EK  E*K x i8   the sampled relations, (E, K) row-major

The header's d, H, aggregator tag and K are the ModelConfig. Any other
version is refused.
"""

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .graph import INDEX_LIMIT, NeighborSample

SIGMOID_CLAMP = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# float64s of flat per pass of adam_step (128 KiB): 2^14 and 2^15 were fastest at 181k
# and 7.7M parameters, 2^12 slower from per-pass overhead, unchunked 2-3 times slower
ADAM_CHUNK = 1 << 14

CHECKPOINT_MAGIC = b"KGCN"
CHECKPOINT_VERSION = 2
_HEADER = struct.Struct("<8I")  # version, M, E, R + 1, d, H, aggregator tag, K

AGGREGATORS = ("sum", "concat", "neighbor")

# aggregator tags in the checkpoint header, mf last; bit 3 marks uniform neighbor weights
_TAG_AGGS = dict(enumerate((*AGGREGATORS, "mf")))
_AGG_TAGS = {v: k for k, v in _TAG_AGGS.items()}
_UNIFORM_BIT = 8


@dataclass(frozen=True)
class ModelConfig:
    """A model's settings; every instance is valid, or construction raises ConfigError."""

    d: int
    H: int
    K: int
    aggregator: str = "sum"         # one of AGGREGATORS, or "mf" at H=0
    uniform_weights: bool = False   # replace softmax bias weights by 1/K

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"embedding dimension must be >= 1, got d={self.d}")
        if self.aggregator not in _AGG_TAGS:
            raise ConfigError(f"unknown aggregator {self.aggregator!r}")
        if self.H < 0 or (self.H == 0) != (self.aggregator == "mf"):
            raise ConfigError(f"receptive-field depth H=0 is the mf model and every other "
                              f"needs H >= 1; got H={self.H} with {self.aggregator!r}")
        if self.K < 1:
            raise ConfigError(f"neighbor sample size must be >= 1, got K={self.K}")
        for name in ("K", "d", "H"):   # a checkpoint header holds each as a uint32
            if getattr(self, name) >= INDEX_LIMIT:
                raise ConfigError(f"{name} must be below {INDEX_LIMIT}, got {getattr(self, name)}")


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


GradientStore = ParameterStore   # perfbench wraps GradientStore.zeros_like by this name


class AdamState:
    """First/second moment vectors over ParameterStore.flat and the shared step counter."""

    def __init__(self, size):
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.t = 0

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
    if min(num_users, num_entities) < 1 or num_relations < 0:
        raise ConfigError(f"bad dims: M={num_users} E={num_entities} R={num_relations}")
    shapes = table_shapes(num_users, num_entities, num_relations + 1, d, H, aggregator)
    size = sum(map(math.prod, shapes.values()))
    if 8 * size > np.iinfo(np.intp).max:   # past what numpy can allocate or index
        raise ConfigError(f"{size} parameters take more bytes than numpy can index")
    params = ParameterStore(np.zeros(size), shapes)
    rng = np.random.default_rng(seed)
    for _, table in params.blocks():
        if table.ndim == 2:     # every table but the biases, in flat's order
            table[...] = _glorot(rng, table.shape)
    return params


def softmax(scores):
    """Max-subtracted softmax along the last axis; rows sum to 1 within 1e-12.

    The row max is taken one column at a time with np.maximum: exact, like
    np.max, and on the mix weights' short (K-entry) rows about ten times
    faster than np.max's reduction.
    """
    scores = np.asarray(scores, dtype=np.float64)
    row_max = scores[..., 0].copy()
    for k in range(1, scores.shape[-1]):
        np.maximum(row_max, scores[..., k], out=row_max)
    e = np.exp(scores - row_max[..., None])
    return e / np.sum(e, axis=-1, keepdims=True)


def sigmoid(x):
    """Logistic over e = exp(-|x|), which never overflows; clamped to [1e-12, 1 - 1e-12]."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.clip(np.where(x >= 0, 1.0, e) / (1.0 + e), SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)


def activate(x, kind):
    """Elementwise activation: relu for "relu", else tanh."""
    return np.maximum(x, 0.0) if kind == "relu" else np.tanh(x)


def adam_step(params, grads, state, eta, lam):
    """One Adam update with bias correction over the whole flat vector.

    L2 regularization enters as an extra 2*lam*theta on every parameter's
    gradient before the moment updates, so the whole model decays each step,
    not just rows touched by the batch. The step runs the four expressions of
    the reference (tests/oracle.py), in its order, on one ADAM_CHUNK slice of
    flat at a time, so each slice's temporaries stay in cache. It writes into
    params and state only; grads is only read. Returns (params, state).
    """
    if not np.isfinite(grads.flat).all():
        bad = next(name for name, a in grads.blocks() if not np.isfinite(a).all())
        raise NumericalError(f"non-finite gradient in block {bad!r}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for i in range(0, params.flat.size, ADAM_CHUNK):
        chunk = slice(i, i + ADAM_CHUNK)
        theta, g, m, v = params.flat[chunk], grads.flat[chunk], state.m[chunk], state.v[chunk]
        if lam != 0.0:
            g = g + 2.0 * lam * theta
        m[...] = m * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
        v[...] = v * ADAM_BETA2 + (1.0 - ADAM_BETA2) * (g * g)
        theta -= eta * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params, state


def format_float(x):
    """Text of a float for CSV output: the shortest decimal that round-trips
    to float(x), and 'nan' for NaN.

    Converting first keeps numpy scalars from printing as 'np.float64(...)'
    (their repr under numpy >= 2), so the text is the same on every numpy.
    """
    return repr(float(x))


def write_csv(stream, header, rows):
    """Write a CSV table to an open text stream: the header's column names,
    then one line per row, each float by format_float and anything else by str."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(format_float(v) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row) + "\n")


@contextlib.contextmanager
def replacing(path, mode="wb"):
    """A file opened for writing under a temporary name beside `path`. It is
    renamed to `path` when the block ends without an error and removed
    otherwise, so `path` keeps its old content until the new one is whole."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, params, sample, config):
    """Write a version 2 checkpoint (layout in the module docstring) of a
    KgcnScorer's arguments. The file is replaced whole."""
    tag = _AGG_TAGS[config.aggregator] | (_UNIFORM_BIT if config.uniform_weights else 0)
    header = _HEADER.pack(CHECKPOINT_VERSION, params.num_users, params.num_entities,
                          params.relation.shape[0], params.d, params.H, tag,
                          sample.neighbors.shape[1])
    with replacing(path) as f:
        f.write(CHECKPOINT_MAGIC + header)
        for array, dtype in ((params.flat, "<f8"), (sample.neighbors, "<i8"),
                             (sample.relations, "<i8")):
            f.write(np.ascontiguousarray(array, dtype=dtype).data)


def _read_array(f, path, shape, dtype):
    array = np.empty(shape, dtype=dtype)
    if f.readinto(array) != array.nbytes:
        raise DataError(f"{path}: truncated checkpoint")
    return array


def _in_range(array, stop):
    """Whether every entry of an int array lies in [0, stop)."""
    return array.size == 0 or (array.min() >= 0 and array.max() < stop)


def load_checkpoint(path):
    """Read a checkpoint; returns KgcnScorer's arguments (params, sample, config).

    sample is the stored NeighborSample, two (E, K) int64 arrays with every
    neighbor in [0, E) and every relation in [0, R + 1); config is the header's
    ModelConfig. The file size must be exactly what the header describes; it
    is checked before anything is allocated. An invalid config, a non-finite
    parameter or a version 1 file, which stores no sample so its scores cannot
    be reproduced, is refused.
    """
    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: bad magic bytes")
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"{path}: truncated checkpoint header")
        version, M, E, R_tot, d, H, tag, K = _HEADER.unpack(header)
        if version == 1:
            raise DataError(f"{path}: checkpoint version 1 stores no neighbor sample, so its "
                            "scores cannot be reproduced; retrain to write version 2")
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        aggregator = _TAG_AGGS.get(tag & ~_UNIFORM_BIT)
        if aggregator is None:
            raise DataError(f"{path}: unknown aggregator tag {tag}")
        shapes = table_shapes(M, E, R_tot, d, H, aggregator)
        size = sum(map(math.prod, shapes.values()))
        expected = f.tell() + 8 * size + 2 * 8 * E * K
        found = os.fstat(f.fileno()).st_size
        if found != expected:
            raise DataError(f"{path}: {found} bytes, but its header describes {expected}")
        try:
            config = ModelConfig(d=d, H=H, K=K, aggregator=aggregator,
                                 uniform_weights=bool(tag & _UNIFORM_BIT))
        except ConfigError as e:
            raise DataError(f"{path}: {e}") from None
        params = ParameterStore(_read_array(f, path, size, "<f8"), shapes)
        if not np.isfinite(params.flat).all():
            bad = next(name for name, a in params.blocks() if not np.isfinite(a).all())
            raise DataError(f"{path}: non-finite parameter in block {bad!r}")
        sample = NeighborSample(*(_read_array(f, path, (E, K), "<i8") for _ in range(2)))
        if not _in_range(sample.neighbors, E):
            raise DataError(f"{path}: a stored neighbor lies outside [0, {E})")
        if not _in_range(sample.relations, R_tot):
            raise DataError(f"{path}: a stored relation lies outside [0, {R_tot})")
    return params, sample, config
