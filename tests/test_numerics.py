import io
import math
import struct
import tracemalloc

import numpy as np
import pytest

from kgcn.errors import ConfigError, DataError, NumericalError
from kgcn.graph import NeighborSample
from kgcn.numerics import (
    ADAM_CHUNK,
    AdamState,
    ModelConfig,
    ParameterStore,
    activate,
    adam_step,
    format_float,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    softmax,
    write_csv,
)

from conftest import sigmoid_by_branches, softmax_by_np_max
from oracle import adam_step_reference, finite_difference_gradient


class TestInit:
    def test_scalar_table_bound(self):
        # a 1x1 table has fan_in + fan_out = 2 -> bound sqrt(3)
        p = init_params(1, 1, 0, 1, 0, "mf", seed=0)
        assert abs(p.user[0, 0]) <= math.sqrt(3.0)

    def test_glorot_bounds_per_table(self):
        p = init_params(50, 80, 5, 8, 2, "sum", seed=1)
        for table in (p.user, p.entity, p.relation):
            bound = math.sqrt(6.0 / sum(table.shape))
            assert np.all(np.abs(table) <= bound)
        for w in p.hop_weights:
            bound = math.sqrt(6.0 / sum(w.shape))
            assert np.all(np.abs(w) <= bound)

    def test_biases_zero(self):
        p = init_params(3, 4, 2, 5, 2, "sum", seed=0)
        for b in p.hop_biases:
            assert np.all(b == 0.0)

    def test_same_seed_identical(self):
        a = init_params(3, 4, 2, 5, 2, "concat", seed=7)
        b = init_params(3, 4, 2, 5, 2, "concat", seed=7)
        for (_, x), (_, y) in zip(a.blocks(), b.blocks()):
            assert np.array_equal(x, y)

    def test_concat_weight_shape(self):
        p = init_params(2, 2, 1, 4, 2, "concat", seed=0)
        assert all(w.shape == (4, 8) for w in p.hop_weights)

    def test_extra_relation_row(self):
        p = init_params(2, 2, 3, 4, 1, "sum", seed=0)
        assert p.relation.shape == (4, 4)

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            init_params(0, 2, 1, 4, 1, "sum", seed=0)


class TestFlatLayout:
    def test_write_through_view_shows_in_flat(self):
        p = init_params(3, 4, 2, 5, 2, "concat", seed=0)
        p.entity[2, 3] = 42.0
        assert p.flat[3 * 5 + 2 * 5 + 3] == 42.0
        p.hop_biases[1][:] = 7.0
        assert np.all(p.flat[-5:] == 7.0)

    def test_blocks_tile_flat_in_order(self):
        p = init_params(3, 4, 2, 5, 2, "concat", seed=0)
        assert np.array_equal(np.concatenate([a.ravel() for _, a in p.blocks()]), p.flat)
        assert [name for name, _ in p.blocks()] == [
            "user", "entity", "relation", "w1", "w2", "b1", "b2"]

    def test_copy_shares_no_memory(self):
        p = init_params(3, 4, 2, 5, 2, "sum", seed=0)
        q = p.copy()
        assert not np.shares_memory(p.flat, q.flat)
        for (_, a), (_, b) in zip(p.blocks(), q.blocks()):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)

    def test_dims_are_derived(self):
        p = init_params(3, 4, 2, 5, 2, "concat", seed=0)
        assert (p.d, p.H) == (5, 2)
        with pytest.raises(AttributeError):
            p.d = 6


class TestSoftmax:
    def test_equal_scores_uniform(self):
        assert np.allclose(softmax([3.0, 3.0, 3.0, 3.0]), 0.25, atol=1e-15)

    def test_log3_split(self):
        got = softmax([0.0, math.log(3.0)])
        assert np.allclose(got, [0.25, 0.75], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=8)
        assert np.allclose(softmax(s), softmax(s + 123.456), atol=1e-15)

    def test_stability_and_normalization_bulk(self):
        # 10^4 random vectors with magnitudes up to 700: max-subtraction keeps
        # every row a valid distribution (no overflow, sums exact to 1e-12)
        rng = np.random.default_rng(2)
        scores = rng.uniform(-700.0, 700.0, size=(10_000, 7))
        w = softmax(scores)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert np.max(np.abs(w.sum(axis=-1) - 1.0)) <= 1e-12

    def test_positive_within_representable_gaps(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(-300.0, 300.0, size=(2_000, 5))
        assert np.all(softmax(scores) > 0.0)

    @pytest.mark.parametrize("shape, axis", [((1,), -1), ((7,), -1), ((7,), 0), ((50, 1), -1),
                                             ((500, 8), -1), ((40, 32), -1), ((6, 4, 5), 1),
                                             ((0, 8), -1)])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e300])
    def test_column_max_equals_np_max(self, shape, axis, scale):
        # the row max is taken column by column; that max is exact, so every
        # weight equals the np.max form's bit for bit. softmax reduces the last
        # axis; `axis` of the drawn array is moved there, so (6, 4, 5) at 1
        # reduces a strided axis ((7,) at 0 moves nothing)
        rng = np.random.default_rng(len(shape) + int(math.log10(scale)))
        scores = np.moveaxis(scale * rng.normal(size=shape), axis, -1)
        assert np.array_equal(softmax(scores), softmax_by_np_max(scores))

    def test_ties_signed_zeros_and_nan_equal_np_max(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(-2, 3, size=(400, 8)).astype(np.float64)   # many tied maxima
        scores[0] = [0.0, -0.0, -0.0, 0.0, -1.0, -0.0, 0.0, -5.0]
        scores[1, 3] = np.nan
        scores[2] = -np.inf
        scores[2, 6] = 1.0
        with np.errstate(invalid="ignore"):
            got, want = softmax(scores), softmax_by_np_max(scores)
        assert np.array_equal(got, want, equal_nan=True)


class TestActivate:
    def test_relu(self):
        assert activate(np.array([-1.0, 2.0]), "relu").tolist() == [0.0, 2.0]

    def test_tanh_zero(self):
        assert activate(np.array([0.0]), "tanh")[0] == 0.0

    def test_sigmoid_half(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_clamped(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] >= 1e-12 and out[1] <= 1.0 - 1e-12

    @pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
    def test_sigmoid_equals_two_branches(self, scale):
        # one expression over exp(-|x|) picks, per element, the branch's own
        # numerator and denominator, so every probability is the same bit for bit
        rng = np.random.default_rng(int(scale))
        x = scale * rng.normal(size=100_000)
        assert np.array_equal(sigmoid(x), sigmoid_by_branches(x))

    def test_sigmoid_edges_equal_two_branches(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0,
                      tiny, -tiny, 1e-310, -1e-310, 27.6, -27.6, 36.8, -36.8])
        assert np.array_equal(sigmoid(x), sigmoid_by_branches(x), equal_nan=True)


def _tiny_params(seed=0):
    return init_params(2, 3, 1, 2, 1, "sum", seed=seed)


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = _tiny_params()
        before = p.copy()
        adam_step(p, ParameterStore.zeros_like(p), AdamState.zeros_like(p), eta=0.01, lam=0.0)
        for (_, a), (_, b) in zip(p.blocks(), before.blocks()):
            assert np.array_equal(a, b)

    def test_first_step_moves_by_eta_sign(self):
        p = _tiny_params()
        before = p.copy()
        g = ParameterStore.zeros_like(p)
        g.user[:] = np.array([[1.0, -2.0], [0.5, -0.25]])
        adam_step(p, g, AdamState.zeros_like(p), eta=0.01, lam=0.0)
        delta = p.user - before.user
        assert np.allclose(delta, -0.01 * np.sign(g.user), atol=1e-6)

    def test_pure_weight_decay_shrinks(self):
        p = _tiny_params()
        before = p.copy()
        adam_step(p, ParameterStore.zeros_like(p), AdamState.zeros_like(p), eta=0.001, lam=0.1)
        moved = p.user[before.user != 0]
        orig = before.user[before.user != 0]
        assert np.all(np.abs(moved) < np.abs(orig))
        assert np.all(np.sign(moved) == np.sign(orig))

    def test_non_finite_gradient_names_block(self):
        p = _tiny_params()
        g = ParameterStore.zeros_like(p)
        g.relation[0, 0] = np.nan
        with pytest.raises(NumericalError, match="relation"):
            adam_step(p, g, AdamState.zeros_like(p), eta=0.01, lam=0.0)

    def test_bit_exact_determinism(self):
        results = []
        for _ in range(2):
            p = _tiny_params(seed=5)
            g = ParameterStore.zeros_like(p)
            g.entity[:] = 0.123
            st = AdamState.zeros_like(p)
            for _ in range(10):
                adam_step(p, g, st, eta=0.003, lam=1e-4)
            results.append(p)
        for (_, a), (_, b) in zip(results[0].blocks(), results[1].blocks()):
            assert np.array_equal(a, b)

    # The small model fits in one chunk; the large one spans two chunks and a
    # partial tail, so the step's chunk boundaries are compared too.
    @pytest.mark.parametrize("entities", [5, ADAM_CHUNK // 2 + 7], ids=["one_chunk", "chunk_boundaries"])
    def test_matches_per_block_reference_bit_for_bit(self, entities):
        p = init_params(3, entities, 2, 4, 2, "concat", seed=3)
        if entities > 5:
            assert p.flat.size > 2 * ADAM_CHUNK and p.flat.size % ADAM_CHUNK
        st = AdamState.zeros_like(p)
        names = [name for name, _ in p.blocks()]
        theta = {name: a.ravel().tolist() for name, a in p.blocks()}
        m = {name: [0.0] * len(theta[name]) for name in names}
        v = {name: [0.0] * len(theta[name]) for name in names}
        rng = np.random.default_rng(8)
        for t in range(1, 13):
            g = ParameterStore.zeros_like(p)
            g.flat[:] = rng.normal(scale=0.1, size=g.flat.size)
            adam_step(p, g, st, eta=0.003, lam=1e-3)
            grad = {name: a.ravel().tolist() for name, a in g.blocks()}
            adam_step_reference(theta, grad, m, v, t, eta=0.003, lam=1e-3)
            for name, a in p.blocks():
                assert a.ravel().tolist() == theta[name], (t, name)
        assert st.m.tolist() == [x for name in names for x in m[name]]
        assert st.v.tolist() == [x for name in names for x in v[name]]

    def test_gradient_is_not_modified(self):
        p = _tiny_params()
        g = ParameterStore.zeros_like(p)
        g.flat[:] = 0.5
        adam_step(p, g, AdamState.zeros_like(p), eta=0.01, lam=0.1)
        assert np.all(g.flat == 0.5)

    def test_step_counter(self):
        p = _tiny_params()
        st = AdamState.zeros_like(p)
        adam_step(p, ParameterStore.zeros_like(p), st, eta=0.01, lam=0.0)
        adam_step(p, ParameterStore.zeros_like(p), st, eta=0.01, lam=0.0)
        assert st.t == 2

    def test_memory_is_two_moments_and_a_few_chunks(self):
        # entities 4 * ADAM_CHUNK + 121 give P = 4 * ADAM_CHUNK + 123 at d = 1, H = 0
        p = init_params(1, 4 * ADAM_CHUNK + 121, 0, 1, 0, "mf", seed=0)
        g = ParameterStore.zeros_like(p)
        g.flat[:] = 0.25
        st = AdamState.zeros_like(p)
        arrays = [a for a in vars(st).values() if isinstance(a, np.ndarray)]
        assert sum(a.size for a in arrays) == 2 * p.flat.size
        adam_step(p, g, st, eta=0.01, lam=0.1)
        # Chunk by chunk, a warm step peaks at about 4 chunks of temporaries;
        # the same expressions over the whole vector peak at 4 * P floats, 16 chunks.
        tracemalloc.start()
        try:
            adam_step(p, g, st, eta=0.01, lam=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * ADAM_CHUNK, peak


class TestFiniteDifferences:
    def test_quadratic(self):
        p = _tiny_params()
        p.user[0, 0] = 3.0
        g = finite_difference_gradient(lambda q: q.user[0, 0] ** 2, p)
        assert abs(g.user[0, 0] - 6.0) <= 1e-6

    def test_constant(self):
        p = _tiny_params()
        g = finite_difference_gradient(lambda q: 7.5, p)
        for _, a in g.blocks():
            assert np.all(a == 0.0)

    def test_sigmoid_slope_at_zero(self):
        p = _tiny_params()
        p.user[0, 0] = 0.0
        g = finite_difference_gradient(lambda q: float(sigmoid(np.array([q.user[0, 0]]))[0]), p)
        assert abs(g.user[0, 0] - 0.25) <= 1e-6

    def test_restores_params(self):
        p = _tiny_params()
        before = p.copy()
        finite_difference_gradient(lambda q: float(np.sum(q.entity ** 2)), p)
        for (_, a), (_, b) in zip(p.blocks(), before.blocks()):
            assert np.array_equal(a, b)


class TestFormatFloat:
    @pytest.mark.parametrize("x", [np.float64(0.5642485582936274), np.float64(1e-300),
                                   0.1, 2.0 / 3.0, -0.0])
    def test_float64_round_trips_exactly(self, x):
        text = format_float(x)
        assert "np." not in text
        assert float(text) == x
        assert math.copysign(1.0, float(text)) == math.copysign(1.0, x)

    def test_float32_parses_to_its_float64_value(self):
        x = np.float32(0.1)
        text = format_float(x)
        assert "np." not in text
        assert float(text) == float(x)

    def test_nan_is_written_as_nan(self):
        for x in (float("nan"), np.float64("nan"), np.float32("nan")):
            text = format_float(x)
            assert text == "nan"
            assert math.isnan(float(text))

    def test_same_text_for_numpy_and_python_floats(self):
        assert format_float(np.float64(0.25)) == format_float(0.25) == "0.25"


def _csv_lines(header, rows):
    stream = io.StringIO()
    write_csv(stream, header, rows)
    text = stream.getvalue()
    assert text.endswith("\n")
    return [line.split(",") for line in text[:-1].split("\n")]


class TestWriteCsv:
    def test_header_comes_first(self):
        lines = _csv_lines(("parameter", "value", "test_auc"), [("K", 4, 0.5), ("K", 8, 0.75)])
        assert lines == [["parameter", "value", "test_auc"], ["K", "4", "0.5"], ["K", "8", "0.75"]]

    def test_ints_are_digits(self):
        lines = _csv_lines(("a", "b"), [(7, np.int64(-12)), (0, np.int64(2 ** 62))])
        assert lines[1:] == [["7", "-12"], ["0", str(2 ** 62)]]

    def test_floats_round_trip(self):
        values = (0.1, 2.0 / 3.0, np.float64(0.5642485582936274), np.float64(1e-300))
        _, row = _csv_lines(("w", "x", "y", "z"), [values])
        assert all("np." not in text for text in row)
        assert [float(text) for text in row] == [float(v) for v in values]

    def test_nan_is_nan(self):
        _, row = _csv_lines(("x", "y"), [(float("nan"), np.float64("nan"))])
        assert row == ["nan", "nan"]

    def test_header_alone_without_rows(self):
        assert _csv_lines(("item", "score"), []) == [["item", "score"]]


def _sample(E, K, R, seed=0):
    """A NeighborSample of random in-range (E, K) neighbors and relations."""
    rng = np.random.default_rng(seed)
    return NeighborSample(rng.integers(E, size=(E, K)), rng.integers(R + 1, size=(E, K)))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        p = init_params(3, 5, 2, 4, 2, "concat", seed=9)
        path = tmp_path / "model.kgcn"
        config = ModelConfig(d=4, H=2, K=3, aggregator="concat", uniform_weights=True)
        save_checkpoint(path, p, _sample(5, 3, 2), config)
        q, _, loaded = load_checkpoint(path)
        assert loaded == config
        assert (q.d, q.H) == (4, 2)
        for (_, a), (_, b) in zip(p.blocks(), q.blocks()):
            assert np.array_equal(a, b)

    def test_round_trip_keeps_the_sample(self, tmp_path):
        p = init_params(3, 5, 2, 4, 1, "sum", seed=9)
        sample = _sample(5, 3, 2, seed=4)
        path = tmp_path / "model.kgcn"
        save_checkpoint(path, p, sample, ModelConfig(d=4, H=1, K=3))
        q, stored, _ = load_checkpoint(path)
        assert np.array_equal(q.flat, p.flat)
        assert stored.neighbors.dtype == stored.relations.dtype == np.int64
        assert np.array_equal(stored.neighbors, sample.neighbors)
        assert np.array_equal(stored.relations, sample.relations)

    def test_version_1_is_refused(self, tmp_path):
        # a version 1 file is the first 32 header bytes with version 1, then flat
        p = init_params(3, 5, 2, 4, 1, "sum", seed=9)
        path = tmp_path / "model.kgcn"
        path.write_bytes(b"KGCN" + struct.pack("<7I", 1, 3, 5, 3, 4, 1, 0)
                         + p.flat.astype("<f8").tobytes())
        with pytest.raises(DataError, match="version 1 stores no neighbor sample.*retrain"):
            load_checkpoint(path)

    def test_header_layout(self, tmp_path):
        p = init_params(2, 3, 1, 2, 1, "sum", seed=0)
        path = tmp_path / "model.kgcn"
        save_checkpoint(path, p, _sample(3, 4, 1), ModelConfig(d=2, H=1, K=4))
        raw = path.read_bytes()
        assert raw[:4] == b"KGCN"
        dims = np.frombuffer(raw[4:36], dtype="<u4")
        assert dims.tolist() == [2, 2, 3, 2, 2, 1, 0, 4]  # version, M, E, R+1, d, H, tag, K
        # first table value is little-endian f64
        first = np.frombuffer(raw[36:44], dtype="<f8")[0]
        assert first == p.user[0, 0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kgcn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        p = init_params(2, 3, 1, 2, 1, "sum", seed=0)
        path = tmp_path / "model.kgcn"
        save_checkpoint(path, p, _sample(3, 2, 1), ModelConfig(d=2, H=1, K=2))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_trailing_byte(self, tmp_path):
        p = init_params(2, 3, 1, 2, 1, "sum", seed=0)
        path = tmp_path / "model.kgcn"
        save_checkpoint(path, p, _sample(3, 2, 1), ModelConfig(d=2, H=1, K=2))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="header describes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_refused(self, tmp_path, value):
        p = init_params(2, 3, 1, 2, 1, "sum", seed=0)
        p.hop_biases[0][1] = value
        path = tmp_path / "model.kgcn"
        save_checkpoint(path, p, _sample(3, 2, 1), ModelConfig(d=2, H=1, K=2))
        with pytest.raises(DataError, match="non-finite parameter in block 'b1'"):
            load_checkpoint(path)

    # (M, E, R + 1, d, H): M*d overflows int64; M*d floats take 32 GiB
    @pytest.mark.parametrize("dims", [(2**32 - 1, 1, 1, 2**32 - 1, 1), (2**20, 1, 1, 2**12, 0)],
                             ids=["int64_overflow", "32_gib"])
    def test_header_larger_than_file(self, tmp_path, dims):
        path = tmp_path / "model.kgcn"
        path.write_bytes(b"KGCN" + struct.pack("<8I", 2, *dims, 0, 1) + b"\x00" * 64)
        with pytest.raises(DataError, match="header describes"):
            load_checkpoint(path)

    def test_failed_write_leaves_the_previous_file(self, tmp_path):
        p = init_params(2, 3, 1, 2, 1, "sum", seed=0)
        path = tmp_path / "model.kgcn"
        config = ModelConfig(d=2, H=1, K=2)
        save_checkpoint(path, p, _sample(3, 2, 1), config)
        before = path.read_bytes()
        # the relations cannot be written as int64, after the header, flat and neighbors were
        bad = _sample(3, 2, 1, seed=1)
        bad.relations = np.full((3, 2), "x", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(path, init_params(2, 3, 1, 2, 1, "sum", seed=1), bad, config)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.kgcn"]
