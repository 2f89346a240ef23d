import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyqn.data_io import (
    LibsvmDataset,
    RngStream,
    SyntheticSpec,
    generate_logsumexp,
    generate_start,
    parse_libsvm,
    serialize_libsvm,
    unit_sphere_direction,
)
from greedyqn.errors import (
    DimensionMismatch,
    MalformedLine,
    NonMonotoneIndices,
    UnmappedLabel,
)

# First five values of each named stream at seed 12345, committed as test
# vectors so that regenerated data stays identical across platforms and
# versions.
GOLDEN_UNIFORM_DATA = [
    0.4859574167375289,
    -0.5350655401886615,
    -0.03311102230366969,
    0.5649000724231996,
    -0.013761389160065418,
]
GOLDEN_NORMAL_START = [
    1.1871061383924602,
    1.5825582736959949,
    -2.0196040611710755,
    -1.4740653133056831,
    0.3456620294315445,
]
GOLDEN_NORMAL_DIRECTIONS = [
    -0.03750959211647859,
    -0.10351227641653771,
    -1.2675879230126914,
    0.7532032236321319,
    1.2078025087249002,
]


class TestRngStream:
    def test_golden_uniform_data_stream(self):
        vals = RngStream(12345, "data").uniform(-1.0, 1.0, 5)
        assert vals.tolist() == GOLDEN_UNIFORM_DATA

    def test_golden_normal_start_stream(self):
        vals = RngStream(12345, "start").standard_normal(5)
        assert vals.tolist() == GOLDEN_NORMAL_START

    def test_golden_normal_directions_stream(self):
        vals = RngStream(12345, "directions").standard_normal(5)
        assert vals.tolist() == GOLDEN_NORMAL_DIRECTIONS

    def test_labels_separate_streams(self):
        a = RngStream(7, "data").uniform(0.0, 1.0, 4)
        b = RngStream(7, "start").uniform(0.0, 1.0, 4)
        assert not np.array_equal(a, b)

    def test_same_key_reproduces(self):
        a = RngStream(7, "data").uniform(0.0, 1.0, 10)
        b = RngStream(7, "data").uniform(0.0, 1.0, 10)
        assert np.array_equal(a, b)


# finite values, with signed zeros and subnormals drawn often
_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]
)


def csr_dataset(labels, rows, n_features):
    """A :class:`LibsvmDataset` from per-row (indices, values) lists."""
    lengths = [len(idx) for idx, _ in rows]
    return LibsvmDataset(
        labels=np.array(labels, dtype=float),
        indptr=np.cumsum([0] + lengths),
        indices=np.array([i for idx, _ in rows for i in idx], dtype=int),
        values=np.array([v for _, vals in rows for v in vals], dtype=float),
        n_features=n_features,
    )


def csr_arrays(ds):
    """The dataset's arrays as (dtype, bytes) pairs, for exact comparison."""
    return [(a.dtype, a.tobytes()) for a in (ds.labels, ds.indptr, ds.indices, ds.values)]


@st.composite
def libsvm_datasets(draw):
    """Labels of +-1 and rows with strictly increasing indices, empty rows included."""
    n_features = draw(st.integers(0, 30))
    labels, rows = [], []
    for _ in range(draw(st.integers(1, 10))):
        idx = sorted(draw(st.sets(st.integers(0, n_features - 1), max_size=8))) if n_features else []
        labels.append(draw(st.sampled_from([-1.0, 1.0])))
        rows.append((idx, [draw(_VALUES) for _ in idx]))
    return csr_dataset(labels, rows, n_features)


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm("+1 1:0.5 3:-2\n")
        assert ds.n_features == 3
        assert csr_arrays(ds) == csr_arrays(csr_dataset([1.0], [([0, 2], [0.5, -2.0])], 3))

    def test_label_remap(self):
        ds = parse_libsvm("2 1:1\n", label_map={2.0: -1.0})
        assert ds.labels.tolist() == [-1.0]

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("# header\n\n+1 1:1 # trailing\n-1 2:3\n")
        assert ds.n_features == 2
        expected = csr_dataset([1.0, -1.0], [([0], [1.0]), ([1], [3.0])], 2)
        assert csr_arrays(ds) == csr_arrays(expected)

    def test_unmapped_label(self):
        with pytest.raises(UnmappedLabel):
            parse_libsvm("3 1:1\n")

    def test_malformed_label(self):
        with pytest.raises(MalformedLine) as exc:
            parse_libsvm("+1 1:1\nfoo 1:1\n")
        assert exc.value.line_no == 2

    def test_malformed_pair(self):
        with pytest.raises(MalformedLine):
            parse_libsvm("+1 1:one\n")

    def test_non_monotone_indices(self):
        with pytest.raises(NonMonotoneIndices) as exc:
            parse_libsvm("+1 2:1 2:2\n")
        assert exc.value.line_no == 1

    def test_feature_override(self):
        ds = parse_libsvm("+1 1:1\n", n_features=10)
        assert ds.n_features == 10
        with pytest.raises(DimensionMismatch):
            parse_libsvm("+1 5:1\n", n_features=3)

    @pytest.mark.parametrize("max_index", [22, 112, 123, 300])
    def test_infers_benchmark_dataset_shapes(self, max_index):
        text = f"+1 1:0.5 {max_index}:1\n-1 2:1\n"
        assert parse_libsvm(text).n_features == max_index

    def test_round_trip(self, rng):
        rows = []
        labels = []
        for _ in range(12):
            k = int(rng.integers(0, 6))
            idx = np.sort(rng.choice(np.arange(30), size=k, replace=False))
            rows.append((idx.tolist(), rng.standard_normal(k).tolist()))
            labels.append(float(rng.choice([-1.0, 1.0])))
        ds = csr_dataset(labels, rows, 30)
        back = parse_libsvm(serialize_libsvm(ds), n_features=30)
        assert csr_arrays(back) == csr_arrays(ds)

    @settings(max_examples=100, deadline=None)
    @given(libsvm_datasets())
    def test_generated_round_trip_is_byte_exact(self, ds):
        back = parse_libsvm(serialize_libsvm(ds), n_features=ds.n_features)
        assert back.n_features == ds.n_features
        assert csr_arrays(back) == csr_arrays(ds)

    def test_to_dense(self):
        c = parse_libsvm("+1 2:3\n-1 1:-0\n").to_logistic(gamma=1.0).c
        assert c.tobytes() == np.array([[0.0, 3.0], [-0.0, 0.0]]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(libsvm_datasets(), st.floats(0.1, 10.0))
    def test_to_logistic_scatters_each_entry_exactly(self, ds, gamma):
        # a reference built entry by entry; scipy's toarray() would turn -0.0 into +0.0
        expected = np.zeros((ds.labels.size, ds.n_features))
        for row in range(ds.labels.size):
            for k in range(ds.indptr[row], ds.indptr[row + 1]):
                expected[row, ds.indices[k]] = ds.values[k]
        with np.errstate(over="ignore"):  # c * c of the largest drawn values
            prob = ds.to_logistic(gamma)
        assert prob.c.tobytes() == expected.tobytes()
        assert prob.labels.tobytes() == ds.labels.tobytes()

    def test_to_logistic(self):
        prob = parse_libsvm("+1 1:1\n-1 2:1\n").to_logistic(gamma=0.5)
        assert prob.n == 2
        assert prob.gamma == 0.5


class TestGenerateLogsumexp:
    def test_gradient_vanishes_at_origin(self):
        for seed in (0, 1, 99):
            spec = SyntheticSpec(n=12, m=17, gamma=1.0, seed=seed)
            prob = generate_logsumexp(spec)
            grad0 = prob.gradient(np.zeros(12))
            assert np.linalg.norm(grad0) <= 1e-12 * spec.m

    def test_deterministic(self):
        spec = SyntheticSpec(n=6, m=5, gamma=0.5, seed=77)
        p1 = generate_logsumexp(spec)
        p2 = generate_logsumexp(spec)
        assert np.array_equal(p1.c, p2.c)
        assert np.array_equal(p1.b, p2.b)

    def test_single_row_shifts_to_zero(self):
        prob = generate_logsumexp(SyntheticSpec(n=2, m=1, gamma=1.0, seed=5))
        assert np.array_equal(prob.c, np.zeros((1, 2)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=1, m=3, gamma=1.0, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n=3, m=0, gamma=1.0, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n=3, m=3, gamma=0.0, seed=0)


class TestGenerateStart:
    def test_radius_is_reciprocal_dimension(self):
        for n in (1, 3, 50):
            x0 = generate_start(n, 4)
            assert abs(np.linalg.norm(x0) - 1.0 / n) <= 1e-14

    def test_deterministic(self):
        assert np.array_equal(generate_start(8, 3), generate_start(8, 3))

    def test_mean_over_many_draws_is_small(self):
        draws = np.array([generate_start(3, seed) for seed in range(10_000)])
        assert np.linalg.norm(draws.mean(axis=0)) <= 0.02 / 3

    def test_unit_sphere_direction(self):
        rng = RngStream(11, "directions")
        u = unit_sphere_direction(rng, 9)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
