import copy
import pickle

import numpy as np
import pytest
from conftest import reference_parse_libsvm
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
    InvalidPlan,
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

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["deepcopy", "pickle"])
    def test_copy_keeps_key_and_position(self, duplicate):
        rng = RngStream(7, "directions")
        rng.standard_normal(3)
        twin = duplicate(rng)
        assert repr(twin) == "RngStream(seed=7, label='directions')"
        assert np.array_equal(twin.standard_normal(4), rng.standard_normal(4))


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
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(np.sum(expected * expected))
        if overflows:  # the largest drawn values are refused, not turned into inf
            with pytest.raises(InvalidPlan, match="too large"):
                ds.to_logistic(gamma)
            return
        prob = ds.to_logistic(gamma)
        assert prob.c.tobytes() == expected.tobytes()
        assert prob.labels.tobytes() == ds.labels.tobytes()

    def test_to_logistic(self):
        prob = parse_libsvm("+1 1:1\n-1 2:1\n").to_logistic(gamma=0.5)
        assert prob.n == 2
        assert prob.gamma == 0.5


def parse_outcome(parse, text, **kwargs):
    """What ``parse`` makes of ``text``: the dataset's arrays, or the refusal's class, line and message."""
    try:
        ds = parse(text, **kwargs)
    except Exception as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return csr_arrays(ds), ds.n_features


class TestParserPins:
    """Unusual but valid syntax, and the refusal each bad line gets."""

    def test_signs_underscores_leading_zeros_and_crlf(self):
        ds = parse_libsvm("+1 +3:1 1_0:1_0\r\n-1 03:-0\r\n")
        assert ds.n_features == 10
        expected = csr_dataset([1.0, -1.0], [([2, 9], [1.0, 10.0]), ([2], [-0.0])], 10)
        assert csr_arrays(ds) == csr_arrays(expected)

    def test_form_feed_vertical_tab_and_non_ascii_digit(self):
        ds = parse_libsvm("+1 1:1\f-1 2:\u0663\v+1 1:1e3\n")
        expected = csr_dataset([1.0, -1.0, 1.0], [([0], [1.0]), ([1], [3.0]), ([0], [1000.0])], 2)
        assert csr_arrays(ds) == csr_arrays(expected)

    def test_next_line_break(self):
        ds = parse_libsvm("+1 1:1\x85-1 2:2\n")
        assert csr_arrays(ds) == csr_arrays(csr_dataset([1.0, -1.0], [([0], [1.0]), ([1], [2.0])], 2))

    def test_label_only_row_is_empty(self):
        ds = parse_libsvm("+1\n-1 2:1\n")
        assert csr_arrays(ds) == csr_arrays(csr_dataset([1.0, -1.0], [([], []), ([1], [1.0])], 2))

    @pytest.mark.parametrize("text", ["", "# only\n"])
    def test_no_rows(self, text):
        ds = parse_libsvm(text)
        assert ds.n_features == 0
        assert csr_arrays(ds) == csr_arrays(csr_dataset([], [], 0))

    @pytest.mark.parametrize("text, cls, line_no, message", [
        ("\n# c\n\n+1 0:1\n", MalformedLine, 4, "line 4: malformed (index 0 must be >= 1)"),
        ("+1 1:1\n-1 -1:1\n", MalformedLine, 2, "line 2: malformed (index -1 must be >= 1)"),
        ("+1 1:1e999\n", MalformedLine, 1, "line 1: malformed (non-finite value '1:1e999')"),
        ("+1 1:1\n+1 3:\n", MalformedLine, 2, "line 2: malformed (bad pair '3:')"),
        ("+1 :3\n", MalformedLine, 1, "line 1: malformed (bad pair ':3')"),
        ("-1 1:2:3 5\n", MalformedLine, 1, "line 1: malformed (bad pair '1:2:3')"),
        ("+1 1:1\n\n-1 5\n", MalformedLine, 3, "line 3: malformed (bad pair '5')"),
        ("+1 1:1\n+1 2:1 2:1\n", NonMonotoneIndices, 2,
         "line 2: feature indices must be strictly increasing"),
        ("+1 1:1\nnan 1:1\n", UnmappedLabel, 2,
         "line 2: label 'nan' is not in {-1, +1} and no mapping covers it"),
        ("+1 1:1\n3 2:1\n", UnmappedLabel, 2,
         "line 2: label '3' is not in {-1, +1} and no mapping covers it"),
        ("+1 1:1 99999999999999999999:2\n-1 2:1\n", MalformedLine, 1,
         "line 1: malformed (index 99999999999999999999 must be <= 9223372036854775807)"),
    ])
    def test_refusal(self, text, cls, line_no, message):
        assert parse_outcome(parse_libsvm, text) == (cls, line_no, message)


# Edge cases put into generated text: whole lines, and tokens put into a line.
_EDGE_LINES = [
    "+1 +3:1 1_0:1_0", "-1 03:-0", "+1 1:1\f-1 2:\u0663\v+1 1:1e3", "+1 1:1\x85-1 2:2", "+1", "",
    "# only", "+1 0:1", "nan 1:1", "-1 2:1 2:1", "\t+1\t1:1  2:2\x1f3:3 ", "1 1:1 # c:",
]
_EDGE_TOKENS = ["-1:1", "1:1e999", "3:", ":3", "1:2:3", "5", "+3:1", "1_0:2", "\u0663:1", "1:nan",
                "99:1", "#", "2:1 2:1", "1e0", "1:0x1", "3: 5", "1::2", "\x00", "1:1\t\x1f",
                "123456789012345678:1", "1234567890123456789:1", "0000000000000000000099:1"]


@st.composite
def libsvm_texts(draw):
    """Serialized generated datasets, with at most one edge case put into a random line."""
    lines = serialize_libsvm(draw(libsvm_datasets())).splitlines()
    edge = draw(st.sampled_from([None, "line", "token"]))
    at = draw(st.integers(0, len(lines) - 1))
    if edge == "line":
        lines.insert(at, draw(st.sampled_from(_EDGE_LINES)))
    elif edge == "token":
        tokens = lines[at].split(" ")
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_EDGE_TOKENS)))
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "\r\n", ""]))


class TestParseMatchesLineByLine:
    @settings(max_examples=300, deadline=None)
    @given(libsvm_texts(), st.sampled_from([None, {1.0: -1.0, -1.0: 1.0}, {2.0: 1.0}, {1.0: None}]),
           st.sampled_from([None, 0, 5, 30]))
    def test_same_arrays_or_same_refusal(self, text, label_map, n_features):
        kwargs = {"label_map": label_map, "n_features": n_features}
        expected = parse_outcome(reference_parse_libsvm, text, **kwargs)
        assert parse_outcome(parse_libsvm, text, **kwargs) == expected


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
