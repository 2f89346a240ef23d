import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import central_diff_gradient, central_diff_hessian, min_eig, random_spd
from greedyqn import objectives
from greedyqn.broyden import UpdateRule
from greedyqn.data_io import SyntheticSpec, generate_logsumexp, generate_start
from greedyqn.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InvalidPlan,
    NonFiniteResult,
    NotPositiveDefinite,
)
from greedyqn.objectives import DENSE_CAP, LogisticProblem, LogSumExpProblem, QuadraticProblem
from greedyqn.solvers import DirectionStrategy, GradientNorm, SolverConfig, solve_general


def make_lse(rng, n, m, gamma=1.0):
    return LogSumExpProblem(
        rng.uniform(-1.0, 1.0, (m, n)), rng.uniform(-1.0, 1.0, m), gamma
    )


def make_logistic(rng, n, m, gamma=1.0):
    labels = rng.choice([-1.0, 1.0], size=m)
    return LogisticProblem(rng.uniform(-1.0, 1.0, (m, n)), labels, gamma)


def make_quadratic(rng, n):
    return QuadraticProblem(random_spd(rng, n), rng.standard_normal(n))


def all_problems(rng, n=6, m=9):
    return [make_quadratic(rng, n), make_lse(rng, n, m), make_logistic(rng, n, m)]


class TestValue:
    def test_quadratic_identity(self):
        prob = QuadraticProblem(np.eye(2), np.zeros(2))
        assert prob.value([3.0, 4.0]) == 12.5

    def test_logistic_single_row_at_origin(self):
        prob = LogisticProblem(np.array([[1.0, 0.0]]), [1.0], gamma=1.0)
        assert prob.value(np.zeros(2)) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_logsumexp_single_zero_row(self):
        prob = LogSumExpProblem(np.zeros((1, 2)), np.zeros(1), gamma=1.0)
        assert prob.value(np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self, rng):
        for prob in all_problems(rng):
            with pytest.raises(DimensionMismatch):
                prob.value(np.zeros(prob.n + 1))

    def test_overflowing_objective_is_refused(self):
        # refused as NonFiniteResult, with no numpy overflow warning on the way
        for prob in (LogisticProblem(np.ones((3, 2)), [1.0, -1.0, 1.0], gamma=1.0),
                     LogSumExpProblem(np.ones((3, 2)), np.zeros(3), gamma=1.0)):
            with pytest.raises(NonFiniteResult, match="overflowed"):
                prob.value(np.full(2, 1e200))


class TestGradient:
    def test_quadratic_zero_at_minimizer(self):
        prob = QuadraticProblem(np.eye(2), np.array([1.0, 1.0]))
        assert np.array_equal(prob.gradient([1.0, 1.0]), np.zeros(2))

    def test_finite_difference_all_objectives(self, rng):
        for prob in all_problems(rng, n=10, m=15):
            for _ in range(20):
                x = rng.uniform(-1.0, 1.0, prob.n)
                grad = prob.gradient(x)
                fd = central_diff_gradient(prob.value, x)
                assert np.linalg.norm(fd - grad) <= 1e-5 * max(
                    np.linalg.norm(grad), 1e-8
                )

    def test_softmax_weights_stable_at_large_arguments(self, rng):
        prob = make_lse(rng, 4, 7)
        for scale in (1.0, 1e2, 1e4):
            x = rng.uniform(-1.0, 1.0, 4) * scale
            pi = prob._at(x).pi
            assert np.all(pi >= 0.0) and np.all(pi <= 1.0)
            assert abs(float(np.sum(pi)) - 1.0) <= 1e-12


class TestHessianDiag:
    def test_quadratic_diag_independent_of_x(self, rng):
        prob = make_quadratic(rng, 5)
        d1 = prob.hessian_diag(np.zeros(5))
        d2 = prob.hessian_diag(rng.standard_normal(5))
        assert np.array_equal(d1, prob.a.diagonal())
        assert np.array_equal(d1, d2)

    def test_single_basis_row_hand_value(self):
        c = np.zeros((1, 3))
        c[0, 0] = 1.0
        prob = LogSumExpProblem(c, np.zeros(1), gamma=1.0)
        diag = prob.hessian_diag(np.zeros(3))
        assert diag[0] == pytest.approx(2.0, abs=1e-15)
        assert np.allclose(diag[1:], 1.0, atol=1e-15)

    def test_matches_full_hessian_diagonal(self, rng):
        for prob in all_problems(rng, n=8, m=12):
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, prob.n)
                full = prob.full_hessian(x).diagonal()
                assert np.max(np.abs(prob.hessian_diag(x) - full)) <= 1e-12

    def test_entries_positive(self, rng):
        for prob in all_problems(rng):
            x = rng.uniform(-2.0, 2.0, prob.n)
            assert np.all(prob.hessian_diag(x) > 0.0)


class TestHessianVec:
    def test_quadratic_action(self, rng):
        prob = make_quadratic(rng, 4)
        h = rng.standard_normal(4)
        assert np.array_equal(prob.hessian_vec(np.zeros(4), h), prob.a @ h)

    def test_zero_direction(self, rng):
        for prob in all_problems(rng):
            x = rng.uniform(-1.0, 1.0, prob.n)
            assert np.array_equal(prob.hessian_vec(x, np.zeros(prob.n)), np.zeros(prob.n))

    def test_matches_full_hessian_product(self, rng):
        for prob in all_problems(rng, n=8, m=12):
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, prob.n)
                h = rng.standard_normal(prob.n)
                expected = prob.full_hessian(x) @ h
                err = np.linalg.norm(prob.hessian_vec(x, h) - expected)
                assert err <= 1e-11 * max(np.linalg.norm(expected), 1e-12)

    def test_quadratic_form_positive(self, rng):
        for prob in all_problems(rng):
            x = rng.uniform(-1.0, 1.0, prob.n)
            h = rng.standard_normal(prob.n)
            assert float(np.dot(prob.hessian_vec(x, h), h)) > 0.0


class TestFullHessian:
    def test_quadratic_returns_matrix(self, rng):
        prob = make_quadratic(rng, 4)
        assert np.array_equal(prob.full_hessian(np.zeros(4)), prob.a)

    def test_logsumexp_exactly_symmetric(self, rng):
        prob = make_lse(rng, 5, 8)
        h = prob.full_hessian(rng.uniform(-1.0, 1.0, 5))
        assert np.array_equal(h, h.T)

    def test_finite_difference_hessian(self, rng):
        for prob in all_problems(rng, n=6, m=8):
            x = rng.uniform(-0.5, 0.5, 6)
            fd = central_diff_hessian(prob.gradient, x)
            assert np.max(np.abs(fd - prob.full_hessian(x))) <= 1e-4

    def test_dimension_cap(self, rng):
        prob = make_lse(rng, DENSE_CAP + 1, 5)
        with pytest.raises(DimensionTooLarge):
            prob.full_hessian(np.zeros(DENSE_CAP + 1))

    def test_eigenvalues_within_certified_bounds(self, rng):
        for make in (make_lse, make_logistic):
            prob = make(rng, 12, 20, gamma=0.7)
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, 12)
                eigs = np.linalg.eigvalsh(prob.full_hessian(x))
                assert eigs[0] >= prob.gamma - 1e-9
                assert eigs[-1] <= prob.lipschitz_l + 1e-9


class TestConstants:
    def test_logsumexp_lipschitz(self):
        prob = LogSumExpProblem(np.array([[1.0, 0.0]]), np.zeros(1), gamma=0.5)
        assert prob.lipschitz_l == 2.5

    def test_logistic_lipschitz(self):
        prob = LogisticProblem(np.array([[2.0, 0.0]]), [1.0], gamma=1.0)
        assert prob.lipschitz_l == 2.0

    def test_quadratic_lipschitz_is_max_eigenvalue(self):
        prob = QuadraticProblem(np.diag([1.0, 7.0]), np.zeros(2))
        assert prob.lipschitz_l == pytest.approx(7.0, rel=1e-12)
        assert prob.strong_convexity_mu == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "a, smallest",
        [
            (np.diag([1.0, -1.0]), "-1.000e+00"),
            (np.diag([-1.0, -2.0]), "-2.000e+00"),
            (np.zeros((2, 2)), "0.000e+00"),
        ],
    )
    def test_quadratic_refuses_a_matrix_that_is_not_positive_definite(self, a, smallest):
        # mu and L would read the indefinite A's extreme eigenvalues as certified constants
        with pytest.raises(NotPositiveDefinite, match=re.escape(f"smallest eigenvalue {smallest},")):
            QuadraticProblem(a, np.ones(2))

    def test_self_concordance_constants(self, rng):
        assert make_lse(rng, 3, 4).self_concordance_m == 2.0
        assert make_quadratic(rng, 3).self_concordance_m == 0.0
        assert make_logistic(rng, 3, 4).self_concordance_m is None

    def test_mu_is_gamma(self, rng):
        assert make_lse(rng, 3, 4, gamma=0.3).strong_convexity_mu == 0.3
        assert make_logistic(rng, 3, 4, gamma=0.3).strong_convexity_mu == 0.3


class TestSelfConcordanceBounds:
    def test_hessian_difference_dominated(self, rng):
        # difference of Hessians bounded by the scaled Hessian at any point
        prob = make_lse(rng, 6, 9)
        m_const = prob.self_concordance_m
        for _ in range(20):
            x, y, z, w = (rng.uniform(-1.0, 1.0, 6) for _ in range(4))
            hz = prob.full_hessian(z)
            r = float(np.sqrt((y - x) @ hz @ (y - x)))
            lhs = m_const * r * prob.full_hessian(w) - (
                prob.full_hessian(y) - prob.full_hessian(x)
            )
            scale = max(np.abs(lhs).max(), m_const * r * np.abs(hz).max(), 1e-12)
            assert min_eig(lhs) >= -1e-7 * scale

    def test_two_point_hessian_bounds(self, rng):
        # H(x)/(1+Mr) <= H(y) <= (1+Mr) H(x) with r the local step length
        prob = make_lse(rng, 5, 8)
        m_const = prob.self_concordance_m
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, 5)
            y = rng.uniform(-1.0, 1.0, 5)
            hx = prob.full_hessian(x)
            hy = prob.full_hessian(y)
            r = float(np.sqrt((y - x) @ hx @ (y - x)))
            factor = 1.0 + m_const * r
            scale = max(np.abs(hx).max(), np.abs(hy).max())
            assert min_eig(factor * hx - hy) >= -1e-7 * factor * scale
            assert min_eig(hy - hx / factor) >= -1e-7 * factor * scale


class TestDataValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_logistic_refuses_non_finite_data(self, bad):
        c = np.ones((3, 2))
        c[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            LogisticProblem(c, [1.0, -1.0, 1.0], gamma=1.0)

    def test_logistic_refuses_data_whose_square_overflows(self):
        c = np.ones((3, 2))
        c[2, 1] = -1e200
        with pytest.raises(InvalidPlan, match=re.escape("-1e+200 at row 2, column 1 ")):
            LogisticProblem(c, [1.0, -1.0, 1.0], gamma=1.0)

    def test_logistic_refuses_an_overflowing_sum_of_squares(self):
        # each square is finite (1e308), their sum is not
        c = np.full((4, 1), 1e154)
        with pytest.raises(InvalidPlan, match=re.escape("1e+154 at row 0, column 0 ")):
            LogisticProblem(c, [1.0, -1.0, 1.0, 1.0], gamma=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_logsumexp_refuses_non_finite_data(self, bad):
        c = np.ones((3, 2))
        c[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            LogSumExpProblem(c, np.zeros(3), gamma=1.0)

    @pytest.mark.parametrize(
        "c,gamma,error,message",
        [
            (np.full((2, 2), 1e200), 1.0, InvalidPlan, "1e+200 at row 0, column 0 "),
            # each square is finite (1e308), their sum is not
            (np.full((4, 1), 1e154), 1.0, InvalidPlan, "1e+154 at row 0, column 0 "),
            (np.array([[1.0, np.nan]]), 1.0, ValueError, "data entries must be finite"),
            (np.array([[-np.inf, 1.0]]), 1.0, ValueError, "data entries must be finite"),
            (np.ones((2, 2)), 0.0, ValueError, "gamma must be positive and finite, got 0.0"),
            (np.ones((2, 2)), -1.0, ValueError, "gamma must be positive and finite, got -1.0"),
            (np.ones((2, 2)), np.nan, ValueError, "gamma must be positive and finite, got nan"),
            (np.ones((2, 2)), np.inf, ValueError, "gamma must be positive and finite, got inf"),
            # the sum of squares (1e308) is finite, L = factor * 1e308 + 1.7e308 is not
            (np.diag([1e154, 1.0]), 1.7e308, InvalidPlan, "sum(c*c) + gamma overflows"),
        ],
        ids=["square", "sum-of-squares", "nan", "inf", "gamma-0", "gamma-neg", "gamma-nan",
             "gamma-inf", "lipschitz"],
    )
    @pytest.mark.parametrize("oracle", [LogSumExpProblem, LogisticProblem])
    def test_both_data_oracles_refuse_bad_data(self, oracle, c, gamma, error, message):
        # one label vector fits both: all +1 is a valid b and valid labels
        with pytest.raises(error, match=re.escape(message)):
            oracle(c, np.ones(c.shape[0]), gamma)

    def test_lipschitz_overflow_follows_each_oracles_factor(self):
        # L = 2 * 9.025e307 + 1 overflows for log-sum-exp; the logistic 0.25 keeps it finite
        c = np.diag([9.5e153, 1.0])
        with pytest.raises(InvalidPlan, match=re.escape("2 * sum(c*c) + gamma overflows")):
            LogSumExpProblem(c, np.zeros(2), 1.0)
        assert LogisticProblem(c, [1.0, -1.0], 1.0).lipschitz_l == 0.25 * (9.5e153**2 + 1.0) + 1.0


# --- the per-point cache -------------------------------------------------

_KINDS = ("quadratic", "logsumexp", "logistic")


def _sparse_data(rng, m, n):
    """Uniform data with about a third of the entries exactly zero, as LIBSVM rows give."""
    return rng.uniform(-1.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.65)


def _oracle_factory(kind, seed, n, m):
    """A function building equal fresh oracles of ``kind`` from seeded data."""
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        a, b = random_spd(rng, n), rng.standard_normal(n)
        return lambda: QuadraticProblem(a, b)
    c = _sparse_data(rng, m, n)
    if kind == "logsumexp":
        b = rng.uniform(-1.0, 1.0, m)
        return lambda: LogSumExpProblem(c, b, 0.5)
    labels = rng.choice([-1.0, 1.0], size=m)
    return lambda: LogisticProblem(c, labels, 0.5)


def _points(rng, n):
    """Candidate points: signed zeros, ordinary points, a one-bit sign change, overflow."""
    x = rng.uniform(-1.0, 1.0, n)
    flipped = x.copy()
    flipped[0] = -0.0
    x[0] = 0.0
    mixed = np.zeros(n)
    mixed[::2] = -0.0
    return [np.zeros(n), -np.zeros(n), mixed, x, flipped, 3.0 * x, 1e200 * x, np.full(n, np.nan)]


def _bits(out):
    return np.asarray(out, dtype=float).tobytes()


def _call(oracle, call, x):
    """[bits of each output], or (the type and text of the error), of one oracle call."""
    name, arg = call
    try:
        with np.errstate(all="ignore"):
            if name == "advance":
                out = oracle.advance(x, arg)
            elif name in ("hessian_vec", "hessian_col"):
                out = (getattr(oracle, name)(x, arg),)
            else:
                out = (getattr(oracle, name)(x),)
    except Exception as exc:  # compared across oracles, never swallowed
        return type(exc).__name__, str(exc)
    return [_bits(part) for part in out]


def _near(got, want, rtol):
    """The same error, or outputs with the same non-finite entries and the finite
    ones within ``rtol`` of the largest finite entry of their part of ``want``."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        return got == want
    for a, b in zip((np.frombuffer(g) for g in got), (np.frombuffer(w) for w in want)):
        finite = np.isfinite(b)
        if not (np.array_equal(np.isfinite(a), finite)
                and np.array_equal(a[~finite], b[~finite], equal_nan=True)):
            return False
        scale = np.max(np.abs(b[finite]), initial=0.0)
        if not np.all(np.abs(a[finite] - b[finite]) <= rtol * scale):
            return False
    return len(got) == len(want)


@st.composite
def call_sequences(draw):
    kind = draw(st.sampled_from(_KINDS))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    points = _points(np.random.default_rng(seed + 1), n)
    h = np.random.default_rng(seed + 2).standard_normal(n)
    method = st.sampled_from(["value", "gradient", "hessian_diag", "hessian_vec",
                              "hessian_col", "advance", "full_hessian"])
    # each advance appends the point it steps to; an index past the last point names it
    calls = draw(st.lists(
        st.tuples(st.integers(0, len(points) + 2), method, st.integers(0, n - 1)),
        min_size=1, max_size=25,
    ))
    return _oracle_factory(kind, seed, n, m), points, h, calls


class TestHessianQuad:
    """``advance``'s form is <hessian_vec(x, h), h>, read from c @ h alone by the data oracles."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(_KINDS), st.integers(1, 12), st.integers(1, 15),
           st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(1e-6, 1e6))
    def test_matches_the_action_inner_product(self, kind, n, m, seed, x_scale, h_scale):
        oracle = _oracle_factory(kind, seed, n, m)()
        rng = np.random.default_rng(seed + 4)
        x = x_scale * rng.uniform(-1.0, 1.0, n)
        h = h_scale * rng.standard_normal(n)
        expected = float(np.vdot(oracle.hessian_vec(x, h), h))
        x_next, got = oracle.advance(x, h)
        assert isinstance(got, float)
        assert abs(got - expected) <= 1e-12 * expected
        assert x_next.tobytes() == (x + h).tobytes()

    def test_quadratic_keeps_the_action_bits(self, rng):
        prob = make_quadratic(rng, 5)
        x, h = rng.standard_normal(5), rng.standard_normal(5)
        assert prob.advance(x, h)[1] == float(np.vdot(prob.hessian_vec(x, h), h))

    @pytest.mark.parametrize("kind", _KINDS)
    def test_overflow_reads_as_non_finite_without_a_warning(self, kind):
        oracle = _oracle_factory(kind, 3, 4, 5)()
        assert not np.isfinite(oracle.advance(np.zeros(4), np.full(4, 1e300))[1])

    def test_logsumexp_weights_at_the_top_of_the_range(self):
        # (pi + 1) * (c h) would overflow here; the halved weights do not
        prob = LogSumExpProblem(np.array([[1.0]]), np.zeros(1), 1.0)
        assert not np.isfinite(prob.advance(np.zeros(1), np.array([1.5e308]))[1])

    def test_wrong_length_is_refused(self, rng):
        for prob in all_problems(rng):
            with pytest.raises(DimensionMismatch):
                prob.advance(np.zeros(prob.n), np.zeros(prob.n + 1))


class TestPointCache:
    """Each oracle caches its last point and still returns a fresh oracle's bits,
    but at a point an ``advance`` stepped to, whose data product was carried."""

    @settings(max_examples=150, deadline=None)
    @given(call_sequences())
    def test_any_call_sequence_matches_a_fresh_oracle(self, case):
        """Bit for bit, and within 1e-13 relative at a point with a carried record."""
        make, points, h, calls = case
        points = list(points)
        cached = make()
        stepped = set()  # bits of the points an advance published a carried record for
        x = np.empty_like(points[0])  # one buffer, rewritten in place before each call
        for j, name, i in calls:
            point = points[min(j, len(points) - 1)]
            x[...] = point
            call = (name, h if name in ("hessian_vec", "advance") else i)
            got, want = _call(cached, call, x), _call(make(), call, point.copy())
            if point.tobytes() in stepped:
                assert _near(got, want, 1e-13)
            else:
                assert got == want
            if name == "advance" and isinstance(want, list):
                x_next, quad = (np.frombuffer(part) for part in want)
                points.append(x_next)
                if np.isfinite(quad[0]):
                    stepped.add(x_next.tobytes())

    @pytest.mark.parametrize("kind", _KINDS)
    def test_cache_is_keyed_on_bits(self, kind):
        oracle = _oracle_factory(kind, 5, 4, 6)()
        plus, minus = np.zeros(4), -np.zeros(4)
        first = oracle._at(plus)
        assert oracle._at(plus.copy()) is first
        assert oracle._at(minus) is not first  # -0.0 == 0.0, but not bit for bit
        nan = np.full(4, np.nan)
        assert oracle._at(nan.copy()) is oracle._at(nan)  # NaN != NaN, but same bits
        x = np.ones(4)
        at_x = oracle._at(x)
        x[2] = 2.0  # the caller changes its array in place
        assert oracle._at(x) is not at_x

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["logsumexp", "logistic"]), st.integers(1, 12), st.integers(1, 15),
           st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_every_call_at_a_stepped_point_is_near_a_fresh_oracle(self, kind, n, m, seed, scale):
        make = _oracle_factory(kind, seed, n, m)
        oracle = make()
        rng = np.random.default_rng(seed + 5)
        h = rng.standard_normal(n)
        x_next, _ = oracle.advance(scale * rng.uniform(-1.0, 1.0, n), h)
        calls = [("value", None), ("gradient", None), ("hessian_diag", None), ("hessian_vec", h),
                 ("hessian_col", n - 1), ("full_hessian", None),
                 ("advance", h)]  # last: it moves the cache on
        for call in calls:
            assert _near(_call(oracle, call, x_next), _call(make(), call, x_next.copy()), 1e-13)

    @pytest.mark.parametrize("kind", ["logsumexp", "logistic"])
    def test_a_step_lost_to_rounding_keeps_the_fresh_record(self, kind):
        # t = c @ x has an exact zero, which a carried c @ d would move although x does not
        c = np.array([[1.0, -1.0], [2.0, 1.0]])
        make = (lambda: LogSumExpProblem(c, np.zeros(2), 1.0)) if kind == "logsumexp" else (
            lambda: LogisticProblem(c, np.array([1.0, -1.0]), 1.0))
        oracle = make()
        x = np.ones(2)
        for _ in range(3):
            x_next, _ = oracle.advance(x, np.array([1e-20, -3e-20]))
            assert x_next.tobytes() == x.tobytes()
        assert oracle._at(x).t.tobytes() == make()._at(x).t.tobytes()
        assert oracle.gradient(x).tobytes() == make().gradient(x).tobytes()

    @pytest.mark.parametrize("kind", ["logsumexp", "logistic"])
    def test_a_step_whose_form_is_not_finite_caches_no_point(self, kind):
        oracle = _oracle_factory(kind, 3, 4, 5)()
        x = np.zeros(4)
        record = oracle._at(x)
        _, quad = oracle.advance(x, np.full(4, 1e300))
        assert not np.isfinite(quad)
        assert oracle._at(x) is record

    @pytest.mark.parametrize("kind", _KINDS)
    def test_cached_point_does_not_alias_the_callers_array(self, kind):
        make = _oracle_factory(kind, 11, 5, 7)
        oracle = make()
        x1 = np.random.default_rng(12).uniform(-1.0, 1.0, 5)
        old = x1.copy()
        oracle.value(x1)
        x1[1] = 7.0  # the caller changes its array in place
        assert not np.shares_memory(oracle._at(old).x, x1)
        assert oracle.gradient(old.copy()).tobytes() == make().gradient(old).tobytes()
        assert oracle.value(old.copy()) == make().value(old)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_KINDS), st.integers(1, 12), st.integers(1, 15),
           st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_hessian_col_is_hessian_vec_along_e_i(self, kind, n, m, seed, scale):
        oracle = _oracle_factory(kind, seed, n, m)()
        x = scale * np.random.default_rng(seed + 3).uniform(-1.0, 1.0, n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            assert oracle.hessian_col(x, i).tobytes() == oracle.hessian_vec(x, e).tobytes()

    @pytest.mark.parametrize("kind", _KINDS)
    def test_threads_sharing_an_oracle_get_a_fresh_oracles_bits(self, kind):
        """Threads at the same point share its record; at different points they evict it."""
        oracle = _oracle_factory(kind, 9, 5, 7)()
        rng = np.random.default_rng(10)
        points = [rng.uniform(-1.0, 1.0, 5) for _ in range(6)]
        calls = [("value", None), ("gradient", None), ("hessian_diag", None),
                 ("hessian_vec", np.ones(5)), ("hessian_col", 3), ("advance", np.ones(5))]
        expected = [[_call(_oracle_factory(kind, 9, 5, 7)(), c, x) for c in calls]
                    for x in points]
        mismatches = []

        def work(j):
            for r in range(150):
                k = (j + r // 3) % len(points)
                if [_call(oracle, c, points[k]) for c in calls] != expected[k]:
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,)) for j in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    @pytest.mark.parametrize("kind", ["logsumexp", "logistic"])
    def test_one_softmax_or_sigmoid_pass_per_point(self, kind, monkeypatch):
        """Greedy iterations evaluate each point several times but pass over it once."""
        if kind == "logsumexp":
            inner = generate_logsumexp(SyntheticSpec(n=8, m=8, gamma=1.0, seed=2))
            name = "_stable_softmax"
        else:
            rng = np.random.default_rng(4)
            inner = LogisticProblem(_sparse_data(rng, 20, 8), rng.choice([-1.0, 1.0], 20), 0.5)
            name = "expit"
        real = getattr(objectives, name)
        passes = []

        def spy(z):
            passes.append(np.asarray(z).tobytes())
            return real(z)

        monkeypatch.setattr(objectives, name, spy)
        points, calls = set(), []

        class Recording:
            def __getattr__(self, attr):
                method = getattr(inner, attr)
                if not callable(method):
                    return method

                def record(x, *args):
                    calls.append(attr)
                    points.add(np.asarray(x).tobytes())
                    return method(x, *args)

                return record

        cfg = SolverConfig(
            rule=UpdateRule.bfgs(),
            strategy=DirectionStrategy.greedy(),
            termination=GradientNorm(1e-300),
            max_iter=3,
        )
        solve_general(Recording(), generate_start(8, 2), cfg)
        assert len(points) == 4  # x_0 .. x_3
        assert len(calls) == 5 * 3 + 2  # value, gradient, step action, diagonal, column
        assert len(set(passes)) == len(passes)  # no softmax or sigmoid is recomputed
        if kind == "logsumexp":
            assert len(passes) == len(points)
        else:  # sigmoid(-t) and sigmoid(t), each once at every point
            assert len(passes) == 2 * len(points)


def _softmax_by_functions(z):
    """The max-subtracted softmax written with ``np.max`` and ``np.sum``."""
    zmax = float(np.max(z))
    e = np.exp(z - zmax)
    total = float(np.sum(e))
    return zmax + np.log(total), e / total


@settings(max_examples=80, deadline=None)
@given(
    z=hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e300, 1e300)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 40.0, 1e150, 1e200]),
    gamma=st.floats(1e-3, 10.0),
)
def test_logsumexp_matches_the_numpy_function_expressions(z, seed, scale, gamma):
    """The softmax, value and gradient equal their np.max/np.sum forms bit for bit."""
    with np.errstate(all="ignore"):
        pairs = zip(objectives._stable_softmax(z), _softmax_by_functions(z))
        assert all(_bits(new) == _bits(old) for new, old in pairs)
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 10, size=2)
        c, b = rng.uniform(-1.0, 1.0, (m, n)), rng.uniform(-1.0, 1.0, m)
        x = scale * rng.standard_normal(n)
        prob = LogSumExpProblem(c, b, gamma)
        t = c @ x
        lse, pi = _softmax_by_functions(t - b)
        value = lse + 0.5 * float(np.dot(t, t)) + 0.5 * gamma * float(np.dot(x, x))
        grad = c.T @ (pi + t) + gamma * x
        if np.isfinite(value):
            assert _bits(prob.value(x)) == _bits(value)
        else:
            with pytest.raises(NonFiniteResult):
                prob.value(x)
        assert _bits(prob.gradient(x)) == _bits(grad)
