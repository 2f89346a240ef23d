import copy
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_solve

from conftest import random_dominating_pair, random_spd, reference_cholesky
from greedyqn.errors import (
    DimensionMismatch,
    GreedyQnError,
    NonFiniteResult,
    NonPositiveCurvature,
    NonPositiveScale,
    NotPositiveDefinite,
    SingularCapacitance,
)
from greedyqn import operator_core
from greedyqn.broyden import UpdateRule, broyden_update, greedy_direction
from greedyqn.data_io import SyntheticSpec, generate_logsumexp, generate_start
from greedyqn.objectives import LogisticProblem, LogSumExpProblem, QuadraticProblem
from greedyqn.solvers import DirectionStrategy, GradientNorm, SolverConfig, solve_general
from greedyqn.operator_core import (
    AUDIT_EVERY,
    BLOCK_ENTRIES,
    DRIFT_LIMIT,
    PIVOT_RTOL,
    PROBE_TRIGGER,
    SpdState,
    _Queue,
    _add_squares,
    _ger,
    _probe_block,
    _queues,
    _signed_terms,
    factorize,
    symmetric,
)


class TestSymmetric:
    def test_enforces_exact_symmetry(self, rng):
        a = rng.standard_normal((4, 4))
        m = symmetric(a)
        assert np.array_equal(m, m.T)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            symmetric(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        a = np.eye(2)
        a[0, 1] = np.inf
        with pytest.raises(ValueError):
            symmetric(a)

    def test_immutable(self):
        m = symmetric(np.eye(2))
        with pytest.raises(ValueError):
            m[0, 0] = 2.0


@st.composite
def square_arrays(draw, spd=False):
    """Square arrays whose strict upper triangle is drawn apart from the lower one.

    Entries include -0.0 and subnormals.  With ``spd`` the diagonal exceeds
    the absolute row sum of the mirrored lower triangle by at least one, so
    ``symmetric`` of the array is SPD.
    """
    n = draw(st.integers(1, 6))
    tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310])
    entries = st.one_of(tiny, st.floats(-10.0, 10.0))
    a = draw(hnp.arrays(np.float64, (n, n), elements=entries))
    if spd:
        low = np.abs(np.tril(a, -1))
        a[np.diag_indices(n)] = low.sum(axis=0) + low.sum(axis=1) + draw(st.floats(1.0, 10.0))
    return a


def _check_symmetric_copy(m, a):
    """``m`` is read-only, bit-for-bit symmetric, and holds the lower triangle of ``a``."""
    assert not m.flags.writeable
    assert m.tobytes() == m.T.copy().tobytes()
    assert np.array_equal(np.tril(m), np.tril(a))


class TestArrayContract:
    """Matrices go in and come out as plain arrays, mirrored from the lower triangle."""

    @settings(max_examples=100, deadline=None)
    @given(square_arrays())
    def test_symmetric(self, a):
        m = symmetric(a)
        _check_symmetric_copy(m, a)
        before = m.copy()
        a[...] = 7.0
        assert np.array_equal(m, before)

    @settings(max_examples=100, deadline=None)
    @given(square_arrays(spd=True))
    def test_spd_state(self, a):
        state = SpdState(a)
        g, g_inv = state.g, state.g_inv
        _check_symmetric_copy(g, a)
        _check_symmetric_copy(g_inv, g_inv)
        bits = g.tobytes(), g_inv.tobytes()
        a[...] = 7.0
        assert (state.g.tobytes(), state.g_inv.tobytes()) == bits
        # copies: a later update leaves the arrays already handed out unchanged
        state.rescale(2.0)
        assert (g.tobytes(), g_inv.tobytes()) == bits
        assert not np.array_equal(state.g, g)

    @settings(max_examples=100, deadline=None)
    @given(square_arrays(spd=True))
    def test_quadratic_full_hessian(self, a):
        prob = QuadraticProblem(a, np.ones(len(a)))
        h = prob.full_hessian(np.zeros(len(a)))
        _check_symmetric_copy(h, a)
        before = h.copy()
        a[...] = 7.0
        assert np.array_equal(prob.full_hessian(np.zeros(len(a))), before)

    @settings(max_examples=100, deadline=None)
    @given(square_arrays(), st.sampled_from([LogSumExpProblem, LogisticProblem]))
    def test_data_oracle_full_hessian(self, c, kind):
        rows = len(c)
        prob = kind(c, np.ones(rows), 0.5)
        x = np.linspace(-1.0, 1.0, rows)
        h = prob.full_hessian(x)
        _check_symmetric_copy(h, h)
        before = h.tobytes()
        c[...] = 7.0
        assert prob.full_hessian(x).tobytes() == before


def random_like(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


@st.composite
def indefinite_matrices(draw):
    """Matrices with one negative eigenvalue, from -1e-8 to -1, and the others in [0.5, 3].

    The failing pivot is then negative in exact arithmetic by far more than
    rounding.  Exactly singular matrices (rank-deficient Gram matrices) are
    left out: their zero pivot falls on either side of the threshold by
    rounding alone, so no failing column can be asserted for them.
    """
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.5, 3.0, n)
    eigs[draw(st.integers(0, n - 1))] = -(10.0 ** draw(st.floats(-8.0, 0.0)))
    a = (q * eigs) @ q.T
    return symmetric(a * 10.0 ** draw(st.integers(-3, 3)))


class TestFactorize:
    def test_identity(self):
        assert np.array_equal(factorize(np.eye(3)), np.eye(3))

    def test_diagonal_square_roots(self):
        assert np.array_equal(factorize(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_random_spd_reconstructs(self, rng):
        m = rng.standard_normal((5, 5))
        a = m.T @ m + np.eye(5)
        low = factorize(a)
        recon = low @ low.T
        rel = np.linalg.norm(recon - a) / np.linalg.norm(a)
        assert rel <= 1e-10

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite) as info:
            factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert str(info.value) == "pivot -3.000e+00 at column 1 (threshold 1.000e-14)"

    def test_tiny_pivot_relative_to_scale(self):
        # second pivot eliminates to zero: below 1e-14 * max-diagonal
        a = np.array([[1e10, 1e5], [1e5, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            factorize(a)

    def test_solve_matches_dense(self, rng):
        a = random_like(rng, 6)
        rhs = rng.standard_normal(6)
        x = cho_solve((factorize(a), True), rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_empty_matrix_is_silent(self, capfd):
        assert factorize(np.zeros((0, 0))).shape == (0, 0)
        state = SpdState(np.zeros((0, 0)))
        assert state.g_inv.shape == (0, 0)
        assert state.drift == 0.0
        assert capfd.readouterr() == ("", "")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(1.0, 1e6),
           st.integers(-3, 3))
    def test_generated_spd_reconstructs(self, n, seed, cond, exponent):
        a = random_spd(np.random.default_rng(seed), n, cond) * 10.0**exponent
        low = factorize(a)
        assert np.array_equal(low, np.tril(low))
        assert np.linalg.norm(low @ low.T - a) <= 1e-12 * np.linalg.norm(a)

    @settings(max_examples=150, deadline=None)
    @given(indefinite_matrices())
    def test_generated_failure_names_the_reference_column(self, a):
        _, pivots = reference_cholesky(a, PIVOT_RTOL)
        tiny = PIVOT_RTOL * max(float(np.max(a.diagonal())), 0.0)
        # only matrices whose pivots are clearly on one side of the threshold
        assume(pivots[-1] <= tiny / 10 and all(p > 10 * tiny for p in pivots[:-1]))
        with pytest.raises(NotPositiveDefinite) as info:
            factorize(a)
        found = re.fullmatch(r"pivot (\S+) at column (\d+) \(threshold \S+\)", str(info.value))
        assert int(found[2]) == len(pivots) - 1
        assert math.isfinite(float(found[1]))


def _guu(state, u):
    """<G u, u> as ``broyden_update`` computes it, read off its refusal of <Au, u> < 0."""
    u = np.asarray(u, dtype=float)
    with pytest.raises(NonPositiveCurvature) as refusal:
        broyden_update(state, u, -u, UpdateRule.sr1())
    return float(re.search(r"guu=(\S+)\)", str(refusal.value)).group(1))


class TestApplyQuadForm:
    """G u through ``SpdState.apply``; <G u, u> through ``broyden_update``."""

    def test_apply_identity(self):
        out = SpdState.scaled_identity(3, 1.0).apply([1.0, 2.0, 3.0])
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_apply_diagonal(self):
        out = SpdState(np.diag([1.0, 2.0])).apply([3.0, 4.0])
        assert np.array_equal(out, [3.0, 8.0])

    def test_apply_matches_double_loop(self, rng):
        state = SpdState(random_like(rng, 4))
        g = state.g
        u = rng.standard_normal(4)
        naive = np.array([sum(g[i, j] * u[j] for j in range(4)) for i in range(4)])
        assert np.max(np.abs(state.apply(u) - naive)) <= 1e-14

    def test_apply_dimension_mismatch(self):
        state = SpdState.scaled_identity(3, 1.0)
        with pytest.raises(DimensionMismatch):
            state.apply([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            state.solve([1.0, 2.0])

    def test_quad_form_identity(self):
        state = SpdState.scaled_identity(2, 1.0)
        assert _guu(state, [3.0, 4.0]) == 25.0

    def test_quad_form_diagonal(self):
        state = SpdState(np.diag([1.0, 2.0]))
        assert _guu(state, [1.0, 1.0]) == 3.0

    def test_quad_form_matches_apply_then_dot(self, rng):
        state = SpdState(random_like(rng, 5))
        u = rng.standard_normal(5)
        expected = float(np.dot(state.apply(u), u))
        guu = _guu(state, u)
        assert abs(guu - expected) <= 1e-13 * abs(expected)


class TestRank2Update:
    def test_single_coordinate_update(self):
        state = SpdState.scaled_identity(2, 1.0)
        state.rank2_update(np.array([1.0, 0.0]), np.zeros(2), 1.0, 0.0, 0.0)
        assert np.array_equal(state.g, np.diag([2.0, 1.0]))
        assert np.array_equal(state.g_inv, np.diag([0.5, 1.0]))

    def test_zero_coefficients_leave_state_unchanged(self, rng):
        state = SpdState(random_like(rng, 4))
        g0, inv0 = state.g.copy(), state.g_inv.copy()
        state.rank2_update(rng.standard_normal(4), rng.standard_normal(4), 0.0, 0.0, 0.0)
        assert np.array_equal(state.g, g0)
        assert np.array_equal(state.g_inv, inv0)

    def test_maintained_inverse_matches_dense(self, rng):
        n = 20
        state = SpdState.scaled_identity(n, 2.0)
        for _ in range(100):
            p = rng.standard_normal(n)
            q = rng.standard_normal(n)
            c11, c22 = rng.uniform(0.01, 0.3, 2)
            c12 = rng.uniform(-0.9, 0.9) * np.sqrt(c11 * c22)
            state.rank2_update(p, q, c11, c12, c22)
        fresh = np.linalg.inv(state.g)
        err = np.max(np.abs(state.g_inv - fresh)) / np.max(np.abs(fresh))
        assert err <= 1e-8

    def test_singular_update_rejected(self):
        state = SpdState.scaled_identity(2, 1.0)
        with pytest.raises(SingularCapacitance):
            state.rank2_update(np.array([1.0, 0.0]), np.zeros(2), -1.0, 0.0, 0.0)

    def test_negated_coefficients_undo(self, rng):
        n = 6
        state = SpdState(random_like(rng, n))
        g0 = state.g.copy()
        p, q = rng.standard_normal(n), rng.standard_normal(n)
        c11, c12, c22 = 0.2, 0.05, 0.1
        state.rank2_update(p, q, c11, c12, c22)
        state.rank2_update(p, q, -c11, -c12, -c22)
        err = np.max(np.abs(state.g - g0)) / np.max(np.abs(g0))
        assert err <= 1e-8

    def test_diag_cache_is_exact(self, rng):
        n = 7
        state = SpdState(random_like(rng, n))
        for _ in range(20):
            state.rank2_update(
                rng.standard_normal(n), rng.standard_normal(n), 0.1, 0.02, 0.05
            )
            assert np.array_equal(state.diag, state.g.diagonal())
        state.rescale(1.7)
        assert np.array_equal(state.diag, state.g.diagonal())


def outer_rank2(p, q, c11, c12, c22):
    """c11*p p^T + c12*(p q^T + q p^T) + c22*q q^T from full outer products."""
    out = c11 * np.outer(p, p)
    if c12 != 0.0:
        out += c12 * (np.outer(p, q) + np.outer(q, p))
    if c22 != 0.0:
        out += c22 * np.outer(q, q)
    return out


def reference_rank2_update(g, g_inv, p, q, c11, c12, c22):
    """(G + ref, G^-1 - ref'): the update and its 2x2 Woodbury inverse update."""
    cmat = np.array([[c11, c12], [c12, c22]], dtype=float)
    y1 = g_inv @ p
    y2 = g_inv @ q
    w = np.array([[np.dot(p, y1), np.dot(p, y2)], [np.dot(q, y1), np.dot(q, y2)]])
    k = np.eye(2) + cmat @ w
    det = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
    t = np.array([[k[1, 1], -k[0, 1]], [-k[1, 0], k[0, 0]]]) / det @ cmat
    t12 = (t[0, 1] + t[1, 0]) / 2.0
    g_ref = g + outer_rank2(p, q, c11, c12, c22)
    return g_ref, g_inv - outer_rank2(y1, y2, t[0, 0], t12, t[1, 1])


# Dimensions for the in-place update: empty and tiny, one partial row block
# (17), whole blocks only (256), several blocks with a shorter last one (200).
BLOCK_SHAPED_N = [0, 1, 2, 17, 256, 200]


@st.composite
def rank2_cases(draw):
    """A random G with eigenvalues >= 1 and three updates whose norms sum below 1."""
    n = draw(st.sampled_from(BLOCK_SHAPED_N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal((n, n))
    g = np.eye(n) + b @ b.T / max(n, 1)
    coef = st.floats(-0.08, 0.08)
    updates = []
    for _ in range(3):
        p, q = rng.standard_normal(n), rng.standard_normal(n)
        p /= max(np.linalg.norm(p), 1.0)
        q /= max(np.linalg.norm(q), 1.0)
        c12 = draw(st.just(0.0) | coef)
        c22 = draw(st.just(0.0) | coef)
        updates.append((p, q, draw(coef), c12, c22))
    return g, updates


class TestInPlaceRank2Kernel:
    """The blocked in-place update keeps the outer-product formula's bits."""

    def test_block_shapes_are_covered(self):
        rows = {n: BLOCK_ENTRIES // n for n in BLOCK_SHAPED_N if n}
        assert rows[17] > 17
        assert rows[256] < 256 and 256 % rows[256] == 0
        assert rows[200] < 200 and 200 % rows[200] != 0

    @settings(max_examples=60, deadline=None)
    @given(rank2_cases())
    def test_bit_identical_to_outer_products(self, case):
        g, updates = case
        state = SpdState(g)
        ref_g, ref_inv = state.g, state.g_inv
        for p, q, c11, c12, c22 in updates:
            ref_g, ref_inv = reference_rank2_update(ref_g, ref_inv, p, q, c11, c12, c22)
            state.rank2_update(p, q, c11, c12, c22)
            assert np.array_equal(state.g, ref_g)
            assert np.array_equal(state.g_inv, ref_inv)
            assert np.array_equal(state.g, state.g.T)
            assert np.array_equal(state.g_inv, state.g_inv.T)

    def test_no_dense_temporary(self):
        n = 1000
        rng = np.random.default_rng(3)
        state = SpdState.scaled_identity(n, 2.0)
        p, q = rng.standard_normal(n), rng.standard_normal(n)
        tracemalloc.start()
        try:
            state.rank2_update(p, q, 0.1, 0.02, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


@st.composite
def coordinate_cases(draw):
    """A random SPD G with eigenvalues in [1, 50], an index i, a p and a coefficient triple.

    Each coefficient's term has norm at most 1/6, so G + c11 p p^T + c12 (p
    q^T + q p^T) + c22 q q^T with q = G e_i keeps eigenvalues >= 1/2.
    """
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_spd(rng, n)
    i = draw(st.integers(0, n - 1))
    p = rng.standard_normal(n) * 10.0 ** draw(st.integers(-2, 2))
    pn, qn = np.linalg.norm(p), np.linalg.norm(g[i])
    f11, f12, f22 = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    return g, i, p, (f11 / (6 * pn * pn), f12 / (12 * pn * qn), f22 / (6 * qn * qn))


@st.composite
def near_zero_diagonal_cases(draw):
    """A random SPD G, an index i and a p whose BFGS update along e_i sets G_ii to p_i.

    p_i is G_ii times 1e-13 to 1e-18, of either sign, so rounding decides
    the sign of the computed entry.
    """
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_spd(rng, n)
    i = draw(st.integers(0, n - 1))
    p = rng.standard_normal(n)
    p[i] = g[i, i] * draw(st.sampled_from([1.0, -1.0])) * 10.0 ** -draw(st.floats(13.0, 18.0))
    return g, i, p


class TestCoordinateUpdate:
    """``rank2_update(p, i, ...)`` against the dense path on the pair (p, G e_i)."""

    @settings(max_examples=100, deadline=None)
    @given(coordinate_cases())
    def test_matches_the_dense_path(self, case):
        g, i, p, coeffs = case
        dense, coord = SpdState(g), SpdState(g)
        dense.rank2_update(p, dense.g[i], *coeffs)
        coord.rank2_update(p, i, *coeffs)
        for got, ref in ((coord.g, dense.g), (coord.g_inv, dense.g_inv)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(got, got.T)
        assert coord.update_count == dense.update_count

    @settings(max_examples=60, deadline=None)
    @given(coordinate_cases(), st.integers(1, 6))
    def test_repeated_updates_stay_exactly_symmetric(self, case, steps):
        g, i, p, coeffs = case
        state = SpdState(g)
        for _ in range(steps):
            try:
                state.rank2_update(p, i, *coeffs)
            except (NotPositiveDefinite, SingularCapacitance):
                break  # only the first update is sure to keep G positive definite
            for m in (state.g, state.g_inv):
                assert m.tobytes() == m.T.copy().tobytes()

    @settings(max_examples=100, deadline=None)
    @given(near_zero_diagonal_cases())
    def test_refusal_reads_the_diagonal_the_update_stores(self, case):
        g, i, p = case
        state = SpdState(g)
        coeffs = 1.0 / p[i], 0.0, -1.0 / g[i, i]  # BFGS: the new G_ii is p_i
        # G_ii by the n x n kernel on a copy of G
        full = np.array(state.g)
        for sign, x in _signed_terms(p, state.g[i], *coeffs):
            _ger(full, sign, x)
        g0, inv0 = state.g, state.g_inv
        try:
            state.rank2_update(p, i, *coeffs)
        except NotPositiveDefinite:
            assert full[i, i] <= 0.0
            assert np.array_equal(state.g, g0) and np.array_equal(state.g_inv, inv0)
        except SingularCapacitance:
            pass
        else:
            assert full[i, i] > 0.0
            assert state.g[i, i].tobytes() == full[i, i].tobytes()

    @pytest.mark.parametrize("index", [None, 0])
    def test_exactly_singular_sr1_update_is_refused_unchanged(self, index):
        # SR1 along e_0 with A e_0 = 0: G - e_0 e_0^T is singular, and det K is exactly 0
        state = SpdState.scaled_identity(2, 1.0)
        g0, inv0 = state.g, state.g_inv
        with pytest.raises(SingularCapacitance) as refusal:
            q = state.g[0] if index is None else index
            state.rank2_update(np.zeros(2), q, -1.0, 1.0, -1.0)
        det, scale = re.fullmatch(
            r"capacitance determinant (\S+) below 1e-14 \* (\S+)", str(refusal.value)
        ).groups()
        assert float(det) == 0.0 and math.isfinite(float(scale))
        assert np.array_equal(state.g, g0)
        assert np.array_equal(state.g_inv, inv0)

    def test_nonpositive_diagonal_is_refused_unchanged(self):
        # G - 2 e_0 e_0^T = diag(-1, 1): K is not singular, but G_00 turns negative
        state = SpdState(np.diag([1.0, 1.0]))
        g0, inv0 = state.g, state.g_inv
        with pytest.raises(NotPositiveDefinite, match="diagonal entry 0 to -1.000e"):
            state.rank2_update(np.array([1.0, 0.0]), 0, -2.0, 0.0, 0.0)
        assert np.array_equal(state.g, g0)
        assert np.array_equal(state.g_inv, inv0)
        assert state.update_count == 0


@st.composite
def scaled_update_sequences(draw):
    """(G, steps): a random SPD G and up to 8 rescales and updates in any order.

    An update is ("coordinate", i, f) or ("dense", f), with f three factors
    in [-1, 1] that :func:`_bounded_coefficients` turns into coefficients.
    """
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    step = st.one_of(
        st.tuples(st.just("rescale"), st.floats(0.5, 2.0)),
        st.tuples(st.just("coordinate"), st.integers(0, n - 1), factors),
        st.tuples(st.just("dense"), factors),
    )
    return random_spd(rng, n), draw(st.lists(step, min_size=1, max_size=8)), rng


def _bounded_coefficients(g, p, q, factors):
    """(c11, c12, c22) whose term has norm at most half of G's least eigenvalue."""
    lam = np.linalg.eigvalsh(g)[0]
    pn, qn = max(np.linalg.norm(p), 1e-300), max(np.linalg.norm(q), 1e-300)
    f11, f12, f22 = factors
    return f11 * lam / (6 * pn * pn), f12 * lam / (12 * pn * qn), f22 * lam / (6 * qn * qn)


class TestScaleMultiplier:
    """``rescale`` changes only the multiplier s; readers and updates apply it."""

    @settings(max_examples=80, deadline=None)
    @given(scaled_update_sequences())
    def test_matches_an_explicitly_scaled_dense_reference(self, case):
        g, steps, rng = case
        state = SpdState(g)
        ref_g, ref_inv = state.g.copy(), state.g_inv.copy()
        n = len(g)
        for step in steps:
            if step[0] == "rescale":
                state.rescale(step[1])
                ref_g, ref_inv = ref_g * step[1], ref_inv / step[1]
            else:
                p = rng.standard_normal(n)
                if step[0] == "coordinate":
                    q, ref_q = step[1], ref_g[:, step[1]]
                else:
                    q = ref_q = rng.standard_normal(n)
                coeffs = _bounded_coefficients(ref_g, p, ref_q, step[-1])
                state.rank2_update(p, q, *coeffs)
                ref_g, ref_inv = reference_rank2_update(ref_g, ref_inv, p, ref_q, *coeffs)
            for got, ref in ((state.g, ref_g), (state.g_inv, ref_inv)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
                assert np.array_equal(got, got.T)
            assert np.array_equal(state.diag, state.g.diagonal())
            v = rng.standard_normal(n)
            for got, ref in ((state.apply(v), ref_g), (state.solve(v), ref_inv)):
                bound = 1e-12 * np.max(np.abs(ref)) * np.sum(np.abs(v))
                assert np.max(np.abs(got - ref @ v)) <= bound
        assert state.update_count == sum(step[0] != "rescale" for step in steps)

    def test_rescale_is_exact_in_the_readers(self, rng):
        state = SpdState(random_like(rng, 5))
        g0, inv0 = state.g, state.g_inv
        state.rescale(4.0)
        assert np.array_equal(state.g, g0 * 4.0)
        assert np.array_equal(state.g_inv, inv0 / 4.0)
        assert np.array_equal(state.diag, g0.diagonal() * 4.0)

    def test_readers_refuse_an_overflowing_product(self):
        state = SpdState.scaled_identity(2, 1e300).rescale(1e10)
        readers = [
            lambda: state.g, lambda: state.diag, lambda: state.apply([1.0, 0.0]),
        ]
        for read in readers:  # warnings are errors: none may warn
            with pytest.raises(NonFiniteResult, match="times the scale 1.000e\\+10"):
                read()
        assert np.array_equal(state.solve([1.0, 0.0]), [1e-310, 0.0])
        assert np.array_equal(state._g, np.eye(2) * 1e300)

    def test_readers_at_unit_scale_return_the_stored_bits(self, rng):
        state = SpdState(random_like(rng, 4))
        u = rng.standard_normal(4)
        assert np.array_equal(state.diag, state._g.diagonal())
        assert state.apply(u).tobytes() == (state._g @ u).tobytes()
        assert not np.shares_memory(state.diag, state._g)

    def test_an_overflowing_multiplier_is_refused_unchanged(self):
        state = SpdState.scaled_identity(2, 1.0).rescale(1e300)
        with pytest.raises(NonFiniteResult):
            state.rescale(1e10)
        assert np.array_equal(state.g, np.eye(2) * 1e300)
        assert state.update_count == 0


class TestRescaleSolve:
    def test_rescale_identity_factor(self, rng):
        state = SpdState(random_like(rng, 3))
        g0 = state.g.copy()
        state.rescale(1.0)
        assert np.array_equal(state.g, g0)

    def test_rescale_diagonal(self):
        # square entries: the Cholesky-built inverse of diag(1, 4) is exact
        state = SpdState(np.diag([1.0, 4.0]))
        state.rescale(2.0)
        assert np.array_equal(state.g, np.diag([2.0, 8.0]))
        assert np.array_equal(state.g_inv, np.diag([0.5, 0.125]))

    def test_rescale_keeps_drift_small(self, rng):
        state = SpdState(random_like(rng, 8))
        state.rescale(1.37)
        assert state.audit() <= 1e-10

    def test_rescale_round_trip(self, rng):
        state = SpdState(random_like(rng, 5))
        g0 = state.g.copy()
        c = 1.9
        state.rescale(c)
        state.rescale(1.0 / c)
        err = np.max(np.abs(state.g - g0)) / np.max(np.abs(g0))
        assert err <= 1e-12

    def test_rescale_rejects_nonpositive(self):
        state = SpdState.scaled_identity(2, 1.0)
        with pytest.raises(NonPositiveScale):
            state.rescale(0.0)
        with pytest.raises(NonPositiveScale):
            state.rescale(-1.0)

    def test_rescale_rejects_infinite(self):
        state = SpdState.scaled_identity(2, 1.0)
        with pytest.raises(NonFiniteResult):
            state.rescale(np.inf)
        assert np.array_equal(state.g, np.eye(2))
        assert np.array_equal(state.solve([3.0, 4.0]), [3.0, 4.0])

    def test_solve_identity(self):
        state = SpdState.scaled_identity(2, 1.0)
        assert np.array_equal(state.solve([5.0, 6.0]), [5.0, 6.0])

    def test_solve_diagonal(self):
        state = SpdState(np.diag([4.0, 16.0]))
        assert np.array_equal(state.solve([4.0, 16.0]), [1.0, 1.0])

    def test_solve_residual(self, rng):
        a = random_like(rng, 10)
        state = SpdState(a)
        rhs = rng.standard_normal(10)
        x = state.solve(rhs)
        assert np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs) <= 1e-10


class TestStateLifecycle:
    def test_refactorize_repairs_corrupted_inverse(self, rng):
        state = SpdState(random_like(rng, 5))
        state._g_inv += 0.1  # simulate accumulated drift
        assert state.audit() > 1e-6
        state.refactorize()
        assert state.drift <= 1e-10

    def test_diagonal_with_a_zero_entry_is_refused(self):
        with pytest.raises(NotPositiveDefinite):
            SpdState(np.diag([1.0, 0.0]))

    def test_subnormal_pivots_are_refused(self):
        # PIVOT_RTOL * 1e-310 underflows to 0; the inverse's 1e310 would overflow
        with pytest.raises(NotPositiveDefinite):
            SpdState(np.diag([1e-310, 1e-310]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_diagonal_with_a_non_finite_entry_is_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SpdState(np.diag([bad, 1.0]))

    @pytest.mark.parametrize(
        "scale,error",
        [(0.0, NonPositiveScale), (-2.0, NonPositiveScale), (np.nan, NonPositiveScale),
         (np.inf, NonFiniteResult)],
    )
    def test_scaled_identity_refuses_what_rescale_refuses(self, scale, error):
        with pytest.raises(error):
            SpdState.scaled_identity(3, scale)
        with pytest.raises(error):
            SpdState.scaled_identity(3, 1.0).rescale(scale)

    def test_exposed_matrices_are_read_only(self, rng):
        state = SpdState(random_like(rng, 3))
        with pytest.raises(ValueError):
            state.g[0, 0] = 99.0


class TestMaintenanceStress:
    def test_audit_cadence(self, rng, monkeypatch):
        # ("audit", update count, drift) and ("refactorize", update count), in call order
        events = []
        audit, refactorize = SpdState.audit, SpdState.refactorize

        def audit_spy(state):
            drift = audit(state)
            events.append(("audit", state.update_count, drift))
            return drift

        def refactorize_spy(state):
            events.append(("refactorize", state.update_count))
            refactorize(state)

        n = 6
        state = SpdState.scaled_identity(n, 2.0)
        monkeypatch.setattr(SpdState, "audit", audit_spy)
        monkeypatch.setattr(SpdState, "refactorize", refactorize_spy)
        # i counts rank-two updates; the rescales between them count for nothing
        for i in range(3 * AUDIT_EVERY + 7):
            if i == 2 * AUDIT_EVERY - 3:
                state._g_inv[0, 0] += 1e-3  # drift past DRIFT_LIMIT before the second audit
            if i % 3 == 2:
                state.rescale(rng.uniform(0.5, 2.0))
            p, q = rng.standard_normal(n), rng.standard_normal(n)
            c11, c22 = rng.uniform(0.01, 0.3, 2)
            state.rank2_update(p, q, c11, rng.uniform(-0.9, 0.9) * np.sqrt(c11 * c22), c22)
        # a refactorization audits its own result at the same update count
        assert [e[:2] for e in events] == [
            ("audit", AUDIT_EVERY),
            ("audit", 2 * AUDIT_EVERY),
            ("refactorize", 2 * AUDIT_EVERY),
            ("audit", 2 * AUDIT_EVERY),
            ("audit", 3 * AUDIT_EVERY),
        ]
        drifts = [e[2] for e in events if e[0] == "audit"]
        assert drifts[1] > DRIFT_LIMIT
        assert max(drifts[0], *drifts[2:]) <= DRIFT_LIMIT

    def test_rescales_alone_never_audit(self, monkeypatch):
        audits = []
        monkeypatch.setattr(SpdState, "audit", lambda state: audits.append(state.n) or 0.0)
        state = SpdState.scaled_identity(4, 2.0)
        for k in range(3 * AUDIT_EVERY):
            state.rescale(2.0 if k % 2 else 0.5)
        assert audits == []
        assert state.update_count == 0

    def test_thousand_mixed_updates(self, rng):
        n = 50
        state = SpdState.scaled_identity(n, 1.0)
        for i in range(1000):
            if i % 5 == 4:
                state.rescale(rng.uniform(0.5, 2.0))
            else:
                p = rng.standard_normal(n)
                q = rng.standard_normal(n)
                c11, c22 = rng.uniform(0.01, 0.3, 2)
                c12 = rng.uniform(-0.9, 0.9) * np.sqrt(c11 * c22)
                state.rank2_update(p, q, c11, c12, c22)
        assert state.audit() <= 1e-6
        fresh = np.linalg.inv(state.g)
        rel = np.max(np.abs(state.g_inv - fresh)) / np.max(np.abs(fresh))
        assert rel <= 1e-8
        assert state.update_count == 800  # the 200 rescales are not counted


def _exact_drift(state):
    return float(np.max(np.abs(state._g @ state._g_inv - np.eye(state.n))))


@st.composite
def drifted_states(draw):
    """A state after generated updates and rescales, then drift at a random entry.

    The drift adds delta, of either sign and log-uniform in [1e-13, 1e-4],
    to entry (i, j) and (j, i) of the stored G_s or G_s^{-1}, so the exact
    residual lands on either side of PROBE_TRIGGER and of DRIFT_LIMIT.
    """
    g, steps, rng = draw(scaled_update_sequences())
    state = SpdState(g)
    n = len(g)
    for step in steps:
        if step[0] == "rescale":
            state.rescale(step[1])
        else:
            p = rng.standard_normal(n)
            if step[0] == "coordinate":
                q, ref_q = step[1], state.g[step[1]]
            else:
                q = ref_q = rng.standard_normal(n)
            coeffs = _bounded_coefficients(state.g, p, ref_q, step[-1])
            state.rank2_update(p, q, *coeffs)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    delta = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-13.0, -4.0))
    stored = state._g_inv if draw(st.booleans()) else state._g
    stored[i, j] += delta
    if i != j:
        stored[j, i] += delta
    return state


class TestDriftProbe:
    """The audit's O(n^2) probe decides refactorization as the exact residual would."""

    @settings(max_examples=300, deadline=None)
    @given(drifted_states())
    def test_passes_the_limit_exactly_when_the_exact_residual_does(self, state):
        exact = _exact_drift(state)
        drift = state.audit()
        assert state.drift == drift
        assert (drift > DRIFT_LIMIT) == (exact > DRIFT_LIMIT)
        if drift > PROBE_TRIGGER:  # the stored value is then the exact residual itself
            assert drift == exact

    def test_probe_block_is_fixed_signs_built_once_per_size(self):
        v = _probe_block(7)
        assert v.shape == (7, 2)
        assert set(np.unique(v)) <= {-1.0, 1.0}
        assert not v.flags.writeable
        state = SpdState(random_spd(np.random.default_rng(1), 7))
        state.audit()
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError):
            for _ in range(3):
                state.audit()
        assert _probe_block(7) is v

    def test_no_dense_temporary(self):
        n = 1000
        state = SpdState.scaled_identity(n, 2.0)
        state.audit()  # the probe block of this n is built outside the measurement
        tracemalloc.start()
        try:
            drift = state.audit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drift <= PROBE_TRIGGER  # the probe alone decided
        assert peak < n * n * 8 / 4

    def test_an_overflowing_probe_defers_to_the_exact_residual(self):
        # G_s^{-1} = a w w^T with w the probe's first column: G_s^{-1} w = 2 a w
        # overflows, while the exact product G_s G_s^{-1} = 1e-300 a w w^T does not.
        w = _probe_block(2)[:, 0]
        state = SpdState(np.eye(2))
        state._g = np.eye(2) * 1e-300
        state._g_inv = np.outer(w, w) * 1.5e308
        assert state.audit() == _exact_drift(state) > DRIFT_LIMIT


@st.composite
def update_sequences(draw):
    """(n, seed, steps): rescales by c > 1, each followed by fewer than n family updates.

    Fewer than n updates between rescales keep G - A of full rank, so SR1
    never reaches G = A, where its secant denominator is rounding noise.
    """
    n = draw(st.integers(2, 10))
    rules = st.sampled_from([UpdateRule.sr1(), UpdateRule.dfp(), UpdateRule.bfgs()])
    rules |= st.floats(0.0, 1.0).map(UpdateRule.fixed)
    steps = []
    while len(steps) <= AUDIT_EVERY + 10:
        steps.append(("rescale", draw(st.floats(1.1, 2.0))))
        steps += [("update", draw(rules)) for _ in range(draw(st.integers(1, n - 1)))]
    return n, draw(st.integers(0, 2**32 - 1)), steps


class TestWoodburyConsistency:
    """The maintained inverse follows family updates and rescales past an audit."""

    # Up to half of a sequence's steps are rescales, which the cadence does
    # not count, so the test audits every AUDIT_EVERY // 2 updates to pass an
    # audit.  Drawing more than AUDIT_EVERY updates instead fails: a rescale
    # by c followed by an update that removes most of the scaled G scales the
    # inverse's relative rounding error by about c, and some 30 rescales by
    # up to 2 take the drift past DRIFT_LIMIT before an audit sees it.
    @settings(max_examples=40, deadline=None)
    @given(update_sequences())
    def test_inverse_stays_symmetric_and_consistent(self, case):
        n, seed, steps = case
        rng = np.random.default_rng(seed)
        a, g = random_dominating_pair(rng, n)
        state = SpdState(g)
        fresh = np.linalg.inv(g)
        rel = np.max(np.abs(state.g_inv - fresh)) / np.max(np.abs(fresh))
        assert rel <= 1e-12
        with mock.patch.object(operator_core, "AUDIT_EVERY", AUDIT_EVERY // 2):
            for kind, arg in steps:
                if kind == "rescale":
                    state.rescale(arg)
                else:
                    u = rng.standard_normal(n)
                    broyden_update(state, u, a @ u, arg)
                g_inv = state.g_inv
                assert np.array_equal(g_inv, g_inv.T)
                assert np.max(np.abs(state.g @ g_inv - np.eye(n))) <= DRIFT_LIMIT
        assert state.update_count > AUDIT_EVERY // 2


@st.composite
def updated_states(draw):
    """A state after a random mix of rank-two updates and rescales."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = SpdState.scaled_identity(n, draw(st.floats(0.1, 10.0)))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            state.rescale(draw(st.floats(0.5, 2.0)))
        else:
            p, q = rng.standard_normal(n), rng.standard_normal(n)
            c11, c22 = rng.uniform(0.01, 0.3, 2)
            c12 = rng.uniform(-0.9, 0.9) * np.sqrt(c11 * c22)
            state.rank2_update(p, q, c11, draw(st.sampled_from([0.0, c12])), c22)
    return state


class TestGreedyCurvatures:
    """Along e_i, ``broyden_update`` reads <Au, u> as ``au[i]`` and <Gu, u> as ``diag[i]``."""

    @settings(max_examples=60, deadline=None)
    @given(updated_states(), st.data())
    def test_are_the_bits_of_the_products_along_e_i(self, state, data):
        n = state.n
        au = data.draw(hnp.arrays(float, n, elements=st.floats(-1e300, 1e300)))
        diag = state.diag
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            assert diag[i].tobytes() == np.dot(state.apply(e), e).tobytes()
            # A zero's sign may differ; broyden_update refuses either as non-positive.
            assert au[i].tobytes() == np.dot(au, e).tobytes() or au[i] == 0.0


class TestCoordinateRange:
    """An int direction outside range(n) is refused before anything is read or written."""

    @pytest.mark.parametrize("i", [-1, 3])
    @pytest.mark.parametrize("update", ["rank2_update", "broyden_update"])
    def test_is_refused_unchanged(self, rng, i, update):
        a, g = random_dominating_pair(rng, 3)
        state = SpdState(g)
        g0, inv0 = state.g, state.g_inv
        with pytest.raises(DimensionMismatch, match=f"coordinate {i} is outside range\\(3\\)"):
            if update == "rank2_update":
                state.rank2_update(a[0], i, 1.0, 0.0, -1.0 / g[0, 0])
            else:
                broyden_update(state, i, a[0], UpdateRule.bfgs())
        assert np.array_equal(state.g, g0)
        assert np.array_equal(state.g_inv, inv0)
        assert state.update_count == 0


# Above n^2 = BLOCK_ENTRIES (n > 181) a coordinate update queues its terms.
QUEUED_N = 200


def queued_state(rng, updates=30, rescale=True):
    """(A, state): a state of size QUEUED_N after greedy family updates toward A, still queued.

    Every third update is preceded by a rescale by 1.05 when ``rescale`` is set.
    """
    a, g = random_dominating_pair(rng, QUEUED_N)
    state = SpdState(g)
    rules = [UpdateRule.bfgs(), UpdateRule.sr1(), UpdateRule.dfp()]
    for k in range(updates):
        if rescale and k % 3 == 2:
            state.rescale(1.05)
        i = greedy_direction(state.diag, a.diagonal())
        broyden_update(state, i, a[:, i], rules[k % 3])
    assert state._gq.count > 0 and state.update_count % AUDIT_EVERY
    return a, state


def exactly_symmetric(m):
    return m.tobytes() == m.T.copy().tobytes()


def queues_with_room(n):
    """An n x n state's two queues with room for 2 * AUDIT_EVERY terms, as above BLOCK_ENTRIES."""
    return _Queue(n, 2 * AUDIT_EVERY), _Queue(n, 2 * AUDIT_EVERY)


class TestQueuedUpdates:
    """Queued coordinate updates: the readers see every term, and a flush stores what they saw."""

    def test_the_depth_follows_the_block_budget(self):
        assert 181 * 181 <= BLOCK_ENTRIES < 182 * 182
        assert [len(q.sign) for q in _queues(181)] == [0, 0]
        assert [len(q.sign) for q in _queues(182)] == [2 * AUDIT_EVERY] * 2

    @pytest.mark.parametrize("n", [1, 7, QUEUED_N])
    def test_add_squares_gives_the_diagonal_bits_of_dger(self, rng, n):
        a = random_like(rng, n)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        for sign in (1.0, -1.0):
            full = a.copy()
            _ger(full, sign, x)
            d = a.diagonal().copy()
            _add_squares(d, sign, x)
            assert d.tobytes() == full.diagonal().copy().tobytes()

    def test_an_update_changes_the_stored_arrays_only_where_it_is_not_queued(self, rng):
        a, g = random_dominating_pair(rng, QUEUED_N)
        state = SpdState(g)
        off_diagonal = ~np.eye(QUEUED_N, dtype=bool)
        for rule in (UpdateRule.bfgs(), UpdateRule.sr1(), UpdateRule.dfp()):
            state.rescale(1.05)
            i = greedy_direction(state.diag, a.diagonal())
            g0, inv0, count = state._g.copy(), state._g_inv.copy(), state._iq.count
            broyden_update(state, i, a[:, i], rule)
            outside = np.ones((QUEUED_N, QUEUED_N), dtype=bool)
            outside[i] = outside[:, i] = False
            assert np.array_equal(state._g_inv[outside], inv0[outside])
            assert not np.array_equal(state._g_inv[i], inv0[i])
            assert state._iq.count <= count + 1
            assert np.array_equal(state._g[off_diagonal], g0[off_diagonal])

    # Fixed tau is left out: its blend is a cancelling sum on the coordinate path,
    # whose rounding the two schedules need not share.  At most six rescales: a
    # rescale before every update amplifies the rounding of the sequence itself,
    # about 1.3-fold per step, whichever the schedule.
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        rule=st.sampled_from([UpdateRule.sr1(), UpdateRule.dfp(), UpdateRule.bfgs()]),
        updates=st.integers(1, 60),
        rescales=st.dictionaries(st.integers(0, 59), st.floats(1.0, 2.0), max_size=6),
    )
    def test_both_schedules_give_the_same_state(self, n, seed, rule, updates, rescales):
        # Update k follows a rescale by rescales[k], if drawn; more than AUDIT_EVERY
        # updates cross an audit, which flushes the queues.
        a, g = random_dominating_pair(np.random.default_rng(seed), n)
        immediate = SpdState(g)
        with mock.patch.object(operator_core, "_queues", queues_with_room):
            queued = SpdState(g)
        for k in range(updates):
            i = greedy_direction(immediate.diag, a.diagonal())
            refusals = []
            for state in (immediate, queued):
                try:
                    if k in rescales:
                        state.rescale(rescales[k])
                    broyden_update(state, i, a[:, i], rule)
                    refusals.append(None)
                except GreedyQnError as err:
                    refusals.append(type(err))
            assert refusals[0] is refusals[1]
            if refusals[0] is not None:
                return
        for audit in (False, True):
            if audit:
                immediate.audit()
                queued.audit()
            for got, ref in ((queued.diag, immediate.diag), (queued.g, immediate.g)):
                assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
            # Each inverse is G^{-1}(I + R), with R = G g_inv - I its own drift, so
            # two of them may also differ by about n max|G^{-1}| (max|R_a| + max|R_b|).
            drift = sum(
                float(np.max(np.abs(state.g @ state.g_inv - np.eye(n))))
                for state in (immediate, queued)
            )
            ref = immediate.g_inv
            assert np.max(np.abs(queued.g_inv - ref)) <= (1e-10 + n * drift) * np.max(np.abs(ref))
            for state in (immediate, queued):
                assert exactly_symmetric(state.g) and exactly_symmetric(state.g_inv)

    def test_readers_see_the_queue_and_a_flush_stores_what_they_saw(self, rng):
        _, state = queued_state(rng)
        count = state._gq.count
        g, g_inv, diag = state.g, state.g_inv, state.diag
        v = rng.standard_normal(QUEUED_N)
        x = state.solve(v)
        assert state._gq.count == count  # reading applied nothing
        assert diag.tobytes() == g.diagonal().copy().tobytes()
        assert exactly_symmetric(g) and exactly_symmetric(g_inv)
        assert np.max(np.abs(g @ g_inv - np.eye(QUEUED_N))) <= 1e-9
        assert np.max(np.abs(g @ x - v)) <= 1e-9 * np.max(np.abs(v))
        state.audit()
        assert state._gq.count == state._iq.count == 0
        assert state.g.tobytes() == g.tobytes() and state.g_inv.tobytes() == g_inv.tobytes()
        assert state.diag.tobytes() == diag.tobytes()
        assert exactly_symmetric(state._g) and exactly_symmetric(state._g_inv)

    def test_diag_has_the_bits_of_the_products_along_e_i(self, rng):
        _, state = queued_state(rng)
        diag = state.diag  # read before apply applies the queue
        for i in range(QUEUED_N):
            e = np.zeros(QUEUED_N)
            e[i] = 1.0
            assert diag[i].tobytes() == np.dot(state.apply(e), e).tobytes()

    def test_refusal_reads_the_diagonal_the_state_then_reports(self, rng):
        _, base = queued_state(rng, rescale=False)
        checked = []
        add_squares = operator_core._add_squares

        def spy(d, sign, x):
            add_squares(d, sign, x)
            checked.append(d.copy())

        outcomes = set()
        with mock.patch.object(operator_core, "_add_squares", spy):
            for trial in range(24):
                state = copy.deepcopy(base)
                i = int(rng.integers(QUEUED_N))
                g_ii = state.diag[i]
                p = rng.standard_normal(QUEUED_N)
                p[i] = g_ii * (-1.0) ** trial * 10.0 ** -rng.uniform(11.0, 14.0)
                g0, inv0, count = state.g, state.g_inv, state._gq.count
                checked.clear()
                try:  # BFGS: the new G_ii is p_i
                    state.rank2_update(p, i, 1.0 / p[i], 0.0, -1.0 / g_ii)
                except NotPositiveDefinite:
                    outcomes.add("refused")
                    assert checked[-1][i] <= 0.0
                    assert np.array_equal(state.g, g0) and np.array_equal(state.g_inv, inv0)
                    assert state._gq.count == count
                except SingularCapacitance:
                    pass
                else:
                    outcomes.add("taken")
                    assert checked[-1][i] > 0.0
                    assert state.diag[i].tobytes() == checked[-1][i].tobytes()
                    assert np.array_equal(state.diag, checked[-1])
        assert outcomes == {"refused", "taken"}

    @pytest.mark.parametrize("delta", [1e-12, 1e-4])
    def test_audit_decides_on_the_queued_terms(self, rng, delta):
        a, state = queued_state(rng)
        # drift that only the queue carries: a term owed to G_s^{-1}
        e = np.zeros(QUEUED_N)
        e[int(rng.integers(QUEUED_N))] = math.sqrt(delta)
        state._iq.push(state._g_inv, [(1.0, e)])
        exact = float(np.max(np.abs(state.g @ state.g_inv - np.eye(QUEUED_N))))
        probe = copy.deepcopy(state)
        assert (probe.audit() > DRIFT_LIMIT) == (exact > DRIFT_LIMIT) == (delta > DRIFT_LIMIT)
        # the audit the update count calls for refactorizes on the same reading
        while state.update_count % AUDIT_EVERY:
            i = greedy_direction(state.diag, a.diagonal())
            broyden_update(state, i, a[:, i], UpdateRule.bfgs())
        assert state.drift <= DRIFT_LIMIT
        assert np.max(np.abs(state.g @ state.g_inv - np.eye(QUEUED_N))) <= DRIFT_LIMIT

    def test_a_flush_builds_no_dense_temporary(self):
        n = 1000
        rng = np.random.default_rng(5)
        state = SpdState.scaled_identity(n, 2.0)
        state.audit()  # the probe block of this n is built outside the measurement
        for i in range(AUDIT_EVERY - 1):
            p = rng.standard_normal(n) / math.sqrt(n)
            state.rank2_update(p, i, 1e-3, 0.0, -1e-4)
        assert state._gq.count == 2 * (AUDIT_EVERY - 1)
        tracemalloc.start()
        try:
            state.audit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state._gq.count == 0
        assert peak < n * n * 8 / 4

    def test_greedy_bfgs_matches_immediate_updates(self):
        oracle = generate_logsumexp(SyntheticSpec(n=QUEUED_N, m=QUEUED_N, gamma=1.0, seed=4))
        config = SolverConfig(
            rule=UpdateRule.bfgs(),
            strategy=DirectionStrategy.greedy(),
            termination=GradientNorm(1e-12),
            max_iter=60,
            correction=True,
            m_const=oracle.self_concordance_m,
        )

        def run():
            states = []
            make = SpdState.scaled_identity
            with mock.patch.object(
                SpdState, "scaled_identity", lambda n, c: states.append(make(n, c)) or states[-1]
            ):
                _, trace = solve_general(oracle, generate_start(QUEUED_N, 4), config)
            return trace, states[0]

        queued, state = run()
        with mock.patch.object(operator_core, "_queues", lambda n: (_Queue(n, 0), _Queue(n, 0))):
            immediate, reference = run()
        assert len(reference._gq.sign) == 0 and state.update_count > AUDIT_EVERY
        assert [r.direction_index for r in queued.records] == [
            r.direction_index for r in immediate.records
        ]
        for got, ref in zip(queued.records, immediate.records, strict=True):
            for field in ("f_value", "grad_norm", "r_k"):
                a, b = getattr(got, field), getattr(ref, field)
                assert (a is None and b is None) or abs(a - b) <= 1e-12 * abs(b)
        for got, ref in ((state.g, reference.g), (state.g_inv, reference.g_inv)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
