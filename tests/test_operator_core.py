import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_dominating_pair, random_spd, reference_cholesky
from greedyqn.errors import (
    DimensionMismatch,
    NonFiniteResult,
    NonPositiveCurvature,
    NonPositiveScale,
    NotPositiveDefinite,
    SingularCapacitance,
)
from greedyqn.broyden import UpdateRule, broyden_update
from greedyqn.operator_core import (
    AUDIT_EVERY,
    BLOCK_ENTRIES,
    DRIFT_LIMIT,
    PIVOT_RTOL,
    DenseSymmetric,
    SpdState,
    factorize,
)


class TestDenseSymmetric:
    def test_enforces_exact_symmetry(self, rng):
        a = rng.standard_normal((4, 4))
        m = DenseSymmetric(a)
        assert np.array_equal(m.entries, m.entries.T)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            DenseSymmetric(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        a = np.eye(2)
        a[0, 1] = np.inf
        with pytest.raises(ValueError):
            DenseSymmetric(a)

    def test_immutable(self):
        m = DenseSymmetric(np.eye(2))
        with pytest.raises(AttributeError):
            m.n = 3
        with pytest.raises(ValueError):
            m.entries[0, 0] = 2.0


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
    return DenseSymmetric(a * 10.0 ** draw(st.integers(-3, 3))).entries


class TestFactorize:
    def test_identity(self):
        f = factorize(DenseSymmetric.identity(3))
        assert np.array_equal(f.lower, np.eye(3))

    def test_diagonal_square_roots(self):
        f = factorize(DenseSymmetric.from_diagonal([4.0, 9.0]))
        assert np.array_equal(f.lower, np.diag([2.0, 3.0]))

    def test_random_spd_reconstructs(self, rng):
        m = rng.standard_normal((5, 5))
        a = DenseSymmetric(m.T @ m + np.eye(5))
        f = factorize(a)
        recon = f.lower @ f.lower.T
        rel = np.linalg.norm(recon - a.entries) / np.linalg.norm(a.entries)
        assert rel <= 1e-10

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite) as info:
            factorize(DenseSymmetric(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert str(info.value) == "pivot -3.000e+00 at column 1 (threshold 1.000e-14)"

    def test_tiny_pivot_relative_to_scale(self):
        # second pivot eliminates to zero: below 1e-14 * max-diagonal
        a = np.array([[1e10, 1e5], [1e5, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            factorize(DenseSymmetric(a))

    def test_solve_matches_dense(self, rng):
        a = DenseSymmetric(random_like(rng, 6))
        f = factorize(a)
        rhs = rng.standard_normal(6)
        x = f.solve(rhs)
        assert np.linalg.norm(a.entries @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_empty_matrix_is_silent(self, capfd):
        f = factorize(DenseSymmetric(np.zeros((0, 0))))
        assert f.lower.shape == (0, 0)
        assert f.inverse().shape == (0, 0)
        assert SpdState(DenseSymmetric(np.zeros((0, 0)))).drift == 0.0
        assert capfd.readouterr() == ("", "")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(1.0, 1e6),
           st.integers(-3, 3))
    def test_generated_spd_reconstructs(self, n, seed, cond, exponent):
        a = random_spd(np.random.default_rng(seed), n, cond) * 10.0**exponent
        low = factorize(DenseSymmetric(a)).lower
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
            factorize(DenseSymmetric(a))
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
        out = SpdState.from_diagonal([1.0, 2.0]).apply([3.0, 4.0])
        assert np.array_equal(out, [3.0, 8.0])

    def test_apply_matches_double_loop(self, rng):
        state = SpdState(DenseSymmetric(random_like(rng, 4)))
        g = state.g.entries
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
        state = SpdState.from_diagonal([1.0, 2.0])
        assert _guu(state, [1.0, 1.0]) == 3.0

    def test_quad_form_matches_apply_then_dot(self, rng):
        state = SpdState(DenseSymmetric(random_like(rng, 5)))
        u = rng.standard_normal(5)
        expected = float(np.dot(state.apply(u), u))
        guu = _guu(state, u)
        assert abs(guu - expected) <= 1e-13 * abs(expected)


class TestRank2Update:
    def test_single_coordinate_update(self):
        state = SpdState.scaled_identity(2, 1.0)
        state.rank2_update(np.array([1.0, 0.0]), np.zeros(2), 1.0, 0.0, 0.0)
        assert np.array_equal(state.g.entries, np.diag([2.0, 1.0]))
        assert np.array_equal(state.g_inv.entries, np.diag([0.5, 1.0]))

    def test_zero_coefficients_leave_state_unchanged(self, rng):
        state = SpdState(DenseSymmetric(random_like(rng, 4)))
        g0, inv0 = state.g.entries.copy(), state.g_inv.entries.copy()
        state.rank2_update(rng.standard_normal(4), rng.standard_normal(4), 0.0, 0.0, 0.0)
        assert np.array_equal(state.g.entries, g0)
        assert np.array_equal(state.g_inv.entries, inv0)

    def test_maintained_inverse_matches_dense(self, rng):
        n = 20
        state = SpdState.scaled_identity(n, 2.0)
        for _ in range(100):
            p = rng.standard_normal(n)
            q = rng.standard_normal(n)
            c11, c22 = rng.uniform(0.01, 0.3, 2)
            c12 = rng.uniform(-0.9, 0.9) * np.sqrt(c11 * c22)
            state.rank2_update(p, q, c11, c12, c22)
        fresh = np.linalg.inv(state.g.entries)
        err = np.max(np.abs(state.g_inv.entries - fresh)) / np.max(np.abs(fresh))
        assert err <= 1e-8

    def test_singular_update_rejected(self):
        state = SpdState.scaled_identity(2, 1.0)
        with pytest.raises(SingularCapacitance):
            state.rank2_update(np.array([1.0, 0.0]), np.zeros(2), -1.0, 0.0, 0.0)

    def test_negated_coefficients_undo(self, rng):
        n = 6
        state = SpdState(DenseSymmetric(random_like(rng, n)))
        g0 = state.g.entries.copy()
        p, q = rng.standard_normal(n), rng.standard_normal(n)
        c11, c12, c22 = 0.2, 0.05, 0.1
        state.rank2_update(p, q, c11, c12, c22)
        state.rank2_update(p, q, -c11, -c12, -c22)
        err = np.max(np.abs(state.g.entries - g0)) / np.max(np.abs(g0))
        assert err <= 1e-8

    def test_diag_cache_is_exact(self, rng):
        n = 7
        state = SpdState(DenseSymmetric(random_like(rng, n)))
        for _ in range(20):
            state.rank2_update(
                rng.standard_normal(n), rng.standard_normal(n), 0.1, 0.02, 0.05
            )
            assert np.array_equal(state.diag, state.g.entries.diagonal())
        state.rescale(1.7)
        assert np.array_equal(state.diag, state.g.entries.diagonal())


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
        state = SpdState(DenseSymmetric(g))
        ref_g, ref_inv = state.g.entries, state.g_inv.entries
        for p, q, c11, c12, c22 in updates:
            ref_g, ref_inv = reference_rank2_update(ref_g, ref_inv, p, q, c11, c12, c22)
            state.rank2_update(p, q, c11, c12, c22)
            assert np.array_equal(state.g.entries, ref_g)
            assert np.array_equal(state.g_inv.entries, ref_inv)
            assert np.array_equal(state.g.entries, state.g.entries.T)
            assert np.array_equal(state.g_inv.entries, state.g_inv.entries.T)

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
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_spd(rng, n)
    i = draw(st.integers(0, n - 1))
    p = rng.standard_normal(n) * 10.0 ** draw(st.integers(-2, 2))
    pn, qn = np.linalg.norm(p), np.linalg.norm(g[i])
    f11, f12, f22 = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    return g, i, p, (f11 / (6 * pn * pn), f12 / (12 * pn * qn), f22 / (6 * qn * qn))


class TestCoordinateUpdate:
    """``rank2_update(p, G e_i, ..., index=i)`` against the dense path on the same pair."""

    @settings(max_examples=100, deadline=None)
    @given(coordinate_cases())
    def test_matches_the_dense_path(self, case):
        g, i, p, coeffs = case
        dense, coord = SpdState(DenseSymmetric(g)), SpdState(DenseSymmetric(g))
        dense.rank2_update(p, dense.column(i), *coeffs)
        coord.rank2_update(p, coord.column(i), *coeffs, index=i)
        assert coord.g.entries.tobytes() == dense.g.entries.tobytes()
        inv, ref = coord.g_inv.entries, dense.g_inv.entries
        assert np.max(np.abs(inv - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(inv, inv.T)
        assert coord.update_count == dense.update_count

    def test_nonpositive_diagonal_is_refused_unchanged(self):
        # G - 2 e_0 e_0^T = diag(-1, 1): K is not singular, but G_00 turns negative
        state = SpdState.from_diagonal([1.0, 1.0])
        g0, inv0 = state.g.entries, state.g_inv.entries
        with pytest.raises(NotPositiveDefinite, match="diagonal entry 0 to -1.000e"):
            state.rank2_update(np.array([1.0, 0.0]), state.column(0), -2.0, 0.0, 0.0, index=0)
        assert np.array_equal(state.g.entries, g0)
        assert np.array_equal(state.g_inv.entries, inv0)
        assert state.update_count == 0


class TestRescaleSolve:
    def test_rescale_identity_factor(self, rng):
        state = SpdState(DenseSymmetric(random_like(rng, 3)))
        g0 = state.g.entries.copy()
        state.rescale(1.0)
        assert np.array_equal(state.g.entries, g0)

    def test_rescale_diagonal(self):
        state = SpdState.from_diagonal([1.0, 2.0])
        state.rescale(2.0)
        assert np.array_equal(state.g.entries, np.diag([2.0, 4.0]))
        assert np.array_equal(state.g_inv.entries, np.diag([0.5, 0.25]))

    def test_rescale_keeps_drift_small(self, rng):
        state = SpdState(DenseSymmetric(random_like(rng, 8)))
        state.rescale(1.37)
        assert state.audit() <= 1e-10

    def test_rescale_round_trip(self, rng):
        state = SpdState(DenseSymmetric(random_like(rng, 5)))
        g0 = state.g.entries.copy()
        c = 1.9
        state.rescale(c)
        state.rescale(1.0 / c)
        err = np.max(np.abs(state.g.entries - g0)) / np.max(np.abs(g0))
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
        assert np.array_equal(state.g.entries, np.eye(2))
        assert np.array_equal(state.solve([3.0, 4.0]), [3.0, 4.0])

    def test_solve_identity(self):
        state = SpdState.scaled_identity(2, 1.0)
        assert np.array_equal(state.solve([5.0, 6.0]), [5.0, 6.0])

    def test_solve_diagonal(self):
        state = SpdState.from_diagonal([2.0, 4.0])
        assert np.array_equal(state.solve([2.0, 4.0]), [1.0, 1.0])

    def test_solve_residual(self, rng):
        a = random_like(rng, 10)
        state = SpdState(DenseSymmetric(a))
        rhs = rng.standard_normal(10)
        x = state.solve(rhs)
        assert np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs) <= 1e-10


class TestStateLifecycle:
    def test_refactorize_repairs_corrupted_inverse(self, rng):
        state = SpdState(DenseSymmetric(random_like(rng, 5)))
        state._g_inv += 0.1  # simulate accumulated drift
        assert state.audit() > 1e-6
        state.refactorize()
        assert state.drift <= 1e-10

    def test_from_diagonal_rejects_nonpositive(self):
        with pytest.raises(NotPositiveDefinite):
            SpdState.from_diagonal([1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_diagonal_refuses_non_finite(self, bad):
        with pytest.raises(NonFiniteResult):
            SpdState.from_diagonal([bad, 1.0])

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
        state = SpdState(DenseSymmetric(random_like(rng, 3)))
        with pytest.raises(ValueError):
            state.g.entries[0, 0] = 99.0


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
        for i in range(3 * AUDIT_EVERY + 7):
            if i == 2 * AUDIT_EVERY - 3:
                state._g_inv[0, 0] += 1e-3  # drift past DRIFT_LIMIT before the second audit
            if i % 4 == 3:
                state.rescale(rng.uniform(0.5, 2.0))
            else:
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
        fresh = np.linalg.inv(state.g.entries)
        rel = np.max(np.abs(state.g_inv.entries - fresh)) / np.max(np.abs(fresh))
        assert rel <= 1e-8
        assert state.update_count == 1000


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

    @settings(max_examples=40, deadline=None)
    @given(update_sequences())
    def test_inverse_stays_symmetric_and_consistent(self, case):
        n, seed, steps = case
        rng = np.random.default_rng(seed)
        a, g = random_dominating_pair(rng, n)
        state = SpdState(DenseSymmetric(g))
        fresh = np.linalg.inv(g)
        rel = np.max(np.abs(state.g_inv.entries - fresh)) / np.max(np.abs(fresh))
        assert rel <= 1e-12
        for kind, arg in steps:
            if kind == "rescale":
                state.rescale(arg)
            else:
                u = rng.standard_normal(n)
                broyden_update(state, u, a @ u, arg)
            g_inv = state.g_inv.entries
            assert np.array_equal(g_inv, g_inv.T)
            assert np.max(np.abs(state.g.entries @ g_inv - np.eye(n))) <= DRIFT_LIMIT
        assert state.update_count > AUDIT_EVERY


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


class TestColumn:
    @settings(max_examples=60, deadline=None)
    @given(updated_states())
    def test_column_is_apply_along_e_i(self, state):
        for i in range(state.n):
            e = np.zeros(state.n)
            e[i] = 1.0
            assert state.column(i).tobytes() == state.apply(e).tobytes()

    def test_column_is_a_copy(self, rng):
        state = SpdState(DenseSymmetric(random_like(rng, 4)))
        col = state.column(1)
        col[:] = 0.0
        assert np.array_equal(state.column(1), state.g.entries[:, 1])
        assert state.column(1)[1] > 0.0
