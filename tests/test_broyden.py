from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from conftest import dense_broyden, min_eig, random_dominating_pair, random_spd
from greedyqn.broyden import (
    UpdatePair,
    UpdateRule,
    broyden_update,
    greedy_direction,
    relative_op_error,
    sigma,
    tau_split,
)
from greedyqn.errors import (
    NonPositiveCurvature,
    NonPositiveHessianDiagonal,
    NotPositiveDefinite,
)
from greedyqn.operator_core import DenseSymmetric, SpdState


FAMILY = (UpdateRule.sr1(), UpdateRule.bfgs(), UpdateRule.fixed(0.5), UpdateRule.dfp())


def make_pair(g, a, u):
    state = SpdState(DenseSymmetric(g))
    return state, UpdatePair.from_state(state, u, a @ u)


class TestTauFor:
    """The mixing parameter tau, the first component of ``tau_split``."""

    def test_bfgs_ratio(self):
        pair = UpdatePair(np.ones(1), np.ones(1), auu=1.0, gu=np.ones(1), guu=3.0)
        assert tau_split(UpdateRule.bfgs(), pair)[0] == pytest.approx(1.0 / 3.0)

    def test_sr1_is_zero(self):
        pair = UpdatePair(np.ones(1), np.ones(1), auu=2.0, gu=np.ones(1), guu=5.0)
        assert tau_split(UpdateRule.sr1(), pair)[0] == 0.0

    def test_dfp_is_one(self):
        pair = UpdatePair(np.ones(1), np.ones(1), auu=2.0, gu=np.ones(1), guu=5.0)
        assert tau_split(UpdateRule.dfp(), pair)[0] == 1.0

    def test_fixed_passthrough(self):
        pair = UpdatePair(np.ones(1), np.ones(1), auu=2.0, gu=np.ones(1), guu=5.0)
        assert tau_split(UpdateRule.fixed(0.25), pair)[0] == 0.25

    def test_nonpositive_curvature(self):
        pair = UpdatePair(np.ones(1), np.ones(1), auu=-1.0, gu=np.ones(1), guu=5.0)
        with pytest.raises(NonPositiveCurvature):
            tau_split(UpdateRule.bfgs(), pair)

    def test_split_components_sum_to_one(self, rng):
        a, g = random_dominating_pair(rng, 6)
        _, pair = make_pair(g, a, rng.standard_normal(6))
        for rule in (UpdateRule.sr1(), UpdateRule.bfgs(), UpdateRule.dfp(), UpdateRule.fixed(0.3)):
            tau, omt = tau_split(rule, pair)
            assert tau + omt == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= tau <= 1.0


class TestBroydenUpdate:
    def test_degenerate_direction_leaves_state_unchanged(self, rng):
        a = random_spd(rng, 4)
        state = SpdState(DenseSymmetric(a))
        u = rng.standard_normal(4)
        pair = UpdatePair.from_state(state, u, a @ u)  # G == A along u
        g0 = state.g.entries.copy()
        broyden_update(state, pair, UpdateRule.fixed(0.5))
        assert np.array_equal(state.g.entries, g0)

    def test_sr1_shared_eigenvector_example(self):
        state = SpdState.from_diagonal([3.0, 3.0])
        a = np.diag([1.0, 2.0])
        u = np.array([1.0, 0.0])
        pair = UpdatePair.from_state(state, u, a @ u)
        broyden_update(state, pair, UpdateRule.sr1())
        assert np.allclose(state.g.entries, np.diag([1.0, 3.0]), atol=1e-14)

    def test_dfp_coincides_on_shared_eigenvector(self):
        state = SpdState.from_diagonal([3.0, 3.0])
        a = np.diag([1.0, 2.0])
        u = np.array([1.0, 0.0])
        pair = UpdatePair.from_state(state, u, a @ u)
        broyden_update(state, pair, UpdateRule.dfp())
        assert np.allclose(state.g.entries, np.diag([1.0, 3.0]), atol=1e-14)

    def test_matches_dense_formula(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a, g = random_dominating_pair(rng, n)
            u = rng.standard_normal(n)
            tau = float(rng.uniform(0.0, 1.0))
            state, pair = make_pair(g, a, u)
            broyden_update(state, pair, UpdateRule.fixed(tau))
            ref = dense_broyden(g, a, u, tau)
            assert np.max(np.abs(state.g.entries - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_rejects_tau_outside_unit_interval(self, rng):
        a, g = random_dominating_pair(rng, 3)
        state, pair = make_pair(g, a, rng.standard_normal(3))
        with pytest.raises(ValueError):
            broyden_update(state, pair, UpdateRule.fixed(1.5))

    def test_monotone_in_tau(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 13))
            a, g = random_dominating_pair(rng, n)
            u = rng.standard_normal(n)
            taus = sorted(rng.uniform(0.0, 1.0, 2))
            results = []
            for tau in taus:
                state, pair = make_pair(g, a, u)
                broyden_update(state, pair, UpdateRule.fixed(float(tau)))
                results.append(state.g.entries)
            scale = np.max(np.abs(results[1]))
            assert min_eig(results[1] - results[0]) >= -1e-9 * scale

    def test_sandwich_preserved(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 10))
            a, g = random_dominating_pair(rng, n)
            u = rng.standard_normal(n)
            eta = float(np.max(eigh(g, a, eigvals_only=True)))
            for rule in FAMILY:
                state, pair = make_pair(g, a, u)
                broyden_update(state, pair, rule)
                gp = state.g.entries
                scale = np.max(np.abs(gp))
                assert min_eig(gp - a) >= -1e-9 * scale
                assert min_eig(eta * a - gp) >= -1e-9 * scale

    def test_sigma_progress_lower_bound(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 10))
            a, g = random_dominating_pair(rng, n)
            u = rng.standard_normal(n)
            tau = float(rng.uniform(0.0, 1.0))
            state, pair = make_pair(g, a, u)
            before = sigma(DenseSymmetric(a), DenseSymmetric(g))
            broyden_update(state, pair, UpdateRule.fixed(tau))
            after = sigma(DenseSymmetric(a), state.g)
            gain = float(u @ (g - a) @ u) / float(u @ a @ u)
            assert before - after >= gain - 1e-9

    def test_greedy_linear_decay(self, rng):
        # one greedy update contracts the error measure by (1 - mu/(n L))
        for _ in range(10):
            n = int(rng.integers(3, 12))
            a, g = random_dominating_pair(rng, n)
            eigs = np.linalg.eigvalsh(a)
            mu, big_l = float(eigs[0]), float(eigs[-1])
            for rule in (UpdateRule.sr1(), UpdateRule.fixed(0.5), UpdateRule.dfp()):
                state = SpdState(DenseSymmetric(g))
                idx = greedy_direction(state.diag, a.diagonal())
                u = np.zeros(n)
                u[idx] = 1.0
                pair = UpdatePair.from_state(state, u, a @ u)
                before = sigma(DenseSymmetric(a), DenseSymmetric(g))
                broyden_update(state, pair, rule)
                after = sigma(DenseSymmetric(a), state.g)
                assert after <= (1.0 - mu / (n * big_l)) * before + 1e-9


rules = st.one_of(
    st.sampled_from([UpdateRule.sr1(), UpdateRule.dfp(), UpdateRule.bfgs()]),
    st.floats(0.0, 1.0).map(UpdateRule.fixed),
)


@st.composite
def update_cases(draw):
    """A generated dominating pair A <= G, a direction u and a family rule."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, g = random_dominating_pair(rng, n)
    return a, g, rng.standard_normal(n), draw(rules)


class TestUpdateContract:
    """``broyden_update`` alone decides a family update: sandwich, no-op, refusal."""

    @settings(max_examples=80, deadline=None)
    @given(update_cases())
    def test_sandwich(self, case):
        a, g, u, rule = case
        eta = float(np.max(eigh(g, a, eigvals_only=True)))
        state, pair = make_pair(g, a, u)
        broyden_update(state, pair, rule)
        gp = state.g.entries
        scale = np.max(np.abs(gp))
        assert min_eig(gp - a) >= -1e-9 * scale
        assert min_eig(eta * a - gp) >= -1e-9 * scale

    @settings(max_examples=40, deadline=None)
    @given(update_cases())
    def test_no_error_along_u_is_a_no_op(self, case):
        a, g, u, rule = case
        # G - A = P (G - A) P with P the projector orthogonal to u, so G
        # agrees with A along u
        p = np.eye(u.size) - np.outer(u, u) / (u @ u)
        state, pair = make_pair(a + p @ (g - a) @ p, a, u)
        g0, inv0 = state.g.entries, state.g_inv.entries
        assert broyden_update(state, pair, rule) is state
        assert np.array_equal(state.g.entries, g0)
        assert np.array_equal(state.g_inv.entries, inv0)

    @settings(max_examples=40, deadline=None)
    @given(update_cases(), st.sampled_from(["auu", "guu", "both"]), st.floats(0.0, 1e3))
    def test_nonpositive_curvature_is_refused(self, case, which, size):
        a, g, u, rule = case
        state, pair = make_pair(g, a, u)
        if which in ("auu", "both"):
            pair = replace(pair, auu=-size)
        if which in ("guu", "both"):
            pair = replace(pair, guu=-size)
        g0 = state.g.entries
        with pytest.raises(NonPositiveCurvature):
            broyden_update(state, pair, rule)
        assert np.array_equal(state.g.entries, g0)


class TestUpdatePair:
    def test_from_state_computes_forms(self, rng):
        a, g = random_dominating_pair(rng, 5)
        state, pair = make_pair(g, a, rng.standard_normal(5))
        assert pair.auu == pytest.approx(float(pair.u @ a @ pair.u), rel=1e-12)
        assert pair.guu == pytest.approx(float(pair.u @ g @ pair.u), rel=1e-12)

    def test_dimension_mismatch(self, rng):
        state = SpdState.scaled_identity(3, 1.0)
        with pytest.raises(Exception):
            UpdatePair.from_state(state, np.ones(2), np.ones(3))


class TestGreedyDirection:
    def test_ratio_argmax(self):
        assert greedy_direction([3.0, 3.0], [1.0, 2.0]) == 0

    def test_tie_breaks_low(self):
        assert greedy_direction([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) == 0

    def test_matches_linear_scan(self, rng):
        diag_g = rng.uniform(0.5, 5.0, 50)
        diag_a = rng.uniform(0.5, 5.0, 50)
        best, best_ratio = 0, -np.inf
        for i in range(50):
            r = diag_g[i] / diag_a[i]
            if r > best_ratio:
                best, best_ratio = i, r
        assert greedy_direction(diag_g, diag_a) == best

    def test_scaling_invariance(self, rng):
        diag_g = rng.uniform(0.5, 5.0, 20)
        diag_a = rng.uniform(0.5, 5.0, 20)
        base = greedy_direction(diag_g, diag_a)
        for c in (1e-7, 0.5, 3.0, 1e8):
            assert greedy_direction(c * diag_g, diag_a) == base

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NonPositiveHessianDiagonal):
            greedy_direction([1.0, 1.0], [1.0, 0.0])


class TestSigma:
    def test_double_identity(self):
        assert sigma(
            DenseSymmetric.identity(3), DenseSymmetric.identity(3, 2.0)
        ) == pytest.approx(3.0, abs=1e-12)

    def test_zero_at_equality(self, rng):
        a = DenseSymmetric(random_spd(rng, 5))
        assert sigma(a, a) == pytest.approx(0.0, abs=1e-10)

    def test_matches_generalized_eigenvalue_sum(self, rng):
        a, g = random_dominating_pair(rng, 8)
        expected = float(np.sum(eigh(g - a, a, eigvals_only=True)))
        got = sigma(DenseSymmetric(a), DenseSymmetric(g))
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_requires_spd_target(self):
        bad = DenseSymmetric(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            sigma(bad, DenseSymmetric.identity(2))


class TestRelativeOpError:
    def test_zero_at_equality(self, rng):
        h = DenseSymmetric(random_spd(rng, 5))
        assert relative_op_error(h, h) == 0.0

    def test_double_is_one(self, rng):
        h = random_spd(rng, 4)
        err = relative_op_error(DenseSymmetric(2.0 * h), DenseSymmetric(h))
        assert err == pytest.approx(1.0, abs=1e-10)

    def test_rank_one_bump_on_identity(self):
        g = np.eye(3)
        g[0, 0] = 2.0
        err = relative_op_error(DenseSymmetric(g), DenseSymmetric.identity(3))
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_matches_generalized_eigensolver(self, rng):
        a, g = random_dominating_pair(rng, 7)
        expected = float(np.max(np.abs(eigh(g - a, a, eigvals_only=True))))
        got = relative_op_error(DenseSymmetric(g), DenseSymmetric(a))
        assert abs(got - expected) <= 1e-9 * max(1.0, expected)
