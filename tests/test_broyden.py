import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from conftest import dense_broyden, min_eig, random_dominating_pair, random_spd
from greedyqn import broyden
from greedyqn.broyden import (
    UpdateRule,
    broyden_update,
    family_coefficients,
    greedy_direction,
    relative_op_error,
    sigma,
)
from greedyqn.errors import (
    DimensionMismatch,
    NonFiniteResult,
    NonPositiveCurvature,
    NonPositiveHessianDiagonal,
    NotPositiveDefinite,
)
from greedyqn.operator_core import SpdState


FAMILY = (UpdateRule.sr1(), UpdateRule.bfgs(), UpdateRule.fixed(0.5), UpdateRule.dfp())


def make_state(g):
    return SpdState(g)


def _bits(coeffs):
    return np.array(coeffs, dtype=float).tobytes()


class TestFamilyCoefficients:
    """The one coefficient rule (c11, c12, c22) on (p, q), alpha = <p, u>, beta = <q, u>."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_fixed_zero_is_sr1_bit_for_bit(self, alpha, beta):
        assume(abs(beta - alpha) >= 1e-6)
        sr1 = family_coefficients(UpdateRule.sr1(), alpha, beta)
        assert _bits(family_coefficients(UpdateRule.fixed(0.0), alpha, beta)) == _bits(sr1)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1e6), st.floats(-1e6, 1e6))
    def test_fixed_one_is_dfp_bit_for_bit(self, alpha, beta):
        dfp = family_coefficients(UpdateRule.dfp(), alpha, beta)
        assert _bits(family_coefficients(UpdateRule.fixed(1.0), alpha, beta)) == _bits(dfp)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1e6), st.floats(1.01, 1e4))
    def test_bfgs_is_the_blend_at_alpha_over_beta(self, alpha, ratio):
        # the paper's definition of BFGS: tau = <Au, u>/<Gu, u>
        beta = alpha * ratio
        bfgs = np.array(family_coefficients(UpdateRule.bfgs(), alpha, beta))
        blend = np.array(family_coefficients(UpdateRule.fixed(alpha / beta), alpha, beta))
        assert bfgs[1] == 0.0
        assert np.max(np.abs(bfgs - blend)) <= 1e-12 * np.max(np.abs(bfgs))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_members_skip_the_other_denominator(self, x):
        # SR1 never divides by alpha, DFP never by beta - alpha
        assert np.all(np.isfinite(family_coefficients(UpdateRule.sr1(), 0.0, x)))
        assert np.all(np.isfinite(family_coefficients(UpdateRule.dfp(), x, x)))

    @pytest.mark.parametrize(
        "rule,alpha,message",
        [
            (UpdateRule.dfp(), 1e-200, "alpha^2 underflows to 0"),
            (UpdateRule.fixed(0.5), 1e-200, "alpha^2 underflows to 0"),
            (UpdateRule.bfgs(), 1e-320, "not finite"),  # 1/alpha overflows
        ],
        ids=["dfp", "fixed-half", "bfgs"],
    )
    def test_overflowing_coefficients_are_refused(self, rule, alpha, message):
        with pytest.raises(NonFiniteResult, match=re.escape(message)):
            family_coefficients(rule, alpha, 1.0)
        state = SpdState.scaled_identity(2, 1.0)
        with pytest.raises(NonFiniteResult, match=re.escape(message)):
            broyden_update(state, [1.0, 0.0], [alpha, 0.0], rule)
        assert np.array_equal(state.g, np.eye(2))


class TestTauFor:
    """The BFGS mixing parameter tau = <Au, u>/<Gu, u> needs positive curvatures."""

    def test_nonpositive_curvature(self):
        state = SpdState(np.diag([5.0]))  # <Au, u> = -1, <Gu, u> = 5
        with pytest.raises(NonPositiveCurvature):
            broyden_update(state, np.ones(1), -np.ones(1), UpdateRule.bfgs())
        assert np.array_equal(state.g, np.diag([5.0]))


class TestBroydenUpdate:
    def test_computes_forms_from_state(self, rng, monkeypatch):
        a, g = random_dominating_pair(rng, 5)
        u = rng.standard_normal(5)
        forms = []
        coefficients = broyden.family_coefficients

        def spy(rule, alpha, beta):
            forms.append((alpha, beta))
            return coefficients(rule, alpha, beta)

        monkeypatch.setattr(broyden, "family_coefficients", spy)
        broyden_update(make_state(g), u, a @ u, UpdateRule.sr1())
        ((auu, guu),) = forms
        assert auu == pytest.approx(float(u @ a @ u), rel=1e-12)
        assert guu == pytest.approx(float(u @ g @ u), rel=1e-12)

    def test_dimension_mismatch(self):
        state = SpdState.scaled_identity(3, 1.0)
        with pytest.raises(DimensionMismatch):
            broyden_update(state, np.ones(2), np.ones(3), UpdateRule.sr1())

    @pytest.mark.parametrize("u", [0, np.array([1.0, 0.0])], ids=["coordinate", "vector"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_action_is_refused_unchanged(self, u, bad):
        # A_00 = 3 is finite: along e_0 only the check of the whole action sees A e_1
        state = SpdState(np.diag([4.0, 5.0]))
        with pytest.raises(NonFiniteResult, match="action along u is not finite"):
            broyden_update(state, u, np.array([3.0, bad]), UpdateRule.bfgs())
        assert np.array_equal(state.g, np.diag([4.0, 5.0]))
        assert state.update_count == 0

    def test_degenerate_direction_leaves_state_unchanged(self, rng):
        a = random_spd(rng, 4)
        state = SpdState(a)
        u = rng.standard_normal(4)
        g0 = state.g.copy()
        broyden_update(state, u, a @ u, UpdateRule.fixed(0.5))  # G == A along u
        assert np.array_equal(state.g, g0)

    def test_sr1_shared_eigenvector_example(self):
        state = SpdState(np.diag([3.0, 3.0]))
        a = np.diag([1.0, 2.0])
        u = np.array([1.0, 0.0])
        broyden_update(state, u, a @ u, UpdateRule.sr1())
        assert np.allclose(state.g, np.diag([1.0, 3.0]), atol=1e-14)

    @pytest.mark.parametrize(
        "rule", [UpdateRule.sr1(), UpdateRule.fixed(0.3), UpdateRule.fixed(1e-9)],
        ids=["sr1", "fixed-0.3", "fixed-1e-9"],
    )
    def test_near_degenerate_sr1_part_keeps_the_secant_condition(self, rule):
        """<Gu, u> within 1e-8 of <Au, u> relative: the SR1 part's w is huge.

        In one dimension every member sets G to A.  On (Au, Gu) the update
        was a cancelling sum of terms of size w |Au|^2 and left G at 20 +
        1.3e-7; in n = 4, at a relative gap of 6e-11, it broke G u = A u
        by about 1e-6 relative.
        """
        state = SpdState(np.array([[20.00000013]]))
        broyden_update(state, np.array([1.1]), np.array([22.0]), rule)
        assert state.g[0, 0] == pytest.approx(20.0, rel=1e-14, abs=0.0)

        rng = np.random.default_rng(5)
        a = random_spd(rng, 4, cond=20.0)
        v, u = rng.standard_normal((2, 4))
        g = a + 1e-8 * np.outer(v, v)
        state = SpdState(g)
        broyden_update(state, u, a @ u, rule)
        gp = state.g
        assert np.max(np.abs(gp @ u - a @ u)) <= 1e-12 * np.max(np.abs(a @ u))
        assert min_eig(gp - a) >= -1e-12 * np.max(np.abs(gp))

    def test_dfp_coincides_on_shared_eigenvector(self):
        state = SpdState(np.diag([3.0, 3.0]))
        a = np.diag([1.0, 2.0])
        u = np.array([1.0, 0.0])
        broyden_update(state, u, a @ u, UpdateRule.dfp())
        assert np.allclose(state.g, np.diag([1.0, 3.0]), atol=1e-14)

    def test_matches_dense_formula(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a, g = random_dominating_pair(rng, n)
            u = rng.standard_normal(n)
            tau = float(rng.uniform(0.0, 1.0))
            state = make_state(g)
            broyden_update(state, u, a @ u, UpdateRule.fixed(tau))
            ref = dense_broyden(g, a, u, tau)
            assert np.max(np.abs(state.g - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_rejects_tau_outside_unit_interval(self, rng):
        a, g = random_dominating_pair(rng, 3)
        u = rng.standard_normal(3)
        with pytest.raises(ValueError):
            broyden_update(make_state(g), u, a @ u, UpdateRule.fixed(1.5))

    def test_monotone_in_tau(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 13))
            a, g = random_dominating_pair(rng, n)
            u = rng.standard_normal(n)
            taus = sorted(rng.uniform(0.0, 1.0, 2))
            results = []
            for tau in taus:
                state = make_state(g)
                broyden_update(state, u, a @ u, UpdateRule.fixed(float(tau)))
                results.append(state.g)
            scale = np.max(np.abs(results[1]))
            assert min_eig(results[1] - results[0]) >= -1e-9 * scale

    def test_sandwich_preserved(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 10))
            a, g = random_dominating_pair(rng, n)
            u = rng.standard_normal(n)
            eta = float(np.max(eigh(g, a, eigvals_only=True)))
            for rule in FAMILY:
                state = make_state(g)
                broyden_update(state, u, a @ u, rule)
                gp = state.g
                scale = np.max(np.abs(gp))
                assert min_eig(gp - a) >= -1e-9 * scale
                assert min_eig(eta * a - gp) >= -1e-9 * scale

    def test_sigma_progress_lower_bound(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 10))
            a, g = random_dominating_pair(rng, n)
            u = rng.standard_normal(n)
            tau = float(rng.uniform(0.0, 1.0))
            state = make_state(g)
            before = sigma(a, g)
            broyden_update(state, u, a @ u, UpdateRule.fixed(tau))
            after = sigma(a, state.g)
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
                state = SpdState(g)
                idx = greedy_direction(state.diag, a.diagonal())
                u = np.zeros(n)
                u[idx] = 1.0
                before = sigma(a, g)
                broyden_update(state, u, a @ u, rule)
                after = sigma(a, state.g)
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
        state = make_state(g)
        broyden_update(state, u, a @ u, rule)
        gp = state.g
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
        state = make_state(a + p @ (g - a) @ p)
        g0, inv0 = state.g, state.g_inv
        assert broyden_update(state, u, a @ u, rule) is state
        assert np.array_equal(state.g, g0)
        assert np.array_equal(state.g_inv, inv0)

    @settings(max_examples=40, deadline=None)
    @given(update_cases(), st.sampled_from(["auu", "guu", "both"]), st.floats(0.0, 1e3))
    def test_nonpositive_curvature_is_refused(self, case, which, size):
        a, g, u, rule = case
        state = make_state(g)
        uu = u @ u
        if which in ("guu", "both"):
            # G' = G - c u u^T with c = (2 <G u, u> + size) / (u.u)^2 has
            # <G' u, u> = -(<G u, u> + size) < 0; its capacitance
            # 1 - c <G^-1 u, u> <= -1 (Cauchy-Schwarz) keeps it non-singular
            state.rank2_update(u, u, -(2.0 * (g @ u @ u) + size) / uu**2, 0.0, 0.0)
        # an action along -u scaled so that its curvature is -size
        au = -size * u / uu if which in ("auu", "both") else a @ u
        g0 = state.g
        with pytest.raises(NonPositiveCurvature):
            broyden_update(state, u, au, rule)
        assert np.array_equal(state.g, g0)


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
        with pytest.raises(NonPositiveHessianDiagonal, match=r"entry 1 is -0\.0, expected > 0$"):
            greedy_direction([1.0, 1.0], [1.0, -0.0])

    @pytest.mark.parametrize("a_ii", [5e-324, 1e-310, 3e-308])
    def test_overflowing_ratio_is_refused_by_entry(self, a_ii):
        # 10 / a_ii overflows; the refusal names entry 1 before any division warns
        with pytest.raises(NonFiniteResult, match=r"ratio of diagonal entries 1, 10\.0 / "):
            greedy_direction([1.0, 10.0, 1.0], [1.0, a_ii, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(st.floats(5e-324, 1.7e308), st.floats(5e-324, 1.7e308))
    def test_refuses_the_ratios_at_the_top_of_the_range(self, g, a):
        ratio = g / a  # Python floats: inf on overflow, without a warning
        big = float(np.finfo(float).max)
        try:
            idx = greedy_direction([g], [a])  # warnings are errors: the division must not warn
        except NonFiniteResult:
            assert ratio >= big / 4.0
        else:
            assert idx == 0
            assert ratio < big

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(5e-324, 1.7e308), st.floats(5e-324, 1.7e308)),
                    min_size=1, max_size=4))
    def test_refuses_the_first_entry_near_overflow(self, pairs):
        # The scalar test on max G_ii and min A_ii only skips entrywise work:
        # the outcome is the entrywise test's, whichever entries the extremes sit at.
        g, a = (np.array(col) for col in zip(*pairs))
        over = a <= 2.0 * (g / float(np.finfo(float).max))
        if over.any():
            with pytest.raises(NonFiniteResult, match=rf"ratio of diagonal entries {np.argmax(over)}, "):
                greedy_direction(g, a)
        else:
            assert greedy_direction(g, a) == int(np.argmax(g / a))

    def test_scalar_bound_failing_alone_refuses_nothing(self):
        # max G_ii / min A_ii overflows, but no entry's own ratio does
        assert greedy_direction([1e300, 1.0], [1.0, 1e-300]) == 0


class TestSigma:
    def test_double_identity(self):
        assert sigma(
            np.eye(3), 2.0 * np.eye(3)
        ) == pytest.approx(3.0, abs=1e-12)

    def test_zero_at_equality(self, rng):
        a = random_spd(rng, 5)
        assert sigma(a, a) == pytest.approx(0.0, abs=1e-10)

    def test_matches_generalized_eigenvalue_sum(self, rng):
        a, g = random_dominating_pair(rng, 8)
        expected = float(np.sum(eigh(g - a, a, eigvals_only=True)))
        got = sigma(a, g)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_requires_spd_target(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            sigma(bad, np.eye(2))


class TestRelativeOpError:
    def test_zero_at_equality(self, rng):
        h = random_spd(rng, 5)
        assert relative_op_error(h, h) == 0.0

    def test_double_is_one(self, rng):
        h = random_spd(rng, 4)
        err = relative_op_error(2.0 * h, h)
        assert err == pytest.approx(1.0, abs=1e-10)

    def test_rank_one_bump_on_identity(self):
        g = np.eye(3)
        g[0, 0] = 2.0
        err = relative_op_error(g, np.eye(3))
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_matches_generalized_eigensolver(self, rng):
        a, g = random_dominating_pair(rng, 7)
        expected = float(np.max(np.abs(eigh(g - a, a, eigvals_only=True))))
        got = relative_op_error(g, a)
        assert abs(got - expected) <= 1e-9 * max(1.0, expected)
