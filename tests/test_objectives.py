import numpy as np
import pytest

from conftest import central_diff_gradient, central_diff_hessian, min_eig, random_spd
from greedyqn.errors import DimensionMismatch, DimensionTooLarge
from greedyqn.objectives import DENSE_CAP, LogisticProblem, LogSumExpProblem, QuadraticProblem
from greedyqn.operator_core import DenseSymmetric


def make_lse(rng, n, m, gamma=1.0):
    return LogSumExpProblem(
        rng.uniform(-1.0, 1.0, (m, n)), rng.uniform(-1.0, 1.0, m), gamma
    )


def make_logistic(rng, n, m, gamma=1.0):
    labels = rng.choice([-1.0, 1.0], size=m)
    return LogisticProblem(rng.uniform(-1.0, 1.0, (m, n)), labels, gamma)


def make_quadratic(rng, n):
    return QuadraticProblem(DenseSymmetric(random_spd(rng, n)), rng.standard_normal(n))


def all_problems(rng, n=6, m=9):
    return [make_quadratic(rng, n), make_lse(rng, n, m), make_logistic(rng, n, m)]


class TestValue:
    def test_quadratic_identity(self):
        prob = QuadraticProblem(DenseSymmetric.identity(2), np.zeros(2))
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


class TestGradient:
    def test_quadratic_zero_at_minimizer(self):
        prob = QuadraticProblem(DenseSymmetric.identity(2), np.array([1.0, 1.0]))
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
            _, _, pi = prob._weights(x)
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
        assert np.array_equal(prob.hessian_vec(np.zeros(4), h), prob.a.entries @ h)

    def test_zero_direction(self, rng):
        for prob in all_problems(rng):
            x = rng.uniform(-1.0, 1.0, prob.n)
            assert np.array_equal(prob.hessian_vec(x, np.zeros(prob.n)), np.zeros(prob.n))

    def test_matches_full_hessian_product(self, rng):
        for prob in all_problems(rng, n=8, m=12):
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, prob.n)
                h = rng.standard_normal(prob.n)
                expected = prob.full_hessian(x).entries @ h
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
        assert np.array_equal(prob.full_hessian(np.zeros(4)).entries, prob.a.entries)

    def test_logsumexp_exactly_symmetric(self, rng):
        prob = make_lse(rng, 5, 8)
        h = prob.full_hessian(rng.uniform(-1.0, 1.0, 5)).entries
        assert np.array_equal(h, h.T)

    def test_finite_difference_hessian(self, rng):
        for prob in all_problems(rng, n=6, m=8):
            x = rng.uniform(-0.5, 0.5, 6)
            fd = central_diff_hessian(prob.gradient, x)
            assert np.max(np.abs(fd - prob.full_hessian(x).entries)) <= 1e-4

    def test_dimension_cap(self, rng):
        prob = make_lse(rng, DENSE_CAP + 1, 5)
        with pytest.raises(DimensionTooLarge):
            prob.full_hessian(np.zeros(DENSE_CAP + 1))

    def test_eigenvalues_within_certified_bounds(self, rng):
        for make in (make_lse, make_logistic):
            prob = make(rng, 12, 20, gamma=0.7)
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, 12)
                eigs = np.linalg.eigvalsh(prob.full_hessian(x).entries)
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
        prob = QuadraticProblem(DenseSymmetric.from_diagonal([1.0, 7.0]), np.zeros(2))
        assert prob.lipschitz_l == pytest.approx(7.0, rel=1e-12)
        assert prob.strong_convexity_mu == pytest.approx(1.0, rel=1e-12)

    def test_self_concordance_constants(self, rng):
        assert make_lse(rng, 3, 4).self_concordance_m == 2.0
        assert make_quadratic(rng, 3).self_concordance_m == 0.0
        assert make_logistic(rng, 3, 4).self_concordance_m is None

    def test_logistic_constant_can_be_supplied(self, rng):
        prob = LogisticProblem(
            rng.uniform(-1, 1, (4, 3)),
            rng.choice([-1.0, 1.0], 4),
            gamma=1.0,
            self_concordance_m=3.0,
        )
        assert prob.self_concordance_m == 3.0

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
            hz = prob.full_hessian(z).entries
            r = float(np.sqrt((y - x) @ hz @ (y - x)))
            lhs = m_const * r * prob.full_hessian(w).entries - (
                prob.full_hessian(y).entries - prob.full_hessian(x).entries
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
            hx = prob.full_hessian(x).entries
            hy = prob.full_hessian(y).entries
            r = float(np.sqrt((y - x) @ hx @ (y - x)))
            factor = 1.0 + m_const * r
            scale = max(np.abs(hx).max(), np.abs(hy).max())
            assert min_eig(factor * hx - hy) >= -1e-7 * factor * scale
            assert min_eig(hy - hx / factor) >= -1e-7 * factor * scale
