"""Dense symmetric/SPD operator arithmetic with O(n^2) rank-two inverse maintenance.

The central object is :class:`SpdState`: a symmetric positive-definite
operator G kept together with its inverse.  Rank-two symmetric
modifications of G are pushed through to the inverse with a Woodbury
update whose capacitance block is 2x2, so a full solve never costs more
than a matrix-vector product.  Floating-point drift of the maintained
inverse is audited periodically and repaired by dense refactorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import (
    DimensionMismatch,
    NonFiniteResult,
    NonPositiveScale,
    NotPositiveDefinite,
    SingularCapacitance,
)

# Pivot threshold for Cholesky, relative to the largest diagonal entry.
PIVOT_RTOL = 1e-14

# Maintained-inverse audit policy: recompute drift every AUDIT_EVERY updates,
# refactorize densely once it exceeds DRIFT_LIMIT.
AUDIT_EVERY = 50
DRIFT_LIMIT = 1e-6

# Row blocks of the in-place rank-two update hold about this many entries
# (256 KiB of float64), so the update's buffers stay in cache.
BLOCK_ENTRIES = 32768


def _as_vector(u, n):
    v = np.asarray(u, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatch(f"expected vector of length {n}, got shape {v.shape}")
    return v


def _check_scale(c):
    if not c > 0:
        raise NonPositiveScale(f"scale must be positive, got {c}")
    if not np.isfinite(c):
        raise NonFiniteResult(f"scale must be finite, got {c}")


def _add_sym_rank2(a, op, p, q, c11, c12, c22):
    """In place, a <- op(a, c11*p p^T + c12*(p q^T + q p^T) + c22*q q^T).

    ``op`` is ``np.add`` or ``np.subtract``.  ``a`` is walked in row blocks of
    about :data:`BLOCK_ENTRIES` entries, so no n x n temporary is built.  Each
    entry is formed as c11*(p_i p_j), plus c12*((p_i q_j) + (q_i p_j)), plus
    c22*(q_i q_j), the last two only for non-zero coefficients: the
    per-entry arithmetic of the outer-product formula, so entries (i, j) and
    (j, i) receive bit-identical increments.
    """
    n = p.shape[0]
    rows = max(1, BLOCK_ENTRIES // max(n, 1))
    buf = np.empty((3, min(rows, n), n))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        out, t, u = buf[:, : r1 - r0]
        np.multiply(p[r0:r1, None], p, out=out)
        np.multiply(c11, out, out=out)
        if c12 != 0.0:
            np.multiply(p[r0:r1, None], q, out=t)
            np.multiply(q[r0:r1, None], p, out=u)
            np.add(t, u, out=t)
            np.multiply(c12, t, out=t)
            np.add(out, t, out=out)
        if c22 != 0.0:
            np.multiply(q[r0:r1, None], q, out=t)
            np.multiply(c22, t, out=t)
            np.add(out, t, out=out)
        block = a[r0:r1]
        op(block, out, out=block)


class DenseSymmetric:
    """Immutable dense symmetric matrix.

    Storage enforces symmetry: the lower triangle of the input is mirrored,
    so ``entries[i, j] == entries[j, i]`` holds bit-for-bit.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        lower = np.tril(a)
        a = lower + np.tril(a, -1).T
        a.setflags(write=False)
        object.__setattr__(self, "n", a.shape[0])
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("DenseSymmetric is immutable")

    @classmethod
    def _wrap(cls, a):
        # Trusted constructor for arrays that are already exactly symmetric.
        self = object.__new__(cls)
        a.setflags(write=False)
        object.__setattr__(self, "n", a.shape[0])
        object.__setattr__(self, "entries", a)
        return self

    @classmethod
    def identity(cls, n, scale=1.0):
        return cls._wrap(np.eye(n) * scale)

    @classmethod
    def from_diagonal(cls, d):
        return cls._wrap(np.diag(np.asarray(d, dtype=float)))

    def diagonal(self):
        return self.entries.diagonal().copy()

    def __repr__(self):
        return f"DenseSymmetric(n={self.n})"


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L L^T reconstructing the source."""

    n: int
    lower: np.ndarray

    def solve(self, rhs):
        """Solve (L L^T) x = rhs."""
        return cho_solve((self.lower, True), rhs)

    def inverse(self) -> np.ndarray:
        """Dense inverse of the factored matrix (LAPACK ``potri``), mirrored exactly."""
        if self.n == 0:
            return np.zeros((0, 0))
        inv, _ = dpotri(self.lower, lower=1)
        return np.tril(inv) + np.tril(inv, -1).T


def factorize(m: DenseSymmetric) -> CholeskyFactor:
    """Cholesky-factorize an SPD matrix with LAPACK ``potrf``.

    Raises :class:`NotPositiveDefinite` when a pivot, the square of a
    diagonal entry of the factor, falls at or below
    ``PIVOT_RTOL * max(diagonal)``, which signals loss of definiteness.
    """
    a = m.entries
    tiny = PIVOT_RTOL * max(float(a.diagonal().max()), 0.0) if m.n else 0.0
    low, info = dpotrf(a, lower=1, clean=1)
    # potrf stops at column info - 1 (pivot <= 0); columns before it are valid.
    valid = m.n if info == 0 else info - 1
    small = np.flatnonzero(low.diagonal()[:valid] ** 2 <= tiny)
    if info or small.size:
        j = int(small[0]) if small.size else valid
        pivot = a[j, j] - np.dot(low[j, :j], low[j, :j])
        raise NotPositiveDefinite(f"pivot {pivot:.3e} at column {j} (threshold {tiny:.3e})")
    return CholeskyFactor(n=m.n, lower=low)


class SpdState:
    """An SPD operator G with its maintained inverse.

    All mutating operations keep ``g`` and ``g_inv`` consistent.
    Every :data:`AUDIT_EVERY` maintained updates the product G * G^{-1} is
    checked against the identity; drift beyond :data:`DRIFT_LIMIT` triggers a
    dense refactorization.  The value of the last audit is kept in ``drift``.

    A state is owned by a single solver; operations are not safe to call
    concurrently on the same instance.
    """

    __slots__ = ("n", "_g", "_g_inv", "update_count", "drift")

    def __init__(self, g: DenseSymmetric):
        self.n = g.n
        self._g = np.array(g.entries)
        self.update_count = 0
        self.refactorize()

    @classmethod
    def scaled_identity(cls, n: int, c: float) -> "SpdState":
        """c * I (0 < c < inf)."""
        _check_scale(c)
        return cls._from_arrays(np.eye(n) * c, np.eye(n) / c)

    @classmethod
    def from_diagonal(cls, d) -> "SpdState":
        """Diagonal SPD state with exact reciprocal inverse entries."""
        d = np.asarray(d, dtype=float)
        if not np.all(np.isfinite(d)):
            raise NonFiniteResult("diagonal entries must be finite")
        if d.ndim != 1 or np.any(d <= 0):
            raise NotPositiveDefinite("diagonal entries must be positive")
        return cls._from_arrays(np.diag(d), np.diag(1.0 / d))

    @classmethod
    def _from_arrays(cls, g, g_inv) -> "SpdState":
        self = object.__new__(cls)
        self.n = g.shape[0]
        self._g = g
        self._g_inv = g_inv
        self.update_count = 0
        self.drift = 0.0
        return self

    @property
    def g(self) -> DenseSymmetric:
        return DenseSymmetric._wrap(self._g.copy())

    @property
    def g_inv(self) -> DenseSymmetric:
        return DenseSymmetric._wrap(self._g_inv.copy())

    @property
    def diag(self) -> np.ndarray:
        """Read-only view of G's diagonal; it follows later updates."""
        return self._g.diagonal()

    def apply(self, u) -> np.ndarray:
        """G @ u."""
        return self._g @ _as_vector(u, self.n)

    def column(self, i: int) -> np.ndarray:
        """G @ e_i, copied from row i of G (G is stored exactly symmetric)."""
        return self._g[i].copy()

    def solve(self, rhs) -> np.ndarray:
        """G^{-1} @ rhs via the maintained inverse (O(n^2))."""
        return self._g_inv @ _as_vector(rhs, self.n)

    def rank2_update(
        self, p, q, c11: float, c12: float, c22: float, index: int | None = None
    ) -> "SpdState":
        """Apply G += c11*p p^T + c12*(p q^T + q p^T) + c22*q q^T in O(n^2).

        The inverse is maintained through the Woodbury identity with a 2x2
        capacitance block.  Raises :class:`SingularCapacitance` when the update would
        make G singular.  The caller must ensure the updated operator stays
        SPD.

        With ``index`` = i, q must be G e_i, read off G by :meth:`column`: the
        greedy step's pair.  Then G^{-1} q is e_i exactly, so the second
        Woodbury matvec is skipped, the capacitance reads p_i and G_ii off p
        and q, and the inverse's e_i terms touch only row and column i.  G
        itself gets the same per-entry arithmetic as without ``index``.
        Every family member sets the new G_ii to A_ii > 0, so an update whose
        computed G_ii is not positive is refused as
        :class:`NotPositiveDefinite`, with G and G^{-1} unchanged.  Secant
        and random steps pass no index and keep the dense path, bit for
        bit: classical SR1's update is a cancelling sum whose late results
        move under any reordering of this arithmetic.
        """
        p = _as_vector(p, self.n)
        q = _as_vector(q, self.n)
        cmat = np.array([[c11, c12], [c12, c22]], dtype=float)

        # Capacitance K = I + C W with W = U^T G^{-1} U, U = [p q]; the
        # update is singular iff det K = det(G_new)/det(G) vanishes.
        y1 = self._g_inv @ p
        if index is None:
            y2 = self._g_inv @ q
            w = np.array(
                [[np.dot(p, y1), np.dot(p, y2)], [np.dot(q, y1), np.dot(q, y2)]]
            )
        else:
            w = np.array([[np.dot(p, y1), p[index]], [p[index], q[index]]])
        k = np.eye(2) + cmat @ w
        det = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
        # Python floats: an overflow reads as inf, without a numpy warning.
        scale = float(np.hypot(k[0, 0], k[0, 1])) * float(np.hypot(k[1, 0], k[1, 1]))
        if abs(det) <= 1e-14 * scale:
            raise SingularCapacitance(
                f"capacitance determinant {det:.3e} below 1e-14 * {scale:.3e}"
            )
        if index is not None:
            # The new G_ii, by the arithmetic the update below gives it.
            at = slice(index, index + 1)
            g_ii = self._g[at, at].copy()
            _add_sym_rank2(g_ii, np.add, p[at], q[at], c11, c12, c22)
            if not g_ii[0, 0] > 0.0:
                raise NotPositiveDefinite(
                    f"update sets diagonal entry {index} to {g_ii[0, 0]:.3e}"
                )

        # T = K^{-1} C is symmetric in exact arithmetic; symmetrize the
        # computed off-diagonal so the inverse stays exactly symmetric.
        kinv = np.array([[k[1, 1], -k[0, 1]], [-k[1, 0], k[0, 0]]]) / det
        t = kinv @ cmat
        t12 = (t[0, 1] + t[1, 0]) / 2.0

        _add_sym_rank2(self._g, np.add, p, q, c11, c12, c22)
        if index is None:
            _add_sym_rank2(self._g_inv, np.subtract, y1, y2, t[0, 0], t12, t[1, 1])
        else:
            # G^{-1} -= t11 y1 y1^T + t12 (y1 e_i^T + e_i y1^T) + t22 e_i e_i^T
            _add_sym_rank2(self._g_inv, np.subtract, y1, y1, t[0, 0], 0.0, 0.0)
            y1 *= t12
            self._g_inv[index] -= y1
            self._g_inv[:, index] -= y1
            self._g_inv[index, index] -= t[1, 1]
        self._bump()
        return self

    def rescale(self, c: float) -> "SpdState":
        """G <- c*G, G^{-1} <- G^{-1}/c (0 < c < inf)."""
        _check_scale(c)
        self._g *= c
        self._g_inv /= c
        self._bump()
        return self

    def audit(self) -> float:
        """Recompute and store the max-abs residual of G @ G^{-1} - I."""
        resid = self._g @ self._g_inv
        resid[np.diag_indices(self.n)] -= 1.0
        self.drift = float(np.max(np.abs(resid))) if self.n else 0.0
        return self.drift

    def refactorize(self):
        """Rebuild the inverse from a fresh dense factorization of G."""
        self._g_inv = factorize(self.g).inverse()
        self.audit()

    def _bump(self):
        self.update_count += 1
        if self.update_count % AUDIT_EVERY == 0 and self.audit() > DRIFT_LIMIT:
            self.refactorize()

    def __repr__(self):
        return (
            f"SpdState(n={self.n}, updates={self.update_count}, "
            f"drift={self.drift:.2e})"
        )
