"""Dense symmetric/SPD operator arithmetic with O(n^2) rank-two inverse maintenance.

The central object is :class:`SpdState`: a symmetric positive-definite
operator G kept together with its inverse, each stored as a dense array
times a scalar multiplier, so a rescale of G costs O(1).  Rank-two
symmetric modifications of G are pushed through to the inverse with a
Woodbury update whose capacitance block is 2x2, so a full solve never
costs more than a matrix-vector product.  A greedy coordinate update
splits its terms into signed rank-one terms.  Above a small n it queues
them, and the readers add the queue through thin products; each queue is
applied to its stored array by one BLAS-3 product before every audit.
Floating-point drift of the maintained inverse is
audited periodically, by an O(n^2) probe on a fixed block of two sign
vectors that defers to the exact n^3 residual only when it reads above a
trigger far below the drift limit, and repaired by dense refactorization.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import dger, dsbmv, dsyrk
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

# Maintained-inverse audit policy: recompute drift every AUDIT_EVERY rank-two
# updates, refactorize densely once it exceeds DRIFT_LIMIT.
AUDIT_EVERY = 50
DRIFT_LIMIT = 1e-6
# The audit's O(n^2) probe stands for the drift only at or below this reading;
# above it the exact residual is computed.
PROBE_TRIGGER = 1e-3 * DRIFT_LIMIT

# Row blocks of the in-place rank-two update hold about this many entries
# (256 KiB of float64), so the update's buffers stay in cache.  An n x n
# array within this budget takes a coordinate update's terms at once;
# a larger one queues them until the next audit (:func:`_queues`).
BLOCK_ENTRIES = 32768


def _as_vector(u, n):
    v = np.asarray(u, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatch(f"expected vector of length {n}, got shape {v.shape}")
    return v


def _coordinate(u, n) -> int | None:
    """i when ``u`` is an int i that stands for e_i, refused unless 0 <= i < n; else None."""
    i = int(u) if isinstance(u, (int, np.integer)) else None
    if i is not None and not 0 <= i < n:
        raise DimensionMismatch(f"coordinate {i} is outside range({n})")
    return i


def _check_scale(c):
    if not c > 0:
        raise NonPositiveScale(f"scale must be positive, got {c}")
    if not np.isfinite(c):
        raise NonFiniteResult(f"scale must be finite, got {c}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _scaled(a: np.ndarray, s: float) -> np.ndarray:
    """``a``, an array the caller owns, times s in place; ``a`` as it is at s = 1.0.

    Refused as :class:`NonFiniteResult`, with ``a`` unchanged, when an entry
    would overflow or already is not finite: the largest magnitude times s
    is taken in Python floats, where an overflow reads as inf without a
    numpy warning.
    """
    if s != 1.0 and a.size:
        if not math.isfinite(float(np.abs(a).max()) * s):
            raise NonFiniteResult(f"operator entries times the scale {s:.3e} are not finite")
        a *= s
    return a


@lru_cache(maxsize=16)
def _probe_block(n: int) -> np.ndarray:
    """The audit's fixed, read-only n x 2 block of +-1 entries, shared by all states of size n."""
    signs = np.random.default_rng(n).integers(0, 2, size=(n, 2))
    return _read_only(np.where(signs == 1, 1.0, -1.0))


def _add_sym_rank2(a, p, q, c11, c12, c22):
    """In place, a += c11*p p^T + c12*(p q^T + q p^T) + c22*q q^T.

    ``a`` is walked in row blocks of about :data:`BLOCK_ENTRIES` entries, so
    no n x n temporary is built.  Negated coefficients subtract the term bit
    for bit: negation is exact and rounding symmetric.  Each
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
        np.add(block, out, out=block)


def _signed_terms(p, q, c11, c12, c22) -> list:
    """At most two (sign, x) with sum sign*x x^T = c11 p p^T + c12 (p q^T + q p^T) + c22 q q^T.

    sign is +-1.0 and x = sqrt|lam| v for a term lam v v^T.  With c12 = 0
    the terms are on p and q as they are; SR1's (c11, c12, c22) = (-w, w,
    -w) is one term on q - p.  Otherwise the 2x2 coefficient matrix in the
    basis (p/max|p|, q/max|q|) is diagonalized by one Jacobi rotation, so
    neither vector's scale dominates the other's and no term outgrows the
    coefficient matrix.  Zero terms are dropped.
    """
    if c12 == 0.0:
        terms = [(c11, p), (c22, q)]
    elif c11 == c22 == -c12:
        terms = [(c22, q - p)]
    else:
        mp = float(np.max(np.abs(p))) or 1.0
        mq = float(np.max(np.abs(q))) or 1.0
        a, b, d = c11 * mp * mp, c12 * mp * mq, c22 * mq * mq
        tau = (d - a) / (2.0 * b)
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
        cs = 1.0 / math.hypot(1.0, t)
        sn = t * cs
        terms = [
            (a - t * b, (cs / mp) * p - (sn / mq) * q),
            (d + t * b, (sn / mp) * p + (cs / mq) * q),
        ]
    return [(math.copysign(1.0, lam), math.sqrt(abs(lam)) * v) for lam, v in terms if lam != 0.0]


def _ger(a, sign, x):
    """In place, a += sign * x x^T by BLAS ``dger``; a is C-ordered, passed as its transpose.

    With alpha = +-1 and one vector as both x and y, entries (i, j) and
    (j, i) get the same increment, so a symmetric ``a`` stays exactly so.
    """
    dger(sign, x, x, a=a.T, overwrite_a=1)


def _add_squares(d, sign, x):
    """In place, d += sign * x * x, entrywise, by BLAS ``dsbmv`` on a diagonal band.

    Each entry takes the arithmetic that ``dger(sign, x, x)`` gives the
    diagonal of an n x n array, which the coordinate path no longer sweeps.
    """
    dsbmv(0, sign, x[None, :], x, beta=1.0, y=d, overwrite_y=1)


def _mirror_upper(a):
    """Copy ``a``'s upper triangle onto its lower one, in row blocks of about BLOCK_ENTRIES entries."""
    n = a.shape[0]
    rows = max(1, BLOCK_ENTRIES // max(n, 1))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        below = np.arange(r1) < np.arange(r0, r1)[:, None]  # (i, j) with j < i
        np.copyto(a[r0:r1, :r1], a[:r1, r0:r1].T, where=below)


class _Queue:
    """Signed rank-one terms, sum_k sign_k x_k x_k^T, owed to a stored symmetric array."""

    __slots__ = ("x", "sign", "count")

    def __init__(self, n: int, capacity: int):
        self.x = np.empty((capacity, n))
        self.sign = np.empty(capacity)
        self.count = 0

    def push(self, terms):
        for sign, x in terms:
            self.x[self.count] = x
            self.sign[self.count] = sign
            self.count += 1

    def times(self, v) -> np.ndarray:
        """The queued terms times v, by two thin products."""
        x = self.x[: self.count]
        return (self.sign[: self.count] * (x @ v)) @ x

    def row(self, i: int) -> np.ndarray:
        """Row i of the queued terms."""
        x = self.x[: self.count]
        return (self.sign[: self.count] * x[:, i]) @ x

    def add_to(self, a, keep_diagonal=False) -> np.ndarray:
        """``a``, a C-ordered array the caller owns, plus the queued terms in place.

        One BLAS ``dsyrk`` per sign adds its terms to the upper triangle
        (the lower one of the Fortran view ``a.T``), which is then mirrored,
        so ``a`` comes out exactly symmetric with no n x n temporary.
        ``keep_diagonal`` restores the diagonal as it was.
        """
        if self.count:
            d = a.diagonal().copy() if keep_diagonal else None
            x, signs = self.x[: self.count], self.sign[: self.count]
            for sign in (1.0, -1.0):
                part = x[signs == sign]
                if len(part):
                    dsyrk(sign, part.T, beta=1.0, c=a.T, overwrite_c=1, lower=1)
            _mirror_upper(a)
            if keep_diagonal:
                np.fill_diagonal(a, d)
        return a


def _queues(n: int):
    """(G_s's queue, G_s^{-1}'s queue) of an n x n state, or (None, None) while n^2 <= BLOCK_ENTRIES.

    Each holds the terms of up to AUDIT_EVERY coordinate updates, at most
    two per update.  A small state takes every update at once: there the
    queue's bookkeeping costs more than the sweeps it saves.
    """
    if n * n <= BLOCK_ENTRIES:
        return None, None
    return _Queue(n, 2 * AUDIT_EVERY), _Queue(n, 2 * AUDIT_EVERY)


def symmetric(a) -> np.ndarray:
    """A read-only float copy of ``a`` with its lower triangle mirrored: exactly symmetric.

    Raises :class:`DimensionMismatch` if ``a`` is not square, ``ValueError`` if not finite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return _read_only(np.tril(a) + np.tril(a, -1).T)


def factorize(a) -> np.ndarray:
    """Lower Cholesky factor array L of ``symmetric(a)``, by LAPACK ``potrf``.

    Raises :class:`NotPositiveDefinite` when a pivot, the square of a
    diagonal entry of the factor, falls at or below
    ``PIVOT_RTOL * max(diagonal)``, which signals loss of definiteness, or
    below the smallest normal float, whose inverse would overflow.
    """
    a = symmetric(a)
    n = len(a)
    tiny = max(PIVOT_RTOL * float(a.diagonal().max()), np.finfo(float).tiny) if n else 0.0
    low, info = dpotrf(a, lower=1, clean=1)
    # potrf stops at column info - 1 (pivot <= 0); columns before it are valid.
    valid = n if info == 0 else info - 1
    small = np.flatnonzero(low.diagonal()[:valid] ** 2 <= tiny)
    if info or small.size:
        j = int(small[0]) if small.size else valid
        pivot = a[j, j] - np.dot(low[j, :j], low[j, :j])
        raise NotPositiveDefinite(f"pivot {pivot:.3e} at column {j} (threshold {tiny:.3e})")
    return low


class SpdState:
    """An SPD operator G with its maintained inverse.

    ``SpdState(g)`` copies G, a square array read through :func:`symmetric`.
    G is stored as s * G_s and G^{-1} as G_s^{-1} / s, with the arrays
    G_s, G_s^{-1} exactly symmetric and s a float multiplier that
    :meth:`rescale` alone changes.  The readers ``g``, ``g_inv``, ``diag``,
    :meth:`apply` and :meth:`solve` apply s on read, and
    :meth:`rank2_update` folds it into its coefficients.  s starts at 1.0,
    where the readers skip the multiplication; at any other s a reader
    that multiplies by it refuses an overflowing entry as
    :class:`NonFiniteResult`.  All mutating operations keep ``g`` and
    ``g_inv`` consistent.  Every :data:`AUDIT_EVERY` :meth:`rank2_update`
    calls, counted in ``update_count`` (a rescale changes no stored array
    and is not counted), :meth:`audit` measures how far G_s^{-1} has
    drifted from the inverse of G_s: an O(n^2) probe, confirmed by the
    exact residual max|G_s G_s^{-1} - I| when it reads above
    :data:`PROBE_TRIGGER`.  Drift beyond :data:`DRIFT_LIMIT` triggers a
    dense refactorization.  The value of the last audit, a probe reading
    or an exact residual, is kept in ``drift``.

    Above n^2 = :data:`BLOCK_ENTRIES`, a coordinate update queues its
    signed rank-one terms for G_s and G_s^{-1} (:func:`_queues`) and keeps
    only G_s's stored diagonal current.  ``g``, ``g_inv``, ``diag`` and
    :meth:`solve` read the queue without applying it; :meth:`apply`,
    :meth:`audit`, :meth:`refactorize` and a dense-path update apply it
    first, each queue by one BLAS-3 product.

    A state is owned by a single solver; operations are not safe to call
    concurrently on the same instance.
    """

    __slots__ = ("n", "_g", "_g_inv", "_scale", "update_count", "drift", "_gq", "_iq")

    def __init__(self, g):
        self._g = np.array(symmetric(g))
        self.n = self._g.shape[0]
        self._scale = 1.0
        self.update_count = 0
        self._gq, self._iq = _queues(self.n)
        self.refactorize()

    @classmethod
    def scaled_identity(cls, n: int, c: float) -> "SpdState":
        """c * I (0 < c < inf)."""
        _check_scale(c)
        self = object.__new__(cls)
        self.n = n
        self._g = np.eye(n) * c
        self._g_inv = np.eye(n) / c
        self._scale = 1.0
        self.update_count = 0
        self.drift = 0.0
        self._gq, self._iq = _queues(n)
        return self

    def _queued(self) -> bool:
        return self._gq is not None and self._gq.count > 0

    def _flush(self):
        """Apply the queued terms to G_s and G_s^{-1}, G_s's kept diagonal left as it is."""
        if self._queued():
            self._gq.add_to(self._g, keep_diagonal=True)
            self._iq.add_to(self._g_inv)
            self._gq.count = self._iq.count = 0

    @property
    def g(self) -> np.ndarray:
        """Read-only copy of G; later updates do not change it."""
        g = self._g.copy()
        if self._queued():
            self._gq.add_to(g, keep_diagonal=True)
        return _read_only(_scaled(g, self._scale))

    @property
    def g_inv(self) -> np.ndarray:
        """Read-only copy of G^{-1}; later updates do not change it."""
        inv = self._iq.add_to(self._g_inv.copy()) if self._queued() else self._g_inv
        return _read_only(inv / self._scale)

    @property
    def diag(self) -> np.ndarray:
        """G's diagonal, computed on read; later updates do not change it."""
        return _scaled(self._g.diagonal().copy(), self._scale)

    def apply(self, u) -> np.ndarray:
        """G @ u."""
        u = _as_vector(u, self.n)
        self._flush()
        return _scaled(self._g @ u, self._scale)

    def _inv_times(self, v) -> np.ndarray:
        """G_s^{-1} @ v: the stored array's product plus the queued terms'."""
        out = self._g_inv @ v
        if self._queued():
            out += self._iq.times(v)
        return out

    def solve(self, rhs) -> np.ndarray:
        """G^{-1} @ rhs via the maintained inverse (O(n^2))."""
        return self._inv_times(_as_vector(rhs, self.n)) / self._scale

    def _row(self, i: int) -> np.ndarray:
        """Row i of G_s: the stored row plus the queued terms', with the kept G_ii."""
        if not self._queued():
            return self._g[i]
        row = self._g[i] + self._gq.row(i)
        row[i] = self._g[i, i]
        return row

    def rank2_update(self, p, q, c11: float, c12: float, c22: float) -> "SpdState":
        """Apply G += c11*p p^T + c12*(p q^T + q p^T) + c22*q q^T in O(n^2).

        The inverse is maintained through the Woodbury identity with a 2x2
        capacitance block.  Raises :class:`SingularCapacitance` when the update would
        make G singular.  The caller must ensure the updated operator stays
        SPD.  The stored G_s = G / s takes the update with every
        coefficient divided by s.

        q is a vector, or an int i that stands for G e_i: the greedy step's
        pair, refused as :class:`DimensionMismatch` unless 0 <= i < n.  The
        update then reads row i of G_s, G_s e_i, and takes (c11/s, c12,
        c22*s) on (p, G_s e_i).  G_s^{-1} G_s e_i is e_i exactly, so the second
        Woodbury matvec is skipped and the capacitance reads p_i and G_ii
        off p and the row.  G_s gains the update as at most two signed
        rank-one terms (:func:`_signed_terms`), G_s^{-1} its terms on (y1, e_i)
        as at most two more.  While n^2 <= :data:`BLOCK_ENTRIES`, each G_s
        term and G_s^{-1}'s t11 term are applied by one BLAS ``dger``, which
        keeps both arrays exactly symmetric, and the t12, t22 terms touch
        only row and column i.  Above it the terms are queued, and G_s's
        stored diagonal takes them by :func:`_add_squares`, ``dger``'s
        arithmetic on each entry.  Every family member sets the new G_ii to
        A_ii > 0, so an update whose G_ii, by that arithmetic, is not
        positive is refused as :class:`NotPositiveDefinite`, with G and
        G^{-1} unchanged.  Secant and random steps pass a vector q and keep
        the dense path, after the queue is applied, bit for bit at s = 1:
        classical SR1's update is a cancelling sum whose late results move
        under any reordering of this arithmetic.
        """
        index = _coordinate(q, self.n)
        p = _as_vector(p, self.n)
        # Fold s into the coefficients in Python floats: an overflow reads as
        # inf, without a numpy warning.
        c11, c12, c22, s = float(c11), float(c12), float(c22), self._scale
        if index is None:
            self._flush()
            q, c11, c12, c22 = _as_vector(q, self.n), c11 / s, c12 / s, c22 / s
        else:
            q, c11, c22 = self._row(index), c11 / s, c22 * s
        cmat = np.array([[c11, c12], [c12, c22]], dtype=float)

        # Capacitance K = I + C W with W = U^T G_s^{-1} U, U = [p q]; the
        # update is singular iff det K = det(G_new)/det(G) vanishes.
        y1 = self._inv_times(p)
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
            terms = _signed_terms(p, q, c11, c12, c22)
            # The new diagonal of G_s, by the arithmetic the update gives it.
            diag = self._g.diagonal().copy()
            for sign, x in terms:
                _add_squares(diag, sign, x)
            if not diag[index] > 0.0:
                raise NotPositiveDefinite(
                    f"update sets diagonal entry {index} to {diag[index] * s:.3e}"
                )

        # T = K^{-1} C is symmetric in exact arithmetic; symmetrize the
        # computed off-diagonal so the inverse stays exactly symmetric.
        kinv = np.array([[k[1, 1], -k[0, 1]], [-k[1, 0], k[0, 0]]]) / det
        t = kinv @ cmat
        t12 = (t[0, 1] + t[1, 0]) / 2.0

        if index is None:
            _add_sym_rank2(self._g, p, q, c11, c12, c22)
            _add_sym_rank2(self._g_inv, y1, y2, -t[0, 0], -t12, -t[1, 1])
        elif self._gq is None:
            for sign, x in terms:
                _ger(self._g, sign, x)
            # G_s^{-1} -= t11 y1 y1^T + t12 (y1 e_i^T + e_i y1^T) + t22 e_i e_i^T
            for sign, x in _signed_terms(y1, y1, -t[0, 0], 0.0, 0.0):
                _ger(self._g_inv, sign, x)
            y1 *= t12
            self._g_inv[index] -= y1
            self._g_inv[:, index] -= y1
            self._g_inv[index, index] -= t[1, 1]
        else:
            e = np.zeros(self.n)
            e[index] = 1.0
            self._gq.push(terms)
            self._iq.push(_signed_terms(y1, e, -t[0, 0], -t12, -t[1, 1]))
            np.fill_diagonal(self._g, diag)
        self.update_count += 1
        if self.update_count % AUDIT_EVERY == 0 and self.audit() > DRIFT_LIMIT:
            self.refactorize()
        return self

    def rescale(self, c: float) -> "SpdState":
        """G <- c*G, G^{-1} <- G^{-1}/c (0 < c < inf), in O(1): only s changes.

        Refused like ``c`` itself when the new s = s*c is not positive and
        finite.  The stored arrays, their queued terms and their drift stay
        as they are, so a rescale is not counted in ``update_count`` and
        never audits.
        """
        _check_scale(c)
        scale = self._scale * float(c)
        _check_scale(scale)
        self._scale = scale
        return self

    def audit(self) -> float:
        """Measure, store in ``drift`` and return the drift of G_s^{-1} from the inverse of G_s.

        The queued terms are applied first, so the drift they carry is
        measured too.  G G^{-1} = G_s G_s^{-1}, so s plays no part.  The
        probe R = G_s (G_s^{-1} V) - V on the fixed n x 2 sign block V of
        :func:`_probe_block` costs two thin products, O(n^2), and builds no
        n x n array.  Its reading max|R| stands for the drift when it is at
        most :data:`PROBE_TRIGGER`, far below :data:`DRIFT_LIMIT`.
        Otherwise, or when the probe overflows, the exact residual
        max|G_s G_s^{-1} - I|, an n^3 product, is computed and stored.  An
        overflow in the probe is thus not a failure: it only defers to the
        exact residual, so it is not reported as a warning.
        """
        self._flush()
        drift = 0.0
        if self.n:
            v = _probe_block(self.n)
            with np.errstate(over="ignore", invalid="ignore"):
                probe = self._g @ (self._g_inv @ v) - v
            drift = float(np.max(np.abs(probe)))
            if not drift <= PROBE_TRIGGER:
                resid = self._g @ self._g_inv
                resid[np.diag_indices(self.n)] -= 1.0
                drift = float(np.max(np.abs(resid)))
        self.drift = drift
        return drift

    def refactorize(self):
        """Rebuild the stored inverse from a fresh dense factorization of the stored G, queue applied."""
        self._flush()
        inv = dpotri(factorize(self._g), lower=1)[0] if self.n else np.zeros((0, 0))
        self._g_inv = np.array(symmetric(inv))
        self.audit()

    def __repr__(self):
        return (
            f"SpdState(n={self.n}, updates={self.update_count}, "
            f"drift={self.drift:.2e})"
        )
