"""Shared fixtures and independent numerical oracles for the test suite.

The helpers here deliberately avoid the library's own code paths: matrix
products are re-derived with explicit loops or dense numpy/scipy calls, and
derivatives come from central finite differences, so they can serve as
oracles for the implementation under test.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import settings

from greedyqn.data_io import LibsvmDataset
from greedyqn.errors import DimensionMismatch, MalformedLine, NonMonotoneIndices, UnmappedLabel
from greedyqn.operator_core import SpdState

# In CI (GitHub Actions sets CI), a failing example is printed as a
# @reproduce_failure line that can be pinned: the example database is not kept.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_spd(rng, n, cond=50.0):
    """Random SPD matrix with eigenvalues log-spaced in [1, cond]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(rng.uniform(0.0, np.log(cond), n))
    eigs[0], eigs[-1] = 1.0, cond
    a = (q * eigs) @ q.T
    return (a + a.T) / 2.0


def random_dominating_pair(rng, n, spread=2.0):
    """(a, g) with a SPD and a <= g (g = a + PSD perturbation)."""
    a = random_spd(rng, n, cond=20.0)
    p = rng.standard_normal((n, n))
    g = a + (p @ p.T) / n * rng.uniform(0.1, spread)
    return a, (g + g.T) / 2.0


def reference_cholesky(a, rtol):
    """Column-by-column Cholesky of symmetric ``a`` with a relative pivot rule.

    Column j's pivot is a[j, j] - |L[j, :j]|^2.  Returns (L, pivots) when
    every pivot exceeds ``rtol * max(diagonal)``, else (None, pivots) with
    the pivots ending at the first one at or below that threshold.
    """
    n = a.shape[0]
    tiny = rtol * max(float(np.max(a.diagonal())), 0.0) if n else 0.0
    low = np.zeros((n, n))
    pivots = []
    for j in range(n):
        pivot = a[j, j] - np.dot(low[j, :j], low[j, :j])
        pivots.append(pivot)
        if pivot <= tiny:
            return None, pivots
        low[j, j] = np.sqrt(pivot)
        low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low, pivots


def central_diff_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def central_diff_hessian(grad, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[:, i] = (grad(x + e) - grad(x - e)) / (2.0 * h)
    return (out + out.T) / 2.0


def dense_broyden(g, a, u, tau):
    """Dense evaluation of the tau-update from its two defining pieces."""
    au, gu = a @ u, g @ u
    auu, guu = float(u @ au), float(u @ gu)
    sr1 = g - np.outer(gu - au, gu - au) / (guu - auu)
    dfp = (
        g
        - (np.outer(au, gu) + np.outer(gu, au)) / auu
        + (guu / auu + 1.0) * np.outer(au, au) / auu
    )
    return tau * dfp + (1.0 - tau) * sr1


def reference_parse_libsvm(text: str, label_map=None, n_features: int | None = None) -> LibsvmDataset:
    """Line-by-line LIBSVM parser: the package's parser before it parsed in bulk, kept verbatim.

    Parse LIBSVM text: one sample per line, "label idx:val idx:val ...".

    Indices are 1-based in the file and mapped to 0-based.  ``#`` starts a
    comment running to the end of the line.  ``label_map`` optionally remaps
    raw label values (e.g. {2.0: -1.0}); after remapping every label must be
    -1 or +1.
    """
    labels = []
    indptr = [0]
    indices = []
    values = []
    max_index = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise MalformedLine(line_no, f"bad label {tokens[0]!r}") from None
        if label_map and label in label_map:
            label = float(label_map[label])
        if label not in (-1.0, 1.0):
            raise UnmappedLabel(line_no, tokens[0])
        prev = 0
        for tok in tokens[1:]:
            try:
                pos, val = tok.split(":", 1)
                pos = int(pos)
                val = float(val)
            except ValueError:
                raise MalformedLine(line_no, f"bad pair {tok!r}") from None
            if pos < 1:
                raise MalformedLine(line_no, f"index {pos} must be >= 1")
            if not math.isfinite(val):
                raise MalformedLine(line_no, f"non-finite value {tok!r}")
            if pos <= prev:
                raise NonMonotoneIndices(line_no)
            prev = pos
            indices.append(pos - 1)
            values.append(val)
        labels.append(label)
        indptr.append(len(indices))
        max_index = max(max_index, prev)
    if n_features is not None:
        if n_features < max_index:
            raise DimensionMismatch(
                f"n_features override {n_features} below max index {max_index}"
            )
        cols = n_features
    else:
        cols = max_index
    return LibsvmDataset(
        labels=np.array(labels, dtype=float),
        indptr=np.array(indptr, dtype=int),
        indices=np.array(indices, dtype=int),
        values=np.array(values, dtype=float),
        n_features=cols,
    )


def rounding_noise(monkeypatch, delta, seed):
    """Wrap ``SpdState.rank2_update`` and ``SpdState.solve`` with seeded relative noise.

    Each entry of a vector p or q, and of the solve's output, is multiplied
    by 1 + delta or 1 - delta, the sign drawn from one generator seeded by
    ``seed``; an int q (a greedy coordinate) passes through unchanged.
    """
    rng = np.random.default_rng(seed)
    rank2_update, solve = SpdState.rank2_update, SpdState.solve

    def jitter(v):
        v = np.asarray(v, dtype=float)
        return v * (1.0 + delta * (2.0 * rng.integers(0, 2, size=v.shape) - 1.0))

    def noisy_update(state, p, q, *coefficients):
        if not isinstance(q, (int, np.integer)):
            q = jitter(q)
        return rank2_update(state, jitter(p), q, *coefficients)

    monkeypatch.setattr(SpdState, "rank2_update", noisy_update)
    monkeypatch.setattr(SpdState, "solve", lambda state, rhs: jitter(solve(state, rhs)))


def min_eig(sym):
    return float(np.linalg.eigvalsh((sym + sym.T) / 2.0)[0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
