"""Dataset ingestion, synthetic data generation, and seeded randomness.

All randomness in the package flows through :class:`RngStream`, a named
PCG64 stream keyed by (seed, label).  The same (seed, label) pair produces
the same sequence on every platform; golden vectors in the test suite pin
this down.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedLine,
    NonMonotoneIndices,
    UnmappedLabel,
)
from .objectives import LogisticProblem, LogSumExpProblem, _stable_softmax


class RngStream(np.random.Generator):
    """Deterministic 64-bit PCG64 generator keyed by (seed, stream label).

    The label is hashed into the seed material, so streams with different
    labels are statistically independent while staying reproducible.
    """

    def __init__(self, seed: int, label: str):
        self.seed = int(seed)
        self.label = label
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        label_key = int.from_bytes(digest[:8], "little")
        super().__init__(np.random.PCG64(np.random.SeedSequence([self.seed, label_key])))

    def __reduce__(self):
        # pickle and copy keep the class, the key and the position in the stream
        return RngStream, (self.seed, self.label), self.bit_generator.state

    def __repr__(self):
        return f"RngStream(seed={self.seed}, label={self.label!r})"


@dataclass
class LibsvmDataset:
    """Sparse binary-classification dataset in CSR (compressed sparse row) form.

    Row i holds the 0-based, strictly increasing column indices
    ``indices[indptr[i]:indptr[i + 1]]`` and their ``values``.
    ``n_features`` is the max feature index seen unless an explicit override
    was supplied at parse time.
    """

    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    n_features: int

    def to_logistic(self, gamma: float) -> LogisticProblem:
        m = self.labels.size
        c = np.zeros((m, self.n_features))
        c[np.repeat(np.arange(m), np.diff(self.indptr)), self.indices] = self.values
        return LogisticProblem(c, self.labels, gamma)


def parse_libsvm(text: str, label_map=None, n_features: int | None = None) -> LibsvmDataset:
    """Parse LIBSVM text: one sample per line, "label idx:val idx:val ...".

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
            raise UnmappedLabel(tokens[0])
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


def serialize_libsvm(dataset: LibsvmDataset) -> str:
    """Inverse of :func:`parse_libsvm` (17-significant-digit values)."""
    lines = []
    for label, lo, hi in zip(dataset.labels, dataset.indptr, dataset.indptr[1:]):
        parts = [f"{label:.17g}"]
        parts.extend(
            f"{i + 1}:{v:.17g}" for i, v in zip(dataset.indices[lo:hi], dataset.values[lo:hi])
        )
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic log-sum-exp instance."""

    n: int
    m: int
    gamma: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


def generate_logsumexp(spec: SyntheticSpec) -> LogSumExpProblem:
    """Generate a synthetic log-sum-exp instance with minimizer at the origin.

    Raw rows and offsets are drawn uniformly from [-1, 1] (rows first, then
    offsets, both from the "data" stream).  Each row is then shifted by the
    gradient at zero of the preliminary log-sum-exp term, which zeroes the
    full gradient at the origin.
    """
    rng = RngStream(spec.seed, "data")
    c_raw = rng.uniform(-1.0, 1.0, (spec.m, spec.n))
    b = rng.uniform(-1.0, 1.0, spec.m)
    _, pi0 = _stable_softmax(-b)
    shift = c_raw.T @ pi0
    c = c_raw - shift
    return LogSumExpProblem(c, b, spec.gamma)


def _normal_draw(rng: RngStream, n: int):
    """(v, |v|) for a standard normal v in R^n, drawn once more if |v| is 0."""
    v = rng.standard_normal(n)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:  # probability zero; redraw defensively
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
    return v, norm


def generate_start(n: int, seed: int) -> np.ndarray:
    """Uniform point on the sphere of radius 1/n (normalized Gaussian)."""
    v, norm = _normal_draw(RngStream(seed, "start"), n)
    return v / (norm * n)


def unit_sphere_direction(rng: RngStream, n: int) -> np.ndarray:
    """One uniform direction on the unit sphere from an existing stream."""
    v, norm = _normal_draw(rng, n)
    return v / norm
