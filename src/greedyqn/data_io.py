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
    DimensionTooLarge,
    MalformedLine,
    NonMonotoneIndices,
    UnmappedLabel,
)
from .objectives import LogisticProblem, LogSumExpProblem, _stable_softmax

# The largest index the CSR arrays (int64) hold.
_INDEX_MAX = int(np.iinfo(np.int64).max)


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
        if m * int(self.n_features) * 8 > np.iinfo(np.intp).max:
            raise DimensionTooLarge(
                f"m={m} x n_features={self.n_features} float64 entries: more than numpy can index"
            )
        c = np.zeros((m, self.n_features))
        c[np.repeat(np.arange(m), np.diff(self.indptr)), self.indices] = self.values
        return LogisticProblem(c, self.labels, gamma)


def parse_libsvm(text: str, label_map=None, n_features: int | None = None) -> LibsvmDataset:
    """Parse LIBSVM text: one sample per line, "label idx:val idx:val ...".

    Indices are 1-based in the file and mapped to 0-based.  ``#`` starts a
    comment running to the end of the line.  ``label_map`` optionally remaps
    raw label values (e.g. {2.0: -1.0}); after remapping every label must be
    -1 or +1.  Labels and values take Python's float syntax and indices its
    int syntax; lines end at any ``str.splitlines`` break, and blank lines
    are skipped but counted.  A refusal names the first bad line.

    ASCII text whose pairs are all plain digits, a colon and a value is
    parsed in bulk by :func:`_parse_bulk`.  Any other text, and text with a
    bad line, is parsed by :func:`_parse_lines`, the only code that refuses
    a line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    csr = _parse_bulk(lines, label_map)
    if csr is None:
        csr = _parse_lines(lines, label_map)
    labels, indptr, indices, values, max_index = csr
    if n_features is not None:
        if n_features < max_index:
            raise DimensionMismatch(
                f"n_features override {n_features} below max index {max_index}"
            )
        cols = n_features
    else:
        cols = max_index
    return LibsvmDataset(
        labels=np.asarray(labels, dtype=float),
        indptr=np.asarray(indptr, dtype=int),
        indices=np.asarray(indices, dtype=int),
        values=np.asarray(values, dtype=float),
        n_features=cols,
    )


def _parse_bulk(lines, label_map):
    """(labels, indptr, indices, values, max index) of well-formed lines, else None.

    Each step is a C-level pass over the text or over its tokens.  A line
    that needs a refusal, or a pair that is not plain ASCII digits, a colon
    and a value, gives None.
    """
    body = "\n".join(["", *lines, ""])  # a "\n" before each line and after the last
    if not body.isascii():
        return None
    text = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    # str.split's ASCII whitespace: bytes 9-13 and 28-32 (uint8 differences wrap around)
    space = (text - 9 <= 4) | (text - 28 <= 4)
    starts = np.flatnonzero(space[:-1] > space[1:]) + 1  # where str.split's tokens start
    colons = np.flatnonzero(text == ord(":"))
    # Read the digits left of each colon, ones first, and blank them and the colon.
    index = np.zeros(colons.size, dtype=np.int64)
    width = np.zeros(colons.size, dtype=np.int64)
    reading = np.ones(colons.size, dtype=bool)
    blanked = text.copy()
    blanked[colons] = ord(" ")
    for place in range(19):
        at = np.maximum(colons - 1 - place, 0)  # text[0] is the leading "\n"
        digit = text[at] - ord("0")  # uint8: a byte that is no digit reads above 9
        reading &= digit <= 9
        if not reading.any():
            break
        if place == 18:  # an index of 19 digits or more may not fit in int64
            return None
        index += digit * (reading * 10**place)
        width += reading
        blanked[at[reading]] = ord(" ")
    # The first token of each non-blank line is its label, and every other
    # token is a pair: digits, a colon and a value that is not blank.
    first_token = np.searchsorted(starts, np.flatnonzero(text == ord("\n")))  # of each line
    label_token = first_token[:-1][first_token[:-1] < first_token[1:]]  # of each row
    is_label = np.zeros(starts.size, dtype=bool)
    is_label[label_token] = True
    if not (np.all(width > 0) and np.array_equal(starts[~is_label], colons - width)
            and not np.any(space[colons + 1])):
        return None
    # Blanking the indices and colons leaves one token per label and per value.
    try:
        numbers = np.fromiter(map(float, blanked.tobytes().decode("ascii").split()),
                              dtype=float, count=starts.size)
    except ValueError:
        return None
    labels = numbers[is_label]
    if label_map:
        raw = labels.tolist()
        try:
            labels = np.fromiter(map(float, map(label_map.get, raw, raw)), dtype=float,
                                 count=len(raw))
        except (TypeError, ValueError, OverflowError):  # a mapped value that is no float
            return None
    values = numbers[~is_label]
    indptr = np.append(label_token - np.arange(label_token.size), colons.size)
    row_start = np.zeros(index.size + 1, dtype=bool)
    row_start[indptr] = True
    if not (np.all(np.abs(labels) == 1.0) and np.all(index >= 1) and np.all(np.isfinite(values))
            and np.all((np.diff(index) > 0) | row_start[1:-1])):
        return None
    return labels, indptr, index - 1, values, int(index.max(initial=0))


def _parse_lines(lines, label_map):
    """(labels, indptr, indices, values, max index) of ``lines``, one token at a time.

    The only code that refuses a line: it raises the error of the first bad
    line, naming its 1-based number among all lines, blank ones included.
    """
    labels = []
    indptr = [0]
    indices = []
    values = []
    max_index = 0
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
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
            if pos > _INDEX_MAX:
                raise MalformedLine(line_no, f"index {pos} must be <= {_INDEX_MAX}")
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
    return labels, indptr, indices, values, max_index


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
