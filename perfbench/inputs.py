"""Seeded inputs for the benchmark workloads.

The benchmark, not the program, makes every input.  A run's ``--seed``
selects one of ``POOL`` instances (``seed % POOL``); each instance's outputs
are pinned in ``pins.json``, so every run is checked against exact values
recorded from the same inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

POOL = 16

# Shape of the synthetic LIBSVM dataset of the logistic workload.
LIBSVM_ROWS = 4000
LIBSVM_FEATURES = 100
LIBSVM_DENSITY = 0.1
LABEL_NOISE = 0.5


def instance_seed(seed: int) -> int:
    return seed % POOL


def libsvm_text(seed: int) -> str:
    """Sparse binary-classification data with labels from a planted model.

    Each entry is nonzero with probability ``LIBSVM_DENSITY`` and then
    standard normal.  The label is 1 when the planted margin plus Gaussian
    noise is positive and 2 otherwise, so the CLI maps it with
    ``--label-remap 2:-1,1:1``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.standard_normal(LIBSVM_FEATURES)
    mask = rng.random((LIBSVM_ROWS, LIBSVM_FEATURES)) < LIBSVM_DENSITY
    values = rng.standard_normal((LIBSVM_ROWS, LIBSVM_FEATURES))
    noise = rng.standard_normal(LIBSVM_ROWS)
    values = np.where(mask, values, 0.0)
    # Round before labelling so the labels agree with the text the program parses.
    values[mask] = [float(f"{v:.6g}") for v in values[mask]]
    margins = values @ w + LABEL_NOISE * noise
    lines = []
    for row, margin in zip(values, margins):
        cols = np.flatnonzero(row)
        pairs = " ".join(f"{j + 1}:{row[j]:.6g}" for j in cols)
        label = "1" if margin > 0 else "2"
        lines.append(f"{label} {pairs}".rstrip())
    return "\n".join(lines) + "\n"


def write_libsvm(path: Path, seed: int) -> int:
    """Write the dataset for ``seed`` to ``path``; return its size in bytes."""
    text = libsvm_text(seed)
    path.write_text(text)
    return len(text.encode())
