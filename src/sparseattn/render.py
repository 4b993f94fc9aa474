"""Attention-map rendering: max-pooled, clipped, ASCII PGM output."""

from __future__ import annotations

import textwrap

import numpy as np

from .matrices import SparseStochasticMatrix


def pooled_pixels(matrix, pool: int, clip: float) -> np.ndarray:
    """Max-pool into (L/pool)^2 blocks, clip, and quantize to 0..255.

    Raises ValueError unless ``pool`` is at least 1 and divides L, ``clip``
    lies in (0, 1] and every entry is finite and >= 0.
    """
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    if not 0.0 < clip <= 1.0:
        raise ValueError(f"clip must lie in (0, 1], got {clip}")
    if isinstance(matrix, SparseStochasticMatrix):
        matrix = matrix.to_dense()
    matrix = np.asarray(matrix, dtype=np.float64)
    L = matrix.shape[0]
    if matrix.shape != (L, L):
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    drawable = np.isfinite(matrix) & (matrix >= 0.0)
    if not drawable.all():
        i, j = (int(v) for v in np.argwhere(~drawable)[0])
        raise ValueError(f"entry ({i}, {j}) is {matrix[i, j]}, not a finite value >= 0")
    if L % pool != 0:
        raise ValueError(f"pool={pool} does not divide L={L}")
    side = L // pool
    blocks = matrix.reshape(side, pool, side, pool).max(axis=(1, 3))
    return np.rint(255.0 * np.minimum(blocks, clip) / clip).astype(np.int64)


def render_pgm(matrix, out_path, pool: int = 8, clip: float = 0.05) -> None:
    """Write the pooled map (``pooled_pixels``) to ``out_path`` as plain-text
    PGM (P2, maxval 255).  Invalid options raise before any file is opened."""
    pixels = pooled_pixels(matrix, pool, clip)
    side = pixels.shape[0]
    lines = ["P2", f"{side} {side}", "255"]
    for row in pixels:
        # Keep lines within the 70-character limit of the plain format.
        lines += textwrap.wrap(" ".join(map(str, row)), 70)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
