"""Target matrices: sparse, right-stochastic, with bounded nonzero counts.

A target matrix has at most ``k`` nonzeros in every row and every column,
the ratio of any two nonzeros within a row confined to ``[1/gamma, gamma]``,
and rows summing to one.  This module provides the parameter bundle, the
matrix container, a seeded random generator (two greedy passes over permuted
positions), and a plain-text COO file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class MatrixError(ValueError):
    """Structurally invalid matrix data (bad indices, duplicates, ...)."""


class CooFormatError(MatrixError):
    """A COO text file violates the documented format."""


@dataclass(frozen=True)
class ApproxParams:
    """Approximation problem parameters.

    L: sequence length (> 1); k: per-row/per-column nonzero bound;
    gamma: within-row variation bound (>= 1); eps1: zero-ratio threshold
    in (0, 1); eps2: nonzero-ratio log tolerance in (0, sqrt(2));
    causal: restrict the target to lower-triangular support.
    """

    L: int
    k: int
    gamma: float
    eps1: float
    eps2: float
    causal: bool = False

    def __post_init__(self):
        if self.L <= 1:
            raise ValueError(f"L must be > 1, got {self.L}")
        if not 1 <= self.k <= self.L:
            raise ValueError(f"k must satisfy 1 <= k <= L, got k={self.k}, L={self.L}")
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        check_tolerances(self.eps1, self.eps2)


def check_tolerances(eps1: float, eps2: float) -> None:
    """Raise ValueError unless eps1 lies in (0, 1) and eps2 in (0, sqrt(2))."""
    if not 0.0 < eps1 < 1.0:
        raise ValueError(f"eps1 must lie in (0, 1), got {eps1}")
    if not 0.0 < eps2 < math.sqrt(2.0):
        raise ValueError(f"eps2 must lie in (0, sqrt(2)), got {eps2}")


@dataclass
class SparseStochasticMatrix:
    """Sparse right-stochastic matrix in coordinate form.

    Entries are stored as parallel arrays sorted row-major, and row ``i``'s
    entries are ``row_ptr[i]:row_ptr[i + 1]`` (derived on construction), so
    any range of rows is a slice of each array.  Construction rejects
    (``MatrixError``) out-of-range indices, non-positive or non-finite
    entries, duplicate coordinates, a causal entry above the diagonal, and a
    row with no nonzero, which no softmax row can match.  ``k`` and
    ``gamma`` record the bounds the matrix is supposed to satisfy
    (written to the file header); construction does not check them.
    """

    L: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    causal: bool = False
    k: int = 1
    gamma: float = 1.0
    row_ptr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise MatrixError("rows, cols, vals must have equal length")
        if self.L < 1:
            raise MatrixError(f"L must be >= 1, got {self.L}")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.L:
                raise MatrixError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.L:
                raise MatrixError("column index out of range")
            if np.any(self.vals <= 0.0):
                raise MatrixError("entries must be positive (zeros are implicit)")
            if not np.all(np.isfinite(self.vals)):
                raise MatrixError("entries must be finite")
        row_counts = np.bincount(self.rows, minlength=self.L)
        if not row_counts.all():
            raise MatrixError(f"row {int(np.argmin(row_counts))} has no nonzero entry")
        self.row_ptr = np.concatenate(([0], np.cumsum(row_counts)))
        order = np.lexsort((self.cols, self.rows))
        self.rows = self.rows[order]
        self.cols = self.cols[order]
        self.vals = self.vals[order]
        flat = self.rows * self.L + self.cols
        if flat.size and np.any(np.diff(flat) == 0):
            dup = int(np.argmin(np.diff(flat)))
            raise MatrixError(
                f"duplicate coordinate ({int(self.rows[dup])}, {int(self.cols[dup])})"
            )
        if self.causal and np.any(self.cols > self.rows):
            bad = int(np.argmax(self.cols > self.rows))
            raise MatrixError(
                f"causal matrix has entry above the diagonal at "
                f"({int(self.rows[bad])}, {int(self.cols[bad])})"
            )

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.L, self.L))
        dense[self.rows, self.cols] = self.vals
        return dense


def _greedy_pass(outer_order, inner_order, outer_counts, inner_counts, k, admissible, taken=None):
    """Run one greedy pass; return its ``(outer, inner)`` picks in visit order.

    For each outer index ``a`` in ``outer_order`` the pass takes the first
    ``k - outer_counts[a]`` indices ``b`` of ``inner_order`` whose own count
    is below ``k``, with ``admissible(b, a)`` when that comparison is given
    (the causal positions below the diagonal), and not in ``taken(a)``.
    This equals the scalar scan that stops once ``a`` is full: an inner
    count changes only when its entry is taken, and each inner index is seen
    once per outer step.  Both count arrays are updated in place.
    """
    L = inner_order.size
    inner_pos = np.empty(L, dtype=np.int64)
    inner_pos[inner_order] = np.arange(L)
    pos_counts = inner_counts[inner_order]
    open_pos = pos_counts < k
    outer_picks, inner_picks = [], []
    for a in outer_order:
        need = k - outer_counts[a]
        if need <= 0:
            continue
        free = open_pos & admissible(inner_order, a) if admissible else open_pos.copy()
        if taken is not None:
            free[inner_pos[taken(a)]] = False
        picks = np.flatnonzero(free)[:need]
        if not picks.size:
            continue
        pos_counts[picks] += 1
        open_pos[picks] = pos_counts[picks] < k
        outer_counts[a] += picks.size
        outer_picks.append(np.full(picks.size, a, dtype=np.int64))
        inner_picks.append(inner_order[picks])
    inner_counts[inner_order] = pos_counts
    if not outer_picks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(outer_picks), np.concatenate(inner_picks)


def generate(params: ApproxParams, seed: int) -> SparseStochasticMatrix:
    """Draw a random target matrix by two greedy passes over permuted positions.

    Pass 1 walks permuted rows in the outer loop and permuted columns in the
    inner loop; pass 2 walks permuted columns outer, permuted rows inner.  A
    visited position receives a raw value of 1 or ``gamma`` (fair coin flip)
    unless the insertion would push its row or column above ``k`` nonzeros.
    Rows are normalized to sum to one afterwards, which preserves within-row
    ratios.  In causal mode every diagonal cell is filled first, and the two
    passes visit only positions strictly below the diagonal; at k=1 the
    result is the identity.  No row is ever left empty: a causal row holds
    its diagonal cell, and a non-causal row finds a free column in pass 1,
    since fewer than kL entries are placed before its turn.

    The generator stream is consumed in a fixed order: the diagonal flips
    (one per row, causal mode only), pass-1 row permutation, pass-1 column
    permutation, pass-1 insertion flips (in visit order), then pass-2 column
    permutation, pass-2 row permutation, pass-2 insertion flips.  Each
    group of flips is drawn as one array of ``rng.integers(0, 2)`` once its
    structure is fixed, which is the same stream as one scalar draw per
    insertion.  Output is therefore a deterministic function of
    ``(params, seed)``.

    Each pass takes L vectorized steps of O(L) work, one per outer index:
    about 40 ms at L=2048 and 0.1 s at L=4096 on a 2-core Xeon.
    """
    L, k, gamma, causal = params.L, params.k, params.gamma, params.causal
    rng = np.random.default_rng(seed)

    def flip_values(n: int) -> np.ndarray:
        return np.where(rng.integers(0, 2, size=n) == 1, gamma, 1.0)

    # The causal diagonal: one entry per row and column.  A size-0 draw
    # consumes nothing, so the non-causal stream starts at the permutations.
    rows0 = cols0 = np.arange(L) if causal else np.empty(0, dtype=np.int64)
    vals0 = flip_values(rows0.size)
    row_counts = np.full(L, int(causal), dtype=np.int64)
    col_counts = row_counts.copy()

    # Pass 1: rows outer, columns inner.  Each row is visited once, so no
    # position it meets is taken yet.
    row_order = rng.permutation(L)
    col_order = rng.permutation(L)
    rows1, cols1 = _greedy_pass(
        row_order, col_order, row_counts, col_counts, k,
        np.less if causal else None,
    )
    vals1 = flip_values(rows1.size)

    # Pass 2: columns outer, rows inner, skipping the pass-1 entries of the
    # column (sliced from the pass-1 picks grouped by column).
    by_col = np.argsort(cols1, kind="stable")
    col_ptr = np.searchsorted(cols1[by_col], np.arange(L + 1))
    col_order2 = rng.permutation(L)
    row_order2 = rng.permutation(L)
    cols2, rows2 = _greedy_pass(
        col_order2, row_order2, col_counts, row_counts, k,
        np.greater if causal else None,
        lambda j: rows1[by_col[col_ptr[j]:col_ptr[j + 1]]],
    )
    vals2 = flip_values(rows2.size)

    # Rows, columns and raw values in visit order, so np.add.at sums each
    # row in insertion order and rounds exactly as a per-entry loop would.
    rows = np.concatenate((rows0, rows1, rows2))
    cols = np.concatenate((cols0, cols1, cols2))
    vals = np.concatenate((vals0, vals1, vals2))
    row_sums = np.zeros(L)
    np.add.at(row_sums, rows, vals)
    vals = vals / row_sums[rows]
    return SparseStochasticMatrix(
        L, rows, cols, vals, causal=causal, k=k, gamma=gamma
    )


def min_nonzero_rows(A: SparseStochasticMatrix) -> np.ndarray:
    """Per-row minimum over the nonzero entries (length-L vector)."""
    return np.minimum.reduceat(A.vals, A.row_ptr[:-1])


def write_coo(A: SparseStochasticMatrix, path) -> None:
    """Write the COO text format: header ``L k gamma causal``, then
    ``i j value`` lines sorted row-major, 17 significant digits, LF endings."""
    lines = [f"{A.L} {A.k} {A.gamma:.17g} {1 if A.causal else 0}"]
    for i, j, v in zip(A.rows, A.cols, A.vals):
        lines.append(f"{int(i)} {int(j)} {v:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coo(path) -> SparseStochasticMatrix:
    """Parse the COO text format written by :func:`write_coo`.

    Raises CooFormatError on a malformed header or entry line, and on any
    data the matrix constructor rejects (out-of-range indices, duplicate
    coordinates, an above-diagonal entry under a causal header, a row with
    no nonzero), naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = [ln.strip() for ln in fh]
    lines = [ln for ln in raw_lines if ln]
    if not lines:
        raise CooFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 4:
        raise CooFormatError(f"{path}: header must be 'L k gamma causal', got {lines[0]!r}")
    try:
        L, k = int(head[0]), int(head[1])
        gamma = float(head[2])
        causal_flag = int(head[3])
    except ValueError as exc:
        raise CooFormatError(f"{path}: unparsable header {lines[0]!r}") from exc
    if causal_flag not in (0, 1):
        raise CooFormatError(f"{path}: causal flag must be 0 or 1, got {head[3]}")
    if L < 1 or k < 1:
        raise CooFormatError(f"{path}: header requires L >= 1 and k >= 1")

    rows, cols, vals = [], [], []
    for n, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 3:
            raise CooFormatError(f"{path}:{n}: expected 'i j value', got {ln!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise CooFormatError(f"{path}:{n}: unparsable entry {ln!r}") from exc
        rows.append(i)
        cols.append(j)
        vals.append(v)
    try:
        return SparseStochasticMatrix(
            L, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals), causal=bool(causal_flag), k=k, gamma=gamma,
        )
    except MatrixError as exc:
        raise CooFormatError(f"{path}: {exc}") from exc
