"""Shared test helpers."""

import math

import numpy as np

from sparseattn.concentration import MODE_ORTHOGONAL
from sparseattn.construct import sample_stiefel
from sparseattn.matrices import SparseStochasticMatrix
from sparseattn.verify import VerificationError


def reference_generate(params, seed):
    """Literal two-pass greedy loop that ``matrices.generate`` vectorizes.

    One interpreted step per visited position and one scalar coin flip per
    insertion, in the documented stream order: a causal target takes its
    diagonal first, then the passes visit only positions below it.
    ``generate`` must return bit-equal ``rows``/``cols``/``vals``.
    """
    L, k, gamma, causal = params.L, params.k, params.gamma, params.causal
    rng = np.random.default_rng(seed)
    row_counts = np.zeros(L, dtype=np.int64)
    col_counts = np.zeros(L, dtype=np.int64)
    raw: dict[tuple[int, int], float] = {}

    def flip_value() -> float:
        return gamma if rng.integers(0, 2) == 1 else 1.0

    if causal:
        for i in range(L):
            raw[(i, i)] = flip_value()
            row_counts[i] += 1
            col_counts[i] += 1

    # Pass 1: rows outer, columns inner.
    row_order = rng.permutation(L)
    col_order = rng.permutation(L)
    for i in row_order:
        if causal:
            candidates = col_order[col_order < i]
        else:
            candidates = col_order
        for j in candidates:
            if row_counts[i] >= k:
                break
            if col_counts[j] >= k or (i, j) in raw:
                continue
            raw[(int(i), int(j))] = flip_value()
            row_counts[i] += 1
            col_counts[j] += 1

    # Pass 2: columns outer, rows inner.
    col_order2 = rng.permutation(L)
    row_order2 = rng.permutation(L)
    for j in col_order2:
        if causal:
            candidates = row_order2[row_order2 > j]
        else:
            candidates = row_order2
        for i in candidates:
            if col_counts[j] >= k:
                break
            if row_counts[i] >= k or (i, j) in raw:
                continue
            raw[(int(i), int(j))] = flip_value()
            row_counts[i] += 1
            col_counts[j] += 1

    rows = np.fromiter((ij[0] for ij in raw), dtype=np.int64, count=len(raw))
    cols = np.fromiter((ij[1] for ij in raw), dtype=np.int64, count=len(raw))
    vals = np.fromiter(raw.values(), dtype=np.float64, count=len(raw))
    row_sums = np.zeros(L)
    np.add.at(row_sums, rows, vals)
    vals = vals / row_sums[rows]
    return SparseStochasticMatrix(
        L, rows, cols, vals, causal=causal, k=k, gamma=gamma
    )


def reference_project_pair(x, y, params, seed):
    """Explicit-matrix route that ``concentration.project_pair`` replaces.

    Orthogonal mode forms ``R = sqrt(p) y^T`` from the QR-and-sign-fix
    sample ``y = sample_stiefel(p, m, seed)``; iid mode draws ``R`` as an
    m x p standard Gaussian.  Returns ``(Rx).(Ry) / m``.
    """
    if params.mode == MODE_ORTHOGONAL:
        r = math.sqrt(params.p) * sample_stiefel(params.p, params.m, seed).T
    else:
        r = np.random.default_rng(seed).standard_normal((params.m, params.p))
    return float((r @ x) @ (r @ y) / params.m)


def reference_row_margins(z_rows, A, lo):
    """Masked route that ``verify.row_margins`` replaces: one L-wide boolean
    mask of the block's zero positions per call, the nonzeros gathered by
    (row, column) pairs.  ``row_margins`` must return bit-equal condition
    values, or raise the same VerificationError.  The row pointer, the counts
    and the log-values are rebuilt here from ``A.rows`` and ``A.vals``, not
    read from ``A.row_ptr``."""
    L, hi = A.L, lo + z_rows.shape[0]
    all_nz_counts = np.bincount(A.rows, minlength=L)
    row_ptr = np.concatenate(([0], np.cumsum(all_nz_counts)))
    considered = np.arange(1, L + 1) if A.causal else np.full(L, L)
    zero_counts = considered - all_nz_counts
    log_vals = np.log(A.vals)
    start, end = row_ptr[lo], row_ptr[hi]
    local, cols = A.rows[start:end] - lo, A.cols[start:end]
    # The considered positions of these rows; clearing the nonzeros from it
    # below leaves the zero positions.
    if A.causal:
        zero_mask = np.arange(L) <= np.arange(lo, hi)[:, None]
    else:
        zero_mask = np.ones(z_rows.shape, dtype=bool)
    if not np.isfinite(z_rows).all():
        bad = ~np.isfinite(z_rows) & zero_mask
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise VerificationError(f"non-finite logit {z_rows[i, j]} at row {lo + i}, column {j}")
    zero_mask[local, cols] = False

    nz_counts = all_nz_counts[lo:hi]
    z_nz = z_rows[local, cols]
    t = z_nz - log_vals[start:end]
    z_nz_min = np.full(hi - lo, np.inf)
    t_max = np.full(hi - lo, -np.inf)
    t_min = np.full(hi - lo, np.inf)
    has_nz = nz_counts > 0
    # Segment starts of the rows with nonzeros; empty rows add no entries.
    starts = row_ptr[lo:hi][has_nz] - start
    z_nz_min[has_nz] = np.minimum.reduceat(z_nz, starts)
    t_max[has_nz] = np.maximum.reduceat(t, starts)
    t_min[has_nz] = np.minimum.reduceat(t, starts)
    z_zero_max = np.max(z_rows, axis=1, where=zero_mask, initial=-np.inf)
    cond1 = np.where(
        (zero_counts[lo:hi] > 0) & has_nz, z_zero_max - z_nz_min, -np.inf
    )
    cond2 = np.where(nz_counts >= 2, t_max - t_min, -np.inf)
    return cond1, cond2
