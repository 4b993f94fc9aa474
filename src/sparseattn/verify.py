"""Ratio-condition checks for an attention matrix against its target.

An attention matrix approximates the target when (1) for every row, entries
at the target's zero positions are less than ``eps1`` times any entry at a
nonzero position, and (2) ratios between entries at nonzero positions match
the target's ratios within a factor of ``exp(eps2)``, strictly.

``check_conditions`` works in the log domain on the raw logits: because a
softmax row ratio equals the exponential of the logit difference, both
conditions reduce to differences of logits, which stay finite where the
attention entries themselves would overflow or underflow.  It reads the
target as it is stored: nonzeros in row-major order and a row pointer
(``SparseStochasticMatrix.row_ptr``), O(nnz + L) with no L x L array.
``row_margins`` gives each row's two condition values for any range of rows,
gathering from slices of those arrays.  ``check_conditions`` runs it over
every row and builds the report; a redraw search runs ``row_margins`` on each
block of logits it forms, in whatever row schedule it keeps, and reports
through ``check_conditions``.

The check takes its mode from the target: a causal target (``A.causal``) is
judged on the positions at or below the diagonal only, a rule stated once,
in ``_zero_positions``, for the row maxima and the violation scan.  Every
target row holds a nonzero: ``SparseStochasticMatrix`` rejects an empty row
when it is built.

The report names the canonical first violation: triples are scanned row by
row, zero/nonzero pairs before nonzero/nonzero pairs within a row, and
lexicographically by (j1, j2) within a kind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .matrices import SparseStochasticMatrix

KIND_ZERO_RATIO = "zero_ratio"
KIND_NONZERO_DEV = "nonzero_dev"


class VerificationError(ValueError):
    """Inputs that cannot be checked (shape mismatch, non-finite ratios)."""


@dataclass
class ApproxReport:
    """Outcome of the two ratio conditions.

    ``worst_zero_ratio_log`` is the largest logit difference over
    (zero, nonzero) column pairs, to compare with log(eps1);
    ``worst_nonzero_dev`` the largest absolute mismatch between logit
    differences and target log-ratios over nonzero pairs, to compare with
    eps2.  Either is -inf when no pair of its kind exists, which
    ``to_json`` writes as null.  ``passed`` is the conjunction of the two
    strict inequalities.
    """

    passed: bool
    worst_zero_ratio_log: float
    worst_nonzero_dev: float
    n_triples_checked: int
    first_violation: tuple[int, int, int, str] | None = None

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "worst_zero_ratio_log": _null_if_no_pairs(self.worst_zero_ratio_log),
            "worst_nonzero_dev": _null_if_no_pairs(self.worst_nonzero_dev),
            "n_triples_checked": self.n_triples_checked,
            "first_violation": list(self.first_violation) if self.first_violation else None,
        }
        return json.dumps(payload)


def _null_if_no_pairs(worst: float) -> float | None:
    return None if worst == -math.inf else worst


def check_conditions(
    z: np.ndarray,
    A: SparseStochasticMatrix,
    eps1: float,
    eps2: float,
) -> ApproxReport:
    """Log-domain check of both ratio conditions on the logit matrix, in the
    target's own mode: ``row_margins`` over every row of the target.  The
    first violation is located in the first failing row, in the canonical
    scan order, and the triples counted are the zero/nonzero and distinct
    nonzero pairs of every row.  Raises on non-finite logits at considered
    positions, where the softmax is undefined."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (A.L, A.L):
        raise VerificationError(f"logits shape {z.shape} does not match L={A.L}")
    cond1, cond2 = row_margins(z, A, 0)
    worst_zero = float(cond1.max())
    worst_dev = float(cond2.max())
    log_eps1 = math.log(eps1)
    passed = worst_zero < log_eps1 and worst_dev < eps2

    first_violation = None
    if not passed:
        fail1 = cond1 >= log_eps1
        i = int(np.argmax(fail1 | (cond2 >= eps2)))
        start, end = A.row_ptr[i], A.row_ptr[i + 1]
        cols = A.cols[start:end]  # ascending
        z_row, z_nz = z[i], z[i, cols]
        if fail1[i]:
            # First zero column whose logit is large enough to violate
            # against the row's smallest nonzero logit, then the first
            # nonzero column it actually violates against.
            zero_row = _zero_positions(A, i, i + 1)[0]
            j1 = int(np.argmax(zero_row & (z_row - z_nz.min() >= log_eps1)))
            j2 = int(cols[np.argmax(z_row[j1] - z_nz >= log_eps1)])
            first_violation = (i, j1, j2, KIND_ZERO_RATIO)
        else:
            t = z_nz - np.log(A.vals[start:end])
            dev = np.maximum(t - t.min(), t.max() - t)
            k1 = int(np.argmax(dev >= eps2))
            k2 = int(np.argmax(np.abs(t[k1] - t) >= eps2))
            first_violation = (i, int(cols[k1]), int(cols[k2]), KIND_NONZERO_DEV)

    # Each nonzero pairs with every other position its row considers: a
    # zero for condition 1, a nonzero for condition 2.
    n_triples = int(A.rows.sum()) if A.causal else A.nnz * (A.L - 1)
    return ApproxReport(
        passed=passed,
        worst_zero_ratio_log=worst_zero,
        worst_nonzero_dev=worst_dev,
        n_triples_checked=n_triples,
        first_violation=first_violation,
    )


def _zero_positions(A: SparseStochasticMatrix, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo .. hi - 1`` by ``L`` bool mask of each row's zero positions:
    the positions it considers (every column, or ``j <= i`` for row ``i`` in
    causal mode) less its nonzeros."""
    if A.causal:
        zero = np.arange(A.L) <= np.arange(lo, hi)[:, None]
    else:
        zero = np.ones((hi - lo, A.L), dtype=bool)
    start, end = A.row_ptr[lo], A.row_ptr[hi]
    zero.reshape(-1)[(A.rows[start:end] - lo) * A.L + A.cols[start:end]] = False
    return zero


def row_margins(
    z_rows: np.ndarray, A: SparseStochasticMatrix, lo: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row condition values of the logit rows ``lo .. lo + len(z_rows) - 1``.

    Per row, condition 1 reduces to max(z over zeros) - min(z over
    nonzeros), to compare with log(eps1), and condition 2 to the spread of
    ``z - log(target)`` over nonzeros, to compare with eps2, so the work is
    one row-max plus O(nnz) gathers while agreeing exactly with full pair
    enumeration.  A row without pairs of a kind gets -inf for it.  Raises on
    a non-finite logit at a considered position of these rows.

    The rows' nonzeros are the slice ``A.row_ptr[lo]:A.row_ptr[hi]`` of the
    target's arrays, gathered at their row-major offsets into ``z_rows``.
    The zero-position maximum is one reduction under the rows'
    ``_zero_positions`` mask in both modes, and ``z_rows`` is only read.
    """
    hi = lo + z_rows.shape[0]
    ptr = A.row_ptr[lo:hi + 1]
    start, end = ptr[0], ptr[-1]
    flat = (A.rows[start:end] - lo) * A.L + A.cols[start:end]
    z_nz = z_rows.reshape(-1)[flat]
    # Tested before the mask is built, so the two L-wide bool temporaries
    # are never alive together.
    finite = np.isfinite(z_rows).all()
    zero = _zero_positions(A, lo, hi)
    if not finite:
        # The considered positions are the zero positions and the nonzeros.
        bad = ~np.isfinite(z_rows) & zero
        bad.reshape(-1)[flat] = ~np.isfinite(z_nz)
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise VerificationError(f"non-finite logit {z_rows[i, j]} at row {lo + i}, column {j}")
    z_zero_max = np.max(z_rows, axis=1, where=zero, initial=-np.inf)

    t = z_nz - np.log(A.vals[start:end])
    starts = ptr[:-1] - start
    # A row without zero positions keeps the reduction's -inf as its gap.
    gap = z_zero_max - np.minimum.reduceat(z_nz, starts)
    spread = np.maximum.reduceat(t, starts) - np.minimum.reduceat(t, starts)
    nz_counts = ptr[1:] - ptr[:-1]  # np.diff without its call overhead
    return gap, np.where(nz_counts >= 2, spread, -np.inf)
