"""Ratio-condition checks for an attention matrix against its target.

An attention matrix approximates the target when (1) for every row, entries
at the target's zero positions are less than ``eps1`` times any entry at a
nonzero position, and (2) ratios between entries at nonzero positions match
the target's ratios within a factor of ``exp(eps2)``, strictly.

``check_conditions`` works in the log domain on the raw logits: because a
softmax row ratio equals the exponential of the logit difference, both
conditions reduce to differences of logits, which stay finite where the
attention entries themselves would overflow or underflow.  It compiles the
target once (``compile_target``) to its per-row nonzero columns and
log-values, in O(nnz + L) with no L x L array.  ``row_margins`` gives each
row's two condition values for any range of rows, gathering from slices of
those compiled arrays, and ``margin_report`` turns them into the report;
``check_conditions`` runs both over every row, and a redraw search runs
``row_margins`` on each block of logits it forms, in whatever row schedule
it keeps.  ``check_direct`` evaluates the same conditions literally on
attention-matrix entries, with its own masks built from the target, and is
the small-instance oracle the log-domain path is tested against.

Both checks take their mode from the target: a causal target
(``A.causal``) is judged on the positions at or below the diagonal only.
Every target row holds a nonzero: ``SparseStochasticMatrix`` rejects an
empty row when it is built.

Both functions report the same canonical first violation: triples are
scanned row by row, zero/nonzero pairs before nonzero/nonzero pairs within
a row, and lexicographically by (j1, j2) within a kind.
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


@dataclass
class CompiledTarget:
    """The target as the log-domain check reads it, built once per matrix in
    O(nnz + L) and holding no L x L array.

    ``causal`` is the target's own mode.  ``rows``, ``cols`` and
    ``log_vals`` list the nonzeros in row-major order, and row ``i``'s
    entries are ``row_ptr[i]:row_ptr[i + 1]``.  ``nz_counts`` and
    ``zero_counts`` count each row's nonzero and considered zero positions
    (in causal mode only columns ``j <= i`` are considered), and
    ``n_triples`` is the number of (j1, j2) pairs the conditions cover.
    Any range of rows is a slice of each array, so ``row_margins`` needs no
    index built per range.
    """

    L: int
    causal: bool
    rows: np.ndarray
    cols: np.ndarray
    log_vals: np.ndarray
    row_ptr: np.ndarray
    nz_counts: np.ndarray
    zero_counts: np.ndarray
    n_triples: int


def compile_target(A: SparseStochasticMatrix) -> CompiledTarget:
    """Compile ``A`` once for any number of checks against it, in its own
    mode, in O(nnz + L)."""
    L = A.L
    nz_counts = np.bincount(A.rows, minlength=L)
    row_ptr = np.concatenate(([0], np.cumsum(nz_counts)))
    considered = np.arange(1, L + 1) if A.causal else np.full(L, L)
    zero_counts = considered - nz_counts
    # Zero/nonzero pairs for condition 1, distinct nonzero pairs for condition 2.
    n_triples = int(np.sum(zero_counts * nz_counts) + np.sum(nz_counts * (nz_counts - 1)))
    return CompiledTarget(
        L, A.causal, A.rows, A.cols, np.log(A.vals), row_ptr, nz_counts, zero_counts, n_triples
    )


def check_conditions(
    z: np.ndarray,
    A: SparseStochasticMatrix,
    eps1: float,
    eps2: float,
) -> ApproxReport:
    """Log-domain check of both ratio conditions on the logit matrix:
    ``row_margins`` over every row of the compiled target, then
    ``margin_report``, in the target's own mode.  Raises on non-finite
    logits at considered positions, where the softmax is undefined."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (A.L, A.L):
        raise VerificationError(f"logits shape {z.shape} does not match L={A.L}")
    target = compile_target(A)
    cond1, cond2 = row_margins(z, target, 0)
    return margin_report(z, target, cond1, cond2, eps1, eps2)


def row_margins(
    z_rows: np.ndarray, target: CompiledTarget, lo: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row condition values of the logit rows ``lo .. lo + len(z_rows) - 1``.

    Per row, condition 1 reduces to max(z over zeros) - min(z over
    nonzeros), to compare with log(eps1), and condition 2 to the spread of
    ``z - log(target)`` over nonzeros, to compare with eps2, so the work is
    one row-max plus O(nnz) gathers while agreeing exactly with full pair
    enumeration.  A row without pairs of a kind gets -inf for it.  Raises on
    a non-finite logit at a considered position of these rows.

    The rows' nonzeros are the slice ``row_ptr[lo]:row_ptr[hi]`` of the
    compiled arrays, gathered at their row-major offsets into ``z_rows``.  In
    non-causal mode the zero-position maximum needs no mask: those cells are
    set to -inf for one plain row-max and then restored, so ``z_rows`` reads
    bit-identical after the call (a read-only block is copied first).
    Causal mode masks the positions above the diagonal.
    """
    hi = lo + z_rows.shape[0]
    start, end = target.row_ptr[lo], target.row_ptr[hi]
    flat = (target.rows[start:end] - lo) * target.L + target.cols[start:end]
    if not np.isfinite(z_rows).all():
        bad = ~np.isfinite(z_rows)
        if target.causal:
            bad &= np.arange(target.L) <= np.arange(lo, hi)[:, None]
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise VerificationError(f"non-finite logit {z_rows[i, j]} at row {lo + i}, column {j}")
    z_flat = z_rows.reshape(-1)
    z_nz = z_flat[flat]
    if target.causal:
        zero_mask = np.arange(target.L) <= np.arange(lo, hi)[:, None]
        zero_mask.reshape(-1)[flat] = False
        z_zero_max = np.max(z_rows, axis=1, where=zero_mask, initial=-np.inf)
    else:
        if not z_flat.flags.writeable:
            z_flat = z_flat.copy()
        z_flat[flat] = -np.inf
        z_zero_max = z_flat.reshape(z_rows.shape).max(axis=1)
        z_flat[flat] = z_nz

    t = z_nz - target.log_vals[start:end]
    starts = target.row_ptr[lo:hi] - start
    gap = z_zero_max - np.minimum.reduceat(z_nz, starts)
    spread = np.maximum.reduceat(t, starts) - np.minimum.reduceat(t, starts)
    return (np.where(target.zero_counts[lo:hi] > 0, gap, -np.inf),
            np.where(target.nz_counts[lo:hi] >= 2, spread, -np.inf))


def margin_report(
    z: np.ndarray, target: CompiledTarget, cond1: np.ndarray, cond2: np.ndarray,
    eps1: float, eps2: float,
) -> ApproxReport:
    """The report of logits ``z`` from its per-row condition values
    (``row_margins`` over every row).  The first violation is located in
    the first failing row of ``z``, in the canonical scan order."""
    worst_zero = float(cond1.max())
    worst_dev = float(cond2.max())
    log_eps1 = math.log(eps1)
    passed = worst_zero < log_eps1 and worst_dev < eps2

    first_violation = None
    if not passed:
        fail1 = cond1 >= log_eps1
        i = int(np.argmax(fail1 | (cond2 >= eps2)))
        lo, hi = target.row_ptr[i], target.row_ptr[i + 1]
        cols = target.cols[lo:hi]  # ascending
        z_row, z_nz = z[i], z[i, cols]
        if fail1[i]:
            # First zero column whose logit is large enough to violate
            # against the row's smallest nonzero logit, then the first
            # nonzero column it actually violates against.
            zero_row = np.ones(target.L, dtype=bool)
            zero_row[cols] = False
            if target.causal:
                zero_row[i + 1:] = False
            j1 = int(np.argmax(zero_row & (z_row - z_nz.min() >= log_eps1)))
            j2 = int(cols[np.argmax(z_row[j1] - z_nz >= log_eps1)])
            first_violation = (i, j1, j2, KIND_ZERO_RATIO)
        else:
            t = z_nz - target.log_vals[lo:hi]
            dev = np.maximum(t - t.min(), t.max() - t)
            k1 = int(np.argmax(dev >= eps2))
            k2 = int(np.argmax(np.abs(t[k1] - t) >= eps2))
            first_violation = (i, int(cols[k1]), int(cols[k2]), KIND_NONZERO_DEV)

    return ApproxReport(
        passed=passed,
        worst_zero_ratio_log=worst_zero,
        worst_nonzero_dev=worst_dev,
        n_triples_checked=target.n_triples,
        first_violation=first_violation,
    )


def check_direct(
    m: np.ndarray,
    A: SparseStochasticMatrix,
    eps1: float,
    eps2: float,
) -> ApproxReport:
    """Literal evaluation of the ratio conditions on attention entries, in
    the target's own mode.

    Full pair enumeration per row; intended as an oracle for small L.
    Raises on non-finite ratios (a zero attention entry at a nonzero
    position of the target).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (A.L, A.L):
        raise VerificationError(f"matrix shape {m.shape} does not match L={A.L}")
    a_dense = A.to_dense()

    worst_zero = -math.inf
    worst_dev = -math.inf
    n_triples = 0
    first_violation = None
    log_eps1 = math.log(eps1)
    lo, hi = math.exp(-eps2), math.exp(eps2)

    for i in range(A.L):
        considered = a_dense[i, : i + 1] if A.causal else a_dense[i]
        nz_j = np.nonzero(considered != 0.0)[0]
        zero_j = np.nonzero(considered == 0.0)[0]
        n_triples += len(zero_j) * len(nz_j) + len(nz_j) * (len(nz_j) - 1)
        row_violation = None
        for j1 in zero_j:
            for j2 in nz_j:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = m[i, j1] / m[i, j2]
                if not np.isfinite(ratio):
                    raise VerificationError(
                        f"non-finite ratio at row {i}, columns ({j1}, {j2})"
                    )
                log_ratio = math.log(ratio) if ratio > 0 else -math.inf
                worst_zero = max(worst_zero, log_ratio)
                if ratio >= eps1 and row_violation is None:
                    row_violation = (i, int(j1), int(j2), KIND_ZERO_RATIO)
        for j1 in nz_j:
            for j2 in nz_j:
                if j1 == j2:
                    continue
                with np.errstate(divide="ignore"):
                    ratio = m[i, j1] / m[i, j2]
                if not np.isfinite(ratio):
                    raise VerificationError(
                        f"non-finite ratio at row {i}, columns ({j1}, {j2})"
                    )
                target = a_dense[i, j1] / a_dense[i, j2]
                if ratio > 0:
                    worst_dev = max(worst_dev, abs(math.log(ratio) - math.log(target)))
                else:
                    worst_dev = math.inf
                inside = target * lo < ratio < target * hi
                if not inside and row_violation is None:
                    row_violation = (i, int(j1), int(j2), KIND_NONZERO_DEV)
        if row_violation is not None and first_violation is None:
            first_violation = row_violation

    passed = worst_zero < log_eps1 and worst_dev < eps2
    return ApproxReport(
        passed=passed,
        worst_zero_ratio_log=worst_zero,
        worst_nonzero_dev=worst_dev,
        n_triples_checked=n_triples,
        first_violation=first_violation,
    )
