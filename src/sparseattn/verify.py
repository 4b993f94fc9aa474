"""Ratio-condition checks for an attention matrix against its target.

An attention matrix approximates the target when (1) for every row, entries
at the target's zero positions are less than ``eps1`` times any entry at a
nonzero position, and (2) ratios between entries at nonzero positions match
the target's ratios within a factor of ``exp(eps2)``, strictly.

``check_conditions`` works in the log domain on the raw logits: because a
softmax row ratio equals the exponential of the logit difference, both
conditions reduce to differences of logits, which stay finite where the
attention entries themselves would overflow or underflow.  It compiles the
target (``compile_target``) and checks against it (``check_compiled``); a
redraw search compiles once and checks every redraw.  ``check_direct``
evaluates the same conditions literally on attention-matrix entries and is
the small-instance oracle the log-domain path is tested against.

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
    eps2.  Either is -inf when no pair of its kind exists.  ``passed`` is
    the conjunction of the two strict inequalities.
    """

    passed: bool
    worst_zero_ratio_log: float
    worst_nonzero_dev: float
    n_triples_checked: int
    first_violation: tuple[int, int, int, str] | None = None

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "worst_zero_ratio_log": self.worst_zero_ratio_log,
            "worst_nonzero_dev": self.worst_nonzero_dev,
            "n_triples_checked": self.n_triples_checked,
            "first_violation": list(self.first_violation) if self.first_violation else None,
        }
        return json.dumps(payload)


@dataclass
class CompiledTarget:
    """The target as the log-domain check reads it, built once per matrix:
    L x L masks of the considered nonzero and zero positions (in causal mode
    columns beyond the row index are in neither), log-values at the nonzeros,
    per-row counts, and the number of (j1, j2) pairs the conditions cover."""

    L: int
    nz: np.ndarray
    zero: np.ndarray
    log_a: np.ndarray
    nz_counts: np.ndarray
    zero_counts: np.ndarray
    n_triples: int


def compile_target(A: SparseStochasticMatrix, causal: bool = False) -> CompiledTarget:
    """Compile ``A`` once for any number of ``check_compiled`` calls."""
    L = A.L
    nz = np.zeros((L, L), dtype=bool)
    nz[A.rows, A.cols] = True
    log_a = np.zeros((L, L))
    log_a[A.rows, A.cols] = np.log(A.vals)
    zero = ~nz
    if causal:
        upper = np.triu_indices(L, k=1)
        nz[upper] = zero[upper] = False
    nz_counts, zero_counts = nz.sum(axis=1), zero.sum(axis=1)
    # Zero/nonzero pairs for condition 1, distinct nonzero pairs for condition 2.
    n_triples = int(np.sum(zero_counts * nz_counts) + np.sum(nz_counts * (nz_counts - 1)))
    return CompiledTarget(L, nz, zero, log_a, nz_counts, zero_counts, n_triples)


def check_conditions(
    z: np.ndarray,
    A: SparseStochasticMatrix,
    eps1: float,
    eps2: float,
    causal: bool = False,
) -> ApproxReport:
    """Log-domain check of both ratio conditions on the logit matrix."""
    return check_compiled(z, compile_target(A, causal), eps1, eps2)


def check_compiled(
    z: np.ndarray, target: CompiledTarget, eps1: float, eps2: float
) -> ApproxReport:
    """Log-domain check of both ratio conditions against a compiled target.

    Per row, condition 1 reduces to max(z over zeros) - min(z over
    nonzeros) < log(eps1) and condition 2 to the spread of
    ``z - log(target)`` over nonzeros being < eps2, so the scan is O(L) per
    row while agreeing exactly with full pair enumeration.  Raises on
    non-finite logits at considered positions, where the softmax is
    undefined.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (target.L, target.L):
        raise VerificationError(f"logits shape {z.shape} does not match L={target.L}")
    nz, zero, log_a = target.nz, target.zero, target.log_a
    nz_counts, zero_counts = target.nz_counts, target.zero_counts
    if not np.isfinite(z).all():
        bad = ~np.isfinite(z) & (nz | zero)
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise VerificationError(f"non-finite logit {z[i, j]} at row {i}, column {j}")

    z_zero_max = np.where(zero, z, -np.inf).max(axis=1)
    z_nz_min = np.where(nz, z, np.inf).min(axis=1)
    cond1_rows = np.where(
        (zero_counts > 0) & (nz_counts > 0), z_zero_max - z_nz_min, -np.inf
    )
    worst_zero = float(cond1_rows.max()) if cond1_rows.size else -math.inf

    t = np.where(nz, z - log_a, np.nan)
    t_max = np.where(nz, t, -np.inf).max(axis=1)
    t_min = np.where(nz, t, np.inf).min(axis=1)
    cond2_rows = np.where(nz_counts >= 2, t_max - t_min, -np.inf)
    worst_dev = float(cond2_rows.max()) if cond2_rows.size else -math.inf

    log_eps1 = math.log(eps1)
    passed = worst_zero < log_eps1 and worst_dev < eps2

    first_violation = None
    if not passed:
        fail1 = cond1_rows >= log_eps1
        fail2 = cond2_rows >= eps2
        i = int(np.argmax(fail1 | fail2))
        if fail1[i]:
            # First zero column whose logit is large enough to violate
            # against the row's smallest nonzero logit, then the first
            # nonzero column it actually violates against.
            j1_candidates = zero[i] & (z[i] - z_nz_min[i] >= log_eps1)
            j1 = int(np.argmax(j1_candidates))
            j2_candidates = nz[i] & (z[i, j1] - z[i] >= log_eps1)
            j2 = int(np.argmax(j2_candidates))
            first_violation = (i, j1, j2, KIND_ZERO_RATIO)
        else:
            dev_up = np.where(nz[i], t[i] - t_min[i], -np.inf)
            dev_down = np.where(nz[i], t_max[i] - t[i], -np.inf)
            j1 = int(np.argmax(np.maximum(dev_up, dev_down) >= eps2))
            j2_candidates = nz[i] & (np.abs(t[i, j1] - t[i]) >= eps2)
            j2 = int(np.argmax(j2_candidates))
            first_violation = (i, j1, j2, KIND_NONZERO_DEV)

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
    causal: bool = False,
) -> ApproxReport:
    """Literal evaluation of the ratio conditions on attention entries.

    Full pair enumeration per row; intended as an oracle for small L.
    Raises on non-finite ratios (a zero attention entry at a nonzero
    position of the target).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (A.L, A.L):
        raise VerificationError(f"matrix shape {m.shape} does not match L={A.L}")
    compiled = compile_target(A, causal)
    nz, zero = compiled.nz, compiled.zero
    a_dense = A.to_dense()

    worst_zero = -math.inf
    worst_dev = -math.inf
    first_violation = None
    log_eps1 = math.log(eps1)
    lo, hi = math.exp(-eps2), math.exp(eps2)

    for i in range(A.L):
        nz_j = np.nonzero(nz[i])[0]
        zero_j = np.nonzero(zero[i])[0]
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
        n_triples_checked=compiled.n_triples,
        first_violation=first_violation,
    )
