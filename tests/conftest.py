"""Shared test helpers: the oracles the package is tested against.

- ``reference_generate``: the literal greedy loop ``matrices.generate``
  vectorizes;
- ``reference_project_pair``: the explicit-matrix route
  ``concentration.project_pair`` replaces;
- ``reference_row_margins``: the masked route ``verify.row_margins``
  replaces;
- ``reference_scaled_left``: the left singular vectors times the singular
  values, ``U * sigma``, the dense left factor the redraw search no longer
  keeps;
- ``circle_witness`` and ``moment_witness``: width-4 and width-8 attention
  inputs that fit any k = 1 and k = 2 target when their scale is not
  bounded;
- ``check_direct``: the ratio conditions evaluated literally on attention
  entries, against which ``verify.check_conditions`` is tested; both
  report the same canonical first violation;
- ``validate`` (with ``ValidationReport`` and ``InvariantViolation``): every
  target invariant checked against its ``ApproxParams``;
- ``read_pgm``: the parser of the plain PGM files ``render.render_pgm``
  writes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from sparseattn.concentration import MODE_ORTHOGONAL
from sparseattn.construct import sample_stiefel
from sparseattn.matrices import ApproxParams, SparseStochasticMatrix
from sparseattn.verify import (
    KIND_NONZERO_DEV,
    KIND_ZERO_RATIO,
    ApproxReport,
    VerificationError,
)

ROW_SUM_TOL = 1e-12
# Relative slack on the within-row ratio check: normalizing a row divides
# every entry by the same float, which can perturb ratios by an ulp.
RATIO_RTOL = 1e-12


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


def reference_scaled_left(B):
    """``U * sigma`` from ``np.linalg.svd(B)``: the dense L x L left factor
    that equals ``B V`` for the ``V`` of ``construct.svd_factor``."""
    u, sigma, _ = np.linalg.svd(B, full_matrices=True)
    return u * sigma


def circle_witness(A, eps1):
    """Queries ``P`` and keys ``K``, each L x 2 (width 4), whose logits
    ``P K^T`` pass both conditions on a target with one nonzero per row.

    Key j is ``u_j = (cos t_j, sin t_j)`` with ``t_j = 2 pi j / L``, and row
    i's query is ``c u_p(i)`` for ``p(i)`` the column of its nonzero and
    ``c = 2 log(1/eps1) / (1 - cos(2 pi / L))``.  Row i's logit is ``c`` at
    its nonzero and at most ``c cos(2 pi / L)`` elsewhere, a gap of
    ``2 log(1/eps1)``; with no second nonzero, condition 2 holds vacuously.
    The scale ``c`` grows like L^2: the paper's random construction fits
    at a bounded scale, where the width must grow like log L.
    """
    theta = 2.0 * math.pi * np.arange(A.L) / A.L
    keys = np.column_stack([np.cos(theta), np.sin(theta)])
    c = 2.0 * math.log(1.0 / eps1) / (1.0 - math.cos(2.0 * math.pi / A.L))
    return c * keys[A.cols[A.row_ptr[:-1]]], keys


def moment_witness(A, eps1):
    """Queries ``P`` and keys ``K``, each L x 4 (width 8), whose logits
    ``P K^T`` pass both conditions on a target with at most two nonzeros
    per row, at any gamma.

    Key j is ``k_j = (cos t_j, sin t_j, cos 2t_j, sin 2t_j)`` with
    ``t_j = 2 pi j / L``, a point of the degree-2 trigonometric moment
    curve.  A row with nonzeros ``a1`` and ``a2`` at ``t1`` and ``t2`` has
    the query ``c_i q + (alpha, beta, 0, 0)``, where
    ``q = (cos t1 + cos t2, sin t1 + sin t2, -cos(t1 + t2) / 2,
    -sin(t1 + t2) / 2)`` gives ``q . k(t) = -(1 - cos(t - t1))(1 - cos(t - t2))``
    up to a row constant: zero at both nonzeros, negative elsewhere.
    ``(alpha, beta) = log(a1 / a2) D / |D|^2`` with
    ``D = (cos t1 - cos t2, sin t1 - sin t2)`` makes the nonzero log-ratio
    exact.  A row with one nonzero, at ``t1``, has the query
    ``c_i (cos t1, sin t1, 0, 0)``.  ``c_i`` is the smallest scale that puts
    every zero position the row considers ``2 log(1/eps1)`` or more below
    each of its nonzeros; for two adjacent nonzeros it grows like L^4.
    """
    L = A.L
    theta = 2.0 * math.pi * np.arange(L) / L
    keys = np.column_stack([np.cos(theta), np.sin(theta), np.cos(2 * theta), np.sin(2 * theta)])
    clear = 2.0 * math.log(1.0 / eps1)
    queries = np.zeros((L, 4))
    for i in range(L):
        start, end = A.row_ptr[i], A.row_ptr[i + 1]
        cols, vals = A.cols[start:end], A.vals[start:end]
        t = theta[cols]
        drift = np.zeros(4)  # (alpha, beta, 0, 0)
        if len(cols) == 1:
            q = np.array([math.cos(t[0]), math.sin(t[0]), 0.0, 0.0])
            height = np.cos(theta - t[0]) - 1.0  # q . k(t) less its value at t1
        elif len(cols) == 2:
            q = np.array([
                math.cos(t[0]) + math.cos(t[1]), math.sin(t[0]) + math.sin(t[1]),
                -0.5 * math.cos(t[0] + t[1]), -0.5 * math.sin(t[0] + t[1]),
            ])
            height = -(1.0 - np.cos(theta - t[0])) * (1.0 - np.cos(theta - t[1]))
            delta = keys[cols[0], :2] - keys[cols[1], :2]
            drift[:2] = math.log(vals[0] / vals[1]) * delta / (delta @ delta)
        else:
            raise ValueError(f"row {i} holds {len(cols)} nonzeros; the witness takes 1 or 2")
        zero = np.arange(L) <= i if A.causal else np.ones(L, dtype=bool)
        zero[cols] = False
        tilt = keys @ drift
        # c (-height_j) >= clear + tilt_j - tilt_n at each zero j and nonzero n.
        scale = (clear + tilt[zero] - tilt[cols].min()) / -height[zero]
        queries[i] = scale.max(initial=0.0) * q + drift
    return queries, keys


def reference_row_margins(z_rows, A, lo):
    """Oracle for ``verify.row_margins``, written apart from it: one L-wide
    boolean mask of the block's zero positions per call, the nonzeros
    gathered by (row, column) pairs.  ``row_margins`` must return bit-equal
    condition values, or raise the same VerificationError.  The row pointer, the counts
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


@dataclass(frozen=True)
class InvariantViolation:
    kind: str
    row: int | None
    col: int | None
    detail: str


@dataclass
class ValidationReport:
    passed: bool
    violations: list[InvariantViolation] = field(default_factory=list)


def validate(A: SparseStochasticMatrix, params: ApproxParams) -> ValidationReport:
    """Check every matrix invariant against ``params``; never raises.

    Checks: dimension match, row sums within 1e-12 of one, at most k
    nonzeros per row and per column, within-row ratios in [1/gamma, gamma]
    (with 1e-12 relative slack for normalization roundoff), and
    lower-triangular support when ``params.causal``.  Every row holds a
    nonzero by construction.
    """
    violations: list[InvariantViolation] = []
    if A.L != params.L:
        violations.append(
            InvariantViolation("dimension", None, None, f"L={A.L} != params.L={params.L}")
        )
        return ValidationReport(False, violations)

    row_sums = np.zeros(A.L)
    np.add.at(row_sums, A.rows, A.vals)
    row_counts = np.diff(A.row_ptr)
    col_counts = np.bincount(A.cols, minlength=A.L)

    bad_sum = np.nonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)[0]
    for i in bad_sum:
        violations.append(
            InvariantViolation("row_sum", int(i), None, f"row sums to {row_sums[i]!r}")
        )
    for i in np.nonzero(row_counts > params.k)[0]:
        violations.append(
            InvariantViolation("row_nnz", int(i), None, f"{row_counts[i]} nonzeros > k={params.k}")
        )
    for j in np.nonzero(col_counts > params.k)[0]:
        violations.append(
            InvariantViolation("col_nnz", None, int(j), f"{col_counts[j]} nonzeros > k={params.k}")
        )

    starts = A.row_ptr[:-1]
    ratios = np.maximum.reduceat(A.vals, starts) / np.minimum.reduceat(A.vals, starts)
    for i in np.nonzero(ratios > params.gamma * (1.0 + RATIO_RTOL))[0]:
        violations.append(
            InvariantViolation(
                "variation", int(i), None, f"ratio {ratios[i]!r} exceeds gamma={params.gamma}"
            )
        )

    if params.causal:
        above = np.nonzero(A.cols > A.rows)[0]
        for t in above:
            violations.append(
                InvariantViolation(
                    "causal", int(A.rows[t]), int(A.cols[t]), "entry above the diagonal"
                )
            )

    return ValidationReport(not violations, violations)


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


def read_pgm(path) -> np.ndarray:
    """Parse a plain-text PGM (P2) back into an integer array."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for ln in fh:
            ln = ln.split("#", 1)[0]
            tokens.extend(ln.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not a plain PGM (P2) file")
    if len(tokens) < 4:
        raise ValueError(f"{path}: PGM header needs width, height and maxval")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = np.array([int(t) for t in tokens[4:]], dtype=np.int64)
    if pixels.size != width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, got {pixels.size}")
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    return pixels.reshape(height, width)
