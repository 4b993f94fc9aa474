"""Constructive pipeline from a target matrix to self-attention inputs.

The route: shift the log of the target into a nonnegative L x L "log-gap"
matrix ``B`` (``build_log_gap``; ``log_gap_values`` gives its nonzeros)
whose elementwise exponential is a row-rescaled copy of the target; take the
orthogonal right factor ``V`` of its SVD, so ``B = (B V) V^T``; compress
``B V`` and ``V`` with a shared Haar-orthogonal projection; and lay the
compressed factors out as token embeddings together with fixed query/key
weight matrices whose product recovers the compressed logits exactly.

A Haar sample ``y`` enters the redraw search (``sweep.search_width``) and
the orthogonal estimate of the concentration bench
(``concentration.project_pair``) only through its projector ``y y^T``, which
equals ``G C^-1 G^T`` for the Gaussian draw ``G`` that ``sample_stiefel``
orthogonalizes and ``C = G^T G``.  Both draw through ``projector_basis``,
one route at every width: ``G`` and ``C``, no QR.  The search runs neither
``sample_stiefel``, ``compress`` nor ``assemble``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import SparseStochasticMatrix, check_tolerances


@dataclass
class AttentionInputs:
    """Token embeddings plus fixed query/key weights.

    ``x`` is ``[left | right]`` (L x d, so d is ``x.shape[1]``), ``w_query``
    is the identity, and ``w_key`` routes the right block into the first d/2
    output columns, so the logit product collapses to ``left @ right.T``.
    """

    x: np.ndarray
    w_query: np.ndarray
    w_key: np.ndarray


def log_gap_values(A: SparseStochasticMatrix, eps1: float, eps2: float) -> np.ndarray:
    """The log-gap matrix ``B`` at the target's nonzeros, in stored (row-major)
    order: ``log A[i, j] - log(row_min_nonzero[i]) - log(eps1) + eps2``, which
    is strictly positive and at most ``log(gamma / eps1) + eps2`` for a
    gamma-variation-bounded target.  The tolerances must lie in the range
    ``ApproxParams`` accepts (``check_tolerances``)."""
    check_tolerances(eps1, eps2)
    row_min = np.minimum.reduceat(A.vals, A.row_ptr[:-1])
    return np.log(A.vals) - np.log(row_min[A.rows]) - math.log(eps1) + eps2


def build_log_gap(A: SparseStochasticMatrix, eps1: float, eps2: float) -> np.ndarray:
    """Dense log-gap matrix ``B``: ``log_gap_values`` at the nonzeros, else 0."""
    B = np.zeros((A.L, A.L))
    B[A.rows, A.cols] = log_gap_values(A, eps1, eps2)
    return B


def svd_factor(B: np.ndarray) -> np.ndarray:
    """Orthogonal right factor ``V`` of the full SVD of the log-gap matrix
    ``B``.  ``B V`` is the left singular vectors scaled by the singular
    values (descending), so ``(B V) V^T`` reproduces ``B`` to roundoff.

    Only the span of ``V``'s columns at each singular value is fixed; within
    a repeated one, LAPACK's basis follows the BLAS thread count (at L=268,
    k=2, gamma=2, ``V`` moves by O(1) between one and two threads while each
    span agrees to 3e-13).  So a redraw's samples ``V G`` repeat bit for bit
    only at a fixed thread count: ``run_sweep`` computes every record at one
    BLAS thread, ``sparseattn approx`` and direct ``find_dmin`` or
    ``sweep.search_width`` calls at the caller's.

    ``np.linalg.svd`` also forms the L x L ``U``, dropped here: part of the
    291-295 MB fresh-process peak at L=2048.  Repeated calls in one process
    leave ~16 MB of freed heap resident (``approx_large`` reads ~312 MB, and
    298 MB for one operation).  Only an SVD-free search removes either cost.
    Raises ValueError on non-finite entries (LAPACK returns without error on
    +-inf) and when the SVD does not converge."""
    if not np.all(np.isfinite(B)):
        raise ValueError("log-gap matrix has non-finite entries")
    try:
        u, sigma, vt = np.linalg.svd(B, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD did not converge on a {B.shape[0]}x{B.shape[1]} matrix "
                         f"(max |entry| = {np.abs(B).max():.3e}): {exc}") from exc
    return vt.T


def sample_stiefel(L: int, half_d: int, seed: int) -> np.ndarray:
    """Haar-distributed L x half_d matrix with orthonormal columns.

    QR of a standard Gaussian matrix, with each column of Q multiplied by
    the sign of the matching diagonal entry of R (sign 0 counts as +1);
    without the sign fix the QR output is not Haar-distributed.
    """
    if not 1 <= half_d <= L:
        raise ValueError(f"need 1 <= half_d <= L, got half_d={half_d}, L={L}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((L, half_d))
    q, r = np.linalg.qr(g, mode="reduced")
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def projector_basis(L: int, h: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis ``g`` (L x h) and Gram matrix ``c`` of the projector of
    ``y = sample_stiefel(L, h, seed)``: ``g c^-1 g^T = y y^T``.

    ``g`` is the Gaussian draw that ``sample_stiefel`` orthogonalizes, from
    the same stream, and ``c = g^T g``: no QR, no sign fix.  The roundoff of
    solves against ``c`` grows with ``kappa(c) = kappa(g)^2`` as h nears L;
    callers add a corrected seminormal step where it shows.  At ``h == L`` the
    projector is exactly the identity, so there both are the identity.
    """
    if h == L:
        return np.eye(L), np.eye(L)
    g = np.random.default_rng(seed).standard_normal((L, h))
    return g, g.T @ g


def check_width(d: int, L: int) -> None:
    """Raise ValueError unless ``d`` is a width a shared projection can
    realize at length ``L``: a positive even integer, at most ``2L``."""
    if d % 2 != 0 or d <= 0:
        raise ValueError(f"d must be a positive even integer, got {d}")
    if d > 2 * L:
        raise ValueError(f"need d <= 2L, got d={d}, L={L}")


def compress(B: np.ndarray, V: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project ``B V`` and ``V`` through the shared L x h sample ``y`` (width
    ``d = 2h``), scaled by ``s = sqrt(L/h)``: ``(left, right) = (s B V y,
    s V y)``, whose product ``left @ right.T`` is an unbiased estimate of B."""
    L, h = V.shape[0], y.shape[1]
    check_width(2 * h, L)
    if y.shape[0] != L:
        raise ValueError(f"expected a sample with {L} rows, got shape {y.shape}")
    scale = math.sqrt(L / h)
    vy = V @ y
    return scale * (B @ vy), scale * vy


def assemble(left: np.ndarray, right: np.ndarray) -> AttentionInputs:
    """Lay out embeddings and fixed weights realizing the logits
    ``left @ right.T`` of two L x h factors, at width ``d = 2h``."""
    half, d = left.shape[1], 2 * left.shape[1]
    x = np.hstack([left, right])
    # Block matrix with the identity in the lower-left quarter: the key
    # projection swaps the right block of x into the first d/2 columns.
    w_key = np.zeros((d, d))
    w_key[half:, :half] = np.eye(half)
    return AttentionInputs(x=x, w_query=np.eye(d), w_key=w_key)
