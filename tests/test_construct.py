"""Log-gap transform, SVD factorization, Stiefel sampling, and assembly."""

import math

import numpy as np
import pytest

from sparseattn.construct import (
    assemble,
    build_log_gap,
    compress,
    log_gap_values,
    sample_stiefel,
    svd_factor,
)
from sparseattn.matrices import ApproxParams, SparseStochasticMatrix, generate


def matrix_from_rows(rows):
    dense = np.array(rows, dtype=np.float64)
    r, c = np.nonzero(dense)
    return SparseStochasticMatrix(dense.shape[0], r, c, dense[r, c])


# -------------------------------------------------------------- log-gap map


def test_log_gap_single_entry_row():
    # The entry equals its own row minimum, so only -log(eps1) + eps2 is left.
    A = matrix_from_rows([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    gap = build_log_gap(A, 0.1, 0.5)
    expected = -math.log(0.1) + 0.5
    np.testing.assert_allclose(np.diag(gap), expected, rtol=1e-15)
    assert expected == pytest.approx(2.802585092994046)


def test_log_gap_two_entry_row():
    A = matrix_from_rows([[2 / 3, 1 / 3, 0], [0, 1, 0], [0, 0, 1]])
    gap = build_log_gap(A, 0.15, 1.41)
    want0 = math.log(2 / 3) - math.log(1 / 3) - math.log(0.15) + 1.41
    want1 = -math.log(0.15) + 1.41
    np.testing.assert_allclose(gap[0, :2], [want0, want1], rtol=1e-12)
    assert want0 == pytest.approx(4.0003, abs=1e-4)
    assert want1 == pytest.approx(3.3071, abs=1e-4)
    assert gap[0, 2] == 0.0


def test_log_gap_identity_scaled():
    A = matrix_from_rows(np.eye(4))
    gap = build_log_gap(A, 0.5, 0.1)
    np.testing.assert_allclose(
        gap, (math.log(2.0) + 0.1) * np.eye(4), rtol=1e-15, atol=0
    )


def test_log_gap_zero_pattern_and_bounds():
    params = ApproxParams(L=64, k=2, gamma=2.0, eps1=0.15, eps2=0.5)
    A = generate(params, seed=9)
    gap = build_log_gap(A, params.eps1, params.eps2)
    dense = A.to_dense()
    assert np.all((gap == 0.0) == (dense == 0.0))
    nz = gap[dense != 0.0]
    assert np.all(nz >= -math.log(params.eps1) + params.eps2 - 1e-12)
    assert np.all(nz <= math.log(params.gamma / params.eps1) + params.eps2 + 1e-12)


def test_log_gap_values_shift_by_a_row_minimum_in_range():
    # Normalized row patterns for k=2, gamma=2 are {1}, {1,1}, {1,2}, {2,2};
    # their minima are 1, 1/2, 1/3, 1/2, so every row minimum lies in
    # [1/(1+gamma), 1] = [1/3, 1].  Each row's smallest value is the shift
    # alone, and the row minimum is recovered from any entry of the row.
    eps1, eps2 = 0.5, 0.5
    A = generate(ApproxParams(L=512, k=2, gamma=2.0, eps1=eps1, eps2=eps2), seed=3)
    values = log_gap_values(A, eps1, eps2)
    shift = -math.log(eps1) + eps2
    np.testing.assert_allclose(np.minimum.reduceat(values, A.row_ptr[:-1]), shift, rtol=1e-15)
    row_min = A.vals * np.exp(shift - values)
    assert np.all(row_min >= 1 / 3 - 1e-15)
    assert np.all(row_min <= 1.0 + 1e-15)


def test_log_gap_rejects_bad_eps():
    A = matrix_from_rows(np.eye(2))
    with pytest.raises(ValueError):
        build_log_gap(A, 1.5, 0.5)
    with pytest.raises(ValueError):
        build_log_gap(A, 0.5, 0.0)
    # The eps2 range is ApproxParams': (0, sqrt(2)).
    build_log_gap(A, 0.5, 1.41)
    with pytest.raises(ValueError, match=r"\(0, sqrt\(2\)\)"):
        build_log_gap(A, 0.5, math.sqrt(2.0))


# ----------------------------------------------------------------------- SVD


def test_svd_zero_matrix():
    V = svd_factor(np.zeros((3, 3)))
    np.testing.assert_array_equal(np.zeros((3, 3)) @ V, np.zeros((3, 3)))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_svd_refuses_non_finite_entries(value):
    # LAPACK raises on NaN but returns without error on +-inf.
    B = np.eye(3)
    B[0, 1] = value
    with pytest.raises(ValueError, match="non-finite entries"):
        svd_factor(B)


def test_svd_scaled_identity():
    A = matrix_from_rows(np.eye(4))
    gap = build_log_gap(A, 0.5, 0.1)
    c = math.log(2.0) + 0.1
    V = svd_factor(gap)
    # The columns of B V = U * sigma have the singular values as norms.
    left = gap @ V
    np.testing.assert_allclose(np.linalg.norm(left, axis=0), c, rtol=1e-14)
    np.testing.assert_allclose(left @ V.T, gap, atol=1e-14)


def test_svd_reconstruction_and_spectral_bound():
    params = ApproxParams(L=64, k=2, gamma=2.0, eps1=0.15, eps2=0.5)
    A = generate(params, seed=13)
    gap = build_log_gap(A, params.eps1, params.eps2)
    V = svd_factor(gap)
    left = gap @ V
    sigma1_cap = params.k * max(math.log(params.gamma / params.eps1) + params.eps2, 1.0)
    assert np.abs(left @ V.T - gap).max() < 1e-8
    assert np.linalg.norm(gap, 2) <= sigma1_cap
    assert sigma1_cap == pytest.approx(2 * 3.0903, abs=1e-3)
    # Factorization invariants: V orthogonal, the columns of B V = U * sigma
    # orthogonal with descending norms (to roundoff, which reorders the norms
    # of repeated singular values).
    np.testing.assert_allclose(V.T @ V, np.eye(64), atol=1e-10)
    sigma = np.linalg.norm(left, axis=0)
    np.testing.assert_allclose(left.T @ left, np.diag(sigma**2), atol=1e-10)
    assert np.all(np.diff(sigma) <= 1e-12 * sigma[0])


# ------------------------------------------------------------------- Stiefel


@pytest.mark.parametrize("L,half", [(8, 3), (32, 16), (17, 17)])
def test_stiefel_orthonormal_columns(L, half):
    y = sample_stiefel(L, half, seed=4)
    np.testing.assert_allclose(y.T @ y, np.eye(half), atol=1e-10)


def test_stiefel_square_is_orthogonal():
    y = sample_stiefel(12, 12, seed=8)
    np.testing.assert_allclose(y @ y.T, np.eye(12), atol=1e-10)


def test_stiefel_deterministic_and_seed_sensitive():
    a = sample_stiefel(10, 4, seed=3)
    b = sample_stiefel(10, 4, seed=3)
    c = sample_stiefel(10, 4, seed=5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_stiefel_rejects_bad_dims():
    with pytest.raises(ValueError):
        sample_stiefel(4, 5, seed=0)
    with pytest.raises(ValueError):
        sample_stiefel(4, 0, seed=0)


def test_stiefel_columns_marginally_uniform():
    # Monte Carlo oracle: columns lie uniformly on the sphere, so the mean
    # of L * (first column outer product) is the identity.  Three standard
    # errors per entry, empirical SE.
    L, half, n = 8, 4, 2000
    samples = np.empty((n, L, L))
    for t in range(n):
        y = sample_stiefel(L, half, seed=t)
        samples[t] = L * np.outer(y[:, 0], y[:, 0])
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - np.eye(L)) <= 3.0 * se + 1e-12)


# ---------------------------------------------------------------- compression


def full_pipeline_matrices(L=16, seed=2):
    params = ApproxParams(L=L, k=2, gamma=2.0, eps1=0.15, eps2=0.5)
    A = generate(params, seed=seed)
    gap = build_log_gap(A, params.eps1, params.eps2)
    return A, gap, svd_factor(gap)


def test_compress_full_dimension_reproduces_gap_matrix():
    _, gap, V = full_pipeline_matrices()
    y = sample_stiefel(16, 16, seed=1)
    left, right = compress(gap, V, y)
    np.testing.assert_allclose(left @ right.T, gap, atol=1e-8)


def test_compress_zero_factorization():
    zero = np.zeros((3, 3))
    left, right = compress(zero, svd_factor(zero), sample_stiefel(3, 1, seed=0))
    np.testing.assert_array_equal(left, np.zeros((3, 1)))
    np.testing.assert_array_equal(left @ right.T, np.zeros((3, 3)))


def test_compress_dimension_checks():
    _, gap, V = full_pipeline_matrices()
    # The width comes from the sample: d = 2 * y.shape[1].
    with pytest.raises(ValueError, match="expected a sample with 16 rows"):
        compress(gap, V, sample_stiefel(15, 4, seed=0))
    with pytest.raises(ValueError, match="positive even integer, got 0"):
        compress(gap, V, np.zeros((16, 0)))
    with pytest.raises(ValueError, match="need d <= 2L"):
        compress(gap, V, np.zeros((16, 17)))


def test_compress_unbiased():
    # Monte Carlo oracle for the unbiasedness of the compressed product.
    _, gap, V = full_pipeline_matrices(L=16)
    n, d = 2000, 8
    samples = np.empty((n, 16, 16))
    for t in range(n):
        y = sample_stiefel(16, d // 2, seed=10_000 + t)
        left, right = compress(gap, V, y)
        samples[t] = left @ right.T
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(n)
    frac = np.mean(np.abs(mean - gap) <= 3.0 * se + 1e-12)
    assert frac >= 0.99


# ------------------------------------------------------------------ assembly


def test_assemble_no_padding_by_default():
    _, gap, V = full_pipeline_matrices()
    left, right = compress(gap, V, sample_stiefel(16, 2, seed=5))
    inputs = assemble(left, right)
    assert inputs.x.shape == (16, 4)
    np.testing.assert_array_equal(inputs.x[:, :2], left)
    np.testing.assert_array_equal(inputs.x[:, 2:], right)


def test_assemble_query_projection_selects_columns():
    _, gap, V = full_pipeline_matrices()
    inputs = assemble(*compress(gap, V, sample_stiefel(16, 2, seed=5)))
    np.testing.assert_array_equal(inputs.x @ inputs.w_query, inputs.x)


def test_assemble_logit_identity_vs_naive_product():
    # Oracle: the four-matrix product, evaluated literally.
    rng = np.random.default_rng(0)
    L, d = 8, 4
    left, right = rng.standard_normal((L, d // 2)), rng.standard_normal((L, d // 2))
    inputs = assemble(left, right)
    naive = inputs.x @ inputs.w_query @ inputs.w_key.T @ inputs.x.T
    assert np.abs(naive - left @ right.T).max() < 1e-12
