"""Stable softmax attention evaluation tests."""

import numpy as np
import pytest

from sparseattn.attention import csam, logits, sam
from sparseattn.construct import ProjectionPair, assemble


def random_inputs(L=8, d=4, seed=0):
    rng = np.random.default_rng(seed)
    pair = ProjectionPair(
        left=rng.standard_normal((L, d // 2)),
        right=rng.standard_normal((L, d // 2)),
        d=d,
    )
    return assemble(pair)


# -------------------------------------------------------------------- logits


def test_logits_zero_inputs():
    inputs = random_inputs()
    inputs.x = np.zeros_like(inputs.x)
    np.testing.assert_array_equal(logits(inputs), np.zeros((8, 8)))


def test_logits_match_projection_product():
    rng = np.random.default_rng(3)
    pair = ProjectionPair(
        left=rng.standard_normal((8, 2)), right=rng.standard_normal((8, 2)), d=4
    )
    inputs = assemble(pair)
    assert np.abs(logits(inputs) - pair.left @ pair.right.T).max() < 1e-12


def test_logits_match_naive_four_matrix_product():
    inputs = random_inputs(seed=5)
    naive = inputs.x @ inputs.w_query @ inputs.w_key.T @ inputs.x.T
    assert np.abs(logits(inputs) - naive).max() < 1e-10


# ----------------------------------------------------------------------- sam


def test_sam_uniform_for_zero_logits():
    np.testing.assert_allclose(sam(np.zeros((5, 5))), np.full((5, 5), 0.2), rtol=1e-15)


def test_sam_row_shift_invariance():
    rng = np.random.default_rng(1)
    z = rng.uniform(-5, 5, (6, 6))
    shifted = z.copy()
    shifted[2] += 37.5
    assert np.abs(sam(shifted)[2] - sam(z)[2]).max() < 1e-14


def test_sam_matches_direct_normalization():
    rng = np.random.default_rng(2)
    z = rng.uniform(-5, 5, (8, 8))
    direct = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    assert np.abs(sam(z) - direct).max() < 1e-12


def test_sam_survives_exp_overflow_range():
    # Entries up to +-700 overflow a naive exp; max subtraction must not.
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = rng.uniform(-700, 700, (12, 12))
        m = sam(z)
        assert np.all(np.isfinite(m))
        assert np.all(m >= 0)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_sam_strictly_positive():
    rng = np.random.default_rng(6)
    assert np.all(sam(rng.uniform(-30, 30, (9, 9))) > 0)


# ---------------------------------------------------------------------- csam


def test_csam_first_row_is_basis_vector():
    rng = np.random.default_rng(7)
    m = csam(rng.uniform(-3, 3, (6, 6)))
    np.testing.assert_array_equal(m[0], np.array([1.0, 0, 0, 0, 0, 0]))


def test_csam_uniform_prefix_for_zero_logits():
    m = csam(np.zeros((4, 4)))
    for i in range(4):
        np.testing.assert_allclose(m[i, : i + 1], 1.0 / (i + 1), rtol=1e-15)
        np.testing.assert_array_equal(m[i, i + 1 :], 0.0)


def test_csam_matches_tril_then_normalize():
    rng = np.random.default_rng(8)
    z = rng.uniform(-5, 5, (8, 8))
    masked = np.tril(np.exp(z))
    direct = masked / masked.sum(axis=1, keepdims=True)
    assert np.abs(csam(z) - direct).max() < 1e-12


def test_csam_support_exactly_lower_triangular():
    rng = np.random.default_rng(9)
    m = csam(rng.uniform(-700, 700, (10, 10)))
    assert np.array_equal(m[np.triu_indices(10, k=1)], np.zeros(45))
    np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_csam_agrees_with_sam_when_upper_is_suppressed():
    # A logit matrix whose upper triangle sits below -1e9 behaves causally.
    rng = np.random.default_rng(10)
    z = rng.uniform(-4, 4, (7, 7))
    z[np.triu_indices(7, k=1)] = -1e9
    assert np.abs(csam(z)[6] - sam(z)[6]).max() < 1e-9
    assert np.abs(csam(z) - sam(z)).max() < 1e-9


def test_ratio_identity_bridges_to_logit_differences():
    # The verifier relies on M[i,j1]/M[i,j2] = exp(z[i,j1] - z[i,j2]).
    rng = np.random.default_rng(11)
    z = rng.uniform(-6, 6, (8, 8))
    m = sam(z)
    for i in range(8):
        for j1 in range(8):
            for j2 in range(8):
                want = np.exp(z[i, j1] - z[i, j2])
                assert m[i, j1] / m[i, j2] == pytest.approx(want, rel=1e-10)
