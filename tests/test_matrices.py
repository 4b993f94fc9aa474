"""Generator, validator, and COO file format tests."""

import hashlib
import math
import re

import numpy as np
import pytest
from conftest import reference_generate, validate
from hypothesis import example, given, settings, strategies as st

from sparseattn.matrices import (
    ApproxParams,
    MatrixError,
    SparseStochasticMatrix,
    generate,
    read_coo,
    write_coo,
)


def identity_matrix(L):
    return SparseStochasticMatrix(
        L, np.arange(L), np.arange(L), np.ones(L), k=1, gamma=1.0
    )


# ---------------------------------------------------------------- parameters


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(L=1, k=1, gamma=1.0, eps1=0.5, eps2=0.5),
        dict(L=4, k=0, gamma=1.0, eps1=0.5, eps2=0.5),
        dict(L=4, k=5, gamma=1.0, eps1=0.5, eps2=0.5),
        dict(L=4, k=1, gamma=0.5, eps1=0.5, eps2=0.5),
        dict(L=4, k=1, gamma=1.0, eps1=0.0, eps2=0.5),
        dict(L=4, k=1, gamma=1.0, eps1=1.0, eps2=0.5),
        dict(L=4, k=1, gamma=1.0, eps1=0.5, eps2=0.0),
        dict(L=4, k=1, gamma=1.0, eps1=0.5, eps2=1.4143),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        ApproxParams(**kwargs)


def test_eps2_boundary_is_sqrt_two():
    ApproxParams(L=4, k=1, gamma=1.0, eps1=0.5, eps2=1.41)
    with pytest.raises(ValueError):
        ApproxParams(L=4, k=1, gamma=1.0, eps1=0.5, eps2=math.sqrt(2.0))


# ----------------------------------------------------------------- generator


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_generate_k1_rows_are_exactly_one(seed):
    # A single entry divided by itself is exactly 1.0.
    params = ApproxParams(L=4, k=1, gamma=3.0, eps1=0.5, eps2=0.5)
    A = generate(params, seed)
    assert A.nnz == 4
    counts = np.bincount(A.rows, minlength=4)
    assert np.all(counts == 1)
    assert np.all(A.vals == 1.0)
    assert np.all(np.bincount(A.cols, minlength=4) <= 1)


def test_generate_bounded_instance():
    params = ApproxParams(L=512, k=2, gamma=2.0, eps1=0.5, eps2=0.5)
    A = generate(params, seed=7)
    sums = np.zeros(512)
    np.add.at(sums, A.rows, A.vals)
    np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)
    assert np.bincount(A.rows, minlength=512).max() <= 2
    assert np.bincount(A.cols, minlength=512).max() <= 2
    # Raw values are 1 or gamma, so within-row ratios land on {1/2, 1, 2}.
    for r in range(512):
        rv = A.vals[A.rows == r]
        if rv.size == 2:
            ratio = rv.max() / rv.min()
            assert math.isclose(ratio, 1.0, rel_tol=1e-12) or math.isclose(
                ratio, 2.0, rel_tol=1e-12
            )


def test_generate_causal_row_zero_pinned_to_diagonal():
    # Row 0 has a single admissible position, so every draw puts its entry
    # at (0, 0) with value exactly 1.
    params = ApproxParams(L=8, k=3, gamma=2.0, eps1=0.5, eps2=0.5, causal=True)
    for seed in range(24):
        A = generate(params, seed)
        assert A.rows[0] == 0 and A.cols[0] == 0 and A.vals[0] == 1.0
        assert A.rows[1] == 1
        assert np.all(A.cols <= A.rows)


@pytest.mark.parametrize("L", [2, 3, 17])
def test_generate_causal_k1_is_identity(L):
    # The diagonal is filled first and uses every row's and column's budget.
    params = ApproxParams(L=L, k=1, gamma=3.0, eps1=0.5, eps2=0.5, causal=True)
    for seed in range(8):
        A = generate(params, seed)
        assert np.array_equal(A.to_dense(), np.eye(L))


def test_generate_deterministic():
    params = ApproxParams(L=32, k=2, gamma=2.0, eps1=0.5, eps2=0.5)
    A1 = generate(params, seed=5)
    A2 = generate(params, seed=5)
    assert np.array_equal(A1.rows, A2.rows)
    assert np.array_equal(A1.cols, A2.cols)
    assert np.array_equal(A1.vals, A2.vals)
    A3 = generate(params, seed=6)
    assert not (
        np.array_equal(A1.rows, A3.rows)
        and np.array_equal(A1.cols, A3.cols)
        and np.array_equal(A1.vals, A3.vals)
    )


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(2, 256),
    k=st.integers(1, 5),
    gamma=st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0]),
    causal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(L=2, k=2, gamma=3.0, causal=True, seed=0)
@example(L=64, k=5, gamma=2.0, causal=True, seed=1)
def test_generate_output_always_validates(L, k, gamma, causal, seed):
    """No draw fails: every mode and size returns a valid matrix."""
    k = min(k, L)
    params = ApproxParams(L=L, k=k, gamma=gamma, eps1=0.5, eps2=0.5, causal=causal)
    A = generate(params, seed)
    report = validate(A, params)
    assert report.passed, [v.detail for v in report.violations]


@settings(deadline=None)
@given(
    L=st.integers(2, 150),
    k=st.integers(1, 5),
    gamma=st.sampled_from([1.0, 1.5, 2.0, 5.0]),
    causal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(L=2048, k=2, gamma=2.0, causal=False, seed=2024)
@example(L=2048, k=2, gamma=2.0, causal=False, seed=11)
@example(L=512, k=2, gamma=2.0, causal=True, seed=2024)
@example(L=3, k=1, gamma=2.0, causal=True, seed=0)
def test_generate_matches_reference_loop(L, k, gamma, causal, seed):
    k = min(k, L)
    params = ApproxParams(L=L, k=k, gamma=gamma, eps1=0.5, eps2=0.5, causal=causal)
    expected = reference_generate(params, seed)
    A = generate(params, seed)
    assert np.array_equal(A.rows, expected.rows)
    assert np.array_equal(A.cols, expected.cols)
    assert A.vals.tobytes() == expected.vals.tobytes()


# sha256 of the write_coo text, recorded from the per-position loop.  A
# change to the generator's stream must update these on purpose; the causal
# digest was re-recorded when causal targets began taking the diagonal first.
RECORDED_DIGESTS = [
    (256, 1, 1.0, False, 0, "6fb1f5c3ead16acd57a3573741dcec67a45e58659355d0f084cac9f430545637"),
    (2048, 2, 2.0, False, 2024, "d443e904275f18020455b594871030533df53ac3c5f7478643dcc26d9cd76b06"),
    (100, 3, 1.5, False, 5, "ac9653e37fdba7e996f477de74031a4185525ca47e745a009a944d3e9610e7ac"),
    (16, 2, 2.0, True, 12, "eb845a31020adbd81ca3615c0b2de3f2be256651c975112e5e8a2bd11f5650d2"),
]


@pytest.mark.parametrize("L, k, gamma, causal, seed, digest", RECORDED_DIGESTS)
def test_generate_matches_recorded_digests(tmp_path, L, k, gamma, causal, seed, digest):
    params = ApproxParams(L=L, k=k, gamma=gamma, eps1=0.5, eps2=0.5, causal=causal)
    path = tmp_path / "a.coo"
    write_coo(generate(params, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ----------------------------------------------------------------- validator


def test_validate_identity_passes():
    params = ApproxParams(L=4, k=1, gamma=1.0, eps1=0.5, eps2=0.5)
    assert validate(identity_matrix(4), params).passed


def test_validate_variation_violation():
    # 0.7 / 0.3 = 2.333... > gamma = 2.
    A = SparseStochasticMatrix(3, [0, 0, 1, 2], [0, 1, 1, 2], [0.7, 0.3, 1.0, 1.0])
    params = ApproxParams(L=3, k=2, gamma=2.0, eps1=0.5, eps2=0.5)
    report = validate(A, params)
    assert not report.passed
    assert any(v.kind == "variation" and v.row == 0 for v in report.violations)
    assert 0.7 / 0.3 > 2.0


def test_validate_stochasticity_violation():
    A = SparseStochasticMatrix(2, [0, 0, 1], [0, 1, 1], [0.6, 0.3, 1.0])
    params = ApproxParams(L=2, k=2, gamma=2.0, eps1=0.5, eps2=0.5)
    report = validate(A, params)
    assert not report.passed
    assert any(v.kind == "row_sum" and v.row == 0 for v in report.violations)


def test_validate_reports_col_bound():
    A = SparseStochasticMatrix(3, [0, 1, 2], [0, 0, 0], [1.0, 1.0, 1.0])
    params = ApproxParams(L=3, k=1, gamma=1.0, eps1=0.5, eps2=0.5)
    report = validate(A, params)
    assert any(v.kind == "col_nnz" for v in report.violations)
    assert [v.col for v in report.violations if v.kind == "col_nnz"] == [0]


def test_validate_never_mutates():
    A = SparseStochasticMatrix(2, [0, 1], [0, 1], [1.0, 1.0])
    before = (A.rows.copy(), A.cols.copy(), A.vals.copy())
    validate(A, ApproxParams(L=2, k=1, gamma=1.0, eps1=0.5, eps2=0.5))
    assert np.array_equal(A.rows, before[0])
    assert np.array_equal(A.cols, before[1])
    assert np.array_equal(A.vals, before[2])


# ------------------------------------------------------------------ file IO


def test_coo_round_trip_exact(tmp_path):
    params = ApproxParams(L=16, k=2, gamma=2.0, eps1=0.5, eps2=0.5)
    A = generate(params, seed=11)
    path = tmp_path / "a.coo"
    write_coo(A, path)
    B = read_coo(path)
    assert B.L == A.L and B.k == A.k and B.gamma == A.gamma and B.causal == A.causal
    assert np.array_equal(A.rows, B.rows)
    assert np.array_equal(A.cols, B.cols)
    assert np.array_equal(A.vals, B.vals)  # bitwise, via 17 significant digits


def test_coo_duplicate_coordinate_rejected(tmp_path):
    path = tmp_path / "dup.coo"
    path.write_text("2 1 1 0\n0 0 0.5\n0 0 0.5\n1 1 1.0\n")
    with pytest.raises(MatrixError, match=f"^{re.escape(str(path))}: .*duplicate"):
        read_coo(path)


def test_coo_causal_violation_rejected(tmp_path):
    path = tmp_path / "causal.coo"
    path.write_text("2 1 1 1\n0 1 1.0\n1 1 1.0\n")
    with pytest.raises(MatrixError, match=f"^{re.escape(str(path))}: .*diagonal"):
        read_coo(path)


@pytest.mark.parametrize(
    "content",
    ["", "2 1 1\n", "2 1 1 2\n0 0 1.0\n", "x 1 1 0\n", "2 1 1 0\n0 0\n", "2 1 1 0\n0 5 1.0\n"],
)
def test_coo_malformed_rejected(tmp_path, content):
    path = tmp_path / "bad.coo"
    path.write_text(content)
    with pytest.raises(MatrixError, match=f"^{re.escape(str(path))}:"):
        read_coo(path)


@pytest.mark.parametrize(
    "content, message",
    [
        ("0 1 1.0 0\n", ": header requires L >= 1 and k >= 1"),
        ("2 1 1 0\n0 x 1.0\n", ":2: unparsable entry '0 x 1.0'"),
        # Blank lines are skipped but counted: the bad entry is on line 5.
        ("2 1 1.0 0\n\n0 0 1.0\n\n1 x 1.0\n", ":5: unparsable entry '1 x 1.0'"),
        ("2 1 1 0\n0 0 1.0\n2 1 1.0\n", ": row index out of range"),
        ("2 1 1 0\n0 0 1.0\n1 2 1.0\n", ": column index out of range"),
        ("2 1 1 0\n0 0 0\n1 1 1.0\n", ": entries must be positive (zeros are implicit)"),
        ("2 1 1 0\n0 0 nan\n1 1 1.0\n", ": entries must be finite"),
        ("2 1 1 0\n0 0 inf\n1 1 1.0\n", ": entries must be finite"),
    ],
    ids=["zero_L", "entry", "blank_lines", "row", "column", "zero_value", "nan_value",
         "inf_value"],
)
def test_coo_refusal_names_the_file_and_the_fault(tmp_path, content, message):
    path = tmp_path / "bad.coo"
    path.write_text(content)
    with pytest.raises(MatrixError, match=f"^{re.escape(str(path) + message)}$"):
        read_coo(path)


def test_matrix_rejects_no_length_and_unequal_arrays():
    with pytest.raises(MatrixError, match=r"^L must be >= 1, got 0$"):
        SparseStochasticMatrix(0, [], [], [])
    with pytest.raises(MatrixError, match="^rows, cols, vals must have equal length$"):
        SparseStochasticMatrix(2, [0, 1], [0, 1], [1.0])


def test_coo_line_endings_are_lf(tmp_path):
    path = tmp_path / "a.coo"
    write_coo(identity_matrix(3), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
