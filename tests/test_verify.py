"""Ratio-condition verifier tests, including the naive-enumeration oracle."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import check_direct, circle_witness, moment_witness, reference_row_margins
from sparseattn import verify
from sparseattn.attention import csam, sam
from sparseattn.construct import build_log_gap, compress, sample_stiefel, svd_factor
from sparseattn.matrices import ApproxParams, MatrixError, SparseStochasticMatrix, generate
from sparseattn.sweep import row_blocks, search_width
from sparseattn.verify import (
    BLOCK_ROWS,
    ApproxReport,
    VerificationError,
    check_conditions,
    row_margins,
)


def naive_log_check(z, A, eps1, eps2):
    """Independent oracle: full O(L^3) triple enumeration in the log domain,
    in the target's own mode and the documented scan order (rows, then
    zero/nonzero pairs, then nonzero pairs, lexicographic)."""
    dense = A.to_dense()
    L = A.L
    log_eps1 = math.log(eps1)
    worst_zero, worst_dev = -math.inf, -math.inf
    n_triples = 0
    first = None
    for i in range(L):
        limit = i + 1 if A.causal else L
        nz = [j for j in range(limit) if dense[i, j] != 0.0]
        zeros = [j for j in range(limit) if dense[i, j] == 0.0]
        row_first = None
        for j1 in zeros:
            for j2 in nz:
                n_triples += 1
                diff = z[i, j1] - z[i, j2]
                worst_zero = max(worst_zero, diff)
                if diff >= log_eps1 and row_first is None:
                    row_first = (i, j1, j2, "zero_ratio")
        for j1 in nz:
            for j2 in nz:
                if j1 == j2:
                    continue
                n_triples += 1
                dev = abs(
                    z[i, j1] - z[i, j2] - math.log(dense[i, j1]) + math.log(dense[i, j2])
                )
                worst_dev = max(worst_dev, dev)
                if dev >= eps2 and row_first is None:
                    row_first = (i, j1, j2, "nonzero_dev")
        if first is None and row_first is not None:
            first = row_first
    passed = worst_zero < log_eps1 and worst_dev < eps2
    return passed, worst_zero, worst_dev, n_triples, first


def random_instance(L, k, gamma, seed, causal=False):
    params = ApproxParams(L=L, k=k, gamma=gamma, eps1=0.15, eps2=0.7, causal=causal)
    A = generate(params, seed)
    rng = np.random.default_rng(seed + 1)
    z = rng.uniform(-4.0, 4.0, (L, L))
    return A, z


# --------------------------------------------------------- exact projections


def exact_logit_instance(L=12, k=2, gamma=2.0, seed=5, causal=False):
    params = ApproxParams(L=L, k=k, gamma=gamma, eps1=0.15, eps2=0.7, causal=causal)
    A = generate(params, seed)
    gap = build_log_gap(A, params.eps1, params.eps2)
    return params, A, gap


def test_exact_logits_pass_with_margin():
    params, A, gap = exact_logit_instance()
    report = check_conditions(gap, A, params.eps1, params.eps2)
    assert report.passed
    # Substituting the log-gap definition leaves at least eps2 of headroom.
    assert report.worst_zero_ratio_log <= math.log(params.eps1) - params.eps2 + 1e-12
    assert report.worst_nonzero_dev < 1e-10
    assert report.first_violation is None


def test_row_constant_shifts_do_not_change_report():
    # Integer logits and integer shifts keep float addition exact, so the
    # reports must match field for field.
    rng = np.random.default_rng(0)
    A, _ = random_instance(8, 2, 2.0, seed=3)
    z = rng.integers(-8, 9, size=(8, 8)).astype(np.float64)
    shifted = z + np.array([[3.0], [1.0], [-5.0], [0.0], [2.0], [7.0], [-1.0], [4.0]])
    r1 = check_conditions(z, A, 0.15, 0.7)
    r2 = check_conditions(shifted, A, 0.15, 0.7)
    assert r1.passed == r2.passed
    assert r1.worst_zero_ratio_log == r2.worst_zero_ratio_log
    assert r1.worst_nonzero_dev == r2.worst_nonzero_dev
    assert r1.first_violation == r2.first_violation
    assert r1.n_triples_checked == r2.n_triples_checked


def test_exact_projection_pass_through_pipeline():
    for seed in range(5):
        params = ApproxParams(L=16, k=2, gamma=2.0, eps1=0.2, eps2=0.6)
        A = generate(params, seed)
        gap = build_log_gap(A, params.eps1, params.eps2)
        left, right = compress(gap, svd_factor(gap), sample_stiefel(16, 16, seed))
        z = left @ right.T
        assert check_conditions(z, A, params.eps1, params.eps2).passed


# ------------------------------------------------- shortcut vs. naive oracle


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_check_conditions_matches_naive_enumeration(seed, causal):
    A, z = random_instance(8, 2, 2.0, seed, causal=causal)
    report = check_conditions(z, A, 0.15, 0.7)
    passed, worst_zero, worst_dev, n_triples, first = naive_log_check(z, A, 0.15, 0.7)
    assert report.passed == passed
    assert report.worst_zero_ratio_log == pytest.approx(worst_zero, abs=1e-12)
    assert report.worst_nonzero_dev == pytest.approx(worst_dev, abs=1e-12)
    assert report.n_triples_checked == n_triples
    assert report.first_violation == first


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.sampled_from([0.5, 2.0, 6.0]))
def test_check_conditions_matches_naive_enumeration_hypothesis(seed, scale):
    params = ApproxParams(L=6, k=2, gamma=2.0, eps1=0.3, eps2=0.9)
    A = generate(params, seed % 10_000)
    z = np.random.default_rng(seed).normal(0.0, scale, (6, 6))
    report = check_conditions(z, A, params.eps1, params.eps2)
    passed, worst_zero, worst_dev, n_triples, first = naive_log_check(
        z, A, params.eps1, params.eps2
    )
    assert report.passed == passed
    assert report.first_violation == first
    assert report.n_triples_checked == n_triples


# ----------------------------------------------------- log vs. direct checks


# L = 63, 64, 65 and 129 put rows on both sides of the check's block edges.
@pytest.mark.parametrize("L", [8, 16, 63, 64, 65, 129])
@pytest.mark.parametrize("seed", range(10))
def test_log_and_direct_checks_agree(seed, L):
    A, z = random_instance(L, 2, 2.0, seed)
    log_report = check_conditions(z, A, 0.15, 0.7)
    direct_report = check_direct(sam(z), A, 0.15, 0.7)
    assert log_report.passed == direct_report.passed
    assert log_report.first_violation == direct_report.first_violation
    assert log_report.worst_zero_ratio_log == pytest.approx(
        direct_report.worst_zero_ratio_log, abs=1e-9
    )
    assert log_report.worst_nonzero_dev == pytest.approx(
        direct_report.worst_nonzero_dev, abs=1e-9
    )


@pytest.mark.parametrize(  # the L = 8 cases keep their seed-only ids
    "seed, L",
    [pytest.param(seed, 8, id=str(seed)) for seed in range(8)]
    + [(seed, L) for L in (63, 64, 65, 129) for seed in range(3)],
)
def test_log_and_direct_checks_agree_causal(seed, L):
    A, z = random_instance(L, 2, 2.0, seed, causal=True)
    log_report = check_conditions(z, A, 0.15, 0.7)
    direct_report = check_direct(csam(z), A, 0.15, 0.7)
    assert log_report.passed == direct_report.passed
    assert log_report.first_violation == direct_report.first_violation


def test_check_direct_handcrafted_row():
    # Row of M = [0.9, 0.1, tiny] against target [0.9, 0.1, 0]: passes iff
    # tiny/0.9 < eps1, tiny/0.1 < eps1, and 9.0 within exp(+-eps2) of 9.0.
    A = SparseStochasticMatrix(3, [0, 0, 1, 2], [0, 1, 1, 2], [0.9, 0.1, 1.0, 1.0])
    m = np.array([[0.9, 0.1, 1e-3], [0.01, 0.98, 0.01], [0.005, 0.005, 0.99]])
    ok = check_direct(m, A, 0.15, 0.5)
    assert ok.passed  # 1e-3 / 0.1 = 0.01 < 0.15
    m_bad = m.copy()
    m_bad[0, 2] = 0.02  # 0.02 / 0.1 = 0.2 >= 0.15
    bad = check_direct(m_bad, A, 0.15, 0.5)
    assert not bad.passed
    assert bad.first_violation == (0, 2, 1, "zero_ratio")


def test_direct_check_uniform_matrix_fails_condition_one():
    A = SparseStochasticMatrix(4, np.arange(4), np.arange(4), np.ones(4))
    m = np.full((4, 4), 0.25)
    report = check_direct(m, A, 0.9, 0.5)
    assert not report.passed  # zero/nonzero ratio is exactly 1
    assert report.worst_zero_ratio_log == pytest.approx(0.0, abs=1e-12)


def test_direct_check_flags_nonfinite_ratios():
    A = SparseStochasticMatrix(2, [0, 1], [0, 1], [1.0, 1.0])
    m = np.array([[0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(VerificationError, match="non-finite"):
        check_direct(m, A, 0.5, 0.5)


# ----------------------------------------------------------------- report API


def test_monotone_in_tolerances():
    for seed in range(10):
        A, z = random_instance(8, 2, 2.0, seed)
        base = check_conditions(z, A, 0.15, 0.7)
        if base.passed:
            assert check_conditions(z, A, 0.3, 1.2).passed
        relaxed = check_conditions(z, A, 0.3, 1.2)
        if not relaxed.passed:
            assert not base.passed


def test_causal_check_ignores_upper_triangle():
    # Plant a blatant violation strictly above the diagonal.  Both checks
    # take their mode from the target: a causal target does not see it, and
    # the same entries read as a non-causal target do.
    A = generate(ApproxParams(L=6, k=2, gamma=2.0, eps1=0.15, eps2=0.7, causal=True), 3)
    general = replace(A, causal=False)
    z = build_log_gap(A, 0.15, 0.7)
    z[0, 5] = 50.0
    assert check_conditions(z, A, 0.15, 0.7).passed
    assert check_direct(sam(z), A, 0.15, 0.7).passed
    assert not check_conditions(z, general, 0.15, 0.7).passed
    assert not check_direct(sam(z), general, 0.15, 0.7).passed


@pytest.mark.parametrize("causal", [False, True])
def test_target_row_without_nonzero_rejected(causal):
    # Row 1 holds no nonzero: no softmax row can approximate it, and the
    # log-gap shift has no row minimum to divide by.  Building the target
    # rejects it, so neither check nor log_gap_values ever sees one.
    with pytest.raises(MatrixError, match="row 1 has no nonzero entry"):
        SparseStochasticMatrix(3, [0, 2], [0, 2], [1.0, 1.0], causal=causal)
    with pytest.raises(MatrixError, match="row 0 has no nonzero entry"):
        SparseStochasticMatrix(3, [], [], [], causal=causal)
    A = SparseStochasticMatrix(3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0], causal=causal)
    with pytest.raises(MatrixError, match="row 2 has no nonzero entry"):
        replace(A, rows=A.rows[:2], cols=A.cols[:2], vals=A.vals[:2])


def test_report_json_round_trip():
    report = ApproxReport(
        passed=False,
        worst_zero_ratio_log=-0.25,
        worst_nonzero_dev=-math.inf,
        n_triples_checked=42,
        first_violation=(1, 2, 3, "zero_ratio"),
    )
    back = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert back == {
        "passed": False,
        "worst_zero_ratio_log": -0.25,
        "worst_nonzero_dev": None,  # no pair of its kind
        "n_triples_checked": 42,
        "first_violation": [1, 2, 3, "zero_ratio"],
    }
    payload = ApproxReport(True, -math.inf, -math.inf, 0, None).to_dict()
    assert payload["passed"] is True
    assert payload["first_violation"] is None


def test_nonfinite_logits_rejected():
    A = SparseStochasticMatrix(4, np.arange(4), np.arange(4), np.ones(4))
    z = np.full((4, 4), -10.0)
    np.fill_diagonal(z, 0.0)
    z[0, 0] = np.inf  # sam(z)[0] is all NaN
    with pytest.raises(VerificationError, match="non-finite"):
        check_conditions(z, A, 0.15, 0.7)
    # Above the diagonal a causal target's check judges nothing, finite or not.
    z[0, 0], z[0, 3] = 0.0, np.inf
    assert check_conditions(z, replace(A, causal=True), 0.15, 0.7).passed
    with pytest.raises(VerificationError, match="non-finite"):
        check_conditions(z, A, 0.15, 0.7)


def test_row_margins_screen_finiteness_by_one_sum():
    """A finite block whose sum overflows passes the screen's exact scan, a
    non-finite logit at a zero position is named, and one above a causal
    diagonal is not judged; rows 4-7 of an L=12 target, in both modes."""
    lo, hi = 4, 8
    for causal in (False, True):
        params = ApproxParams(L=12, k=2, gamma=2.0, eps1=0.15, eps2=0.7, causal=causal)
        A = generate(params, 5)
        z = np.full((12, 12), 1e308)
        z[A.rows, A.cols] = -1e308
        with np.errstate(over="ignore"):
            assert not np.isfinite(z[lo:hi].sum())
            want = reference_row_margins(z[lo:hi].copy(), A, lo)
            got = row_margins(z[lo:hi], A, lo)
        assert all(np.array_equal(w, g) for w, g in zip(want, got))

        z = np.random.default_rng(5).normal(0.0, 3.0, (12, 12))
        if causal:
            above = z.copy()
            above[5, 9] = np.inf
            got = row_margins(above[lo:hi], A, lo)
            want = reference_row_margins(z[lo:hi].copy(), A, lo)
            assert all(np.array_equal(w, g) for w, g in zip(want, got))
        j = int(np.flatnonzero(A.to_dense()[5, :6] == 0.0)[0])
        z[5, j] = -np.inf
        with pytest.raises(VerificationError) as raised:
            row_margins(z[lo:hi], A, lo)
        assert str(raised.value) == f"non-finite logit -inf at row 5, column {j}"


def test_target_holds_no_dense_array():
    # O(nnz + L): per-nonzero and per-row arrays only, no L x L mask, and a
    # row pointer that every construction, replace() included, derives anew.
    for causal in (False, True):
        A, _ = random_instance(40, 2, 2.0, seed=4, causal=causal)
        for target in (A, replace(A, causal=False), replace(A, causal=causal)):
            arrays = [v for v in vars(target).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 4  # rows, cols, vals, row_ptr
            assert all(a.ndim == 1 and a.size <= A.nnz + A.L + 1 for a in arrays)
            want = np.searchsorted(target.rows, np.arange(target.L + 1))
            assert np.array_equal(target.row_ptr, want)


def test_no_check_masks_more_than_a_block_of_rows(monkeypatch):
    """Every zero-position mask spans at most BLOCK_ROWS rows: in the check of
    an L=2048 target, and in a search redraw formed in full at L=512, whose
    blocks judge each row once."""
    sizes = []
    zero_positions = verify._zero_positions

    def recording(A, lo, hi):
        sizes.append(hi - lo)
        return zero_positions(A, lo, hi)

    monkeypatch.setattr(verify, "_zero_positions", recording)
    params = ApproxParams(L=2048, k=2, gamma=2.0, eps1=0.15, eps2=1.41)
    A = generate(params, 1)
    gap = build_log_gap(A, params.eps1, params.eps2)
    assert check_conditions(gap, A, params.eps1, params.eps2).passed
    assert sum(sizes) == 2048 and max(sizes) <= BLOCK_ROWS

    sizes.clear()
    A = generate(replace(params, L=512), 1)
    V = svd_factor(build_log_gap(A, params.eps1, params.eps2))
    search_width(V, A, 64, 1, 3, params.eps1, params.eps2)  # the last redraw: in full
    assert sum(sizes) == 512 and max(sizes) <= BLOCK_ROWS


@pytest.mark.parametrize("L", [64, 1024, 4096])
def test_width_four_fits_every_k1_target_without_a_scale_bound(L):
    """The claim's scale caveat: unbounded, width 4 fits a k = 1 target at
    any L, with max|z| the witness scale c, about 0.2 L^2."""
    params = ApproxParams(L=L, k=1, gamma=1.0, eps1=0.15, eps2=1.41)
    A = generate(params, 7)
    P, K = circle_witness(A, params.eps1)
    z = P @ K.T
    assert P.shape == K.shape == (L, 2)
    assert check_conditions(z, A, params.eps1, params.eps2).passed
    c = 2.0 * math.log(1.0 / params.eps1) / (1.0 - math.cos(2.0 * math.pi / L))
    assert np.abs(z).max() == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("L", [64, 1024, 4096])
def test_width_eight_fits_every_k2_target_without_a_scale_bound(L, causal):
    """The k = 2 scale caveat: unbounded, width 8 fits a k = 2, gamma = 2
    target at any L, in both modes, every zero position cleared by twice
    the margin condition 1 asks for."""
    params = ApproxParams(L=L, k=2, gamma=2.0, eps1=0.15, eps2=1.41, causal=causal)
    A = generate(params, 7)
    P, K = moment_witness(A, params.eps1)
    assert P.shape == K.shape == (L, 4)
    report = check_conditions(P @ K.T, A, params.eps1, params.eps2)
    assert report.passed
    assert report.worst_zero_ratio_log == pytest.approx(2.0 * math.log(params.eps1), abs=0.1)


SPECIALS = (math.nan, math.inf, -math.inf)


@settings(max_examples=150, deadline=None)
@given(
    L=st.integers(2, 80),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    causal=st.booleans(),
    ties=st.booleans(),
    placements=st.lists(
        st.tuples(st.booleans(), st.integers(0, 10**6), st.sampled_from(SPECIALS)), max_size=3
    ),
)
@example(L=49, k=3, seed=2, causal=False, ties=True, placements=[(True, 5, math.nan)])
@example(L=17, k=2, seed=3, causal=True, ties=False, placements=[(False, 7, -math.inf)])
@example(L=9, k=3, seed=3, causal=False, ties=True, placements=[])
def test_row_margins_match_the_masked_reference(L, k, seed, causal, ties, placements):
    """Bit-equal condition values, or the same error, on every block of the
    search's schedule, on the whole matrix and on three row ranges drawn from
    the seed; the logits stay untouched."""
    k = min(k, L)
    params = ApproxParams(L=L, k=k, gamma=2.0, eps1=0.15, eps2=0.7, causal=causal)
    A = generate(params, seed)
    rng = np.random.default_rng(seed)
    if ties:  # few distinct values, signed zeros among them
        z = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 2.0]), size=(L, L))
    else:
        z = rng.normal(0.0, 3.0, (L, L))
    dense = A.to_dense()
    for at_nonzero, index, value in placements:
        cells = np.argwhere((dense != 0.0) == at_nonzero)
        if len(cells):
            i, j = cells[index % len(cells)]
            z[i, j] = value
    before = z.copy()
    drawn = [tuple(sorted(map(int, rng.choice(L + 1, size=2, replace=False)))) for _ in range(3)]
    for lo, hi in [*row_blocks(L), (0, L), *drawn]:
        try:
            want = reference_row_margins(z[lo:hi].copy(), A, lo)
        except VerificationError as exc:
            # inf and -inf in one block make the finiteness screen's sum NaN.
            with pytest.raises(VerificationError) as got, np.errstate(invalid="ignore"):
                row_margins(z[lo:hi], A, lo)
            assert str(got.value) == str(exc)
        else:
            with np.errstate(invalid="ignore"):  # specials above a causal diagonal
                got = row_margins(z[lo:hi], A, lo)
            for w, g in zip(want, got):
                assert g.dtype == np.float64
                assert np.array_equal(w.view(np.uint64), g.view(np.uint64))
        assert np.array_equal(z.view(np.uint64), before.view(np.uint64))


def test_row_margins_read_only_logits():
    A, z = random_instance(20, 2, 2.0, seed=6)
    z.setflags(write=False)
    for lo, hi in row_blocks(20):
        want = reference_row_margins(z[lo:hi], A, lo)
        got = row_margins(z[lo:hi], A, lo)
        assert all(np.array_equal(w, g) for w, g in zip(want, got))


def test_shape_mismatch_rejected():
    A, _ = random_instance(8, 2, 2.0, 0)
    with pytest.raises(VerificationError):
        check_conditions(np.zeros((4, 4)), A, 0.15, 0.7)


def test_causal_generation_failureproof_instances_pass():
    # Sampler-drawn causal targets verify at exact logits under the
    # restricted triples.
    params = ApproxParams(L=8, k=2, gamma=2.0, eps1=0.2, eps2=0.6, causal=True)
    for seed in range(60):
        A = generate(params, seed)
        gap = build_log_gap(A, params.eps1, params.eps2)
        assert check_conditions(gap, A, params.eps1, params.eps2).passed
