"""Tail benchmark tests for orthogonal vs. independent projections."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import reference_project_pair
from sparseattn import concentration, construct
from sparseattn._seeds import derive_seed
from sparseattn.concentration import (
    MODE_IID,
    MODE_ORTHOGONAL,
    JltParams,
    estimate_errors,
    project_pair,
    run_bench,
    theoretical_tail,
)
from sparseattn.construct import sample_stiefel


def unit_vectors(p, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(p)
    y = rng.standard_normal(p)
    return x, y


# ------------------------------------------------------------------ estimator


def test_full_dimension_orthogonal_is_exact():
    p = 32
    x, y = unit_vectors(p, seed=1)
    params = JltParams(p=p, m=p, mode=MODE_ORTHOGONAL)
    for seed in range(5):
        est = project_pair(x, y, params, seed)
        assert est == pytest.approx(float(x @ y), abs=1e-10)


def test_orthogonal_estimator_unbiased_on_orthogonal_pair():
    # Monte Carlo oracle: mean estimate of a zero dot product is zero
    # within three standard errors.
    p, n = 16, 2000
    x = np.zeros(p)
    y = np.zeros(p)
    x[0] = 1.0
    y[1] = 1.0
    params = JltParams(p=p, m=4, mode=MODE_ORTHOGONAL)
    samples = np.array([project_pair(x, y, params, s) for s in range(n)])
    se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(samples.mean()) <= 3.0 * se


def test_self_estimate_is_nonnegative():
    p = 24
    x, _ = unit_vectors(p, seed=2)
    for mode in (MODE_ORTHOGONAL, MODE_IID):
        params = JltParams(p=p, m=6, mode=mode)
        for seed in range(20):
            assert project_pair(x, x, params, seed) >= 0.0


dims = st.integers(2, 300).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p)))


@settings(max_examples=60, deadline=None)
@given(
    pm=dims,
    mode=st.sampled_from([MODE_ORTHOGONAL, MODE_IID]),
    seed=st.integers(0, 2**32),
)
@example(pm=(64, 32), mode=MODE_ORTHOGONAL, seed=7)  # 2m = p
@example(pm=(63, 32), mode=MODE_ORTHOGONAL, seed=7)  # 2m = p + 1
@example(pm=(300, 150), mode=MODE_ORTHOGONAL, seed=1)
@example(pm=(299, 150), mode=MODE_ORTHOGONAL, seed=1)
@example(pm=(64, 63), mode=MODE_ORTHOGONAL, seed=7)  # m = p - 1: kappa(C) is largest
# Draws with kappa(C) near 1e7, where one Gram solve alone misses the bound
# (1.0e-12 of ||x|| ||y|| with one BLAS thread, and 5.0e-12) and the
# seminormal step is needed.
@example(pm=(254, 253), mode=MODE_ORTHOGONAL, seed=4076755860)
@example(pm=(152, 151), mode=MODE_ORTHOGONAL, seed=1613619391)
@example(pm=(16, 16), mode=MODE_ORTHOGONAL, seed=7)  # m = p: the identity
def test_project_pair_matches_explicit_projection(pm, mode, seed):
    p, m = pm
    x, y = unit_vectors(p, seed=seed % 1000)
    params = JltParams(p=p, m=m, mode=mode)
    got = project_pair(x, y, params, seed)
    want = reference_project_pair(x, y, params, seed)
    if mode == MODE_IID:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (8, 4), (8, 5), (9, 4), (9, 5), (16, 16)])
def test_orthogonal_samples_never_call_sample_stiefel(p, m, monkeypatch):
    calls = []

    def counting_stiefel(*args):
        calls.append(args)
        return sample_stiefel(*args)

    monkeypatch.setattr(construct, "sample_stiefel", counting_stiefel)
    x, y = unit_vectors(p, seed=8)
    params = JltParams(p=p, m=m, mode=MODE_ORTHOGONAL, n_samples=6)
    assert len(estimate_errors(x, y, params, seed=2)) == params.n_samples
    assert calls == []


def test_dimension_mismatch_rejected():
    params = JltParams(p=8, m=4)
    with pytest.raises(ValueError):
        project_pair(np.ones(7), np.ones(8), params, 0)


# ------------------------------------------------------------------- bounds


def test_theoretical_tail_values():
    # Direct evaluation: m eps^2 / 8 = 1 at (m=32, eps=0.5).
    orth = theoretical_tail(128, 32, 0.5, MODE_ORTHOGONAL)
    iid = theoretical_tail(128, 32, 0.5, MODE_IID)
    assert orth == pytest.approx((2 - 2 / 130) * math.exp(-1.0), rel=1e-12)
    assert iid == pytest.approx(2 * math.exp(-1.0), rel=1e-12)
    assert orth == pytest.approx(0.7301, abs=2e-4)
    assert iid == pytest.approx(0.7358, abs=1e-4)


@pytest.mark.parametrize("p", [4, 128, 1024])
@pytest.mark.parametrize("m", [2, 16])
@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_orthogonal_bound_strictly_smaller(p, m, eps):
    orth = theoretical_tail(p, m, eps, MODE_ORTHOGONAL)
    iid = theoretical_tail(p, m, eps, MODE_IID)
    assert orth < iid
    assert orth / iid == pytest.approx(1 - 1 / (p + 2), rel=1e-12)


def test_theoretical_tail_rejects_unknown_mode():
    with pytest.raises(ValueError):
        theoretical_tail(8, 4, 0.5, "haar")


# -------------------------------------------------------------------- tails


def empirical_tail(x, y, params, eps, seed):
    """Frequency of |estimate - x.y| >= eps ||x|| ||y||, as run_bench counts it."""
    errors = np.abs(estimate_errors(x, y, params, seed=seed))
    return float(np.mean(errors >= eps * float(np.linalg.norm(x) * np.linalg.norm(y))))


def test_tail_zero_at_full_dimension():
    p = 16
    x, y = unit_vectors(p, seed=3)
    params = JltParams(p=p, m=p, mode=MODE_ORTHOGONAL, n_samples=200)
    assert empirical_tail(x, y, params, 0.25, seed=5) == 0.0


def test_tail_small_for_wide_epsilon():
    p = 64
    x = np.zeros(p)
    y = np.zeros(p)
    x[0] = 1.0
    y[1] = 1.0
    params = JltParams(p=p, m=32, mode=MODE_ORTHOGONAL, n_samples=2000)
    emp = empirical_tail(x, y, params, 0.9, seed=1)
    bound = theoretical_tail(p, 32, 0.9, MODE_ORTHOGONAL)
    se = math.sqrt(bound * (1 - bound) / 2000)
    assert emp <= bound + 3 * se


def test_tail_nonincreasing_in_m_aggregate():
    # More projections concentrate harder; allow 3 SE of slack per step.
    p, n = 64, 1500
    x, y = unit_vectors(p, seed=4)
    tails = []
    for m in (4, 16, 64):
        params = JltParams(p=p, m=m, mode=MODE_ORTHOGONAL, n_samples=n)
        tails.append(empirical_tail(x, y, params, 0.5, seed=m))
    slack = 3.0 * math.sqrt(0.25 / n)
    assert tails[1] <= tails[0] + slack
    assert tails[2] <= tails[1] + slack


def test_estimate_errors_deterministic_and_per_sample_seeded():
    p = 12
    x, y = unit_vectors(p, seed=6)
    params = JltParams(p=p, m=4, mode=MODE_IID, n_samples=8)
    e1 = estimate_errors(x, y, params, seed=3)
    e2 = estimate_errors(x, y, params, seed=3)
    np.testing.assert_array_equal(e1, e2)
    # Sample t depends only on derive_seed(seed, t), not on batch position.
    single = JltParams(p=p, m=4, mode=MODE_IID, n_samples=1)
    exact = float(x @ y)
    for t in range(8):
        est = project_pair(x, y, single, derive_seed(3, t))
        assert e1[t] == pytest.approx(est - exact, abs=0)


# ------------------------------------------------------------------- bench


def test_run_bench_grid_cardinality_and_bounds():
    rows = run_bench(
        p_values=(16, 32),
        m_values=(4, 8),
        eps_values=(0.3, 0.6),
        n_samples=400,
        seed=12,
    )
    assert len(rows) == 2 * 2 * 2 * 2
    for row in rows:
        assert 0.0 <= row.empirical_tail <= 1.0
        want = theoretical_tail(row.p, row.m, row.epsilon, row.mode)
        assert row.theoretical_tail == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "grid",
    [
        dict(eps_values=(0.5, 1.5, -2.0)),  # only a later epsilon is bad
        dict(eps_values=(1.5, 0.5)),
        dict(eps_values=(0.5, 1.0)),
        dict(p_values=(16, 4)),  # m=8 exceeds only the second p
        dict(m_values=(4, 0)),
        dict(n_samples=0),
        dict(p_values=()),
        dict(m_values=()),
        dict(eps_values=()),
    ],
    ids=["later-eps", "first-eps", "eps-one", "m-above-second-p", "m-zero",
         "no-samples", "empty-p", "empty-m", "empty-eps"],
)
def test_run_bench_validates_the_whole_grid_before_drawing(grid, monkeypatch):
    draws = []
    monkeypatch.setattr(
        concentration, "estimate_errors", lambda *args, **kwargs: draws.append(args)
    )
    kwargs = dict(p_values=(16,), m_values=(8,), eps_values=(0.5,), n_samples=5)
    with pytest.raises(ValueError):
        run_bench(**{**kwargs, **grid})
    assert draws == []


def test_params_validation():
    with pytest.raises(ValueError):
        JltParams(p=8, m=9)
    with pytest.raises(ValueError):
        JltParams(p=8, m=4, mode="other")
    with pytest.raises(ValueError):
        JltParams(p=8, m=4, n_samples=0)
