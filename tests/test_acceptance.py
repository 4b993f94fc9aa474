"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 3 runs a reduced sweep (L in {64, 128, 256}) by default;
set ``SPARSEATTN_FULL_ACCEPTANCE=1`` for the full grid
(L in {128, 256, 512, 1024}; allow a couple of hours).
"""

import itertools
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
from conftest import check_direct

from sparseattn._seeds import derive_seed
from sparseattn.attention import csam, logits, sam
from sparseattn.concentration import (
    MODE_IID,
    MODE_ORTHOGONAL,
    JltParams,
    estimate_errors,
    run_bench,
)
from sparseattn.construct import assemble, build_log_gap, compress, sample_stiefel, svd_factor
from sparseattn.matrices import ApproxParams, generate
from sparseattn.render import pooled_pixels
from sparseattn.sweep import (
    SweepConfig,
    SweepRecord,
    log_fit,
    run_sweep,
    search_width,
    theoretical_d,
)
from sparseattn.verify import check_conditions

FULL = os.environ.get("SPARSEATTN_FULL_ACCEPTANCE", "") == "1"


def _verdict(number, name, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"criterion {number:2d} ({name}): {status}")
    assert not violations, violations[:5]


def exact_projection_cases():
    grid = list(
        itertools.product((8, 32, 128), (1, 2), (1.0, 2.0), (0.1, 0.5), (0.5, 1.41))
    )
    # 48 parameter combinations, cycled with fresh seeds to reach 50 draws.
    for index in range(50):
        L, k, gamma, eps1, eps2 = grid[index % len(grid)]
        yield index, ApproxParams(L=L, k=k, gamma=gamma, eps1=eps1, eps2=eps2)


def run_exact_projection(params, A):
    gap = build_log_gap(A, params.eps1, params.eps2)
    V = svd_factor(gap)
    d = 2 * A.L
    y = sample_stiefel(A.L, A.L, derive_seed(1234, A.L, d))
    inputs = assemble(compress(gap, V, y, d))
    z = logits(inputs)
    report = check_conditions(z, A, params.eps1, params.eps2)
    gap_error = float(np.abs(z - gap).max())
    return z, report, gap_error


def test_criterion_01_exact_projection_pass():
    violations = []
    for index, params in exact_projection_cases():
        A = generate(params, seed=derive_seed(100, index))
        _, report, gap_error = run_exact_projection(params, A)
        if gap_error >= 1e-8:
            violations.append(f"case {index}: logits off by {gap_error:.2e}")
        if not report.passed:
            violations.append(f"case {index}: report failed {report.first_violation}")
    _verdict(1, "exact-projection pass", violations)


def test_criterion_02_fig3_reproduction():
    params = ApproxParams(L=512, k=1, gamma=1.0, eps1=0.15, eps2=1.41)
    d, q = 300, 1.0
    master_seeds = (101, 202, 303)
    violations = []
    best = None
    for ms in master_seeds:
        A = generate(params, seed=derive_seed(ms, 0))
        V = svd_factor(build_log_gap(A, params.eps1, params.eps2))
        passing, _, z, _ = search_width(
            V, A, d, int(round(q * 512)), ms, params.eps1, params.eps2
        )
        if passing is not None:
            best = (A, sam(z), ms, passing)
            break
    if best is None:
        violations.append("no master seed produced a passing matrix in 512 redraws")
    else:
        A, m, ms, t = best
        pix_a = pooled_pixels(A.to_dense(), pool=8, clip=0.05)
        pix_m = pooled_pixels(m, pool=8, clip=0.05)
        assert pix_m.shape == (64, 64)
        # Per pooled row, the attention map's brightest block must be one of
        # the target's brightest blocks (the target image ties at 255 across
        # every block holding a nonzero, so set-valued argmax agreement is
        # the well-defined reading).
        bright = pix_m.argmax(axis=1)
        agree = np.mean(pix_a[np.arange(64), bright] == pix_a.max(axis=1))
        if agree < 0.95:
            violations.append(f"pooled argmax agreement {agree:.3f} < 0.95")
        print(f"  fig3: master seed {ms} passed at redraw {t}, argmax agreement {agree:.3f}")
    _verdict(2, "fig3 reproduction", violations)


# (L, trial, d_min, redraws_used) of the smoke sweep at master seed 2024.
SMOKE_RECORDS_2024 = [
    (64, 0, 98, 194), (64, 1, 98, 193), (64, 2, 98, 198),
    (128, 0, 156, 774), (128, 1, 156, 772), (128, 2, 156, 774),
    (256, 0, 214, 2312), (256, 1, 214, 2487), (256, 2, 214, 2324),
]


def test_criterion_03_logarithmic_growth():
    l_grid = [128, 256, 512, 1024] if FULL else [64, 128, 256]
    params = ApproxParams(L=max(l_grid), k=1, gamma=1.0, eps1=0.15, eps2=1.41)
    cfg = SweepConfig(
        params=params, L_grid=l_grid, d_lower=40, d_upper=600, d_points=30,
        q=1.0, trials_per_L=3, master_seed=2024,
    )
    records = run_sweep(cfg)
    violations = []
    if not FULL:
        # The smoke sweep is the benchmark's sweep_growth at seed 2024; its
        # records must not move when the redraw loop is optimized.
        got = [(r.L, r.trial, r.d_min, r.redraws_used) for r in records]
        if got != SMOKE_RECORDS_2024:
            violations.append(f"records {got} differ from {SMOKE_RECORDS_2024}")
    found = [r for r in records if r.d_min is not None]
    if len({r.L for r in found}) < 2:
        violations.append("not enough found widths to fit")
    else:
        a, b, r2 = log_fit(records)
        print(f"  growth fit ({'full' if FULL else 'smoke'}): "
              f"d_min = {a:.1f} + {b:.1f} log L, r2 = {r2:.3f}")
        if b <= 0:
            violations.append(f"slope b = {b:.3f} not positive")
        if r2 < 0.8:
            violations.append(f"r2 = {r2:.3f} < 0.8")
    for r in found:
        if not r.d_min < r.theoretical_d:
            violations.append(f"L={r.L} trial={r.trial}: d_min {r.d_min} "
                              f">= bound {r.theoretical_d:.0f}")
    _verdict(3, "logarithmic growth", violations)


def test_smoke_records_match_the_benchmark_expected_csv():
    # The benchmark pins the same sweep as its sweep_growth output at seed
    # 2024; a re-baseline must move both copies together.
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected"
    rows = (expected / "sweep_growth-seed2024.csv").read_text(encoding="utf-8").splitlines()[1:]
    pinned = [SweepRecord.from_csv_row(row) for row in rows if row.strip()]
    assert [(r.L, r.trial, r.d_min, r.redraws_used) for r in pinned] == SMOKE_RECORDS_2024


def test_criterion_04_q_insensitivity():
    params = ApproxParams(L=256, k=1, gamma=1.0, eps1=0.15, eps2=1.41)
    cfg = SweepConfig(
        params=params, L_grid=[256], d_lower=40, d_upper=600, d_points=30,
        q=1.0, trials_per_L=3, master_seed=77,
    )
    records = [r for q in (0.1, 1.0, 5.0) for r in run_sweep(replace(cfg, q=q))]
    grid = cfg.d_grid()
    violations = []
    medians = {}
    for q in (0.1, 1.0, 5.0):
        widths = [r.d_min for r in records if r.q == q]
        if any(w is None for w in widths):
            violations.append(f"q={q}: some trial found no width")
            continue
        medians[q] = int(np.median(widths))
    if not violations:
        indices = {q: grid.index(m) for q, m in medians.items()}
        spread = max(indices.values()) - min(indices.values())
        print(f"  per-q median widths: {medians} (grid-step spread {spread})")
        if spread > 2:
            violations.append(f"median spread {spread} grid steps > 2")
    _verdict(4, "q insensitivity", violations)


def test_criterion_05_theoretical_bound_evaluator():
    params = ApproxParams(L=512, k=1, gamma=1.0, eps1=0.15, eps2=1.41)
    # Independent hand computation of the bound.
    margin = max(math.log(1.0) - math.log(0.15) + 1.41, 1.0)
    by_hand = (
        32.0 * 1.41**-2 * 1**2 * margin**2
        * (2.0 * math.log(512.0) + math.log(511.0) + math.log(2.0))
    )
    got = theoretical_d(params, 512)
    violations = []
    if not math.isclose(got, by_hand, rel_tol=1e-9):
        violations.append(f"evaluator {got!r} != hand value {by_hand!r}")
    if not math.isclose(got, 3.42e3, rel_tol=5e-3):
        violations.append(f"value {got:.4g} not near 3.42e3")
    _verdict(5, "theoretical bound evaluator", violations)


def test_criterion_06_spectral_bound():
    combos = list(itertools.product(
        (16, 32, 64), (1, 2, 3), (1.0, 2.0, 4.0), (0.1, 0.3, 0.6), (0.3, 0.9, 1.2)
    ))
    violations = []
    for index in range(100):
        L, k, gamma, eps1, eps2 = combos[index % len(combos)]
        params = ApproxParams(L=L, k=k, gamma=gamma, eps1=eps1, eps2=eps2)
        A = generate(params, seed=derive_seed(600, index))
        cap = k * max(math.log(gamma / eps1) + eps2, 1.0)
        sigma1 = float(np.linalg.norm(build_log_gap(A, eps1, eps2), 2))
        # The bound is attained with equality for gamma = 1 targets whose
        # rows and columns all carry exactly k nonzeros, so the computed
        # singular value may sit an ulp above; compare at roundoff scale.
        if sigma1 > cap * (1.0 + 1e-12):
            violations.append(f"case {index}: sigma1 {sigma1!r} > cap {cap!r}")
    _verdict(6, "spectral bound", violations)


def test_criterion_07_unbiasedness():
    # Each sample is the logits the redraw search forms for one redraw,
    # s^2 (B V) G C^-1 G^T V^T at L=32, d=8; a single-redraw
    # search evaluates its only redraw in full.
    params = ApproxParams(L=32, k=2, gamma=2.0, eps1=0.15, eps2=0.7)
    A = generate(params, seed=7)
    gap = build_log_gap(A, params.eps1, params.eps2)
    V = svd_factor(gap)
    n, d = 2000, 8
    samples = np.empty((n, 32, 32))
    for t in range(n):
        _, _, samples[t], _ = search_width(
            V, A, d, 1, derive_seed(700, t), params.eps1, params.eps2
        )
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(n)
    inside = np.abs(mean - gap) <= 3.0 * se
    frac = float(np.mean(inside))
    print(f"  unbiasedness: {frac:.4f} of entries within 3 SE")
    violations = [] if frac >= 0.99 else [f"only {frac:.4f} of entries within 3 SE"]
    _verdict(7, "unbiasedness", violations)


def test_criterion_08_oracle_equivalence():
    violations = []
    disagreements = 0
    failures_seen = 0
    for index in range(200):
        params = ApproxParams(L=8, k=2, gamma=2.0, eps1=0.15, eps2=0.7)
        A = generate(params, seed=derive_seed(800, index))
        rng = np.random.default_rng(derive_seed(801, index))
        scale = rng.choice([0.3, 1.0, 3.0])
        z = rng.normal(0.0, scale, (8, 8))
        log_report = check_conditions(z, A, params.eps1, params.eps2)
        direct_report = check_direct(sam(z), A, params.eps1, params.eps2)
        if log_report.passed != direct_report.passed:
            disagreements += 1
            violations.append(f"case {index}: passed mismatch")
        if not log_report.passed:
            failures_seen += 1
            if log_report.first_violation != direct_report.first_violation:
                disagreements += 1
                violations.append(
                    f"case {index}: triple mismatch "
                    f"{log_report.first_violation} vs {direct_report.first_violation}"
                )
    print(f"  oracle equivalence: {failures_seen} failing instances, "
          f"{disagreements} disagreements")
    if failures_seen == 0:
        violations.append("no failing instances generated; triple check vacuous")
    _verdict(8, "oracle equivalence", violations)


def test_criterion_09_concentration_bench():
    n = 10_000
    rows = run_bench(n_samples=n, seed=900)
    violations = []
    for row in rows:
        bound = row.theoretical_tail
        if bound >= 1.0:
            continue  # vacuous bound; any frequency satisfies it
        slack = 3.0 * math.sqrt(bound * (1.0 - bound) / n)
        if row.empirical_tail > bound + slack:
            violations.append(
                f"(p={row.p}, m={row.m}, eps={row.epsilon}, {row.mode}): "
                f"{row.empirical_tail:.4f} > {bound:.4f} + {slack:.4f}"
            )
    # Paired squared-error comparison on the same per-sample seeds.
    n_mse = 2500
    for p in (128, 256):
        rng = np.random.default_rng(derive_seed(900, p))
        x = rng.standard_normal(p)
        y = rng.standard_normal(p)
        for m in (8, 16, 32, 64):
            base = derive_seed(901, p, m)
            err = {}
            for mode in (MODE_ORTHOGONAL, MODE_IID):
                params = JltParams(p=p, m=m, mode=mode, n_samples=n_mse)
                err[mode] = estimate_errors(x, y, params, seed=base)
            diff = err[MODE_ORTHOGONAL] ** 2 - err[MODE_IID] ** 2
            se = diff.std(ddof=1) / math.sqrt(n_mse)
            if diff.mean() > 3.0 * se:
                violations.append(
                    f"(p={p}, m={m}): orthogonal MSE exceeds iid by "
                    f"{diff.mean():.3e} (3 SE = {3 * se:.3e})"
                )
    _verdict(9, "concentration bench", violations)


def test_criterion_10_causal_variant():
    violations = []
    for index, params in exact_projection_cases():
        causal_params = replace(params, causal=True)
        # At k=1 the draw is the identity, the only valid causal target.
        A = generate(causal_params, seed=derive_seed(1000, index))
        z, report, gap_error = run_exact_projection(causal_params, A)
        if gap_error >= 1e-8:
            violations.append(f"case {index}: logits off by {gap_error:.2e}")
        if not report.passed:
            violations.append(f"case {index}: report failed {report.first_violation}")
        m = csam(z)
        if not np.allclose(m.sum(axis=1), 1.0, atol=1e-12):
            violations.append(f"case {index}: causal attention rows not stochastic")
        upper = np.triu_indices(causal_params.L, k=1)
        if np.any(m[upper] != 0.0):
            violations.append(f"case {index}: support above the diagonal")
        direct = check_direct(m, A, causal_params.eps1, causal_params.eps2)
        if not direct.passed:
            violations.append(f"case {index}: direct causal check failed")
    _verdict(10, "causal variant", violations)
