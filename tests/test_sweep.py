"""Width-sweep harness tests: bound evaluation, search, CSV, fitting."""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import time
import uuid
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from conftest import reference_scaled_left

from sparseattn import cli, construct, sweep
from sparseattn._seeds import derive_seed
from sparseattn.construct import build_log_gap, sample_stiefel, svd_factor
from sparseattn.matrices import ApproxParams, generate, write_coo
from sparseattn.sweep import (
    SweepConfig,
    SweepRecord,
    find_dmin,
    log_fit,
    redraw_budget,
    row_blocks,
    run_sweep,
    search_width,
    theoretical_d,
)
from sparseattn.verify import VerificationError, check_conditions


def small_params(L=32):
    return ApproxParams(L=L, k=1, gamma=1.0, eps1=0.15, eps2=1.41)


def small_cfg(**overrides):
    defaults = dict(
        params=small_params(),
        L_grid=[16, 32],
        d_lower=4,
        d_upper=64,
        d_points=8,
        q=1.0,
        trials_per_L=2,
        master_seed=11,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


# ------------------------------------------------------------- width bound


def test_theoretical_d_hand_computation():
    # Independent evaluation of the bound, term by term.
    p = ApproxParams(L=512, k=1, gamma=1.0, eps1=0.15, eps2=1.41)
    margin = max(math.log(1.0) - math.log(0.15) + 1.41, 1.0)
    by_hand = (
        32.0 / 1.41**2 * 1**2 * margin**2
        * (2.0 * math.log(512) + math.log(511) + math.log(2.0))
    )
    got = theoretical_d(p, 512)
    assert got == pytest.approx(by_hand, rel=1e-12)
    assert got == pytest.approx(3.42e3, rel=5e-3)


def test_theoretical_d_margin_clamp_boundary():
    # With eps1 = exp(eps2 - 1), the max(..., 1) factor is exactly 1.
    eps2 = 0.5
    eps1 = math.exp(eps2 - 1.0)
    p = ApproxParams(L=64, k=1, gamma=1.0, eps1=eps1, eps2=eps2)
    want = 32.0 / eps2**2 * (2.0 * math.log(64) + math.log(63) + math.log(2.0))
    assert theoretical_d(p, 64) == pytest.approx(want, rel=1e-12)


def test_theoretical_d_depends_on_L_only_through_log_factor():
    p = small_params()
    for L in (64, 128, 256):
        ratio = theoretical_d(p, 2 * L) / theoretical_d(p, L)
        want = (2 * math.log(2 * L) + math.log(2 * L - 1) + math.log(2)) / (
            2 * math.log(L) + math.log(L - 1) + math.log(2)
        )
        assert ratio == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------------- d grid


def test_d_grid_default_bounds():
    cfg = small_cfg(d_lower=200, d_upper=600, d_points=30)
    grid = cfg.d_grid()
    assert len(grid) == 30
    assert grid[0] == 200 and grid[-1] == 600
    assert all(d % 2 == 0 for d in grid)
    assert grid == sorted(set(grid))


def test_d_grid_rounds_to_even_and_dedups():
    cfg = small_cfg(d_lower=3, d_upper=9, d_points=7)
    grid = cfg.d_grid()
    assert all(d % 2 == 0 for d in grid)
    assert grid == sorted(set(grid))
    assert grid[0] >= 2
    assert grid == [4, 6, 8]
    assert cfg.widths(3) == [4, 6]  # the widths a search at L=3 tries: <= 2L


# ---------------------------------------------------------------- find_dmin


def test_find_dmin_full_dimension_always_found():
    params = small_params(L=8)
    A = generate(params, seed=1)
    cfg = small_cfg(params=params, L_grid=[8], d_lower=4, d_upper=16, d_points=4)
    rec = find_dmin(A, cfg, seed=7)
    assert rec.d_min is not None
    assert rec.d_min <= 16  # the grid contains 2L = 16, which is exact


def test_find_dmin_not_found_on_tiny_grid():
    # Observed: widths 2 and 4 never satisfy the conditions at L=32 within
    # the redraw budget; the sentinel comes back with all redraws consumed.
    params = small_params(L=32)
    A = generate(params, seed=0)
    cfg = small_cfg(params=params, L_grid=[32], d_lower=2, d_upper=4, d_points=2)
    rec = find_dmin(A, cfg, seed=99)
    assert rec.d_min is None
    assert rec.redraws_used == 2 * 32  # two grid widths, round(q L) redraws each


def test_find_dmin_skips_widths_beyond_two_L():
    params = small_params(L=8)
    A = generate(params, seed=2)
    cfg = small_cfg(params=params, L_grid=[8], d_lower=18, d_upper=40, d_points=4)
    rec = find_dmin(A, cfg, seed=3)
    assert rec.d_min is None
    assert rec.redraws_used == 0  # every grid width exceeds 2L = 16


def test_find_dmin_deterministic():
    params = small_params(L=16)
    A = generate(params, seed=4)
    cfg = small_cfg(params=params, L_grid=[16], d_lower=4, d_upper=32, d_points=6)
    r1 = find_dmin(A, cfg, seed=42)
    r2 = find_dmin(A, cfg, seed=42)
    assert (r1.d_min, r1.redraws_used) == (r2.d_min, r2.redraws_used)


def reference_search(B, V, A, d, n_redraws, seed, eps1, eps2):
    """The literal redraw loop, written out: (first passing redraw, redraws used)."""
    scale = math.sqrt(2.0 * A.L / d)
    for t in range(n_redraws):
        y = sample_stiefel(A.L, d // 2, derive_seed(seed, 1, d, t))
        vy = V @ y
        z = (scale * (B @ vy)) @ (scale * vy).T
        if check_conditions(z, A, eps1, eps2).passed:
            return t, t + 1
    return None, n_redraws


def found_records_and_targets(cfg):
    for rec in run_sweep(cfg):
        if rec.d_min is None:
            continue
        yield rec, generate(replace(cfg.params, L=rec.L), derive_seed(rec.seed, 0))


def test_found_record_replays_to_a_passing_report():
    for causal in (False, True):
        params = ApproxParams(L=16, k=2, gamma=2.0, eps1=0.15, eps2=1.41, causal=causal)
        cfg = small_cfg(
            params=params, L_grid=[16], trials_per_L=2, d_lower=4, d_upper=32, d_points=6
        )
        replays = list(found_records_and_targets(cfg))
        assert replays
        for rec, A in replays:
            assert A.causal == causal
            B = build_log_gap(A, params.eps1, params.eps2)
            passing, _ = reference_search(
                B, svd_factor(B), A, rec.d_min, int(round(rec.q * rec.L)), rec.seed,
                params.eps1, params.eps2,
            )
            assert passing is not None


def test_found_record_replays_through_cli_approx(tmp_path):
    cfg = small_cfg(L_grid=[16, 32], trials_per_L=2, d_lower=4, d_upper=40, d_points=8)
    replays = list(found_records_and_targets(cfg))
    assert replays
    for rec, A in replays:
        coo, report = tmp_path / "A.coo", tmp_path / "report.json"
        write_coo(A, coo)
        code = cli.main([
            "approx", "--input", str(coo), "--d", str(rec.d_min), "--q", repr(rec.q),
            "--eps1", repr(cfg.params.eps1), "--eps2", repr(cfg.params.eps2),
            "--seed", str(rec.seed), "--report", str(report),
        ])
        payload = json.loads(report.read_text())
        assert code == 0 and payload["passed"]
        # The sweep row also counts the full budget spent at every earlier width.
        earlier = [d for d in cfg.widths(rec.L) if d < rec.d_min]
        n_redraws = redraw_budget(rec.q, rec.L)
        assert payload["redraws_used"] == rec.redraws_used - n_redraws * len(earlier)
        assert payload["redraws_used"] == payload["passing_redraw"] + 1


@settings(max_examples=40, deadline=None)
@given(
    # Up to 80 rows, so redraws reach the later row blocks (16, 32, 64 rows).
    L=st.integers(4, 80),
    half_d=st.integers(1, 80),
    n_redraws=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    causal=st.booleans(),
)
@example(L=80, half_d=30, n_redraws=4, seed=7, causal=False)
@example(L=80, half_d=30, n_redraws=4, seed=7, causal=True)
@example(L=64, half_d=32, n_redraws=4, seed=7, causal=False)  # 2h = L
@example(L=64, half_d=33, n_redraws=4, seed=7, causal=True)  # 2h = L + 2
def test_search_width_matches_reference_loop(L, half_d, n_redraws, seed, causal):
    d = 2 * min(half_d, L)
    params = ApproxParams(L=L, k=2, gamma=2.0, eps1=0.15, eps2=1.41, causal=causal)
    A = generate(params, seed)
    B = build_log_gap(A, params.eps1, params.eps2)
    V = svd_factor(B)
    passing, used, z, report = search_width(V, A, d, n_redraws, seed, params.eps1, params.eps2)
    assert (passing, used) == reference_search(
        B, V, A, d, n_redraws, seed, params.eps1, params.eps2
    )
    assert report == check_conditions(z, A, params.eps1, params.eps2)


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(2, 80),
    half_d=st.integers(1, 80),
    seed=st.integers(0, 2**32),
    causal=st.booleans(),
)
@example(L=64, half_d=32, seed=7, causal=False)  # 2h = L
@example(L=64, half_d=32, seed=7, causal=True)
@example(L=64, half_d=33, seed=7, causal=False)  # 2h = L + 2
@example(L=64, half_d=63, seed=7, causal=True)  # h = L - 1: kappa(C) is largest
# kappa(C) = 2.5e8: without the seminormal step on the keys the logits miss
# the bound by 17x.
@example(L=59, half_d=58, seed=2442602185, causal=True)
@example(L=64, half_d=64, seed=7, causal=False)  # h = L: the identity
def test_gram_route_matches_stiefel_route(L, half_d, seed, causal):
    """At every h <= L the search's logits and report match those of the
    sample_stiefel draw from the same stream."""
    h = min(half_d, L)
    d = 2 * h
    params = ApproxParams(L=L, k=2, gamma=2.0, eps1=0.15, eps2=1.41, causal=causal)
    A = generate(params, seed)
    B = build_log_gap(A, params.eps1, params.eps2)
    V = svd_factor(B)
    _, _, z, report = search_width(V, A, d, 1, seed, params.eps1, params.eps2)
    scale = math.sqrt(2.0 * L / d)
    vy = V @ sample_stiefel(L, h, derive_seed(seed, 1, d, 0))
    z_qr = (scale * (B @ vy)) @ (scale * vy).T
    tol = 1e-10 * np.abs(z_qr).max()
    assert np.abs(z - z_qr).max() <= tol
    report_qr = check_conditions(z_qr, A, params.eps1, params.eps2)
    assert (report.passed, report.first_violation, report.n_triples_checked) == (
        report_qr.passed, report_qr.first_violation, report_qr.n_triples_checked
    )
    assert report.worst_zero_ratio_log == pytest.approx(report_qr.worst_zero_ratio_log, abs=tol)
    assert report.worst_nonzero_dev == pytest.approx(report_qr.worst_nonzero_dev, abs=tol)


@pytest.mark.parametrize(
    "L, h",
    [(4, 1), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (16, 8), (16, 9), (16, 16), (64, 32),
     (64, 33), (64, 64)],
)
def test_search_width_never_calls_sample_stiefel(L, h, monkeypatch):
    calls = []

    def counting_stiefel(*args):
        calls.append(args)
        return sample_stiefel(*args)

    monkeypatch.setattr(construct, "sample_stiefel", counting_stiefel)
    params = ApproxParams(L=L, k=2, gamma=2.0, eps1=0.15, eps2=1.41)
    A = generate(params, 1)
    V = svd_factor(build_log_gap(A, params.eps1, params.eps2))
    _, used, _, _ = search_width(V, A, 2 * h, 5, 3, params.eps1, params.eps2)
    assert used >= 1 and calls == []


def same_bits(a, b):
    """Equal arrays, sign bits of zeros and NaN payloads included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("L", [64, 128, 256])
def test_gathered_rows_are_the_scaled_left_factor_bit_for_bit(L):
    """k = 1, gamma = 1 targets (those of the sweep_growth benchmark, at
    master seeds 2024 and 11) are scaled permutations, for which LAPACK's V
    is a signed identity: the search's gathered ``B V`` equals ``U * sigma``
    and ``B (V g)`` equals ``(U * sigma) g`` bit for bit, so the sweep's
    logits and CSV bytes are those of a search over ``U * sigma``."""
    params = ApproxParams(L=L, k=1, gamma=1.0, eps1=0.15, eps2=1.41)
    for master_seed in (2024, 11):
        for trial in range(3):
            A = generate(params, derive_seed(derive_seed(master_seed, L, trial), 0))
            B = build_log_gap(A, params.eps1, params.eps2)
            V = svd_factor(B)
            left = reference_scaled_left(B)
            gap = sweep.log_gap_values(A, params.eps1, params.eps2)
            assert same_bits(sweep._gap_rows(A, gap, V, 0, L, np.empty((L, L))), left)
            g = np.random.default_rng(trial).standard_normal((L, L // 4))
            gathered = sweep._gap_rows(A, gap, V @ g, 0, L, np.empty((L, L // 4)))
            assert same_bits(gathered, left @ g)


def last_row_violation_instance(monkeypatch, L=64, value=0.0):
    """A target whose log-gap values, as the search reads them, are exact but
    for the first nonzero of the last row, set to ``value``.  At d = 2L the
    logits are that log-gap matrix up to roundoff, so with ``value`` 0 the
    last row is the only one violating, first at (L - 1, j) for j its first
    zero column; with a NaN its logits are all NaN."""
    params = ApproxParams(L=L, k=2, gamma=2.0, eps1=0.15, eps2=1.41)
    A = generate(params, 3)
    j = int(np.flatnonzero(A.to_dense()[L - 1] == 0.0)[0])
    gap_values = sweep.log_gap_values

    def edited_gap_values(target, eps1, eps2):
        gap = gap_values(target, eps1, eps2)
        gap[target.row_ptr[L - 1]] = value
        return gap

    monkeypatch.setattr(sweep, "log_gap_values", edited_gap_values)
    V = svd_factor(build_log_gap(A, params.eps1, params.eps2))
    return params, A, V, j


@pytest.mark.parametrize(
    "L, blocks",
    [
        (2, [(0, 2)]),
        (4, [(0, 4)]),
        (5, [(0, 4), (4, 5)]),
        (17, [(0, 4), (4, 16), (16, 17)]),
        (64, [(0, 4), (4, 16), (16, 48), (48, 64)]),
        (256, [(0, 4), (4, 16), (16, 48), (48, 112), (112, 240), (240, 256)]),
    ],
)
def test_row_blocks_schedule(L, blocks):
    assert row_blocks(L) == blocks


# Row counts around the search's block edges (rows 0-3, 4-15, 16-47, 48-111).
BLOCK_EDGE_LENGTHS = [4, 5, 16, 17, 48, 49, 64]


@pytest.mark.parametrize("L", BLOCK_EDGE_LENGTHS)
@pytest.mark.parametrize("n_redraws", [1, 3])
def test_search_width_finds_a_violation_in_the_last_row(n_redraws, L, monkeypatch):
    params, A, V, j = last_row_violation_instance(monkeypatch, L)
    passing, used, z, report = search_width(V, A, 2 * L, n_redraws, 5, params.eps1, params.eps2)
    assert (passing, used) == (None, n_redraws)
    assert report == check_conditions(z, A, params.eps1, params.eps2)
    assert report.first_violation[:2] == (L - 1, j)
    assert report.first_violation[3] == "zero_ratio"


@pytest.mark.parametrize("L", BLOCK_EDGE_LENGTHS)
def test_search_width_rejects_nonfinite_logit_in_the_last_row(L, monkeypatch):
    params, A, V, _ = last_row_violation_instance(monkeypatch, L, value=np.nan)
    with pytest.raises(VerificationError, match=f"non-finite logit nan at row {L - 1}, column"):
        search_width(V, A, 2 * A.L, 1, 5, params.eps1, params.eps2)


def test_search_width_forms_keys_only_for_redraws_that_pass_row_47(monkeypatch):
    """The keys V G C^-1 (one inverse of C) are formed only by a redraw
    whose rows 0-47 hold no violation; the last redraw is checked in full."""
    checked = []
    inverses = []
    margins, inv = sweep.row_margins, np.linalg.inv

    def recording_margins(z_rows, target, lo):
        checked.append(lo)
        return margins(z_rows, target, lo)

    def counting_inv(c):
        inverses.append(len(checked))
        return inv(c)

    monkeypatch.setattr(sweep, "row_margins", recording_margins)
    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    params = ApproxParams(L=128, k=1, gamma=1.0, eps1=0.15, eps2=1.41)
    A = generate(params, 4)
    V = svd_factor(build_log_gap(A, params.eps1, params.eps2))
    _, used, _, _ = search_width(V, A, 120, 12, 0, params.eps1, params.eps2)
    # Split the checked blocks by redraw: each redraw starts at row 0.
    starts = [n for n, lo in enumerate(checked) if lo == 0] + [len(checked)]
    redraws = [checked[a:b] for a, b in zip(starts, starts[1:])]
    assert len(redraws) == used
    reached = [n for n, blocks in enumerate(redraws) if 48 in blocks]
    assert [sum(a <= n < b for n in inverses) for a, b in zip(starts, starts[1:])] == [
        int(r in reached) for r in range(used)
    ]
    # Observed: the earlier redraws stop in each of the first four blocks.
    assert {blocks[-1] for blocks in redraws[:-1]} == {0, 4, 16, 48}
    assert redraws[-1] == [0, 4, 16, 48, 112]


# ---------------------------------------------------------------- run_sweep


def test_run_sweep_record_cardinality():
    cfg = small_cfg(L_grid=[16, 32], trials_per_L=2)
    records = run_sweep(cfg)
    assert len(records) == 4
    assert [(r.L, r.trial) for r in records] == [(16, 0), (16, 1), (32, 0), (32, 1)]
    cfg_single = small_cfg(L_grid=[16], trials_per_L=1)
    assert len(run_sweep(cfg_single)) == 1


def test_run_sweep_theoretical_column_recomputes(tmp_path):
    cfg = small_cfg()
    for rec in run_sweep(cfg):
        params = ApproxParams(
            L=rec.L, k=cfg.params.k, gamma=cfg.params.gamma,
            eps1=cfg.params.eps1, eps2=cfg.params.eps2,
        )
        assert rec.theoretical_d == pytest.approx(theoretical_d(params, rec.L), rel=1e-9)


def test_run_sweep_resume_skips_completed_cells(tmp_path):
    cfg = small_cfg()
    full = tmp_path / "full.csv"
    records = run_sweep(cfg, csv_path=full)
    lines = full.read_text().splitlines()
    assert len(lines) == 1 + len(records)

    partial = tmp_path / "partial.csv"
    partial.write_text("\n".join(lines[:3]) + "\n")
    resumed = run_sweep(cfg, csv_path=partial)
    assert partial.read_bytes() == full.read_bytes()
    assert [(r.L, r.trial, r.d_min) for r in resumed] == [
        (r.L, r.trial, r.d_min) for r in records
    ]

    # Rerunning on the complete file adds nothing.
    before = full.read_bytes()
    run_sweep(cfg, csv_path=full)
    assert full.read_bytes() == before


_REAL_RUN_RECORD = sweep._run_record


def _record_logging_its_cell(cfg, L, trial):
    """A module-level stand-in for ``_run_record``, so spawned workers can
    unpickle it; it appends its cell to the file that ``RECORD_CALL_LOG``
    names, which the workers inherit from the test."""
    with open(os.environ["RECORD_CALL_LOG"], "a", encoding="utf-8") as fh:
        fh.write(f"{L},{trial}\n")
    return _REAL_RUN_RECORD(cfg, L, trial)


def test_run_sweep_resume_computes_only_missing_cells(tmp_path, monkeypatch):
    cfg = small_cfg(trials_per_L=3)
    full = tmp_path / "full.csv"
    run_sweep(cfg, csv_path=full)
    lines = full.read_text().splitlines()

    log = tmp_path / "calls.log"
    monkeypatch.setenv("RECORD_CALL_LOG", str(log))
    monkeypatch.setattr(sweep, "_run_record", _record_logging_its_cell)
    partial = tmp_path / "partial.csv"
    partial.write_text("\n".join(lines[:3]) + "\n")  # header, (16, 0) and (16, 1)
    run_sweep(cfg, csv_path=partial)
    assert partial.read_bytes() == full.read_bytes()
    # Each missing cell once, in whichever worker; (16, 0) and (16, 1) never.
    assert sorted(log.read_text().splitlines()) == ["16,2", "32,0", "32,1", "32,2"]


def test_run_sweep_refuses_an_unwritable_csv_before_any_record(tmp_path, monkeypatch):
    pools = []
    monkeypatch.setattr(sweep, "_record_pool", lambda n, jobs: pools.append(list(jobs)))
    with pytest.raises(OSError):
        run_sweep(small_cfg(L_grid=[16], trials_per_L=1), csv_path=tmp_path / "missing" / "r.csv")
    assert pools == []


def test_run_sweep_refuses_a_cell_held_by_two_rows(tmp_path):
    # Two rows for one (L, trial, q), as two runs appending to one file leave.
    cfg = small_cfg(L_grid=[16], trials_per_L=2, master_seed=3)
    path = tmp_path / "twice.csv"
    run_sweep(replace(cfg, trials_per_L=1), csv_path=path)
    row = path.read_text().splitlines()[1]
    path.write_text(sweep.CSV_HEADER + "\n" + row + "\n" + row + "\n")
    before = path.read_bytes()
    message = f"{path}: line 2 {row!r} and line 3 {row!r} both hold L=16, trial=0, q=1.0"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_sweep(cfg, csv_path=path)
    assert path.read_bytes() == before


def test_run_sweep_resume_after_lost_final_newline(tmp_path):
    cfg = small_cfg()
    full = tmp_path / "full.csv"
    run_sweep(cfg, csv_path=full)
    lines = full.read_text().splitlines()

    partial = tmp_path / "partial.csv"
    partial.write_text("\n".join(lines[:3]))  # the last row has no newline
    run_sweep(cfg, csv_path=partial)
    assert partial.read_bytes() == full.read_bytes()


def test_run_sweep_resume_rejects_other_tolerances(tmp_path):
    path = tmp_path / "other.csv"
    run_sweep(small_cfg(), csv_path=path)
    first_row = path.read_text().splitlines()[1]
    before = path.read_bytes()
    other = small_cfg(params=ApproxParams(L=32, k=1, gamma=1.0, eps1=0.2, eps2=1.41))
    with pytest.raises(ValueError, match=re.escape(first_row) + ".*theoretical_d"):
        run_sweep(other, csv_path=path)
    assert path.read_bytes() == before


def test_run_sweep_resume_rejects_torn_row(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "torn.csv"
    run_sweep(cfg, csv_path=path)
    lines = path.read_text().splitlines()
    torn = lines[-1][:-4]  # the seed lost its last digits
    path.write_text("\n".join(lines[:-1] + [torn]) + "\n")
    with pytest.raises(ValueError, match=re.escape(torn)):
        run_sweep(cfg, csv_path=path)


def test_run_sweep_resume_names_the_file_and_row_it_cannot_read(tmp_path):
    path = tmp_path / "unreadable.csv"
    line = "16,0,1.0,3x,1.0,4,5"
    path.write_text(sweep.CSV_HEADER + "\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: row {line!r}: invalid literal")):
        run_sweep(small_cfg(), csv_path=path)


def test_run_sweep_resume_rejects_other_master_seed(tmp_path):
    path = tmp_path / "other.csv"
    run_sweep(small_cfg(master_seed=11), csv_path=path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="does not belong to this sweep"):
        run_sweep(small_cfg(master_seed=12), csv_path=path)
    assert path.read_bytes() == before


def test_run_sweep_resume_rejects_other_d_grid(tmp_path):
    # Rows found on the grid 4..40 name widths (and redraw counts) that the
    # grid [10, 28, 46, 64] cannot produce; merging them would mix grids.
    path = tmp_path / "other.csv"
    run_sweep(small_cfg(d_lower=4, d_upper=40, d_points=10), csv_path=path)
    before = path.read_bytes()
    other = small_cfg(d_lower=10, d_upper=64, d_points=4)
    assert other.d_grid() == [10, 28, 46, 64]
    with pytest.raises(ValueError, match="does not belong to this sweep.*d-grid"):
        run_sweep(other, csv_path=path)
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "row",
    [
        "16,0,1.0,30,{bound!r},32,{seed}",  # 30 is not a grid width
        "16,0,1.0,28,{bound!r},16,{seed}",  # 28 is the second width: 17..32 redraws
        "16,0,1.0,28,{bound!r},33,{seed}",
        "16,0,1.0,-1,{bound!r},48,{seed}",  # not found needs 2 x 16 redraws
        "16,0,1.0,-1,{bound!r},0,{seed}",  # every target generates, so 0 is too few
        "32,0,1.0,64,{bound!r},96,{seed}",  # 64 <= 2L is the fourth width: 97..128
    ],
)
def test_run_sweep_resume_rejects_rows_the_d_grid_cannot_produce(tmp_path, row):
    cfg = small_cfg(d_lower=10, d_upper=64, d_points=4)  # widths 10, 28, 46, 64
    L = int(row.split(",")[0])
    line = row.format(bound=theoretical_d(cfg.params, L), seed=derive_seed(cfg.master_seed, L, 0))
    path = tmp_path / "sweep.csv"
    path.write_text(sweep.CSV_HEADER + "\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(line) + ".*d-grid"):
        run_sweep(cfg, csv_path=path)


def test_run_sweep_resume_accepts_a_row_without_redraws_when_no_width_fits(tmp_path):
    # d_lower > 2L: find_dmin tries no width, so the row spent no redraws.
    cfg = small_cfg(L_grid=[8], trials_per_L=1, d_lower=18, d_upper=40, d_points=4)
    line = f"8,0,1.0,-1,{theoretical_d(cfg.params, 8)!r},0,{derive_seed(cfg.master_seed, 8, 0)}"
    path = tmp_path / "sweep.csv"
    path.write_text(sweep.CSV_HEADER + "\n" + line + "\n")
    before = path.read_bytes()
    (record,) = run_sweep(cfg, csv_path=path)
    assert record.to_csv_row() == line
    assert path.read_bytes() == before


def test_run_sweep_resume_accepts_rows_of_every_q(tmp_path):
    # A sweep over several q holds rows of several redraw budgets; each row
    # is judged by its own q.
    cfg = small_cfg(L_grid=[16], trials_per_L=2, d_lower=4, d_upper=32, d_points=4)
    path = tmp_path / "q.csv"
    for q in (0.5, 2.0):
        run_sweep(replace(cfg, q=q), csv_path=path)
    before = path.read_bytes()
    for q in (0.5, 2.0):
        run_sweep(replace(cfg, q=q), csv_path=path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("causal", [False, True])
def test_run_sweep_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, causal):
    params = replace(small_params(), k=2, gamma=2.0, causal=True) if causal else small_params()
    cfg = small_cfg(params=params, L_grid=[16, 32], trials_per_L=3)
    outputs = {}
    for n in (1, 2, 3):
        monkeypatch.setattr(sweep, "_worker_count", lambda n_cells, n=n: n)
        fresh = tmp_path / f"fresh-{n}.csv"
        run_sweep(cfg, csv_path=fresh)
        lines = fresh.read_text().splitlines()
        resumed = tmp_path / f"resumed-{n}.csv"
        resumed.write_text("\n".join(lines[:3]) + "\n")  # header and two rows
        run_sweep(cfg, csv_path=resumed)
        outputs[n] = (fresh.read_bytes(), resumed.read_bytes())
    assert len(outputs[1][0].splitlines()) == 1 + 6
    if causal:  # every causal target generates, and its search finds a width
        rows = outputs[1][0].decode().splitlines()[1:]
        records = [SweepRecord.from_csv_row(row) for row in rows]
        assert all(r.d_min is not None and r.redraws_used > 0 for r in records)
    assert outputs[1][0] == outputs[1][1]
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def test_record_pool_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    pool, futures = sweep._record_pool(2, [(os.getenv, name) for name in names])
    try:
        seen = [f.result(timeout=60) for f in futures]
    finally:
        pool.shutdown()
    assert seen == ["1", "1", "1"]
    assert dict(os.environ) == before
    assert list(os.environ) == list(before)


def test_run_sweep_leaves_no_worker_running(monkeypatch):
    monkeypatch.setattr(sweep, "_worker_count", lambda n_cells: 2)
    run_sweep(small_cfg())
    assert multiprocessing.active_children() == []


def _record_failing_at_32_0(cfg, L, trial):
    """A module-level stand-in for ``_run_record``, so spawned workers can
    unpickle it."""
    if (L, trial) == (32, 0):
        raise ArithmeticError("record (32, 0) failed")
    return _REAL_RUN_RECORD(cfg, L, trial)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_reraises_a_record_error_at_its_grid_position(tmp_path, monkeypatch, workers):
    cfg = small_cfg(L_grid=[16, 32], trials_per_L=2)
    full = tmp_path / "full.csv"
    run_sweep(cfg, csv_path=full)
    monkeypatch.setattr(sweep, "_run_record", _record_failing_at_32_0)
    monkeypatch.setattr(sweep, "_worker_count", lambda n_cells: workers)
    path = tmp_path / "failed.csv"
    with pytest.raises(ArithmeticError, match=re.escape("record (32, 0) failed")):
        run_sweep(cfg, csv_path=path)
    # The rows before the failing cell are written; none after it.
    assert path.read_text().splitlines() == full.read_text().splitlines()[:3]
    assert multiprocessing.active_children() == []


def env_with_src(**variables):
    """The environment with ``variables`` set and this package's source first
    on ``PYTHONPATH``, for a subprocess."""
    src = str(Path(sweep.__file__).resolve().parents[1])
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli_subprocess(*argv, **variables):
    return subprocess.run(
        [sys.executable, "-m", "sparseattn.cli", *map(str, argv)],
        env=env_with_src(**variables), capture_output=True, text=True, timeout=300,
    )


def _pids_with_env_marker(marker: bytes) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/environ", "rb") as fh:
                    if marker in fh.read():
                        pids.append(int(entry))
            except OSError:
                pass
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc to find stray processes")
def test_unguarded_script_fails_naming_the_main_guard(tmp_path):
    # Spawned workers re-import the main script; without a main guard its
    # run_sweep call runs again in each worker, which breaks the pool.
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""\
        from sparseattn import ApproxParams, SweepConfig, run_sweep

        run_sweep(SweepConfig(
            params=ApproxParams(L=16, k=1, gamma=1.0, eps1=0.15, eps2=1.41),
            L_grid=[16], d_lower=4, d_upper=32, d_points=4, trials_per_L=2,
        ))
    """))
    marker = f"unguarded-{uuid.uuid4().hex}"
    try:
        proc = subprocess.run(
            [sys.executable, str(script)], env=env_with_src(UNGUARDED_SCRIPT_MARKER=marker),
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
        )
        deadline = time.monotonic() + 10
        while _pids_with_env_marker(marker.encode()) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = _pids_with_env_marker(marker.encode())
    finally:
        for pid in _pids_with_env_marker(marker.encode()):
            os.kill(pid, 9)
    assert proc.returncode != 0
    assert 'if __name__ == "__main__":' in proc.stderr
    assert proc.stdout == ""
    assert left == []


# Config A: at L=268 the right factor V of a k=2, gamma=2 target, and so
# every sample V G, differs between one and two BLAS threads.
CONFIG_A = """\
k = 2
gamma = 2.0
eps1 = 0.15
eps2 = 1.41
L_grid = 268
d_lower = 100
d_upper = 500
d_points = 11
q = 0.05
trials_per_L = 2
master_seed = 7
"""


def test_resumed_sweep_matches_a_fresh_one_at_any_caller_blas_threads(tmp_path):
    # A resume computes one record; it must run at one BLAS thread, as the
    # fresh sweep's records do, whatever threads the caller's BLAS has.
    config = tmp_path / "a.cfg"
    config.write_text(CONFIG_A)
    outputs = []
    for threads in ("1", "2"):
        fresh, resumed = tmp_path / f"fresh-{threads}.csv", tmp_path / f"resumed-{threads}.csv"
        assert run_cli_subprocess("sweep", config, "--out", fresh,
                                  OPENBLAS_NUM_THREADS=threads).returncode == 0
        resumed.write_text("\n".join(fresh.read_text().splitlines()[:2]) + "\n")  # trial 0
        assert run_cli_subprocess("sweep", config, "--out", resumed,
                                  OPENBLAS_NUM_THREADS=threads).returncode == 0
        outputs += [fresh.read_bytes(), resumed.read_bytes()]
    assert len(outputs[0].splitlines()) == 3
    assert outputs == [outputs[0]] * 4


def test_config_a_row_replays_through_cli_approx_at_one_blas_thread(tmp_path):
    config = tmp_path / "a.cfg"
    config.write_text(CONFIG_A)
    (cfg,) = cli.load_sweep_configs(config)
    rec = run_sweep(cfg)[1]
    assert rec.d_min is not None
    coo = tmp_path / "A.coo"
    write_coo(generate(replace(cfg.params, L=rec.L), derive_seed(rec.seed, 0)), coo)
    proc = run_cli_subprocess(
        "approx", "--input", coo, "--d", rec.d_min, "--q", repr(rec.q), "--seed", rec.seed,
        "--eps1", repr(cfg.params.eps1), "--eps2", repr(cfg.params.eps2),
        **dict.fromkeys(sweep.BLAS_THREAD_VARS, "1"),  # as in the README's replay command
    )
    payload = json.loads(proc.stdout)
    assert proc.returncode == 0 and payload["passed"]
    earlier = [d for d in cfg.widths(rec.L) if d < rec.d_min]
    assert payload["redraws_used"] == rec.redraws_used - redraw_budget(rec.q, rec.L) * len(earlier)


def test_csv_round_trip_not_found_sentinel():
    rec = SweepRecord(L=16, trial=1, q=0.5, d_min=None,
                      theoretical_d=123.456, redraws_used=8, seed=77)
    row = rec.to_csv_row()
    assert row.split(",")[3] == "-1"
    assert SweepRecord.from_csv_row(row) == rec


# ------------------------------------------------------------------ q sweep


def test_q_sweep_cardinality_and_tagging(tmp_path):
    # One run_sweep per q into one CSV: every (L, trial) cell once per q,
    # each record tagged with the q it ran under.
    cfg = small_cfg(L_grid=[16], trials_per_L=2, d_lower=4, d_upper=32, d_points=4)
    csv_path = tmp_path / "q.csv"
    records = [r for q in (0.5, 1.0, 2.0) for r in run_sweep(replace(cfg, q=q), csv_path=csv_path)]
    assert len(records) == 6
    assert [r.q for r in records] == [0.5] * 2 + [1.0] * 2 + [2.0] * 2
    assert len(csv_path.read_text().splitlines()) == 7  # header + six rows


def test_sweeps_over_q_share_matrix_draws():
    cfg = small_cfg(L_grid=[16], trials_per_L=1, d_lower=4, d_upper=32, d_points=4)
    (low,), (high,) = (run_sweep(replace(cfg, q=q)) for q in (0.5, 2.0))
    assert low.seed == high.seed  # same (L, trial) record seed


def test_redraw_budget_rounding():
    assert redraw_budget(0.1, 512) == 51
    with pytest.raises(ValueError, match=r"q=0.1 gives round\(q \* L\) = 0 redraws at L=5"):
        redraw_budget(0.1, 5)  # round(0.5) is 0: halves round to even


# ------------------------------------------------------------------ log fit


def test_log_fit_exact_synthetic():
    records = [
        SweepRecord(L=L, trial=0, q=1.0, d_min=None, theoretical_d=1.0,
                    redraws_used=0, seed=0)
        for L in (16, 32, 64, 128)
    ]
    for r in records:
        r.d_min = 10 + 3 * math.log(r.L)
    a, b, r2 = log_fit(records)
    assert a == pytest.approx(10.0, abs=1e-9)
    assert b == pytest.approx(3.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_log_fit_constant_degenerate_convention():
    records = [
        SweepRecord(L=L, trial=0, q=1.0, d_min=40, theoretical_d=1.0,
                    redraws_used=0, seed=0)
        for L in (16, 32, 64)
    ]
    a, b, r2 = log_fit(records)
    assert b == pytest.approx(0.0, abs=1e-9)
    assert r2 == 1.0


def test_log_fit_requires_two_distinct_L():
    records = [
        SweepRecord(L=16, trial=t, q=1.0, d_min=12, theoretical_d=1.0,
                    redraws_used=0, seed=0)
        for t in range(3)
    ]
    with pytest.raises(ValueError):
        log_fit(records)
    records.append(
        SweepRecord(L=32, trial=0, q=1.0, d_min=None, theoretical_d=1.0,
                    redraws_used=0, seed=0)
    )
    with pytest.raises(ValueError):
        log_fit(records)  # the second L never produced a width


def test_causal_width_grows_with_L():
    params = ApproxParams(L=64, k=2, gamma=2.0, eps1=0.15, eps2=1.41, causal=True)
    cfg = small_cfg(
        params=params, L_grid=[16, 32, 64], d_lower=8, d_upper=160, d_points=20
    )
    records = run_sweep(cfg)
    assert len(records) == 6
    assert all(r.d_min is not None for r in records)
    _, slope, _ = log_fit(records)
    assert slope > 0


# ------------------------------------------------------------- config checks


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        small_cfg(L_grid=[])
    with pytest.raises(ValueError):
        small_cfg(L_grid=[1, 16])
    with pytest.raises(ValueError):
        small_cfg(d_lower=10, d_upper=4)
    with pytest.raises(ValueError):
        small_cfg(q=0.0)
    with pytest.raises(ValueError):
        small_cfg(trials_per_L=0)


def test_sweep_config_rejects_repeated_L():
    # A repeated L would compute its records twice and write every row twice.
    with pytest.raises(ValueError, match="repeat"):
        small_cfg(L_grid=[16, 16], trials_per_L=1)
    with pytest.raises(ValueError, match="repeat"):
        small_cfg(L_grid=[16, 32, 16])


def test_sweep_config_rejects_zero_redraw_budget():
    # round(0.01 * 16) = 0 redraws per width would search nothing.
    with pytest.raises(ValueError, match="0 redraws"):
        small_cfg(q=0.01, L_grid=[16, 512])
    assert small_cfg(q=0.04, L_grid=[16]).q == 0.04  # round(0.64) = 1
