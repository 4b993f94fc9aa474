"""Command-line surface tests (in-process via main)."""

import json

import numpy as np
import pytest
from conftest import read_pgm, validate

from sparseattn.cli import main
from sparseattn.matrices import ApproxParams, CooFormatError, read_coo, write_coo


def run(*argv):
    return main([str(a) for a in argv])


def write_identity_coo(path, L=8):
    from sparseattn.matrices import SparseStochasticMatrix

    A = SparseStochasticMatrix(L, np.arange(L), np.arange(L), np.ones(L), k=1, gamma=1.0)
    write_coo(A, path)
    return A


# ----------------------------------------------------------------- generate


def test_generate_writes_valid_file(tmp_path):
    out = tmp_path / "a.coo"
    assert run("generate", "--L", 512, "--k", 2, "--gamma", 2.0, "--seed", 7, "--out", out) == 0
    A = read_coo(out)
    params = ApproxParams(L=512, k=2, gamma=2.0, eps1=0.5, eps2=0.5)
    assert validate(A, params).passed
    assert 512 <= A.nnz <= 1024  # at least one entry per row, at most k L


def test_generate_rejects_bad_k(tmp_path, capsys):
    assert run("generate", "--L", 8, "--k", 0, "--out", tmp_path / "x.coo") == 2
    assert "k" in capsys.readouterr().err


def test_generate_causal_first_entry_pinned(tmp_path):
    # Every causal draw starts with the forced (0, 0) entry.
    out = tmp_path / "c.coo"
    for seed in range(12):
        assert run("generate", "--L", 5, "--k", 2, "--causal", "--seed", seed, "--out", out) == 0
        first_entry = out.read_text().splitlines()[1].split()
        assert first_entry[0] == "0" and first_entry[1] == "0"
        assert float(first_entry[2]) == 1.0


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.coo", tmp_path / "b.coo"
    run("generate", "--L", 64, "--k", 2, "--gamma", 1.5, "--seed", 3, "--out", a)
    run("generate", "--L", 64, "--k", 2, "--gamma", 1.5, "--seed", 3, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_at_scale(tmp_path):
    out = tmp_path / "big.coo"
    assert run("generate", "--L", 4096, "--k", 2, "--gamma", 2, "--seed", 3, "--out", out) == 0
    params = ApproxParams(L=4096, k=2, gamma=2.0, eps1=0.5, eps2=0.5)
    report = validate(read_coo(out), params)
    assert report.passed, [v.detail for v in report.violations[:5]]


# -------------------------------------------------------------------- approx


def test_approx_identity_full_width_passes(tmp_path, capsys):
    coo = tmp_path / "id.coo"
    write_identity_coo(coo, L=8)
    report_path = tmp_path / "report.json"
    code = run(
        "approx", "--input", coo, "--d", 16, "--eps1", 0.5, "--eps2", 0.5,
        "--report", report_path,
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    assert payload["passing_redraw"] == 0
    assert payload["report"]["first_violation"] is None


def test_approx_rejects_odd_width(tmp_path, capsys):
    coo = tmp_path / "id.coo"
    write_identity_coo(coo)
    assert run("approx", "--input", coo, "--d", 15) == 2
    assert "even" in capsys.readouterr().err


@pytest.mark.parametrize(
    "d, message",
    [(15, "even"), (0, "even"), (-4, "even"), (18, "need d <= 2L, got d=18, L=8")],
    ids=["odd", "zero", "negative", "wider_than_2L"],
)
def test_approx_rejects_bad_width_before_the_svd(tmp_path, capsys, monkeypatch, d, message):
    from sparseattn import cli

    coo = tmp_path / "id.coo"
    write_identity_coo(coo, L=8)
    factored = []
    monkeypatch.setattr(cli, "svd_factor", lambda B: factored.append(B))
    assert run("approx", "--input", coo, "--d", d) == 2
    assert message in capsys.readouterr().err
    assert factored == []


def test_approx_failure_exits_one(tmp_path, capsys):
    coo = tmp_path / "id.coo"
    write_identity_coo(coo, L=16)
    # Width 2 with a single redraw will not satisfy the conditions.
    code = run("approx", "--input", coo, "--d", 2, "--q", 0.0625, "--eps1", 0.05,
               "--eps2", 0.5)
    assert code == 1


def test_approx_rejects_zero_redraw_budget(tmp_path, capsys):
    coo = tmp_path / "id.coo"
    write_identity_coo(coo, L=16)
    # round(0.01 * 16) = 0 redraws.
    assert run("approx", "--input", coo, "--d", 2, "--q", 0.01) == 2
    assert "0 redraws" in capsys.readouterr().err


def test_approx_rejects_eps2_outside_the_params_range(tmp_path, capsys):
    coo = tmp_path / "id.coo"
    write_identity_coo(coo, L=8)
    assert run("approx", "--input", coo, "--d", 16, "--eps2", 1.5) == 2
    assert "eps2 must lie in (0, sqrt(2))" in capsys.readouterr().err


def test_approx_prints_strict_json_when_a_condition_has_no_pairs(tmp_path, capsys):
    # A k=1 target has no row with two nonzeros, so no nonzero pair exists.
    coo = tmp_path / "k1.coo"
    assert run("generate", "--L", 64, "--k", 1, "--seed", 3, "--out", coo) == 0
    capsys.readouterr()
    run("approx", "--input", coo, "--d", 128, "--q", 0.1)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["report"]["worst_nonzero_dev"] is None


def test_approx_dumps_are_loadable(tmp_path):
    coo = tmp_path / "id.coo"
    write_identity_coo(coo, L=8)
    zpath, mpath = tmp_path / "z.txt", tmp_path / "m.txt"
    run("approx", "--input", coo, "--d", 16, "--eps1", 0.5, "--eps2", 0.5,
        "--dump-logits", zpath, "--dump-m", mpath)
    from sparseattn.cli import read_dense_dump

    z = read_dense_dump(zpath)
    m = read_dense_dump(mpath)
    assert z.shape == (8, 8) and m.shape == (8, 8)
    np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_approx_prints_no_verdict_when_a_dump_cannot_be_written(tmp_path, capsys):
    coo = tmp_path / "id.coo"
    write_identity_coo(coo, L=8)
    code = run("approx", "--input", coo, "--d", 16, "--eps1", 0.5, "--eps2", 0.5,
               "--dump-logits", tmp_path / "missing" / "z.txt")
    assert code == 2
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------------- sweep


def sweep_config_text(**overrides):
    values = dict(
        k=1, gamma=1.0, eps1=0.15, eps2=1.41, L_grid="16",
        d_lower=4, d_upper=32, d_points=4, q=1.0, trials_per_L=1, master_seed=5,
    )
    values.update(overrides)
    return "\n".join(f"{key} = {val}" for key, val in values.items()) + "\n"


def test_sweep_runs_and_is_rerunnable(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sweep_config_text())
    out = tmp_path / "records.csv"
    assert run("sweep", cfg, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "L,trial,q,d_min,theoretical_d,redraws_used,seed"
    assert len(lines) == 2
    before = out.read_bytes()
    assert run("sweep", cfg, "--out", out) == 0
    assert out.read_bytes() == before


def test_sweep_default_grid_spans_200_600(tmp_path):
    from sparseattn.cli import load_sweep_configs

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sweep_config_text(L_grid="512", d_lower=200, d_upper=600, d_points=30))
    (parsed,) = load_sweep_configs(cfg)
    grid = parsed.d_grid()
    assert len(grid) == 30 and grid[0] == 200 and grid[-1] == 600


def test_sweep_config_keys_left_out_take_the_sweep_defaults(tmp_path):
    from sparseattn.cli import load_sweep_configs
    from sparseattn.sweep import SweepConfig

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("k = 1\ngamma = 1.0\neps1 = 0.15\neps2 = 1.41\nL_grid = 16,32\n")
    (parsed,) = load_sweep_configs(cfg)
    assert parsed == SweepConfig(params=parsed.params, L_grid=[16, 32])
    assert parsed.q == 1.0


def test_sweep_empty_L_grid_rejected(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    for k in (1, 3):  # SweepConfig's message, whatever k is
        cfg.write_text(sweep_config_text(L_grid="", k=k))
        assert run("sweep", cfg, "--out", tmp_path / "r.csv") == 2
        assert "L_grid must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("line, causal", [("", False), ("causal = 1\n", True)])
def test_sweep_config_causal_only_when_set(tmp_path, line, causal):
    from sparseattn.cli import load_sweep_configs

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("k = 2\ngamma = 2.0\neps1 = 0.15\neps2 = 1.41\nL_grid = 32,16\n" + line)
    (parsed,) = load_sweep_configs(cfg)
    assert parsed.params == ApproxParams(
        L=32, k=2, gamma=2.0, eps1=0.15, eps2=1.41, causal=causal
    )


def test_sweep_bad_keys_listed_individually(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sweep_config_text() + "bogus = 1\nd_points = many\n")
    assert run("sweep", cfg, "--out", tmp_path / "r.csv") == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "d_points" in err


def test_sweep_repeated_key_reported_with_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sweep_config_text(k=1) + "bogus = 1\nk = 2\n")
    out = tmp_path / "r.csv"
    assert run("sweep", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "repeated key 'k'" in err
    assert not out.exists()


def test_qsweep_uses_config_q_values(tmp_path, capsys):
    # One run_sweep per listed q, in the listed order, into one CSV: the
    # same bytes as sweeping each q in turn.  Any q that gives a redraw at
    # the smallest L runs; there is no other range.
    from dataclasses import replace

    from sparseattn.cli import load_sweep_configs
    from sparseattn.sweep import run_sweep

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sweep_config_text(q="6.0,0.0625,1.0", trials_per_L=2))
    out = tmp_path / "records.csv"
    assert run("sweep", cfg, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7  # header + two trials per q
    assert [line.split(",")[2] for line in lines[1:]] == ["6.0"] * 2 + ["0.0625"] * 2 + ["1.0"] * 2
    configs = load_sweep_configs(cfg)
    assert [c.q for c in configs] == [6.0, 0.0625, 1.0]
    assert all(replace(c, q=1.0) == configs[2] for c in configs)
    by_hand = tmp_path / "by_hand.csv"
    for c in configs:
        run_sweep(c, csv_path=by_hand)
    assert by_hand.read_bytes() == out.read_bytes()
    # Every config is built before any sweep runs.
    cfg.write_text(sweep_config_text(q="1.0,0.01"))
    bad = tmp_path / "bad.csv"
    assert run("sweep", cfg, "--out", bad) == 2
    assert "q=0.01 gives round(q * L) = 0 redraws at L=16" in capsys.readouterr().err
    assert not bad.exists()


@pytest.mark.parametrize("q", ["0.5,1.0,0.5", ""], ids=["repeated", "empty"])
def test_sweep_config_rejects_an_empty_or_repeated_q(tmp_path, capsys, q):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sweep_config_text(q=q) + "bogus = 1\n")
    out = tmp_path / "r.csv"
    assert run("sweep", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert "line 9: q must list one or more values, none repeated" in err
    assert "bogus" in err  # reported with the other config errors
    assert not out.exists()


@pytest.mark.parametrize("q", ["inf", "-inf", "nan"])
def test_non_finite_q_exits_2_and_names_q(tmp_path, capsys, monkeypatch, q):
    from sparseattn import cli

    message = f"q must be finite and > 0, got q={float(q)}"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sweep_config_text(q=q))
    out = tmp_path / "r.csv"
    assert run("sweep", cfg, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()

    coo = tmp_path / "id.coo"
    write_identity_coo(coo, L=8)
    factored = []
    monkeypatch.setattr(cli, "svd_factor", lambda B: factored.append(B))
    assert run("approx", "--input", coo, "--d", 4, f"--q={q}") == 2
    assert message in capsys.readouterr().err
    assert factored == []


@pytest.mark.parametrize("q", ["inf", "nan"])
def test_resumed_row_with_non_finite_q_exits_2_and_names_the_row(tmp_path, capsys, q):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sweep_config_text())
    out = tmp_path / "r.csv"
    assert run("sweep", cfg, "--out", out) == 0
    header, row = out.read_text().splitlines()
    fields = row.split(",")
    fields[2] = q
    edited = ",".join(fields)
    out.write_text(f"{header}\n{edited}\n")
    before = out.read_bytes()
    capsys.readouterr()
    assert run("sweep", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{out}: row {edited!r}" in err
    assert f"q must be finite and > 0, got q={float(q)}" in err
    assert out.read_bytes() == before


# -------------------------------------------------------------------- render


def test_render_coo_input(tmp_path):
    coo = tmp_path / "a.coo"
    run("generate", "--L", 32, "--k", 1, "--seed", 2, "--out", coo)
    out = tmp_path / "a.pgm"
    assert run("render", "--input", coo, "--pool", 4, "--clip", 0.05, "--out", out) == 0
    assert read_pgm(out).shape == (8, 8)


def test_render_dense_dump_input(tmp_path):
    coo = tmp_path / "id.coo"
    write_identity_coo(coo, L=8)
    mpath = tmp_path / "m.txt"
    run("approx", "--input", coo, "--d", 16, "--eps1", 0.5, "--eps2", 0.5,
        "--dump-m", mpath)
    out = tmp_path / "m.pgm"
    assert run("render", "--input", mpath, "--pool", 2, "--clip", 0.05, "--out", out) == 0
    assert read_pgm(out).shape == (4, 4)


@pytest.mark.parametrize(
    "content",
    ["a b\n1 0\n0 1\n", "2 2\n1 0\n0 x\n", "2 2\n1 -0.5\n0 1\n", "2 2\n1 0\nnan 1\n",
     "2 3\n1 0 0\n0 1 0\n"],
    ids=["header", "entry", "negative", "nan", "non_square"],
)
def test_render_bad_dense_dump_names_the_file(tmp_path, capsys, content):
    dump = tmp_path / "bad.txt"
    dump.write_text(content)
    out = tmp_path / "bad.pgm"
    assert run("render", "--input", dump, "--pool", 1, "--out", out) == 2
    assert f"error: {dump}: " in capsys.readouterr().err
    assert not out.exists()


def test_render_pool_must_divide(tmp_path, capsys):
    coo = tmp_path / "a.coo"
    run("generate", "--L", 32, "--k", 1, "--seed", 2, "--out", coo)
    assert run("render", "--input", coo, "--pool", 5, "--out", tmp_path / "x.pgm") == 2


@pytest.mark.parametrize(
    "content, row", [("4 1 1 0\n0 0 1.0\n2 2 1.0\n3 3 1.0\n", 1), ("4 1 1 0\n", 0)],
    ids=["empty_row", "header_only"],
)
def test_coo_with_an_empty_row_is_refused_on_read(tmp_path, capsys, content, row):
    # Building the target rejects the empty row, so every subcommand that
    # reads the file refuses it, naming the file and the row.
    coo = tmp_path / "gap.coo"
    coo.write_text(content)
    with pytest.raises(CooFormatError, match=f"gap.coo: row {row} has no nonzero entry"):
        read_coo(coo)
    out = tmp_path / "gap.pgm"
    assert run("render", "--input", coo, "--pool", 1, "--out", out) == 2
    assert f"row {row} has no nonzero entry" in capsys.readouterr().err
    assert not out.exists()
    assert run("approx", "--input", coo, "--d", 2) == 2
    assert f"row {row} has no nonzero entry" in capsys.readouterr().err


# ----------------------------------------------------------------- jlt-bench


def test_jlt_bench_default_grid_cardinality(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("jlt-bench", "--n-samples", 50, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,m,epsilon,mode,empirical_tail,theoretical_tail,n_samples"
    assert len(lines) == 1 + 48  # 2 p x 4 m x 3 eps x 2 modes


def test_jlt_bench_rejects_zero_samples(tmp_path, capsys):
    assert run("jlt-bench", "--n-samples", 0, "--out", tmp_path / "b.csv") == 2


def test_jlt_bench_rejects_m_above_p(tmp_path, capsys):
    assert (
        run("jlt-bench", "--p-values", "16", "--m-values", "32",
            "--n-samples", 10, "--out", tmp_path / "b.csv")
        == 2
    )


# ------------------------------------------------------------------- parser


def test_unknown_flag_is_an_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--L", "8", "--k", "1", "--out", "x", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
