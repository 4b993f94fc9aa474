"""The benchmark's workloads, each driven through sparseattn's public API.

A workload has four steps.  ``inputs`` builds its inputs from the seed (the
set-up), ``run`` is one timed operation, ``output`` turns the operation's
result into the canonical text compared with the expected-output file, and
``problems`` applies the workload's own correctness rule, which holds for
every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os


class SweepGrowth:
    """The criterion-03 smoke sweep: ``run_sweep`` over L in {64, 128, 256}."""

    name = "sweep_growth"
    suffix = ".csv"

    def inputs(self, sa, seed: int, workdir: str):
        params = sa.ApproxParams(L=256, k=1, gamma=1.0, eps1=0.15, eps2=1.41)
        return sa.SweepConfig(
            params=params, L_grid=[64, 128, 256], d_lower=40, d_upper=600,
            d_points=30, q=1.0, trials_per_L=3, master_seed=seed,
        )

    def run(self, sa, cfg, workdir: str, index: int):
        # A fresh path every time: run_sweep resumes from an existing CSV.
        path = os.path.join(workdir, f"sweep-{index}.csv")
        return sa.run_sweep(cfg, csv_path=path), path

    def output(self, result) -> str:
        _, path = result
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
        os.remove(path)
        return text

    def problems(self, sa, cfg, result) -> list[str]:
        records, _ = result
        found = [r for r in records if r.d_min is not None]
        out = [f"L={r.L} trial={r.trial}: d_min {r.d_min} >= bound {r.theoretical_d:.1f}"
               for r in found if not r.d_min < r.theoretical_d]
        if len(records) != len(cfg.L_grid) * cfg.trials_per_L:
            out.append(f"{len(records)} records for a {len(cfg.L_grid)} x {cfg.trials_per_L} grid")
        if len({r.L for r in found}) < 2:
            return out + ["found widths at fewer than 2 distinct L"]
        _, slope, r2 = sa.log_fit(records)
        if slope <= 0:
            out.append(f"growth slope {slope:.3f} is not positive")
        if r2 < 0.8:
            out.append(f"growth fit r2 {r2:.3f} < 0.8")
        return out


class ApproxLarge:
    """One ``sparseattn approx`` call on an L=2048, k=2, gamma=2 target."""

    name = "approx_large"
    suffix = ".json"
    L, k, gamma, d = 2048, 2, 2.0, 1200

    def inputs(self, sa, seed: int, workdir: str):
        # eps1/eps2 play no part in generation; the values only satisfy
        # ApproxParams' range checks.
        params = sa.ApproxParams(L=self.L, k=self.k, gamma=self.gamma, eps1=0.5, eps2=0.5)
        path = os.path.join(workdir, "target.coo")
        sa.write_coo(sa.generate(params, seed), path)
        return ["approx", "--input", path, "--d", str(self.d), "--eps1", "0.15",
                "--eps2", "1.41", "--q", "1", "--seed", str(seed)]

    def run(self, sa, argv, workdir: str, index: int):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = sa.cli.main(argv)
        return code, captured.getvalue()

    def output(self, result) -> str:
        code, stdout = result
        report = json.loads(stdout)
        fields = {key: report[key] for key in ("passed", "passing_redraw", "redraws_used")}
        return json.dumps({"exit_code": code, **fields}, sort_keys=True) + "\n"

    def problems(self, sa, argv, result) -> list[str]:
        code, stdout = result
        report = json.loads(stdout)
        out = []
        if code != 0 or not report["passed"]:
            out.append(f"approx exit code {code}, passed={report['passed']}")
        elif report["redraws_used"] != report["passing_redraw"] + 1:
            out.append(f"redraws_used {report['redraws_used']} != passing_redraw + 1")
        return out


class JltTails:
    """``run_bench`` over its default (p, m, eps, mode) grid."""

    name = "jlt_tails"
    suffix = ".csv"
    n_samples = 200

    def inputs(self, sa, seed: int, workdir: str):
        return seed

    def run(self, sa, seed, workdir: str, index: int):
        return sa.run_bench(n_samples=self.n_samples, seed=seed)

    def output(self, rows) -> str:
        header = "p,m,epsilon,mode,empirical_tail,theoretical_tail,n_samples\n"
        return header + "".join(row.to_csv_row() + "\n" for row in rows)

    def problems(self, sa, seed, rows) -> list[str]:
        # Criterion 09: every non-vacuous bound holds with 3-sigma slack.
        out = []
        if len(rows) != 2 * 4 * 3 * 2:
            out.append(f"{len(rows)} rows, expected 48")
        for row in rows:
            bound = row.theoretical_tail
            if bound >= 1.0:
                continue
            slack = 3.0 * math.sqrt(bound * (1.0 - bound) / row.n_samples)
            if row.empirical_tail > bound + slack:
                out.append(f"(p={row.p}, m={row.m}, eps={row.epsilon}, {row.mode}): "
                           f"tail {row.empirical_tail:.4f} > {bound:.4f} + {slack:.4f}")
        return out


WORKLOADS = {w.name: w for w in (SweepGrowth(), ApproxLarge(), JltTails())}
