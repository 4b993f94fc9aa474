"""Command-line interface.

Subcommands: ``generate`` (draw a target matrix to a COO file), ``approx``
(search projection redraws at one width for a passing attention matrix),
``sweep`` (the width grid experiment streamed to CSV, once per listed redraw
budget ``q``), ``render`` (pooled PGM attention maps), and ``jlt-bench``
(projection tail benchmark).  ``approx`` and ``sweep`` share one redraw loop,
``sweep.search_width``, given the right SVD factor of the target's log-gap
matrix, so a sweep CSV row replays through ``approx`` at its ``d_min`` and
``seed``.  A sweep runs its records in one spawned worker process per usable
CPU, each with one BLAS thread, and writes the rows in grid order.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import attention, concentration, sweep as sweep_mod
from .construct import build_log_gap, check_width, svd_factor
from .matrices import ApproxParams, generate, read_coo, write_coo
from .render import render_pgm


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


CONFIG_KEYS = {
    "k": int,
    "gamma": float,
    "eps1": float,
    "eps2": float,
    "causal": _parse_bool,
    "L_grid": _int_list,
    "d_lower": int,
    "d_upper": int,
    "d_points": int,
    "q": _float_list,
    "trials_per_L": int,
    "master_seed": int,
}


def load_sweep_configs(path) -> list[sweep_mod.SweepConfig]:
    """Parse the flat ``key = value`` config into one SweepConfig per value
    of its comma-separated ``q`` list, in the listed order (one config with
    SweepConfig's default q when the key is absent).

    Every malformed, unknown or repeated key, and a ``q`` list that is empty
    or repeats a value, is reported in a single error message.
    """
    values: dict[str, object] = {}
    seen: dict[str, int] = {}  # key -> the line it was first set on
    problems: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"line {n}: expected 'key = value', got {raw.strip()!r}")
                continue
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in CONFIG_KEYS:
                problems.append(f"line {n}: unknown key {key!r}")
                continue
            if key in seen:
                problems.append(f"line {n}: repeated key {key!r} (first on line {seen[key]})")
                continue
            seen[key] = n
            try:
                values[key] = CONFIG_KEYS[key](text)
            except ValueError:
                problems.append(f"line {n}: bad value for {key!r}: {text!r}")
    required = {"k", "gamma", "eps1", "eps2", "L_grid"}
    missing = sorted(required - values.keys())
    for key in missing:
        problems.append(f"missing required key {key!r}")
    qs = values.get("q")
    if qs is not None and (not qs or len(set(qs)) != len(qs)):
        problems.append(f"line {seen['q']}: q must list one or more values, none repeated")
    if problems:
        raise ValueError("config errors:\n  " + "\n  ".join(problems))

    def given(*keys):
        # Keys the file leaves out take ApproxParams' and SweepConfig's defaults.
        return {key: values[key] for key in keys if key in values}

    l_grid = values["L_grid"]
    # params.L is a placeholder that each record overrides.  The largest L
    # admits every k the grid does; an empty grid is SweepConfig's to reject.
    params = ApproxParams(
        L=max(l_grid, default=max(values["k"], 2)), **given("k", "gamma", "eps1", "eps2", "causal")
    )
    cfg = sweep_mod.SweepConfig(
        params=params, L_grid=l_grid,
        **given("d_lower", "d_upper", "d_points", "trials_per_L", "master_seed"),
    )
    return [replace(cfg, q=q) for q in qs or [cfg.q]]


def write_dense_dump(matrix: np.ndarray, path) -> None:
    """Dense text dump: ``rows cols`` header, then one row per line."""
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for row in matrix:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_dense_dump(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise ValueError(f"{path}: expected 'rows cols' header")
        try:
            rows, cols = int(head[0]), int(head[1])
            data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: expected shape {(rows, cols)}, got {data.shape}")
    return data


def cmd_generate(args) -> int:
    params = ApproxParams(
        L=args.L, k=args.k, gamma=args.gamma, eps1=0.5, eps2=0.5, causal=args.causal
    )
    A = generate(params, args.seed)
    write_coo(A, args.out)
    print(f"wrote {A.nnz} entries to {args.out}")
    return 0


def cmd_approx(args) -> int:
    A = read_coo(args.input)
    check_width(args.d, A.L)
    n_redraws = sweep_mod.redraw_budget(args.q, A.L)
    V = svd_factor(build_log_gap(A, args.eps1, args.eps2))
    passing, redraws_used, z, report = sweep_mod.search_width(
        V, A, args.d, n_redraws, args.seed, args.eps1, args.eps2
    )

    payload = {
        "passed": report.passed,
        "d": args.d,
        "q": args.q,
        "redraws_used": redraws_used,
        "passing_redraw": passing,
        "seed": args.seed,
        "eps1": args.eps1,
        "eps2": args.eps2,
        "causal": A.causal,
        "report": json.loads(report.to_json()),
    }
    text = json.dumps(payload, indent=2, allow_nan=False)
    # Every file is written before the verdict is printed, so a write that
    # fails leaves no verdict on stdout that its exit code contradicts.
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    if args.dump_logits is not None:
        write_dense_dump(z, args.dump_logits)
    if args.dump_m is not None:
        m = attention.csam(z) if A.causal else attention.sam(z)
        write_dense_dump(m, args.dump_m)
    print(text)
    return 0 if payload["passed"] else 1


def cmd_sweep(args) -> int:
    records = []
    for cfg in load_sweep_configs(args.config):
        records += sweep_mod.run_sweep(cfg, csv_path=args.out)
    found = sum(1 for r in records if r.d_min is not None)
    print(f"{len(records)} records ({found} with a passing width) -> {args.out}")
    return 0


def cmd_render(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
    if len(head) == 4:
        matrix = read_coo(args.input).to_dense()
    elif len(head) == 2:
        matrix = read_dense_dump(args.input)
    else:
        raise ValueError(f"{args.input}: neither a COO file nor a dense dump")
    try:
        render_pgm(matrix, args.out, pool=args.pool, clip=args.clip)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    side = matrix.shape[0] // args.pool
    print(f"wrote {side}x{side} PGM to {args.out}")
    return 0


def cmd_jlt_bench(args) -> int:
    rows = concentration.run_bench(
        p_values=_int_list(args.p_values),
        m_values=_int_list(args.m_values),
        eps_values=_float_list(args.eps_values),
        n_samples=args.n_samples,
        seed=args.seed,
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(concentration.BENCH_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_row() + "\n")
    print(f"{len(rows)} rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseattn",
        description="Approximate sparse stochastic matrices with a fixed "
        "self-attention module via orthogonal random projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a random target matrix to a COO file")
    p.add_argument("--L", type=int, required=True, help="sequence length (> 1)")
    p.add_argument("--k", type=int, required=True, help="per-row/column nonzero bound")
    p.add_argument("--gamma", type=float, default=1.0, help="within-row variation bound")
    p.add_argument(
        "--causal", action="store_true",
        help="lower-triangular support: the diagonal is filled first, so k=1 "
        "gives the identity",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output COO path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("approx", help="search projection redraws for a passing match")
    p.add_argument("--input", required=True, help="target matrix COO file")
    p.add_argument("--d", type=int, required=True, help="attention width (even)")
    p.add_argument("--eps1", type=float, default=0.15)
    p.add_argument("--eps2", type=float, default=1.41)
    p.add_argument("--q", type=float, default=1.0, help="redraw budget multiplier")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="write the JSON report here too")
    p.add_argument("--dump-logits", default=None, help="dense text dump of the logits")
    p.add_argument("--dump-m", default=None, help="dense text dump of the attention matrix")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("sweep", help="minimal-width sweep over L and q (resumable CSV)")
    p.add_argument("config", help="key = value config file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="render a matrix as a pooled PGM map")
    p.add_argument("--input", required=True, help="COO file or dense text dump")
    p.add_argument("--pool", type=int, default=8, help="max-pool window (divides L)")
    p.add_argument("--clip", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("jlt-bench", help="projection tail benchmark CSV")
    p.add_argument("--p-values", default="128,256")
    p.add_argument("--m-values", default="8,16,32,64")
    p.add_argument("--eps-values", default="0.1,0.25,0.5")
    p.add_argument("--n-samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_jlt_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
