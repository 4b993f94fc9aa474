"""Measurement harness for the minimal attention width across sequence lengths.

For a drawn target matrix and an ascending grid of candidate widths ``d``,
the harness redraws the shared orthogonal projection up to ``round(q * L)``
times per width (``redraw_budget``) and records the first width at which
some redraw satisfies both ratio conditions.  ``run_sweep`` streams one
config's rows to a resumable CSV; a sweep over several ``q`` runs it once per
value on the same CSV, and every ``q`` measures the same target matrices.  A
least-squares fit of width against log L summarizes the growth rate.
``search_width`` is the one redraw loop, run by the sweep at every grid width
and by ``sparseattn approx`` at a single one; it reports through
``verify.check_conditions``.

A redraw's logits depend on its orthogonal projection ``y`` only through the
projector ``y y^T``, which equals ``G C^-1 G^T`` for the Gaussian draw ``G``
that ``y`` orthogonalizes and ``C = G^T G``.  So ``search_width`` draws each
redraw at every width through ``construct.projector_basis`` (draw ``G``, form
``C``, no QR).  A redraw formed in full takes a corrected seminormal step
where ``C`` is ill-conditioned, so the logits it reports match those of ``y``
to about 1e-12.  The check takes its mode, causal or not, from the target.

The search owns its row schedule: ``row_blocks`` splits a redraw's rows into
the blocks it forms and checks in turn, and ``SOLVE_SPANS`` and
``KEYS_FROM`` say how each block's rows are formed.  ``verify.row_margins``
checks whatever range of rows it is given.

Seeding: each (L, trial) record gets ``derive_seed(master_seed, L, trial)``.
From that record seed, the target matrix uses ``derive_seed(record_seed, 0)``
and redraw ``t`` at width ``d`` uses ``derive_seed(record_seed, 1, d, t)``,
so every (L, trial, d, t) combination has its own stream and results do not
depend on scheduling.  A record can be replayed from its CSV row alone.

``run_sweep`` computes every missing record, however few, in a pool of
spawned worker processes, one per usable CPU, each started with one BLAS
thread, and writes the rows in grid order: the CSV bytes depend on neither
the CPU count nor the caller's BLAS threads.  Under ``spawn`` each worker
re-imports the main script, so a script that calls ``run_sweep`` must do so
under ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ._seeds import derive_seed
from .construct import build_log_gap, check_width, log_gap_values, projector_basis, svd_factor
from .matrices import ApproxParams, SparseStochasticMatrix, generate
from .verify import ApproxReport, check_conditions, row_margins

CSV_HEADER = "L,trial,q,d_min,theoretical_d,redraws_used,seed"
# Set to 1 while the record pool's workers start, so each loads its BLAS with
# one thread: two processes sharing two cores lose to the serial loop when
# each runs a multithreaded BLAS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# How a redraw forms its logit rows, block by block of ``row_blocks``.  Each
# key of SOLVE_SPANS starts a span of rows, ending at its value, that one
# solve against C turns into s^2 (((B V) G) C^-1 G^T) V^T: rows [0, 16) and
# [16, 48), each a whole number of blocks.  Rows from KEYS_FROM on use the
# keys V G C^-1, which cost one L^2 h product.
SOLVE_SPANS = {0: 16, 16: 48}
KEYS_FROM = max(SOLVE_SPANS.values())
# Above this 1-norm condition number of C, a redraw evaluated in full takes a
# corrected seminormal step.  Below it, plain solves missed the orthogonal
# sample's logits by < 15 u kappa_1(C) and < 3.4e-14 of the largest logit.
STEP_KAPPA = 1e4


def row_blocks(L: int) -> list[tuple[int, int]]:
    """The row blocks ``[lo, hi)`` in which a redraw search forms and checks
    logits: ``[0, 4)``, ``[4, 16)``, ``[16, 48)``, then each block twice the
    size of the one before, cut at ``L``.  Failing redraws mostly fail
    within the first few rows."""
    bounds, size = [0, 4, 16], 32
    while bounds[-1] < L:
        bounds.append(bounds[-1] + size)
        size *= 2
    return [(lo, min(hi, L)) for lo, hi in zip(bounds, bounds[1:]) if lo < L]


@dataclass
class SweepRecord:
    """One (L, trial) measurement; ``d_min`` is None when no grid width passed."""

    L: int
    trial: int
    q: float
    d_min: int | None
    theoretical_d: float
    redraws_used: int
    seed: int

    def to_csv_row(self) -> str:
        d = self.d_min if self.d_min is not None else -1
        return (
            f"{self.L},{self.trial},{self.q!r},{d},"
            f"{self.theoretical_d!r},{self.redraws_used},{self.seed}"
        )

    @classmethod
    def from_csv_row(cls, row: str) -> "SweepRecord":
        parts = row.strip().split(",")
        if len(parts) != 7:
            raise ValueError(f"expected 7 CSV fields, got {row!r}")
        d = int(parts[3])
        return cls(
            L=int(parts[0]),
            trial=int(parts[1]),
            q=float(parts[2]),
            d_min=None if d < 0 else d,
            theoretical_d=float(parts[4]),
            redraws_used=int(parts[5]),
            seed=int(parts[6]),
        )


@dataclass
class SweepConfig:
    """Sweep settings: problem parameters plus grids and seeding.

    ``params.L`` is a placeholder; each record overrides it with its grid
    value.  The width grid is ``d_points`` values evenly spaced over
    ``[d_lower, d_upper]``, each rounded to the nearest even integer
    (``2 * round(v / 2)``), deduplicated, ascending.
    """

    params: ApproxParams
    L_grid: list[int] = field(default_factory=list)
    d_lower: int = 200
    d_upper: int = 600
    d_points: int = 30
    q: float = 1.0
    trials_per_L: int = 5
    master_seed: int = 0

    def __post_init__(self):
        if not self.L_grid:
            raise ValueError("L_grid must not be empty")
        if any(L <= 1 for L in self.L_grid):
            raise ValueError("every L in L_grid must be > 1")
        if len(set(self.L_grid)) != len(self.L_grid):
            raise ValueError(f"L_grid must not repeat a value, got {self.L_grid}")
        if not 2 <= self.d_lower <= self.d_upper:
            raise ValueError(
                f"need 2 <= d_lower <= d_upper, got ({self.d_lower}, {self.d_upper})"
            )
        if self.d_points < 1:
            raise ValueError("d_points must be >= 1")
        redraw_budget(self.q, min(self.L_grid))
        if self.trials_per_L < 1:
            raise ValueError("trials_per_L must be >= 1")

    def d_grid(self) -> list[int]:
        values = np.linspace(self.d_lower, self.d_upper, self.d_points)
        return sorted({int(round(v / 2.0)) * 2 for v in values})

    def widths(self, L: int) -> list[int]:
        """The grid widths a search at length ``L`` tries: those <= 2L."""
        return [d for d in self.d_grid() if d <= 2 * L]


def redraw_budget(q: float, L: int) -> int:
    """Redraws per width at length ``L``, ``round(q * L)``; raises
    ValueError unless ``q`` is finite and > 0 and gives at least one
    redraw."""
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"q must be finite and > 0, got q={q}")
    n = int(round(q * L))
    if n < 1:
        raise ValueError(f"q={q} gives round(q * L) = {n} redraws at L={L}")
    return n


def theoretical_d(params: ApproxParams, L: int) -> float:
    """Upper bound on the width sufficient for the two ratio conditions.

    32 * eps2^-2 * k^2 * max(log(gamma) - log(eps1) + eps2, 1)^2
    * (2 log L + log(L - 1) + log 2), natural logarithms.
    """
    if L <= 1:
        raise ValueError(f"L must be > 1, got {L}")
    margin = max(math.log(params.gamma) - math.log(params.eps1) + params.eps2, 1.0)
    return (
        32.0
        * params.eps2 ** -2
        * params.k ** 2
        * margin ** 2
        * (2.0 * math.log(L) + math.log(L - 1) + math.log(2.0))
    )


def _gap_rows(A: SparseStochasticMatrix, gap: np.ndarray, w: np.ndarray,
              lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Rows ``lo .. hi - 1`` of ``B w`` into ``out``: per row, the rows of
    ``w`` its nonzeros select (never none), times their ``gap`` values, summed
    in stored order; 64 rows at a time, as block-sized gathers stayed resident
    in the C heap (+2 MB peak over repeated approx calls at L=2048)."""
    for a in range(lo, hi, 64):
        ptr = A.row_ptr[a:min(a + 64, hi) + 1]
        first, count = ptr[:-1], ptr[1:] - ptr[:-1]
        rows = out[a - lo:a - lo + len(first)]
        np.multiply(w[A.cols[first]], gap[first, None], out=rows)
        for s in range(1, count.max()):  # each row's s-th nonzero, if any
            more = first[count > s] + s
            rows[count > s] += w[A.cols[more]] * gap[more, None]
    return out


def search_width(
    V: np.ndarray, A: SparseStochasticMatrix, d: int, n_redraws: int,
    seed: int, eps1: float, eps2: float,
) -> tuple[int | None, int, np.ndarray, ApproxReport]:
    """Redraw the shared projection at width ``d`` until target ``A``'s
    check passes.

    Redraw ``t`` (t = 0 .. n_redraws - 1) samples a Haar L x d/2 matrix ``y``
    with seed ``derive_seed(seed, 1, d, t)`` and checks the logits
    ``z = (s B V y)(s V y)^T``, ``s = sqrt(2L/d)``, for ``V`` the right factor
    of the target's log-gap matrix ``B`` (``svd_factor``): the logits of the
    assembled attention inputs.  Stops at the first pass.  Returns the
    passing redraw (None if none passed), the redraws used, and the logits
    and report of the last redraw checked.  ``_gap_rows`` forms rows of ``B``
    times a matrix from the target's nonzeros: no L x L ``B`` or ``B V``.

    ``z`` depends on ``y`` only through the projector ``y y^T``, so the
    search takes the Gaussian draw ``G`` that ``sample_stiefel`` would
    orthogonalize and uses ``y y^T = G C^-1 G^T`` with ``C = G^T G``
    (``projector_basis``): no QR, no explicit basis, no sign fix, at every
    width.  At ``d = 2L`` both are the identity.

    Each redraw is evaluated in the row blocks of ``row_blocks(L)`` (rows
    0-3, 4-15, 16-47, then doubling), each block formed into one L x L
    buffer and checked against ``A``'s rows (``row_margins``) in turn, and a
    redraw that is not the last one stops at the first block holding a
    violating row.  Rows 0-15 are ``s^2 (((B V)[0:16] G) C^-1 G^T) V^T``
    from one solve against ``C``, formed and checked as rows 0-3 and then
    4-15; rows 16-47 take the same route with a second solve.  Only a redraw
    that survives row 47 inverts ``C`` and forms ``W = V G`` and the keys
    ``W C^-1``, the one ``L^2 h`` product, for the blocks after, whose rows
    are ``s^2 (B W) (W C^-1)^T``.  A redraw evaluated in full (a pass, or
    the last) whose ``kappa_1(C)`` exceeds ``STEP_KAPPA`` (h near L) is
    formed again from keys that take one corrected seminormal step
    ``K += (V - K G^T) G C^-1``, which undoes the roundoff of ``C^-1``: the
    logits then match ``y``'s to about 1e-12 at every width.  The report of
    a redraw evaluated in full is ``check_conditions`` of the logits it
    returns, so it is the full check of those logits by construction.  The
    last redraw is always evaluated in full, so the logits and report
    returned are complete.  A non-finite logit raises ``VerificationError``
    in any row the search evaluates; rows after the failing block of an
    earlier redraw are not evaluated.
    """
    check_width(d, A.L)
    if n_redraws < 1:
        raise ValueError(f"n_redraws must be >= 1, got {n_redraws}")
    L, h = A.L, d // 2
    scale2 = 2.0 * L / d
    log_eps1 = math.log(eps1)
    blocks = row_blocks(L)
    gap = log_gap_values(A, eps1, eps2)
    head = np.empty((min(KEYS_FROM, L), L))  # rows 0-47 of B V, once per call
    _gap_rows(A, gap, V, 0, len(head), head)
    z = np.empty((L, L))
    for t in range(n_redraws):
        g, c = projector_basis(L, h, derive_seed(seed, 1, d, t))
        # One L x d/2 array per redraw, filled span by span, rather than a
        # temporary per block: block-sized temporaries stayed resident in the
        # C heap and raised the peak memory of repeated approx calls at
        # L=2048 by about 18 MB.
        left = np.empty((L, h))
        w = keys = c_inv = None
        last = t == n_redraws - 1
        for lo, hi in blocks:
            if lo in SOLVE_SPANS:  # s^2 ((B V) G) C^-1 for the span's rows
                span_lo, span_hi = lo, min(SOLVE_SPANS[lo], L)
                x = np.matmul(head[span_lo:span_hi], g, out=left[span_lo:span_hi])
                x *= scale2
                x = np.linalg.solve(c, x.T).T
            if lo < KEYS_FROM:
                np.matmul(x[lo - span_lo:hi - span_lo] @ g.T, V.T, out=z[lo:hi])
            else:
                if keys is None:
                    # An explicit inverse, not a solve against L right-hand
                    # sides: the solve's L x h buffers raised the peak memory
                    # of repeated approx calls at L=2048 by 16 MB.
                    c_inv = np.linalg.inv(c)
                    w = V @ g
                    keys = w @ c_inv
                rows = _gap_rows(A, gap, w, lo, hi, left[lo:hi])
                rows *= scale2
                np.matmul(rows, keys.T, out=z[lo:hi])
            cond1, cond2 = row_margins(z[lo:hi], A, lo)
            if not last and (cond1.max() >= log_eps1 or cond2.max() >= eps2):
                break
        else:  # every block evaluated: a pass, or the last redraw
            if c_inv is None:  # L <= KEYS_FROM
                c_inv = np.linalg.inv(c)
            if np.abs(c).sum(0).max() * np.abs(c_inv).sum(0).max() > STEP_KAPPA:
                # Every row again from keys after the step, in one product:
                # every row of ``left`` is filled by now.  V - K G^T goes
                # through z, which that product rewrites.
                if keys is None:
                    keys = (V @ g) @ c_inv
                np.matmul(keys, g.T, out=z)
                np.subtract(V, z, out=z)
                keys += (z @ g) @ c_inv
                np.matmul(left, keys.T, out=z)
            report = check_conditions(z, A, eps1, eps2)
            if report.passed:
                return t, t + 1, z, report
    return None, n_redraws, z, report


def find_dmin(A: SparseStochasticMatrix, cfg: SweepConfig, seed: int) -> SweepRecord:
    """Smallest grid width at which some projection redraw passes the check.

    Walks ``cfg.widths(L)``, the grid widths up to 2L (wider cannot be
    realized), in ascending order, and runs ``search_width`` with
    ``redraw_budget(q, L)`` redraws at each width until one passes.  The
    right factor ``V`` of the target's log-gap matrix is computed once for
    all widths; ``redraws_used`` counts the redraws at every width tried.
    """
    L, params = A.L, cfg.params
    n_redraws = redraw_budget(cfg.q, L)
    V = svd_factor(build_log_gap(A, params.eps1, params.eps2))
    record = SweepRecord(
        L=L,
        trial=-1,
        q=cfg.q,
        d_min=None,
        theoretical_d=theoretical_d(params, L),
        redraws_used=0,
        seed=seed,
    )
    for d in cfg.widths(L):
        passing, used, _, _ = search_width(V, A, d, n_redraws, seed, params.eps1, params.eps2)
        record.redraws_used += used
        if passing is not None:
            record.d_min = d
            break
    return record


def _run_record(cfg: SweepConfig, L: int, trial: int) -> SweepRecord:
    record_seed = derive_seed(cfg.master_seed, L, trial)
    A = generate(replace(cfg.params, L=L), derive_seed(record_seed, 0))
    record = find_dmin(A, cfg, record_seed)
    record.trial = trial
    return record


def _read_existing(csv_path, cfg: SweepConfig) -> dict[tuple[int, int, float], SweepRecord]:
    """Rows of an earlier run of this sweep, by (L, trial, q); a cell that two
    rows hold is refused.  Each row's seed must be the one ``cfg.master_seed``
    derives for its (L, trial), which rejects torn rows and files written under
    another master seed; its ``theoretical_d`` must be the bound of
    ``cfg.params`` at its L, which rejects files written under k, gamma, eps1
    or eps2 that give another bound; and its (d_min, redraws_used) must be a
    result ``cfg.d_grid()`` can produce (``_grid_can_produce``), which rejects
    files written under another d-grid.  The bound reads gamma and eps1 only
    through its margin ``max(log(gamma / eps1) + eps2, 1)``, so another gamma
    or eps1 goes unseen while that margin is 1; and no column records
    ``causal``, so a file written in the other mode is not rejected."""
    lines = []  # (line number, text) of each non-blank line
    if csv_path is not None and os.path.exists(csv_path):
        with open(csv_path, "r", encoding="utf-8") as fh:
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if lines and lines[0][1] != CSV_HEADER:
        raise ValueError(f"{csv_path}: unexpected CSV header {lines[0][1]!r}")
    records, first = {}, {}  # cell -> its record, and its (line number, row)
    for n, line in lines[1:]:
        try:
            record = SweepRecord.from_csv_row(line)
            n_redraws = redraw_budget(record.q, record.L)
        except ValueError as exc:
            raise ValueError(f"{csv_path}: row {line!r}: {exc}") from None
        if record.seed != derive_seed(cfg.master_seed, record.L, record.trial):
            raise ValueError(
                f"{csv_path}: row {line!r} does not belong to this sweep: its seed is "
                f"not the one master_seed={cfg.master_seed} derives for "
                f"L={record.L}, trial={record.trial}"
            )
        if record.theoretical_d != theoretical_d(cfg.params, record.L):
            raise ValueError(
                f"{csv_path}: row {line!r} does not belong to this sweep: its "
                f"theoretical_d is not the bound for k={cfg.params.k}, "
                f"gamma={cfg.params.gamma}, eps1={cfg.params.eps1}, eps2={cfg.params.eps2}"
            )
        if not _grid_can_produce(record, cfg.widths(record.L), n_redraws):
            raise ValueError(
                f"{csv_path}: row {line!r} does not belong to this sweep: its "
                f"(d_min, redraws_used) cannot come from the d-grid d_lower={cfg.d_lower}, "
                f"d_upper={cfg.d_upper}, d_points={cfg.d_points}"
            )
        cell = (record.L, record.trial, record.q)
        if cell in first:
            raise ValueError(
                f"{csv_path}: line {first[cell][0]} {first[cell][1]!r} and line {n} "
                f"{line!r} both hold L={record.L}, trial={record.trial}, q={record.q!r}"
            )
        first[cell] = n, line
        records[cell] = record
    return records


def _grid_can_produce(record: SweepRecord, widths: list[int], n: int) -> bool:
    """Whether ``find_dmin`` walking ``widths`` (the config's, at the row's L)
    with the row's ``n = redraw_budget(q, L)`` redraws per width can give the
    row's result: a found width must be one of ``widths``, reached after the
    full budget at each of the e widths below it, so n e < redraws_used <=
    n (e + 1); a row that found none spent n at each of them (0 if none)."""
    if record.d_min is None:
        return record.redraws_used == n * len(widths)
    if record.d_min not in widths:
        return False
    e = widths.index(record.d_min)
    return n * e < record.redraws_used <= n * (e + 1)


def _open_for_append(csv_path):
    """Open the CSV to append rows: an empty file gets the header, and a file
    whose last line lost its newline gets one, so each row has its own line."""
    fh = open(csv_path, "a", encoding="utf-8", newline="\n")
    if fh.tell() == 0:
        fh.write(CSV_HEADER + "\n")
    else:
        with open(csv_path, "rb") as raw:
            raw.seek(-1, os.SEEK_END)
            if raw.read(1) != b"\n":
                fh.write("\n")
    return fh


def _worker_count(n_cells: int) -> int:
    """Workers for ``n_cells`` records: one per usable CPU, at most one per record."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_cells)


def _record_pool(n: int, jobs):
    """Submit each job ``(fn, *args)`` to a new spawn pool of ``n`` worker
    processes; return the pool and the jobs' futures, in job order.

    The workers start on submit, so every job is submitted while the
    ``BLAS_THREAD_VARS`` read 1, and each worker loads its BLAS with one
    thread.  The parent's environment is then restored exactly; its BLAS,
    already loaded, keeps its threads.  The caller shuts the pool down.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {key: os.environ.get(key) for key in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    pool = ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("spawn"))
    try:
        return pool, [pool.submit(*job) for job in jobs]
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_sweep(cfg: SweepConfig, csv_path=None) -> list[SweepRecord]:
    """Run every (L, trial) cell of the sweep, streaming rows to ``csv_path``.

    Cells whose (L, trial, q) row is already in the CSV are taken from it,
    not recomputed, so an interrupted sweep resumes where it stopped.  Every
    missing record, however few, runs in one of ``_worker_count`` spawned
    worker processes with one BLAS thread each, submitted largest L first so
    that a long record does not start last.  Rows are written in grid order,
    each flushed as soon as every row before it is known, so the CSV bytes
    depend on neither the worker count nor the caller's BLAS threads.  A
    record's exception is raised at its grid position: the rows before it are
    written, the rows after it are not.  No worker outlives the call.
    Returns all records for this config, including previously completed ones.
    """
    from concurrent.futures.process import BrokenProcessPool

    done = _read_existing(csv_path, cfg)
    cells = [(L, trial) for L in cfg.L_grid for trial in range(cfg.trials_per_L)]
    order = sorted((c for c in cells if (*c, cfg.q) not in done), key=lambda c: -c[0])
    pool = fh = None
    records: list[SweepRecord] = []
    try:
        if order:  # the CSV first, so an unwritable path fails before any record
            if csv_path is not None:
                fh = _open_for_append(csv_path)
            jobs = [(_run_record, cfg, *cell) for cell in order]
            pool, futures = _record_pool(_worker_count(len(order)), jobs)
            pending = dict(zip(order, futures))
        for L, trial in cells:
            record = done.get((L, trial, cfg.q))
            if record is None:
                record = pending[L, trial].result()
                if fh is not None:
                    fh.write(record.to_csv_row() + "\n")
                    fh.flush()
            records.append(record)
    except BrokenProcessPool as exc:
        raise RuntimeError(
            "a sweep worker process died.  Workers are spawned and re-import the "
            "main script, so a script that runs a sweep must call it under "
            'if __name__ == "__main__":'
        ) from exc
    finally:
        if fh is not None:
            fh.close()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return records


def log_fit(records: list[SweepRecord]) -> tuple[float, float, float]:
    """Least-squares fit ``d_min = a + b * log(L)`` over found records.

    Returns (a, b, r2); r2 is defined as 1.0 when the found widths have zero
    variance.  Requires found widths at two or more distinct L values.
    """
    found = [r for r in records if r.d_min is not None]
    ls = sorted({r.L for r in found})
    if len(ls) < 2:
        raise ValueError(f"need found widths at >= 2 distinct L values, got {len(ls)}")
    x = np.log([r.L for r in found])
    y = np.array([float(r.d_min) for r in found])
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    resid = y - design @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return a, b, r2
