"""Walk the full construction: target matrix -> attention inputs -> verdict.

Draws a sparse stochastic target, builds its log-gap matrix B and the right
factor V of B's SVD, then compresses B V and V through orthogonal
projections.  A single draw at full width
(d = 2L) reproduces the logits exactly and the ratio conditions hold with
margin; below that, redrawing the projection becomes part of the search, and
the harness walks an ascending width grid until some redraw passes.
Finishes by rendering the target and the matched attention matrix as pooled
PGM images whose bright blocks coincide.

Runs in a few seconds on a desktop CPU.
"""

import numpy as np

from sparseattn import (
    ApproxParams,
    SweepConfig,
    assemble,
    build_log_gap,
    check_conditions,
    compress,
    find_dmin,
    generate,
    logits,
    render_pgm,
    sam,
    sample_stiefel,
    search_width,
    svd_factor,
)
from sparseattn._seeds import derive_seed
from sparseattn.sweep import redraw_budget

L = 128
params = ApproxParams(L=L, k=2, gamma=2.0, eps1=0.15, eps2=0.9)
A = generate(params, seed=42)
print(f"target: L={L}, {A.nnz} nonzeros, k={params.k}, gamma={params.gamma}")

B = build_log_gap(A, params.eps1, params.eps2)
V = svd_factor(B)
print(f"largest singular value of the log-gap matrix: {np.linalg.norm(B, 2):.3f}")

# At full width the embeddings and fixed weights reproduce the log-gap matrix B.
inputs = assemble(*compress(B, V, sample_stiefel(L, L, seed=7)))
print(f"full width d = {2 * L}: X is {inputs.x.shape[0]} x {inputs.x.shape[1]}, "
      f"max |logits - B| = {np.abs(logits(inputs) - B).max():.1e}")

print("\nwidth sweep (single projection draw each):")
for d in (32, 64, 128, 192, 2 * L):
    _, _, z = search_width(V, A, d, 1, 7, params.eps1, params.eps2)
    report = check_conditions(z, A, params.eps1, params.eps2)
    print(f"  d = {d:3d}: passed = {report.passed!s:5}   "
          f"zero-ratio log {report.worst_zero_ratio_log:7.3f} (< {np.log(params.eps1):.3f})   "
          f"nonzero dev {report.worst_nonzero_dev:6.3f} (< {params.eps2})")

print("\nsearching the width grid with round(q L) redraws per width:")
cfg = SweepConfig(params=params, L_grid=[L], d_lower=64, d_upper=256, d_points=13,
                  q=1.0, trials_per_L=1, master_seed=1)
record = find_dmin(A, cfg, seed=derive_seed(7, 99))
print(f"  d_min = {record.d_min} after {record.redraws_used} redraws "
      f"(theoretical bound {record.theoretical_d:.0f})")

# Replay the passing draw at the found width for rendering.
passing, _, z = search_width(V, A, record.d_min, redraw_budget(cfg.q, L),
                             record.seed, params.eps1, params.eps2)
print(f"  replayed the passing draw (redraw {passing})")

m = sam(z)
render_pgm(A.to_dense(), "target.pgm", pool=2, clip=0.05)
render_pgm(m, "attention.pgm", pool=2, clip=0.05)
print("\nwrote target.pgm and attention.pgm (64x64, max-pooled, clipped at 0.05)")

bright_m = np.argmax(m, axis=1)
bright_a = np.array([A.cols[A.rows == i][np.argmax(A.vals[A.rows == i])] for i in range(L)])
agreement = np.mean(bright_m == bright_a)
print(f"rows whose brightest attention column is the target's largest entry: "
      f"{agreement:.1%}")
