"""Approximating sparse right-stochastic matrices with fixed self-attention.

A library for constructing self-attention inputs whose attention matrix
matches a given sparse right-stochastic target up to row-ratio tolerances,
for measuring how the smallest sufficient attention width grows with the
sequence length, and for benchmarking the concentration of dot products
under orthogonal random projections.
"""

from .attention import csam, logits, sam
from .concentration import (
    JltParams,
    project_pair,
    run_bench,
    theoretical_tail,
)
from .construct import (
    AttentionInputs,
    ProjectionPair,
    assemble,
    build_log_gap,
    compress,
    sample_stiefel,
    svd_factor,
)
from .matrices import (
    ApproxParams,
    SparseStochasticMatrix,
    generate,
    min_nonzero_rows,
    read_coo,
    write_coo,
)
from .render import pooled_pixels, render_pgm
from .sweep import (
    SweepConfig,
    SweepRecord,
    find_dmin,
    log_fit,
    run_sweep,
    search_width,
    theoretical_d,
)
from .verify import ApproxReport, check_conditions

__all__ = [
    "ApproxParams",
    "ApproxReport",
    "AttentionInputs",
    "JltParams",
    "ProjectionPair",
    "SparseStochasticMatrix",
    "SweepConfig",
    "SweepRecord",
    "assemble",
    "build_log_gap",
    "check_conditions",
    "compress",
    "csam",
    "find_dmin",
    "generate",
    "log_fit",
    "logits",
    "min_nonzero_rows",
    "pooled_pixels",
    "project_pair",
    "read_coo",
    "render_pgm",
    "run_bench",
    "run_sweep",
    "sam",
    "sample_stiefel",
    "search_width",
    "svd_factor",
    "theoretical_d",
    "theoretical_tail",
    "write_coo",
]
