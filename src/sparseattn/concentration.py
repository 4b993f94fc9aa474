"""Empirical tail benchmark for dot products under random projections.

Compares two projection ensembles for estimating x.y from m-dimensional
sketches of p-dimensional vectors: mutually orthogonal rows of fixed length
sqrt(p) (drawn from the rows of a Haar orthogonal sample), and the classical
ensemble of independent standard Gaussian rows.  A common row scale would
cancel in the estimate, so neither ensemble takes one.  The orthogonal
ensemble carries the strictly smaller tail bound

    (2 - 2/(p + 2)) * exp(-m eps^2 / 8)   vs.   2 * exp(-m eps^2 / 8)

for the event |estimate - x.y| >= eps * ||x|| * ||y||, and a smaller mean
squared error.  The benchmark measures empirical tail frequencies and
squared errors against those bounds on a seeded Monte Carlo grid; one
error sample per (p, m, mode) serves every eps.

An orthogonal draw ``R = sqrt(p) y^T`` enters the estimate only through the
projector ``y y^T = G C^-1 G^T`` of the Gaussian draw ``G`` that ``y``
orthogonalizes, with ``C = G^T G``, so the estimate is
``(p/m) (G C^-1 G^T x)^T y``, through ``construct.projector_basis``: a
Gram product and two m x m solves at every m (a seminormal step), no QR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import derive_seed
from .construct import projector_basis

MODE_ORTHOGONAL = "orthogonal"
MODE_IID = "iid"

DEFAULT_P_VALUES = (128, 256)
DEFAULT_M_VALUES = (8, 16, 32, 64)
DEFAULT_EPS_VALUES = (0.1, 0.25, 0.5)


@dataclass(frozen=True)
class JltParams:
    """Projection benchmark parameters.

    p: ambient dimension; m: number of projections (1 <= m <= p); mode:
    'orthogonal' or 'iid'; n_samples: Monte Carlo draws (>= 1).
    """

    p: int
    m: int
    mode: str = MODE_ORTHOGONAL
    n_samples: int = 10_000

    def __post_init__(self):
        if not 1 <= self.m <= self.p:
            raise ValueError(f"need 1 <= m <= p, got m={self.m}, p={self.p}")
        if self.mode not in (MODE_ORTHOGONAL, MODE_IID):
            raise ValueError(f"mode must be 'orthogonal' or 'iid', got {self.mode!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


def project_pair(x: np.ndarray, y: np.ndarray, params: JltParams, seed: int) -> float:
    """Dot-product estimate (Rx).(Ry) / m from one projection draw.

    Orthogonal mode: ``R = sqrt(p) y^T`` for the Haar p x m sample
    ``y = sample_stiefel(p, m, seed)``, computed through its projector as
    ``(p/m) (G w)^T y``, ``w = C^-1 G^T x``, with no QR.  A corrected
    seminormal step ``w += C^-1 G^T (x - G w)`` undoes the solve's roundoff
    (which grows with ``kappa(C) = kappa(G)^2``) to about 1e-14 ||x|| ||y||.
    Iid mode: ``R`` is an m x p standard Gaussian draw.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (params.p,) or y.shape != (params.p,):
        raise ValueError(
            f"x and y must be vectors of length p={params.p}, got {x.shape}, {y.shape}"
        )
    if params.mode == MODE_ORTHOGONAL:
        g, c = projector_basis(params.p, params.m, seed)
        w = np.linalg.solve(c, x @ g)
        w += np.linalg.solve(c, (x - g @ w) @ g)
        return float(params.p * ((g @ w) @ y) / params.m)
    r = np.random.default_rng(seed).standard_normal((params.m, params.p))
    return float((r @ x) @ (r @ y) / params.m)


def estimate_errors(x: np.ndarray, y: np.ndarray, params: JltParams, seed: int = 0) -> np.ndarray:
    """Signed estimation errors over n_samples independent draws.

    Draw t uses ``derive_seed(seed, t)``; samples are independent of how
    they are scheduled or batched.  Each sample is one ``project_pair``, so
    an orthogonal sample costs a Gaussian draw, a Gram product and two
    m x m solves, and no QR.
    """
    exact = float(np.dot(x, y))
    return np.array(
        [
            project_pair(x, y, params, derive_seed(seed, t)) - exact
            for t in range(params.n_samples)
        ]
    )


def theoretical_tail(p: int, m: int, epsilon: float, mode: str) -> float:
    """Tail bound for the deviation event: strictly smaller for the
    orthogonal ensemble than for independent rows, at every finite p."""
    base = math.exp(-m * epsilon**2 / 8.0)
    if mode == MODE_ORTHOGONAL:
        return (2.0 - 2.0 / (p + 2)) * base
    if mode == MODE_IID:
        return 2.0 * base
    raise ValueError(f"mode must be 'orthogonal' or 'iid', got {mode!r}")


@dataclass
class BenchRow:
    p: int
    m: int
    epsilon: float
    mode: str
    empirical_tail: float
    theoretical_tail: float
    n_samples: int

    def to_csv_row(self) -> str:
        return (
            f"{self.p},{self.m},{self.epsilon!r},{self.mode},"
            f"{self.empirical_tail!r},{self.theoretical_tail!r},{self.n_samples}"
        )


BENCH_CSV_HEADER = "p,m,epsilon,mode,empirical_tail,theoretical_tail,n_samples"


def run_bench(
    p_values=DEFAULT_P_VALUES,
    m_values=DEFAULT_M_VALUES,
    eps_values=DEFAULT_EPS_VALUES,
    n_samples: int = 10_000,
    seed: int = 0,
) -> list[BenchRow]:
    """Tail frequencies over the full (p, m, eps, mode) grid.

    The probed vector pair for each p is a fixed Gaussian draw from
    ``derive_seed(seed, p)``; the bounds hold for any pair.  The whole grid
    is validated before anything is drawn: every grid must be non-empty,
    every (p, m) pair must make valid ``JltParams`` with ``n_samples``, and
    every eps must lie in (0, 1).
    """
    if not (p_values and m_values and eps_values):
        raise ValueError("p, m, and epsilon grids must not be empty")
    for p in p_values:
        for m in m_values:
            JltParams(p=p, m=m, n_samples=n_samples)
    for eps in eps_values:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"epsilon values must lie in (0, 1), got {eps}")
    rows = []
    for p in p_values:
        rng = np.random.default_rng(derive_seed(seed, p))
        x = rng.standard_normal(p)
        y = rng.standard_normal(p)
        norm_product = float(np.linalg.norm(x) * np.linalg.norm(y))
        for m in m_values:
            for mode in (MODE_ORTHOGONAL, MODE_IID):
                params = JltParams(p=p, m=m, mode=mode, n_samples=n_samples)
                # One error sample per draw serves every epsilon threshold.
                errors = np.abs(estimate_errors(x, y, params, seed=derive_seed(seed, p, m)))
                for eps in eps_values:
                    rows.append(
                        BenchRow(
                            p=p,
                            m=m,
                            epsilon=eps,
                            mode=mode,
                            empirical_tail=float(np.mean(errors >= eps * norm_product)),
                            theoretical_tail=theoretical_tail(p, m, eps, mode),
                            n_samples=n_samples,
                        )
                    )
    return rows
