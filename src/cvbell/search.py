"""Settings optimization and family scans.

The settings space mixes a discrete part (the per-mode sign choices) with a
continuous box over (theta, delta). The discrete part is enumerated
exhaustively; the continuous part runs seeded Nelder-Mead restarts. The
delta box stays strictly inside (-pi/2, pi/2) to avoid the 1/cos blow-up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cfrd import (CfrdReport, QuadratureSettings, cfrd_beta, cfrd_evaluate,
                   cfrd_evaluate_many)

DELTA_MARGIN = 0.05


@dataclass(frozen=True)
class SettingsSearchSpec:
    n_modes: int
    theta_box: tuple[float, float] = (0.0, 2.0 * math.pi)
    delta_box: tuple[float, float] = (-math.pi / 2 + DELTA_MARGIN,
                                      math.pi / 2 - DELTA_MARGIN)
    restarts: int = 4
    seed: int = 0
    max_evals: int = 20_000
    include_trivial_signs: bool = False

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_evals < 1:
            raise ValueError("evaluation budget must be positive")
        if self.n_modes < 2 and not self.include_trivial_signs:
            raise ValueError("a single mode has no nontrivial sign split "
                             "to search")
        lo, hi = self.delta_box
        if not (-math.pi / 2 < lo <= hi < math.pi / 2):
            raise ValueError("delta box must sit strictly inside (-pi/2, pi/2)")


@dataclass
class OptimizeResult:
    report: CfrdReport
    evaluations: int
    budget_exhausted: bool


def _sign_assignments(n: int, include_trivial: bool):
    for signs in itertools.product((1, -1), repeat=n):
        if not include_trivial and len(set(signs)) < 2:
            continue
        yield signs


def _box(spec: SettingsSearchSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the (thetas, deltas) box."""
    n = spec.n_modes
    return (np.array([spec.theta_box[0]] * n + [spec.delta_box[0]] * n),
            np.array([spec.theta_box[1]] * n + [spec.delta_box[1]] * n))


def optimize_settings(state, spec: SettingsSearchSpec) -> OptimizeResult:
    """Maximize beta over signs (exhaustive) and angles (Nelder-Mead restarts).

    Every (sign pattern, restart) pair is one problem of a single batched
    simplex. Points past the ``max_evals``-th read +inf, which the simplex
    never accepts, and only as many problems start as the budget can give a
    whole initial simplex, so every problem keeps a finite best vertex.
    """
    n = spec.n_modes
    if n != state.n_modes:
        raise ValueError("search spec mode count does not match state")
    signs = list(_sign_assignments(n, spec.include_trivial_signs))
    problems = min(len(signs) * spec.restarts,
                   max(1, spec.max_evals // (2 * n + 1)))
    lo, hi = _box(spec)
    rng = np.random.default_rng(spec.seed)
    x0 = lo + rng.random((problems, 2 * n)) * (hi - lo)
    evals = 0
    exhausted = False

    def objective(rows, x):
        nonlocal evals, exhausted
        out = np.full(x.shape[:2], np.inf)
        for i, row in enumerate(np.arange(problems)[rows]):
            row_signs = signs[row // spec.restarts]
            for j, point in enumerate(x[i].tolist()):
                if evals == spec.max_evals:
                    exhausted = True
                    return out
                evals += 1
                out[i, j] = -cfrd_beta(state, point[:n], point[n:], row_signs)
        return out

    xbest, fbest = batched_nelder_mead(objective, x0, lo, hi, max_iter=100 * n)
    best = int(np.argmin(fbest))
    point = xbest[best].tolist()
    settings = QuadratureSettings(tuple(point[:n]), tuple(point[n:]),
                                  signs[best // spec.restarts])
    return OptimizeResult(report=cfrd_evaluate(state, settings),
                          evaluations=evals, budget_exhausted=exhausted)


def batched_nelder_mead(fn, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                        max_iter: int = 200, fatol: float = 1e-10,
                        xatol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Minimize many independent box-constrained problems in lockstep.

    ``fn(rows, x)`` evaluates the problems ``rows`` (``slice(None)`` for
    all of them, else an index array) at points ``x`` of shape
    (len(rows), k, dim) and returns (len(rows), k) values; ``x0`` has shape
    (batch, dim). Standard simplex coefficients (reflect 1, expand 2,
    contract 1/2, shrink 1/2); candidates are clipped to the box. Each
    iteration evaluates the reflection of every problem, one more point
    (expansion or contraction) only for problems whose reflection is not
    accepted, and the shrunk vertices only of problems that shrink. Returns
    the per-problem best point and value.
    """
    x0 = np.asarray(x0, dtype=float)
    batch, dim = x0.shape
    every = slice(None)
    step = 0.05 * (hi - lo)
    x = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        x[:, k + 1, k] = np.clip(x[:, k + 1, k] + step[k], lo[k], hi[k])
    f = fn(every, x)

    for _ in range(max_iter):
        order = np.argsort(f, axis=1)
        f = np.take_along_axis(f, order, axis=1)
        x = np.take_along_axis(x, order[:, :, None], axis=1)
        spread = f[:, -1] - f[:, 0]
        if (spread.max() < fatol
                and np.abs(x - x[:, :1, :]).max(axis=(1, 2)).max() < xatol):
            break

        centroid = x[:, :-1, :].mean(axis=1)
        worst = x[:, -1, :]
        xr = np.clip(centroid + (centroid - worst), lo, hi)
        fr = fn(every, xr[:, None])[:, 0]
        expand = fr < f[:, 0]
        reflect = ~expand & (fr < f[:, -2])
        x[reflect, -1] = xr[reflect]
        f[reflect, -1] = fr[reflect]

        rows = np.flatnonzero(~reflect)
        if rows.size == 0:
            continue
        # one more point for each of those rows: the expansion where the
        # reflection beat the best vertex, else the outside or inside
        # contraction. It is built at full width, since arrays whose size
        # changes every iteration fragment the heap, and evaluated on rows.
        outside = fr < f[:, -1]
        y = np.clip(np.where(expand[:, None], centroid + 2.0 * (centroid - worst),
                             np.where(outside[:, None],
                                      centroid + 0.5 * (xr - centroid),
                                      centroid - 0.5 * (centroid - worst))),
                    lo, hi)
        fy = np.full(batch, np.inf)
        fy[rows] = fn(rows, y[rows, None])[:, 0]
        take_y = ~reflect & np.where(expand, fy < fr,
                                     np.where(outside, fy <= fr, fy < f[:, -1]))
        keep = expand | take_y
        x[keep, -1] = np.where(take_y[:, None], y, xr)[keep]
        f[keep, -1] = np.where(take_y, fy, fr)[keep]

        shrink = np.flatnonzero(~(reflect | keep))
        if shrink.size:
            base = x[shrink, :1, :]
            shrunk = base + 0.5 * (x[shrink, 1:, :] - base)
            x[shrink, 1:] = shrunk
            f[shrink, 1:] = fn(shrink, shrunk)

    best = np.argmin(f, axis=1)
    idx = np.arange(batch)
    return x[idx, best, :], f[idx, best]


def best_beta_two_mode_batch(tables: np.ndarray, spec: SettingsSearchSpec,
                             ) -> np.ndarray:
    """Per-state maximal beta over settings for a batch of two-mode states.

    ``tables`` stacks ``two_mode_moment_table`` outputs, shape (batch, 6, 6).
    Mirrors ``optimize_settings`` (exhaustive nontrivial signs, seeded
    simplex restarts) but runs every state in one vectorized pass.
    """
    from .cfrd import beta_from_table

    if spec.n_modes != 2:
        raise ValueError("batch sweep is specific to two modes")
    batch = tables.shape[0]
    rng = np.random.default_rng(spec.seed)
    lo, hi = _box(spec)
    best = np.full(batch, -np.inf)
    for signs in _sign_assignments(2, spec.include_trivial_signs):

        def objective(rows, x):
            return -beta_from_table(tables[rows, None], x[..., :2], x[..., 2:],
                                    signs)

        for _ in range(spec.restarts):
            x0 = lo + rng.random((batch, 4)) * (hi - lo)
            _, fbest = batched_nelder_mead(objective, x0, lo, hi)
            best = np.maximum(best, -fbest)
    return best


@dataclass
class ScanRow:
    n: int
    alpha: complex
    lhs: float
    rhs: float
    ratio: float
    beta: float
    signs: tuple[int, ...]


def default_alpha_grid(points: int = 60, lo: float = 0.05, hi: float = 3.0,
                       ) -> np.ndarray:
    """Geometric |alpha| grid at phase zero (phase is irrelevant at delta=0)."""
    return np.geomspace(lo, hi, points)


def _scan_sign_choices(n: int, exhaustive: bool):
    if n == 1:
        # no nontrivial split exists for a single mode; scan both labels
        return [(1,), (-1,)]
    if exhaustive or n <= 6:
        return list(_sign_assignments(n, include_trivial=False))
    # at delta=0 the functional depends on the signs only through the
    # number of -1 entries; one representative per count suffices
    return [tuple(-1 if k < m else 1 for k in range(n)) for m in range(1, n)]


# A scan candidate must beat the best ratio by more than this to replace it.
# Ratios that tie up to rounding (every grid point at odd n, where lhs is 0;
# every sign pattern at large alpha, where they differ by e^{-2n|alpha|^2})
# then keep the first candidate in grid-then-sign order.
SCAN_TIE_TOLERANCE = 1e-12


def scan_cat_family(n_range: Sequence[int], alpha_grid: Sequence[complex],
                    sign: int, exhaustive_signs: bool = False) -> list[ScanRow]:
    """Best lhs/rhs ratio over the alpha grid for each mode count (delta=0)."""
    from .structured import make_cat_family

    rows = []
    for n in n_range:
        best: ScanRow | None = None
        choices = _scan_sign_choices(n, exhaustive_signs)
        settings = [QuadratureSettings((0.0,) * n, (0.0,) * n, signs)
                    for signs in choices]
        for alpha in alpha_grid:
            reports = cfrd_evaluate_many(make_cat_family(n, alpha, sign), settings,
                                         expand_s_squared=False)
            for signs, rep in zip(choices, reports):
                ratio = rep.lhs / rep.rhs
                if best is None or ratio > best.ratio + SCAN_TIE_TOLERANCE:
                    best = ScanRow(n=n, alpha=complex(alpha), lhs=rep.lhs,
                                   rhs=rep.rhs, ratio=ratio, beta=rep.beta,
                                   signs=signs)
        rows.append(best)
    return rows
