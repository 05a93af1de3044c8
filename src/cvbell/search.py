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


def optimize_settings(state, spec: SettingsSearchSpec) -> OptimizeResult:
    """Maximize beta over signs (exhaustive) and angles (Nelder-Mead restarts)."""
    # the package's only scipy use: importing it here spares every process
    # that never optimizes about half a second of start-up
    from scipy.optimize import minimize

    n = spec.n_modes
    if n != state.n_modes:
        raise ValueError("search spec mode count does not match state")
    rng = np.random.default_rng(spec.seed)
    evals = 0
    exhausted = False
    best_beta = -math.inf
    best_args = None

    lo = np.array([spec.theta_box[0]] * n + [spec.delta_box[0]] * n)
    hi = np.array([spec.theta_box[1]] * n + [spec.delta_box[1]] * n)
    bounds = list(zip(lo, hi))

    for signs in _sign_assignments(n, spec.include_trivial_signs):
        if exhausted:
            break

        def objective(x):
            nonlocal evals
            evals += 1
            return -cfrd_beta(state, x[:n], x[n:], signs)

        for _ in range(spec.restarts):
            remaining = spec.max_evals - evals
            if remaining <= 0:
                exhausted = True
                break
            x0 = lo + rng.random(2 * n) * (hi - lo)
            res = minimize(objective, x0, method="Nelder-Mead", bounds=bounds,
                           options={"xatol": 1e-6, "fatol": 1e-10,
                                    "maxfev": min(remaining, 200 * n)})
            if -res.fun > best_beta:
                best_beta = -res.fun
                best_args = (tuple(res.x[:n]), tuple(res.x[n:]), signs)

    if best_args is None:
        raise ValueError("evaluation budget too small for a single restart")
    thetas, deltas, signs = best_args
    report = cfrd_evaluate(state, QuadratureSettings(thetas, deltas, signs))
    return OptimizeResult(report=report, evaluations=evals,
                          budget_exhausted=exhausted)


def batched_nelder_mead(fn, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                        max_iter: int = 200, fatol: float = 1e-10,
                        xatol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Minimize many independent box-constrained problems in lockstep.

    ``fn`` maps an (..., dim) parameter array to (...) objective values;
    ``x0`` has shape (batch, dim). Standard simplex coefficients
    (reflect 1, expand 2, contract 1/2, shrink 1/2); candidates are clipped
    to the box, matching the scalar optimizer's bound handling. Returns the
    per-problem best point and value.
    """
    x0 = np.asarray(x0, dtype=float)
    batch, dim = x0.shape
    step = 0.05 * (hi - lo)
    x = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        x[:, k + 1, k] = np.clip(x[:, k + 1, k] + step[k], lo[k], hi[k])
    f = fn(x)

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
        fr = fn(xr)

        xe = np.clip(centroid + 2.0 * (centroid - worst), lo, hi)
        fe = fn(xe)
        outside = fr < f[:, -1]
        xc = np.clip(np.where(outside[:, None], centroid + 0.5 * (xr - centroid),
                              centroid - 0.5 * (centroid - worst)), lo, hi)
        fc = fn(xc)

        expand = fr < f[:, 0]
        reflect = ~expand & (fr < f[:, -2])
        take_e = expand & (fe < fr)
        contract_ok = ~expand & ~reflect & np.where(outside, fc <= fr,
                                                    fc < f[:, -1])
        shrink = ~expand & ~reflect & ~contract_ok

        new_worst = np.where(take_e[:, None], xe,
                             np.where(contract_ok[:, None], xc, xr))
        new_fworst = np.where(take_e, fe, np.where(contract_ok, fc, fr))
        keep = expand | reflect | contract_ok
        x[keep, -1] = new_worst[keep]
        f[keep, -1] = new_fworst[keep]

        if shrink.any():
            shrunk = x[:, :1, :] + 0.5 * (x[:, 1:, :] - x[:, :1, :])
            fs = fn(shrunk)
            x[shrink, 1:] = shrunk[shrink]
            f[shrink, 1:] = fs[shrink]

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
    lo = np.array([spec.theta_box[0]] * 2 + [spec.delta_box[0]] * 2)
    hi = np.array([spec.theta_box[1]] * 2 + [spec.delta_box[1]] * 2)
    best = np.full(batch, -np.inf)
    for signs in _sign_assignments(2, spec.include_trivial_signs):

        def objective(x):
            return -beta_from_table(tables if x.ndim == 2 else tables[:, None],
                                    x[..., :2], x[..., 2:], signs)

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
