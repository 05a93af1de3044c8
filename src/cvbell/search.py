"""Settings optimization and family scans.

The settings space mixes a discrete part (the per-mode sign choices) with a
continuous box over (theta, delta). beta is even in the signs, so the
discrete part is one sign pattern per nontrivial bipartition, the one with
s_0 = +1; the continuous part runs seeded Nelder-Mead restarts on each. The
delta box stays strictly inside (-pi/2, pi/2) to avoid the 1/cos blow-up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cfrd import (CfrdReport, QuadratureSettings, beta_from_table,
                   cfrd_evaluate, moment_table, sides_from_moments)
from .structured import make_cat_family

DELTA_MARGIN = 0.05
SIMPLEX_FATOL = 1e-10
SIMPLEX_XATOL = 1e-6


@dataclass(frozen=True)
class SettingsSearchSpec:
    """Search effort: ``restarts`` seeded simplexes per nontrivial bipartition,
    at most ``max_evals`` beta evaluations in all."""
    n_modes: int
    restarts: int = 4
    seed: int = 0
    max_evals: int = 20_000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_evals < 1:
            raise ValueError("evaluation budget must be positive")
        if self.n_modes < 2:
            raise ValueError("a single mode has no nontrivial sign split "
                             "to search")


@dataclass
class OptimizeResult:
    report: CfrdReport
    evaluations: int
    budget_exhausted: bool


def _sign_assignments(n: int):
    """One sign pattern per nontrivial bipartition: s_0 = +1, some s_k = -1.

    Mode by mode B(-s) = B(s)^dag, so <prod B(-s)> = conj <prod B(s)> and the
    rhs does not read s: beta(-s) = beta(s), and -s names the same split.
    """
    for rest in itertools.product((1, -1), repeat=n - 1):
        if -1 in rest:
            yield (1, *rest)


def _box(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the (thetas, deltas) box over n modes."""
    return (np.array([0.0] * n + [-math.pi / 2 + DELTA_MARGIN] * n),
            np.array([2.0 * math.pi] * n + [math.pi / 2 - DELTA_MARGIN] * n))


def optimize_settings(state, spec: SettingsSearchSpec) -> OptimizeResult:
    """Maximize beta over bipartitions and angles (Nelder-Mead restarts).

    Every (sign pattern, restart) pair is one problem of a single batched
    simplex. Its objective, rhs - lhs = -beta, contracts the state's
    ``moment_table`` in one ``sides_from_moments`` call per step, each row
    with its own signs. Points past the ``max_evals``-th read +inf, which
    the simplex never accepts, and the search ends at the first reflection
    call made wholly past the budget. Only as many problems start as the
    budget can give a whole initial simplex, so every problem keeps a finite
    best vertex.
    """
    n = spec.n_modes
    if n != state.n_modes:
        raise ValueError("search spec mode count does not match state")
    signs = list(_sign_assignments(n))
    problems = min(len(signs) * spec.restarts,
                   max(1, spec.max_evals // (2 * n + 1)))
    lo, hi = _box(n)
    rng = np.random.default_rng(spec.seed)
    x0 = lo + rng.random((problems, 2 * n)) * (hi - lo)
    row_signs = np.repeat(signs, spec.restarts, axis=0)[:problems]
    table = moment_table(state)
    evals = 0
    exhausted = False

    def objective(rows, x):
        nonlocal evals, exhausted
        k = x.shape[1]
        # points in row-then-point order; those past the budget read +inf
        count = min(len(x) * k, spec.max_evals - evals)
        exhausted |= count < len(x) * k
        evals += count
        out = np.full(len(x) * k, np.inf)
        points = x.reshape(-1, 2 * n)[:count]
        lhs, rhs = sides_from_moments(table, points[:, :n], points[:, n:],
                                      np.repeat(row_signs[rows], k, axis=0)[:count])
        out[:count] = rhs - lhs
        return out.reshape(len(x), k)

    xbest, fbest = batched_nelder_mead(objective, x0, lo, hi)
    best = int(np.argmin(fbest))
    point = xbest[best].tolist()
    settings = QuadratureSettings(tuple(point[:n]), tuple(point[n:]),
                                  signs[best // spec.restarts])
    return OptimizeResult(report=cfrd_evaluate(state, settings),
                          evaluations=evals, budget_exhausted=exhausted)


def batched_nelder_mead(fn, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Minimize many independent box-constrained problems in lockstep.

    ``fn(rows, x)`` evaluates the problems ``rows`` (``slice(None)`` for
    all of them, else an index array) at points ``x`` of shape
    (len(rows), k, dim) and returns (len(rows), k) values; ``x0`` has shape
    (batch, dim). Standard simplex coefficients (reflect 1, expand 2,
    contract 1/2, shrink 1/2); candidates are clipped to the box. Each
    iteration evaluates the reflection of every problem, one more point
    (expansion or contraction) only for problems whose reflection is not
    accepted, and the shrunk vertices only of problems that shrink. A
    reflection call that returns +inf on every row ends the search: no such
    point is ever accepted, so nothing could change but the shrunk vertices,
    never the best one. The search also ends after ``50 * dim`` iterations,
    or once every simplex has spread below ``SIMPLEX_FATOL`` in value and
    ``SIMPLEX_XATOL`` in position. Returns the per-problem best point and
    value.
    """
    x0 = np.asarray(x0, dtype=float)
    batch, dim = x0.shape
    every = slice(None)
    step = 0.05 * (hi - lo)
    x = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        x[:, k + 1, k] = np.clip(x[:, k + 1, k] + step[k], lo[k], hi[k])
    f = fn(every, x)

    for _ in range(50 * dim):
        order = np.argsort(f, axis=1)
        f = np.take_along_axis(f, order, axis=1)
        x = np.take_along_axis(x, order[:, :, None], axis=1)
        spread = f[:, -1] - f[:, 0]
        if ((spread < SIMPLEX_FATOL).all()
                and (np.abs(x - x[:, :1, :]) < SIMPLEX_XATOL).all()):
            break

        centroid = x[:, :-1, :].mean(axis=1)
        worst = x[:, -1, :]
        xr = np.clip(centroid + (centroid - worst), lo, hi)
        fr = fn(every, xr[:, None])[:, 0]
        if np.isinf(fr).all():
            break
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
    Mirrors ``optimize_settings`` (seeded simplex restarts on the one
    nontrivial bipartition, signs (1, -1)) but runs every state in one
    vectorized pass, one simplex per restart. It reads only ``n_modes``,
    ``restarts`` and ``seed`` of ``spec``; ``max_evals`` is not applied.
    """
    if spec.n_modes != 2:
        raise ValueError("batch sweep is specific to two modes")
    batch = tables.shape[0]
    rng = np.random.default_rng(spec.seed)
    lo, hi = _box(2)
    [signs] = _sign_assignments(2)

    def objective(rows, x):
        return -beta_from_table(tables[rows, None], x[..., :2], x[..., 2:], signs)

    best = np.full(batch, -np.inf)
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


# A scan candidate must beat the best ratio by more than this to replace it.
# Ratios that tie up to rounding (every grid point at odd n, where lhs is 0;
# every sign pattern at large alpha, where they differ by e^{-2n|alpha|^2})
# then keep the first candidate in grid-then-sign order.
SCAN_TIE_TOLERANCE = 1e-12


def scan_cat_family(n_range: Sequence[int], alpha_grid: Sequence[complex],
                    sign: int) -> list[ScanRow]:
    """Best lhs/rhs ratio over the alpha grid for each mode count (delta=0).

    The cat is symmetric in its modes, so at delta = 0 the functional reads
    the signs only through the count m of -1 labels, and it is even in them:
    m = 1..n//2 covers every split. A single mode has none; (1,) stands for
    both of its labels. Each alpha's patterns are one ``sides_from_moments``
    call on the cat's ``moment_table``.
    """
    if len(alpha_grid) == 0:
        raise ValueError("alpha grid must hold at least one point")
    rows = []
    for n in n_range:
        best: ScanRow | None = None
        choices = [(1,) * (n - m) + (-1,) * m for m in range(1, n // 2 + 1)] or [(1,)]
        for alpha in alpha_grid:
            lhs, rhs = sides_from_moments(
                moment_table(make_cat_family(n, alpha, sign)), 0.0, 0.0,
                np.array(choices))
            for signs, left, right in zip(choices, lhs.tolist(), rhs.tolist()):
                ratio = left / right
                if best is None or ratio > best.ratio + SCAN_TIE_TOLERANCE:
                    best = ScanRow(n=n, alpha=complex(alpha), lhs=left, rhs=right,
                                   ratio=ratio, beta=left - right, signs=signs)
        rows.append(best)
    return rows
