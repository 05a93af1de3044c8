"""Settings optimization and family scans.

The settings space mixes a discrete part (the per-mode sign choices) with a
continuous box over (theta, delta). beta is even in the signs, so the
discrete part is one sign pattern per nontrivial bipartition, the one with
s_0 = +1; the continuous part runs an exact block-coordinate ascent from
seeded starts on each. With the other angles fixed, beta is a + Re(b e^{2i
theta_k}) in each theta_k and beta cos(delta_k) is a degree-2 trigonometric
polynomial in each delta_k, so each coordinate step has a closed-form
maximizer. The delta box stays strictly inside (-pi/2, pi/2) to avoid the
1/cos blow-up. ``batched_nelder_mead`` is a batched box-constrained simplex
that no search calls; it stays importable because ``perfbench/spans.py``
traces it.
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
    """Search effort: ``restarts`` seeded ascent starts per nontrivial
    bipartition, at most ``max_evals`` beta evaluations in all."""
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
    """Maximize beta over bipartitions and angles by exact coordinate ascent.

    Every (sign pattern, restart) pair is one problem of a single ``_ascend``
    call, from seeded starts in the ``_box``. Its objective contracts the
    state's ``moment_table`` in one ``sides_from_moments`` call per step, each
    row with its own signs. ``max_evals`` caps the evaluations: only as many
    problems start as it can evaluate once, and the ascent ends at the step
    it cannot pay for in full, which sets ``budget_exhausted``.
    """
    n = spec.n_modes
    if n != state.n_modes:
        raise ValueError("search spec mode count does not match state")
    signs = list(_sign_assignments(n))
    problems = min(len(signs) * spec.restarts, spec.max_evals)
    lo, hi = _box(n)
    rng = np.random.default_rng(spec.seed)
    x0 = lo + rng.random((problems, 2 * n)) * (hi - lo)
    row_signs = np.repeat(signs, spec.restarts, axis=0)[:problems, None]
    table = moment_table(state)

    def beta(rows, x):
        lhs, rhs = sides_from_moments(table, x[..., :n], x[..., n:], row_signs[rows])
        return lhs - rhs

    x, f, evals, exhausted = _ascend(beta, x0, n, spec.max_evals)
    best = int(np.argmax(f))
    point = x[best].tolist()
    settings = QuadratureSettings(tuple(point[:n]), tuple(point[n:]),
                                  signs[best // spec.restarts])
    return OptimizeResult(report=cfrd_evaluate(state, settings),
                          evaluations=evals, budget_exhausted=exhausted)


# The ascent's two exact steps on one mode k, all else fixed:
#   - beta = a + Re(b e^{2i theta_k}): u does not read theta, v ~ e^{2i theta}
#     and w ~ e^{-2i theta}, so lhs = |F|^2 with F affine in one of e^{+-2i
#     theta_k}, and rhs is affine in both. Three values a third of a turn
#     apart in 2 theta_k give b;
#   - beta cos(delta_k) = c . (1, cos, sin, cos 2, sin 2)(delta_k): u and v
#     carry 1/sqrt(cos delta) and w ~ 1 - e^{-2i delta}. Five values fix c.
_THETA_PROBES = np.array([math.pi / 3, 2 * math.pi / 3])
_DELTA_PROBES = np.array([0.0, -0.6, 0.6, -1.2, 1.2])
# a sweep that raises a problem's beta by no more than this, relative to
# max(1, |beta|), ends its ascent
ASCENT_RTOL = 1e-12
ASCENT_SWEEPS = 100
# beta cos(delta) / cos(delta) has at most three maxima on the box; its
# best point on this grid seeds Newton steps on the stationary equation
_DELTA_GRID_POINTS = 129
_NEWTON_STEPS = 4


def _trig_basis(deltas: np.ndarray) -> np.ndarray:
    return np.stack((np.ones_like(deltas), np.cos(deltas), np.sin(deltas),
                     np.cos(2 * deltas), np.sin(2 * deltas)), axis=-1)


_DELTA_GRID = np.linspace(-math.pi / 2 + DELTA_MARGIN, math.pi / 2 - DELTA_MARGIN,
                          _DELTA_GRID_POINTS)
_DELTA_GRID_BASIS = _trig_basis(_DELTA_GRID) / np.cos(_DELTA_GRID)[:, None]


def _theta_step(probe, theta, current):
    """theta maximizing a + Re(b e^{2i theta}), from the values at theta
    (``current``) and at theta + _THETA_PROBES."""
    b = current + probe(theta[:, None] + _THETA_PROBES) @ np.exp(-2j * _THETA_PROBES)
    return (theta - np.angle(b) / 2) % (2 * math.pi)


def _delta_coefficients(p: np.ndarray) -> np.ndarray:
    """c with P = c . (1, cos, sin, cos 2, sin 2), from P at the probes
    (0, -a, a, -2a, 2a) of _DELTA_PROBES, one row per problem.

    With x = cos(delta), P = Q(x) + sin(delta) L(x), where
    Q = c0 - c3 + c1 x + 2 c3 x^2 and L = c2 + 2 c4 x. The even parts of the
    values are Q at x = 1, cos a, cos 2a and the odd parts give L at cos a,
    cos 2a, so divided differences fix both.
    """
    (x0, x1, x2), (s1, s2) = np.cos(_DELTA_PROBES[::2]), np.sin(_DELTA_PROBES[2::2])
    q0, q1, q2 = p[:, 0], (p[:, 1] + p[:, 2]) / 2, (p[:, 3] + p[:, 4]) / 2
    l1, l2 = (p[:, 2] - p[:, 1]) / (2 * s1), (p[:, 4] - p[:, 3]) / (2 * s2)
    q01 = (q1 - q0) / (x1 - x0)
    q012 = ((q2 - q1) / (x2 - x1) - q01) / (x2 - x0)
    l12 = (l2 - l1) / (x2 - x1)
    return np.stack((q0 - q01 * x0 + q012 * (x0 * x1 + 0.5), q01 - q012 * (x0 + x1),
                     l1 - l12 * x1, 0.5 * q012, 0.5 * l12), axis=-1)


def _delta_step(probe, delta, _current):
    """delta maximizing P(delta) / cos(delta) on the box, P fitted to beta
    cos(delta) at _DELTA_PROBES. The stationary points solve
    g = P' cos + P sin = 0, where g' = (P + P'') cos; Newton's steps on g
    start at the grid's best point and are kept only where they end higher."""
    values = probe(np.broadcast_to(_DELTA_PROBES, (len(delta), len(_DELTA_PROBES))))
    c = _delta_coefficients(values * np.cos(_DELTA_PROBES))
    start = _DELTA_GRID[np.argmax(c @ _DELTA_GRID_BASIS.T, axis=1)]
    c0, _, c2, c3, c4 = c.T
    d = start
    for _ in range(_NEWTON_STEPS):
        sin, cos = np.sin(d), np.cos(d)
        g = (c2 + c0 * sin - 0.5 * c3 * (np.sin(3 * d) + 3 * sin)
             + 0.5 * c4 * (np.cos(3 * d) + 3 * cos))
        slope = (c0 - 3 * c3 * np.cos(2 * d) - 3 * c4 * np.sin(2 * d)) * cos
        # a step only where g falls, i.e. towards a maximum
        d = np.clip(d - g / np.where(slope < 0, slope, -np.inf),
                    _DELTA_GRID[0], _DELTA_GRID[-1])

    def model(d):
        return (_trig_basis(d) * c).sum(axis=-1) / np.cos(d)

    return np.where(model(d) >= model(start), d, start)


def _ascend(fn, x: np.ndarray, n: int, max_evals: float = math.inf):
    """Maximize many problems over their (thetas, deltas), x of shape
    (P, 2n), by exact block-coordinate ascent.

    ``fn(rows, x)`` evaluates beta for the problems ``rows`` (an index
    array) at points ``x`` of shape (len(rows), k, 2n) and returns
    (len(rows), k) values. A sweep takes each mode's theta step (2 probes)
    and delta step (5 probes), each followed by one evaluation at its
    candidate, which is kept only if beta has not fallen; so beta never
    falls. A problem stops after a sweep that raises its beta by at most
    ``ASCENT_RTOL * max(1, |beta|)``, and all stop after ``ASCENT_SWEEPS``.
    A step whose evaluations would pass ``max_evals`` covers only the first
    problems the rest of the budget pays for, and ends the ascent. Returns
    the points, their beta, the evaluations made and whether ``max_evals``
    stopped the ascent.
    """
    x = np.array(x, dtype=float)
    rows = np.arange(len(x))
    f = fn(rows, x[:, None])[:, 0]
    evals = len(x)
    # mode by mode, its theta step and then its delta step: (column, step,
    # evaluations per problem)
    steps = [(col, step, len(probes) + 1) for k in range(n) for col, step, probes
             in ((k, _theta_step, _THETA_PROBES), (n + k, _delta_step, _DELTA_PROBES))]
    for _ in range(ASCENT_SWEEPS):
        before = f[rows]
        for col, step, cost in steps:
            part = rows[:int(min(len(rows), (max_evals - evals) // cost))]
            if part.size == 0:
                return x, f, evals, True
            evals += cost * len(part)
            here = x[part]

            def probe(points):
                at = np.repeat(here[:, None], points.shape[1], axis=1)
                at[..., col] = points
                return fn(part, at)

            candidate = here.copy()
            candidate[:, col] = step(probe, here[:, col], f[part])
            value = fn(part, candidate[:, None])[:, 0]
            keep = value >= f[part]
            x[part[keep]] = candidate[keep]
            f[part[keep]] = value[keep]
            if part.size < rows.size:
                return x, f, evals, True
        rows = rows[f[rows] - before > ASCENT_RTOL * np.maximum(1.0, np.abs(f[rows]))]
        if rows.size == 0:
            break
    return x, f, evals, False


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
    Mirrors ``optimize_settings`` (seeded ascent starts on the one
    nontrivial bipartition, signs (1, -1)) but runs every state in one
    vectorized ascent per start; the starts run one at a time, which keeps
    the working memory that of one start. It reads only ``n_modes``,
    ``restarts`` and ``seed`` of ``spec``; ``max_evals`` is not applied.
    """
    if spec.n_modes != 2:
        raise ValueError("batch sweep is specific to two modes")
    batch = tables.shape[0]
    rng = np.random.default_rng(spec.seed)
    lo, hi = _box(2)
    [signs] = _sign_assignments(2)

    def beta(rows, x):
        return beta_from_table(tables[rows, None], x[..., :2], x[..., 2:], signs)

    best = np.full(batch, -np.inf)
    for _ in range(spec.restarts):
        x0 = lo + rng.random((batch, 4)) * (hi - lo)
        best = np.maximum(best, _ascend(beta, x0, 2)[1])
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
