"""Settings optimization and family scans.

The settings space mixes a discrete part (the per-mode sign choices) with a
continuous box over (theta, delta). beta is even in the signs, so the
discrete part is one sign pattern per nontrivial bipartition, the one with
s_0 = +1; the continuous part runs an exact block-coordinate ascent from
seeded starts on each. With the other modes fixed, beta reads mode k only
through one contraction of the moment table that leaves mode k open
(``cfrd._open_mode``): from it, beta is a + Re(b e^{2i theta_k}) in each
theta_k and A / cos + B + C cos + D sin in each delta_k, with every
coefficient in closed form, so each mode step has an exact maximizer and
needs no probe. Below the public API the angles enter only as their
``cfrd._bogoliubov`` rows, which the ascent keeps beside them. Every ascent
reads one ``cfrd.MomentTable`` with ``cfrd._contract``: a state's own
table, which all its problems share, or a per-point table with one two-mode
table per problem, as the two-mode batch stacks its states. The cat scan
stacks per-point term-pair tables in the same way, one per (alpha, sign
pattern) point of a chunk of its grid, and reads each chunk in one
``cfrd._sides`` contraction. The delta box stays strictly inside
(-pi/2, pi/2) to avoid the 1/cos blow-up.
``batched_nelder_mead`` is a batched box-constrained simplex that no search
calls; it stays importable because ``perfbench/spans.py`` traces it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cfrd import (_CONTRACT_BATCH_ENTRIES, CfrdReport, MomentTable,
                   QuadratureSettings, _bogoliubov, _finite, _open_mode, _sides,
                   _two_mode_blocks, cfrd_evaluate, moment_table)
from .structured import make_cat_family

DELTA_MARGIN = 0.05
SIMPLEX_FATOL = 1e-10
SIMPLEX_XATOL = 1e-6


@dataclass(frozen=True)
class SettingsSearchSpec:
    """Search effort: ``restarts`` seeded ascent starts per nontrivial
    bipartition, at most ``max_evals`` evaluations in all. An evaluation is
    one problem's beta at one point, or one problem's open contraction of a
    mode (``cfrd._open_mode``); each mode step costs 2."""
    n_modes: int
    restarts: int = 4
    seed: int = 0
    max_evals: int = 20_000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_evals < 1:
            raise ValueError("evaluation budget must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    call, from seeded starts in the ``_box``, on the state's one
    ``moment_table`` and with each problem's own signs. ``max_evals`` caps
    the evaluations: only as many problems start as it can evaluate once,
    so only the sign patterns those problems use are formed, and the ascent
    ends at the step it cannot pay for in full, which sets
    ``budget_exhausted``.
    """
    n = spec.n_modes
    if n != state.n_modes:
        raise ValueError("search spec mode count does not match state")
    problems = min((2 ** (n - 1) - 1) * spec.restarts, spec.max_evals)
    signs = list(itertools.islice(_sign_assignments(n), -(-problems // spec.restarts)))
    lo, hi = _box(n)
    rng = np.random.default_rng(spec.seed)
    x0 = lo + rng.random((problems, 2 * n)) * (hi - lo)
    plus = np.equal(signs, 1)[np.arange(problems) // spec.restarts]
    x, f, evals, exhausted = _ascend(moment_table(state), plus, x0, spec.max_evals)
    best = int(np.argmax(f))
    point = x[best].tolist()
    settings = QuadratureSettings(tuple(point[:n]), tuple(point[n:]),
                                  signs[best // spec.restarts])
    return OptimizeResult(report=cfrd_evaluate(state, settings),
                          evaluations=evals, budget_exhausted=exhausted)


# a sweep that raises a problem's beta by no more than this, relative to
# max(1, |beta|), ends its ascent
ASCENT_RTOL = 1e-12
ASCENT_SWEEPS = 100
# beta = A / cos(delta) + B + C cos(delta) + D sin(delta) in each delta_k has
# at most three maxima on the box; its best point on this grid seeds Newton
# steps on the stationary equation
_DELTA_GRID = np.linspace(-math.pi / 2 + DELTA_MARGIN, math.pi / 2 - DELTA_MARGIN,
                          129)
_DELTA_GRID_BASIS = np.stack((1.0 / np.cos(_DELTA_GRID), np.cos(_DELTA_GRID),
                              np.sin(_DELTA_GRID)))
_NEWTON_STEPS = 4


def _delta_step(acd: np.ndarray) -> np.ndarray:
    """delta maximizing A / cos + C cos + D sin on the box, one row (A, C, D)
    per problem. The stationary points solve g = beta' cos^2
    = A sin - C sin cos^2 + D cos^3 = 0, and g' = beta'' cos^2 there; Newton's
    steps on g start at the grid's best point and are kept only where they
    end higher."""
    start = _DELTA_GRID[np.argmax(acd @ _DELTA_GRID_BASIS, axis=1)]
    a, c, d = acd.T

    def model(delta):
        return a / np.cos(delta) + c * np.cos(delta) + d * np.sin(delta)

    delta = start
    for _ in range(_NEWTON_STEPS):
        sin, cos = np.sin(delta), np.cos(delta)
        g = (a - c * cos * cos) * sin + d * cos ** 3
        slope = (a - c * (cos * cos - 2 * sin * sin) - 3 * d * cos * sin) * cos
        # a step only where g falls, i.e. towards a maximum
        delta = np.clip(delta - g / np.where(slope < 0, slope, -np.inf),
                        _DELTA_GRID[0], _DELTA_GRID[-1])
    return np.where(model(delta) >= model(start), delta, start)


def _mode_step(forward: np.ndarray, rhs: np.ndarray, r: np.ndarray,
               delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mode k's new (theta_k, delta_k) from its open contraction
    (``cfrd._open_mode``: F, G and r), one row per problem, at its current
    delta_k. ``_bogoliubov``'s u = (1 + e)/(2 sqrt c), v = z (1 - e*)/(2
    sqrt c) and w = z* (1 - e^2)/4, with e = e^{-i delta}, c = cos delta and
    z = e^{2i theta}, and H = G_2 + G_3* give
      - beta = a + Re(b z) in theta_k, with
        b ~ ((1 + e) F_0)* (1 - e*) F_1 - ((1 - e^2) H)* / (2 r),
        so theta_k = -arg(b)/2 is exact;
      - at that z, beta = A / c + B + C cos delta + D sin delta in delta_k,
        with p = F_0* z F_1, h = z* H / (2 r) and g_m = Re G_m / r:
        A = (|F_0|^2 + |F_1|^2)/2 + Re(p - h) - g_0 - g_1, C = Re(h - p)
        and D = Im(p + h); B does not read delta_k. So beta cos delta, a
        degree-2 trigonometric polynomial, has no sin(delta) term.
    """
    e = np.exp(-1j * delta)
    f0, f1 = forward.T
    h = (rhs[:, 2] + rhs[:, 3].conj()) / (2.0 * r)
    b = ((1.0 + e) * f0).conj() * (1.0 - e.conj()) * f1 - ((1.0 - e * e) * h).conj()
    theta = (-0.5 * np.angle(b)) % (2 * math.pi)
    z = np.exp(2j * theta)
    p = f0.conj() * z * f1
    h = z.conj() * h
    acd = np.stack((0.5 * (np.abs(f0) ** 2 + np.abs(f1) ** 2) + (p - h).real
                    - (rhs[:, 0].real + rhs[:, 1].real) / r,
                    (h - p).real, (p + h).imag), axis=-1)
    return theta, _delta_step(acd)


def _ascend(table, plus: np.ndarray, x: np.ndarray, max_evals: float = math.inf):
    """Maximize many problems over their (thetas, deltas), x of shape
    (P, 2n), by exact block-coordinate ascent.

    ``table`` is one ``MomentTable`` that every problem reads, or a
    per-point one with a table per problem; ``plus`` (s == 1) holds one
    sign row per problem, or one row that every problem shares. The
    problems' ``_bogoliubov`` rows are formed once and kept beside x. Each
    sweep slices the table and signs of the active problems once, and takes
    one step per mode: ``_mode_step`` reads the exact theta_k and then
    delta_k from one open contraction (``cfrd._open_mode``) of the rows,
    and one ``cfrd._sides`` evaluation of a copy of them with mode k's new
    row is kept only if beta has not fallen; so beta never falls, and each
    value is that of ``_sides`` at the point. Each contraction counts as one
    evaluation per problem. A problem stops after a sweep that raises its
    beta by at most ``ASCENT_RTOL * max(1, |beta|)``, and all stop after
    ``ASCENT_SWEEPS``. A step whose evaluations would pass ``max_evals``
    covers only the first problems the rest of the budget pays for, and
    ends the ascent. Returns the points, their beta, the evaluations made
    and whether ``max_evals`` stopped the ascent.
    """
    x = np.array(x, dtype=float)
    n = x.shape[1] // 2
    plus = np.broadcast_to(plus, (len(x), n))
    rows = np.arange(len(x))
    bogo = _bogoliubov(x[:, :n], x[:, n:])
    evals = len(x)
    with _finite():
        _, lhs, rhs = _sides(table, *bogo, plus)
        f = lhs - rhs
        for _ in range(ASCENT_SWEEPS):
            before = f[rows]
            active = table.at(rows), plus[rows]
            for k in range(n):
                part = rows[:int(min(len(rows), (max_evals - evals) // 2))]
                if part.size == 0:
                    return x, f, evals, True
                evals += 2 * len(part)
                step_table, step_plus = (active if part.size == rows.size
                                         else (table.at(part), plus[part]))
                candidate = [b[part] for b in bogo]
                theta, delta = _mode_step(
                    *_open_mode(step_table, candidate, step_plus, k), x[part, n + k])
                for b, new in zip(candidate, _bogoliubov(theta, delta)):
                    b[:, k] = new
                _, lhs, rhs = _sides(step_table, *candidate, step_plus)
                value = lhs - rhs
                keep = value >= f[part]
                kept = part[keep]
                x[kept, k], x[kept, n + k] = theta[keep], delta[keep]
                f[kept] = value[keep]
                for b, c in zip(bogo, candidate):
                    b[kept] = c[keep]
                if part.size < rows.size:
                    return x, f, evals, True
            rows = rows[f[rows] - before
                        > ASCENT_RTOL * np.maximum(1.0, np.abs(f[rows]))]
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
    the working memory that of one start. The ascent reads the per-point
    ``MomentTable`` of the tables' ``_two_mode_blocks``, one table per
    state. It reads only ``n_modes``, ``restarts`` and ``seed`` of
    ``spec``; ``max_evals`` is not applied.
    """
    if spec.n_modes != 2:
        raise ValueError("batch sweep is specific to two modes")
    table = _two_mode_blocks(tables)
    rng = np.random.default_rng(spec.seed)
    lo, hi = _box(2)
    [signs] = _sign_assignments(2)
    best = np.full(len(tables), -np.inf)
    for _ in range(spec.restarts):
        x0 = lo + rng.random((len(tables), 4)) * (hi - lo)
        best = np.maximum(best, _ascend(table, np.equal([signs], 1), x0)[1])
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
    both of its labels. For each mode count, the cats' ``moment_table``s of
    a chunk of alphas, each repeated once per pattern, stack into one
    per-point table of about ``_CONTRACT_BATCH_ENTRIES`` entries, and the
    chunk is one ``cfrd._sides`` contraction at theta = delta = 0. Rows are
    read in grid-then-pattern order.
    """
    if len(alpha_grid) == 0:
        raise ValueError("alpha grid must hold at least one point")
    rows = []
    for n in n_range:
        best: ScanRow | None = None
        choices = [(1,) * (n - m) + (-1,) * m for m in range(1, n // 2 + 1)] or [(1,)]
        # a cat's table holds 4 term pairs x n modes x 6 monomials
        step = max(1, _CONTRACT_BATCH_ENTRIES // (len(choices) * 24 * n))
        for lo in range(0, len(alpha_grid), step):
            alphas = alpha_grid[lo:lo + step]
            tables = [moment_table(make_cat_family(n, alpha, sign)) for alpha in alphas]
            table = MomentTable(*(np.repeat(np.stack(blocks), len(choices), axis=0)
                                  for blocks in zip(*[(t.weights, t.forward, t.rhs)
                                                      for t in tables])),
                                per_point=True)
            zeros = np.zeros((len(table.weights), n))
            with _finite():
                _, lhs, rhs = _sides(table, *_bogoliubov(zeros, zeros),
                                     np.tile(np.equal(choices, 1), (len(alphas), 1)))
            for i, (left, right) in enumerate(zip(lhs.tolist(), rhs.tolist())):
                ratio = left / right
                if best is None or ratio > best.ratio + SCAN_TIE_TOLERANCE:
                    best = ScanRow(n=n, alpha=complex(alphas[i // len(choices)]),
                                   lhs=left, rhs=right, ratio=ratio,
                                   beta=left - right,
                                   signs=choices[i % len(choices)])
        rows.append(best)
    return rows
