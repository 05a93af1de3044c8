"""The two-quadrature Bell functional for arbitrary settings.

Per mode k the two measured quadratures are
    X_k = a e^{-i theta} + a^dag e^{i theta},
    Y_k = a e^{-i(theta+delta+s pi/2)} + a^dag e^{i(theta+delta+s pi/2)},
with |delta| < pi/2 and s = +-1. The derived mode operators
b = u a + v a^dag satisfy [b, b^dag] = 1 and turn the variance-based LHV
bound into

    |<prod_k B_k(s_k)>|^2 <= (1/prod cos d_k) <prod_k (cos d_k N_k + 1/2)>,

with B_k(1) = b_k, B_k(-1) = b_k^dag and N_k = b_k^dag b_k. The right-hand
side splits into a nonnegative lower-order part S^2 plus <prod N_k>, so any
violation forces the 2x2 moment minor

    D^I = <prod N_k> - <prod B_k(s_k)><prod B_k(-s_k)>

negative, where the transposed set I collects the modes with s_k = -1.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalConsistencyError, SettingsError
from .fock import DenseState, product_operator_expectation  # noqa: F401  (kept importable from cfrd)
from .moments import poly_expectations
from .structured import NormalOrderedPoly

VIOLATION_THRESHOLD = 1e-9


@dataclass(frozen=True)
class QuadratureSettings:
    """Per-mode (theta, delta, s) measurement angles."""

    thetas: tuple[float, ...]
    deltas: tuple[float, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.thetas)
        if len(self.deltas) != n or len(self.signs) != n:
            raise SettingsError("thetas, deltas, signs must have equal length")
        if n < 1:
            raise SettingsError("at least one mode required")
        if not all(math.isfinite(t) for t in self.thetas):
            raise SettingsError("thetas must be finite")
        for d in self.deltas:
            if not abs(d) < math.pi / 2:
                raise SettingsError(
                    "|delta| must be < pi/2: the endpoint corresponds to "
                    "measuring only one quadrature")
        for s in self.signs:
            if s not in (1, -1):
                raise SettingsError("signs must be +1 or -1")

    @property
    def n_modes(self) -> int:
        return len(self.thetas)

    @property
    def bipartition(self) -> frozenset[int]:
        return frozenset(k for k, s in enumerate(self.signs) if s == -1)

    @property
    def trivial_bipartition(self) -> bool:
        return len(self.bipartition) in (0, self.n_modes)


def _uv(theta: float, delta: float) -> tuple[complex, complex]:
    root = 2.0 * math.sqrt(math.cos(delta))
    u = (1.0 + cmath.exp(-1j * delta)) / root
    v = cmath.exp(2j * theta) * (1.0 - cmath.exp(1j * delta)) / root
    return u, v


def mode_transform(settings: QuadratureSettings,
                   ) -> tuple[tuple[complex, complex], ...]:
    """Coefficients (u, v) of b = u a + v a^dag for each mode (independent of
    s); |u|^2 - |v|^2 = 1 holds by construction."""
    return tuple(_uv(theta, delta)
                 for theta, delta in zip(settings.thetas, settings.deltas))


@dataclass
class CfrdReport:
    lhs: float
    rhs: float
    s_squared: float
    product_number_moment: float
    minor_d: float
    bipartition: frozenset[int]
    beta: float
    violated: bool
    trivial_bipartition: bool
    mean_forward: complex
    mean_reverse: complex
    settings: QuadratureSettings


def _quadrature_polys(theta: float, delta: float, s: int,
                      ) -> tuple[NormalOrderedPoly, NormalOrderedPoly]:
    """The two quadratures X and Y as normal-ordered polynomials."""
    phi = theta + delta + s * math.pi / 2
    return tuple(NormalOrderedPoly({(0, 1): cmath.exp(-1j * angle),
                                    (1, 0): cmath.exp(1j * angle)})
                 for angle in (theta, phi))


def quadrature_matrices(d: int, theta: float, delta: float, s: int,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Truncated d x d matrices of the two quadratures X and Y."""
    x, y = _quadrature_polys(theta, delta, s)
    return x.to_matrix(d), y.to_matrix(d)


def _real_part(value: complex, what: str, tol: float = 1e-8) -> float:
    if abs(value.imag) > tol * max(1.0, abs(value)):
        raise NumericalConsistencyError(f"{what} = {value} has non-real residue")
    return value.real


def _mode_polys(theta: float, delta: float) -> tuple[NormalOrderedPoly, ...]:
    """(b, b^dag, N_b, cos_delta*N_b + 1/2) for one mode's angles."""
    u, v = _uv(theta, delta)
    c = math.cos(delta)
    ubar, vbar = u.conjugate(), v.conjugate()
    # N_b = b^dag b = (|u|^2 + |v|^2) N + u* v a^dag^2 + u v* a^2 + |v|^2,
    # summed in the order of the product b^dag * b, so values keep its bits
    n_b = {(1, 1): ubar * u + vbar * v, (2, 0): ubar * v, (0, 2): vbar * u,
           (0, 0): vbar * v}
    rhs = {key: c * value for key, value in n_b.items()}
    rhs[(0, 0)] += 0.5
    b = NormalOrderedPoly({(0, 1): u, (1, 0): v})
    return b, b.dagger(), NormalOrderedPoly(n_b), NormalOrderedPoly(rhs)


def _b_pick(polys, signs: Sequence[int]) -> dict[int, NormalOrderedPoly]:
    """prod_k B_k(s_k): b_k where s_k = +1, b_k^dag where s_k = -1."""
    return {k: polys[k][0] if s == 1 else polys[k][1] for k, s in enumerate(signs)}


def cfrd_evaluate(state, settings: QuadratureSettings,
                  expand_s_squared: bool = True) -> CfrdReport:
    """Evaluate the Bell functional and its moment-minor companion.

    With ``expand_s_squared`` the lower-order part is summed term by term
    over mode subsets (an independent check of the identity
    rhs = S^2 + <prod N>); otherwise it is taken as the difference.
    """
    return cfrd_evaluate_many(state, [settings], expand_s_squared)[0]


def cfrd_evaluate_many(state, settings_seq: Sequence[QuadratureSettings],
                       expand_s_squared: bool = True) -> list[CfrdReport]:
    """``cfrd_evaluate`` for each settings, in one moment call.

    Per-mode polynomials are built once for each distinct (theta, delta), so
    settings that share angles share their moments' single-mode work.
    """
    n = state.n_modes
    mode_polys = functools.cache(_mode_polys)  # lives for this call only
    subsets = []
    if expand_s_squared:
        subsets = [subset for size in range(n)
                   for subset in itertools.combinations(range(n), size)]
    picks = []
    for settings in settings_seq:
        if settings.n_modes != n:
            raise SettingsError("settings length does not match state mode count")
        polys = [mode_polys(theta, delta)
                 for theta, delta in zip(settings.thetas, settings.deltas)]
        picks += [_b_pick(polys, settings.signs),
                  _b_pick(polys, [-s for s in settings.signs]),
                  {k: p[2] for k, p in enumerate(polys)},
                  {k: p[3] for k, p in enumerate(polys)}]
        picks += [{k: polys[k][2] for k in subset} for subset in subsets]
    values = poly_expectations(state, picks)
    width = 4 + len(subsets)
    return [_report(settings, subsets, values[k * width:(k + 1) * width])
            for k, settings in enumerate(settings_seq)]


def _report(settings: QuadratureSettings, subsets, values) -> CfrdReport:
    """One settings' report from its picks' values, in ``cfrd_evaluate_many`` order."""
    n = settings.n_modes
    cos_all = [math.cos(d) for d in settings.deltas]
    cos_prod = math.prod(cos_all)
    mean_fwd, mean_rev, prod_n, rhs, *terms = values

    lhs = abs(mean_fwd) ** 2
    prod_n = _real_part(prod_n, "<prod N>")
    rhs = _real_part(rhs, "rhs product") / cos_prod
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NumericalConsistencyError(
            f"functional not finite: lhs = {lhs}, rhs = {rhs}")

    if subsets:
        s_squared = 0.0
        for subset, term in zip(subsets, terms):
            weight = (0.5 ** (n - len(subset))
                      * math.prod(cos_all[k] for k in subset) / cos_prod)
            s_squared += weight * _real_part(term, "S^2 term")
    else:
        s_squared = rhs - prod_n

    minor_d = prod_n - _real_part(mean_fwd * mean_rev, "minor cross term")
    beta = lhs - rhs
    return CfrdReport(
        lhs=lhs, rhs=rhs, s_squared=s_squared, product_number_moment=prod_n,
        minor_d=minor_d, bipartition=settings.bipartition, beta=beta,
        violated=beta > VIOLATION_THRESHOLD,
        trivial_bipartition=settings.trivial_bipartition,
        mean_forward=mean_fwd, mean_reverse=mean_rev, settings=settings)


def cfrd_beta(state, thetas: Sequence[float], deltas: Sequence[float],
              signs: Sequence[int]) -> float:
    """lhs - rhs only; the lean objective for settings optimization."""
    settings = QuadratureSettings(tuple(thetas), tuple(deltas), tuple(signs))
    polys = [_mode_polys(theta, delta)
             for theta, delta in zip(settings.thetas, settings.deltas)]
    fwd, rhs = poly_expectations(state, [_b_pick(polys, settings.signs),
                                         {k: p[3] for k, p in enumerate(polys)}])
    cos_all = [math.cos(d) for d in settings.deltas]
    return abs(fwd) ** 2 - rhs.real / math.prod(cos_all)


# ---------------------------------------------------------------------------
# vectorized two-mode fast path
#
# Every moment entering beta on two modes is a bilinear combination of the
# 36 pair moments <O_1 O_2> with O drawn from {1, a, a^dag, N, a^2, a^dag^2}.
# Precomputing that table once per state turns each beta evaluation into a
# closed form over the few entries that can be nonzero, which is what makes
# large randomized sweeps affordable on one core. With c = cos(delta):
#   - B(+1) = b has coefficients (u, v) on (a, a^dag), and B(-1) = b^dag has
#     (v*, u*), so <prod B> reads only the 2x2 block of {a, a^dag};
#   - c N_b + 1/2 has coefficients (1 - c/2, 1, w, w*) on (1, N, a^2, a^dag^2)
#     with w = c u v* = e^{-2i theta} (1 - e^{-2i delta}) / 4, using
#     c |v|^2 + 1/2 = 1 - c/2 and c (|u|^2 + |v|^2) = 1, so the rhs product
#     reads only the 4x4 block of {1, N, a^2, a^dag^2}.

_TABLE_EXPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0))


def two_mode_moment_table(state) -> np.ndarray:
    """6x6 table of pair moments feeding ``beta_from_table``.

    Ordering: (identity, a, a^dag, a^dag a, a^2, a^dag^2) on each mode.
    """
    if state.n_modes != 2:
        raise SettingsError("moment table requires exactly two modes")
    ops = [NormalOrderedPoly({qp: 1.0}) for qp in _TABLE_EXPONENTS]
    # index 0 is the identity, which a pick leaves out
    picks = [{mode: ops[i] for mode, i in enumerate(pair) if i}
             for pair in itertools.product(range(6), repeat=2)]
    return np.array(poly_expectations(state, picks)).reshape(6, 6)


def beta_from_table(table: np.ndarray, thetas: np.ndarray, deltas: np.ndarray,
                    signs: Sequence[int]) -> np.ndarray:
    """Vectorized beta for one or many settings against a fixed moment table.

    ``table`` has shape (..., 6, 6) (a leading batch axis pairs each settings
    row with its own state); ``thetas`` and ``deltas`` have shape (..., 2).
    """
    thetas = np.asarray(thetas, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if np.any(np.abs(deltas) >= math.pi / 2):
        raise SettingsError("|delta| must stay strictly inside (-pi/2, pi/2)")
    phase_d = np.exp(-1j * deltas)
    cosd = phase_d.real
    root = 2.0 * np.sqrt(cosd)
    phase_t = np.exp(2j * thetas)
    u = (1.0 + phase_d) / root
    v = phase_t * (1.0 - phase_d.conj()) / root
    w = phase_t.conj() * (1.0 - phase_d * phase_d) / 4.0
    t = table

    coeffs = []
    for k, s in enumerate(signs):
        if s == 1:
            coeffs.append((u[..., k], v[..., k]))
        elif s == -1:
            coeffs.append((v[..., k].conj(), u[..., k].conj()))
        else:
            raise SettingsError(f"sign must be +1 or -1, got {s}")
    (p1, q1), (p2, q2) = coeffs
    fwd = (p1 * (p2 * t[..., 1, 1] + q2 * t[..., 1, 2])
           + q1 * (p2 * t[..., 2, 1] + q2 * t[..., 2, 2]))

    # rhs coefficients per mode: (1 - c/2, 1, w, w*) on (1, N, a^2, a^dag^2)
    ident = 1.0 - 0.5 * cosd
    w1, w2 = w[..., 0], w[..., 1]
    w2c = w2.conj()

    def rhs_row(i):
        return (ident[..., 1] * t[..., i, 0] + t[..., i, 3] + w2 * t[..., i, 4]
                + w2c * t[..., i, 5])

    rhs = (ident[..., 0] * rhs_row(0) + rhs_row(3) + w1 * rhs_row(4)
           + w1.conj() * rhs_row(5))
    return np.abs(fwd) ** 2 - rhs.real / (cosd[..., 0] * cosd[..., 1])


@dataclass
class TwoModeBound:
    beta2: float
    bound: float


def two_mode_bound(state, settings: QuadratureSettings) -> TwoModeBound:
    """Variance functional beta2 and its commutator bound for two modes.

    beta2 = <X~>^2 + <Y~>^2 - <prod(X^2 + Y^2)>; the bound is
    4 s1 s2 cos(d1) cos(d2).
    """
    if settings.n_modes != 2 or state.n_modes != 2:
        raise SettingsError("two_mode_bound requires exactly two modes")
    (x0, y0), (x1, y1) = [_quadrature_polys(t, de, s) for t, de, s in zip(
        settings.thetas, settings.deltas, settings.signs)]
    means = poly_expectations(state, [{0: x0, 1: x1}, {0: y0, 1: y1},
                                      {0: x0, 1: y1}, {0: y0, 1: x1},
                                      {0: x0 * x0 + y0 * y0, 1: x1 * x1 + y1 * y1}])
    xx, yy, xy, yx, prod_sq = [_real_part(m, "two-mode quadrature moment")
                               for m in means]
    x_tilde = xx - yy
    y_tilde = xy + yx
    beta2 = x_tilde ** 2 + y_tilde ** 2 - prod_sq
    bound = (4.0 * settings.signs[0] * settings.signs[1]
             * math.cos(settings.deltas[0]) * math.cos(settings.deltas[1]))
    return TwoModeBound(beta2=beta2, bound=bound)


@dataclass
class VerificationResult:
    report: CfrdReport
    pt_min_eig: float | None
    consistent: bool


def verify_implication(state, settings: QuadratureSettings) -> VerificationResult:
    """Executable form of the theorem: violation implies D^I < 0 and NPT."""
    from .fock import partial_transpose_min_eig

    report = cfrd_evaluate(state, settings)
    pt_min = None
    if isinstance(state, DenseState) and not report.trivial_bipartition:
        pt_min = partial_transpose_min_eig(state, report.bipartition).min_eigenvalue
    consistent = (not report.violated) or (
        report.minor_d < 0 and (pt_min is None or pt_min < 0))
    return VerificationResult(report=report, pt_min_eig=pt_min,
                              consistent=consistent)
