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
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HeadroomError, NumericalConsistencyError, SettingsError
from .fock import DenseState, monomial_matrix, product_operator_expectation
from .structured import NormalOrderedPoly, StructuredState, structured_poly_expectation

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


@dataclass(frozen=True)
class ModeTransform:
    """Per-mode Bogoliubov coefficients (u, v) with b = u a + v a^dag."""

    coeffs: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        for k, (u, v) in enumerate(self.coeffs):
            if abs(abs(u) ** 2 - abs(v) ** 2 - 1.0) > 1e-12:
                raise ValueError(
                    f"mode {k}: |u|^2 - |v|^2 = {abs(u)**2 - abs(v)**2} != 1")

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]


def mode_transform(settings: QuadratureSettings) -> ModeTransform:
    """Coefficients of b = u a + v a^dag for each mode (independent of s)."""
    coeffs = []
    for theta, delta in zip(settings.thetas, settings.deltas):
        root = 2.0 * math.sqrt(math.cos(delta))
        u = (1.0 + cmath.exp(-1j * delta)) / root
        v = cmath.exp(2j * theta) * (1.0 - cmath.exp(1j * delta)) / root
        coeffs.append((u, v))
    return ModeTransform(tuple(coeffs))


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


def quadrature_matrices(d: int, theta: float, delta: float, s: int,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Truncated d x d matrices of the two quadratures X and Y."""
    a = monomial_matrix(d, 0, 1)
    ad = monomial_matrix(d, 1, 0)
    phi = theta + delta + s * math.pi / 2
    x = cmath.exp(-1j * theta) * a + cmath.exp(1j * theta) * ad
    y = cmath.exp(-1j * phi) * a + cmath.exp(1j * phi) * ad
    return x, y


def _real_part(value: complex, what: str, tol: float = 1e-8) -> float:
    if abs(value.imag) > tol * max(1.0, abs(value)):
        raise NumericalConsistencyError(f"{what} = {value} has non-real residue")
    return value.real


# ---------------------------------------------------------------------------
# per-mode operator construction (dense path: exact monomial matrices)


def _dense_mode_matrices(d: int, u: complex, v: complex, cos_delta: float):
    """(b, b^dag, N_b, cos_delta*N_b + 1/2) as exact d x d matrices."""
    a = monomial_matrix(d, 0, 1)
    ad = monomial_matrix(d, 1, 0)
    num = monomial_matrix(d, 1, 1)
    a2 = monomial_matrix(d, 0, 2)
    ad2 = monomial_matrix(d, 2, 0)
    eye = np.eye(d)
    b = u * a + v * ad
    bdag = b.conj().T
    # b^dag b = |u|^2 a^dag a + u* v a^dag^2 + u v* a^2 + |v|^2 (a^dag a + 1)
    n_b = (abs(u) ** 2 * num + u.conjugate() * v * ad2 + u * v.conjugate() * a2
           + abs(v) ** 2 * (num + eye))
    rhs_factor = cos_delta * n_b + 0.5 * eye
    return b, bdag, n_b, rhs_factor


def _structured_mode_polys(u: complex, v: complex, cos_delta: float):
    b = NormalOrderedPoly({(0, 1): u, (1, 0): v})
    bdag = b.dagger()
    n_b = bdag * b
    rhs_factor = n_b.scale(cos_delta) + NormalOrderedPoly({(0, 0): 0.5})
    return b, bdag, n_b, rhs_factor


def _check_dense_headroom(state: DenseState, transform: ModeTransform) -> None:
    for k, (u, v) in enumerate(transform):
        need = 2 if abs(v) > 0 else 1
        if state.headroom < need:
            raise HeadroomError(
                f"evaluation needs headroom {need} on mode {k}, "
                f"state has {state.headroom}")


def cfrd_evaluate(state, settings: QuadratureSettings,
                  expand_s_squared: bool = True) -> CfrdReport:
    """Evaluate the Bell functional and its moment-minor companion.

    With ``expand_s_squared`` the lower-order part is summed term by term
    over mode subsets (an independent check of the identity
    rhs = S^2 + <prod N>); otherwise it is taken as the difference.
    """
    n = settings.n_modes
    if n != state.n_modes:
        raise SettingsError("settings length does not match state mode count")
    transform = mode_transform(settings)
    cos_all = [math.cos(d) for d in settings.deltas]
    cos_prod = math.prod(cos_all)

    dense = isinstance(state, DenseState)
    if dense:
        _check_dense_headroom(state, transform)
        mats = [_dense_mode_matrices(state.cutoff, u, v, c)
                for (u, v), c in zip(transform, cos_all)]

        def product_mean(pick) -> complex:
            return product_operator_expectation(
                state, {k: m for k, m in pick.items()})

        b_of = {k: (mats[k][0], mats[k][1]) for k in range(n)}
        num_of = {k: mats[k][2] for k in range(n)}
        rhsfac_of = {k: mats[k][3] for k in range(n)}
    elif isinstance(state, StructuredState):
        polys = [_structured_mode_polys(u, v, c)
                 for (u, v), c in zip(transform, cos_all)]

        def product_mean(pick) -> complex:
            return structured_poly_expectation(state, pick)

        b_of = {k: (polys[k][0], polys[k][1]) for k in range(n)}
        num_of = {k: polys[k][2] for k in range(n)}
        rhsfac_of = {k: polys[k][3] for k in range(n)}
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")

    mean_fwd = product_mean({k: b_of[k][0] if s == 1 else b_of[k][1]
                             for k, s in enumerate(settings.signs)})
    mean_rev = product_mean({k: b_of[k][1] if s == 1 else b_of[k][0]
                             for k, s in enumerate(settings.signs)})
    lhs = abs(mean_fwd) ** 2
    prod_n = _real_part(product_mean(num_of), "<prod N>")
    rhs = _real_part(product_mean(rhsfac_of), "rhs product") / cos_prod

    if expand_s_squared:
        s_squared = 0.0
        for size in range(n):
            for subset in itertools.combinations(range(n), size):
                term = _real_part(product_mean({k: num_of[k] for k in subset}),
                                  "S^2 term")
                weight = (0.5 ** (n - size)
                          * math.prod(cos_all[k] for k in subset) / cos_prod)
                s_squared += weight * term
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
    n = settings.n_modes
    transform = mode_transform(settings)
    cos_all = [math.cos(d) for d in settings.deltas]
    if isinstance(state, DenseState):
        _check_dense_headroom(state, transform)
        mats = [_dense_mode_matrices(state.cutoff, u, v, c)
                for (u, v), c in zip(transform, cos_all)]
        fwd = product_operator_expectation(
            state, {k: mats[k][0] if s == 1 else mats[k][1]
                    for k, s in enumerate(settings.signs)})
        rhs = product_operator_expectation(state, {k: mats[k][3] for k in range(n)})
    elif isinstance(state, StructuredState):
        polys = [_structured_mode_polys(u, v, c)
                 for (u, v), c in zip(transform, cos_all)]
        fwd = structured_poly_expectation(
            state, {k: polys[k][0] if s == 1 else polys[k][1]
                    for k, s in enumerate(settings.signs)})
        rhs = structured_poly_expectation(state, {k: polys[k][3] for k in range(n)})
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
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

_TABLE_OPS = ("identity", "annihilate", "create", "number",
              "annihilate2", "create2")
_TABLE_EXPONENTS = {"annihilate": (0, 1), "create": (1, 0), "number": (1, 1),
                    "annihilate2": (0, 2), "create2": (2, 0)}


def two_mode_moment_table(state) -> np.ndarray:
    """6x6 table of pair moments feeding ``beta_from_table``.

    Ordering: (identity, a, a^dag, a^dag a, a^2, a^dag^2) on each mode.
    """
    if state.n_modes != 2:
        raise SettingsError("moment table requires exactly two modes")
    table = np.empty((6, 6), dtype=complex)
    if isinstance(state, DenseState):
        if state.headroom < 2:
            raise HeadroomError("two-mode table needs headroom 2")
        mats = {op: monomial_matrix(state.cutoff, *_TABLE_EXPONENTS[op])
                for op in _TABLE_OPS[1:]}
        for i, oi in enumerate(_TABLE_OPS):
            for j, oj in enumerate(_TABLE_OPS):
                pick = {}
                if oi != "identity":
                    pick[0] = mats[oi]
                if oj != "identity":
                    pick[1] = mats[oj]
                table[i, j] = product_operator_expectation(state, pick)
    elif isinstance(state, StructuredState):
        for i, oi in enumerate(_TABLE_OPS):
            for j, oj in enumerate(_TABLE_OPS):
                polys = {}
                for mode, op in ((0, oi), (1, oj)):
                    if op != "identity":
                        q, p = _TABLE_EXPONENTS[op]
                        polys[mode] = NormalOrderedPoly({(q, p): 1.0})
                table[i, j] = structured_poly_expectation(state, polys)
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    return table


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


def two_mode_bound(state: DenseState, settings: QuadratureSettings) -> TwoModeBound:
    """Variance functional beta2 and its commutator bound for two modes.

    beta2 = <X~>^2 + <Y~>^2 - <prod(X^2 + Y^2)> computed from dense
    quadrature matrices; the bound is 4 s1 s2 cos(d1) cos(d2).
    """
    if settings.n_modes != 2 or state.n_modes != 2:
        raise SettingsError("two_mode_bound requires exactly two modes")
    if not isinstance(state, DenseState):
        raise TypeError("two_mode_bound runs on dense states")
    if state.headroom < 2:
        raise HeadroomError("two_mode_bound needs headroom >= 2")
    d = state.cutoff
    dp = d + 2
    quads = [quadrature_matrices(dp, t, de, s)
             for t, de, s in zip(settings.thetas, settings.deltas, settings.signs)]
    lin = [(x[:d, :d], y[:d, :d]) for x, y in quads]
    sq = [((x @ x + y @ y)[:d, :d]) for x, y in quads]

    def mean2(m0, m1) -> float:
        return _real_part(product_operator_expectation(state, {0: m0, 1: m1}),
                          "two-mode quadrature moment")

    xx = mean2(lin[0][0], lin[1][0])
    yy = mean2(lin[0][1], lin[1][1])
    xy = mean2(lin[0][0], lin[1][1])
    yx = mean2(lin[0][1], lin[1][0])
    x_tilde = xx - yy
    y_tilde = xy + yx
    prod_sq = mean2(sq[0], sq[1])
    beta2 = x_tilde ** 2 + y_tilde ** 2 - prod_sq
    bound = (4.0 * settings.signs[0] * settings.signs[1]
             * math.cos(settings.deltas[0]) * math.cos(settings.deltas[1]))
    return TwoModeBound(beta2=beta2, bound=bound)


@dataclass
class VerificationResult:
    report: CfrdReport
    pt_min_eig: float | None
    consistent: bool


def verify_implication(state, settings: QuadratureSettings,
                       pt_oracle: bool = True) -> VerificationResult:
    """Executable form of the theorem: violation implies D^I < 0 and NPT."""
    from .fock import partial_transpose_min_eig

    report = cfrd_evaluate(state, settings)
    pt_min = None
    if (pt_oracle and isinstance(state, DenseState)
            and not report.trivial_bipartition):
        pt_min = partial_transpose_min_eig(state, report.bipartition).min_eigenvalue
    consistent = (not report.violated) or (
        report.minor_d < 0 and (pt_min is None or pt_min < 0))
    return VerificationResult(report=report, pt_min_eig=pt_min,
                              consistent=consistent)
