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

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import NumericalConsistencyError, SettingsError
from .fock import DenseState, monomial_matrix, partial_transpose_min_eig
from .fock import product_operator_expectation  # noqa: F401  (kept importable from cfrd)
from .structured import NormalOrderedPoly, StructuredState, term_pair_elements

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
        _check_settings(self.thetas, self.deltas, self.signs)

    @property
    def n_modes(self) -> int:
        return len(self.thetas)

    @property
    def bipartition(self) -> frozenset[int]:
        return frozenset(k for k, s in enumerate(self.signs) if s == -1)

    @property
    def trivial_bipartition(self) -> bool:
        return len(self.bipartition) in (0, self.n_modes)


# The rules of every settings: finite thetas, |delta| < pi/2 (the endpoint
# measures only one quadrature) and s = +-1. Each holds elementwise on a
# scalar and on an array alike.
_SETTINGS_RULES = (
    (lambda theta: abs(theta) < math.inf, "thetas must be finite"),
    (lambda delta: abs(delta) < math.pi / 2,
     "|delta| must stay strictly inside (-pi/2, pi/2)"),
    (lambda s: (s == 1) | (s == -1), "signs must be +1 or -1"),
)


def _check_settings(thetas, deltas, signs) -> None:
    """Apply ``_SETTINGS_RULES`` to a numpy array at once, and to any other
    sequence value by value, which is cheaper than converting a short one."""
    for values, (rule, message) in zip((thetas, deltas, signs), _SETTINGS_RULES):
        if not (rule(values).all() if isinstance(values, np.ndarray)
                else all(map(rule, values))):
            raise SettingsError(message)


def mode_transform(settings: QuadratureSettings,
                   ) -> tuple[tuple[complex, complex], ...]:
    """Coefficients (u, v) of b = u a + v a^dag for each mode (independent of
    s); |u|^2 - |v|^2 = 1 holds by construction."""
    u, v, _, _ = _bogoliubov(np.array(settings.thetas), np.array(settings.deltas))
    return tuple(zip(u.tolist(), v.tolist()))


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
    lower = monomial_matrix(d, 0, 1)
    return tuple(np.exp(-1j * angle) * lower + np.exp(1j * angle) * lower.T
                 for angle in (theta, theta + delta + s * math.pi / 2))


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > 1e-8 * max(1.0, abs(value)):
        raise NumericalConsistencyError(f"{what} = {value} has non-real residue")
    return value.real


def cfrd_evaluate(state, settings: QuadratureSettings) -> CfrdReport:
    """Evaluate the Bell functional and its moment-minor companion.

    ``<prod B>`` in both orders and both sides come from ``_sides``, the one
    contraction ``sides_from_moments`` runs, at the rows s and -s of the
    state's ``moment_table``. Each term of rhs = S^2 + <prod N_b> is an entry
    of one outer contraction: every mode takes N_b or 1/(2 cos delta), entry
    0 is <prod N_b>, and the 2^n - 1 entries with at least one
    1/(2 cos delta) sum to S^2, an independent check of the identity.
    """
    if settings.n_modes != state.n_modes:
        raise SettingsError("settings length does not match state mode count")
    table = moment_table(state)
    bogo = _bogoliubov(np.array([settings.thetas]), np.array([settings.deltas]))
    u, v, _, cosd = (x[0] for x in bogo)
    n_b = np.stack((v.conj() * v, u.conj() * u + v.conj() * v, u * v.conj(),
                    u.conj() * v), axis=-1)
    outside = np.stack([0.5 / cosd] + [np.zeros_like(cosd)] * 3, axis=-1)
    plus = np.equal(settings.signs, [[1], [-1]])  # rows s, -s: B(-s) = B(s)^dag
    with _finite():
        means, lhs, rhs = _sides(table, *bogo, plus)
        terms = _contract_outer(table, table.rhs, np.stack((n_b, outside), axis=1))
    mean_fwd, mean_rev = complex(means[0]), complex(means[1])
    lhs, rhs = float(lhs[0]), float(rhs[0])
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NumericalConsistencyError(
            f"functional not finite: lhs = {lhs}, rhs = {rhs}")
    if np.any(np.abs(terms.imag) > 1e-8 * np.maximum(1.0, np.abs(terms))):
        raise NumericalConsistencyError("a term of rhs has non-real residue")
    prod_n = float(terms[0].real)
    minor_d = prod_n - _real_part(mean_fwd * mean_rev, "minor cross term")
    beta = lhs - rhs
    return CfrdReport(
        lhs=lhs, rhs=rhs, s_squared=float(terms[1:].real.sum()),
        product_number_moment=prod_n, minor_d=minor_d,
        bipartition=settings.bipartition, beta=beta,
        violated=beta > VIOLATION_THRESHOLD,
        trivial_bipartition=settings.trivial_bipartition,
        mean_forward=mean_fwd, mean_reverse=mean_rev, settings=settings)


def cfrd_beta(state, thetas: Sequence[float], deltas: Sequence[float],
              signs: Sequence[int]) -> float:
    """beta = lhs - rhs at one settings by ``sides_from_moments``: the bits of
    ``cfrd_evaluate``'s beta, without its S^2 expansion."""
    q = QuadratureSettings(tuple(thetas), tuple(deltas), tuple(signs))
    lhs, rhs = sides_from_moments(moment_table(state), q.thetas, q.deltas, q.signs)
    return float(lhs - rhs)


# ---------------------------------------------------------------------------
# moment tables: every moment above is a per-mode contraction of the moments
# <prod_k O_k>, each O_k one of the six monomials {1, a, a^dag, N, a^2,
# a^dag^2}, which one table per state holds. With c = cos(delta):
#   - B(+1) = b is (u, v) on (a, a^dag), and B(-1) = b^dag is (v*, u*);
#   - N_b is (|v|^2, |u|^2 + |v|^2, u v*, u* v) on (1, N, a^2, a^dag^2), and
#     c N_b + 1/2 is (1 - c/2, 1, w, w*) with w = c u v*, as
#     c |v|^2 + 1/2 = 1 - c/2 and c (|u|^2 + |v|^2) = 1.
# (q, p) of each a^dag^q a^p, in two_mode_moment_table's order; block indices
_TABLE_EXPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0))
_MONOMIALS = tuple(NormalOrderedPoly({qp: 1.0}) for qp in _TABLE_EXPONENTS)
_FORWARD, _RHS = (1, 2), (0, 3, 4, 5)
# entries of the largest contraction intermediate per chunk of points;
# bounds memory when a search or many settings ask for many points
_CONTRACT_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class MomentTable:
    """One state's moments on two blocks of the six monomials: ``forward``
    on {a, a^dag} and ``rhs`` on {1, N, a^2, a^dag^2} of each mode.

    A structured state keeps each block factored over its T^2 term pairs,
    shape (T^2, n, m), with ``weights`` (T^2,): a moment is the sum over
    pairs of weight * prod_k block[pair, k, m_k]. A dense state keeps each
    block as a tensor (m,)*n, and ``weights`` is None. A ``per_point``
    table holds one such table per settings point on a leading axis P:
    dense blocks (P,) + (m,)*n, as ``_two_mode_blocks`` stacks a batch of
    states, or term-pair weights (P, T^2) and blocks (P, T^2, n, m), as the
    cat scan stacks its alpha grid.
    """

    weights: np.ndarray | None
    forward: np.ndarray
    rhs: np.ndarray
    per_point: bool = False

    def at(self, rows) -> MomentTable:
        """The table of the points ``rows``: those of a per-point table,
        any other table whole."""
        if not self.per_point:
            return self
        return MomentTable(None if self.weights is None else self.weights[rows],
                           self.forward[rows], self.rhs[rows], per_point=True)


@lru_cache(maxsize=None)
def _monomial_stack(s: int, picks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The m monomial matrices of ``picks`` on s levels, stacked (m, s, s),
    and laid out [(ket, bra), m]; both read-only, shared by every call."""
    mats = np.stack([monomial_matrix(s, *_TABLE_EXPONENTS[i]) for i in picks])
    flat = mats.transpose(2, 1, 0).reshape(s * s, len(picks))
    for a in (mats, flat):
        a.flags.writeable = False
    return mats, flat


def _dense_moments(state: DenseState, picks: tuple[int, ...]) -> np.ndarray:
    """The tensor (m,)*n of <prod_k monomial_{picks[m_k]}> on the support
    lattice, one product with the m monomial matrices per mode. A pure state
    never forms its density matrix: the matrices act on the ket of its first
    h modes, which then meets the bra, with h chosen so that the ket's
    m^h s^n and the remaining m^h s^(2(n-h)) entries stay fewest."""
    sup = state.support
    n, s, m = sup.n_modes, sup.cutoff, len(picks)
    mats, flat = _monomial_stack(s, picks)
    if sup.kind == "pure":  # acc[m^h, ket, bra] over modes h..n-1
        h = min(range(1, n + 1), key=lambda h: m ** h * (s ** n + s ** (2 * n - 2 * h)))
        ket = sup.array  # [applied m, applied levels, rest] once reshaped
        for k in range(h):
            ket = mats[:, None] @ ket.reshape(-1, 1, s ** k, s, s ** (n - k - 1))
        acc = ket.reshape(m ** h, s ** h, -1).swapaxes(1, 2) @ sup.array.reshape(
            s ** h, -1).conj()
    else:
        acc = sup.array[None]
    while acc.shape[-1] > 1:
        rest = acc.shape[-1] // s
        acc = acc.reshape(-1, s, rest, s, rest).transpose(0, 2, 4, 1, 3)
        acc = (acc.reshape(-1, s * s) @ flat).reshape(-1, rest, rest, m)
        acc = acc.transpose(0, 3, 1, 2).reshape(-1, rest, rest)
    return acc.reshape((m,) * n)


def moment_table(state) -> MomentTable:
    """One state's ``MomentTable``: term-pair factors of a structured state
    (6 n T^2 single-mode elements), the 2^n and 4^n block tensors of any
    other state."""
    if isinstance(state, StructuredState):
        weights, elements = term_pair_elements(state, _MONOMIALS)
        return MomentTable(weights, elements[..., _FORWARD], elements[..., _RHS])
    return MomentTable(None, _dense_moments(state, _FORWARD),
                       _dense_moments(state, _RHS))


def _bogoliubov(thetas: np.ndarray, deltas: np.ndarray):
    """(u, v, w, cos delta) per point and mode: b = u a + v a^dag, and the
    a^2 coefficient w = c u v* of c N_b + 1/2."""
    phase_d = np.exp(-1j * deltas)
    cosd = phase_d.real
    root = 2.0 * np.sqrt(cosd)
    phase_t = np.exp(2j * thetas)
    u = (1.0 + phase_d) / root
    v = phase_t * (1.0 - phase_d.conj()) / root
    w = phase_t.conj() * (1.0 - phase_d * phase_d) / 4.0
    return u, v, w, cosd


@contextmanager
def _finite():
    """Turn an overflow, or a result that is not a number, in the numpy
    arithmetic of the contractions it holds into NumericalConsistencyError
    at once."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericalConsistencyError(f"moment contraction: {exc}") from None


def _contract(table: MomentTable, block: np.ndarray, coeffs: np.ndarray,
              open: int | None = None) -> np.ndarray:
    """sum_m prod_k coeffs[:, k, m_k] <prod_k monomial_{m_k}> over one block,
    for points ``coeffs`` of shape (P, n, m), or (P, n - 1, m) over the
    other modes with mode ``open`` left open, which returns (P, m). A dense
    block meets one mode at a time in ``np.einsum``, a term-pair block sums
    its pairs' products over modes, read from the end so that a per-point
    block's leading axis broadcasts; a per-point table gives each point its
    own table. No BLAS, so a point gets the same bits alone or in a batch;
    chunks of points, which slice a per-point table's weights and block
    alike, keep the intermediates near ``_CONTRACT_BATCH_ENTRIES`` entries."""
    step = max(1, _CONTRACT_BATCH_ENTRIES
               // math.prod(table.rhs.shape[int(table.per_point):]))
    if len(coeffs) > step:
        parts = [slice(lo, lo + step) for lo in range(0, len(coeffs), step)]
        return np.concatenate([
            _contract(table.at(part), block[part] if table.per_point else block,
                      coeffs[part], open)
            for part in parts])
    if table.weights is not None:
        closed = block if open is None else np.delete(block, open, axis=-2)
        pairs = table.weights * (coeffs[:, None] * closed).sum(axis=-1).prod(axis=-1)
        if open is None:
            return pairs.sum(axis=-1)
        # the pairs laid out last and contiguous, whatever the block's
        # layout, so every point sums them in one order
        return np.multiply(pairs[..., None, :],
                           np.swapaxes(block[..., open, :], -1, -2), order="C",
                           ).sum(axis=-1)
    _, n, m = coeffs.shape
    if open is not None:  # mode ``open`` becomes the last, and stays
        n += 1
        block = np.moveaxis(block, open - n, -1)
    acc = block.reshape(-1, m ** n)
    for k in range(coeffs.shape[1]):  # mode k leads acc
        acc = np.einsum("...j,...jr->...r", coeffs[:, k],
                        acc.reshape(len(acc), m, acc.shape[1] // m))
    return acc[:, 0] if open is None else acc


def _contract_outer(table: MomentTable, block: np.ndarray, rows: np.ndarray,
                    ) -> np.ndarray:
    """The r^n moments of prod_k rows[k, r_k] over one block, for per-mode
    rows of shape (n, r, m), flat with mode 0 slowest: a dense block meets
    one mode's r rows at a time, and each term pair of a structured block
    is an outer product over modes."""
    n, r, m = rows.shape
    if table.weights is None:
        acc = block
        for k in range(n):
            acc = rows[k] @ acc.reshape(r ** k, m, -1)
        return acc.ravel()
    out = np.zeros(r ** n, complex)
    per_mode = np.einsum("pkm,krm->pkr", block, rows)
    for weight, factors in zip(table.weights, per_mode):
        acc = weight
        for factor in factors:
            acc = np.multiply.outer(acc, factor)
        out += acc.ravel()
    return out


def _block_rows(u, v, w, cosd, plus: np.ndarray):
    """Per-mode rows of B(s) on (a, a^dag) and of c N_b + 1/2 on (1, N, a^2,
    a^dag^2) at the ``_bogoliubov`` rows (P, n) and the rows ``plus``
    (s == 1) that broadcast against them."""
    return (np.stack((np.where(plus, u, v.conj()), np.where(plus, v, u.conj())),
                     axis=-1),
            np.stack((1.0 - 0.5 * cosd, np.ones_like(w), w, w.conj()), axis=-1))


def _sides(table: MomentTable, u, v, w, cosd, plus: np.ndarray,
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<prod B(s)>, lhs = |<prod B(s)>|^2 and rhs at the ``_bogoliubov`` rows
    (P, n) of the angles and the rows ``plus`` (s == 1) that broadcast
    against them; rhs has the angles' rows. Callers hold it in ``_finite``."""
    fwd, rhs = _block_rows(u, v, w, cosd, plus)
    means = _contract(table, table.forward, fwd)
    return (means, np.abs(means) ** 2,
            _contract(table, table.rhs, rhs).real / cosd.prod(axis=-1))


def _open_mode(table: MomentTable, rows, plus: np.ndarray, k: int,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides at the ``_bogoliubov`` rows, (P, n) each, with mode k left
    open: F (P, 2) on mode k's (a, a^dag), G (P, 4) on its (1, N, a^2,
    a^dag^2) and r = prod_{j != k} cos delta_j (P,), so that

        beta = |u_k F_0 + v_k F_1|^2
               - Re[(1 - c_k/2) G_0 + G_1 + w_k G_2 + w_k* G_3] / (c_k r).

    Where s_k = -1, B(-1) = (v*, u*) on (a, a^dag) reads F as (F_1*, F_0*).
    Each block is one ``_contract`` with mode k open, at the rows of the
    other modes only. Callers hold it in ``_finite``.
    """
    closed = [np.delete(row, k, axis=1) for row in rows]
    forward, rhs = (_contract(table, block, coeffs, open=k) for block, coeffs in
                    zip((table.forward, table.rhs),
                        _block_rows(*closed, np.delete(plus, k, axis=1))))
    forward = np.where(plus[:, k, None], forward, forward[:, ::-1].conj())
    return forward, rhs, closed[3].prod(axis=1)


def sides_from_moments(table: MomentTable, thetas: np.ndarray,
                       deltas: np.ndarray, signs: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The functional's two sides, lhs and rhs with beta = lhs - rhs, at a
    batch of settings from one state's ``MomentTable``.

    ``thetas``, ``deltas`` and ``signs`` broadcast to a common shape (..., n),
    n the table's mode count, so every settings row may carry its own signs;
    both sides have shape (...), bit for bit those ``cfrd_evaluate`` reports.
    """
    try:
        thetas, deltas, signs = np.broadcast_arrays(thetas, deltas, signs)
    except ValueError:
        raise SettingsError("thetas, deltas and signs do not broadcast") from None
    n = table.forward.ndim if table.weights is None else table.forward.shape[1]
    if thetas.shape[-1:] != (n,):
        raise SettingsError("settings width does not match the table's modes")
    _check_settings(thetas, deltas, signs)
    shape = thetas.shape[:-1]
    thetas, deltas, plus = (a.reshape(-1, n) for a in (thetas, deltas, signs == 1))
    with _finite():
        _, lhs, rhs = _sides(table, *_bogoliubov(thetas, deltas), plus)
    return lhs.reshape(shape), rhs.reshape(shape)


def two_mode_moment_table(state) -> np.ndarray:
    """6x6 table of pair moments feeding ``beta_from_table``, in the order
    (identity, a, a^dag, a^dag a, a^2, a^dag^2) on each mode."""
    if state.n_modes != 2:
        raise SettingsError("moment table requires exactly two modes")
    if isinstance(state, StructuredState):
        weights, e = term_pair_elements(state, _MONOMIALS)
        return np.einsum("p,pi,pj->ij", weights, e[:, 0], e[:, 1])
    return _dense_moments(state, tuple(range(6)))


def _two_mode_blocks(tables: np.ndarray) -> MomentTable:
    """The per-point ``MomentTable`` of stacked ``two_mode_moment_table``
    outputs (..., 6, 6): their {a, a^dag} blocks (P, 2, 2) and {1, N, a^2,
    a^dag^2} blocks (P, 4, 4), the leading axes flattened to P."""
    return MomentTable(None, tables[..., 1:3, 1:3].reshape(-1, 2, 2),
                       tables[..., _RHS, :][..., _RHS].reshape(-1, 4, 4),
                       per_point=True)


def beta_from_table(table: np.ndarray, thetas: np.ndarray, deltas: np.ndarray,
                    signs: Sequence[int]) -> np.ndarray:
    """Vectorized beta for one or many settings against a fixed moment table.

    ``table`` has shape (..., 6, 6) (a leading batch axis pairs each settings
    row with its own state); ``thetas`` and ``deltas`` have shape (..., 2).
    Every row is ``_sides`` on the per-point table of ``_two_mode_blocks``.
    """
    thetas = np.asarray(thetas, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    _check_settings(thetas, deltas, signs)
    shape = np.broadcast_shapes(table.shape[:-2], thetas.shape[:-1],
                                deltas.shape[:-1])
    table, thetas, deltas = (
        np.broadcast_to(a, shape + a.shape[-tail:]).reshape((-1,) + a.shape[-tail:])
        for a, tail in ((table, 2), (thetas, 1), (deltas, 1)))
    with _finite():
        _, lhs, rhs = _sides(_two_mode_blocks(table), *_bogoliubov(thetas, deltas),
                             np.equal([signs], 1))
        return (lhs - rhs).reshape(shape)


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
    table = moment_table(state)
    theta = np.array(settings.thetas)
    phi = theta + np.array(settings.deltas) + np.array(settings.signs) * (math.pi / 2)
    # X and Y of each mode on (a, a^dag); X^2 + Y^2 = 2 + 4 N + (e^{-2i theta}
    # + e^{-2i phi}) a^2 + h.c. on (1, N, a^2, a^dag^2)
    quads = np.exp(np.stack((theta, phi), axis=1)[..., None] * [-1j, 1j])
    squared = np.exp(-2j * theta) + np.exp(-2j * phi)
    with _finite():
        means = _contract_outer(table, table.forward, quads)
        squares = _contract(table, table.rhs, np.stack(
            (np.full(2, 2.0), np.full(2, 4.0), squared, squared.conj()), axis=-1)[None])
    xx, xy, yx, yy, prod_sq = [_real_part(complex(m), "two-mode quadrature moment")
                               for m in (*means, *squares)]
    beta2 = (xx - yy) ** 2 + (xy + yx) ** 2 - prod_sq
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
    report = cfrd_evaluate(state, settings)
    pt_min = None
    if isinstance(state, DenseState) and not report.trivial_bipartition:
        pt_min = partial_transpose_min_eig(state, report.bipartition).min_eigenvalue
    consistent = (not report.violated) or (
        report.minor_d < 0 and (pt_min is None or pt_min < 0))
    return VerificationResult(report=report, pt_min_eig=pt_min,
                              consistent=consistent)
