"""Dense truncated Fock-lattice states and operators for a few bosonic modes.

A state lives on ``n_modes`` modes with a uniform single-mode cutoff ``d``
(basis |0>..|d-1> per mode). Every state carries a *headroom* ``h``: no
populated basis state has occupation above ``d-1-h`` in any mode, which
``DenseState`` checks exactly on construction. Headroom fixes the *support
lattice* ``DenseState.support`` of ``s = max(2, d-h)`` levels per mode that
every dense evaluation runs on: normal-ordered moments, because
``monomial_matrix(s, q, p)`` is the top-left block of ``monomial_matrix(d, q,
p)``, and the partial-transpose oracle, because transposing a mode keeps the
support, so the rest of the partial transpose is exactly zero. A ladder
word is evaluated by normal-ordering it per mode (``structured.normal_order``)
and passing the result to ``moments.poly_expectations``, which is exact at
any headroom.

Multi-index linearization is row-major with mode 0 slowest; the moments
module shares this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import BipartitionError, CutoffError, TruncationError

_TRUNCATION_BUDGET = 1e-10
# Normals per chunk of a mixed random state's Gaussian draw (1 MB of floats).
_DRAW_CHUNK = 1 << 17


@dataclass(frozen=True)
class ModeSpec:
    """Number of modes and the uniform per-mode Fock cutoff."""

    n_modes: int
    cutoff: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if self.cutoff ** self.n_modes > 2**31:
            raise ValueError("total dimension exceeds supported desk scale")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.n_modes

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cutoff,) * self.n_modes


@dataclass
class DenseState:
    """Pure tensor or density matrix on the truncated lattice.

    ``array`` is a complex tensor of shape ``(d,)*n`` for pure states, or a
    ``(d**n, d**n)`` matrix for mixed states. States are treated as immutable
    after construction.

    Construction rejects an array populated above the headroom cap
    ``d-1-headroom``, by an exact nonzero test: of the amplitudes of a pure
    state, and of the diagonal of a density matrix. The diagonal suffices for
    a positive semidefinite matrix, where a zero diagonal entry zeroes its
    row and column.
    """

    mode_spec: ModeSpec
    kind: Literal["pure", "mixed"]
    array: np.ndarray
    headroom: int = 0

    def __post_init__(self):
        self.array = np.asarray(self.array, dtype=complex)
        if self.kind == "pure":
            if self.array.shape != self.mode_spec.shape:
                raise ValueError("pure amplitude tensor has wrong shape")
        elif self.kind == "mixed":
            if self.array.shape != (self.mode_spec.dim, self.mode_spec.dim):
                raise ValueError("density matrix has wrong shape")
        else:
            raise ValueError(f"unknown state kind {self.kind!r}")
        if not 0 <= self.headroom < self.mode_spec.cutoff:
            raise ValueError("headroom out of range")
        weights = self._weights()
        box = (slice(0, self.cutoff - self.headroom),) * self.n_modes
        if np.count_nonzero(weights) > np.count_nonzero(weights[box]):
            raise ValueError("array populated above the declared headroom cap")

    @property
    def n_modes(self) -> int:
        return self.mode_spec.n_modes

    @property
    def cutoff(self) -> int:
        return self.mode_spec.cutoff

    def to_density_matrix(self) -> np.ndarray:
        if self.kind == "mixed":
            return self.array
        vec = self.array.reshape(-1)
        return np.outer(vec, vec.conj())

    def _weights(self) -> np.ndarray:
        """Amplitudes (pure) or diagonal (mixed), shaped ``(d,)*n``."""
        if self.kind == "pure":
            return self.array
        return np.diagonal(self.array).reshape(self.mode_spec.shape)

    def max_occupation(self) -> int:
        """Largest per-mode occupation with a nonzero amplitude (pure) or
        diagonal entry (mixed)."""
        return max((int(idx.max()) for idx in np.nonzero(self._weights())
                    if idx.size), default=0)

    @cached_property
    def support(self) -> "DenseState":
        """The same state cropped to ``max(2, d-headroom)`` levels per mode.

        The crop is contiguous and made once per state; a state with nothing
        to crop returns itself.
        """
        n, d = self.n_modes, self.cutoff
        s = max(2, d - self.headroom)
        if s == d:
            return self
        if self.kind == "pure":
            arr = self.array[(slice(0, s),) * n]
        else:
            arr = self.array.reshape((d,) * (2 * n))[(slice(0, s),) * (2 * n)]
            arr = arr.reshape(s ** n, s ** n)
        return DenseState(ModeSpec(n, s), self.kind, np.ascontiguousarray(arr),
                          headroom=self.headroom - (d - s))


@dataclass
class PartialTransposeResult:
    """Minimal eigenvalue of a partially transposed density matrix."""

    bipartition: frozenset[int]
    min_eigenvalue: float
    witness_vector: np.ndarray


# ---------------------------------------------------------------------------
# single-mode operator matrices


@lru_cache(maxsize=None)
def _monomial_cached(d: int, q: int, p: int) -> tuple:
    m = np.zeros((d, d))
    for col in range(p, d):
        row = col - p + q
        if row < d:
            m[row, col] = math.sqrt(math.perm(col, p) * math.perm(row, q))
    return (m,)


def monomial_matrix(d: int, q: int, p: int) -> np.ndarray:
    """Exact matrix elements <m'| a^dag^q a^p |m> on the d-dim truncation."""
    return _monomial_cached(d, q, p)[0]


# ---------------------------------------------------------------------------
# constructors


def _support_cap(spec: ModeSpec, headroom: int) -> int:
    cap = spec.cutoff - 1 - headroom
    if cap < 0:
        raise ValueError("headroom exceeds cutoff")
    return cap


def from_amplitudes(spec: ModeSpec, tensor: np.ndarray,
                    headroom: int | None = None) -> DenseState:
    """Wrap a (normalized) amplitude tensor; infer headroom from the exact
    support if not given."""
    arr = np.asarray(tensor, dtype=complex).reshape(spec.shape)
    nrm = np.linalg.norm(arr)
    if nrm == 0:
        raise ValueError("zero amplitude tensor")
    arr = arr / nrm
    if headroom is None:
        occ = DenseState(spec, "pure", arr).max_occupation()
        headroom = spec.cutoff - 1 - occ
    return DenseState(spec, "pure", arr, headroom=headroom)


def make_basis_state(spec: ModeSpec, occupations: Sequence[int]) -> DenseState:
    if len(occupations) != spec.n_modes:
        raise ValueError("one occupation per mode required")
    for k, m in enumerate(occupations):
        if not 0 <= m < spec.cutoff:
            raise CutoffError(f"occupation {m} on mode {k} exceeds cutoff {spec.cutoff}")
    arr = np.zeros(spec.shape, dtype=complex)
    arr[tuple(occupations)] = 1.0
    return DenseState(spec, "pure", arr,
                      headroom=spec.cutoff - 1 - max(occupations))


def make_ghz_like(spec: ModeSpec, phase: complex = 1.0) -> DenseState:
    """(|0...0> + phase |1...1>)/sqrt(2) with |phase| = 1."""
    if abs(abs(phase) - 1.0) > 1e-12:
        raise ValueError("phase must lie on the unit circle")
    arr = np.zeros(spec.shape, dtype=complex)
    arr[(0,) * spec.n_modes] = 1.0 / math.sqrt(2)
    arr[(1,) * spec.n_modes] = phase / math.sqrt(2)
    return DenseState(spec, "pure", arr, headroom=spec.cutoff - 2)


def _coherent_vector(alpha: complex, top: int) -> np.ndarray:
    m = np.arange(top + 1)
    logfact = np.cumsum(np.log(np.maximum(m, 1)))
    return np.exp(-abs(alpha) ** 2 / 2 + m * np.log(complex(alpha))
                  - logfact / 2) if alpha != 0 else np.eye(top + 1, 1, dtype=complex)[:, 0]


def make_coherent_product(spec: ModeSpec, alphas: Sequence[complex],
                          headroom: int = 2) -> DenseState:
    """Normalized truncated product of coherent states |alpha_k>.

    Support is capped at d-1-headroom per mode; the dropped tail must fit
    inside the truncation budget, else the offending mode is reported.
    """
    if len(alphas) != spec.n_modes:
        raise ValueError("one alpha per mode required")
    cap = _support_cap(spec, headroom)
    factors = []
    for k, alpha in enumerate(alphas):
        x = abs(alpha) ** 2
        tail = sum(math.exp(m * math.log(x) - math.lgamma(m + 1)) if x > 0 else 0.0
                   for m in range(cap + 1, cap + 200))
        if tail > _TRUNCATION_BUDGET:
            raise TruncationError(
                f"coherent truncation budget exceeded on mode {k}: tail {tail:.3e}")
        vec = np.zeros(spec.cutoff, dtype=complex)
        vec[: cap + 1] = _coherent_vector(alpha, cap)
        factors.append(vec)
    arr = factors[0]
    for vec in factors[1:]:
        arr = np.tensordot(arr, vec, axes=0)
    arr = arr / np.linalg.norm(arr)
    return DenseState(spec, "pure", arr.reshape(spec.shape), headroom=headroom)


def make_two_mode_squeezed(spec: ModeSpec, r: float, headroom: int = 2) -> DenseState:
    """Truncation of sqrt(1-l^2) sum_m l^m |m,m>, l = tanh r."""
    if spec.n_modes != 2:
        raise ValueError("two-mode squeezed vacuum requires n_modes = 2")
    lam = math.tanh(r)
    cap = _support_cap(spec, headroom)
    if lam ** (2 * (cap + 1)) > _TRUNCATION_BUDGET:
        raise TruncationError(
            f"squeezing truncation budget exceeded: tanh(r)^(2(d-h)) = "
            f"{lam ** (2 * (cap + 1)):.3e}")
    arr = np.zeros(spec.shape, dtype=complex)
    for m in range(cap + 1):
        arr[m, m] = lam ** m
    arr = arr / np.linalg.norm(arr)
    return DenseState(spec, "pure", arr, headroom=headroom)


def _support_mask(spec: ModeSpec, cap: int) -> np.ndarray:
    grids = np.indices(spec.shape)
    return (grids.max(axis=0) <= cap)


def _gaussian_rows(rng: np.random.Generator, rows: np.ndarray, n_drawn: int,
                   out: np.ndarray) -> None:
    """Draw ``rng.standard_normal((n_drawn, width))`` in row chunks of about
    ``_DRAW_CHUNK`` normals and write its rows ``rows`` (sorted) to ``out``."""
    width = out.shape[1]
    step = max(1, _DRAW_CHUNK // width)
    for start in range(0, n_drawn, step):
        stop = min(start + step, n_drawn)
        chunk = rng.standard_normal((stop - start, width))
        lo, hi = np.searchsorted(rows, (start, stop))
        out[lo:hi] = chunk[rows[lo:hi] - start]


def random_state(spec: ModeSpec, kind: Literal["pure", "mixed"],
                 headroom: int, seed: int) -> DenseState:
    """Seeded Gaussian-random state supported below the headroom cap."""
    if kind not in ("pure", "mixed"):
        raise ValueError(f"random state kind must be 'pure' or 'mixed', got {kind!r}")
    cap = _support_cap(spec, headroom)
    rng = np.random.default_rng(seed)
    mask = _support_mask(spec, cap)
    if kind == "pure":
        arr = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        arr = arr * mask
        arr = arr / np.linalg.norm(arr)
        return DenseState(spec, "pure", arr, headroom=headroom)
    dim = spec.dim
    # G = re + i im with re, im each one row-major (dim, dim) standard_normal
    # draw, real first; rho = G G^dag needs only G's support rows. The real
    # draw still runs to its end, so that the stream reaches the imaginary
    # draw at the same point, and the imaginary draw stops after the last
    # support row, as nothing reads the stream after it. standard_normal
    # fills row-major from one stream, so row chunks give the same bits.
    rows = np.flatnonzero(mask)
    g = np.empty((rows.size, dim), dtype=complex)
    _gaussian_rows(rng, rows, dim, g.real)
    _gaussian_rows(rng, rows, rows[-1] + 1, g.imag)
    block = g @ g.conj().T
    rho = np.zeros((dim, dim), dtype=complex)
    rho[np.ix_(rows, rows)] = block / np.trace(block).real
    return DenseState(spec, "mixed", rho, headroom=headroom)


def random_separable_mixture(spec: ModeSpec, n_terms: int, headroom: int,
                             seed: int) -> DenseState:
    """Random convex mixture of random product pure states (PPT by construction)."""
    cap = _support_cap(spec, headroom)
    rng = np.random.default_rng(seed)
    weights = rng.random(n_terms)
    weights = weights / weights.sum()
    dim = spec.dim
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        vec = np.ones(1, dtype=complex)
        for _ in range(spec.n_modes):
            f = np.zeros(spec.cutoff, dtype=complex)
            f[: cap + 1] = (rng.standard_normal(cap + 1)
                            + 1j * rng.standard_normal(cap + 1))
            f = f / np.linalg.norm(f)
            vec = np.kron(vec, f)
        rho += w * np.outer(vec, vec.conj())
    return DenseState(spec, "mixed", rho, headroom=headroom)


# ---------------------------------------------------------------------------
# expectation values


def product_operator_expectation(state: DenseState,
                                 matrices: dict[int, np.ndarray]) -> complex:
    """<psi| prod_k M_k |psi> or tr(rho prod_k M_k) for per-mode matrices."""
    n, d = state.n_modes, state.cutoff
    if state.kind == "pure":
        out = state.array
        for mode, m in matrices.items():
            out = (m @ out.reshape(d ** mode, d, -1)).reshape(out.shape)
        return complex(np.vdot(state.array, out))
    # axis k of rho is the ket of mode k; its bra is axis n + k if M_k joins
    # them, else axis k again, which traces the mode out
    args = [state.array.reshape((d,) * (2 * n)),
            [*range(n), *(n + k if k in matrices else k for k in range(n))]]
    for mode, m in matrices.items():
        args += [m, [n + mode, mode]]
    return complex(np.einsum(*args, []))


# ---------------------------------------------------------------------------
# partial transposition


def _check_bipartition(modes: frozenset[int], n_modes: int) -> None:
    if not modes or modes == frozenset(range(n_modes)):
        raise BipartitionError(
            "trivial bipartition: corresponds to no transposition at all")
    if not modes <= frozenset(range(n_modes)):
        raise BipartitionError(f"bipartition {sorted(modes)} references unknown modes")


def partial_transpose(state: DenseState, bipartition: Iterable[int]) -> np.ndarray:
    """Density matrix with the indices of the given modes transposed."""
    modes = frozenset(bipartition)
    n, d = state.n_modes, state.cutoff
    _check_bipartition(modes, n)
    rho = state.to_density_matrix().reshape((d,) * (2 * n))
    for k in modes:
        rho = np.swapaxes(rho, k, n + k)
    return rho.reshape(state.mode_spec.dim, state.mode_spec.dim)


def _pure_pt_min_eig(state: DenseState, modes: frozenset[int],
                     ) -> tuple[float, np.ndarray]:
    """-s1 s2 from the two largest Schmidt coefficients, and its eigenvector.

    With psi = sum_i s_i |u_i>|v_i> across (modes, rest), the partial
    transpose maps |u_i*>|v_j> to s_i s_j |u_j*>|v_i>, so its least
    eigenvalue is -s1 s2 with eigenvector (|u1*>|v2> - |u2*>|v1>)/sqrt(2)
    (Vidal & Werner, PRA 65, 032314, 2002).
    """
    n, s = state.n_modes, state.cutoff
    order = sorted(modes) + sorted(set(range(n)) - modes)
    psi = np.transpose(state.array, order).reshape(s ** len(modes), -1)
    u, sigma, vh = np.linalg.svd(psi, full_matrices=False)
    witness = (np.outer(u[:, 0].conj(), vh[1]) - np.outer(u[:, 1].conj(), vh[0]))
    witness = np.transpose(witness.reshape((s,) * n), np.argsort(order))
    return -float(sigma[0] * sigma[1]), witness.reshape(-1) / math.sqrt(2)


def partial_transpose_min_eig(state: DenseState,
                              bipartition: Iterable[int]) -> PartialTransposeResult:
    """Minimal eigenvalue (and eigenvector) of the partial transpose.

    Computed on the support lattice: pure states from their Schmidt
    coefficients, mixed states by ``eigh``. Off the support the partial
    transpose is zero, which adds the eigenvalue 0 whenever the support is
    smaller than the lattice. The witness is embedded in the full lattice.
    """
    modes = frozenset(bipartition)
    _check_bipartition(modes, state.n_modes)
    sup = state.support
    if state.kind == "pure":
        value, local = _pure_pt_min_eig(sup, modes)
    else:
        pt = partial_transpose(sup, modes)
        herm_res = np.max(np.abs(pt - pt.conj().T))
        if herm_res > 1e-10:
            raise ValueError(f"partial transpose Hermiticity residue {herm_res}")
        vals, vecs = np.linalg.eigh(pt)
        value, local = float(vals[0]), vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    witness = np.zeros(state.mode_spec.shape, dtype=complex)
    if sup is not state and value > 0:
        value = 0.0
        witness[(-1,) * state.n_modes] = 1.0
    else:
        witness[(slice(0, sup.cutoff),) * state.n_modes] = local.reshape(
            sup.mode_spec.shape)
    return PartialTransposeResult(bipartition=modes, min_eigenvalue=value,
                                  witness_vector=witness.reshape(-1))
