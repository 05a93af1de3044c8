"""Matrices of moments with bipartition-dependent operator ordering.

Row index (k, l) and column index (p, q) are per-mode exponent vectors. The
entry word puts, for each transposed mode,  b^dag^q b^p b^dag^k b^l  and for
each untransposed mode  b^dag^l b^k b^dag^p b^q.  Nonnegativity of every
principal minor of such a matrix characterizes positivity of the partial
transpose across the chosen bipartition; at finite order only the
necessary direction is testable.

Matrices are built on the bare mode operators b = a; the CFRD minor also
takes per-mode Bogoliubov transforms (u, v) with b = u a + v a^dag, the
rotated/squeezed frame of the Bell functional's settings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalConsistencyError
from .fock import DenseState, product_operator_expectation
from .structured import (NormalOrderedPoly, StructuredState,
                         structured_poly_expectation)

NEGATIVITY_THRESHOLD = -1e-9
# matrix entries per stacked minor det call; bounds memory at large max_size
_MINOR_BATCH_ENTRIES = 1 << 20

IndexPair = tuple[tuple[int, ...], tuple[int, ...]]  # (k, l) per-mode exponents


@dataclass
class MomentMatrix:
    bipartition: frozenset[int]
    order: int
    index_list: list[IndexPair]
    entries: np.ndarray

    def hermiticity_residue(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))


@dataclass
class MinorReport:
    subset: tuple[int, ...]
    determinant: float
    matrix_slice: np.ndarray


def index_pairs(n_modes: int, order: int) -> list[IndexPair]:
    """All (k, l) pairs with total degree <= order, graded lexicographic.

    A pair of degree t is a multiset of t of the 2n exponent slots, so the
    C(2n + order, order) pairs are enumerated directly."""
    pairs = []
    for total in range(order + 1):
        for slots in itertools.combinations_with_replacement(range(2 * n_modes), total):
            combo = tuple(slots.count(j) for j in range(2 * n_modes))
            pairs.append((combo[:n_modes], combo[n_modes:]))
    pairs.sort(key=lambda kl: (sum(kl[0]) + sum(kl[1]), kl[0] + kl[1]))
    return pairs


def _b_polys(transform) -> tuple[NormalOrderedPoly, NormalOrderedPoly]:
    if transform is None:
        return (NormalOrderedPoly.ladder("annihilate"),
                NormalOrderedPoly.ladder("create"))
    u, v = transform
    b = NormalOrderedPoly({(0, 1): u, (1, 0): v})
    return b, b.dagger()


def poly_expectations(state, picks: Sequence[dict[int, NormalOrderedPoly]],
                      ) -> list[complex]:
    """Expectations of products of per-mode normal-ordered polynomials.

    Each pick maps mode -> polynomial; modes absent from a pick carry the
    identity. Every matrix of moments reads its entries here, on a path
    independent of ``cfrd.moment_table``. A dense state is evaluated on its
    support lattice, where each distinct polynomial is lowered once per call;
    the result is exact at any headroom, because ``to_matrix`` holds the exact
    matrix elements below the cutoff and modes combine by tensor product.
    """
    if isinstance(state, StructuredState):
        return structured_poly_expectation(state, picks)
    if isinstance(state, DenseState):
        state = state.support
        polys = {id(poly): poly for pick in picks for poly in pick.values()}
        lowered = {key: poly.to_matrix(state.cutoff) for key, poly in polys.items()}
        return [product_operator_expectation(
                    state, {mode: lowered[id(poly)] for mode, poly in pick.items()})
                for pick in picks]
    raise TypeError(f"unsupported state type {type(state).__name__}")


def _entries(state, part: frozenset[int], rows: Sequence[IndexPair],
             cols: Sequence[IndexPair], transforms) -> np.ndarray:
    """Entries at ``rows`` x ``cols`` in one ``poly_expectations`` call, in
    the frame ``transforms`` (per-mode (u, v), None for b = a). Each distinct
    (mode, exponents) word is built once and shared by the entries using it.
    """
    ladders = [_b_polys(None if transforms is None else transforms[mode])
               for mode in range(state.n_modes)]
    words: dict[tuple[int, tuple[int, ...]], NormalOrderedPoly] = {}
    picks = []
    for kvec, lvec in rows:
        for pvec, qvec in cols:
            pick = {}
            for mode, (b, bdag) in enumerate(ladders):
                if mode in part:
                    exps = (qvec[mode], pvec[mode], kvec[mode], lvec[mode])
                else:
                    exps = (lvec[mode], kvec[mode], pvec[mode], qvec[mode])
                if not any(exps):
                    continue
                if (mode, exps) not in words:
                    poly = NormalOrderedPoly.identity()
                    for base, power in zip((bdag, b, bdag, b), exps):
                        for _ in range(power):
                            poly = poly * base
                    words[mode, exps] = poly
                pick[mode] = words[mode, exps]
            picks.append(pick)
    values = poly_expectations(state, picks)
    return np.array(values, dtype=complex).reshape(len(rows), len(cols))


def build_moment_matrix(state, bipartition: Iterable[int], order: int,
                        ) -> MomentMatrix:
    """Full matrix over all exponent pairs with total degree <= order.

    The empty and all-mode bipartitions give the state-positivity matrix."""
    part = frozenset(bipartition)
    pairs = index_pairs(state.n_modes, order)
    return MomentMatrix(bipartition=part, order=order, index_list=pairs,
                        entries=_entries(state, part, pairs, pairs, None))


def principal_minor(matrix: MomentMatrix, subset: Sequence[int]) -> MinorReport:
    """Determinant of the principal submatrix on the given index subset."""
    idx = tuple(subset)
    if not idx:
        raise ValueError("subset must be nonempty")
    if max(idx) >= len(matrix.index_list) or min(idx) < 0:
        raise ValueError("subset outside matrix dimension")
    sl = matrix.entries[np.ix_(idx, idx)]
    det = complex(np.linalg.det(sl))
    if abs(det.imag) > 1e-9 * max(1.0, abs(det)):
        raise NumericalConsistencyError(
            f"principal minor determinant {det} has non-real residue")
    return MinorReport(subset=idx, determinant=det.real, matrix_slice=sl)


def find_negative_minor(matrix: MomentMatrix, max_size: int = 3) -> MinorReport | None:
    """First principal minor below the negativity threshold, sizes ascending.

    Each size's minors are stacked into few det calls; the first one, in
    ``itertools.combinations`` order, that is negative or not real goes
    through ``principal_minor``, which reports or rejects it."""
    dim = len(matrix.index_list)
    if not 1 <= max_size <= dim:
        raise ValueError(f"max_size must lie in 1..{dim} (the matrix dimension)")
    for size in range(1, max_size + 1):
        subsets = itertools.combinations(range(dim), size)
        per_call = max(1, _MINOR_BATCH_ENTRIES // size ** 2)
        while chunk := list(itertools.islice(subsets, per_call)):
            idx = np.array(chunk)
            dets = np.linalg.det(matrix.entries[idx[:, :, None], idx[:, None, :]])
            flagged = ((np.abs(dets.imag) > 1e-9 * np.maximum(1.0, np.abs(dets)))
                       | (dets.real < NEGATIVITY_THRESHOLD))
            if flagged.any():
                # the stacked and the single det agree bit for bit
                return principal_minor(matrix, chunk[int(np.argmax(flagged))])
    return None


def cfrd_minor_determinant(state, bipartition: Iterable[int],
                           transforms: Sequence[tuple[complex, complex]] | None = None,
                           ) -> float:
    """The 2x2 minor tied to the Bell functional, from its four entries.

    Row one is the identity moment; row two has l = 1 on every mode, which
    puts the product-of-number-operators moment on the diagonal.
    """
    part = frozenset(bipartition)
    zero, ones = (0,) * state.n_modes, (1,) * state.n_modes
    pairs = [(zero, zero), (zero, ones)]
    matrix = MomentMatrix(bipartition=part, order=state.n_modes, index_list=pairs,
                          entries=_entries(state, part, pairs, pairs, transforms))
    return principal_minor(matrix, (0, 1)).determinant
