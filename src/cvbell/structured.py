"""Exact moments for finite superpositions of product kets.

A StructuredState is a finite sum of product kets whose single-mode factors
are number states or coherent states. All matrix elements have closed forms,
so moments are exact at any mode count -- this is what lets the scan drivers
reach mode numbers a dense tensor cannot.

The single-mode operator algebra is handled by NormalOrderedPoly: a finite
sum  sum_{q,p} c_{qp} a^dag^q a^p  with exact reordering via
a^p a^dag^k = sum_j j! C(p,j) C(k,j) a^dag^(k-j) a^(p-j).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .fock import monomial_matrix

_COEFF_UNDERFLOW = 1e-300


class NormalOrderedPoly:
    """Single-mode operator polynomial sum c_{qp} a^dag^q a^p."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], complex] | None = None):
        self.terms = {}
        if terms:
            for (q, p), c in terms.items():
                if q < 0 or p < 0:
                    raise ValueError("exponents must be nonnegative")
                if c != 0:
                    self.terms[(q, p)] = complex(c)

    @classmethod
    def identity(cls) -> "NormalOrderedPoly":
        return cls({(0, 0): 1.0})

    @classmethod
    def ladder(cls, op: str, power: int = 1) -> "NormalOrderedPoly":
        if op == "annihilate":
            return cls({(0, power): 1.0})
        if op == "create":
            return cls({(power, 0): 1.0})
        raise ValueError(f"unknown ladder op {op!r}")

    def __mul__(self, other: "NormalOrderedPoly") -> "NormalOrderedPoly":
        """Operator product, re-expanded into normal order (exact)."""
        out: dict[tuple[int, int], complex] = {}
        for (q1, p1), c1 in self.terms.items():
            for (q2, p2), c2 in other.terms.items():
                # reorder a^p1 a^dag^q2
                for j in range(min(p1, q2) + 1):
                    coeff = (c1 * c2 * math.factorial(j)
                             * math.comb(p1, j) * math.comb(q2, j))
                    key = (q1 + q2 - j, p1 + p2 - j)
                    out[key] = out.get(key, 0.0) + coeff
        return NormalOrderedPoly(out)

    def dagger(self) -> "NormalOrderedPoly":
        return NormalOrderedPoly({(p, q): c.conjugate()
                                  for (q, p), c in self.terms.items()})

    def to_matrix(self, d: int) -> np.ndarray:
        """Exact d x d matrix representation (entries below the cutoff)."""
        m = np.zeros((d, d), dtype=complex)
        for (q, p), c in self.terms.items():
            m += c * monomial_matrix(d, q, p)
        return m

    def __repr__(self):
        return f"NormalOrderedPoly({self.terms!r})"


def normal_order(word: Sequence[tuple[str, int]]) -> NormalOrderedPoly:
    """Normally order a single-mode ladder word given as (op, exponent) factors.

    Factors are listed left to right in operator order; the result equals the
    word exactly as an operator.
    """
    poly = NormalOrderedPoly.identity()
    for op, power in word:
        if power < 0:
            raise ValueError("exponent must be nonnegative")
        if power:
            poly = poly * NormalOrderedPoly.ladder(op, power)
    return poly


# ---------------------------------------------------------------------------
# primitive kets and their matrix elements


@dataclass(frozen=True)
class PrimitiveKet:
    """Single-mode factor: a number state |m> or a coherent state |beta>."""

    variant: Literal["number", "coherent"]
    value: complex

    def __post_init__(self):
        if not cmath.isfinite(self.value):
            raise ValueError(f"{self.variant} ket value must be finite")
        if self.variant == "number":
            m = self.value
            if m != int(m.real) or m.imag != 0 or int(m.real) < 0:
                raise ValueError("number occupation must be a nonnegative integer")
            object.__setattr__(self, "value", complex(int(m.real)))
        elif self.variant == "coherent":
            object.__setattr__(self, "value", complex(self.value))
        else:
            raise ValueError(f"unknown ket variant {self.variant!r}")


def number_ket(m: int) -> PrimitiveKet:
    return PrimitiveKet("number", m)


def coherent_ket(beta: complex) -> PrimitiveKet:
    return PrimitiveKet("coherent", beta)


def _mono_number_number(m: int, q: int, p: int, mp: int) -> complex:
    # <m| a^dag^q a^p |m'>
    if mp < p or m - q != mp - p or m < q:
        return 0.0
    return math.sqrt(math.perm(mp, p) * math.perm(m, q))


def _mono_number_coherent(m: int, q: int, p: int, beta: complex) -> complex:
    # <m| a^dag^q a^p |beta>
    if m < q:
        return 0.0
    k = m - q
    amp = cmath.exp(-abs(beta) ** 2 / 2) * beta ** k / math.sqrt(math.factorial(k))
    return math.sqrt(math.perm(m, q)) * beta ** p * amp


def single_mode_matrix_element(bra: PrimitiveKet, poly: NormalOrderedPoly,
                               ket: PrimitiveKet) -> complex:
    """Exact <bra| poly |ket> for number/coherent factors."""
    total = 0.0 + 0.0j
    if bra.variant == "coherent" and ket.variant == "coherent":
        bc, g = bra.value.conjugate(), ket.value
        # the overlap <bra|ket> is common to every monomial. Through
        # |bra - ket|^2 it is exactly 1 at bra = ket; -|b|^2/2 - |g|^2/2 +
        # conj(b) g would cancel terms of size |b|^2 and miss 0 by ~eps |b|^2
        ovl = cmath.exp(-abs(bra.value - g) ** 2 / 2 + 1j * (bc * g).imag)
        for (q, p), c in poly.terms.items():
            total += c * (bc ** q * g ** p * ovl)
        return complex(total)
    for (q, p), c in poly.terms.items():
        if bra.variant == "number" and ket.variant == "number":
            val = _mono_number_number(int(bra.value.real), q, p, int(ket.value.real))
        elif bra.variant == "number":
            val = _mono_number_coherent(int(bra.value.real), q, p, ket.value)
        else:
            val = _mono_number_coherent(int(ket.value.real), p, q,
                                        bra.value).conjugate()
        total += c * val
    return complex(total)


def overlap(bra: PrimitiveKet, ket: PrimitiveKet) -> complex:
    return single_mode_matrix_element(bra, NormalOrderedPoly.identity(), ket)


# ---------------------------------------------------------------------------
# structured states


@dataclass
class StructuredState:
    """Finite superposition of product kets; exact moments at any mode count."""

    n_modes: int
    terms: list[tuple[complex, tuple[PrimitiveKet, ...]]]

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        kept = []
        for coeff, factors in self.terms:
            if len(factors) != self.n_modes:
                raise ValueError("each term needs one factor per mode")
            if abs(coeff) < _COEFF_UNDERFLOW:
                warnings.warn("dropping structured term with underflowed coefficient")
                continue
            kept.append((complex(coeff), tuple(factors)))
        if not kept:
            raise ValueError("structured state needs at least one term")
        self.terms = kept

    def gram_matrix(self) -> np.ndarray:
        """Pairwise term overlaps <term_i|term_j> including coefficients."""
        nt = len(self.terms)
        g = np.zeros((nt, nt), dtype=complex)
        for i, (ci, fi) in enumerate(self.terms):
            for j, (cj, fj) in enumerate(self.terms):
                val = ci.conjugate() * cj
                for u, v in zip(fi, fj):
                    val *= overlap(u, v)
                g[i, j] = val
        return g

    def norm_squared(self) -> float:
        return float(self.gram_matrix().sum().real)


def _term_pairs(state: StructuredState):
    """(bra factors, ket factors, conj(c_i) c_j) over the T^2 term pairs."""
    return [(fi, fj, ci.conjugate() * cj)
            for ci, fi in state.terms for cj, fj in state.terms]


def term_pair_elements(state: StructuredState, polys: Sequence[NormalOrderedPoly],
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Pair weights conj(c_i) c_j, shape (T^2,), and the single-mode elements
    <t_{i,k}| poly |t_{j,k}> of every pair on every mode k, shape
    (T^2, n, len(polys)).

    The expectation of prod_k polys[m_k] on mode k is then
    sum over pairs of weight * prod_k elements[pair, k, m_k].

    Each distinct (bra factor, ket factor) pair is evaluated once, as one row
    over ``polys``, which every term pair and mode that repeats it shares:
    a cat at any mode count has four such pairs.
    """
    pairs = _term_pairs(state)
    # (row, bra, ket) of each distinct pair, keyed by the kets' fields: a
    # tuple of builtins hashes and compares faster than the dataclasses
    distinct: dict[tuple, tuple[int, PrimitiveKet, PrimitiveKet]] = {}
    at = [[distinct.setdefault((bra.variant, bra.value, ket.variant, ket.value),
                               (len(distinct), bra, ket))[0]
           for bra, ket in zip(fi, fj)] for fi, fj, _ in pairs]
    rows = np.array([[single_mode_matrix_element(bra, poly, ket) for poly in polys]
                     for _, bra, ket in distinct.values()], dtype=complex)
    return np.array([w for _, _, w in pairs]), rows[np.array(at)]


def structured_poly_expectation(state: StructuredState,
                                picks: Sequence[dict[int, NormalOrderedPoly]],
                                ) -> list[complex]:
    """Expectations of products of per-mode polynomials, one per pick.

    Modes absent from a pick carry the identity. Every distinct (mode,
    polynomial object) is evaluated once per call, as one list of single-mode
    elements over the T^2 pairs of the state's T terms; each pick multiplies
    its lists pair by pair, mode 0 first, stopping a pair at an exact zero.
    """
    pairs = _term_pairs(state)
    ident = NormalOrderedPoly.identity()
    elements: dict[tuple[int, int], list[complex]] = {}
    out = []
    for pick in picks:
        factors = []
        for mode in range(state.n_modes):
            poly = pick.get(mode, ident)
            key = (mode, id(poly))
            if key not in elements:
                elements[key] = [single_mode_matrix_element(fi[mode], poly, fj[mode])
                                 for fi, fj, _ in pairs]
            factors.append(elements[key])
        total = 0.0 + 0.0j
        for k, (_, _, val) in enumerate(pairs):
            for factor in factors:
                val *= factor[k]
                if val == 0:
                    break
            total += val
        out.append(complex(total))
    return out


def structured_moment(state: StructuredState,
                      word: dict[int, Sequence[tuple[str, int]]]) -> complex:
    """Exact expectation of a multi-mode ladder word.

    ``word`` maps mode index -> single-mode factor list in operator order,
    e.g. ``{0: [("create", 1), ("annihilate", 2)]}``.
    """
    for mode in word:
        if not 0 <= mode < state.n_modes:
            raise ValueError(f"mode {mode} out of range")
    polys = {mode: normal_order(w) for mode, w in word.items()}
    return structured_poly_expectation(state, [polys])[0]


def make_cat_family(n: int, alpha: complex, sign: int) -> StructuredState:
    """Normalized N(|alpha>^n + sign |-alpha>^n) superposition."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    ns = 2.0 * (1.0 + sign * math.exp(-2.0 * n * abs(alpha) ** 2))
    if ns <= 1e-300:
        raise ValueError("degenerate cat normalization")
    norm = 1.0 / math.sqrt(ns)
    plus = tuple(coherent_ket(alpha) for _ in range(n))
    minus = tuple(coherent_ket(-alpha) for _ in range(n))
    return StructuredState(n, [(norm, plus), (sign * norm, minus)])


def make_fock_pair(n: int, flipped: Sequence[int]) -> StructuredState:
    """(|1...1,0...0> + |0...0,1...1>)/sqrt(2) with ones swapped on ``flipped``.

    A two-branch number-state superposition; the canonical family on which
    the mixed-setting inequality shows a violation at large mode counts.
    """
    flip = frozenset(flipped)
    if not flip or not flip < frozenset(range(n)):
        raise ValueError("flipped set must be a proper nonempty subset of the modes")
    branch_a = tuple(number_ket(0 if k in flip else 1) for k in range(n))
    branch_b = tuple(number_ket(1 if k in flip else 0) for k in range(n))
    c = 1.0 / math.sqrt(2)
    return StructuredState(n, [(c, branch_a), (c, branch_b)])
