"""Exact structured-superposition algebra vs the dense lattice oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (ModeSpec, NormalOrderedPoly, QuadratureSettings,
                    StructuredState, cfrd_beta, cfrd_evaluate, coherent_ket,
                    from_amplitudes, make_cat_family,
                    make_fock_pair, normal_order, number_ket,
                    single_mode_matrix_element, structured_moment,
                    two_mode_bound, two_mode_moment_table)
from cvbell.fock import monomial_matrix
from cvbell.structured import overlap, structured_poly_expectation

from conftest import ladder_word_oracle


def test_normal_order_a_adagger():
    poly = normal_order([("annihilate", 1), ("create", 1)])
    assert poly.terms == {(1, 1): 1.0, (0, 0): 1.0}


def test_normal_order_a2_adagger2():
    poly = normal_order([("annihilate", 2), ("create", 2)])
    assert poly.terms == {(2, 2): 1.0, (1, 1): 4.0, (0, 0): 2.0}


def test_normal_order_already_normal():
    poly = normal_order([("create", 1), ("annihilate", 1)])
    assert poly.terms == {(1, 1): 1.0}


def test_normal_order_unknown_op_rejected():
    with pytest.raises(ValueError):
        normal_order([("destroy", 1)])


@given(word=st.lists(st.tuples(st.sampled_from(["create", "annihilate"]),
                               st.integers(1, 3)), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_normal_order_dense_reexpansion(word):
    """The reordered polynomial reproduces the word's matrix below the edge."""
    d = 12
    degree = sum(p for _, p in word)
    if degree > 8:
        return
    a = monomial_matrix(d, 0, 1)
    ad = monomial_matrix(d, 1, 0)
    ref = np.eye(d, dtype=complex)
    for op, power in word:
        m = ad if op == "create" else a
        ref = ref @ np.linalg.matrix_power(m, power)
    got = normal_order(word).to_matrix(d)
    crop = d - degree  # rows near the cutoff edge differ by construction
    np.testing.assert_allclose(got[:crop, :crop], ref[:crop, :crop], atol=1e-10)


def test_single_mode_matrix_element_cases():
    a_poly = NormalOrderedPoly({(0, 1): 1.0})
    assert single_mode_matrix_element(coherent_ket(0.5), a_poly,
                                      coherent_ket(0.5)) == pytest.approx(0.5)
    aad = normal_order([("annihilate", 1), ("create", 1)])
    assert single_mode_matrix_element(number_ket(0), aad,
                                      number_ket(0)) == pytest.approx(1.0)
    adag_a = normal_order([("create", 1), ("annihilate", 1)])
    assert single_mode_matrix_element(number_ket(2), adag_a,
                                      number_ket(2)) == pytest.approx(2.0)


def test_mixed_number_coherent_overlap():
    beta = 0.3 + 0.4j
    # <m|beta> = e^{-|beta|^2/2} beta^m / sqrt(m!)
    for m in range(4):
        want = math.exp(-abs(beta) ** 2 / 2) * beta ** m / math.sqrt(
            math.factorial(m))
        assert overlap(number_ket(m), coherent_ket(beta)) == pytest.approx(want)


def test_coherent_element_equals_per_monomial_sum_exactly():
    # the overlap factor is computed once per element; each monomial's term
    # keeps the order (conj(b)^q g^p) * <b|g>, so the sum is bit-identical
    poly = NormalOrderedPoly({(0, 0): 0.5 - 0.25j, (1, 0): 2.0 + 1.0j,
                              (1, 2): -1.5j, (3, 1): 0.75})
    assert len(poly.terms) == 4
    for b, g in [(0.3 + 0.4j, -1.1 + 0.2j), (1.7 - 0.6j, 0.9 + 1.3j)]:
        want = 0j
        for (q, p), c in poly.terms.items():
            want += c * (b.conjugate() ** q * g ** p * cmath.exp(
                -abs(b - g) ** 2 / 2 + 1j * (b.conjugate() * g).imag))
        got = single_mode_matrix_element(coherent_ket(b), poly, coherent_ket(g))
        assert repr(got) == repr(want)


def test_coherent_overlap_is_exactly_one_on_the_diagonal():
    # exp(-|b|^2/2 - |b|^2/2 + |b|^2) cancels two numbers of size |b|^2 and
    # misses 1 by ~eps |b|^2; the overlap must not
    phases = np.exp(1j * np.linspace(0.0, 2 * math.pi, 500, endpoint=False))
    for size in (1.0, 1e3, 1e5, 1e7, 1e8):
        for phase in phases:
            ket = coherent_ket(complex(size * phase))
            assert overlap(ket, ket) == 1.0


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("size", [1e5, 1e7])
def test_large_odd_cats_keep_their_norm_and_never_violate(n, size):
    # N(|a..a> - |-a..-a>) at |a| = size: the norm is 1 to rounding, and no
    # setting near delta = 0 with balanced signs reads a violation, which
    # the paper rules out for these cats
    rng = np.random.default_rng(n)
    for _ in range(40):
        alpha = complex(size * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        cat = make_cat_family(n, alpha, -1)
        assert abs(cat.norm_squared() - 1.0) <= 1e-14
        signs = tuple(int(s) for s in rng.permutation([1, -1] * (n // 2)))
        settings_ = QuadratureSettings(tuple(rng.uniform(0, 2 * math.pi, n)),
                                       tuple(rng.uniform(-0.1, 0.1, n)), signs)
        assert not cfrd_evaluate(cat, settings_).violated


def test_structured_vacuum_annihilation_word():
    vac = StructuredState(1, [(1.0, (number_ket(0),))])
    val = structured_moment(vac, {0: [("create", 1), ("annihilate", 1)]})
    assert val == pytest.approx(0.0)
    val = structured_moment(vac, {0: [("annihilate", 1), ("create", 1)]})
    assert val == pytest.approx(1.0)


def test_structured_ghz_product_moment():
    c = 1.0 / math.sqrt(2)
    for n in (2, 3, 5):
        ghz = StructuredState(n, [(c, tuple(number_ket(0) for _ in range(n))),
                                 (c, tuple(number_ket(1) for _ in range(n)))])
        word = {k: [("annihilate", 1)] for k in range(n)}
        assert structured_moment(ghz, word) == pytest.approx(0.5)


def _dense_from_structured(state, d):
    """Expand a structured state with small number/coherent factors on a lattice."""
    spec = ModeSpec(state.n_modes, d)
    tensor = np.zeros(spec.shape, dtype=complex)
    grids = np.arange(d)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, d)))))
    for coeff, factors in state.terms:
        vecs = []
        for f in factors:
            if f.variant == "number":
                v = np.zeros(d, dtype=complex)
                v[int(f.value.real)] = 1.0
            else:
                b = complex(f.value)
                if b == 0:
                    v = np.zeros(d, dtype=complex)
                    v[0] = 1.0
                else:
                    v = np.exp(-abs(b) ** 2 / 2 + grids * np.log(b)
                               - logfact / 2)
            vecs.append(v)
        term = vecs[0]
        for v in vecs[1:]:
            term = np.tensordot(term, v, axes=0)
        tensor = tensor + coeff * term
    return tensor


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_structured_matches_dense_on_random_words(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    d = 24
    factors = []
    for _ in range(2):
        row = []
        for _ in range(n):
            if rng.random() < 0.5:
                row.append(number_ket(int(rng.integers(0, 3))))
            else:
                beta = complex(*(0.4 * rng.standard_normal(2)))
                if abs(beta) > 0.8:
                    beta = 0.8 * beta / abs(beta)
                row.append(coherent_ket(beta))
        factors.append(tuple(row))
    coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)

    # normalize through the structured Gram matrix
    trial = StructuredState(n, [(coeffs[0], factors[0]), (coeffs[1], factors[1])])
    nrm = math.sqrt(trial.norm_squared())
    state = StructuredState(n, [(coeffs[0] / nrm, factors[0]),
                                (coeffs[1] / nrm, factors[1])])

    # crop the (numerically negligible) coherent tail above d - 5
    tensor = _dense_from_structured(state, d)
    cap = d - 5
    for k in range(n):
        sl = [slice(None)] * n
        sl[k] = slice(cap + 1, None)
        tensor[tuple(sl)] = 0.0
    dense = from_amplitudes(ModeSpec(n, d), tensor)

    word = {}
    flat = []
    for k in range(n):
        ops = []
        for _ in range(int(rng.integers(0, 3))):
            ops.append((str(rng.choice(["create", "annihilate"])), 1))
        if ops:
            word[k] = ops
            flat.extend((k, op) for op, _ in ops)
    flat = [(k, op) for k in sorted(word) for op, _ in word[k]]

    got = structured_moment(state, word)
    want = ladder_word_oracle(dense, flat)
    assert got == pytest.approx(want, abs=1e-8)


def test_cat_family_limits():
    tiny = make_cat_family(1, 1e-8, 1)
    # alpha -> 0 with sign +1 approaches the vacuum
    assert abs(overlap(number_ket(0), tiny.terms[0][1][0])) == pytest.approx(
        1.0, abs=1e-10)
    cat = make_cat_family(2, 1.0, -1)
    assert cat.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_cat_family_degenerate_normalization():
    with pytest.raises(ValueError):
        make_cat_family(1, 0.0, -1)


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0, -math.inf)])
def test_non_finite_ket_rejected(value):
    with pytest.raises(ValueError):
        coherent_ket(value)
    with pytest.raises(ValueError):
        number_ket(value)
    with pytest.raises(ValueError):
        make_cat_family(2, value, 1)


def _two_term_state():
    """A two-mode superposition mixing coherent and number factors."""
    terms = [(0.8, (coherent_ket(0.3 + 0.2j), number_ket(1))),
             (0.6j, (number_ket(0), coherent_ket(-0.4)))]
    norm = math.sqrt(StructuredState(2, terms).norm_squared())
    return StructuredState(2, [(c / norm, f) for c, f in terms])


@pytest.mark.parametrize("state, d", [(_two_term_state(), 24),
                                      (make_fock_pair(4, [0, 1]), 3)])
def test_functional_agrees_across_representations(state, d):
    dense = from_amplitudes(ModeSpec(state.n_modes, d),
                            _dense_from_structured(state, d))
    n = state.n_modes
    rng = np.random.default_rng(n)
    stg = QuadratureSettings(tuple(rng.uniform(0, 2 * math.pi, n)),
                             tuple(rng.uniform(-1.2, 1.2, n)),
                             tuple([1] * (n - 1) + [-1]))
    got, want = cfrd_evaluate(state, stg), cfrd_evaluate(dense, stg)
    for field in ("lhs", "rhs", "s_squared", "product_number_moment",
                  "minor_d", "beta", "mean_forward", "mean_reverse"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-9)
    args = (stg.thetas, stg.deltas, stg.signs)
    assert cfrd_beta(state, *args) == pytest.approx(cfrd_beta(dense, *args), abs=1e-9)
    if n == 2:
        np.testing.assert_allclose(two_mode_moment_table(state),
                                   two_mode_moment_table(dense), atol=1e-9)
        got, want = two_mode_bound(state, stg), two_mode_bound(dense, stg)
        assert got.beta2 == pytest.approx(want.beta2, abs=1e-9)
        assert got.bound == want.bound


def test_fock_pair_norm_and_cross_moment():
    state = make_fock_pair(4, [0, 1])
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)
    word = {k: [("annihilate", 1)] for k in range(2)}
    word.update({k: [("create", 1)] for k in range(2, 4)})
    assert structured_moment(state, word) == pytest.approx(0.5)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_gram_matrix_psd(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    terms = []
    for _ in range(3):
        row = tuple(coherent_ket(complex(*(rng.standard_normal(2))))
                    for _ in range(n))
        terms.append((1.0, row))
    trial = StructuredState(n, terms)
    nrm = math.sqrt(trial.norm_squared())
    state = StructuredState(n, [(c / nrm, f) for c, f in terms])
    eigs = np.linalg.eigvalsh(state.gram_matrix())
    assert eigs.min() >= -1e-10


def test_coherent_ket_value_is_python_complex():
    ket = coherent_ket(np.float64(0.5))
    assert type(ket.value) is complex
    assert ket.value == 0.5


def _pick_by_pick(state, pick):
    """Reference: every element recomputed per pick, term pairs in order."""
    ident = NormalOrderedPoly.identity()
    total = 0.0 + 0.0j
    for ci, fi in state.terms:
        for cj, fj in state.terms:
            val = ci.conjugate() * cj
            for mode in range(state.n_modes):
                val *= single_mode_matrix_element(fi[mode], pick.get(mode, ident),
                                                  fj[mode])
                if val == 0:
                    break
            total += val
    return complex(total)


@pytest.mark.parametrize("seed", range(6))
def test_batched_poly_expectation_equals_single_picks(seed):
    rng = np.random.default_rng(seed)
    n = 4
    terms = []
    for _ in range(3):
        row = tuple(number_ket(int(rng.integers(0, 3))) if rng.random() < 0.5
                    else coherent_ket(complex(*(0.6 * rng.standard_normal(2))))
                    for _ in range(n))
        terms.append((complex(*rng.standard_normal(2)), row))
    state = StructuredState(n, terms)
    a = normal_order([("annihilate", 1)])
    ad = normal_order([("create", 1)])
    num = normal_order([("create", 1), ("annihilate", 1)])
    mixed = NormalOrderedPoly({(0, 0): 0.5, (1, 1): 0.3, (2, 0): 0.2j})
    picks = [{},
             {0: a, 1: ad, 2: num, 3: mixed},
             {0: a, 1: ad, 2: num},        # identity on mode 3 only
             {0: a, 1: ad, 3: mixed},      # identity on mode 2 only
             {k: num for k in range(n)},   # one object on every mode
             {1: mixed, 3: mixed},
             {0: normal_order([("annihilate", 1)])},  # equal to a, new object
             {}]
    batched = structured_poly_expectation(state, picks)
    assert batched == [structured_poly_expectation(state, [p])[0] for p in picks]
    assert batched == [_pick_by_pick(state, p) for p in picks]
    assert structured_poly_expectation(state, []) == []
