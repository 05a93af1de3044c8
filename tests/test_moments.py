"""Matrices of moments: ordering, entries, minors, and the PT cross-check."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (ModeSpec, StructuredState, build_moment_matrix,
                    cfrd_minor_determinant, find_negative_minor, index_pairs,
                    make_basis_state, make_coherent_product, make_ghz_like,
                    make_two_mode_squeezed, normal_order,
                    partial_transpose_min_eig, principal_minor,
                    random_separable_mixture, random_state)
from cvbell import moments
from cvbell.errors import NumericalConsistencyError
from cvbell.moments import NEGATIVITY_THRESHOLD, MomentMatrix, poly_expectations
from cvbell.structured import number_ket


def test_index_pairs_graded_lex():
    pairs = index_pairs(1, 2)
    degrees = [sum(k) + sum(l) for k, l in pairs]
    assert degrees == sorted(degrees)
    assert pairs[0] == ((0,), (0,))
    # within a grade, concatenated tuples ascend lexicographically
    for a, b in zip(pairs, pairs[1:]):
        if sum(a[0]) + sum(a[1]) == sum(b[0]) + sum(b[1]):
            assert a[0] + a[1] < b[0] + b[1]


def test_index_pairs_match_brute_force():
    # every exponent tuple with entries up to order, kept at degree <= order
    for n in range(1, 5):
        for order in range(4):
            want = [(c[:n], c[n:])
                    for c in itertools.product(range(order + 1), repeat=2 * n)
                    if sum(c) <= order]
            want.sort(key=lambda kl: (sum(kl[0]) + sum(kl[1]), kl[0] + kl[1]))
            assert index_pairs(n, order) == want
    assert len(index_pairs(10, 2)) == math.comb(22, 2) == 231


def _entry(state, bipartition, order, row, col) -> complex:
    """The (row, col) entry of the order-``order`` matrix of moments."""
    m = build_moment_matrix(state, bipartition, order)
    return m.entries[m.index_list.index(row), m.index_list.index(col)]


def test_identity_moment():
    st_ = random_state(ModeSpec(2, 5), "mixed", headroom=2, seed=5)
    z = ((0, 0), (0, 0))
    assert _entry(st_, frozenset({0}), 1, z, z) == pytest.approx(1.0)


def test_number_moment_entry():
    one = make_basis_state(ModeSpec(1, 5), [1])
    val = _entry(one, frozenset(), 1, ((0,), (1,)), ((0,), (1,)))
    assert val == pytest.approx(1.0)


def test_ghz_cross_moment_entry():
    # row l_1=1 with col q_2=1 assembles the a1 a2 cross moment
    ghz = make_ghz_like(ModeSpec(2, 4))
    val = _entry(ghz, frozenset({0}), 1, ((0, 0), (1, 0)), ((0, 0), (0, 1)))
    a = normal_order([("annihilate", 1)])
    want = poly_expectations(ghz, [{0: a, 1: a}])[0]
    assert val == pytest.approx(0.5)
    assert val == pytest.approx(want)


def test_vacuum_matrix_order_one():
    vac = make_basis_state(ModeSpec(2, 4), [0, 0])
    m = build_moment_matrix(vac, frozenset({0}), 1)
    diag = np.diag(m.entries).real
    assert diag[0] == pytest.approx(1.0)
    # rows indexed by pure annihilation exponents have vanishing diagonal
    for i, (k, l) in enumerate(m.index_list):
        if sum(l) > 0 and sum(k) == 0:
            assert diag[i] == pytest.approx(0.0)


def test_coherent_block_saturates():
    alpha = 0.5 + 0.2j
    coh = make_coherent_product(ModeSpec(1, 20), [alpha])
    m = build_moment_matrix(coh, frozenset(), 1)
    i0 = m.index_list.index(((0,), (0,)))
    i1 = m.index_list.index(((0,), (1,)))
    block = m.entries[np.ix_([i0, i1], [i0, i1])]
    np.testing.assert_allclose(
        block, [[1.0, alpha], [np.conj(alpha), abs(alpha) ** 2]], atol=1e-10)
    rep = principal_minor(m, [i0, i1])
    assert rep.determinant == pytest.approx(0.0, abs=1e-9)


def test_principal_minor_identity_subset():
    vac = make_basis_state(ModeSpec(1, 4), [0])
    m = build_moment_matrix(vac, frozenset(), 1)
    assert principal_minor(m, [0]).determinant == pytest.approx(1.0)


def test_tmsv_negative_minor():
    tmsv = make_two_mode_squeezed(ModeSpec(2, 14), 0.3, headroom=4)
    m = build_moment_matrix(tmsv, frozenset({1}), 2)
    hit = find_negative_minor(m, max_size=2)
    assert hit is not None
    assert hit.determinant < -1e-9
    # the hit is the <N1><N2> - |<a1 a2>|^2 block: sinh^4 - cosh^2 sinh^2
    s, c = math.sinh(0.3), math.cosh(0.3)
    assert hit.determinant == pytest.approx(s ** 4 - c ** 2 * s ** 2, abs=1e-8)


@pytest.mark.parametrize("max_size", [-2, 0, 6])
def test_minor_search_rejects_sizes_outside_matrix(max_size):
    vac = make_basis_state(ModeSpec(2, 4), [0, 0])
    m = build_moment_matrix(vac, frozenset({1}), 1)  # dimension 5
    with pytest.raises(ValueError, match="max_size"):
        find_negative_minor(m, max_size=max_size)


def test_vacuum_no_negative_minor():
    vac = make_basis_state(ModeSpec(2, 6), [0, 0])
    for part in (frozenset(), frozenset({0}), frozenset({1})):
        m = build_moment_matrix(vac, part, 2)
        assert find_negative_minor(m, max_size=3) is None


def test_ghz_dminor_positive_but_other_minor_negative():
    ghz = make_ghz_like(ModeSpec(2, 6))
    # the product-number 2x2 minor is positive here...
    assert cfrd_minor_determinant(ghz, frozenset({1})) > 0
    # ...yet the order-2 matrix still certifies NPT through a different minor
    m = build_moment_matrix(ghz, frozenset({1}), 2)
    hit = find_negative_minor(m, max_size=3)
    assert hit is not None and hit.determinant < -1e-9
    assert partial_transpose_min_eig(ghz, {1}).min_eigenvalue < 0


def test_product_coherent_dminor_zero():
    coh = make_coherent_product(ModeSpec(2, 18), [0.6, 0.8], headroom=4)
    assert cfrd_minor_determinant(coh, frozenset({1})) == pytest.approx(
        0.0, abs=1e-9)


@given(seed=st.integers(0, 10_000), part=st.sampled_from([
    frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]))
@settings(max_examples=25, deadline=None)
def test_hermiticity(seed, part):
    state = random_state(ModeSpec(2, 6), "mixed", headroom=3, seed=seed)
    m = build_moment_matrix(state, part, 1)
    assert m.hermiticity_residue() <= 1e-10


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_negative_minor_implies_npt(seed):
    """Finite-order necessity: a negative minor certifies an NPT bipartition."""
    rng = np.random.default_rng(seed)
    r = float(rng.uniform(0.1, 0.6))
    tmsv = make_two_mode_squeezed(ModeSpec(2, 24), r, headroom=4)
    m = build_moment_matrix(tmsv, frozenset({1}), 2)
    hit = find_negative_minor(m, max_size=2)
    if hit is not None:
        res = partial_transpose_min_eig(tmsv, {1})
        assert res.min_eigenvalue < 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_empty_bipartition_never_fires(seed):
    state = random_state(ModeSpec(2, 6), "mixed", headroom=3, seed=seed)
    m = build_moment_matrix(state, frozenset(), 1)
    assert find_negative_minor(m, max_size=3) is None


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_separable_mixture_no_negative_minor(seed):
    state = random_separable_mixture(ModeSpec(2, 7), n_terms=3, headroom=4,
                                     seed=seed)
    for part in (frozenset({0}), frozenset({1})):
        m = build_moment_matrix(state, part, 2)
        hit = find_negative_minor(m, max_size=3)
        assert hit is None


def test_structured_and_dense_entries_agree():
    c = 1.0 / math.sqrt(2)
    ghz_s = StructuredState(2, [(c, (number_ket(0), number_ket(0))),
                               (c, (number_ket(1), number_ket(1)))])
    ghz_d = make_ghz_like(ModeSpec(2, 8))
    for part in (frozenset(), frozenset({0}), frozenset({1})):
        a = build_moment_matrix(ghz_s, part, 1)
        b = build_moment_matrix(ghz_d, part, 1)
        assert a.index_list == b.index_list
        np.testing.assert_allclose(a.entries, b.entries, rtol=0, atol=1e-8)


def test_moment_matrix_evaluates_each_word_once(monkeypatch):
    # one list of single-mode elements over the T^2 term pairs per distinct
    # (mode, exponents) word, the identity included, for the whole matrix
    from cvbell import make_cat_family, structured

    calls = 0
    real = structured.single_mode_matrix_element

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(structured, "single_mode_matrix_element", counted)
    n, n_terms, part = 2, 2, {0}
    pairs = index_pairs(n, 2)
    build_moment_matrix(make_cat_family(n, 0.7, 1), part, 2)
    words = {(mode, (q[mode], p[mode], k[mode], l[mode]) if mode in part
              else (l[mode], k[mode], p[mode], q[mode]))
             for k, l in pairs for p, q in pairs for mode in range(n)}
    assert 0 < calls <= len(words) * n_terms ** 2


def _first_negative_minor_one_by_one(matrix, max_size):
    """Reference: one principal_minor call per subset, in search order."""
    dim = len(matrix.index_list)
    for size in range(1, max_size + 1):
        for idx in itertools.combinations(range(dim), size):
            report = principal_minor(matrix, idx)
            if report.determinant < NEGATIVITY_THRESHOLD:
                return report
    return None


@pytest.mark.parametrize("chunk_entries", [1 << 20, 7])
@pytest.mark.parametrize("seed", range(4))
def test_batched_minor_search_matches_one_by_one(monkeypatch, seed, chunk_entries):
    # a tiny batch budget splits every size into many determinant calls
    monkeypatch.setattr(moments, "_MINOR_BATCH_ENTRIES", chunk_entries)
    states = [random_state(ModeSpec(2, 5), "pure" if seed % 2 else "mixed",
                           headroom=2, seed=seed),
              make_two_mode_squeezed(ModeSpec(2, 14), 0.1 + 0.05 * seed, headroom=4)]
    for state, (part, order) in itertools.product(
            states, (({0}, 1), ({1}, 2), ((), 1))):
        m = build_moment_matrix(state, part, order=order)
        got = find_negative_minor(m, max_size=3)
        want = _first_negative_minor_one_by_one(m, 3)
        if want is None:
            assert got is None
            continue
        assert got.subset == want.subset
        assert all(type(k) is int for k in got.subset)
        assert got.determinant == want.determinant
        np.testing.assert_array_equal(got.matrix_slice, want.matrix_slice)


def _diagonal_matrix(diag):
    return MomentMatrix(bipartition=frozenset(), order=1,
                        index_list=[((0,), (0,))] * len(diag),
                        entries=np.diag(np.array(diag, dtype=complex)))


def test_minor_search_residue_only_on_examined_minors():
    # a non-real minor after the first negative one is never examined
    hit = find_negative_minor(_diagonal_matrix([1.0, -1.0, 1j]), max_size=1)
    assert hit.subset == (1,) and hit.determinant == -1.0
    with pytest.raises(NumericalConsistencyError):
        find_negative_minor(_diagonal_matrix([1.0, 1j, -1.0]), max_size=1)
    with pytest.raises(NumericalConsistencyError):
        find_negative_minor(_diagonal_matrix([1.0, 2.0, 1j]), max_size=2)
