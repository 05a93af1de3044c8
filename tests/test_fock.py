"""Dense Fock-lattice core: constructors, expectations, partial transpose."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (CutoffError, DenseState, ModeSpec, from_amplitudes,
                    make_basis_state, make_coherent_product, make_ghz_like,
                    make_two_mode_squeezed, normal_order, partial_transpose,
                    partial_transpose_min_eig, random_separable_mixture,
                    random_state)
from cvbell.errors import BipartitionError, TruncationError
from cvbell.fock import monomial_matrix
from cvbell.moments import poly_expectations

from conftest import ladder_word_oracle


def _word(state, word):
    """<word> for (mode, op) factors listed left to right: each mode's factors
    normal-ordered, then evaluated by poly_expectations."""
    per_mode = {}
    for mode, op in word:
        per_mode.setdefault(mode, []).append((op, 1))
    pick = {mode: normal_order(ops) for mode, ops in per_mode.items()}
    return poly_expectations(state, [pick])[0]


def _ladder(psi, mode, op):
    """Amplitude tensor ``psi`` with one ladder op applied on ``mode`` by the
    truncated monomial matrix; the result is not renormalized."""
    q, p = (1, 0) if op == "create" else (0, 1)
    m = monomial_matrix(psi.shape[mode], q, p)
    return np.moveaxis(np.tensordot(m, psi, axes=([1], [mode])), 0, mode)


def test_basis_state_single_mode():
    st_ = make_basis_state(ModeSpec(1, 4), [2])
    assert st_.array[2] == 1.0
    assert abs(np.linalg.norm(st_.array) - 1.0) == 0.0


def test_basis_state_vacuum_two_modes():
    st_ = make_basis_state(ModeSpec(2, 3), [0, 0])
    assert st_.array[0, 0] == 1.0
    assert np.count_nonzero(st_.array) == 1


def test_basis_state_cutoff_violation():
    with pytest.raises(CutoffError):
        make_basis_state(ModeSpec(2, 3), [0, 3])


def test_ghz_amplitudes():
    st_ = make_ghz_like(ModeSpec(2, 4), phase=1.0)
    assert st_.array[0, 0] == pytest.approx(1 / math.sqrt(2))
    assert st_.array[1, 1] == pytest.approx(1 / math.sqrt(2))

    st3 = make_ghz_like(ModeSpec(3, 3), phase=1j)
    assert st3.array[1, 1, 1] == pytest.approx(1j / math.sqrt(2))


def test_ghz_cross_moment_by_repeated_annihilation():
    # <a1 a2> on (|00>+|11>)/sqrt(2) via ladder action and overlap with |00>
    ghz = make_ghz_like(ModeSpec(2, 4))
    dropped = _ladder(_ladder(ghz.array, 0, "annihilate"), 1, "annihilate")
    assert np.vdot(ghz.array, dropped) == pytest.approx(0.5)


def test_coherent_zero_is_vacuum():
    st_ = make_coherent_product(ModeSpec(1, 8), [0.0])
    assert st_.array[0] == pytest.approx(1.0)
    assert np.linalg.norm(st_.array[1:]) == pytest.approx(0.0)


def test_coherent_mean_occupation():
    st_ = make_coherent_product(ModeSpec(1, 20), [0.5])
    n = _word(st_, [(0, "create"), (0, "annihilate")])
    assert n.real == pytest.approx(0.25, abs=1e-8)


def test_coherent_cross_moment():
    st_ = make_coherent_product(ModeSpec(2, 20), [1.0, 1.0])
    val = _word(st_, [(0, "annihilate"), (1, "annihilate")])
    assert val == pytest.approx(1.0, abs=1e-8)


def test_coherent_truncation_budget_names_mode():
    with pytest.raises(TruncationError, match="mode 1"):
        make_coherent_product(ModeSpec(2, 6), [0.0, 3.0])


def test_tmsv_zero_squeezing_is_vacuum():
    st_ = make_two_mode_squeezed(ModeSpec(2, 8), 0.0)
    assert st_.array[0, 0] == pytest.approx(1.0)


def test_tmsv_cross_moment_closed_form():
    st_ = make_two_mode_squeezed(ModeSpec(2, 12), 0.3)
    val = _word(st_, [(0, "annihilate"), (1, "annihilate")])
    assert val.real == pytest.approx(math.cosh(0.3) * math.sinh(0.3), abs=1e-6)
    assert val.imag == pytest.approx(0.0, abs=1e-9)


def test_tmsv_is_npt():
    st_ = make_two_mode_squeezed(ModeSpec(2, 12), 0.3)
    res = partial_transpose_min_eig(st_, {1})
    assert res.min_eigenvalue < 0


def test_tmsv_truncation_budget():
    with pytest.raises(TruncationError):
        make_two_mode_squeezed(ModeSpec(2, 4), 2.0)


def test_random_state_deterministic():
    spec = ModeSpec(2, 5)
    a = random_state(spec, "pure", headroom=2, seed=11)
    b = random_state(spec, "pure", headroom=2, seed=11)
    np.testing.assert_array_equal(a.array, b.array)


def test_random_state_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        random_state(ModeSpec(2, 4), "bogus", headroom=1, seed=0)


def test_random_mixed_state_psd():
    spec = ModeSpec(2, 4)
    rho = random_state(spec, "mixed", headroom=1, seed=3)
    eigs = np.linalg.eigvalsh(rho.to_density_matrix())
    assert eigs.min() >= -1e-12
    assert np.trace(rho.to_density_matrix()).real == pytest.approx(1.0)


def test_random_pure_state_support_cap():
    st_ = random_state(ModeSpec(1, 4), "pure", headroom=2, seed=0)
    # headroom 2 with d=4 leaves occupations {0, 1} only
    assert np.all(st_.array[2:] == 0)
    assert st_.max_occupation() <= 1


def test_apply_annihilation():
    two = make_basis_state(ModeSpec(1, 4), [2])
    out = _ladder(two.array, 0, "annihilate")
    assert out[1] == pytest.approx(math.sqrt(2))

    vac = make_basis_state(ModeSpec(1, 4), [0])
    assert np.all(_ladder(vac.array, 0, "annihilate") == 0)


def test_apply_a_adagger_on_one():
    one = make_basis_state(ModeSpec(1, 4), [1])
    out = _ladder(_ladder(one.array, 0, "create"), 0, "annihilate")
    assert out[1] == pytest.approx(2.0)  # a a^dag = N + 1


def test_expectation_basics():
    vac = make_basis_state(ModeSpec(1, 4), [0])
    one = make_basis_state(ModeSpec(1, 4), [1])
    number = [(0, "create"), (0, "annihilate")]
    assert _word(vac, number) == pytest.approx(0.0)
    assert _word(one, number) == pytest.approx(1.0)
    # a a^dag = N + 1
    assert _word(one, [(0, "annihilate"), (0, "create")]) == pytest.approx(2.0)

    ghz3 = make_ghz_like(ModeSpec(3, 4))
    word = [(0, "annihilate"), (1, "annihilate"), (2, "annihilate")]
    assert _word(ghz3, word) == pytest.approx(0.5)


def _assert_exact_at_top(spec, m, word, want):
    """The word on |m> at the top level (headroom 0) matches ``want`` by
    normal order and by the padded test oracle."""
    top = make_basis_state(spec, [m])
    assert top.headroom == 0
    assert _word(top, word) == want
    assert ladder_word_oracle(top, word) == pytest.approx(want, abs=1e-12)


def test_create_with_zero_headroom_is_exact():
    # <3| a a^dag |3> = 4 at cutoff 4: the creation needs no spare level
    _assert_exact_at_top(ModeSpec(1, 4), 3,
                         [(0, "annihilate"), (0, "create")], 4.0)


def test_expectation_beyond_headroom_is_exact():
    # <2| a^2 a^dag^2 |2> = 12 at cutoff 3
    _assert_exact_at_top(ModeSpec(1, 3), 2,
                         [(0, "annihilate"), (0, "annihilate"),
                          (0, "create"), (0, "create")], 12.0)


def test_partial_transpose_product_state_ppt():
    st_ = make_coherent_product(ModeSpec(2, 14), [0.4, 0.7j])
    for part in ({0}, {1}):
        res = partial_transpose_min_eig(st_, part)
        assert res.min_eigenvalue >= -1e-10


def test_partial_transpose_ghz2():
    res = partial_transpose_min_eig(make_ghz_like(ModeSpec(2, 4)), {1})
    assert res.min_eigenvalue == pytest.approx(-0.5, abs=1e-10)
    assert np.linalg.norm(res.witness_vector) == pytest.approx(1.0)


def test_partial_transpose_trivial_bipartition_rejected():
    st_ = make_ghz_like(ModeSpec(2, 4))
    with pytest.raises(BipartitionError):
        partial_transpose_min_eig(st_, set())
    with pytest.raises(BipartitionError):
        partial_transpose_min_eig(st_, {0, 1})


def test_monomial_matrix_matches_ladder_products():
    d = 9
    a = monomial_matrix(d, 0, 1)
    ad = monomial_matrix(d, 1, 0)
    for q, p in [(0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (0, 3)]:
        ref = np.linalg.matrix_power(ad, q) @ np.linalg.matrix_power(a, p)
        got = monomial_matrix(d, q, p)
        # the product route truncates at the top edge; compare away from it
        crop = d - q
        np.testing.assert_allclose(got[:crop, :], ref[:crop, :], atol=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_ladder_commutator_below_edge(seed):
    # <a a† - a†a> = 1 exactly on states kept away from the cutoff edge
    state = random_state(ModeSpec(1, 6), "pure", headroom=2, seed=seed)
    lhs = _word(state, [(0, "annihilate"), (0, "create")])
    rhs = _word(state, [(0, "create"), (0, "annihilate")])
    assert (lhs - rhs).real == pytest.approx(1.0, abs=1e-12)
    assert (lhs - rhs).imag == pytest.approx(0.0, abs=1e-12)


@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["pure", "mixed"]))
@settings(max_examples=40, deadline=None)
def test_expectation_hermiticity(seed, kind):
    state = random_state(ModeSpec(2, 5), kind, headroom=2, seed=seed)
    word = [(0, "create"), (1, "annihilate"), (0, "annihilate"), (1, "create")]
    reversed_dagger = [(1, "annihilate"), (0, "create"), (1, "create"),
                       (0, "annihilate")]
    a = _word(state, word)
    b = _word(state, reversed_dagger)
    assert a == pytest.approx(np.conj(b), abs=1e-12)
    # a word that is not Hermitian on its own
    word = [(0, "annihilate"), (0, "create"), (1, "annihilate")]
    reversed_dagger = [(1, "create"), (0, "annihilate"), (0, "create")]
    a = _word(state, word)
    b = _word(state, reversed_dagger)
    assert a == pytest.approx(np.conj(b), abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_partial_transpose_involution_and_trace(seed):
    state = random_state(ModeSpec(2, 4), "mixed", headroom=1, seed=seed)
    rho = state.to_density_matrix()
    pt = partial_transpose(state, {0})
    spec = state.mode_spec
    back = partial_transpose(
        DenseState(spec, "mixed", pt, headroom=state.headroom), {0})
    np.testing.assert_allclose(back, rho, atol=1e-15)
    assert np.trace(pt).real == pytest.approx(1.0, abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_separable_mixture_is_ppt(seed):
    state = random_separable_mixture(ModeSpec(2, 5), n_terms=4, headroom=2,
                                     seed=seed)
    for part in ({0}, {1}):
        res = partial_transpose_min_eig(state, part)
        assert res.min_eigenvalue >= -1e-9


def test_from_amplitudes_normalizes_and_checks():
    spec = ModeSpec(1, 4)
    st_ = from_amplitudes(spec, np.array([3.0, 4.0, 0.0, 0.0]), headroom=2)
    assert st_.array[0] == pytest.approx(0.6)
    assert st_.array[1] == pytest.approx(0.8)
    with pytest.raises(ValueError):
        from_amplitudes(spec, np.array([0.0, 0.0, 1.0, 0.0]), headroom=2)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_declared_headroom_rejects_populated_cap(kind):
    # the support crop would drop this amplitude, so construction refuses it
    spec = ModeSpec(2, 4)
    state = random_state(spec, kind, headroom=2, seed=5)
    arr = state.array.copy()
    if kind == "pure":
        arr[2, 0] = 1e-20
    else:
        arr[2 * 4, 2 * 4] = 1e-20  # diagonal entry of |2,0>
    with pytest.raises(ValueError):
        DenseState(spec, kind, arr, headroom=2)
    assert DenseState(spec, kind, arr, headroom=1).support.cutoff == 3


def test_from_amplitudes_infers_exact_support():
    tensor = np.zeros((5, 5), dtype=complex)
    tensor[0, 0] = 1.0
    tensor[4, 1] = 1e-20
    assert from_amplitudes(ModeSpec(2, 5), tensor).headroom == 0
    tensor[4, 1] = 0.0
    assert from_amplitudes(ModeSpec(2, 5), tensor).headroom == 4


@pytest.mark.parametrize("n, cutoff, headroom", [(1, 5, 2), (2, 6, 3), (3, 5, 2)])
def test_random_mixed_state_matches_full_g_formula(n, cutoff, headroom):
    """rho is formed on the support rows only, from the same seeded draws."""
    spec = ModeSpec(n, cutoff)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        dim = spec.dim
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        off = np.indices(spec.shape).max(axis=0).reshape(-1) > cutoff - 1 - headroom
        g[off, :] = 0.0
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        got = random_state(spec, "mixed", headroom=headroom, seed=seed).array
        np.testing.assert_allclose(got, rho, rtol=0, atol=1e-14)


def _full_draw_random_state(spec, kind, headroom, seed):
    """random_state's recipe with every Gaussian draw taken in full."""
    rng = np.random.default_rng(seed)
    mask = np.indices(spec.shape).max(axis=0) <= spec.cutoff - 1 - headroom
    if kind == "pure":
        arr = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        arr = arr * mask
        return arr / np.linalg.norm(arr)
    dim = spec.dim
    re = rng.standard_normal((dim, dim))
    im = rng.standard_normal((dim, dim))
    rows = np.flatnonzero(mask)
    g = re[rows] + 1j * im[rows]
    block = g @ g.conj().T
    rho = np.zeros((dim, dim), dtype=complex)
    rho[np.ix_(rows, rows)] = block / np.trace(block).real
    return rho


@pytest.mark.parametrize("n, cutoff, headroom",
                         [(4, 6, 3), (3, 6, 0), (2, 6, 3), (1, 5, 2)])
def test_random_state_bits_match_full_draws(n, cutoff, headroom):
    """Drawing only the rows rho reads leaves every bit of both kinds."""
    spec = ModeSpec(n, cutoff)
    for seed in (0, 1, 7, 20260823):
        for kind in ("mixed", "pure"):
            got = random_state(spec, kind, headroom=headroom, seed=seed).array
            assert np.array_equal(
                got, _full_draw_random_state(spec, kind, headroom, seed)), (kind, seed)


def test_random_mixed_state_holds_no_full_draw():
    """Peak memory stays near rho itself: no dim x dim float draw is kept."""
    spec = ModeSpec(4, 6)
    tracemalloc.start()
    try:
        rho = random_state(spec, "mixed", headroom=3, seed=5).array
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rho.nbytes + 4 * 2**20, (peak, rho.nbytes)


def _pt_cases():
    """(label, state) pairs: pure, mixed and separable states at n = 2..4,
    cropped to a smaller support, plus uncropped ones."""
    cases = []
    for n, cutoff, headroom in [(2, 6, 3), (3, 6, 3), (4, 5, 3), (2, 4, 0)]:
        spec = ModeSpec(n, cutoff)
        for kind in ("pure", "mixed"):
            cases.append((f"n={n} h={headroom} {kind}",
                          random_state(spec, kind, headroom, seed=70 + n)))
        cases.append((f"n={n} h={headroom} separable",
                      random_separable_mixture(spec, 3, headroom, seed=80 + n)))
    spec = ModeSpec(2, 5)
    support = np.indices(spec.shape).max(axis=0).reshape(-1) <= 1
    flat = np.diag(support / support.sum()).astype(complex)
    cases.append(("maximally mixed on support",
                  DenseState(spec, "mixed", flat, headroom=3)))
    cases.append(("ghz", make_ghz_like(ModeSpec(3, 4), phase=1j)))
    cases.append(("tmsv", make_two_mode_squeezed(ModeSpec(2, 12), 0.3)))
    return cases


PT_CASES = _pt_cases()


@pytest.mark.parametrize("label, state", PT_CASES,
                         ids=[label for label, _ in PT_CASES])
def test_pt_oracle_matches_full_spectrum(label, state):
    """The support-lattice oracle (Schmidt coefficients for pure states)
    against eigvalsh of the full partial transpose, on every bipartition."""
    n = state.n_modes
    separable = label.endswith("separable")
    for size in range(1, n):
        for part in itertools.combinations(range(n), size):
            res = partial_transpose_min_eig(state, part)
            pt = partial_transpose(state, part)
            assert res.min_eigenvalue == pytest.approx(
                np.linalg.eigvalsh(pt)[0], abs=1e-12)
            w = res.witness_vector
            assert w.shape == (state.mode_spec.dim,)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
            assert np.vdot(w, pt @ w) == pytest.approx(res.min_eigenvalue,
                                                         abs=1e-12)
            if separable:
                assert res.min_eigenvalue >= -1e-12
