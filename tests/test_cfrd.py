"""Bell functional: transforms, evaluation, decomposition, two-mode bound."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import (open_mode_beta, reference_beta, reference_cfrd_evaluate,
                      reference_two_mode_bound, reference_two_mode_moment_table)
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (DenseState, ModeSpec, QuadratureSettings, SettingsError,
                    StructuredState, build_moment_matrix, cfrd_beta,
                    cfrd_evaluate, cfrd_minor_determinant,
                    coherent_ket, make_basis_state, make_cat_family,
                    make_coherent_product, make_fock_pair, make_ghz_like,
                    make_two_mode_squeezed, mode_transform, number_ket,
                    quadrature_matrices,
                    random_state, two_mode_bound, two_mode_moment_table,
                    verify_implication)


def _settings(thetas, deltas, signs):
    return QuadratureSettings(tuple(thetas), tuple(deltas), tuple(signs))


def test_mode_transform_delta_zero():
    tr = mode_transform(_settings([0.7], [0.0], [1]))
    u, v = tr[0]
    assert u == pytest.approx(1.0)
    assert v == pytest.approx(0.0)


def test_mode_transform_symplectic_invariant():
    tr = mode_transform(_settings([0.0], [math.pi / 4], [-1]))
    u, v = tr[0]
    assert abs(u) ** 2 - abs(v) ** 2 == pytest.approx(1.0, abs=1e-12)
    # near pi/2, |u|^2 ~ 1/(2 cos delta): the identity holds relative to it
    top = math.nextafter(math.pi / 2, 0.0)
    deltas = [*np.linspace(math.pi / 2 - 2e-4, top, 50), 1.570796, top]
    for (u, v) in mode_transform(_settings([0.3] * 52, deltas, [1] * 52)):
        size = abs(u) ** 2 + abs(v) ** 2
        assert abs(abs(u) ** 2 - abs(v) ** 2 - 1.0) <= 1e-12 * size


def test_delta_at_endpoint_rejected():
    with pytest.raises(SettingsError):
        _settings([0.0], [math.pi / 2], [1])


def test_bad_sign_rejected():
    with pytest.raises(SettingsError):
        _settings([0.0], [0.0], [2])


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_non_finite_theta_rejected(theta):
    with pytest.raises(SettingsError):
        _settings([theta, 0.0], [0.0, 0.0], [1, -1])


@given(theta=st.floats(0, 2 * math.pi), delta=st.floats(-1.4, 1.4),
       s=st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_commutator_law(theta, delta, s):
    d = 12
    x, y = quadrature_matrices(d, theta, delta, s)
    comm = x @ y - y @ x
    want = 2j * s * math.cos(delta) * np.eye(d)
    # rows near the cutoff edge are corrupted by truncation; stay below
    crop = d - 2
    np.testing.assert_allclose(comm[:crop, :crop], want[:crop, :crop],
                               atol=1e-10)


def test_vacuum_two_modes():
    vac = make_basis_state(ModeSpec(2, 5), [0, 0])
    rep = cfrd_evaluate(vac, _settings([0, 0], [0, 0], [1, -1]))
    assert rep.lhs == pytest.approx(0.0)
    assert rep.rhs == pytest.approx(0.25)
    assert not rep.violated
    assert rep.bipartition == frozenset({1})


def test_product_coherent_saturates_minor():
    coh = make_coherent_product(ModeSpec(2, 18), [0.7, 0.4], headroom=4)
    rep = cfrd_evaluate(coh, _settings([0, 0], [0, 0], [1, 1]))
    assert rep.minor_d == pytest.approx(0.0, abs=1e-9)
    assert rep.beta < 0
    assert rep.trivial_bipartition


def test_ghz3_all_plus():
    ghz = make_ghz_like(ModeSpec(3, 4))
    rep = cfrd_evaluate(ghz, _settings([0] * 3, [0] * 3, [1] * 3))
    assert rep.lhs == pytest.approx(0.25)
    assert rep.rhs == pytest.approx((0.5 ** 3 + 1.5 ** 3) / 2)
    assert not rep.violated


def test_two_mode_bound_coherent():
    coh = make_coherent_product(ModeSpec(2, 24), [1.0, 1.0], headroom=4)
    res = two_mode_bound(coh, _settings([0, 0], [0, 0], [1, 1]))
    assert res.beta2 == pytest.approx(-20.0, abs=1e-6)
    assert res.bound == pytest.approx(4.0)


def test_two_mode_bound_vacuum():
    vac = make_basis_state(ModeSpec(2, 6), [0, 0])
    res = two_mode_bound(vac, _settings([0.3, 1.1], [0.2, -0.4], [1, -1]))
    assert res.beta2 < 0
    assert res.beta2 <= res.bound + 1e-9


def test_two_mode_bound_wrong_mode_count():
    ghz = make_ghz_like(ModeSpec(3, 4))
    with pytest.raises(SettingsError):
        two_mode_bound(ghz, _settings([0] * 3, [0] * 3, [1, 1, -1]))


def test_verify_non_violation_vacuous():
    vac = make_basis_state(ModeSpec(2, 5), [0, 0])
    res = verify_implication(vac, _settings([0, 0], [0, 0], [1, -1]))
    assert not res.report.violated
    assert res.consistent


def test_fock_pair_ten_modes_violates_consistently():
    state = make_fock_pair(10, range(5))
    signs = [1] * 5 + [-1] * 5
    rep = cfrd_evaluate(state, _settings([0] * 10, [0] * 10, signs))
    assert rep.violated
    assert rep.lhs / rep.rhs == pytest.approx(0.25 / 0.75 ** 5, abs=1e-10)
    assert rep.minor_d < 0
    res = verify_implication(state, rep.settings)
    assert res.consistent
    assert res.pt_min_eig is None  # structured states skip the dense oracle


def _random_inputs(rng, n, d=6, headroom=3):
    kind = "pure" if rng.random() < 0.5 else "mixed"
    state = random_state(ModeSpec(n, d), kind, headroom=headroom,
                         seed=int(rng.integers(1 << 31)))
    thetas = rng.uniform(0, 2 * math.pi, n)
    deltas = rng.uniform(-1.2, 1.2, n)
    while True:
        signs = [int(s) for s in rng.choice([1, -1], n)]
        if len(set(signs)) > 1:
            break
    return state, _settings(thetas, deltas, signs)


@given(seed=st.integers(0, 10_000), n=st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_decomposition_identity(seed, n):
    rng = np.random.default_rng(seed)
    state, stg = _random_inputs(rng, n)
    rep = cfrd_evaluate(state, stg)
    residue = abs(rep.rhs - rep.s_squared - rep.product_number_moment)
    assert residue <= 1e-9 * max(1.0, rep.rhs)
    assert rep.s_squared >= -1e-12


@given(seed=st.integers(0, 10_000), n=st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_rewriting_equivalence(seed, n):
    # beta > 0 exactly when the minor drops below -S^2
    rng = np.random.default_rng(seed)
    state, stg = _random_inputs(rng, n)
    rep = cfrd_evaluate(state, stg)
    assert rep.beta == pytest.approx(-(rep.minor_d + rep.s_squared), abs=1e-9)


@given(seed=st.integers(0, 10_000), n=st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_minor_matches_moments_module(seed, n):
    rng = np.random.default_rng(seed)
    state, stg = _random_inputs(rng, n)
    rep = cfrd_evaluate(state, stg)
    tr = mode_transform(stg)
    other = cfrd_minor_determinant(state, rep.bipartition,
                                   transforms=list(tr))
    assert rep.minor_d == pytest.approx(other, abs=1e-9)


@given(seed=st.integers(0, 10_000), n=st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_theorem_on_random_inputs(seed, n):
    rng = np.random.default_rng(seed)
    state, stg = _random_inputs(rng, n)
    res = verify_implication(state, stg)
    assert res.consistent
    if res.report.violated:
        assert res.report.minor_d < 0
        assert res.pt_min_eig is not None and res.pt_min_eig < 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_all_equal_signs_never_violate(seed):
    rng = np.random.default_rng(seed)
    n = 2
    state, stg = _random_inputs(rng, n)
    for sgn in (1, -1):
        trivial = _settings(stg.thetas, stg.deltas, [sgn] * n)
        rep = cfrd_evaluate(state, trivial)
        assert rep.trivial_bipartition
        assert rep.beta <= 1e-9


def test_tmsv_sweep_consistent():
    tmsv = make_two_mode_squeezed(ModeSpec(2, 14), 0.4)
    rng = np.random.default_rng(0)
    for _ in range(25):
        thetas = rng.uniform(0, 2 * math.pi, 2)
        deltas = rng.uniform(-1.2, 1.2, 2)
        signs = [1, -1] if rng.random() < 0.5 else [-1, 1]
        res = verify_implication(tmsv, _settings(thetas, deltas, signs))
        assert res.consistent


def test_report_is_phase_covariant():
    # a global phase on the state leaves every report field unchanged
    ghz = make_ghz_like(ModeSpec(3, 4), phase=1.0)
    spun = make_ghz_like(ModeSpec(3, 4), phase=cmath.exp(0.9j))
    stg = _settings([0.2, 1.1, 0.5], [0.3, -0.2, 0.1], [1, 1, -1])
    a = cfrd_evaluate(ghz, stg)
    b = cfrd_evaluate(spun, stg)
    assert a.rhs == pytest.approx(b.rhs, abs=1e-10)
    assert a.s_squared == pytest.approx(b.s_squared, abs=1e-10)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_moment_table_matches_scalar_beta(seed):
    from cvbell import beta_from_table, two_mode_moment_table

    rng = np.random.default_rng(seed)
    kind = "pure" if seed % 2 else "mixed"
    state = random_state(ModeSpec(2, 6), kind, headroom=3, seed=seed)
    table = two_mode_moment_table(state)
    thetas = rng.uniform(0, 2 * math.pi, 2)
    deltas = rng.uniform(-1.2, 1.2, 2)
    for signs in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
        scalar = reference_beta(state, thetas, deltas, signs)
        fast = float(beta_from_table(table, thetas, deltas, signs))
        assert fast == pytest.approx(scalar, abs=1e-10)


def test_moment_table_batch_axis():
    from cvbell import beta_from_table, two_mode_moment_table

    state = random_state(ModeSpec(2, 6), "pure", headroom=3, seed=8)
    table = two_mode_moment_table(state)
    thetas = np.random.default_rng(1).uniform(0, 2 * math.pi, (5, 2))
    deltas = np.zeros((5, 2))
    batch = beta_from_table(table, thetas, deltas, (1, -1))
    singles = [float(beta_from_table(table, t, d, (1, -1)))
               for t, d in zip(thetas, deltas)]
    np.testing.assert_allclose(batch, singles, atol=1e-12)


ALL_SIGNS = ((1, -1), (-1, 1), (1, 1), (-1, -1))
DELTA_EDGE = math.pi / 2 - 0.05  # the search's delta box edge


def _box_settings(rng, shape):
    """Random (thetas, deltas) over the search box, each of ``shape + (2,)``."""
    thetas = rng.uniform(0, 2 * math.pi, shape + (2,))
    deltas = rng.uniform(-DELTA_EDGE, DELTA_EDGE, shape + (2,))
    deltas[0, 0] = [DELTA_EDGE, -DELTA_EDGE]
    return thetas, deltas


def _dense_beta_reference(table, thetas, deltas, signs):
    """beta with full 6-entry coefficient vectors per mode contracted against
    the whole table; returns beta and the scale |lhs| + |rhs| of its terms."""
    cosd = np.cos(deltas)
    root = 2.0 * np.sqrt(cosd)
    u = (1.0 + np.exp(-1j * deltas)) / root
    v = np.exp(2j * thetas) * (1.0 - np.exp(1j * deltas)) / root
    fwd_coeff = np.zeros(thetas.shape + (6,), dtype=complex)
    rhs_coeff = np.zeros(thetas.shape + (6,), dtype=complex)
    for k, s in enumerate(signs):
        uk, vk, ck = u[..., k], v[..., k], cosd[..., k]
        fwd_coeff[..., k, 1:3] = np.stack(
            (uk, vk) if s == 1 else (np.conj(vk), np.conj(uk)), axis=-1)
        rhs_coeff[..., k, 0] = ck * np.abs(vk) ** 2 + 0.5
        rhs_coeff[..., k, 3] = ck * (np.abs(uk) ** 2 + np.abs(vk) ** 2)
        rhs_coeff[..., k, 4] = ck * uk * np.conj(vk)
        rhs_coeff[..., k, 5] = ck * np.conj(uk) * vk
    fwd = np.einsum("...i,...j,...ij->...", fwd_coeff[..., 0, :],
                    fwd_coeff[..., 1, :], table)
    rhs = np.einsum("...i,...j,...ij->...", rhs_coeff[..., 0, :],
                    rhs_coeff[..., 1, :], table).real / cosd.prod(axis=-1)
    return np.abs(fwd) ** 2 - rhs, np.abs(fwd) ** 2 + np.abs(rhs)


def test_beta_from_table_matches_dense_reference():
    # arbitrary complex tables give every entry an independent value, so a
    # wrong index or coefficient in the closed form shows
    from cvbell import beta_from_table

    rng = np.random.default_rng(4)
    tables = (rng.normal(size=(40, 1, 6, 6))
              + 1j * rng.normal(size=(40, 1, 6, 6)))
    thetas, deltas = _box_settings(rng, (40, 5))
    for signs in ALL_SIGNS:
        fast = beta_from_table(tables, thetas, deltas, signs)
        ref, scale = _dense_beta_reference(tables, thetas, deltas, signs)
        assert fast.shape == (40, 5)
        assert np.all(np.abs(fast - ref) <= 1e-12 * scale)


def test_beta_from_table_batch_shapes():
    # the batch search pairs per-row tables (B, 6, 6) with one point per row
    # (B, 2); per-row tables (B, 1, 6, 6) take several points per row (B, V, 2)
    from cvbell import beta_from_table, two_mode_moment_table

    states = [random_state(ModeSpec(2, 6), "pure" if i % 2 else "mixed",
                           headroom=3, seed=30 + i) for i in range(4)]
    tables = np.stack([two_mode_moment_table(s) for s in states])
    rng = np.random.default_rng(9)
    thetas, deltas = _box_settings(rng, (4, 5))
    for signs in ALL_SIGNS:
        rows = beta_from_table(tables, thetas[:, 0], deltas[:, 0], signs)
        vertices = beta_from_table(tables[:, None], thetas, deltas, signs)
        assert rows.shape == (4,) and vertices.shape == (4, 5)
        np.testing.assert_array_equal(rows, vertices[:, 0])
        for b, state in enumerate(states):
            for j in range(5):
                scalar = reference_beta(state, thetas[b, j], deltas[b, j], signs)
                assert vertices[b, j] == pytest.approx(scalar, abs=1e-10)

    with pytest.raises(SettingsError):
        beta_from_table(tables, thetas[:, 0], deltas[:, 0], (1, 0))
    for edge in (math.pi / 2, -math.pi / 2, 2.0):
        bad = deltas[:, 0].copy()
        bad[2, 1] = edge
        with pytest.raises(SettingsError):
            beta_from_table(tables, thetas[:, 0], bad, (1, -1))


def test_beta_from_table_fails_on_overflow():
    # moments near 1e200 overflow |<prod B>|^2: an error, not an infinite beta
    from cvbell import NumericalConsistencyError, beta_from_table

    table = np.zeros((6, 6), complex)
    table[1:4, 1:4] = 1e200
    with pytest.raises(NumericalConsistencyError):
        beta_from_table(table, np.array([0.3, 0.5]), np.array([0.2, -0.1]), (1, -1))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_beta_invariant_under_global_sign_flip(seed):
    # <prod B(-s)> = conj <prod B(s)> and the rhs does not depend on s, so
    # beta(theta, delta, s) = beta(theta, delta, -s) on any state
    from cvbell import beta_from_table, cfrd_beta, two_mode_moment_table

    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    kind = "pure" if seed % 4 < 2 else "mixed"
    state = random_state(ModeSpec(n, 4), kind, headroom=2, seed=seed)
    thetas = rng.uniform(0, 2 * math.pi, n)
    deltas = rng.uniform(-DELTA_EDGE, DELTA_EDGE, n)
    signs = tuple(int(s) for s in rng.choice([1, -1], n))
    flipped = tuple(-s for s in signs)
    assert cfrd_beta(state, thetas, deltas, flipped) == pytest.approx(
        cfrd_beta(state, thetas, deltas, signs), rel=1e-12, abs=1e-12)
    if n == 2:
        table = two_mode_moment_table(state)
        assert float(beta_from_table(table, thetas, deltas, flipped)) == (
            pytest.approx(float(beta_from_table(table, thetas, deltas, signs)),
                          rel=1e-12, abs=1e-12))


@pytest.mark.parametrize("state", [
    random_state(ModeSpec(3, 4), "mixed", headroom=2, seed=11),
    random_state(ModeSpec(4, 3), "pure", headroom=1, seed=12),
    make_cat_family(5, 0.9 + 0.3j, 1),
    make_fock_pair(6, [0, 2, 5])], ids=["dense-3-mixed", "dense-4-pure",
                                        "cat-5", "fock-pair-6"])
def test_sign_flip_leaves_beta_and_minor_to_rounding(state):
    # the search evaluates only s_0 = +1: -s must give the same beta to
    # rounding and the same D^I, since I and its complement name one split
    from cvbell.cfrd import moment_table, sides_from_moments

    n = state.n_modes
    rng = np.random.default_rng(n)
    thetas = rng.uniform(0, 2 * math.pi, (200, n))
    deltas = rng.uniform(-DELTA_EDGE, DELTA_EDGE, (200, n))
    signs = rng.choice([1, -1], (200, n))
    table = moment_table(state)
    lhs, rhs = sides_from_moments(table, thetas, deltas, signs)
    beta = lhs - rhs
    lhs, rhs = sides_from_moments(table, thetas, deltas, -signs)
    flipped = lhs - rhs
    assert np.all(np.abs(beta - flipped) <= 1e-15 * np.maximum(1.0, np.abs(beta)))
    for t, d, s in zip(thetas[:20], deltas[:20], signs[:20]):
        reports = [cfrd_evaluate(state, _settings(t, d, sign.tolist()))
                   for sign in (s, -s)]
        assert reports[0].minor_d == reports[1].minor_d


def test_sign_flip_leaves_two_mode_table_beta_to_rounding():
    from cvbell import beta_from_table

    tables = np.stack([two_mode_moment_table(random_state(
        ModeSpec(2, 6), "pure" if i % 2 else "mixed", headroom=3, seed=i))
        for i in range(100)])
    thetas, deltas = _box_settings(np.random.default_rng(5), (100, 20))
    beta = beta_from_table(tables[:, None], thetas, deltas, (1, -1))
    flipped = beta_from_table(tables[:, None], thetas, deltas, (-1, 1))
    assert np.all(np.abs(beta - flipped) <= 1e-15 * np.maximum(1.0, np.abs(beta)))


@pytest.mark.parametrize("state", [
    make_two_mode_squeezed(ModeSpec(2, 14), 0.3),
    random_state(ModeSpec(2, 3), "mixed", headroom=1, seed=4)],
    ids=["tmsv", "mixed"])
def test_partial_transpose_spectrum_is_the_same_across_a_split(state):
    # rho^{T_I} and rho^{T_complement} are transposes of each other
    from cvbell import partial_transpose_min_eig

    first = partial_transpose_min_eig(state, {0}).min_eigenvalue
    assert first < 0
    assert partial_transpose_min_eig(state, {1}).min_eigenvalue == first


def _zero_padded(state, cutoff, headroom):
    """The same state on a larger lattice, padded with empty levels."""
    n, d = state.n_modes, state.cutoff
    spec = ModeSpec(n, cutoff)
    if state.kind == "pure":
        arr = np.pad(state.array, [(0, cutoff - d)] * n)
    else:
        rho = state.array.reshape((d,) * (2 * n))
        arr = np.pad(rho, [(0, cutoff - d)] * (2 * n)).reshape(spec.dim, spec.dim)
    return DenseState(spec, state.kind, arr, headroom=headroom)


def _assert_same(got, want):
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_headroom_zero_evaluates_exactly(n, kind):
    """Normal-ordered moments need no headroom: a state filling its whole
    lattice evaluates exactly as its copy padded with empty levels."""
    tight = random_state(ModeSpec(n, 4), kind, headroom=0, seed=40 + n)
    padded = _zero_padded(tight, 7, 3)
    rng = np.random.default_rng(n)
    stg = _settings(rng.uniform(0, 2 * math.pi, n), rng.uniform(-1.2, 1.2, n),
                    [1] * (n - 1) + [-1])
    got, want = cfrd_evaluate(tight, stg), cfrd_evaluate(padded, stg)
    for field in ("lhs", "rhs", "s_squared", "product_number_moment",
                  "minor_d", "beta", "mean_forward", "mean_reverse"):
        _assert_same(getattr(got, field), getattr(want, field))
    assert got.violated == want.violated
    args = (stg.thetas, stg.deltas, stg.signs)
    _assert_same(cfrd_beta(tight, *args), cfrd_beta(padded, *args))
    if n == 2:
        _assert_same(two_mode_moment_table(tight), two_mode_moment_table(padded))
        got, want = two_mode_bound(tight, stg), two_mode_bound(padded, stg)
        _assert_same([got.beta2, got.bound], [want.beta2, want.bound])
    _assert_same(build_moment_matrix(tight, {0}, order=2).entries,
                 build_moment_matrix(padded, {0}, order=2).entries)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_support_crop_evaluates_exactly(n, kind):
    """A state evaluated on its support lattice (cutoff 6, headroom 3 keeps 3
    levels) equals the same array declared with headroom 0, which is
    evaluated uncropped."""
    cropped = random_state(ModeSpec(n, 6), kind, headroom=3, seed=60 + n)
    full = DenseState(cropped.mode_spec, kind, cropped.array, headroom=0)
    assert cropped.support.cutoff == 3 and full.support is full
    rng = np.random.default_rng(60 + n)
    stg = _settings(rng.uniform(0, 2 * math.pi, n), rng.uniform(-1.2, 1.2, n),
                    [1] * (n - 1) + [-1])
    got, want = cfrd_evaluate(cropped, stg), cfrd_evaluate(full, stg)
    for field in ("lhs", "rhs", "s_squared", "product_number_moment",
                  "minor_d", "beta", "mean_forward", "mean_reverse"):
        _assert_same(getattr(got, field), getattr(want, field))
    transforms = list(mode_transform(stg))
    _assert_same(cfrd_minor_determinant(cropped, stg.bipartition, transforms),
                 cfrd_minor_determinant(full, stg.bipartition, transforms))
    if n == 2:
        _assert_same(two_mode_moment_table(cropped), two_mode_moment_table(full))
        got, want = two_mode_bound(cropped, stg), two_mode_bound(full, stg)
        _assert_same([got.beta2, got.bound], [want.beta2, want.bound])
    if n < 4:
        _assert_same(build_moment_matrix(cropped, {0}, order=2).entries,
                     build_moment_matrix(full, {0}, order=2).entries)


def _mixed_structured_state():
    """Three modes, two terms, number and coherent factors (unnormalized)."""
    return StructuredState(3, [
        (0.7, (coherent_ket(0.4 - 0.3j), number_ket(1), coherent_ket(0.2))),
        (0.5j, (number_ket(0), coherent_ket(-0.5), number_ket(2)))])


@pytest.mark.parametrize("expand", [True, False])
@pytest.mark.parametrize("state", [
    random_state(ModeSpec(3, 5), "pure", headroom=2, seed=11),
    _mixed_structured_state()], ids=["dense", "structured"])
def test_evaluate_many_equals_single_calls(state, expand):
    # many settings rows, each with its own signs, in one sides_from_moments
    # call against one call per row: the full report (expand) or the sides
    from cvbell.cfrd import moment_table, sides_from_moments

    rng = np.random.default_rng(5)
    signs = [(1, 1, -1), (1, -1, -1), (-1, 1, 1)]
    shared = [_settings([0.4] * 3, [0.3] * 3, s) for s in signs]
    distinct = [_settings(rng.uniform(0, 2 * math.pi, 3), rng.uniform(-1.2, 1.2, 3), s)
                for s in signs]
    seq = shared + distinct + [shared[0]]
    table = moment_table(state)

    def sides(rows):
        return sides_from_moments(table, *(np.array([getattr(r, f) for r in rows])
                                           for f in ("thetas", "deltas", "signs")))

    lhs, rhs = sides(seq)
    assert lhs.shape == rhs.shape == (len(seq),)
    for k, stg in enumerate(seq):
        if expand:
            report = cfrd_evaluate(state, stg)
            assert lhs[k] == np.abs(report.mean_forward) ** 2
            assert rhs[k] == report.rhs
        else:
            assert (lhs[k], rhs[k]) == tuple(x[0] for x in sides([stg]))
    assert all(x.shape == (0,) for x in sides_from_moments(
        table, np.zeros((0, 3)), np.zeros((0, 3)), np.ones((0, 3))))
    with pytest.raises(SettingsError):
        cfrd_evaluate(state, _settings([0] * 2, [0] * 2, [1, -1]))


def _table_states():
    states = [pytest.param(make_cat_family(n, 0.7 + 0.4j, sign),
                           id=f"cat-n{n}-{sign:+d}")
              for n in range(1, 11) for sign in (1, -1)]
    states += [pytest.param(make_fock_pair(n, range(n // 2)), id=f"fock-pair-n{n}")
               for n in range(2, 15)]
    states.append(pytest.param(_mixed_structured_state(), id="number-and-coherent"))
    states += [pytest.param(random_state(ModeSpec(n, 5), kind, headroom=2, seed=n),
                            id=f"dense-{kind}-n{n}")
               for n in (2, 3, 4) for kind in ("pure", "mixed")]
    states.append(pytest.param(make_two_mode_squeezed(ModeSpec(2, 47), 0.5),
                               id="tmsv-cutoff47"))
    return states


@pytest.mark.parametrize("state", _table_states())
def test_moment_table_contraction_matches_cfrd_beta(state):
    # a batch of (P, k, n) points, each row of k points with its own signs
    from cvbell.cfrd import moment_table, sides_from_moments

    n = state.n_modes
    rng = np.random.default_rng(n)
    thetas = rng.uniform(0, 2 * math.pi, (3, 4, n))
    deltas = rng.uniform(-DELTA_EDGE, DELTA_EDGE, (3, 4, n))
    signs = rng.choice([1, -1], (3, 1, n))
    signs[0, 0] = -signs[1, 0]
    lhs, rhs = sides_from_moments(moment_table(state), thetas, deltas, signs)
    assert lhs.shape == rhs.shape == (3, 4)
    got = lhs - rhs
    want = [[reference_beta(state, thetas[p, j], deltas[p, j], signs[p, 0])
             for j in range(4)] for p in range(3)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("state", _table_states())
def test_cfrd_beta_is_the_report_beta_without_s_squared(state, monkeypatch):
    from cvbell import cfrd

    def forbidden(*args):
        raise AssertionError("cfrd_beta expanded S^2")

    for stg in _reference_settings(state.n_modes):
        with monkeypatch.context() as patch:
            patch.setattr(cfrd, "_contract_outer", forbidden)
            beta = cfrd_beta(state, stg.thetas, stg.deltas, stg.signs)
        assert beta == cfrd_evaluate(state, stg).beta


def _one_coordinate_sweeps(state, column, values):
    """beta at the first _reference_settings with one coordinate (theta_k
    for column k, delta_k for column n + k) set to each of ``values``, for
    every k: shape (n, len(values))."""
    from cvbell.cfrd import moment_table, sides_from_moments

    n = state.n_modes
    stg = _reference_settings(n)[0]
    x = np.tile(np.array(stg.thetas + stg.deltas), (n, len(values), 1))
    for k in range(n):
        x[k, :, column(k, n)] = values
    lhs, rhs = sides_from_moments(moment_table(state), x[..., :n], x[..., n:],
                                  stg.signs)
    return lhs - rhs


@pytest.mark.parametrize("state", _table_states())
def test_beta_has_degree_one_in_each_twice_theta(state):
    # beta = a + Re(b e^{2i theta_k}) with the rest fixed, the form whose b
    # the search's mode step reads from the open contraction
    phis = np.arange(16) * (2 * math.pi / 16)
    beta = _one_coordinate_sweeps(state, lambda k, n: k, phis / 2)
    spectrum = np.fft.fft(beta, axis=1) / len(phis)
    assert np.abs(spectrum[:, 2:-1]).max() <= 1e-12 * np.abs(beta).max()


@pytest.mark.parametrize("state", _table_states())
def test_beta_cos_delta_has_degree_two_in_each_delta(state):
    # beta cos(delta_k) = c . (1, cos, sin, cos 2, sin 2)(delta_k) with the
    # rest fixed, the form whose coefficients the search's mode step reads
    # from the open contraction
    deltas = np.linspace(-DELTA_EDGE, DELTA_EDGE, 17)
    beta = _one_coordinate_sweeps(state, lambda k, n: n + k, deltas)
    basis = np.stack([np.ones_like(deltas), np.cos(deltas), np.sin(deltas),
                      np.cos(2 * deltas), np.sin(2 * deltas)], axis=1)
    poly = beta * np.cos(deltas)
    fit, *_ = np.linalg.lstsq(basis, poly.T, rcond=None)
    assert np.abs(basis @ fit - poly.T).max() <= 1e-12 * np.abs(beta).max()


@pytest.mark.parametrize("state", _table_states())
def test_open_mode_terms_rebuild_beta(state):
    # with every other mode at its angles, beta depends on mode k only
    # through the open contraction (F, G, r): each mode, both of its signs,
    # at random (theta_k, delta_k)
    from cvbell.cfrd import _open_mode, moment_table, sides_from_moments

    n = state.n_modes
    rng = np.random.default_rng(n)
    table = moment_table(state)
    thetas = rng.uniform(0, 2 * math.pi, (8, n))
    deltas = rng.uniform(-DELTA_EDGE, DELTA_EDGE, (8, n))
    signs = rng.choice([1, -1], (8, n))
    for k in range(n):
        signs[:, k] = [1, -1] * 4
        forward, rhs, r, _ = _open_mode(table, thetas, deltas, signs == 1, k)
        at_thetas = np.repeat(thetas[:, None], 16, axis=1)
        at_deltas = np.repeat(deltas[:, None], 16, axis=1)
        at_thetas[..., k] = rng.uniform(0, 2 * math.pi, (8, 16))
        at_deltas[..., k] = rng.uniform(-DELTA_EDGE, DELTA_EDGE, (8, 16))
        lhs, rhs_side = sides_from_moments(table, at_thetas, at_deltas,
                                           signs[:, None])
        want = lhs - rhs_side
        got = open_mode_beta(forward, rhs, r, at_thetas[..., k], at_deltas[..., k])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _per_point_pairs():
    """Dense two-mode states, pure and mixed, and a two-mode cat."""
    return [random_state(ModeSpec(2, 6), "pure" if i % 2 else "mixed", headroom=3,
                         seed=40 + i) for i in range(8)] + [make_cat_family(2, 0.9, -1)]


def _term_pair_states():
    """Four-mode states of two terms: cats at several alphas and both signs,
    and a Fock pair."""
    return [make_cat_family(4, alpha, sign) for alpha in (0.3, 0.9, 1.4 + 0.5j)
            for sign in (1, -1)] + [make_fock_pair(4, (0, 2))]


def _stacked_term_pair_table(states, rows):
    """The per-point table of the states' own term-pair tables, each
    repeated ``rows`` times."""
    from cvbell.cfrd import MomentTable, moment_table

    tables = [moment_table(s) for s in states]
    return MomentTable(*(np.repeat([getattr(t, name) for t in tables], rows, axis=0)
                         for name in ("weights", "forward", "rhs")), per_point=True)


def test_per_point_table_matches_each_states_own_table():
    # a per-point table gives each point the sides and open contractions of
    # its state's own moment_table. Stacked two_mode_moment_table outputs do
    # so bit for bit on dense states and to rounding on the cat, whose 6x6
    # table an einsum over term pairs sums; stacked term-pair tables do so
    # bit for bit
    from cvbell.cfrd import (_bogoliubov, _open_mode, _sides, _two_mode_blocks,
                             moment_table)

    rows = 12
    two_mode, term_pair = _per_point_pairs(), _term_pair_states()
    cases = [(two_mode, _two_mode_blocks(np.repeat(
                 [two_mode_moment_table(s) for s in two_mode], rows, axis=0))),
             (term_pair, _stacked_term_pair_table(term_pair, rows))]
    rng = np.random.default_rng(6)
    for states, table in cases:
        n = states[0].n_modes
        thetas = rng.uniform(0, 2 * math.pi, (len(states) * rows, n))
        deltas = rng.uniform(-DELTA_EDGE, DELTA_EDGE, (len(states) * rows, n))
        plus = rng.choice([True, False], (len(states) * rows, n))
        _, lhs, rhs = _sides(table, *_bogoliubov(thetas, deltas), plus)
        opened = [_open_mode(table, thetas, deltas, plus, k)[:3] for k in range(n)]
        for i, state in enumerate(states):
            own, at = moment_table(state), slice(i * rows, (i + 1) * rows)
            _, own_lhs, own_rhs = _sides(own, *_bogoliubov(thetas[at], deltas[at]),
                                         plus[at])
            own_opened = [_open_mode(own, thetas[at], deltas[at], plus[at], k)[:3]
                          for k in range(n)]
            if table.weights is None and isinstance(state, StructuredState):
                want = own_lhs - own_rhs
                slack = 1e-15 * np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(lhs[at] - rhs[at] - want) <= slack)
                for k, terms in enumerate(own_opened):
                    got, ref = (open_mode_beta(*t, thetas[at, k, None],
                                               deltas[at, k, None])[:, 0]
                                for t in ([x[at] for x in opened[k]], terms))
                    assert np.all(np.abs(got - ref)
                                  <= 1e-15 * np.maximum(1.0, np.abs(ref)))
            else:
                assert np.array_equal(lhs[at], own_lhs)
                assert np.array_equal(rhs[at], own_rhs)
                for mine, theirs in zip(opened, own_opened):
                    for a, b in zip(mine, theirs):
                        assert np.array_equal(a[at], b)


@pytest.mark.parametrize("kind", ["dense", "term-pair", "per-point",
                                  "per-point-term-pair"])
def test_chunked_open_contraction_changes_no_bits(kind, monkeypatch):
    # a contraction with one mode open, split into many small chunks of
    # points, gives each point the value of the unchunked contraction
    from cvbell import cfrd

    points = 40
    if kind == "per-point":
        n, table = 2, cfrd._two_mode_blocks(np.stack([
            two_mode_moment_table(s) for s in _per_point_pairs()[:-1]] * 5))
    elif kind == "per-point-term-pair":
        n, table = 4, _stacked_term_pair_table(_term_pair_states()[:5], 8)
    else:
        n, state = ((3, random_state(ModeSpec(3, 4), "mixed", 2, 7)) if kind == "dense"
                    else (5, make_fock_pair(5, range(2))))
        table = cfrd.moment_table(state)
    rng = np.random.default_rng(8)
    for block in (table.forward, table.rhs):
        m = block.shape[-1]
        coeffs = rng.normal(size=(points, n - 1, m)) + 1j * rng.normal(
            size=(points, n - 1, m))
        for k in range(n):
            whole = cfrd._contract(table, block, coeffs, open=k)
            with monkeypatch.context() as patch:
                patch.setattr(cfrd, "_CONTRACT_BATCH_ENTRIES", 1)
                chunked = cfrd._contract(table, block, coeffs, open=k)
            assert whole.shape == (points, m)
            assert np.array_equal(chunked, whole)


def test_dense_tables_share_read_only_monomial_stacks():
    # every dense table on s levels reads one cached stack per block, which
    # no caller can write into
    from cvbell.cfrd import _monomial_stack, moment_table

    state = random_state(ModeSpec(2, 6), "mixed", headroom=3, seed=1)
    first = moment_table(state)
    mats, flat = _monomial_stack(3, (1, 2))
    for shared in (mats, flat):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1.0
    again = moment_table(state)
    assert _monomial_stack(3, (1, 2))[0] is mats
    assert np.array_equal(first.forward, again.forward)
    assert np.array_equal(first.rhs, again.rhs)


@pytest.mark.parametrize("field, index, value", [
    (1, 1, math.pi / 2), (1, 0, -math.pi / 2), (1, 1, math.nan),
    (0, 0, math.nan), (0, 1, math.inf), (2, 1, 0)])
def test_every_entry_point_rejects_the_same_settings(field, index, value):
    # one rule set: finite thetas, |delta| < pi/2, s = +-1
    from cvbell import beta_from_table
    from cvbell.cfrd import moment_table, sides_from_moments

    args = [[0.3, 0.5], [0.2, -0.1], [1, -1]]
    args[field][index] = value
    state = make_cat_family(2, 0.8, -1)
    with pytest.raises(SettingsError):
        _settings(*args)
    with pytest.raises(SettingsError):
        sides_from_moments(moment_table(state), *(np.array(x) for x in args))
    with pytest.raises(SettingsError):
        beta_from_table(two_mode_moment_table(state), np.array(args[0]),
                        np.array(args[1]), args[2])


@pytest.mark.parametrize("state", [make_cat_family(3, 0.8, -1),
                                   random_state(ModeSpec(3, 4), "mixed", 2, 1)],
                         ids=["structured", "dense"])
def test_sides_reject_settings_of_another_width(state):
    from cvbell.cfrd import moment_table, sides_from_moments

    table = moment_table(state)
    for width in (2, 4):
        with pytest.raises(SettingsError):
            sides_from_moments(table, np.full(width, 0.3), np.full(width, 0.2),
                               np.ones(width))
    with pytest.raises(SettingsError):  # widths that do not broadcast
        sides_from_moments(table, np.zeros(3), np.zeros(2), np.ones(3))
    with pytest.raises(SettingsError):
        sides_from_moments(table, 0.3, 0.2, 1)
    with pytest.raises(SettingsError):
        cfrd_beta(state, [0.3] * 2, [0.2] * 2, [1, -1])
    with pytest.raises(SettingsError):  # one settings: no broadcasting
        cfrd_beta(state, [0.3] * 3, [0.2], [1, -1, 1])


def test_moment_table_blocks_and_checks():
    from cvbell.cfrd import moment_table, sides_from_moments

    state = make_two_mode_squeezed(ModeSpec(2, 47), 0.5)
    tensor = two_mode_moment_table(state)
    table = moment_table(state)
    assert np.array_equal(table.forward, tensor[np.ix_([1, 2], [1, 2])])
    assert np.array_equal(table.rhs, tensor[np.ix_([0, 3, 4, 5], [0, 3, 4, 5])])

    thetas, deltas = np.zeros(2), np.full(2, 0.3)
    with pytest.raises(SettingsError):
        sides_from_moments(table, thetas, deltas, [1, 0])
    for edge in (math.pi / 2, -math.pi / 2, math.nan):
        with pytest.raises(SettingsError):
            sides_from_moments(table, thetas, [0.3, edge], [1, -1])


@pytest.mark.parametrize("state", [make_fock_pair(10, range(5)),
                                   random_state(ModeSpec(4, 5), "mixed", 2, 3)],
                         ids=["fock-pair-n10", "dense-mixed-n4"])
def test_moment_table_chunks_change_no_bits(state):
    # 1000 points span several chunks of the contraction; each point's value
    # is the one it gets alone
    from cvbell.cfrd import moment_table, sides_from_moments

    n = state.n_modes
    table = moment_table(state)
    rng = np.random.default_rng(3)
    thetas = rng.uniform(0, 2 * math.pi, (1000, n))
    deltas = rng.uniform(-DELTA_EDGE, DELTA_EDGE, (1000, n))
    signs = rng.choice([1, -1], (1000, n))
    batch = np.stack(sides_from_moments(table, thetas, deltas, signs), axis=-1)
    alone = [sides_from_moments(table, t, d, s)
             for t, d, s in zip(thetas, deltas, signs)]
    assert np.array_equal(batch, alone)


def _reference_settings(n):
    """A random nontrivial settings and the balanced split at theta = delta = 0."""
    rng = np.random.default_rng(100 + n)
    signs = [1] * (n // 2) + [-1] * (n - n // 2)
    return [_settings(rng.uniform(0, 2 * math.pi, n),
                      rng.uniform(-DELTA_EDGE, DELTA_EDGE, n), rng.permutation(signs)),
            _settings([0.0] * n, [0.0] * n, signs)]


def _assert_report_matches(got, want):
    # every field, each real one within 1e-12 of the functional's scale
    scale = max(abs(want.lhs), abs(want.rhs))
    approx = {"lhs": scale, "rhs": scale, "s_squared": scale,
              "product_number_moment": scale, "minor_d": scale, "beta": scale,
              "mean_forward": math.sqrt(scale), "mean_reverse": math.sqrt(scale)}
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name in approx:
            assert abs(a - b) <= 1e-12 * approx[field.name], (field.name, a, b)
        else:
            assert a == b, field.name


@pytest.mark.parametrize("expand", [True, False])
@pytest.mark.parametrize("state", _table_states())
def test_report_matches_per_pick_reference(state, expand):
    # the report always sums S^2 term by term; the reference sums it too
    # (expand) or takes it as rhs - <prod N>, which the report must match
    for stg in _reference_settings(state.n_modes):
        _assert_report_matches(cfrd_evaluate(state, stg),
                               reference_cfrd_evaluate(state, stg, expand))


@pytest.mark.parametrize("state", [param for param in _table_states()
                                   if param.values[0].n_modes == 2])
def test_two_mode_quantities_match_per_pick_reference(state):
    want = reference_two_mode_moment_table(state)
    np.testing.assert_allclose(two_mode_moment_table(state), want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))
    for stg in _reference_settings(2):
        got, want = two_mode_bound(state, stg), reference_two_mode_bound(state, stg)
        assert got.bound == want.bound
        assert got.beta2 == pytest.approx(want.beta2, rel=1e-12)


def _traced_peak(run) -> int:
    """Peak bytes ``tracemalloc`` sees while ``run()`` runs; numpy reports
    its buffers to it."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pure_table_never_forms_rho():
    # the cutoff-47 TMSV keeps 45 levels per mode: its rho would take 65.6 MB
    from cvbell.cfrd import moment_table

    state = make_two_mode_squeezed(ModeSpec(2, 47), 0.5)
    rho_bytes = state.support.mode_spec.dim ** 2 * 16
    stg = _reference_settings(2)[0]
    peak = _traced_peak(lambda: (moment_table(state), cfrd_evaluate(state, stg)))
    assert peak < rho_bytes / 32


def test_s_squared_terms_run_in_chunks():
    # S^2 of the 14-mode Fock pair has 2^14 - 1 = 16383 terms; their
    # coefficient rows alone would take 14.7 MB if made at once. The peak
    # holds a few arrays of the 2^14 outer-contraction values of one term
    # pair and their sum.
    state = make_fock_pair(14, range(7))
    stg = _reference_settings(14)[0]
    peak = _traced_peak(lambda: cfrd_evaluate(state, stg))
    assert peak < 8 * 2 ** 14 * 16


def test_dense_ghz_ten_modes_builds_only_the_blocks():
    # a pure 2^10-dim GHZ state: its rhs block has 4^10 entries (16.8 MB),
    # against 967 MB for a table of all six monomials; the peak stays within
    # a few copies of that block, and the S^2 terms match the per-pick
    # reference
    n = 10
    state = make_ghz_like(ModeSpec(n, 2))
    stg = _reference_settings(n)[0]
    results = []
    peak = _traced_peak(lambda: results.append(verify_implication(state, stg)))
    assert peak < 4 * 16 * 4 ** n
    result, = results
    assert result.consistent and result.pt_min_eig < 0
    _assert_report_matches(result.report, reference_cfrd_evaluate(state, stg))


def test_pure_three_mode_table_applies_monomials_to_the_ket():
    # support 30 on three modes: contracting mode 0 against ket and bra at
    # once would make four 900 x 900 blocks (52 MB); the monomials of the
    # first two modes act on the ket instead, a few copies of its 27000
    # levels for each pair of them
    state = random_state(ModeSpec(3, 31), "pure", headroom=1, seed=0)
    dim = state.support.mode_spec.dim
    stg = _reference_settings(3)[0]
    reports = []
    peak = _traced_peak(lambda: reports.append(cfrd_evaluate(state, stg)))
    assert peak < 32 * dim * 16
    _assert_report_matches(reports[0], reference_cfrd_evaluate(state, stg))
