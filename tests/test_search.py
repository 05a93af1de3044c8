"""Settings optimization and family scans."""

import math

import numpy as np
import pytest

from cvbell import (ModeSpec, QuadratureSettings, SettingsSearchSpec,
                    cfrd_evaluate, default_alpha_grid, make_basis_state,
                    make_two_mode_squeezed, optimize_settings,
                    random_state, scan_cat_family)
from cvbell import structured
from cvbell.search import _sign_assignments

from conftest import cat_closed_form, cat_closed_form_best_ratio


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SettingsSearchSpec(n_modes=2, restarts=0)
    with pytest.raises(ValueError):
        SettingsSearchSpec(n_modes=2, max_evals=0)
    with pytest.raises(ValueError):
        SettingsSearchSpec(n_modes=2, delta_box=(-2.0, 2.0))
    with pytest.raises(ValueError, match="single mode"):
        SettingsSearchSpec(n_modes=1)
    SettingsSearchSpec(n_modes=1, include_trivial_signs=True)


def test_sign_assignments_exclude_trivial():
    got = list(_sign_assignments(2, include_trivial=False))
    assert set(got) == {(1, -1), (-1, 1)}
    assert len(list(_sign_assignments(3, include_trivial=True))) == 8


def test_vacuum_never_violates():
    vac = make_basis_state(ModeSpec(2, 6), [0, 0])
    res = optimize_settings(vac, SettingsSearchSpec(n_modes=2, restarts=3,
                                                    seed=1, max_evals=3000))
    assert res.report.beta <= 0


def test_optimizer_deterministic():
    state = random_state(ModeSpec(2, 6), "pure", headroom=3, seed=9)
    spec = SettingsSearchSpec(n_modes=2, restarts=2, seed=42, max_evals=1500)
    a = optimize_settings(state, spec)
    b = optimize_settings(state, spec)
    assert a.report == b.report
    assert a.evaluations == b.evaluations


def test_tmsv_two_modes_no_violation():
    tmsv = make_two_mode_squeezed(ModeSpec(2, 18), 0.5)
    res = optimize_settings(tmsv, SettingsSearchSpec(n_modes=2, restarts=4,
                                                     seed=0, max_evals=4000))
    assert res.report.beta <= 1e-9


def test_budget_exhaustion_flagged():
    state = random_state(ModeSpec(2, 6), "pure", headroom=3, seed=2)
    res = optimize_settings(state, SettingsSearchSpec(n_modes=2, restarts=50,
                                                      seed=0, max_evals=300))
    assert res.budget_exhausted
    assert res.evaluations <= 300 + 1  # final re-evaluation not budgeted


def test_optimizer_beats_coarse_grid():
    """Nelder-Mead should never lose to a 10x10 grid by more than its pitch."""
    for seed in (3, 4, 5):
        state = random_state(ModeSpec(2, 6), "pure", headroom=3, seed=seed)
        res = optimize_settings(state, SettingsSearchSpec(
            n_modes=2, restarts=6, seed=seed, max_evals=8000))
        grid_best = -math.inf
        thetas = np.linspace(0, 2 * math.pi, 10)
        deltas = np.linspace(-1.2, 1.2, 10)
        for signs in ((1, -1), (-1, 1)):
            for t in thetas:
                for dl in deltas:
                    rep = cfrd_evaluate(state, QuadratureSettings(
                        (t, t), (dl, dl), signs))
                    grid_best = max(grid_best, rep.beta)
        assert res.report.beta >= grid_best - 0.05


def test_scan_single_mode_never_violates():
    rows = scan_cat_family(range(1, 2), default_alpha_grid(20), sign=1)
    assert rows[0].ratio < 1


def test_scan_two_modes_never_violates():
    for sign in (1, -1):
        rows = scan_cat_family(range(2, 3), default_alpha_grid(30), sign=sign)
        assert rows[0].ratio < 1


def test_scan_rows_sorted_and_complete():
    rows = scan_cat_family(range(1, 5), default_alpha_grid(10), sign=1)
    assert [r.n for r in rows] == [1, 2, 3, 4]
    for r in rows:
        assert r.rhs > 0
        assert r.ratio == pytest.approx(r.lhs / r.rhs)


def test_scan_phase_invariance():
    # rotating alpha's phase leaves lhs/rhs untouched at delta = 0
    grid = [0.8, 0.8 * np.exp(1.3j)]
    rows = [scan_cat_family([3], [g], sign=1)[0] for g in grid]
    assert rows[0].ratio == pytest.approx(rows[1].ratio, abs=1e-10)
    assert rows[0].lhs == pytest.approx(rows[1].lhs, abs=1e-10)


def test_scan_representative_signs_match_exhaustive():
    # above six modes the scan keeps one sign pattern per count of -1 labels;
    # check against the exhaustive enumeration on a case that has both paths
    grid = default_alpha_grid(8)
    a = scan_cat_family([7], grid, sign=1, exhaustive_signs=True)[0]
    b = scan_cat_family([7], grid, sign=1, exhaustive_signs=False)[0]
    assert a.ratio == pytest.approx(b.ratio, abs=1e-12)


def test_cat_scan_matches_closed_form():
    # at delta=0 lhs and rhs of both cats have a closed form in x = |alpha|^2
    alpha = 0.9
    for sign in (1, -1):
        for n in (2, 3):
            row = scan_cat_family([n], [alpha], sign=sign)[0]
            lhs, rhs = cat_closed_form(n, alpha, sign, row.signs.count(-1))
            assert row.rhs == pytest.approx(rhs, rel=1e-12)
            assert row.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12 * rhs)
            assert row.ratio == pytest.approx(
                cat_closed_form_best_ratio(n, [alpha], sign), abs=1e-12)


def test_batched_nelder_mead_quadratic():
    lo = np.array([-4.0, -4.0])
    hi = np.array([4.0, 4.0])
    targets = np.array([[1.0, -2.0], [0.5, 3.0], [-3.0, 0.25]])

    def fn(x):
        shaped = targets.reshape((3,) + (1,) * (x.ndim - 2) + (2,))
        return ((x - shaped) ** 2).sum(axis=-1)

    from cvbell import batched_nelder_mead
    xb, fb = batched_nelder_mead(fn, np.zeros((3, 2)), lo, hi)
    np.testing.assert_allclose(xb, targets, atol=1e-4)
    assert fb.max() < 1e-8


def test_batch_sweep_matches_scalar_optimizer():
    from cvbell import best_beta_two_mode_batch, two_mode_moment_table

    states = [random_state(ModeSpec(2, 6), "pure", headroom=3, seed=s)
              for s in (21, 22)]
    tables = np.stack([two_mode_moment_table(s) for s in states])
    spec = SettingsSearchSpec(n_modes=2, restarts=8, seed=5)
    batch_best = best_beta_two_mode_batch(tables, spec)
    for state, fast in zip(states, batch_best):
        res = optimize_settings(state, SettingsSearchSpec(
            n_modes=2, restarts=8, seed=5, max_evals=20_000))
        assert fast == pytest.approx(res.report.beta, abs=1e-4)


def test_scan_ties_keep_first_candidate():
    # odd n: lhs is exactly 0 at every grid point and sign pattern, so the
    # row keeps the first candidate instead of a rounding-noise argmax; even
    # n: the best ratio (18/19)^n sits at the grid's edge |alpha| = 3, where
    # every sign pattern ties up to e^{-36 n} and the first one is kept
    grid = default_alpha_grid(60)
    # up to six modes the scan enumerates every nontrivial pattern, above six
    # one representative per count of -1 labels
    first_signs = {1: (1,), 2: (1, -1), 3: (1, 1, -1), 4: (1, 1, 1, -1),
                   7: (-1, 1, 1, 1, 1, 1, 1), 8: (-1, 1, 1, 1, 1, 1, 1, 1)}
    for sign in (1, -1):
        for row in scan_cat_family(sorted(first_signs), grid, sign=sign):
            assert row.signs == first_signs[row.n]
            if row.n % 2:
                assert row.alpha == grid[0]
            else:
                assert row.alpha == 3.0
                assert row.ratio == pytest.approx((18 / 19) ** row.n, rel=1e-12)


def test_scan_evaluates_each_single_mode_element_once(monkeypatch):
    # every sign pattern at one alpha shares the per-mode lists of the four
    # polynomials (b, b^dag, N, cos*N + 1/2), each over the T^2 term pairs
    calls = 0
    real = structured.single_mode_matrix_element

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(structured, "single_mode_matrix_element", counted)
    n, n_terms = 6, 2
    scan_cat_family([n], [0.7], 1)
    assert 0 < calls <= 5 * n * n_terms ** 2
