"""Settings optimization and family scans."""

import math

import numpy as np
import pytest

from cvbell import (ModeSpec, QuadratureSettings, SettingsSearchSpec,
                    cfrd_evaluate, default_alpha_grid, make_basis_state,
                    make_two_mode_squeezed, optimize_settings,
                    random_state, scan_cat_family)
from cvbell import search, structured
from cvbell.search import _sign_assignments

from conftest import (cat_closed_form, cat_closed_form_best_ratio,
                      eager_nelder_mead)


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
    assert res.evaluations <= 300
    assert math.isfinite(res.report.beta)


@pytest.mark.parametrize("max_evals", [1, 4, 5])
def test_budget_edges_leave_a_finite_best(max_evals):
    # 1 and 2n evaluations cannot fill one initial simplex of 2n + 1 points,
    # 2n + 1 fills exactly one; the unfilled vertices read +inf
    state = random_state(ModeSpec(2, 6), "pure", headroom=3, seed=2)
    res = optimize_settings(state, SettingsSearchSpec(
        n_modes=2, restarts=50, seed=0, max_evals=max_evals))
    assert res.evaluations <= max_evals
    assert res.budget_exhausted
    assert math.isfinite(res.report.beta)


def test_dense_three_modes_reaches_its_best_beta():
    # -3.469860145 is the best beta found on this state; 4000 evaluations
    # spread over all 12 (sign pattern, restart) problems stop short of it
    # by less than 1e-5, and the default budget reaches it
    state = random_state(ModeSpec(3, 5), "mixed", 2, 3)
    cut = optimize_settings(state, SettingsSearchSpec(
        n_modes=3, restarts=2, seed=1, max_evals=4000))
    assert cut.budget_exhausted and cut.evaluations == 4000
    assert cut.report.beta >= -3.469860145 - 1e-5
    full = optimize_settings(state, SettingsSearchSpec(n_modes=3, restarts=2,
                                                       seed=1))
    assert not full.budget_exhausted
    assert full.report.beta >= -3.469860145 - 1e-8


def _coarse_grid_best(state) -> float:
    """Best beta of a 10x10 (theta, delta) grid, equal angles on both modes."""
    grid_best = -math.inf
    thetas = np.linspace(0, 2 * math.pi, 10)
    deltas = np.linspace(-1.2, 1.2, 10)
    for signs in ((1, -1), (-1, 1)):
        for t in thetas:
            for dl in deltas:
                rep = cfrd_evaluate(state, QuadratureSettings(
                    (t, t), (dl, dl), signs))
                grid_best = max(grid_best, rep.beta)
    return grid_best


def test_optimizer_beats_coarse_grid():
    """Nelder-Mead should never lose to a 10x10 grid by more than its pitch."""
    for seed in (3, 4, 5):
        state = random_state(ModeSpec(2, 6), "pure", headroom=3, seed=seed)
        res = optimize_settings(state, SettingsSearchSpec(
            n_modes=2, restarts=6, seed=seed, max_evals=8000))
        assert res.report.beta >= _coarse_grid_best(state) - 0.05


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

    def fn(rows, x):
        return ((x - targets[rows, None]) ** 2).sum(axis=-1)

    from cvbell import batched_nelder_mead
    xb, fb = batched_nelder_mead(fn, np.zeros((3, 2)), lo, hi)
    np.testing.assert_allclose(xb, targets, atol=1e-4)
    assert fb.max() < 1e-8


def _two_mode_tables(count: int, seed: int) -> np.ndarray:
    from cvbell import two_mode_moment_table

    rng = np.random.default_rng(seed)
    return np.stack([two_mode_moment_table(random_state(
        ModeSpec(2, 6), "pure" if i % 2 == 0 else "mixed", headroom=3,
        seed=int(rng.integers(1 << 31)))) for i in range(count)])


def _two_mode_problem(tables: np.ndarray, signs, seed: int):
    """(objective, x0, lo, hi) of best_beta_two_mode_batch's simplex."""
    from cvbell import beta_from_table

    lo, hi = search._box(SettingsSearchSpec(n_modes=2))

    def fn(rows, x):
        return -beta_from_table(tables[rows, None], x[..., :2], x[..., 2:], signs)

    x0 = lo + np.random.default_rng(seed).random((len(tables), 4)) * (hi - lo)
    return fn, x0, lo, hi


def test_simplex_evaluates_only_the_rows_each_step_needs():
    from cvbell import batched_nelder_mead

    batch = 64
    fn, x0, lo, hi = _two_mode_problem(_two_mode_tables(batch, seed=8),
                                       (1, -1), seed=2)
    calls = []

    def recording(rows, x):
        values = fn(rows, x)
        calls.append((np.arange(batch)[rows].tolist(), values))
        return values

    batched_nelder_mead(recording, x0, lo, hi)

    # replay each problem's simplex values by the Nelder-Mead rules; each
    # iteration must evaluate exactly the problems those rules need
    (_, initial), *calls = calls
    simplex = [sorted(v) for v in initial]
    followups = expansions = shrinks = 0
    while calls:
        rows, values = calls.pop(0)
        assert rows == list(range(batch)) and values.shape == (batch, 1)
        fr = values[:, 0]
        pending = []
        for i, s in enumerate(simplex):
            if s[0] <= fr[i] < s[-2]:
                s[-1] = fr[i]
            else:
                pending.append(i)
        if pending:
            rows, values = calls.pop(0)
            assert rows == pending and values.shape == (len(pending), 1)
            followups += 1
            shrinking = []
            for i, fy in zip(pending, values[:, 0]):
                s, r = simplex[i], fr[i]
                if r < s[0]:
                    expansions += 1
                    s[-1] = fy if fy < r else r
                elif fy <= r if r < s[-1] else fy < s[-1]:
                    s[-1] = fy
                else:
                    shrinking.append(i)
            if shrinking:
                rows, values = calls.pop(0)
                assert rows == shrinking and values.shape == (len(shrinking), 4)
                shrinks += 1
                for i, v in zip(shrinking, values):
                    simplex[i][1:] = v
        simplex = [sorted(s) for s in simplex]
    assert followups and expansions and shrinks


@pytest.mark.parametrize("problem", ["two-mode (1, -1)", "two-mode (-1, 1)",
                                     "quadratic"])
def test_simplex_matches_eager_oracle_bit_for_bit(problem):
    from cvbell import batched_nelder_mead

    if problem == "quadratic":
        lo, hi = np.full(3, -4.0), np.full(3, 4.0)
        rng = np.random.default_rng(4)
        targets = rng.uniform(-3.0, 3.0, (64, 3))

        def fn(rows, x):
            return ((x - targets[rows, None]) ** 2).sum(axis=-1)

        x0 = rng.uniform(-4.0, 4.0, (64, 3))
    else:
        signs = (1, -1) if problem == "two-mode (1, -1)" else (-1, 1)
        fn, x0, lo, hi = _two_mode_problem(_two_mode_tables(64, seed=31),
                                           signs, seed=6)
    x, f = batched_nelder_mead(fn, x0, lo, hi)
    x_want, f_want = eager_nelder_mead(fn, x0, lo, hi)
    assert np.array_equal(x, x_want) and np.array_equal(f, f_want)


def test_batch_sweep_matches_eager_oracle_bit_for_bit(monkeypatch):
    from cvbell import best_beta_two_mode_batch

    tables = _two_mode_tables(64, seed=31)
    spec = SettingsSearchSpec(n_modes=2, restarts=2, seed=9)
    got = best_beta_two_mode_batch(tables, spec)
    monkeypatch.setattr(search, "batched_nelder_mead", eager_nelder_mead)
    assert np.array_equal(got, best_beta_two_mode_batch(tables, spec))


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
        # both run the same simplex; the grid is a reference independent of it
        grid_best = _coarse_grid_best(state)
        assert fast >= grid_best - 0.05
        assert res.report.beta >= grid_best - 0.05


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
