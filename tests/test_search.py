"""Settings optimization and family scans."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cvbell import (ModeSpec, QuadratureSettings, SettingsSearchSpec,
                    cfrd_evaluate, default_alpha_grid,
                    make_basis_state, make_cat_family, make_two_mode_squeezed,
                    optimize_settings, random_state, scan_cat_family)
from cvbell import search, structured
from cvbell.search import _sign_assignments

from conftest import (cat_closed_form, cat_closed_form_best_ratio,
                      eager_nelder_mead, open_mode_beta)


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SettingsSearchSpec(n_modes=2, restarts=0)
    with pytest.raises(ValueError):
        SettingsSearchSpec(n_modes=2, max_evals=0)
    with pytest.raises(ValueError, match="single mode"):
        SettingsSearchSpec(n_modes=1)


def test_sign_assignments_exclude_trivial():
    # one pattern per nontrivial bipartition: with their negations they are
    # every pattern that holds both signs, each exactly once
    for n in range(2, 9):
        got = list(_sign_assignments(n))
        assert len(got) == 2 ** (n - 1) - 1
        assert all(signs[0] == 1 for signs in got)
        mirrored = got + [tuple(-s for s in signs) for signs in got]
        nontrivial = [signs for signs in itertools.product((1, -1), repeat=n)
                      if len(set(signs)) == 2]
        assert len(nontrivial) == 2 ** n - 2
        assert sorted(mirrored) == sorted(nontrivial)


def test_box_keeps_the_search_defaults():
    # theta over [0, 2 pi], delta DELTA_MARGIN inside (-pi/2, pi/2)
    lo, hi = search._box(3)
    margin = 0.05
    assert lo.tolist() == [0.0] * 3 + [-math.pi / 2 + margin] * 3
    assert hi.tolist() == [2.0 * math.pi] * 3 + [math.pi / 2 - margin] * 3


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_simplex_runs_fifty_iterations_per_dimension(dim):
    # fresh noise on every call never lets the simplex converge, so it makes
    # one reflection call per iteration up to its cap
    from cvbell import batched_nelder_mead

    rng = np.random.default_rng(dim)
    reflections = 0

    def noise(rows, x):
        nonlocal reflections
        reflections += isinstance(rows, slice) and x.shape[1] == 1
        return rng.random(x.shape[:2])

    batched_nelder_mead(noise, rng.random((5, dim)), np.zeros(dim),
                        np.ones(dim))
    assert reflections == 50 * dim


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


def test_optimizer_report_is_its_sides_bit_for_bit():
    # the search ranks points by sides_from_moments and reports through
    # cfrd_evaluate; both read one contraction, so the reported beta is the
    # one sides_from_moments gives at the reported settings
    from cvbell.cfrd import moment_table, sides_from_moments

    state = make_cat_family(2, 0.9, -1)
    report = optimize_settings(state, SettingsSearchSpec(n_modes=2, seed=1)).report
    stg = report.settings
    lhs, rhs = sides_from_moments(moment_table(state), stg.thetas, stg.deltas,
                                  stg.signs)
    assert (report.lhs, report.rhs, report.beta) == (lhs, rhs, lhs - rhs)


def test_budget_exhaustion_flagged():
    state = random_state(ModeSpec(2, 6), "pure", headroom=3, seed=2)
    res = optimize_settings(state, SettingsSearchSpec(n_modes=2, restarts=50,
                                                      seed=0, max_evals=300))
    assert res.budget_exhausted
    assert res.evaluations <= 300
    assert math.isfinite(res.report.beta)


def test_ascent_stops_once_the_budget_is_spent(monkeypatch):
    # evaluations counts every point the search contracts, each open
    # contraction as one; the cap ends the ascent at the step it cannot pay
    # for in full, and only then is the budget flagged as exhausted
    points = 0
    real_sides, real_open = search.sides_from_moments, search._open_mode

    def counted(table, thetas, deltas, signs):
        nonlocal points
        points += thetas.size // thetas.shape[-1]
        return real_sides(table, thetas, deltas, signs)

    def counted_open(table, thetas, *args):
        nonlocal points
        points += len(thetas)
        return real_open(table, thetas, *args)

    monkeypatch.setattr(search, "sides_from_moments", counted)
    monkeypatch.setattr(search, "_open_mode", counted_open)
    state = random_state(ModeSpec(2, 6), "pure", headroom=3, seed=2)
    spec = SettingsSearchSpec(n_modes=2, restarts=4, seed=0)
    free = optimize_settings(state, spec)
    assert not free.budget_exhausted and points == free.evaluations
    used = free.evaluations
    for cap in (used, used - 1, used // 2, 10):
        points = 0
        res = optimize_settings(state, dataclasses.replace(spec, max_evals=cap))
        assert points == res.evaluations <= cap
        assert res.budget_exhausted == (cap < used)
        # the last step covers the problems the rest of the budget pays for,
        # so less than one problem's step (2 evaluations) is left
        assert cap - res.evaluations < 2
        assert math.isfinite(res.report.beta)
        if cap == used:
            assert res.report == free.report


def _sides_objective(state, row_signs):
    """(open_mode, evaluate) of optimize_settings's ascent on ``state``, one
    problem per row of ``row_signs``."""
    from cvbell.cfrd import moment_table, sides_from_moments

    n, table = state.n_modes, moment_table(state)

    def open_mode(rows, x, k):
        return search._open_mode(table, x[:, :n], x[:, n:], row_signs[rows] == 1, k)

    def evaluate(rows, x):
        lhs, rhs = sides_from_moments(table, x[:, :n], x[:, n:], row_signs[rows])
        return lhs - rhs

    return open_mode, evaluate


def _coordinate_sweeps(state, x, row_signs, col, grid):
    """beta of every problem at its point x with coordinate ``col`` set to
    each of ``grid``, read through sides_from_moments: (problems, len(grid))."""
    from cvbell.cfrd import moment_table, sides_from_moments

    n = state.n_modes
    at = np.repeat(x[:, None], len(grid), axis=1)
    at[..., col] = grid
    lhs, rhs = sides_from_moments(moment_table(state), at[..., :n], at[..., n:],
                                  row_signs[:, None])
    return lhs - rhs


COORDINATE_STATES = [random_state(ModeSpec(3, 5), "mixed", 2, 3),
                     make_cat_family(2, 0.9, -1)]


@pytest.mark.parametrize("state", COORDINATE_STATES, ids=["dense-n3", "cat-n2"])
def test_ascent_ends_at_a_coordinate_wise_maximum(state):
    # at each problem's final point no single theta_k or delta_k on a
    # 2001-point grid beats its beta, and that beta is the evaluator's value
    # at the point, bit for bit
    n = state.n_modes
    row_signs = np.repeat(list(_sign_assignments(n)), 2, axis=0)
    open_mode, evaluate = _sides_objective(state, row_signs)
    lo, hi = search._box(n)
    x0 = lo + np.random.default_rng(4).random((len(row_signs), 2 * n)) * (hi - lo)
    x, f, _, exhausted = search._ascend(open_mode, evaluate, x0, n)
    assert not exhausted
    assert np.array_equal(f, evaluate(np.arange(len(x)), x))
    slack = 1e-12 * np.maximum(1.0, np.abs(f))
    for col in range(2 * n):
        grid = np.linspace(lo[col], hi[col], 2001)
        best = _coordinate_sweeps(state, x, row_signs, col, grid).max(axis=1)
        assert (best <= f + slack).all()


@pytest.mark.parametrize("state", COORDINATE_STATES + [
    structured.make_fock_pair(4, range(2))], ids=["dense-n3", "cat-n2", "fock-n4"])
def test_mode_step_maximizes_theta_then_delta(state):
    # from random points, the theta of _mode_step is at least the best of a
    # grid at the old delta, and its delta the best of a grid at the new theta
    n = state.n_modes
    rng = np.random.default_rng(n)
    row_signs = rng.choice([1, -1], (6, n))
    open_mode, evaluate = _sides_objective(state, row_signs)
    lo, hi = search._box(n)
    x = lo + rng.random((6, 2 * n)) * (hi - lo)
    rows = np.arange(6)
    for k in range(n):
        row_signs[:, k] = [1, -1] * 3
        theta, delta = search._mode_step(*open_mode(rows, x, k), x[:, n + k])
        for col, new in ((k, theta), (n + k, delta)):
            grid = np.linspace(lo[col], hi[col], 2001)
            best = _coordinate_sweeps(state, x, row_signs, col, grid).max(axis=1)
            x[:, col] = new
            got = evaluate(rows, x)
            assert (got >= best - 1e-12 * np.maximum(1.0, np.abs(best))).all()


@pytest.mark.parametrize("max_evals", [1, 4, 5])
def test_budget_edges_leave_a_finite_best(max_evals):
    # 1, 4 and 5 evaluations start only that many of the 50 problems and
    # leave none for a mode step (2 per problem); the best start is reported
    state = random_state(ModeSpec(2, 6), "pure", headroom=3, seed=2)
    res = optimize_settings(state, SettingsSearchSpec(
        n_modes=2, restarts=50, seed=0, max_evals=max_evals))
    assert res.evaluations <= max_evals
    assert res.budget_exhausted
    assert math.isfinite(res.report.beta)


def test_dense_three_modes_reaches_its_best_beta():
    # -3.469860145 is the best beta found on this state; the ascent reaches
    # it from all 6 (sign pattern, restart) starts within 2000 evaluations
    state = random_state(ModeSpec(3, 5), "mixed", 2, 3)
    res = optimize_settings(state, SettingsSearchSpec(
        n_modes=3, restarts=2, seed=1, max_evals=2000))
    assert not res.budget_exhausted and res.evaluations <= 2000
    assert res.report.beta >= -3.469860145 - 1e-8


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
    """The search should never lose to a 10x10 grid by more than its pitch."""
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


def test_scan_rejects_empty_alpha_grid():
    with pytest.raises(ValueError, match="alpha grid"):
        scan_cat_family([2, 3], [], 1)


def test_scan_rows_equal_cfrd_evaluate_bit_for_bit():
    # the scan's sides come from one contraction per alpha, the one the
    # report runs too; each row must be the report of its own alpha and
    # signs, bit for bit, at real and complex alphas alike
    grids = [[0.3], [1.2], default_alpha_grid(5), [1.2 + 0.5j], [0.9j]]
    for sign in (1, -1):
        for grid in grids:
            for row in scan_cat_family(range(1, 7), grid, sign):
                n = row.n
                rep = cfrd_evaluate(make_cat_family(n, row.alpha, sign),
                                    QuadratureSettings((0.0,) * n, (0.0,) * n,
                                                       row.signs))
                assert (row.lhs, row.rhs, row.ratio, row.beta) == (
                    rep.lhs, rep.rhs, rep.lhs / rep.rhs, rep.beta)


def test_scan_phase_invariance():
    # rotating alpha's phase leaves lhs/rhs untouched at delta = 0
    grid = [0.8, 0.8 * np.exp(1.3j)]
    rows = [scan_cat_family([3], [g], sign=1)[0] for g in grid]
    assert rows[0].ratio == pytest.approx(rows[1].ratio, abs=1e-10)
    assert rows[0].lhs == pytest.approx(rows[1].lhs, abs=1e-10)


def test_scan_representative_signs_match_exhaustive():
    # the scan keeps one sign pattern per count m <= n/2 of -1 labels; each
    # row must reach the best ratio over every pattern (both labels at n = 1)
    grid = default_alpha_grid(8)
    for n in range(1, 8):
        patterns = [signs for signs in itertools.product((1, -1), repeat=n)
                    if n == 1 or len(set(signs)) == 2]
        settings = [QuadratureSettings((0.0,) * n, (0.0,) * n, signs)
                    for signs in patterns]
        for sign in (1, -1):
            best = max(rep.lhs / rep.rhs for alpha in grid
                       for rep in [cfrd_evaluate(make_cat_family(n, alpha, sign), stg)
                                   for stg in settings])
            [row] = scan_cat_family([n], grid, sign=sign)
            assert row.ratio == pytest.approx(best, abs=1e-12)


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
    """(objective, x0, lo, hi) of a simplex over the two-mode batch's box."""
    from cvbell import beta_from_table

    lo, hi = search._box(2)

    def fn(rows, x):
        return -beta_from_table(tables[rows, None], x[..., :2], x[..., 2:], signs)

    x0 = lo + np.random.default_rng(seed).random((len(tables), 4)) * (hi - lo)
    return fn, x0, lo, hi


def test_two_mode_blocks_open_mode_rebuilds_beta_from_table():
    # the batch's open contraction on the tables' sub-blocks: each mode and
    # sign pattern, at random (theta_k, delta_k) of every state
    from cvbell import beta_from_table
    from cvbell.cfrd import _open_mode, _two_mode_blocks

    tables = _two_mode_tables(64, seed=12)
    blocks = _two_mode_blocks(tables)
    rng = np.random.default_rng(3)
    lo, hi = search._box(2)
    for signs in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
        x = lo + rng.random((64, 4)) * (hi - lo)
        for k in range(2):
            forward, rhs, r = _open_mode(blocks, x[:, :2], x[:, 2:],
                                         np.equal([signs], 1), k)
            at = np.repeat(x[:, None], 16, axis=1)
            at[..., k] = rng.uniform(lo[k], hi[k], (64, 16))
            at[..., 2 + k] = rng.uniform(lo[2 + k], hi[2 + k], (64, 16))
            want = beta_from_table(tables[:, None], at[..., :2], at[..., 2:], signs)
            got = open_mode_beta(forward, rhs, r, at[..., k], at[..., 2 + k])
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


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


def test_batch_sweep_never_worse_than_the_simplex():
    # each state's best beta is at least the best of a simplex run from the
    # same seeded starts
    from cvbell import best_beta_two_mode_batch

    tables = _two_mode_tables(64, seed=31)
    got = best_beta_two_mode_batch(tables, SettingsSearchSpec(
        n_modes=2, restarts=2, seed=9))
    rng = np.random.default_rng(9)
    simplex = np.full(len(tables), -np.inf)
    for _ in range(2):
        fn, _, lo, hi = _two_mode_problem(tables, (1, -1), seed=0)
        x0 = lo + rng.random((len(tables), 4)) * (hi - lo)
        simplex = np.maximum(simplex, -eager_nelder_mead(fn, x0, lo, hi)[1])
    assert (got >= simplex - 1e-12).all()


def test_batch_sweep_runs_one_start_at_a_time():
    # the starts of a state are never tiled into one ascent: 1000 states at
    # 10 starts stay within a few megabytes, where tiling takes about 28 MB
    from cvbell import best_beta_two_mode_batch

    tables = np.tile(_two_mode_tables(100, seed=5), (10, 1, 1))
    tracemalloc.start()
    try:
        best_beta_two_mode_batch(tables, SettingsSearchSpec(n_modes=2, restarts=10,
                                                            seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_batch_sweep_of_no_states_is_empty():
    from cvbell import best_beta_two_mode_batch

    best = best_beta_two_mode_batch(np.zeros((0, 6, 6), complex),
                                    SettingsSearchSpec(n_modes=2, restarts=1))
    assert best.shape == (0,)


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
        # both run the same ascent; the grid is a reference independent of it
        grid_best = _coarse_grid_best(state)
        assert fast >= grid_best - 0.05
        assert res.report.beta >= grid_best - 0.05


def test_scan_ties_keep_first_candidate():
    # odd n: lhs is exactly 0 at every grid point and sign pattern, so the
    # row keeps the first candidate instead of a rounding-noise argmax; even
    # n: the best ratio (18/19)^n sits at the grid's edge |alpha| = 3, where
    # every sign pattern ties up to e^{-36 n} and the first one is kept
    grid = default_alpha_grid(60)
    # the scan takes one pattern per count m = 1..n/2 of -1 labels, trailing
    first_signs = {1: (1,), 2: (1, -1), 3: (1, 1, -1), 4: (1, 1, 1, -1),
                   7: (1, 1, 1, 1, 1, 1, -1), 8: (1, 1, 1, 1, 1, 1, 1, -1)}
    for sign in (1, -1):
        for row in scan_cat_family(sorted(first_signs), grid, sign=sign):
            assert row.signs == first_signs[row.n]
            if row.n % 2:
                assert row.alpha == grid[0]
            else:
                assert row.alpha == 3.0
                assert row.ratio == pytest.approx((18 / 19) ** row.n, rel=1e-12)


def test_scan_evaluates_each_single_mode_element_once(monkeypatch):
    # every sign pattern at one alpha reads one moment table: the six
    # monomials {1, a, a^dag, N, a^2, a^dag^2} on each mode and term pair
    calls = 0
    real = structured.single_mode_matrix_element

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(structured, "single_mode_matrix_element", counted)
    n, n_terms = 6, 2
    scan_cat_family([n], [0.7], 1)
    assert calls == 6 * n * n_terms ** 2


def test_scan_evaluates_one_pattern_per_split_size(monkeypatch):
    # per alpha, one call over max(1, n // 2) patterns: no pattern is the
    # negation or a mode permutation of another, so none repeats a ratio
    calls = {}
    real = search.sides_from_moments

    def recording(table, thetas, deltas, signs):
        calls.setdefault(signs.shape[-1], []).append(
            [tuple(row) for row in signs.tolist()])
        return real(table, thetas, deltas, signs)

    monkeypatch.setattr(search, "sides_from_moments", recording)
    scan_cat_family(range(1, 11), [0.4, 0.9], 1)
    for n in range(1, 11):
        assert len(calls[n]) == 2
        for patterns in calls[n]:
            assert len(patterns) == max(1, n // 2)
            assert all(signs[0] == 1 for signs in patterns)
            counts = [signs.count(-1) for signs in patterns]
            assert len(set(counts)) == len(counts)
            assert all(2 * m <= n for m in counts)


def test_optimizer_reads_one_moment_table(monkeypatch):
    # the search builds one table of 6 n T^2 single-mode elements and never
    # calls cfrd_beta; the final report makes its own calls
    from cvbell import cfrd, make_cat_family

    calls = 0
    real = structured.single_mode_matrix_element

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    def forbidden(*args):
        raise AssertionError("optimize_settings called cfrd_beta")

    monkeypatch.setattr(structured, "single_mode_matrix_element", counted)
    monkeypatch.setattr(cfrd, "cfrd_beta", forbidden)
    monkeypatch.setattr(search, "cfrd_beta", forbidden, raising=False)
    n, n_terms = 2, 2
    state = make_cat_family(n, 0.8, 1)
    res = optimize_settings(state, SettingsSearchSpec(n_modes=n, seed=3))
    search_calls, calls = calls, 0
    cfrd_evaluate(state, res.report.settings)
    assert 0 < search_calls <= 6 * n * n_terms ** 2 + calls
