"""Acceptance gate: the claims of the toolkit, each at its stated tolerance.

Every test emits one ``[PASS]``/``[FAIL]`` line (echoed again in the
terminal summary). Tests are ordered; the randomized sweeps are seeded and
deterministic.
"""

import math
import time

import numpy as np
import pytest

from cvbell import (ModeSpec, QuadratureSettings, SettingsSearchSpec,
                    best_beta_two_mode_batch, cfrd_evaluate,
                    cfrd_minor_determinant, build_moment_matrix,
                    default_alpha_grid, find_negative_minor,
                    from_amplitudes, make_fock_pair, make_two_mode_squeezed,
                    mode_transform, partial_transpose,
                    partial_transpose_min_eig,
                    quadrature_matrices, random_separable_mixture,
                    random_state, scan_cat_family, structured_moment,
                    two_mode_bound, two_mode_moment_table, verify_implication)
from cvbell.structured import StructuredState, coherent_ket, number_ket

from conftest import (ACCEPTANCE_LINES, cat_closed_form,
                      cat_closed_form_best_ratio, ladder_word_oracle)

SUITE_SEED = 20260823
PAIRS_PER_N = 1000


def _emit(ok: bool, label: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _tmsv_like_state(rng, n: int):
    """Renormalized squeezed pair on two modes with local phase rotations."""
    d, cap = 6, 2
    lam = math.tanh(rng.uniform(0.1, 1.0))
    pair = np.zeros((d, d), dtype=complex)
    for m in range(cap + 1):
        pair[m, m] = lam ** m * np.exp(2j * np.pi * rng.random())
    tensor = pair
    for _ in range(n - 2):
        single = np.zeros(d, dtype=complex)
        single[: cap + 1] = (rng.standard_normal(cap + 1)
                             + 1j * rng.standard_normal(cap + 1))
        tensor = np.tensordot(tensor, single, axes=0)
    return from_amplitudes(ModeSpec(n, d), tensor, headroom=3)


def _random_settings(rng, n: int) -> QuadratureSettings:
    thetas = tuple(rng.uniform(0, 2 * math.pi, n))
    deltas = tuple(rng.uniform(-1.2, 1.2, n))
    while True:
        signs = tuple(int(s) for s in rng.choice([1, -1], n))
        if len(set(signs)) > 1:
            break
    return QuadratureSettings(thetas, deltas, signs)


@pytest.fixture(scope="module")
def suite1():
    """Shared randomized (state, settings) sweep over n in {2, 3, 4}."""
    rng = np.random.default_rng(SUITE_SEED)
    records = []
    start = time.perf_counter()
    for n in (2, 3, 4):
        for _ in range(PAIRS_PER_N):
            roll = rng.random()
            if roll < 0.4:
                state = random_state(ModeSpec(n, 6), "pure", headroom=3,
                                     seed=int(rng.integers(1 << 31)))
            elif roll < 0.8:
                state = random_state(ModeSpec(n, 6), "mixed", headroom=3,
                                     seed=int(rng.integers(1 << 31)))
            else:
                state = _tmsv_like_state(rng, n)
            stg = _random_settings(rng, n)
            rep = cfrd_evaluate(state, stg)
            pt_min = None
            if rep.violated:
                pt_min = partial_transpose_min_eig(
                    state, rep.bipartition).min_eigenvalue
            minor_via_moments = cfrd_minor_determinant(
                state, rep.bipartition, transforms=list(mode_transform(stg)))
            records.append((n, rep, pt_min, minor_via_moments))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_theorem_property_suite(suite1):
    records, elapsed = suite1
    bad_minor = sum(1 for _, rep, _, _ in records
                    if rep.beta > 1e-9 and rep.minor_d >= -1e-9)
    violators = [(rep, pt) for _, rep, pt, _ in records if rep.violated]
    bad_pt = sum(1 for _, pt in violators if not (pt is not None and pt < 0))
    ok = bad_minor == 0 and bad_pt == 0 and elapsed < 600
    _emit(ok, "criterion 1",
          f"{len(records)} randomized pairs: {bad_minor} with positive minor "
          f"under violation, {len(violators)} violators all NPT "
          f"({bad_pt} exceptions), sweep {elapsed:.0f}s")


def test_criterion_2_decomposition_identity(suite1):
    records, _ = suite1
    worst_res = max(abs(rep.rhs - rep.s_squared - rep.product_number_moment)
                    / max(1.0, rep.rhs) for _, rep, _, _ in records)
    min_s2 = min(rep.s_squared for _, rep, _, _ in records)
    ok = worst_res <= 1e-9 and min_s2 >= -1e-12
    _emit(ok, "criterion 2",
          f"rhs = S^2 + <prod N> residue max {worst_res:.2e} (<= 1e-9), "
          f"min S^2 {min_s2:.2e} (>= -1e-12)")


def test_criterion_3_commutator_law():
    rng = np.random.default_rng(SUITE_SEED + 3)
    d = 12
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0, 2 * math.pi)
        delta = rng.uniform(-1.2, 1.2)
        s = int(rng.choice([1, -1]))
        x, y = quadrature_matrices(d, theta, delta, s)
        comm = (x @ y - y @ x)[: d - 2, : d - 2]
        want = 2j * s * math.cos(delta) * np.eye(d - 2)
        worst = max(worst, np.abs(comm - want).max())
    ok = worst <= 1e-10
    _emit(ok, "criterion 3",
          f"[X,Y] = 2is cos(delta) over 100 settings at d=12, "
          f"max residue {worst:.2e} (<= 1e-10)")


def test_criterion_4_two_mode_no_violation():
    n_states = 10_000
    rng = np.random.default_rng(SUITE_SEED + 4)
    tables = np.empty((n_states, 6, 6), dtype=complex)
    worst_excess = -math.inf
    start = time.perf_counter()
    for i in range(n_states):
        kind = "pure" if i % 2 == 0 else "mixed"
        state = random_state(ModeSpec(2, 6), kind, headroom=3,
                             seed=int(rng.integers(1 << 31)))
        tables[i] = two_mode_moment_table(state)
        stg = QuadratureSettings(tuple(rng.uniform(0, 2 * math.pi, 2)),
                                 tuple(rng.uniform(-1.2, 1.2, 2)),
                                 tuple(int(s) for s in rng.choice([1, -1], 2)))
        res = two_mode_bound(state, stg)
        worst_excess = max(worst_excess, res.beta2 - res.bound)
    # 20 seeded ascent starts on the one nontrivial split, signs (1, -1);
    # (-1, 1) gives the same beta
    spec = SettingsSearchSpec(n_modes=2, restarts=20, seed=SUITE_SEED)
    best = best_beta_two_mode_batch(tables, spec)
    elapsed = time.perf_counter() - start
    ok = best.max() <= 1e-9 and worst_excess <= 1e-9
    _emit(ok, "criterion 4",
          f"{n_states} two-mode states x 20 restarts: max beta "
          f"{best.max():.3e} (<= 1e-9); max beta2 - bound {worst_excess:.3e} "
          f"(<= 1e-9); {elapsed:.0f}s")


def test_criterion_5_cross_representation(suite1):
    rng = np.random.default_rng(SUITE_SEED + 5)
    checked, worst_word = 0, 0.0
    while checked < 200:
        n = int(rng.integers(1, 4))
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
        trial = StructuredState(n, list(zip(coeffs, factors)))
        nrm = math.sqrt(trial.norm_squared())
        state = StructuredState(n, [(c / nrm, f) for c, f in trial.terms])

        word = {k: [(str(rng.choice(["create", "annihilate"])), 1)
                    for _ in range(int(rng.integers(1, 3)))]
                for k in range(n) if rng.random() < 0.8}
        if not word:
            continue

        d = 24
        tensor = _dense_expansion(state, d)
        cap = d - 5
        for k in range(n):
            sl = [slice(None)] * n
            sl[k] = slice(cap + 1, None)
            tensor[tuple(sl)] = 0.0
        dense = from_amplitudes(ModeSpec(n, d), tensor)
        flat = [(k, op) for k in sorted(word) for op, _ in word[k]]
        diff = abs(structured_moment(state, word)
                   - ladder_word_oracle(dense, flat))
        worst_word = max(worst_word, diff)
        checked += 1

    records, _ = suite1
    worst_minor = max(abs(rep.minor_d - other)
                      for _, rep, _, other in records)
    ok = worst_word <= 1e-8 and worst_minor <= 1e-9
    _emit(ok, "criterion 5",
          f"structured vs dense on {checked} random words: max diff "
          f"{worst_word:.2e} (<= 1e-8); minor agreement across modules "
          f"max diff {worst_minor:.2e} (<= 1e-9)")


def _dense_expansion(state, d):
    tensor = np.zeros((d,) * state.n_modes, dtype=complex)
    grids = np.arange(d)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, d)))))
    for coeff, factors in state.terms:
        vecs = []
        for f in factors:
            if f.variant == "number":
                v = np.zeros(d, dtype=complex)
                v[int(f.value.real)] = 1.0
            elif f.value == 0:
                v = np.zeros(d, dtype=complex)
                v[0] = 1.0
            else:
                v = np.exp(-abs(f.value) ** 2 / 2
                           + grids * np.log(complex(f.value)) - logfact / 2)
            vecs.append(v)
        term = vecs[0]
        for v in vecs[1:]:
            term = np.tensordot(term, v, axes=0)
        tensor = tensor + coeff * term
    return tensor


def _tmsv_cutoff(r: float, headroom: int) -> int:
    lam = math.tanh(r)
    cap = max(2, math.ceil(-10 * math.log(10) / (2 * math.log(lam))) - 1)
    return cap + 1 + headroom


def test_criterion_6_minor_pt_consistency():
    rng = np.random.default_rng(SUITE_SEED + 6)
    missing_minor = missing_pt = off_closed_form = off_spectrum = 0
    for i in range(100):
        r = float(rng.uniform(0.1, 1.0))
        d = _tmsv_cutoff(r, headroom=4)
        tmsv = make_two_mode_squeezed(ModeSpec(2, d), r, headroom=4)
        m = build_moment_matrix(tmsv, frozenset({1}), 2)
        if find_negative_minor(m, max_size=2) is None:
            missing_minor += 1
        pt_min = partial_transpose_min_eig(tmsv, {1}).min_eigenvalue
        if pt_min >= 0:
            missing_pt += 1
        # -s1 s2 of the truncated, renormalized Schmidt series lam^m
        lam, cap = math.tanh(r), d - 5
        want = -lam * (1 - lam ** 2) / (1 - lam ** (2 * (cap + 1)))
        off_closed_form += not abs(pt_min - want) <= 1e-12
        if i % 10 == 0:
            full = np.linalg.eigvalsh(partial_transpose(tmsv, {1}))[0]
            off_spectrum += not abs(pt_min - full) <= 1e-12

    false_hits = 0
    for _ in range(100):
        sep = random_separable_mixture(ModeSpec(2, 7),
                                       n_terms=int(rng.integers(2, 6)),
                                       headroom=4,
                                       seed=int(rng.integers(1 << 31)))
        for part in (frozenset(), frozenset({0}), frozenset({1}),
                     frozenset({0, 1})):
            m = build_moment_matrix(sep, part, 2)
            if find_negative_minor(m, max_size=3) is not None:
                false_hits += 1
    ok = (missing_minor == 0 and missing_pt == 0 and off_closed_form == 0
          and off_spectrum == 0 and false_hits == 0)
    _emit(ok, "criterion 6",
          f"100 squeezed states: negative minor missing {missing_minor}, "
          f"PT>=0 {missing_pt}, PT min off -lam(1-lam^2)/(1-lam^(2(cap+1))) "
          f"{off_closed_form}, off full eigvalsh {off_spectrum} of 10 (1e-12); "
          f"100 separable mixtures: {false_hits} spurious negative minors")


def test_criterion_7_cat_family_scan():
    start = time.perf_counter()
    grid = default_alpha_grid(60)
    rows = [(sign, row) for sign in (1, -1)
            for row in scan_cat_family(range(1, 11), grid, sign=sign)]

    # cat family: every row against the closed form, no crossing at any n
    mismatched = below_one = odd_zero = 0
    for sign, row in rows:
        m = row.signs.count(-1)
        lhs, rhs = cat_closed_form(row.n, row.alpha, sign, m)
        best = cat_closed_form_best_ratio(row.n, grid, sign)
        if not (math.isclose(row.rhs, rhs, rel_tol=1e-12)
                and math.isclose(row.lhs, lhs, rel_tol=1e-12,
                                 abs_tol=1e-12 * rhs)
                and abs(row.ratio - best) <= 1e-12):
            mismatched += 1
        below_one += row.ratio < 1
        if row.n % 2 == 1:
            odd_zero += row.lhs <= 1e-12 * row.rhs
    cat_best = max(rows, key=lambda item: item[1].ratio)[1]

    # Fock pairs: ratio (1/4)(4/3)^{n/2}, first above 1 at n = 10
    pair_ns = range(2, 15, 2)
    pair_bad = 0
    pair_ratios = []
    for n in pair_ns:
        signs = tuple([1] * (n // 2) + [-1] * (n - n // 2))
        res = verify_implication(make_fock_pair(n, range(n // 2)),
                                 QuadratureSettings((0.0,) * n, (0.0,) * n,
                                                    signs))
        rep = res.report
        ratio = rep.lhs / rep.rhs
        pair_ratios.append(ratio)
        if not (math.isclose(ratio, 0.25 * (4 / 3) ** (n // 2), rel_tol=1e-12)
                and rep.violated == (ratio > 1)
                and math.isclose(rep.minor_d, -0.25, rel_tol=1e-12)
                and res.consistent):
            pair_bad += 1
    crossing = [n for n, r in zip(pair_ns, pair_ratios) if r > 1]
    tail = pair_ratios[pair_ns.index(crossing[0]):] if crossing else []
    grows = all(b > a for a, b in zip(tail, tail[1:]))
    elapsed = time.perf_counter() - start

    ok = (mismatched == 0 and below_one == len(rows) and odd_zero == 10
          and pair_bad == 0 and crossing == [10, 12, 14] and grows
          and elapsed < 60)
    _emit(ok, "criterion 7",
          f"cat family n=1..10, both signs: {mismatched} of {len(rows)} rows "
          f"off the closed form (1e-12), ratio<1 in {below_one}, lhs=0 at "
          f"{odd_zero} of 10 odd rows (best ratio {cat_best.ratio:.4f} at "
          f"n={cat_best.n}); Fock pairs n=2..14: {pair_bad} off "
          f"(1/4)(4/3)^(n/2), minor -1/4 or consistency, first crossing "
          f"n={crossing[0] if crossing else None}, growth past it {grows} "
          f"({', '.join(f'{r:.4f}' for r in tail)}); {elapsed:.0f}s")
