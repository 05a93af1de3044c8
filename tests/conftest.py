import cmath
import itertools
import math

import numpy as np

from cvbell import CfrdReport, NormalOrderedPoly, QuadratureSettings, TwoModeBound
from cvbell.moments import poly_expectations

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cat_closed_form(n: int, alpha: complex, sign: int,
                    m: int) -> tuple[float, float]:
    """(lhs, rhs) of N(|a>^n + sign |-a>^n) at theta = delta = 0.

    Derived by hand from coherent-state overlaps, independently of cvbell.
    At delta = 0 the derived mode operator is b = a; ``m`` counts the modes
    with s_k = -1. With x = |a|^2 and e = exp(-2 n x):
        <prod B> = x^{n/2} [1 + (-1)^n + sign e ((-1)^m + (-1)^{n-m})]
                   / (2 (1 + sign e)),   lhs = |<prod B>|^2,
        rhs = sum_j C(n, j) 2^{j-n} x^j (1 + sign (-1)^j e) / (1 + sign e).
    """
    x = abs(alpha) ** 2
    e = math.exp(-2.0 * n * x)
    norm = 1.0 + sign * e
    mean = (x ** (n / 2) * (1 + (-1) ** n + sign * e * ((-1) ** m
                                                        + (-1) ** (n - m)))
            / (2.0 * norm))
    rhs = sum(math.comb(n, j) * 2.0 ** (j - n) * x ** j
              * (1 + sign * (-1) ** j * e) for j in range(n + 1)) / norm
    return mean ** 2, rhs


def cat_closed_form_best_ratio(n: int, alpha_grid, sign: int) -> float:
    """Best closed-form lhs/rhs over the grid and every count m of -1 labels:
    both labels at n = 1, every nontrivial split m = 1..n-1 otherwise.
    """
    ms = range(0, 2) if n == 1 else range(1, n)
    sides = (cat_closed_form(n, alpha, sign, m)
             for alpha in alpha_grid for m in ms)
    return max(lhs / rhs for lhs, rhs in sides)


def ladder_word_oracle(state, word) -> complex:
    """<psi| word |psi> on a pure dense state by padded ladder matrices.

    ``word`` lists (mode, "create"|"annihilate") factors left to right. It is
    independent of cvbell's normal ordering: each mode's factors multiply as
    ladder matrices built here at cutoff d + (creations on that mode), so no
    intermediate occupation is dropped, and the product is cropped back to d.
    That makes it exact at any headroom.
    """
    assert state.kind == "pure", "the oracle evaluates pure states only"
    psi = state.array
    d = state.cutoff
    out = psi
    for mode in sorted({k for k, _ in word}):
        ops = [op for k, op in word if k == mode]
        padded = d + ops.count("create")
        lower = np.diag(np.sqrt(np.arange(1.0, padded)), 1)
        m = np.eye(padded)
        for op in ops:
            m = m @ (lower.T if op == "create" else lower)
        out = np.moveaxis(np.tensordot(m[:d, :d], out, axes=([1], [mode])),
                          0, mode)
    return complex(np.vdot(psi, out))


def open_mode_beta(forward, rhs, r, theta, delta):
    """beta from one mode's open contraction (F, G, r), one row per settings
    row, at that mode's ``theta`` and ``delta`` of shape (rows, k):
    |u F_0 + v F_1|^2 - Re[(1 - c/2) G_0 + G_1 + w G_2 + w* G_3] / (c r),
    with u, v and w = c u v* written out from the quadrature angles here."""
    c = np.cos(delta)
    u = (1 + np.exp(-1j * delta)) / (2 * np.sqrt(c))
    v = np.exp(2j * theta) * (1 - np.exp(1j * delta)) / (2 * np.sqrt(c))
    w = c * u * v.conj()
    f, g, r = forward[:, None], rhs[:, None], r[:, None]
    lhs = np.abs(u * f[..., 0] + v * f[..., 1]) ** 2
    return lhs - ((1 - c / 2) * g[..., 0] + g[..., 1] + w * g[..., 2]
                  + w.conj() * g[..., 3]).real / (c * r)


def eager_nelder_mead(fn, x0, lo, hi):
    """Batched box-constrained Nelder-Mead that evaluates every problem at
    every candidate: reflection, expansion, contraction and, whenever any
    problem shrinks, every problem's shrunk vertices.

    It keeps the simplex that evaluated all candidates eagerly, as an oracle
    for ``cvbell.batched_nelder_mead``, which evaluates only the points each
    problem uses; both must follow the same trajectory bit for bit. ``fn``
    takes the same ``(rows, x)`` arguments, always with every row. Like it,
    it runs at most 50 iterations per dimension and stops on the same
    tolerances.
    """
    every = slice(None)
    x0 = np.asarray(x0, dtype=float)
    batch, dim = x0.shape
    step = 0.05 * (hi - lo)
    x = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        x[:, k + 1, k] = np.clip(x[:, k + 1, k] + step[k], lo[k], hi[k])
    f = fn(every, x)

    for _ in range(50 * dim):
        order = np.argsort(f, axis=1)
        f = np.take_along_axis(f, order, axis=1)
        x = np.take_along_axis(x, order[:, :, None], axis=1)
        spread = f[:, -1] - f[:, 0]
        if (spread.max() < 1e-10
                and np.abs(x - x[:, :1, :]).max(axis=(1, 2)).max() < 1e-6):
            break

        centroid = x[:, :-1, :].mean(axis=1)
        worst = x[:, -1, :]
        xr = np.clip(centroid + (centroid - worst), lo, hi)
        fr = fn(every, xr[:, None])[:, 0]

        xe = np.clip(centroid + 2.0 * (centroid - worst), lo, hi)
        fe = fn(every, xe[:, None])[:, 0]
        outside = fr < f[:, -1]
        xc = np.clip(np.where(outside[:, None], centroid + 0.5 * (xr - centroid),
                              centroid - 0.5 * (centroid - worst)), lo, hi)
        fc = fn(every, xc[:, None])[:, 0]

        expand = fr < f[:, 0]
        reflect = ~expand & (fr < f[:, -2])
        take_e = expand & (fe < fr)
        contract_ok = ~expand & ~reflect & np.where(outside, fc <= fr,
                                                    fc < f[:, -1])
        shrink = ~expand & ~reflect & ~contract_ok

        new_worst = np.where(take_e[:, None], xe,
                             np.where(contract_ok[:, None], xc, xr))
        new_fworst = np.where(take_e, fe, np.where(contract_ok, fc, fr))
        keep = expand | reflect | contract_ok
        x[keep, -1] = new_worst[keep]
        f[keep, -1] = new_fworst[keep]

        if shrink.any():
            shrunk = x[:, :1, :] + 0.5 * (x[:, 1:, :] - x[:, :1, :])
            fs = fn(every, shrunk)
            x[shrink, 1:] = shrunk[shrink]
            f[shrink, 1:] = fs[shrink]

    best = np.argmin(f, axis=1)
    idx = np.arange(batch)
    return x[idx, best, :], f[idx, best]


# ---------------------------------------------------------------------------
# per-pick reference for cfrd: every moment one poly_expectations pick


def _reference_mode_polys(theta, delta):
    """(b, b^dag, N_b, cos_delta*N_b + 1/2) as polynomials for one mode."""
    c = math.cos(delta)
    root = 2.0 * math.sqrt(c)
    u = (1.0 + cmath.exp(-1j * delta)) / root
    v = cmath.exp(2j * theta) * (1.0 - cmath.exp(1j * delta)) / root
    ubar, vbar = u.conjugate(), v.conjugate()
    n_b = {(1, 1): ubar * u + vbar * v, (2, 0): ubar * v, (0, 2): vbar * u,
           (0, 0): vbar * v}
    rhs = {key: c * value for key, value in n_b.items()}
    rhs[(0, 0)] += 0.5
    b = NormalOrderedPoly({(0, 1): u, (1, 0): v})
    return b, b.dagger(), NormalOrderedPoly(n_b), NormalOrderedPoly(rhs)


def reference_cfrd_evaluate(state, settings, expand_s_squared=True):
    """``cfrd_evaluate`` by the per-pick recipe that predates
    ``cfrd.moment_table``: <prod B> in both orders, <prod N_b>, the rhs
    product and each S^2 term are separate picks of normal-ordered
    polynomials, and S^2 is summed with its weights over the subsets of
    sizes 0..n-1."""
    n = settings.n_modes
    polys = [_reference_mode_polys(t, d)
             for t, d in zip(settings.thetas, settings.deltas)]

    def b_pick(signs):
        return {k: polys[k][0 if s == 1 else 1] for k, s in enumerate(signs)}

    sizes = range(n) if expand_s_squared else []
    subsets = [sub for size in sizes for sub in itertools.combinations(range(n), size)]
    picks = [b_pick(settings.signs), b_pick([-s for s in settings.signs]),
             {k: p[2] for k, p in enumerate(polys)},
             {k: p[3] for k, p in enumerate(polys)}]
    picks += [{k: polys[k][2] for k in sub} for sub in subsets]
    mean_fwd, mean_rev, prod_n, rhs, *terms = poly_expectations(state, picks)
    cos_all = [math.cos(d) for d in settings.deltas]
    cos_prod = math.prod(cos_all)
    lhs, rhs, prod_n = abs(mean_fwd) ** 2, rhs.real / cos_prod, prod_n.real
    if subsets:
        s_squared = sum(0.5 ** (n - len(sub)) * math.prod(cos_all[k] for k in sub)
                        / cos_prod * term.real for sub, term in zip(subsets, terms))
    else:
        s_squared = rhs - prod_n
    beta = lhs - rhs
    return CfrdReport(
        lhs=lhs, rhs=rhs, s_squared=s_squared, product_number_moment=prod_n,
        minor_d=prod_n - (mean_fwd * mean_rev).real,
        bipartition=settings.bipartition, beta=beta, violated=beta > 1e-9,
        trivial_bipartition=settings.trivial_bipartition,
        mean_forward=mean_fwd, mean_reverse=mean_rev, settings=settings)


def reference_beta(state, thetas, deltas, signs):
    """``cfrd_beta`` by the per-pick recipe, apart from ``moment_table``."""
    settings = QuadratureSettings(tuple(thetas), tuple(deltas), tuple(signs))
    return reference_cfrd_evaluate(state, settings, expand_s_squared=False).beta


def reference_two_mode_bound(state, settings):
    """``two_mode_bound`` from five picks of the quadrature polynomials."""
    (x0, y0), (x1, y1) = [
        [NormalOrderedPoly({(0, 1): cmath.exp(-1j * angle),
                            (1, 0): cmath.exp(1j * angle)})
         for angle in (t, t + d + s * math.pi / 2)]
        for t, d, s in zip(settings.thetas, settings.deltas, settings.signs)]

    def square_sum(x, y):
        xx, yy = (x * x).terms, (y * y).terms
        return NormalOrderedPoly({key: xx.get(key, 0) + yy.get(key, 0)
                                  for key in xx.keys() | yy.keys()})

    xx, yy, xy, yx, prod_sq = [m.real for m in poly_expectations(state, [
        {0: x0, 1: x1}, {0: y0, 1: y1}, {0: x0, 1: y1}, {0: y0, 1: x1},
        {0: square_sum(x0, y0), 1: square_sum(x1, y1)}])]
    bound = (4.0 * settings.signs[0] * settings.signs[1]
             * math.cos(settings.deltas[0]) * math.cos(settings.deltas[1]))
    return TwoModeBound(beta2=(xx - yy) ** 2 + (xy + yx) ** 2 - prod_sq,
                        bound=bound)


REFERENCE_MONOMIALS = [NormalOrderedPoly({qp: 1.0}) for qp in
                       ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0))]


def reference_two_mode_moment_table(state):
    """``two_mode_moment_table`` as 36 picks of single monomials."""
    picks = [{0: REFERENCE_MONOMIALS[i], 1: REFERENCE_MONOMIALS[j]}
             for i in range(6) for j in range(6)]
    return np.array(poly_expectations(state, picks)).reshape(6, 6)
