import math

import numpy as np

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
    """Best closed-form lhs/rhs over the grid and the m the cat scan covers.

    The scan labels one mode either way at n = 1 and otherwise takes every
    nontrivial split, m = 1..n-1.
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


def eager_nelder_mead(fn, x0, lo, hi, max_iter=200, fatol=1e-10, xatol=1e-6):
    """Batched box-constrained Nelder-Mead that evaluates every problem at
    every candidate: reflection, expansion, contraction and, whenever any
    problem shrinks, every problem's shrunk vertices.

    It keeps the simplex that evaluated all candidates eagerly, as an oracle
    for ``cvbell.batched_nelder_mead``, which evaluates only the points each
    problem uses; both must follow the same trajectory bit for bit. ``fn``
    takes the same ``(rows, x)`` arguments, always with every row.
    """
    every = slice(None)
    x0 = np.asarray(x0, dtype=float)
    batch, dim = x0.shape
    step = 0.05 * (hi - lo)
    x = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        x[:, k + 1, k] = np.clip(x[:, k + 1, k] + step[k], lo[k], hi[k])
    f = fn(every, x)

    for _ in range(max_iter):
        order = np.argsort(f, axis=1)
        f = np.take_along_axis(f, order, axis=1)
        x = np.take_along_axis(x, order[:, :, None], axis=1)
        spread = f[:, -1] - f[:, 0]
        if (spread.max() < fatol
                and np.abs(x - x[:, :1, :]).max(axis=(1, 2)).max() < xatol):
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
