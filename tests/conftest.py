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
