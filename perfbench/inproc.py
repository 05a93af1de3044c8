"""Workloads that call cvbell inside the benchmark process.

Each constructor draws every input from the seed (the set-up the benchmark
times); the units only call cvbell's public functions through their
modules, so a traced run sees each call, and check what comes back. A
cycle has a fixed composition whatever the seed, so throughput compares
across seeds and commits; the seed varies the states and settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cvbell import cfrd, fock, moments, search, structured
from measure import Unit
from spans import item_kind

# Inputs for this many cycles are drawn up front and reused in turn.
POOL_CYCLES = 64


def _nontrivial_settings(rng, n: int) -> cfrd.QuadratureSettings:
    thetas = tuple(rng.uniform(0, 2 * math.pi, n))
    deltas = tuple(rng.uniform(-1.2, 1.2, n))
    while True:
        signs = tuple(int(s) for s in rng.choice([1, -1], n))
        if len(set(signs)) > 1:
            return cfrd.QuadratureSettings(thetas, deltas, signs)


# ---------------------------------------------------------------------------
# theorem_sweep: the dense-lattice theorem check


CUTOFF, HEADROOM = 6, 3
SWEEP_MODES = (2, 3, 4)
# The acceptance suite's mix: 40% pure, 40% mixed, 20% squeezed-pair product.
PAIR_MIX = ("pure", "pure", "mixed", "mixed", "squeezed")

# Reference ms/call at cutoff 6, headroom 3, listed in ROADMAP.md
# (2-core Xeon, Python 3.11.7, numpy 2.4.6).
REFERENCE_MS = {
    "fock.random_state": {"n=2 mixed": 0.09, "n=4 mixed": 248, "n=4 pure": 0.08},
    "cfrd.cfrd_evaluate": {"n=2 mixed": 0.14, "n=4 mixed": 111, "n=4 pure": 1.2},
    "moments.cfrd_minor_determinant": {"n=2 mixed": 0.19, "n=4 mixed": 96,
                                       "n=4 pure": 0.6},
}


@dataclass(frozen=True)
class Pair:
    n: int
    kind: str
    source: object  # state seed, or (lambda, phases, extra-mode amplitudes)
    settings: cfrd.QuadratureSettings


def pair_problems(report, minor_via_moments: float, pt_min: float | None,
                  ) -> list[str]:
    """The theorem chain and the identities one pair's outputs must meet."""
    problems = []
    if report.violated and not report.minor_d < 0:
        problems.append(f"violation with minor_d {report.minor_d:.3e} >= 0")
    if report.violated and not (pt_min is not None and pt_min < 0):
        problems.append(f"violation with PT min eigenvalue {pt_min}")
    residue = (abs(report.rhs - report.s_squared - report.product_number_moment)
               / max(1.0, report.rhs))
    if not residue <= 1e-9:
        problems.append(f"rhs - S^2 - <prod N> residue {residue:.3e}")
    if not report.s_squared >= -1e-12:
        problems.append(f"S^2 = {report.s_squared:.3e} < 0")
    if not abs(report.minor_d - minor_via_moments) <= 1e-9:
        problems.append(f"minor_d {report.minor_d:.12e} vs moments "
                        f"{minor_via_moments:.12e}")
    return problems


class TheoremSweep:
    """Seeded (state, settings) pairs through the theorem's three checks."""

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        modes = SWEEP_MODES[:2] if tiny else SWEEP_MODES
        self.cycles = []
        for _ in range(POOL_CYCLES):
            pairs = [self._draw(rng, n, kind) for n in modes for kind in PAIR_MIX]
            self.cycles.append([pairs[i] for i in rng.permutation(len(pairs))])

    @staticmethod
    def _draw(rng, n: int, kind: str) -> Pair:
        if kind == "squeezed":
            cap = CUTOFF - 1 - HEADROOM
            source = (math.tanh(rng.uniform(0.1, 1.0)), rng.random(cap + 1),
                      rng.standard_normal((n - 2, cap + 1))
                      + 1j * rng.standard_normal((n - 2, cap + 1)))
        else:
            source = int(rng.integers(1 << 31))
        return Pair(n, kind, source, _nontrivial_settings(rng, n))

    @staticmethod
    def _state(pair: Pair):
        spec = fock.ModeSpec(pair.n, CUTOFF)
        if pair.kind != "squeezed":
            return fock.random_state(spec, pair.kind, HEADROOM, pair.source)
        lam, phases, extra = pair.source
        tensor = np.zeros((CUTOFF, CUTOFF), dtype=complex)
        for m, phase in enumerate(phases):
            tensor[m, m] = lam ** m * np.exp(2j * np.pi * phase)
        for amplitudes in extra:
            single = np.zeros(CUTOFF, dtype=complex)
            single[: len(amplitudes)] = amplitudes
            tensor = np.tensordot(tensor, single, axes=0)
        return fock.from_amplitudes(spec, tensor, headroom=HEADROOM)

    def _unit(self, pair: Pair) -> Unit:
        def run(_tracer):
            state = self._state(pair)
            report = cfrd.cfrd_evaluate(state, pair.settings)
            minor = moments.cfrd_minor_determinant(
                state, report.bipartition,
                transforms=list(cfrd.mode_transform(pair.settings)))
            pt_min = None
            if report.violated:
                pt_min = fock.partial_transpose_min_eig(
                    state, report.bipartition).min_eigenvalue
            problems = pair_problems(report, minor, pt_min)
            return int(bool(problems)), problems

        return Unit(f"n={pair.n} {pair.kind}", 1, run)

    def cycle(self, k: int) -> list[Unit]:
        return [self._unit(p) for p in self.cycles[k % len(self.cycles)]]

    def trace_lines(self, tracer) -> list[str]:
        """ms/call by pair kind, next to the reference measurements."""
        sums: dict[tuple[str, str], list[float]] = {}
        for span in tracer.spans:
            if span[2] in REFERENCE_MS:
                key = (span[2], item_kind(tracer.spans, span))
                entry = sums.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += span[4] - span[3]
        lines = ["ms/call (inclusive) by pair kind, measured vs reference:"]
        for layer, reference in REFERENCE_MS.items():
            cells = []
            for kind, ref in reference.items():
                calls, secs = sums.get((layer, kind), (0, 0.0))
                got = f"{1e3 * secs / calls:.3g}" if calls else "-"
                cells.append(f"{kind} {got} (ref {ref})")
            lines.append(f"  {layer}: " + "; ".join(cells))
        return lines


# ---------------------------------------------------------------------------
# two_mode_batch: the criterion-4 shape


# States per batch: the default of scripts/run_two_mode_search.py. At 100 the
# fixed cost of each numpy call weighs more (perfbench/README.md).
BATCH_WIDTH = 1000
RESTARTS = 10
# A 20-s run measures one batch; a few more keep set-up short.
BATCH_POOL = 4
# Objective calls per batched simplex, listed in ROADMAP.md.
REFERENCE_CALLS_PER_SIMPLEX = 688


class TwoModeBatch:
    """Batches of two-mode states through the table, bound and batched search."""

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.width = 8 if tiny else BATCH_WIDTH
        self.restarts = 1 if tiny else RESTARTS
        self.batches = []
        for _ in range(BATCH_POOL):
            states = [(int(rng.integers(1 << 31)), cfrd.QuadratureSettings(
                tuple(rng.uniform(0, 2 * math.pi, 2)),
                tuple(rng.uniform(-1.2, 1.2, 2)),
                tuple(int(s) for s in rng.choice([1, -1], 2))))
                for _ in range(self.width)]
            self.batches.append((states, int(rng.integers(1 << 31))))

    def cycle(self, k: int) -> list[Unit]:
        states, simplex_seed = self.batches[k % len(self.batches)]

        def run(_tracer):
            tables = np.empty((len(states), 6, 6), dtype=complex)
            excess = np.empty(len(states))
            for i, (state_seed, settings) in enumerate(states):
                state = fock.random_state(fock.ModeSpec(2, CUTOFF),
                                          "pure" if i % 2 == 0 else "mixed",
                                          HEADROOM, state_seed)
                tables[i] = cfrd.two_mode_moment_table(state)
                bound = cfrd.two_mode_bound(state, settings)
                excess[i] = bound.beta2 - bound.bound
            best = search.best_beta_two_mode_batch(tables, search.SettingsSearchSpec(
                n_modes=2, restarts=self.restarts, seed=simplex_seed))
            bad = ~(best <= 1e-9) | ~(excess <= 1e-9)
            problems = [f"state {i}: best beta {best[i]:.3e}, "
                        f"beta2 - bound {excess[i]:.3e}" for i in np.flatnonzero(bad)]
            return int(bad.sum()), problems

        return [Unit("batch", len(states), run)]

    def trace_lines(self, tracer) -> list[str]:
        calls = {name: 0 for name in ("cfrd.beta_from_table",
                                      "search.batched_nelder_mead")}
        for span in tracer.spans:
            if span[2] in calls:
                calls[span[2]] += 1
        simplexes = calls["search.batched_nelder_mead"]
        per = calls["cfrd.beta_from_table"] / simplexes if simplexes else 0.0
        return [f"objective calls per batched simplex: {per:.1f} over "
                f"{simplexes} simplexes (reference ~{REFERENCE_CALLS_PER_SIMPLEX})"]


# ---------------------------------------------------------------------------
# structured_search: exact term-pair algebra, no dense lattice


SCAN_MAX_MODES = 10
ALPHA_GRID = search.default_alpha_grid(60)
# Each scan call covers every mode count on one chunk of the grid, so the
# scan units of a cycle do equal work. A cycle's 12 scans outnumber and
# outlast its 3 other units, so both the run's median and its tail unit
# latency fall inside the scans, and a scan is long enough to average out
# the host's sub-second jitter that a one-alpha scan would show in the tail.
ALPHA_CHUNK = 5
FOCK_PAIR_MODES = (2, 4, 6, 8, 10)
CAT_RATIO_N2 = 0.897507  # best cat ratio at n=2 on this grid (README)
OPTIMIZE_CATS = 2


def scan_points(n: int) -> int:
    """Sign patterns scan_cat_family evaluates at each alpha (its documented rule)."""
    if n == 1:
        return 2
    return 2 ** n - 2 if n <= 6 else n - 1


def scan_problems(row, grid_end: bool) -> list[str]:
    """Checks on the best row of a scan chunk; ``grid_end`` marks the chunk
    holding the grid's largest alpha, where the n=2 ratio peaks."""
    problems = []
    if not row.ratio < 1:
        problems.append(f"cat ratio {row.ratio:.6f} >= 1 at n={row.n}")
    if row.n % 2 and not abs(row.ratio) <= 1e-12:
        problems.append(f"cat ratio {row.ratio:.3e} != 0 at odd n={row.n}")
    if row.n == 2 and grid_end and not abs(row.ratio - CAT_RATIO_N2) <= 5e-6:
        problems.append(f"cat ratio {row.ratio:.6f} at n=2, expected {CAT_RATIO_N2}")
    return problems


def fock_pair_problems(n: int, result) -> list[str]:
    want = 0.25 / 0.75 ** (n / 2)
    report = result.report
    ratio = report.lhs / report.rhs
    problems = []
    if not abs(ratio - want) <= 1e-9 * want:
        problems.append(f"Fock-pair ratio {ratio:.12f}, expected {want:.12f}")
    if report.violated != (want > 1):
        problems.append(f"violated={report.violated} at n={n}")
    if not result.consistent:
        problems.append("verify_implication inconsistent")
    return problems


class StructuredSearch:
    """Cat-family scans, Fock-pair checks and optimizer runs on structured states."""

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.scan_modes = range(1, (3 if tiny else SCAN_MAX_MODES) + 1)
        self.first_sign = int(rng.choice([1, -1]))
        self.cycles = []
        for _ in range(POOL_CYCLES):
            flipped = {n: tuple(int(k) for k in rng.permutation(n)[: n // 2])
                       for n in FOCK_PAIR_MODES}
            cats = [(float(rng.uniform(0.4, 1.2)), int(rng.choice([1, -1])),
                     int(rng.integers(1 << 31)))
                    for _ in range(1 if tiny else OPTIMIZE_CATS)]
            self.cycles.append((flipped, cats))

    def cycle(self, k: int) -> list[Unit]:
        # the cat sign alternates, so two consecutive cycles scan both
        sign = self.first_sign * (-1) ** k
        flipped, cats = self.cycles[k % len(self.cycles)]
        units = [self._scan(self.scan_modes, sign, start)
                 for start in range(0, len(ALPHA_GRID), ALPHA_CHUNK)]
        units.append(self._fock_pairs(flipped))
        units += [self._optimize(*cat) for cat in cats]
        return units

    @staticmethod
    def _scan(modes: range, sign: int, start: int) -> Unit:
        grid = ALPHA_GRID[start:start + ALPHA_CHUNK]
        grid_end = start + ALPHA_CHUNK >= len(ALPHA_GRID)

        def run(_tracer):
            rows = search.scan_cat_family(modes, grid, sign)
            if [row.n for row in rows] != list(modes):
                return items, [f"scan rows for n={[row.n for row in rows]}"]
            failed, problems = 0, []
            for row in rows:
                found = scan_problems(row, grid_end)
                failed += len(grid) * scan_points(row.n) if found else 0
                problems += found
            return failed, problems

        items = len(grid) * sum(scan_points(n) for n in modes)
        return Unit("scan", items, run)

    @staticmethod
    def _fock_pairs(flipped: dict[int, tuple[int, ...]]) -> Unit:
        """One unit checks the whole Fock-pair family, n = 2, 4, .., 10."""
        def run(_tracer):
            failed, problems = 0, []
            for n in FOCK_PAIR_MODES:
                state = structured.make_fock_pair(n, flipped[n])
                signs = tuple(1 if k in flipped[n] else -1 for k in range(n))
                settings = cfrd.QuadratureSettings((0.0,) * n, (0.0,) * n, signs)
                found = fock_pair_problems(
                    n, cfrd.verify_implication(state, settings))
                failed += int(bool(found))
                problems += found
            return failed, problems

        return Unit("fock pairs", len(FOCK_PAIR_MODES), run)

    @staticmethod
    def _optimize(alpha: float, sign: int, seed: int) -> Unit:
        def run(_tracer):
            result = search.optimize_settings(
                structured.make_cat_family(2, alpha, sign),
                search.SettingsSearchSpec(n_modes=2, restarts=4, seed=seed))
            problems = []
            if not result.report.beta <= 1e-9:
                problems.append(f"two-mode cat violates: beta {result.report.beta:.3e}")
            if not result.evaluations > 0:
                problems.append("optimizer made no evaluations")
            return int(bool(problems)), problems

        return Unit("optimize", 1, run)
