"""Closed-loop CLI workload: one client, each request a fresh process.

Untraced requests run ``python -m cvbell.cli``; traced ones run
``cli_shim.py``, which wraps the same layers inside the request process and
hands its spans back. Spec files are written during set-up. The r ladder of
the ``verify`` requests is fixed so every cycle pays the same partial
transposes; the seed varies the settings, the other specs and the order.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from measure import Unit

ROOT = Path(__file__).resolve().parent.parent
SHIM = Path(__file__).resolve().parent / "cli_shim.py"
SCHEMA = ROOT / "src" / "cvbell" / "schemas" / "report.schema.json"

VERIFY_R = (0.1, 0.4, 0.7, 1.0)
# Order-2 moment words create up to four quanta on a mode.
HEADROOM = 4
REQUEST_TIMEOUT_S = 120
# Spec files are written for this many cycles and reused in turn.
POOL_CYCLES = 4
# A cycle holds this many draws of the request mix. With 20 requests a run
# never has fewer than 20 samples, so item_tail_ms is never the maximum of
# one draw in some runs and near the median in others.
DRAWS_PER_CYCLE = 2


def tmsv_cutoff(r: float, headroom: int) -> int:
    """Smallest cutoff whose dropped squeezing tail stays within 1e-10."""
    lam = math.tanh(r)
    cap = max(2, math.ceil(-10 * math.log(10) / (2 * math.log(lam))) - 1)
    return cap + 1 + headroom


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable  # check(document or CSV path) -> problems


def _angles(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _settings_flags(rng, n: int) -> list[str]:
    signs = [1, -1] + [int(s) for s in rng.choice([1, -1], n - 2)]
    return [f"--theta={_angles(rng.uniform(0, 2 * math.pi, n))}",
            f"--delta={_angles(rng.uniform(-1.2, 1.2, n))}",
            "--s=" + ",".join(str(s) for s in rng.permutation(signs))]


def _finite_report(doc) -> list[str]:
    beta = doc["report"]["beta"]
    return [] if math.isfinite(beta) else [f"beta {beta} not finite"]


def _consistent(doc) -> list[str]:
    return _finite_report(doc) + ([] if doc.get("consistent") is True
                                  else ["verify reports consistent != true"])


def _negative_minor(doc) -> list[str]:
    return [] if doc.get("negative_minor") else ["no negative minor for a TMSV"]


def _two_mode_bound(doc) -> list[str]:
    beta = doc["report"]["beta"]
    return [] if beta <= 1e-9 else [f"two-mode optimum beta {beta:.3e} > 0"]


def _scan_rows(n_min: int, n_max: int):
    def check(path: Path) -> list[str]:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if [int(r["n"]) for r in rows] != list(range(n_min, n_max + 1)):
            problems.append(f"scan rows {[r['n'] for r in rows]}")
        problems += [f"cat ratio {r['ratio']} >= 1 at n={r['n']}"
                     for r in rows if not float(r["ratio"]) < 1]
        return problems
    return check


class CliRequests:
    """Cycles of CLI requests covering every subcommand."""

    def __init__(self, seed: int, tiny: bool, workdir: Path, env: dict):
        """``env`` is the environment of every request process; it must put
        ``src/`` on PYTHONPATH."""
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.validator = jsonschema.Draft202012Validator(
            json.loads(SCHEMA.read_text(encoding="utf-8")))
        self.env = env
        self.verify_r = VERIFY_R[:1] if tiny else VERIFY_R
        self.scan_max = 2 if tiny else 3
        workdir.mkdir(parents=True, exist_ok=True)
        self.cycles = [[request for d in range(DRAWS_PER_CYCLE)
                        for request in self._draw(rng, DRAWS_PER_CYCLE * c + d)]
                       for c in range(POOL_CYCLES)]

    def _spec(self, name: str, doc: dict) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _draw(self, rng, c: int) -> list[Request]:
        requests = []
        for r in self.verify_r:
            spec = self._spec(f"c{c}-tmsv-{r}", {
                "type": "tmsv", "r": r, "cutoff": tmsv_cutoff(r, HEADROOM),
                "headroom": HEADROOM})
            requests.append(Request(f"verify r={r}",
                                    ["verify", spec, *_settings_flags(rng, 2)],
                                    _consistent))
        r = float(rng.uniform(0.1, 1.0))
        spec = self._spec(f"c{c}-minors-tmsv", {
            "type": "tmsv", "r": r, "cutoff": tmsv_cutoff(r, HEADROOM),
            "headroom": HEADROOM})
        requests.append(Request("minors tmsv", [
            "minors", spec, "--bipartition", str(rng.choice(["01", "10"])),
            "--order", "2"], _negative_minor))
        spec = self._spec(f"c{c}-minors-random", {
            "type": "random", "n": 2, "cutoff": 7, "kind": "mixed",
            "headroom": HEADROOM, "seed": int(rng.integers(1 << 31))})
        requests.append(Request("minors random", [
            "minors", spec, "--bipartition", str(rng.choice(["01", "10"])),
            "--order", "2", "--max-size", "3"], lambda doc: []))
        phase = rng.uniform(0, 2 * math.pi)
        spec = self._spec(f"c{c}-ghz", {"type": "ghz", "n": 3, "cutoff": 4,
                                        "phase": [math.cos(phase), math.sin(phase)]})
        requests.append(Request("eval ghz", ["eval", spec, *_settings_flags(rng, 3)],
                                _finite_report))
        # |alpha| <= 0.5 keeps the coherent tail within the truncation budget
        alphas = [[radius * math.cos(phi), radius * math.sin(phi)]
                  for radius, phi in zip(rng.uniform(0, 0.5, 2),
                                         rng.uniform(0, 2 * math.pi, 2))]
        spec = self._spec(f"c{c}-coherent", {"type": "coherent", "alphas": alphas,
                                             "cutoff": 12, "headroom": 2})
        requests.append(Request("eval coherent",
                                ["eval", spec, *_settings_flags(rng, 2)],
                                _finite_report))
        spec = self._spec(f"c{c}-cat", {"type": "cat", "n": 2,
                                        "alpha": [float(rng.uniform(0.4, 1.2)), 0.0],
                                        "sign": int(rng.choice([1, -1]))})
        requests.append(Request("optimize", [
            "optimize", spec, "--restarts", "2",
            "--seed", str(int(rng.integers(1 << 31)))], _two_mode_bound))
        out = str(self.workdir / f"c{c}-scan.csv")
        requests.append(Request("scan", [
            "scan", "--family", "cat", "--n-min", "1", "--n-max", str(self.scan_max),
            "--alpha-points", "10", "--sign", str(int(rng.choice([1, -1]))),
            "--out", out], _scan_rows(1, self.scan_max)))
        return [requests[i] for i in rng.permutation(len(requests))]

    def response_problems(self, request: Request, returncode: int,
                          stdout: str, stderr: str) -> list[str]:
        """Exit code, report schema and the request's own expectation."""
        if returncode != 0:
            return [f"exit {returncode}: {stderr.strip()[-300:]}"]
        if request.argv[0] == "scan":
            return request.check(Path(request.argv[-1]))
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        problems = [f"schema: {e.message}" for e in self.validator.iter_errors(doc)]
        return problems or request.check(doc)

    def _unit(self, request: Request) -> Unit:
        def run(tracer):
            if tracer is None:
                cmd, env = [sys.executable, "-m", "cvbell.cli"], self.env
            else:
                spans_file = self.workdir / "spans.json"
                cmd = [sys.executable, str(SHIM)]
                env = dict(self.env, PERFBENCH_SPANS=str(spans_file))
            proc = subprocess.run([*cmd, *request.argv], env=env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=REQUEST_TIMEOUT_S)
            if tracer is not None:
                recorded = json.loads(spans_file.read_text(encoding="utf-8"))
                spans_file.unlink()
                tracer.adopt(recorded["spans"], recorded["counts"],
                             parent=tracer.current())
            problems = self.response_problems(request, proc.returncode,
                                              proc.stdout, proc.stderr)
            return int(bool(problems)), problems

        return Unit(request.kind, 1, run)

    def cycle(self, k: int) -> list[Unit]:
        return [self._unit(r) for r in self.cycles[k % len(self.cycles)]]
