"""Command-line front end: state-spec parsing, dispatch, JSON/CSV output.

Exit codes: 0 success, 2 usage or parse error, 3 physics-domain error
(cutoff, truncation budget, bad settings, overflow), 4 theorem
inconsistency (cannot occur on valid inputs; signals a software defect).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Sequence

from . import fock, search, structured
from .cfrd import (CfrdReport, QuadratureSettings, cfrd_evaluate,
                   verify_implication)
from .errors import CvBellError
from .moments import build_moment_matrix, find_negative_minor
from .search import SettingsSearchSpec

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PHYSICS = 3
EXIT_INCONSISTENT = 4


class SpecParseError(ValueError):
    pass


def _complex_from_json(value) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise SpecParseError(f"expected [re, im] pair, got {value!r}")
    return complex(*(float(_number(part, "[re, im]")) for part in value))


def _complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


_SPEC_FIELDS = {
    "basis": {"occupations", "cutoff"},
    "ghz": {"n", "phase", "cutoff"},
    "coherent": {"alphas", "cutoff", "headroom"},
    "tmsv": {"r", "cutoff", "headroom"},
    "cat": {"n", "alpha", "sign"},
    "fock_pair": {"n", "flipped"},
    "random": {"n", "cutoff", "kind", "headroom", "seed"},
}


_INTEGER_FIELDS = {"n", "cutoff", "headroom", "seed", "sign"}
_INTEGER_LIST_FIELDS = {"occupations", "flipped"}


def _number(value, what: str, types=(int, float)):
    """``value`` if it is a finite JSON number of ``types``: int() would
    truncate 2.9, and float() would take "0.3", true and NaN."""
    if type(value) in types and abs(value) < math.inf:
        return value
    raise SpecParseError(f"{what!r} must hold finite JSON numbers of type "
                         f"{'/'.join(t.__name__ for t in types)}, got {value!r}")


def parse_state_spec(doc: dict):
    """One constructor call per document; unknown fields are rejected."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise SpecParseError("state spec must be an object with a 'type' field")
    kind = doc["type"]
    if kind not in _SPEC_FIELDS:
        raise SpecParseError(f"unknown state type {kind!r}")
    extra = set(doc) - _SPEC_FIELDS[kind] - {"type"}
    if extra:
        raise SpecParseError(f"unknown fields for {kind!r} spec: {sorted(extra)}")
    try:
        for key in doc.keys() & (_INTEGER_FIELDS | _INTEGER_LIST_FIELDS):
            for value in doc[key] if key in _INTEGER_LIST_FIELDS else [doc[key]]:
                _number(value, key, (int,))
        if kind == "basis":
            occ = doc["occupations"]
            spec = fock.ModeSpec(len(occ), doc["cutoff"])
            return fock.make_basis_state(spec, occ)
        if kind == "ghz":
            spec = fock.ModeSpec(doc["n"], doc["cutoff"])
            phase = _complex_from_json(doc.get("phase", [1.0, 0.0]))
            return fock.make_ghz_like(spec, phase)
        if kind == "coherent":
            alphas = [_complex_from_json(a) for a in doc["alphas"]]
            spec = fock.ModeSpec(len(alphas), doc["cutoff"])
            kwargs = {"headroom": doc["headroom"]} if "headroom" in doc else {}
            return fock.make_coherent_product(spec, alphas, **kwargs)
        if kind == "tmsv":
            spec = fock.ModeSpec(2, doc["cutoff"])
            kwargs = {"headroom": doc["headroom"]} if "headroom" in doc else {}
            return fock.make_two_mode_squeezed(spec, float(_number(doc["r"], "r")),
                                               **kwargs)
        if kind == "cat":
            return structured.make_cat_family(
                doc["n"], _complex_from_json(doc["alpha"]), doc["sign"])
        if kind == "fock_pair":
            return structured.make_fock_pair(doc["n"], doc["flipped"])
        # random
        spec = fock.ModeSpec(doc["n"], doc["cutoff"])
        return fock.random_state(spec, doc.get("kind", "pure"),
                                 doc.get("headroom", 1), doc.get("seed", 0))
    except KeyError as exc:
        raise SpecParseError(f"missing field {exc.args[0]!r} in {kind!r} spec") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, (SpecParseError, CvBellError)):
            raise
        raise SpecParseError(f"malformed {kind!r} spec: {exc}") from exc


def load_state_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read state spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"state spec is not valid JSON: {exc}") from exc
    return parse_state_spec(doc)


def _parse_float_list(raw: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in raw.split(","))
    except ValueError as exc:
        raise SpecParseError(f"malformed {what} list {raw!r}") from exc


def parse_settings(state, theta: str, delta: str, s: str) -> QuadratureSettings:
    thetas = _parse_float_list(theta, "--theta")
    deltas = _parse_float_list(delta, "--delta")
    try:
        signs = tuple(int(x) for x in s.split(","))
    except ValueError as exc:
        raise SpecParseError(f"malformed --s list {s!r}") from exc
    n = state.n_modes
    if not len(thetas) == len(deltas) == len(signs) == n:
        raise SpecParseError(
            f"settings lists must all have length {n} (the state's mode count)")
    return QuadratureSettings(thetas, deltas, signs)


def report_to_json(report: CfrdReport) -> dict:
    return {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "s_squared": report.s_squared,
        "product_number_moment": report.product_number_moment,
        "minor_d": report.minor_d,
        "bipartition": sorted(report.bipartition),
        "beta": report.beta,
        "violated": report.violated,
        "trivial_bipartition": report.trivial_bipartition,
        "mean_forward": _complex_to_json(report.mean_forward),
        "mean_reverse": _complex_to_json(report.mean_reverse),
        "settings": {
            "thetas": list(report.settings.thetas),
            "deltas": list(report.settings.deltas),
            "signs": list(report.settings.signs),
        },
    }


def emit(document: dict, stream=None) -> None:
    stream = stream or sys.stdout
    json.dump(document, stream, sort_keys=True, indent=2)
    stream.write("\n")


def _parse_bipartition(mask: str, n_modes: int) -> frozenset[int]:
    if len(mask) != n_modes or set(mask) - {"0", "1"}:
        raise SpecParseError(
            f"--bipartition must be a {n_modes}-character 0/1 mask, got {mask!r}")
    return frozenset(k for k, c in enumerate(mask) if c == "1")


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    state = load_state_spec(args.state_spec)
    settings = parse_settings(state, args.theta, args.delta, args.s)
    report = cfrd_evaluate(state, settings)
    emit({"schema_version": SCHEMA_VERSION, "kind": "cfrd_report",
          "report": report_to_json(report)})
    return EXIT_OK


def cmd_verify(args) -> int:
    state = load_state_spec(args.state_spec)
    settings = parse_settings(state, args.theta, args.delta, args.s)
    result = verify_implication(state, settings)
    emit({"schema_version": SCHEMA_VERSION, "kind": "verification",
          "report": report_to_json(result.report),
          "pt_min_eig": result.pt_min_eig,
          "consistent": result.consistent})
    return EXIT_OK if result.consistent else EXIT_INCONSISTENT


def cmd_minors(args) -> int:
    state = load_state_spec(args.state_spec)
    part = _parse_bipartition(args.bipartition, state.n_modes)
    if args.order < 1:
        raise SpecParseError(f"--order must be >= 1, got {args.order}")
    matrix = build_moment_matrix(state, part, args.order)
    dim = len(matrix.index_list)
    if not 1 <= args.max_size <= dim:
        raise SpecParseError(f"--max-size must lie in 1..{dim} (the moment "
                             f"matrix dimension), got {args.max_size}")
    hit = find_negative_minor(matrix, max_size=args.max_size)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "minor_search",
        "bipartition": sorted(part),
        "order": args.order,
        "negative_minor": None if hit is None else {
            "subset": list(hit.subset),
            "determinant": hit.determinant,
            "matrix_slice": [[_complex_to_json(z) for z in row]
                             for row in hit.matrix_slice],
        },
    }
    if len(part) in (0, state.n_modes):
        doc["notice"] = ("trivial bipartition: this is the state-positivity "
                         "matrix, not a partial-transpose test")
    emit(doc)
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.family != "cat":
        raise SpecParseError(f"unknown scan family {args.family!r}")
    if not 1 <= args.n_min <= args.n_max:
        raise SpecParseError("need 1 <= --n-min <= --n-max, got "
                             f"{args.n_min} and {args.n_max}")
    if args.alpha_points < 1:
        raise SpecParseError(f"--alpha-points must be >= 1, got {args.alpha_points}")
    for flag, value in (("--alpha-min", args.alpha_min),
                        ("--alpha-max", args.alpha_max)):
        if not 0.0 < value < math.inf:
            raise SpecParseError(f"{flag} must be positive and finite, got {value}")
    grid = search.default_alpha_grid(args.alpha_points, args.alpha_min,
                                     args.alpha_max)
    try:
        rows = search.scan_cat_family(range(args.n_min, args.n_max + 1), grid,
                                      args.sign)
    except ValueError as exc:  # a grid point whose cat has no norm
        raise SpecParseError(f"cannot scan the cat family: {exc}") from exc
    try:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "alpha_re", "alpha_im", "lhs", "rhs", "ratio",
                             "beta"])
            for row in rows:
                writer.writerow([row.n, repr(row.alpha.real),
                                 repr(row.alpha.imag), repr(row.lhs),
                                 repr(row.rhs), repr(row.ratio), repr(row.beta)])
    except OSError as exc:
        raise SpecParseError(f"cannot write scan output: {exc}") from exc
    return EXIT_OK


def cmd_optimize(args) -> int:
    state = load_state_spec(args.state_spec)
    try:
        spec = SettingsSearchSpec(n_modes=state.n_modes, restarts=args.restarts,
                                  seed=args.seed, max_evals=args.max_evals)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc
    result = search.optimize_settings(state, spec)
    emit({"schema_version": SCHEMA_VERSION, "kind": "optimize",
          "report": report_to_json(result.report),
          "evaluations": result.evaluations,
          "budget_exhausted": result.budget_exhausted})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvbell",
        description="Bell-functional evaluation and moment-matrix checks "
                    "for continuous-variable states")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_settings_flags(p):
        p.add_argument("state_spec", help="path to a JSON state spec")
        for flag, what, example in (("--theta", "angles", "-0.3,0.2"),
                                    ("--delta", "angles", "-0.3,0.2"),
                                    ("--s", "+-1 signs", "-1,1")):
            p.add_argument(flag, required=True, help=(
                f"comma-separated {what}; a list that starts with a minus "
                f"sign needs =, as in {flag}={example}"))

    p_eval = sub.add_parser("eval", help="evaluate the Bell functional")
    add_settings_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="check the violation->NPT implication")
    add_settings_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_minors = sub.add_parser("minors", help="search for a negative principal minor")
    p_minors.add_argument("state_spec")
    p_minors.add_argument("--bipartition", required=True,
                          help="0/1 mask, one character per mode")
    p_minors.add_argument("--order", type=int, default=2)
    p_minors.add_argument("--max-size", type=int, default=3)
    p_minors.set_defaults(func=cmd_minors)

    p_scan = sub.add_parser("scan", help="family scan, CSV output")
    p_scan.add_argument("--family", required=True)
    p_scan.add_argument("--n-min", type=int, required=True)
    p_scan.add_argument("--n-max", type=int, required=True)
    p_scan.add_argument("--alpha-min", type=float, default=0.05)
    p_scan.add_argument("--alpha-max", type=float, default=3.0)
    p_scan.add_argument("--alpha-points", type=int, default=60)
    p_scan.add_argument("--sign", type=int, choices=[1, -1], default=-1)
    p_scan.add_argument("--out", required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_opt = sub.add_parser("optimize", help="maximize beta over settings")
    p_opt.add_argument("state_spec")
    p_opt.add_argument("--restarts", type=int, default=4,
                       help="seeded ascent starts per bipartition")
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--max-evals", type=int, default=20000,
                       help="cap on evaluations: one is one start's beta at "
                       "one point or its contraction with one mode left open; "
                       "each mode step of the ascent costs 2")
    p_opt.set_defaults(func=cmd_optimize)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CvBellError, OverflowError) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
