"""Command-line front end: parsing, exit codes, schema-valid reports."""

import importlib.resources
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from cvbell.cli import main


@pytest.fixture(scope="module")
def schema():
    text = importlib.resources.files("cvbell").joinpath(
        "schemas/report.schema.json").read_text()
    return json.loads(text)


def write_spec(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_eval_ghz3(tmp_path, capsys, schema):
    spec = write_spec(tmp_path, {"type": "ghz", "n": 3, "cutoff": 4})
    code, out = run(capsys, ["eval", spec, "--theta", "0,0,0",
                             "--delta", "0,0,0", "--s", "1,1,1"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["report"]["lhs"] == pytest.approx(0.25)
    assert doc["report"]["violated"] is False


def test_eval_vacuum(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "basis", "occupations": [0, 0],
                                 "cutoff": 5})
    code, out = run(capsys, ["eval", spec, "--theta", "0.3,0.1",
                             "--delta", "0.2,-0.2", "--s", "1,-1"])
    assert code == 0
    assert json.loads(out)["report"]["violated"] is False


def test_eval_mismatched_lengths(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "ghz", "n": 3, "cutoff": 4})
    code, _ = run(capsys, ["eval", spec, "--theta", "0,0",
                           "--delta", "0,0", "--s", "1,1"])
    assert code == 2


def test_eval_unknown_field(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "ghz", "n": 2, "cutoff": 4,
                                 "wobble": 3})
    code, _ = run(capsys, ["eval", spec, "--theta", "0,0",
                           "--delta", "0,0", "--s", "1,-1"])
    assert code == 2


def test_eval_corrupted_spec(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(capsys, ["eval", str(path), "--theta", "0",
                           "--delta", "0", "--s", "1"])
    assert code == 2


def test_eval_physics_error_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "ghz", "n": 2, "cutoff": 4})
    code, _ = run(capsys, ["eval", spec, "--theta", "0,0",
                           "--delta", "1.6,0", "--s", "1,-1"])
    assert code == 3


def test_eval_delta_near_endpoint(tmp_path, capsys, schema):
    # |u|^2 ~ 1/(2 cos delta) is large here; valid settings must evaluate
    spec = write_spec(tmp_path, {"type": "ghz", "n": 2, "cutoff": 4})
    code, out = run(capsys, ["eval", spec, "--theta", "0,0",
                             "--delta", "1.570796,0", "--s", "1,-1"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert math.isfinite(doc["report"]["beta"])


def test_eval_non_finite_theta_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "ghz", "n": 2, "cutoff": 4})
    code, _ = run(capsys, ["eval", spec, "--theta", "inf,0",
                           "--delta", "0,0", "--s", "1,-1"])
    assert code == 3


def test_eval_non_finite_cat_alpha_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "cat", "n": 2, "alpha": [math.nan, 0],
                                 "sign": 1})
    code, _ = run(capsys, ["eval", spec, "--theta", "0,0",
                           "--delta", "0,0", "--s", "1,-1"])
    assert code == 2


def _overflowing_cat(tmp_path, capsys, alpha, argv):
    """Exit code and stdout of a command on a 10-mode cat at ``alpha``, with
    warnings recorded rather than raised; none may be a RuntimeWarning."""
    spec = write_spec(tmp_path, {"type": "cat", "n": 10, "alpha": [alpha, 0],
                                 "sign": 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([argv[0], spec, *argv[1:]])
    captured = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err
    return code, captured.out


@pytest.mark.parametrize("alpha", [1e20, 1e40])
def test_eval_overflowing_cat_exit_code(tmp_path, capsys, alpha):
    # 1e20 overflows a float power; 1e40 turns the moments into NaN
    code, out = _overflowing_cat(tmp_path, capsys, alpha, [
        "eval", "--theta", ",".join(["0"] * 10), "--delta", ",".join(["0"] * 10),
        "--s", "1,1,1,1,1,-1,-1,-1,-1,-1"])
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("alpha", [1e20, 1e40])
def test_optimize_overflowing_cat_exit_code(tmp_path, capsys, alpha):
    # the search's first contraction overflows and ends it, before any ascent step
    code, out = _overflowing_cat(tmp_path, capsys, alpha, ["optimize"])
    assert code == 3
    assert out == ""


def test_eval_unknown_random_kind_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "random", "n": 2, "cutoff": 4,
                                 "kind": "bogus"})
    code, out = run(capsys, ["eval", spec, "--theta", "0,0",
                             "--delta", "0,0", "--s", "1,-1"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("doc", [
    {"type": "ghz", "n": 2.9, "cutoff": 4.5},
    {"type": "ghz", "n": 2, "cutoff": 4.0},
    {"type": "random", "n": 2, "cutoff": 4, "seed": True},
    {"type": "random", "n": 2, "cutoff": 4, "headroom": True},
    {"type": "cat", "n": 2, "alpha": [1.0, 0.0], "sign": True},
    {"type": "basis", "occupations": [1.0, 0], "cutoff": 4},
    {"type": "tmsv", "r": 0.1, "cutoff": 8, "headroom": 2.5},
])
def test_eval_rejects_non_integer_counts(tmp_path, capsys, doc):
    # int() would truncate each of these to a valid spec and exit 0
    spec = write_spec(tmp_path, doc)
    code, out = run(capsys, ["eval", spec, "--theta", "0,0",
                             "--delta", "0,0", "--s", "1,-1"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("doc", [
    {"type": "cat", "n": 2, "alpha": ["1.5", True], "sign": 1},
    {"type": "ghz", "n": 2, "cutoff": 4, "phase": [True, False]},
    {"type": "coherent", "alphas": [[0.1, "0"], [0.2, 0.0]], "cutoff": 12},
    {"type": "tmsv", "r": "0.3", "cutoff": 24},
    {"type": "tmsv", "r": True, "cutoff": 48},
    {"type": "tmsv", "r": math.nan, "cutoff": 24},
    {"type": "coherent", "alphas": [[math.inf, 0.0], [0.2, 0.0]], "cutoff": 12},
    {"type": "cat", "n": 2, "alpha": [1.0, 0.0], "sign": 1, "structured": True},
])
def test_eval_rejects_non_number_fields(tmp_path, capsys, doc):
    # float() would read each string or boolean as a valid spec and exit 0;
    # NaN and Infinity, which the JSON reader takes, must not reach numpy.
    # A cat carries no "structured" flag: it is always a structured state
    spec = write_spec(tmp_path, doc)
    code, out = run(capsys, ["eval", spec, "--theta", "0,0",
                             "--delta", "0,0", "--s", "1,-1"])
    assert code == 2
    assert out == ""


def _fock_pair_args(tmp_path, flipped, command="eval"):
    # s = +1 on the flipped modes reads the pair's balanced split
    spec = write_spec(tmp_path, {"type": "fock_pair", "n": 10,
                                 "flipped": flipped})
    signs = ",".join("1" if k in flipped else "-1" for k in range(10))
    zeros = ",".join(["0"] * 10)
    return [command, spec, "--theta", zeros, "--delta", zeros, f"--s={signs}"]


def test_eval_fock_pair_violates_at_ten_modes(tmp_path, capsys, schema):
    code, out = run(capsys, _fock_pair_args(tmp_path, [0, 1, 2, 3, 4]))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    report = doc["report"]
    assert report["violated"] is True
    assert report["lhs"] / report["rhs"] == pytest.approx(
        0.25 * (4 / 3) ** 5, rel=1e-12)


def test_verify_fock_pair_is_consistent(tmp_path, capsys, schema):
    # a structured state has no dense partial transpose to report
    code, out = run(capsys, _fock_pair_args(tmp_path, [0, 1, 2, 3, 4],
                                            command="verify"))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["consistent"] is True and doc["report"]["violated"] is True
    assert doc["pt_min_eig"] is None


@pytest.mark.parametrize("flipped", [[], list(range(10)), [0, 10], [0.7, 1],
                                     [True, 2]])
def test_fock_pair_needs_a_proper_flipped_subset(tmp_path, capsys, flipped):
    code, out = run(capsys, _fock_pair_args(tmp_path, flipped))
    assert code == 2
    assert out == ""


def test_verify_tmsv(tmp_path, capsys, schema):
    spec = write_spec(tmp_path, {"type": "tmsv", "r": 0.3, "cutoff": 14})
    code, out = run(capsys, ["verify", spec, "--theta", "0.4,1.2",
                             "--delta", "0.3,-0.5", "--s", "1,-1"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["consistent"] is True
    assert doc["pt_min_eig"] < 0


def test_verify_random_mixed(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "random", "kind": "mixed", "seed": 7,
                                 "cutoff": 6, "headroom": 3, "n": 2})
    code, out = run(capsys, ["verify", spec, "--theta", "0.9,0.2",
                             "--delta", "0.7,-0.3", "--s=-1,1"])
    assert code == 0
    assert json.loads(out)["consistent"] is True


def test_settings_lists_with_leading_minus_use_equals_form(tmp_path, capsys):
    # "--s -1,1" would read -1,1 as an option; "--s=-1,1" is the documented form
    spec = write_spec(tmp_path, {"type": "tmsv", "r": 0.3, "cutoff": 14,
                                 "headroom": 4})
    code, out = run(capsys, ["verify", spec, "--theta=-0.4,1.2",
                             "--delta=-0.3,0.2", "--s=-1,1"])
    assert code == 0
    settings = json.loads(out)["report"]["settings"]
    assert settings == {"thetas": [-0.4, 1.2], "deltas": [-0.3, 0.2],
                        "signs": [-1, 1]}


def test_minors_ten_mode_fock_pair(tmp_path, capsys, schema):
    # 231 exponent pairs at order 2, enumerated without walking 3^20 tuples
    spec = write_spec(tmp_path, {"type": "fock_pair", "n": 10,
                                 "flipped": [0, 1, 2, 3, 4]})
    code, out = run(capsys, ["minors", spec, "--bipartition", "1111100000"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["bipartition"] == [0, 1, 2, 3, 4]


def test_minors_coherent_product(tmp_path, capsys, schema):
    spec = write_spec(tmp_path, {"type": "coherent",
                                 "alphas": [[0.5, 0.0], [0.3, 0.2]],
                                 "cutoff": 16, "headroom": 4})
    code, out = run(capsys, ["minors", spec, "--bipartition", "01",
                             "--order", "2", "--max-size", "3"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["negative_minor"] is None


def test_minors_tmsv(tmp_path, capsys, schema):
    spec = write_spec(tmp_path, {"type": "tmsv", "r": 0.3, "cutoff": 14,
                                 "headroom": 4})
    code, out = run(capsys, ["minors", spec, "--bipartition", "01",
                             "--order", "2", "--max-size", "2"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["negative_minor"]["determinant"] < -1e-9
    assert doc["negative_minor"]["subset"]


def test_minors_all_modes_notice(tmp_path, capsys, schema):
    spec = write_spec(tmp_path, {"type": "tmsv", "r": 0.3, "cutoff": 14,
                                 "headroom": 4})
    code, out = run(capsys, ["minors", spec, "--bipartition", "11",
                             "--order", "1", "--max-size", "2"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert "state-positivity" in doc["notice"]


def test_scan_small_range(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _ = run(capsys, ["scan", "--family", "cat", "--n-min", "1",
                           "--n-max", "4", "--alpha-points", "12",
                           "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,alpha_re,alpha_im,lhs,rhs,ratio,beta"
    assert len(lines) == 5
    ratios = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(r < 1 for r in ratios)


def test_scan_invalid_family(capsys):
    code, _ = run(capsys, ["scan", "--family", "kitten", "--n-min", "1",
                           "--n-max", "2", "--out", "/dev/null"])
    assert code == 2


def test_scan_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _ = run(capsys, ["scan", "--family", "cat", "--n-min", "1",
                               "--n-max", "3", "--alpha-points", "8",
                               "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_optimize_two_mode(tmp_path, capsys, schema):
    spec = write_spec(tmp_path, {"type": "random", "kind": "pure", "seed": 3,
                                 "cutoff": 6, "headroom": 3, "n": 2})
    argv = ["optimize", spec, "--restarts", "2", "--seed", "11",
            "--max-evals", "1200"]
    code, out = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["report"]["beta"] <= 1e-9

    code2, out2 = run(capsys, argv)
    assert code2 == 0
    assert out2 == out  # fixed seed reproduces byte-identical output


def test_optimize_zero_budget(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "random", "kind": "pure", "seed": 3,
                                 "cutoff": 6, "headroom": 3, "n": 2})
    code, _ = run(capsys, ["optimize", spec, "--restarts", "1", "--seed", "0",
                           "--max-evals", "0"])
    assert code == 2


SCAN = ["scan", "--family", "cat", "--n-min", "1", "--n-max", "2",
        "--alpha-points", "4"]


@pytest.mark.parametrize("argv", [
    ["optimize", "{one_mode}"],
    SCAN + ["--alpha-points", "0"],
    SCAN + ["--alpha-min", "0"],
    SCAN + ["--alpha-min", "-1"],
    SCAN + ["--alpha-max", "nan"],
    SCAN + ["--alpha-max", "inf"],
    SCAN + ["--n-min", "0"],
    SCAN + ["--n-min", "3"],
    SCAN + ["--out", "{tmp}/missing/x.csv"],
    SCAN + ["--alpha-min", "1e-9", "--alpha-max", "1e-8", "--alpha-points", "2",
            "--sign", "-1"],
], ids=["optimize-one-mode", "alpha-points-0", "alpha-min-0",
        "alpha-min-negative", "alpha-max-nan", "alpha-max-inf", "n-min-0",
        "n-min-above-n-max", "out-dir-missing", "odd-cat-without-norm"])
def test_optimize_and_scan_argument_errors(tmp_path, capsys, argv):
    one_mode = write_spec(tmp_path, {"type": "basis", "occupations": [1],
                                     "cutoff": 3})
    argv = [a.format(one_mode=one_mode, tmp=tmp_path) for a in argv]
    if argv[0] == "scan" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "scan.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--order", "0"], ["--order", "-1"], ["--max-size", "0"],
    ["--max-size", "-2"], ["--max-size", "16"],
], ids=["order-0", "order-negative", "max-size-0", "max-size-negative",
        "max-size-above-dim"])
def test_minors_rejects_unsearchable_sizes(tmp_path, capsys, flags):
    spec = write_spec(tmp_path, {"type": "tmsv", "r": 0.3, "cutoff": 14,
                                 "headroom": 4})
    code = main(["minors", spec, "--bipartition", "01", *flags])
    captured = capsys.readouterr()
    assert code == 2  # the order-2 matrix has dimension 15
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_no_command_imports_scipy(tmp_path):
    # a fresh process, so that no module another test imported counts
    ghz = write_spec(tmp_path, {"type": "ghz", "n": 2, "cutoff": 4}, "ghz.json")
    tmsv = write_spec(tmp_path, {"type": "tmsv", "r": 0.3, "cutoff": 14,
                                 "headroom": 4}, "tmsv.json")
    cat = write_spec(tmp_path, {"type": "cat", "n": 2, "alpha": [0.7, 0],
                                "sign": 1}, "cat.json")
    settings = ["--theta", "0.4,1.2", "--delta", "0.3,-0.5", "--s", "1,-1"]
    requests = [
        ["eval", ghz, *settings],
        ["verify", tmsv, *settings],
        ["minors", tmsv, "--bipartition", "01", "--order", "2",
         "--max-size", "2"],
        SCAN + ["--out", str(tmp_path / "scan.csv")],
        ["optimize", cat, "--restarts", "1"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import cvbell, cvbell.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cvbell.cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(requests)],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    assert json.loads(proc.stdout) == []
