"""The benchmark's names and calls stay resolvable against the package.

``perfbench/spans.py`` wraps each ``LAYERS`` entry by ``getattr`` on its
``cvbell`` module, and ``perfbench/inproc.py`` calls cvbell through its
modules, so a deleted or renamed function, or keyword, breaks every
benchmark run. Both files are read without importing perfbench.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import cvbell.cfrd
import cvbell.fock

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve():
    for layer in _load_spans().LAYERS:
        module_name, fn_name = layer.split(".")
        home = importlib.import_module(f"cvbell.{module_name}")
        assert callable(getattr(home, fn_name, None)), layer


def test_cfrd_binds_product_operator_expectation():
    # perfbench's traced-run test checks the wrapping through this binding
    assert (cvbell.cfrd.product_operator_expectation
            is cvbell.fock.product_operator_expectation)


def test_benchmark_calls_bind_to_the_package():
    # every cfrd.X(...), fock.X(...), ... call of the in-process workloads
    # binds its positional count and keyword names to X's signature
    modules = ("cfrd", "fock", "moments", "search", "structured")
    tree = ast.parse((PERFBENCH / "inproc.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in modules]
    assert len(calls) >= 20
    for call in calls:
        where = f"inproc.py:{call.lineno} {ast.unparse(call.func)}"
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), where
        assert all(kw.arg is not None for kw in call.keywords), where
        home = importlib.import_module(f"cvbell.{call.func.value.id}")
        fn = getattr(home, call.func.attr, None)
        assert callable(fn), where
        try:
            inspect.signature(fn).bind(*call.args, **{kw.arg: kw.value
                                                      for kw in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{where}: {exc}")
