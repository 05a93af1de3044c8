"""The benchmark tracer's layer list stays resolvable against the package.

``perfbench/spans.py`` wraps each ``LAYERS`` entry by ``getattr`` on its
``cvbell`` module, so a deleted or renamed layer function breaks every traced
benchmark run. The file is loaded read-only, without importing perfbench.
"""

import importlib
import importlib.util
from pathlib import Path

import cvbell.cfrd
import cvbell.fock

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
