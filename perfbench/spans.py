"""In-memory spans around calls into cvbell's layers.

A span records its name, start, end and the span that caused it. Layer
spans come from wrappers the benchmark installs over every binding of a
layer function in the cvbell modules (``cvbell.cfrd.product_operator_expectation``
is the same function as ``cvbell.fock.product_operator_expectation``), so a
call is recorded whichever module makes it. Nothing inside ``src/cvbell``
records spans; uninstalling restores the original bindings.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer functions as "<module>.<function>" under the cvbell package.
LAYERS = (
    "fock.random_state",
    "fock.product_operator_expectation",
    "fock.partial_transpose_min_eig",
    "structured.structured_poly_expectation",
    "moments.cfrd_minor_determinant",
    "moments.build_moment_matrix",
    "moments.find_negative_minor",
    "moments.principal_minor",
    "cfrd.cfrd_evaluate",
    "cfrd.cfrd_beta",
    "cfrd.two_mode_moment_table",
    "cfrd.two_mode_bound",
    "cfrd.beta_from_table",
    "search.batched_nelder_mead",
    "search.optimize_settings",
    "search.scan_cat_family",
    "cli.main",
)


def _beta_rows(args, kwargs, result):
    """Settings rows one beta_from_table call evaluates."""
    return {"cfrd.beta_from_table.rows": int(result.size)}


def _simplex_problems(args, kwargs, result):
    """Independent problems one batched_nelder_mead call advances."""
    x0 = args[1] if len(args) > 1 else kwargs["x0"]
    return {"search.batched_nelder_mead.problems": len(x0)}


def _optimizer_evaluations(args, kwargs, result):
    return {"search.optimize_settings.evaluations": result.evaluations}


# Counts read from a layer call's arguments or result, keyed by layer.
COUNT_HOOKS = {
    "cfrd.beta_from_table": _beta_rows,
    "search.batched_nelder_mead": _simplex_problems,
    "search.optimize_settings": _optimizer_evaluations,
}


class Tracer:
    """Collects spans as ``[id, parent_id, name, start, end, attrs]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> list:
        span = [len(self.spans), self.current(), name, time.perf_counter(), None, attrs]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def add_counts(self, counts: dict[str, int]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                self.add_counts(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every cvbell binding of each layer function by a wrapper.

        Layers of modules not yet imported are skipped: nothing can call them.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cvbell" or key.startswith("cvbell."))]
        for layer in LAYERS:
            module_name, fn_name = layer.split(".")
            home = sys.modules.get(f"cvbell.{module_name}")
            if home is None:
                continue
            original = getattr(home, fn_name)
            wrapper = self.wrap(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def adopt(self, spans: list[list], counts: dict[str, int],
              parent: int | None) -> None:
        """Append spans recorded by another process under ``parent``."""
        offset = len(self.spans)
        for sid, pid, name, start, end, attrs in spans:
            self.spans.append([sid + offset, parent if pid is None else pid + offset,
                               name, start, end, attrs])
        self.add_counts(counts)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, pid, _, start, end, _ in spans:
        if pid is not None:
            children.setdefault(pid, []).append((start, end))
    out = []
    for sid, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, tuple[int, float]]:
    """``{layer: (calls, self seconds)}`` for every layer in LAYERS."""
    totals = {layer: [0, 0.0] for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.get(span[2])
        if entry is not None:
            entry[0] += 1
            entry[1] += own
    return {layer: (calls, secs) for layer, (calls, secs) in totals.items()}


def item_kind(spans: list[list], span: list) -> str | None:
    """The ``kind`` attribute of the nearest enclosing item span."""
    while span[1] is not None:
        span = spans[span[1]]
        if "kind" in span[5]:
            return span[5]["kind"]
    return None
