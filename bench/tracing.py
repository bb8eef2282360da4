"""Span tracing of ``qmeas`` layers, installed from outside the package.

``install`` wraps each function in ``TRACED`` on its defining module, on
every ``qmeas`` module that imported the name directly, and on the class
for methods, so calls through any of those names record a span.  No file
under ``src/`` changes.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# module -> names defined there ("Class.method" for methods)
TRACED = {
    "measurement": [
        "sample_bits", "block_measure", "paired_coordinate_sum",
        "MeasurementSystem.chosen_factors", "MeasurementSystem.product_vector",
        "premeasure_factored", "premeasure_dense", "premeasure_table_dense",
        "additivity_check", "BitSample.write",
    ],
    "states": ["prefix_density", "check_coherence", "parse_state_spec"],
    "matrixcore": ["is_density_matrix", "kron", "partial_trace_last_qubit"],
    "randlab": [
        "run_battery", "aggregate", "serial_tests", "cumulative_sums_test",
        "approximate_entropy_test", "compression_ratio",
    ],
    "jsonio": ["canonical_dumps", "load_document"],
    "qmlt": [
        "build_witness_test", "lift_classical_mlt", "evaluate_state", "failure_report",
        "SpanProjection.expectation",
    ],
    "verify": [
        "verify_quadratic_bounds", "verify_kron_pairing", "verify_corner_block_bound",
        "verify_family", "product_vectors_dense",
    ],
    "cli": ["main"],
}


# per-call counters beyond calls and self time, keyed by span name
COUNTERS = {
    "measurement.sample_bits": lambda a, k, r: {"bits": len(r)},
    "randlab.run_battery": lambda a, k, r: {"bits": r.n_bits},
    "states.prefix_density": lambda a, k, r: {"max_qubits": r.depth, "bytes": r.rho.nbytes},
    "jsonio.canonical_dumps": lambda a, k, r: {"bytes": len(r)},
}
MAX_COUNTERS = {"states.prefix_density.max_qubits"}


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


class Tracer:
    """In-memory spans: (id, parent, op, name, start, end, raised)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self.op: str | None = None
        self._stack: list[tuple[int, str]] = []  # (span id, module)

    def wrap(self, span: str, fn):
        module = span.split(".", 1)[0]
        count = COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else (None, None)
            self.spans.append(None)  # reserve the id in call order
            self._stack.append((sid, module))
            start = time.perf_counter()
            raised = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                if parent[1] != module:  # the exception leaves this module
                    self.raised[module] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent[0], self.op, span, start, end, raised)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    name = f"{span}.{key}"
                    if name in MAX_COUNTERS:
                        self.counters[name] = max(self.counters[name], value)
                    else:
                        self.counters[name] += value
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name; self time excludes child spans."""
        child_time = defaultdict(float)
        for sid, parent, _op, _name, start, end, _raised in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in span_names()}
        for sid, _parent, _op, name, start, end, _raised in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child_time[sid]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "start", "end", "raised"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever ``qmeas`` modules refer to it."""
    modules = {name: importlib.import_module(f"qmeas.{name}") for name in TRACED}
    package_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qmeas"]
    for module_name, names in TRACED.items():
        home = modules[module_name]
        for name in names:
            span = f"{module_name}.{name}"
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, tracer.wrap(span, cls.__dict__[method]))
                continue
            original = getattr(home, name)
            wrapped = tracer.wrap(span, original)
            for module in package_modules:
                if module.__dict__.get(name) is original:
                    setattr(module, name, wrapped)
