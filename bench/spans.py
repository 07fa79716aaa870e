"""Span recorder for the traced benchmark run, plus the timing statistics.

Spans are recorded from the benchmark's side of the API: for the length
of one traced operation, each traced function is replaced by a wrapper
under every name that holds it in a qec422 module.  Replacing the name in
the *calling* module's namespace matters because the package imports by
name (``cli`` calls its own ``sweep_L``, ``experiments`` its own
``noisy_counts``, ``ftcheck`` its own ``_config_marginal``); patching
only the defining module would miss those calls.

Spans sit in memory as (name, start, end, parent index) tuples and are
written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute).  Spans without a metric of their own
# (sweep_L, ideal_distribution, ...) keep their time out of their
# parents' self time.  The three private noise stages are
# the ones the ROADMAP names; a later change may remove any of them, in
# which case the recorder reports it absent instead of failing.
# noise._push_masks is deliberately not here: it runs once per gate per
# propagated fault, millions of times per sweep, and a wrapper would
# swamp the measurement.
SPANS = {
    "cli.main": ("cli", "main"),
    "experiments.sweep_L": ("experiments", "sweep_L"),
    "experiments.sweep_theta": ("experiments", "sweep_theta"),
    "experiments.run_pair": ("experiments", "run_pair"),
    "experiments.write_records_csv": ("experiments", "write_records_csv"),
    "noise.noisy_counts": ("noise", "noisy_counts"),
    "noise.fault_sampling": ("noise", "_sample_fault_indices"),
    "noise.outcome_draw": ("noise", "_clifford_outcomes"),
    "noise.flip_mask_table": ("noise", "_FlipMaskTable"),
    "noise.statevector_outcomes": ("noise", "_statevector_outcomes"),
    "noise.config_sim": ("noise", "_config_marginal"),
    "simulator.final_state": ("simulator", "final_state"),
    "simulator.ideal_distribution": ("simulator", "ideal_distribution"),
    "code.post_select": ("code", "post_select"),
    "code.decode_distribution": ("code", "decode_distribution"),
    "analytics.trace_distance": ("analytics", "trace_distance"),
    "ftcheck.verify_single_faults": ("ftcheck", "verify_single_faults"),
    "ftcheck.classify_fault": ("ftcheck", "classify_fault"),
    "circuits.parse_circuit": ("circuits", "parse_circuit"),
}

# Counted but not timed: apply_gate runs ~10^5 times per verify-ft call,
# so only a counter increment is cheap enough to sit in front of it.
COUNTERS = {
    "simulator.apply_gate": ("simulator", "apply_gate"),
}


PACKAGE = "qec422"


class Recorder:
    """Installs span and counter wrappers into the qec422 modules."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.op_starts: list[int] = []
        self.counts: list[Counter] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self) -> list:
        return [m for name, m in sys.modules.items()
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _original(self, module: str, attr: str):
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return None
        return getattr(mod, attr, None)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
        return wrapper

    def _counter_wrapper(self, name: str, fn):
        counts = self.counts[-1]

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Start one traced operation: wrap every target under every name."""
        self.op_starts.append(len(self.spans))
        self.counts.append(Counter())
        self.absent = []
        wrappers = {}
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._counter_wrapper)):
            for name, (module, attr) in table.items():
                fn = self._original(module, attr)
                if fn is None:
                    self.absent.append(name)
                else:
                    wrappers[id(fn)] = make(name, fn)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def op_spans(self, op: int) -> list[tuple[str, float, float, int]]:
        """Spans of traced operation op, parent indices rebased to the slice."""
        lo = self.op_starts[op]
        hi = self.op_starts[op + 1] if op + 1 < len(self.op_starts) else len(self.spans)
        return [(n, s, e, p - lo if p >= 0 else -1) for n, s, e, p in self.spans[lo:hi]]

    def to_json(self) -> dict:
        return {
            "ops": [
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.op_spans(op)]
                for op in range(len(self.op_starts))
            ],
            "counts": [dict(c) for c in self.counts],
            "absent": self.absent,
        }


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Per span name: duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, s, e, parent in spans:
        if parent >= 0:
            children[parent].append((s, e))
    out: dict[str, float] = defaultdict(float)
    for i, (name, s, e, _) in enumerate(spans):
        out[name] += (e - s) - _covered(children[i], s, e)
    return dict(out)


def call_counts(spans: list[tuple[str, float, float, int]]) -> Counter:
    return Counter(name for name, _, _, _ in spans)


def root_coverage(spans: list[tuple[str, float, float, int]], lo: float, hi: float) -> float:
    """Time inside any top-level span within [lo, hi]."""
    return _covered([(s, e) for _, s, e, p in spans if p < 0], lo, hi)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns (percentile, value): value is the (n-10)-th smallest sample,
    so exactly ten samples rank above it, and percentile is the share of
    samples at or below it, rounded down.  None when n < 11.
    """
    n = len(values)
    if n < 11:
        return None
    return (100 * (n - 10)) // n, sorted(values)[n - 11]
