"""Spans around the calls between qbounce modules, and per-layer metrics.

The tracer replaces a module attribute with a wrapper at the point where
another module looks the function up (for example `qbounce.cli.build_basis`,
the name `cmd_scan` calls), so nothing under `src/` changes.  Each call
becomes a span (op, name, start, end, parent) kept in memory; spans are
written out when the run ends.  Spans are timed by the op's clock, which
leaves out the machine-speed samples taken during the op.  A wrapper returns
the wrapped function's result object unchanged, because the propagator hit
ratio depends on object identity.  A name that no longer exists is skipped, and the metrics that
depend on it read zero.
"""

from __future__ import annotations

import importlib
import json
import time

# span name -> (module, attribute path) where the caller looks the name up
WRAPS = {
    "cli.main": ("qbounce.cli", "main"),
    "cli.write_csv": ("qbounce.cli", "write_csv"),
    "cli.read_csv": ("qbounce.cli", "read_scan_csv"),
    "basis.build": ("qbounce.cli", "build_basis"),
    "airy.zeros": ("qbounce.basis", "airy_zeros"),
    "basis.position_matrix": ("qbounce.basis", "position_matrix"),
    "basis.project": ("qbounce.basis", "EigenBasis.project_gaussian"),
    "quantum.propagator": ("qbounce.spectroscopy", "pulse_propagator"),
    "quantum.evolve_overlap": ("qbounce.spectroscopy", "evolve_pulsed"),
    "quantum.trace": ("qbounce.cli", "mean_height_trace"),
    "quantum.evolve_trace": ("qbounce.quantum", "evolve_pulsed"),
    "spectroscopy.scan": ("qbounce.cli", "scan_delay"),
    "spectroscopy.spectrum": ("qbounce.cli", "spectrum"),
    "spectroscopy.peaks": ("qbounce.cli", "find_peaks_and_match"),
    "spectroscopy.retrieve": ("qbounce.cli", "retrieve_amplitudes"),
    "classical.series": ("qbounce.cli", "mean_height_series"),
    "classical.propagate": ("qbounce.classical", "propagate"),
    "classical.snapshot": ("qbounce.cli", "propagate"),
    "classical.flight": ("qbounce.classical", "ballistic_flight"),
}

# per-layer metric -> unit, in the order they are printed
UNITS = {
    "airy.zeros_s": "s",
    "basis.build_s": "s",
    "basis.build_calls": "count",
    "basis.position_matrix_s": "s",
    "basis.project_s": "s",
    "quantum.propagator_s": "s",
    "quantum.propagator_calls": "count",
    "quantum.propagator_hit_ratio": "share",
    "quantum.evolve_overlap_s": "s",
    "quantum.evolve_overlap_calls": "count",
    "quantum.trace_s": "s",
    "quantum.evolve_trace_s": "s",
    "quantum.evolve_trace_calls": "count",
    "spectroscopy.scan_s": "s",
    "spectroscopy.scan_self_s": "s",
    "spectroscopy.delay_points": "count",
    "spectroscopy.overlap_share": "share",
    "spectroscopy.analysis_s": "s",
    "classical.series_s": "s",
    "classical.flight_s": "s",
    "classical.flight_calls": "count",
    "classical.propagate_calls": "count",
    "classical.window_s": "s",
    "classical.snapshot_s": "s",
    "cli.self_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_rows_written": "count",
    "cli.csv_read_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(module, path):
    """(owner object, attribute name) for a dotted path, or None if absent."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans = []        # [op, name, start, end, parent index, extra]
        self.op = 0
        self.clock = time.perf_counter
        self.missing = [name for name, (mod, path) in WRAPS.items()
                        if _resolve(mod, path) is None]
        self._stack = []
        self._originals = []
        self._returned = {}    # id -> propagator matrix, alive for the op

    def install(self):
        for name, (module, path) in WRAPS.items():
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr = found
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def start_op(self, op, clock):
        """Spans from now on belong to ``op`` and are timed by ``clock``."""
        self.op = op
        self.clock = clock
        self._returned.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [self.op, name, self.clock(), None,
                    stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = self.clock()
            span[5] = self._extra(name, args, kwargs, result)
            return result

        return wrapper

    def _extra(self, name, args, kwargs, result):
        """Work count of one call: rows written, delays scanned, cache hit."""
        if name == "cli.write_csv":
            return len(args[3]) if len(args) > 3 else len(kwargs["rows"])
        if name == "spectroscopy.scan":
            return len(args[3]) if len(args) > 3 else len(kwargs["delays"])
        if name == "quantum.propagator":
            hit = id(result) in self._returned
            self._returned[id(result)] = result
            return int(hit)
        return None

    def metrics(self, op, scale):
        """Per-layer metrics of one op from its spans, times x ``scale``."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] == op]
        dur, calls, child, extra = {}, {}, {}, {}
        for i, (_, name, start, end, parent, x) in spans:
            span_s = (end - start) * scale
            dur[name] = dur.get(name, 0.0) + span_s
            calls[name] = calls.get(name, 0) + 1
            extra[name] = extra.get(name, 0) + (x or 0)
            if parent >= 0:
                pname = self.spans[parent][1]
                child[pname] = child.get(pname, 0.0) + span_s

        def d(name):
            return dur.get(name, 0.0)

        def selftime(name):
            return d(name) - child.get(name, 0.0)

        n_prop = calls.get("quantum.propagator", 0)
        return {
            "airy.zeros_s": d("airy.zeros"),
            "basis.build_s": d("basis.build"),
            "basis.build_calls": calls.get("basis.build", 0),
            "basis.position_matrix_s": d("basis.position_matrix"),
            "basis.project_s": d("basis.project"),
            "quantum.propagator_s": d("quantum.propagator"),
            "quantum.propagator_calls": n_prop,
            "quantum.propagator_hit_ratio":
                extra.get("quantum.propagator", 0) / n_prop if n_prop else 0.0,
            "quantum.evolve_overlap_s": d("quantum.evolve_overlap"),
            "quantum.evolve_overlap_calls": calls.get("quantum.evolve_overlap", 0),
            "quantum.trace_s": d("quantum.trace"),
            "quantum.evolve_trace_s": d("quantum.evolve_trace"),
            "quantum.evolve_trace_calls": calls.get("quantum.evolve_trace", 0),
            "spectroscopy.scan_s": d("spectroscopy.scan"),
            "spectroscopy.scan_self_s": selftime("spectroscopy.scan"),
            "spectroscopy.delay_points": extra.get("spectroscopy.scan", 0),
            "spectroscopy.overlap_share":
                d("quantum.evolve_overlap") / d("spectroscopy.scan")
                if d("spectroscopy.scan") else 0.0,
            "spectroscopy.analysis_s": d("spectroscopy.spectrum") +
                d("spectroscopy.peaks") + d("spectroscopy.retrieve"),
            "classical.series_s": d("classical.series"),
            "classical.flight_s": d("classical.flight"),
            "classical.flight_calls": calls.get("classical.flight", 0),
            "classical.propagate_calls": calls.get("classical.propagate", 0) +
                calls.get("classical.snapshot", 0),
            "classical.window_s": selftime("classical.propagate") +
                selftime("classical.snapshot"),
            "classical.snapshot_s": d("classical.snapshot"),
            "cli.self_s": selftime("cli.main"),
            "cli.csv_write_s": d("cli.write_csv"),
            "cli.csv_rows_written": extra.get("cli.write_csv", 0),
            "cli.csv_read_s": d("cli.read_csv"),
        }

    def write(self, path):
        """All spans as JSON lines: op, name, start, end, parent, extra."""
        keys = ("op", "name", "start", "end", "parent", "extra")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
