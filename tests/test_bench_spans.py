"""The benchmark's tracer spans still find the calls they time.

`bench/tracing.py` wraps module attributes by name.  A refactor that moves
a call away from one of those names leaves its per-layer metric at zero
without an error, so the names the pipelines rely on are checked here.
"""

import importlib.util
import pathlib
import sys
import time

import pytest

from qbounce import cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# the spans the spectroscopy, quantum-echo and classical-echo ops read
PIPELINE_SPANS = ["cli.main", "cli.write_csv", "cli.read_csv", "basis.build",
                  "airy.zeros", "basis.project", "quantum.trace",
                  "spectroscopy.scan", "classical.series",
                  "classical.flight"]


@pytest.fixture(scope="module")
def tracing():
    """bench/tracing.py loaded by file path, without writing bytecode."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("span", PIPELINE_SPANS)
def test_pipeline_span_resolves(tracing, span):
    assert tracing._resolve(*tracing.WRAPS[span]) is not None


def test_quantum_echo_calls_the_traced_names_once(tracing, tmp_path):
    """One spin-averaged quantum-echo run: one `quantum.trace` span for both
    spins, inside `cli.main`, beside one basis build and one CSV write."""
    cfg = tmp_path / "qe.cfg"
    cfg.write_text("basis_size = 10\nkind = magnetic\ninitial = gaussian\n"
                   "mu_z = 5.0\nsigma_z = 2.0\namplitude1 = 0.3\n"
                   "width1 = 0.5\ntime1 = 10.0\nt_max = 25.0\n"
                   "dt_sample = 0.5\n")
    tracer = tracing.Tracer()
    tracer.start_op(0, time.perf_counter)
    tracer.install()
    try:
        assert cli.main(["quantum-echo", "--config", str(cfg),
                         "--out", str(tmp_path / "series.csv")]) == 0
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    for name in ("cli.main", "basis.build", "basis.project", "quantum.trace",
                 "cli.write_csv"):
        assert names.count(name) == 1, name
    metrics = tracer.metrics(0, 1.0)
    assert metrics["quantum.trace_s"] > 0.0
    assert metrics["cli.csv_rows_written"] == 51
