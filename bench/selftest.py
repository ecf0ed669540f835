"""Self-test of the benchmark's gates and config generation.

    python3 bench/selftest.py

Each gate must pass a good output and reject a known-bad one: a 3 % line
error or a missing line, traces 1e-3 apart, a perturbed snapshot energy, a
misplaced or missing echo.  Configs drawn for several seeds must parse under
the CLI's strict config schema.  Exits non-zero on the first failure.
"""

import os
import random
import sys
import tempfile

import numpy as np

import gates
import run
import workloads

PERIOD = 9.0


def expect_reject(fn, *args):
    try:
        fn(*args)
    except gates.GateError:
        return
    raise AssertionError(f"{fn.__name__} accepted a bad output")


def expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


def burst_trace(times, centres, width=5.0, floor=0.05, height=1.0):
    """Oscillation at the bounce period, louder by ``height`` near ``centres``."""
    amp = floor + sum(height * np.exp(-((times - c) / width) ** 2)
                      for c in centres)
    return 20.0 + amp * np.sin(2 * np.pi * times / PERIOD)


def test_lines():
    peaks = [{"i": i, "omega_measured": w} for i, w in gates.LINES.items()]
    gates.check_lines(peaks, 1.5)
    off = [dict(p, omega_measured=p["omega_measured"] * 1.03) if p["i"] == 4
           else p for p in peaks]
    expect_reject(gates.check_lines, off, 2.0)
    expect_reject(gates.check_lines, peaks[:-1], 2.0)


def test_traces():
    a = np.linspace(0.0, 1.0, 2001)
    gates.check_traces_agree(a, a + 1e-7, 1e-5)
    expect_reject(gates.check_traces_agree, a, a + 1e-3, 1e-5)


def test_echo():
    t = np.arange(0.0, 200.0 + 1e-9, 0.1)
    gates.check_echo(t, burst_trace(t, [120.0, 180.0]), 3.0)
    gates.check_recurrence(t, burst_trace(t, [120.0, 180.0]), 2.0)
    expect_reject(gates.check_echo, t, burst_trace(t, []), 2.0)
    expect_reject(gates.check_echo, t, burst_trace(t, [150.0]), 2.0)
    expect_reject(gates.check_recurrence, t, burst_trace(t, [120.0]), 2.0)
    t = np.arange(-6.0, 470.0 + 1e-9, 0.1)
    gates.check_echo_times(t, burst_trace(t, [300.0, 450.0]), (300, 450), 10)
    expect_reject(gates.check_echo_times, t, burst_trace(t, [315.0, 450.0]),
                  (300, 450), 10)
    expect_reject(gates.check_echo_times, t, burst_trace(t, [300.0]),
                  (300, 450), 10)
    expect_reject(gates.check_echo_times, t, burst_trace(t, []), (300, 450), 10)
    # a ripple at the right times, but no echo standing out of the floor
    expect_reject(gates.check_echo_times, t,
                  burst_trace(t, [300.0, 450.0], height=0.01), (300, 450), 10)


def test_retrieval():
    good = {"states": [{"magnitude": 0.3, "phase": 1.5}],
            "fit_residual_rms": 1e-3}
    gates.check_retrieval(good)
    bad = {"states": [{"magnitude": float("nan"), "phase": 1.5}],
           "fit_residual_rms": 1e-3}
    expect_reject(gates.check_retrieval, bad)


def test_csv_and_energy(cli):
    """Snapshots written by the CLI's own writer, read by the gate's reader."""
    rng = np.random.default_rng(0)
    n = 50
    rows = []
    for s in (1, -1):
        energy = rng.uniform(10.0, 50.0, n)
        for t in workloads.SNAPSHOTS:
            z = rng.uniform(0.0, 1.0, n) * energy / 2.0
            v = np.sqrt(2.0 * (energy - 2.0 * z))
            rows += [(t, float(zz), float(vv), s) for zz, vv in zip(z, v)]
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        path = os.path.join(tmp, "snapshots.csv")
        cli.write_csv(path, [("seed", 1)], ["t", "z", "v", "s"], rows)
        header, columns, data = gates.read_csv(path)
        expect(columns == ["t", "z", "v", "s"] and data.shape == (4 * n, 4),
               "CSV reader lost rows or columns")
        expect(header.get("seed") == "1", "CSV reader lost the header")
        gates.check_energy(path, *workloads.SNAPSHOTS, n, 1e-9)
        t, z, v, s = rows[-1]
        rows[-1] = (t, z + 1e-6, v, s)
        cli.write_csv(path, [], ["t", "z", "v", "s"], rows)
        expect_reject(gates.check_energy, path, *workloads.SNAPSHOTS, n, 1e-9)


def test_configs_parse(cli):
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, make_op in workloads.WORKLOADS.items():
            for seed in range(8):
                op = make_op(random.Random(seed), tmp)
                for mode, text in op.configs.values():
                    cli.parse_config_text(text, mode)


def main():
    cli = run._import_package()
    os.makedirs(run.OUT, exist_ok=True)
    tests = [test_lines, test_traces, test_echo, test_retrieval,
             lambda: test_csv_and_energy(cli), lambda: test_configs_parse(cli)]
    for test in tests:
        test()
    print(f"selftest: {len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
