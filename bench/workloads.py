"""Benchmark workloads: seeded CLI configs, the commands of one op, its gates.

An op is what a user runs for one result: a list of `qbounce` command lines
on config files written beforehand.  Amplitudes, packet heights and the
classical ensemble seed are drawn from the workload seed; pulse widths and
time grids are fixed, so the cost of an op does not depend on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import gates

# the fig4 / fig6 delay grid: tau in [2, 150] at dtau = 0.05
TAU_MIN, TAU_MAX, DTAU = 2.0, 150.0, 0.05
N_DELAYS = 2961
SNAPSHOTS = (65.0, 120.0)     # both after the kick window [57, 63]
N_PARTICLES = 20000


@dataclass
class Op:
    """Configs to write, CLI argument lists to run, and the gate check."""

    configs: dict = field(default_factory=dict)   # path -> (mode, text)
    argvs: list = field(default_factory=list)
    checks: list = field(default_factory=list)    # callables -> dict

    def write_configs(self):
        for path, (_, text) in self.configs.items():
            with open(path, "w") as fh:
                fh.write(text)

    def check(self):
        values = {}
        for fn in self.checks:
            values.update(fn())
        return values


def config_text(params):
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in params.items())


def _scan_pipeline(op, wd, tag, params, max_line_error):
    """scan --config -> spectrum --in -> retrieve --in, with its gates."""
    cfg = os.path.join(wd, f"scan_{tag}.cfg")
    scan = os.path.join(wd, f"scan_{tag}.csv")
    op.configs[cfg] = ("scan", config_text(params))
    op.argvs += [
        ["scan", "--config", cfg, "--out-dir", wd, "--out", f"scan_{tag}.csv"],
        ["spectrum", "--in", scan, "--out-dir", wd, "--out", f"spec_{tag}.csv",
         "--peaks", f"peaks_{tag}.json"],
        ["retrieve", "--in", scan, "--out-dir", wd, "--out", f"amps_{tag}.json"],
    ]

    def check():
        gates.check_scan(scan, N_DELAYS)
        lines = gates.check_lines(
            gates.load_json(os.path.join(wd, f"peaks_{tag}.json")),
            max_line_error)
        retrieved = gates.check_retrieval(
            gates.load_json(os.path.join(wd, f"amps_{tag}.json")))
        return {f"{tag}.{k}": v for k, v in {**lines, **retrieved}.items()}

    op.checks.append(check)


def spectroscopy(rng, wd):
    """fig4 magnetic and fig6 shake delay scans, each to spectrum and fit."""
    op = Op()
    grid = {"tau_min": TAU_MIN, "tau_max": TAU_MAX, "dtau": DTAU}
    _scan_pipeline(op, wd, "magnetic", {
        "basis_size": 50, "kind": "magnetic",
        "amplitude1": rng.uniform(1.5, 2.5), "width1": 0.2,
        "amplitude2": rng.uniform(0.75, 1.25), "width2": 0.2,
        **grid, "spin_average": "true"}, 2.0)
    _scan_pipeline(op, wd, "shake", {
        "basis_size": 50, "kind": "shake",
        "amplitude1": rng.uniform(0.45, 0.75), "width1": 0.2,
        "amplitude2": rng.uniform(0.075, 0.125), "width2": 0.2,
        **grid, "spin_average": "false"}, 1.5)
    return op


def quantum_echo(rng, wd):
    """fig2 Gaussian-packet echo at M = 100 and 150, and the fig5 shake echo."""
    op = Op()
    packet = {"kind": "magnetic", "initial": "gaussian",
              "mu_z": rng.uniform(19.0, 21.0), "sigma_z": 8.0,
              "amplitude1": rng.uniform(0.4, 0.6), "width1": 0.5,
              "time1": 60.0, "t_max": 200.0, "dt_sample": 0.1,
              "spin_average": "true"}
    shake = {"basis_size": 50, "kind": "shake", "initial": "ground",
             "amplitude1": rng.uniform(1.35, 1.65), "width1": 1.0,
             "time1": 0.0, "amplitude2": rng.uniform(0.09, 0.11),
             "width2": 0.16, "time2": 150.0, "t_max": 470.0,
             "dt_sample": 0.1, "spin_average": "false"}
    runs = {"m100": {"basis_size": 100, **packet},
            "m150": {"basis_size": 150, **packet}, "shake": shake}
    for tag, params in runs.items():
        cfg = os.path.join(wd, f"echo_{tag}.cfg")
        op.configs[cfg] = ("quantum-echo", config_text(params))
        op.argvs.append(["quantum-echo", "--config", cfg, "--out-dir", wd,
                         "--out", f"echo_{tag}.csv"])

    def check():
        traces = {tag: gates.columns(os.path.join(wd, f"echo_{tag}.csv"),
                                     "t", "z_avg") for tag in runs}
        t, z150 = traces["m150"]
        values = gates.check_traces_agree(traces["m100"][1], z150, 1e-5)
        values.update(gates.check_echo(t, z150, 2.0))
        values.update(gates.check_echo_times(*traces["shake"], (300.0, 450.0),
                                             10.0))
        return values

    op.checks.append(check)
    return op


def classical_echo(rng, wd):
    """fig1 classical ensemble echo with two post-kick phase-space snapshots."""
    op = Op()
    cfg = os.path.join(wd, "classical.cfg")
    op.configs[cfg] = ("classical-echo", config_text({
        "n": N_PARTICLES, "mu_z": 20.0, "mu_v": 0.0, "sigma_z": 4.0,
        "sigma_v": 0.125, "seed": rng.randrange(2 ** 31),
        "kick_amplitude": rng.uniform(0.4, 0.6), "kick_width": 0.5,
        "kick_time": 60.0, "t_max": 200.0, "dt_sample": 0.1}))
    op.argvs.append(["classical-echo", "--config", cfg, "--out-dir", wd,
                     "--out", "series.csv",
                     "--snapshot", ",".join(f"{t:g}" for t in SNAPSHOTS)])

    def check():
        series = os.path.join(wd, "series.csv")
        t, z = gates.columns(series, "t", "z_avg")
        values = gates.check_echo(t, z, 3.0)
        values.update(gates.check_recurrence(t, z, 2.0))
        values.update(gates.check_energy(os.path.join(wd, "snapshots.csv"),
                                         *SNAPSHOTS, N_PARTICLES, 1e-9))
        return values

    op.checks.append(check)
    return op


WORKLOADS = {"spectroscopy": spectroscopy, "quantum-echo": quantum_echo,
             "classical-echo": classical_echo}

