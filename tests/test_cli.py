"""CLI plumbing: configs, presets, outputs, unit conversion, exit codes."""

import argparse
import ast
import json
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbounce
from qbounce import basis as basis_module
from qbounce import classical, cli
from qbounce.airy import airy_zeros
from qbounce.basis import BasisProjectionError, QuadratureError, build_basis
from qbounce.classical import sample_initial
from qbounce.cli import (_scan_from_csv, main, parse_config_text,
                         read_scan_csv, write_csv)
from qbounce.pulses import KickPulse
from qbounce.quantum import mean_height_trace

from helpers import (ground_coeffs, legacy_csv_text, plain_csv_text,
                     propagate, read_scan_csv_lines, verlet_flight)

# hard-coded preset parameter tables; any drift in the shipped config files
# is a bug
EXPECTED_PRESETS = {
    "fig1": {"n": 20000, "mu_z": 20.0, "mu_v": 0.0, "sigma_z": 4.0,
             "sigma_v": 0.125, "kick_amplitude": 0.5, "kick_width": 0.5,
             "kick_time": 60.0},
    "fig2": {"basis_size": 50, "kind": "magnetic", "mu_z": 20.0,
             "sigma_z": 8.0, "amplitude1": 0.5, "width1": 0.5, "time1": 60.0},
    "fig4": {"kind": "magnetic", "amplitude1": 2.0, "amplitude2": 1.0,
             "width1": 0.2, "width2": 0.2},
    "fig5": {"kind": "shake", "amplitude1": 1.5, "width1": 1.0,
             "time1": 0.0, "amplitude2": 0.10, "width2": 0.16,
             "time2": 150.0},
    "fig6": {"kind": "shake", "amplitude1": 0.6, "amplitude2": 0.1,
             "width1": 0.2, "width2": 0.2},
}

_PRESET_MODE = {"fig1": "classical-echo", "fig2": "quantum-echo",
                "fig4": "scan", "fig5": "quantum-echo", "fig6": "scan"}


def _read_csv(path):
    header = {}
    rows = []
    columns = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            header[k.strip()] = v.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


# ----------------------------------------------------------------- basis

def test_basis_table_values(tmp_path):
    out = tmp_path / "basis.csv"
    assert main(["basis", "--M", "6", "--out", str(out)]) == 0
    header, columns, rows = _read_csv(out)
    assert columns == ["i", "energy", "norm", "omega_i1"]
    assert header["version"]
    omegas = [float(r[3]) for r in rows[1:]]
    # reference values quoted truncated to 3 decimals (z_61 = 6.68454...)
    assert omegas == pytest.approx([1.750, 3.182, 4.449, 5.606, 6.684],
                                   abs=1e-3)


@pytest.mark.parametrize("m", [1, 6, 50, 400])
def test_basis_table_matches_the_row_loop(tmp_path, m):
    """The table equals its rows built one state at a time, (i, z_i, N_i,
    z_i - z_1) with i an int, formatted one value at a time."""
    out = tmp_path / "basis.csv"
    assert main(["basis", "--M", str(m), "--out", str(out)]) == 0
    basis = build_basis(m)
    rows = [(i + 1, float(z), float(n), float(z - basis.zeros[0]))
            for i, (z, n) in enumerate(zip(basis.zeros, basis.norms))]
    assert out.read_text() == legacy_csv_text(
        [("M", m)], ["i", "energy", "norm", "omega_i1"], rows)


# ---------------------------------------------------------------- presets

@pytest.mark.parametrize("preset,expected", sorted(EXPECTED_PRESETS.items()))
def test_preset_encodes_expected_parameters(preset, expected):
    from importlib import resources
    text = (resources.files("qbounce.presets") / f"{preset}.cfg").read_text()
    cfg = parse_config_text(text, _PRESET_MODE[preset])
    for key, value in expected.items():
        assert cfg[key] == value, (preset, key)


# ----------------------------------------------------------------- config

def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["scan", "--config", str(cfg)]) == 1


def test_missing_required_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("basis_size = 10\n")
    assert main(["scan", "--config", str(cfg)]) == 1


def test_duplicate_key_rejected():
    from qbounce import InputError
    with pytest.raises(InputError):
        parse_config_text("n = 1\nn = 2\n", "classical-echo")


def test_config_and_preset_are_exclusive(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("")
    assert main(["scan", "--config", str(cfg), "--preset", "fig4"]) == 1
    assert main(["scan"]) == 1


# ------------------------------------------------------------------ scan

SCAN_CFG = """\
basis_size = 10
kind = magnetic
amplitude1 = {a1}
width1 = 0.2
amplitude2 = {a2}
width2 = 0.2
tau_min = 2.0
tau_max = 30.0
dtau = 0.1
"""


def test_zero_kick_scan_is_flat(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SCAN_CFG.format(a1=0.0, a2=0.0))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    header, columns, data = read_scan_csv(str(out))
    assert columns == ["tau", "population", "overlap"]
    assert header["basis_size"] == "10"
    assert np.allclose(data[:, 1], 1.0, rtol=0, atol=1e-10)


def test_scan_spectrum_retrieve_pipeline(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        SCAN_CFG.format(a1=0.5, a2=0.5).replace("tau_max = 30.0",
                                                "tau_max = 120.0"))
    scan_csv = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(scan_csv)]) == 0

    spec_csv = tmp_path / "spec.csv"
    peaks_json = tmp_path / "peaks.json"
    assert main(["spectrum", "--in", str(scan_csv), "--out", str(spec_csv),
                 "--peaks", str(peaks_json), "--count", "3"]) == 0
    peaks = json.loads(peaks_json.read_text())
    assert len(peaks) == 3
    assert {p["i"] for p in peaks} == {2, 3, 4}
    for p in peaks:
        assert abs(p["rel_error_percent"]) < 2.0

    amps_json = tmp_path / "amps.json"
    assert main(["retrieve", "--in", str(scan_csv), "--count", "2",
                 "--out", str(amps_json)]) == 0
    payload = json.loads(amps_json.read_text())
    assert [s["i"] for s in payload["states"]] == [2, 3]
    assert payload["fit_residual_rms"] < 0.05


def test_overlap_column_labels_the_close_delays(tmp_path):
    """The scan CSV's overlap column is 1 where tau < 3 (width1 + width2),
    at unequal widths too."""
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SCAN_CFG.format(a1=0.5, a2=0.5).replace(
        "width2 = 0.2", "width2 = 0.3").replace("tau_min = 2.0",
                                                "tau_min = 0.1"))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    _, columns, data = read_scan_csv(str(out))
    assert columns[2] == "overlap"
    assert 0 < data[:, 2].sum() < len(data)
    assert np.array_equal(data[:, 2], data[:, 0] < 3.0 * (0.2 + 0.3))


def _pipeline_scan(tmp_path):
    """A 300-row M = 10 scan CSV, written by `qbounce scan`."""
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SCAN_CFG.format(a1=0.5, a2=0.5))
    scan_csv = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(scan_csv)]) == 0
    return scan_csv


def test_spectrum_and_retrieve_build_no_basis(tmp_path, monkeypatch):
    """Both read the lines from the scan's energies, not from a basis."""
    scan_csv = _pipeline_scan(tmp_path)

    def refuse(m):
        raise AssertionError(f"build_basis({m}) called")

    monkeypatch.setattr(cli, "build_basis", refuse)
    for command in ("spectrum", "retrieve"):
        assert main([command, "--in", str(scan_csv), "--count", "2",
                     "--out-dir", str(tmp_path)]) == 0
    assert {"spec.csv", "peaks.json", "amps.json"} <= set(os.listdir(tmp_path))


def test_spectrum_csv_names_one_version_and_the_scan_version(tmp_path):
    """spec.csv carries this run's version once, and the scan's as
    scan_version."""
    scan_csv = _pipeline_scan(tmp_path)
    text = scan_csv.read_text().replace(f"# version = {cli.__version__}",
                                        "# version = 0.0.1")
    scan_csv.write_text(text)
    assert main(["spectrum", "--in", str(scan_csv), "--count", "2",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    assert [x for x in lines if x.startswith("# version =")] == \
        [f"# version = {cli.__version__}"]
    assert "# scan_version = 0.0.1" in lines


@pytest.mark.parametrize("grid", ["reversed", "nonuniform"])
def test_spectrum_of_an_unsorted_or_nonuniform_scan_is_a_config_error(
        tmp_path, capsys, grid):
    """The FFT needs ascending, uniform delays: a scan CSV with its rows
    reversed, or with one delay moved, exits 1 naming the file and writes
    nothing."""
    scan_csv = _pipeline_scan(tmp_path)
    header, columns, data = read_scan_csv(str(scan_csv))
    if grid == "reversed":
        data = data[::-1]
    else:
        data[100, 0] += 0.01
    write_csv(str(scan_csv), sorted(header.items()), columns, data)
    assert main(["spectrum", "--in", str(scan_csv), "--count", "2",
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert (f"config error: {scan_csv}: delay grid must be ascending and "
            "uniform") in err
    assert set(os.listdir(tmp_path)) == {"scan.cfg", "scan.csv"}


def test_retrieve_of_an_all_zero_scan_exits_2(tmp_path, capsys):
    """A fitted constant of 0 gives the phases no reference: a numerical
    failure, not a list of zeros."""
    scan_csv = tmp_path / "scan.csv"
    delays = 2.0 + 0.1 * np.arange(300)
    write_csv(str(scan_csv), [("basis_size", 50)],
              ["tau", "population", "overlap"],
              np.column_stack((delays, np.zeros(300), np.zeros(300))))
    assert main(["retrieve", "--in", str(scan_csv),
                 "--out-dir", str(tmp_path)]) == 2
    assert "numerical failure: retrieval fit constant" in \
        capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scan.csv"]


@pytest.mark.parametrize("tau_max,count", [("2.33", 7), ("2.35", 8),
                                           ("30.0", 561)])
def test_scan_delays_stop_at_tau_max(tmp_path, tau_max, count):
    """The delays are tau_min + dtau k up to tau_max, counted with the
    relative 1e-12 of whole steps, so none lies past tau_max by more than
    rounding (2.33 ends at 2.30, not 2.35)."""
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SCAN_CFG.format(a1=0.0, a2=0.0).replace(
        "tau_max = 30.0", f"tau_max = {tau_max}").replace("dtau = 0.1",
                                                          "dtau = 0.05"))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    delays = read_scan_csv(str(out))[2][:, 0]
    assert delays.tobytes() == (2.0 + 0.05 * np.arange(count)).tobytes()
    assert delays[-1] <= float(tau_max) * (1.0 + 1e-15)


def test_out_dir_routes_outputs(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SCAN_CFG.format(a1=0.0, a2=0.0))
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    assert main(["scan", "--config", str(cfg), "--out", "scan.csv",
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "scan.csv").exists()


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    """An output path in a directory that does not exist exits 1 with a
    message naming it, and writes nothing."""
    missing = tmp_path / "missing"
    assert main(["basis", "--M", "5", "--out-dir", str(missing),
                 "--out", "x.csv"]) == 1
    err = capsys.readouterr().err
    assert "config error: cannot write output" in err
    assert str(missing / "x.csv") in err
    assert os.listdir(tmp_path) == []


def test_unwritable_peaks_keep_the_spectrum(tmp_path, capsys):
    """`spectrum` writes spec.csv before the peaks: an unwritable --peaks
    exits 1 naming its path, and spec.csv stays."""
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SCAN_CFG.format(a1=0.5, a2=0.5))
    scan_csv = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(scan_csv)]) == 0
    peaks = tmp_path / "missing" / "peaks.json"
    assert main(["spectrum", "--in", str(scan_csv), "--count", "2",
                 "--out-dir", str(tmp_path), "--peaks", str(peaks)]) == 1
    assert str(peaks) in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["scan.cfg", "scan.csv",
                                            "spec.csv"]


# ---------------------------------------------------------- echo commands

CLASSICAL_CFG = """\
n = 300
mu_z = 20.0
mu_v = 0.0
sigma_z = 4.0
sigma_v = 0.125
seed = 3
kick_amplitude = 0.5
kick_width = 0.5
kick_time = 10.0
t_max = 20.0
dt_sample = 0.5
"""


def test_classical_echo_csv_and_snapshots(tmp_path):
    cfg = tmp_path / "ce.cfg"
    cfg.write_text(CLASSICAL_CFG)
    out = tmp_path / "series.csv"
    assert main(["classical-echo", "--config", str(cfg), "--out", str(out),
                 "--out-dir", str(tmp_path), "--snapshot", "5,15"]) == 0
    header, columns, rows = _read_csv(out)
    assert columns == ["t", "z_plus", "z_minus", "z_avg"]
    assert len(rows) == 41
    assert float(rows[0][3]) == pytest.approx(20.0, abs=1.0)
    _, scols, srows = _read_csv(tmp_path / "snapshots.csv")
    assert scols == ["t", "z", "v", "s"]
    assert len(srows) == 2 * 2 * 300  # two times, two spins


def test_snapshots_match_propagation_from_zero(tmp_path):
    """Each snapshot equals propagate from t = 0, also past an in-window one."""
    cfg = tmp_path / "ce.cfg"
    cfg.write_text(CLASSICAL_CFG)
    snaps = [5.0, 10.2, 15.0, 18.5]  # the kick window is [7, 13]
    assert main(["classical-echo", "--config", str(cfg), "--out-dir",
                 str(tmp_path), "--snapshot", ",".join(map(str, snaps))]) == 0
    _, _, rows = _read_csv(tmp_path / "snapshots.csv")
    data = np.array(rows, dtype=float)
    pulse = KickPulse(0.5, 0.5, 10.0)
    for s in (1, -1):
        start = replace(sample_initial(300, 20.0, 0.0, 4.0, 0.125, 3), spin=s)
        for t in snaps:
            block = data[(data[:, 0] == t) & (data[:, 3] == s)]
            ref = propagate(start, t, [pulse])
            assert np.max(np.abs(block[:, 1] - ref.z)) < 1e-10
            assert np.max(np.abs(block[:, 2] - ref.v)) < 1e-10


def _snapshot_blocks(path, snaps, n):
    """The snapshot CSV's (t, z, v, s) rows as one block per spin and time,
    in the order the command writes them: spin +1's times, then spin -1's."""
    data = np.array(_read_csv(path)[2], dtype=float)
    keys = [(s, t) for s in (1, -1) for t in snaps]
    assert data.shape == (len(keys) * n, 4)
    return zip(keys, data.reshape(len(keys), n, 4))


# the default kick window is [7, 13]; the samples run to t_max = 20
_SNAPSHOT_CASES = {
    "window start and end": ("kick_time = 10.0", [7.0, 13.0]),
    "repeated times": ("kick_time = 10.0", [5.0, 10.2, 10.2, 15.0, 15.0]),
    "kick after t_max": ("kick_time = 25.0", [18.5, 24.0, 30.0]),
    "window across t_max": ("kick_time = 19.0", [17.3, 20.0, 21.0, 25.0]),
}


@pytest.mark.parametrize("kick,snaps", _SNAPSHOT_CASES.values(),
                         ids=_SNAPSHOT_CASES)
def test_snapshot_cases_match_propagation_from_zero(tmp_path, kick, snaps):
    """Snapshots on a window's edges, repeated, and past t_max through a
    kick that lies (in part) past t_max, each against one propagate from
    t = 0 (1e-10)."""
    cfg = tmp_path / "ce.cfg"
    cfg.write_text(CLASSICAL_CFG.replace("kick_time = 10.0", kick))
    assert main(["classical-echo", "--config", str(cfg), "--out-dir",
                 str(tmp_path), "--snapshot", ",".join(map(str, snaps))]) == 0
    pulse = KickPulse(0.5, 0.5, float(kick.split("=")[1]))
    for (s, t), block in _snapshot_blocks(tmp_path / "snapshots.csv", snaps,
                                          300):
        ref = propagate(replace(sample_initial(300, 20.0, 0.0, 4.0, 0.125, 3),
                                spin=s), t, [pulse])
        assert np.all(block[:, 0] == t) and np.all(block[:, 3] == s)
        assert np.max(np.abs(block[:, 1] - ref.z)) < 1e-10
        assert np.max(np.abs(block[:, 2] - ref.v)) < 1e-10


@pytest.mark.parametrize("kick,snapshot", [("kick_time = 10.0", "10.2"),
                                           ("kick_time = 10.0", "7.0,12.35"),
                                           ("kick_time = 19.0", "19.5,25")])
def test_series_does_not_depend_on_snapshots(tmp_path, kick, snapshot):
    """In-window snapshots rerun their window, and one past t_max carries the
    walk on: series.csv is byte-identical with and without them."""
    cfg = tmp_path / "ce.cfg"
    cfg.write_text(CLASSICAL_CFG.replace("kick_time = 10.0", kick))
    plain, snapped = tmp_path / "plain.csv", tmp_path / "snapped.csv"
    assert main(["classical-echo", "--config", str(cfg),
                 "--out", str(plain)]) == 0
    assert main(["classical-echo", "--config", str(cfg), "--out",
                 str(snapped), "--out-dir", str(tmp_path),
                 "--snapshot", snapshot]) == 0
    assert plain.read_bytes() == snapped.read_bytes()


def test_fig1_preset_matches_step_by_step_oracle(tmp_path, monkeypatch):
    """The fig1 series and snapshots, one of them inside the kick window
    [57, 63], against the same run stepped by the Verlet oracle (1e-10)."""
    argv = ["classical-echo", "--preset", "fig1", "--snapshot", "55,60,65,120"]
    runs = {}
    for name, kernel in (("rounds", classical._kick_flight),
                         ("oracle", verlet_flight)):
        monkeypatch.setattr(classical, "_kick_flight", kernel)
        (tmp_path / name).mkdir()
        assert main(argv + ["--out-dir", str(tmp_path / name)]) == 0
        runs[name] = [np.array(_read_csv(tmp_path / name / csv)[2], dtype=float)
                      for csv in ("series.csv", "snapshots.csv")]
    for ours, ref in zip(runs["rounds"], runs["oracle"]):
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) < 1e-10


@pytest.mark.parametrize("snapshot", ["5,abc", "5,,15", "-1", "5,-0.5", "nan",
                                      "inf"])
def test_bad_snapshot_times_fail_before_the_run(tmp_path, capsys, snapshot):
    cfg = tmp_path / "ce.cfg"
    cfg.write_text(CLASSICAL_CFG)
    assert main(["classical-echo", "--config", str(cfg), "--out-dir",
                 str(tmp_path), "--snapshot", snapshot]) == 1
    assert "--snapshot" in capsys.readouterr().err
    assert not (tmp_path / "series.csv").exists()


def test_quantum_echo_csv(tmp_path):
    cfg = tmp_path / "qe.cfg"
    cfg.write_text("""\
basis_size = 10
kind = magnetic
initial = gaussian
mu_z = 5.0
sigma_z = 2.0
amplitude1 = 0.3
width1 = 0.5
time1 = 10.0
t_max = 25.0
dt_sample = 0.5
""")
    out = tmp_path / "series.csv"
    assert main(["quantum-echo", "--config", str(cfg), "--out", str(out)]) == 0
    header, columns, rows = _read_csv(out)
    assert columns == ["t", "z_plus", "z_minus", "z_avg"]
    for key in ("final_norm_plus", "final_norm_minus"):
        assert abs(float(header[key]) - 1.0) < 1e-9, key
    assert "final_norm" not in header
    assert float(header["captured_norm"]) == \
        build_basis(10).project_gaussian(5.0, 2.0)[1]
    # spin branches split only after the kick
    assert float(rows[0][1]) == pytest.approx(float(rows[0][2]), abs=1e-12)


def test_quantum_echo_single_spin_norm(tmp_path):
    cfg = tmp_path / "qe.cfg"
    cfg.write_text("""\
basis_size = 10
kind = shake
initial = ground
amplitude1 = 0.5
width1 = 0.5
time1 = 5.0
t_max = 10.0
dt_sample = 0.5
spin_average = false
""")
    out = tmp_path / "series.csv"
    assert main(["quantum-echo", "--config", str(cfg), "--out", str(out)]) == 0
    header, columns, _ = _read_csv(out)
    assert columns == ["t", "z_plus", "z_minus", "z_avg"]
    assert abs(float(header["final_norm"]) - 1.0) < 1e-9
    assert "final_norm_plus" not in header
    assert "captured_norm" not in header  # only a projected packet has one


def test_quantum_echo_bad_initial_state(tmp_path, capsys):
    cfg = tmp_path / "qe.cfg"
    cfg.write_text("""\
basis_size = 10
kind = magnetic
initial = thermal
amplitude1 = 0.3
width1 = 0.5
time1 = 10.0
t_max = 25.0
dt_sample = 0.5
""")
    assert main(["quantum-echo", "--config", str(cfg)]) == 1
    assert "line 3: bad value for 'initial'" in capsys.readouterr().err


QUANTUM_CFG = """\
basis_size = 10
kind = magnetic
initial = ground
amplitude1 = 0.3
width1 = 0.5
time1 = 10.0
t_max = 25.0
dt_sample = 0.5
"""


_FIG5_LIKE = QUANTUM_CFG.replace("time1 = 10.0", "time1 = 0.0").replace(
    "width1 = 0.5", "width1 = 1.0")  # the samples start at -6, as in fig5


@pytest.mark.parametrize("mode,text,t_max,dt_sample,start,count", [
    ("classical-echo", CLASSICAL_CFG, "1e-9", "1e-10", 0.0, 11),
    ("classical-echo", CLASSICAL_CFG, "3e7", "1e6", 0.0, 31),
    ("quantum-echo", QUANTUM_CFG, "3e7", "1e6", 0.0, 31),
    ("quantum-echo", _FIG5_LIKE, "470.0", "0.1", -6.0, 4761),
], ids=["classical-1e-9", "classical-3e7", "quantum-3e7", "quantum-fig5"])
def test_echo_samples_stop_at_t_max(tmp_path, mode, text, t_max, dt_sample,
                                    start, count):
    """Echo samples are start + dt_sample k up to t_max, counted as the
    scan's delays: none lies past t_max, and t_max on the grid is a sample.
    An absolute slack of 1e-9 ran the 1e-9 grid to 1.9e-9, and at 3e7 it
    is below the ulp, so the grid stopped a step short."""
    cfg = tmp_path / "echo.cfg"
    for key, value in (("t_max", t_max), ("dt_sample", dt_sample)):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    cfg.write_text(text)
    out = tmp_path / "series.csv"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
    t = np.array([float(row[0]) for row in _read_csv(out)[2]])
    step = float(dt_sample)
    assert t.tobytes() == (start + step * np.arange(count)).tobytes()
    assert t[-1] == float(t_max)


def test_classical_steps_per_sigma_is_an_unknown_key(tmp_path, capsys):
    """The classical echo takes its stepper's default: steps_per_sigma is
    not one of its keys."""
    cfg = tmp_path / "ce.cfg"
    cfg.write_text(CLASSICAL_CFG + "steps_per_sigma = 200\n")
    assert main(["classical-echo", "--config", str(cfg), "--out-dir",
                 str(tmp_path)]) == 1
    assert "unknown key 'steps_per_sigma'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["ce.cfg"]


def test_single_spin_magnetic_echo_writes_both_spins(tmp_path):
    """With spin_average = false a magnetic echo still writes spin -1's
    trace under z_minus and both final norms; z_avg is spin +1's trace,
    as a single-spin scan is spin +1's."""
    cfg = tmp_path / "qe.cfg"
    cfg.write_text(QUANTUM_CFG.replace("basis_size = 10", "basis_size = 20")
                   + "spin_average = false\n")
    out = tmp_path / "series.csv"
    assert main(["quantum-echo", "--config", str(cfg), "--out", str(out)]) == 0
    header, _, rows = _read_csv(out)
    data = np.array(rows, dtype=float)
    basis = build_basis(20)
    (_, minus), _ = mean_height_trace(basis, ground_coeffs(basis), 0.0,
                                      KickPulse(0.3, 0.5, 10.0), data[:, 0])
    assert np.max(np.abs(data[:, 2] - minus)) < 1e-12
    assert np.max(np.abs(data[:, 2] - data[:, 1])) > 1e-3
    assert np.array_equal(data[:, 3], data[:, 1])
    assert {"final_norm_plus", "final_norm_minus"} <= header.keys()


def test_quantum_echo_second_pulse(tmp_path):
    """A nonzero amplitude2 adds a second kick to both spin branches."""
    cfg = tmp_path / "qe.cfg"
    cfg.write_text(QUANTUM_CFG +
                   "amplitude2 = 0.2\nwidth2 = 0.5\ntime2 = 18.0\n")
    out = tmp_path / "series.csv"
    assert main(["quantum-echo", "--config", str(cfg), "--out", str(out)]) == 0
    data = np.array(_read_csv(out)[2], dtype=float)
    basis = build_basis(10)
    pulses = [KickPulse(0.3, 0.5, 10.0), KickPulse(0.2, 0.5, 18.0)]
    heights, _ = mean_height_trace(basis, ground_coeffs(basis), 0.0, pulses,
                                   data[:, 0])
    for col, ref in zip((1, 2), heights):
        assert np.max(np.abs(data[:, col] - ref)) < 1e-12


def test_uncaptured_packet_exits_2_without_output(tmp_path, capsys):
    cfg = tmp_path / "qe.cfg"
    cfg.write_text(QUANTUM_CFG.replace(
        "initial = ground", "initial = gaussian\nmu_z = 2.0\nsigma_z = 8.0"))
    out = tmp_path / "series.csv"
    assert main(["quantum-echo", "--config", str(cfg), "--out", str(out)]) == 2
    assert "captured norm 0.6728 < 0.95" in capsys.readouterr().err
    assert not out.exists()


def test_unconverged_projection_exits_2_without_output(tmp_path, capsys,
                                                      monkeypatch):
    """A projection that cannot reach its tolerance within the panel limit."""
    monkeypatch.setattr(basis_module, "_OVERLAP_TOL", 1e-30)
    monkeypatch.setattr(basis_module, "_MAX_PANELS", 16)
    cfg = tmp_path / "qe.cfg"
    cfg.write_text(QUANTUM_CFG.replace(
        "initial = ground", "initial = gaussian\nmu_z = 5.0\nsigma_z = 2.0"))
    out = tmp_path / "series.csv"
    assert main(["quantum-echo", "--config", str(cfg), "--out", str(out)]) == 2
    assert re.search(r"numerical failure: overlap with state \d+ did not "
                     r"converge", capsys.readouterr().err)
    assert not out.exists()


_OVERFLOWS = {
    "shake-scan-1e308": ("scan", SCAN_CFG.format(a1=1e308, a2=0.1).replace(
        "kind = magnetic", "kind = shake").replace("dtau = 0.1",
                                                   "dtau = 0.05")),
    "classical-1e200": ("classical-echo", CLASSICAL_CFG.replace(
        "kick_amplitude = 0.5", "kick_amplitude = 1e200")),
    "classical-1e308": ("classical-echo", CLASSICAL_CFG.replace(
        "kick_amplitude = 0.5", "kick_amplitude = 1e308")),
}


@pytest.mark.parametrize("mode,text", _OVERFLOWS.values(), ids=_OVERFLOWS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow
def test_overflowing_kick_exits_2_without_output(tmp_path, capsys, mode,
                                                 text):
    """A finite kick whose forcing overflows is a numerical failure, not a
    scan of nan populations or a traceback: the shake scan's populations
    and the classical energies stop being finite.  Exit 2 and no CSV."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main([mode, "--config", str(cfg), "--out-dir", str(tmp_path),
                 "--out", "out.csv"]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.cfg"]


@pytest.mark.parametrize("sigma_z", ["1e-160", "1e-200"])
def test_tiny_sigma_z_exits_1_without_output(tmp_path, capsys, sigma_z):
    """sigma_z^2 underflows (1e-320 and 0.0), so the packet's amplitude is
    not finite: a configuration error that names sigma_z, raised before any
    integral, not a numerical failure."""
    cfg = tmp_path / "qe.cfg"
    cfg.write_text(QUANTUM_CFG.replace(
        "initial = ground",
        f"initial = gaussian\nmu_z = 5.0\nsigma_z = {sigma_z}"))
    out = tmp_path / "series.csv"
    assert main(["quantum-echo", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"sigma_z = {float(sigma_z)!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("mu_z,sigma_z", [("0.0", "8.0"), ("5.0", "-1.0")])
def test_non_positive_packet_exits_1_without_output(tmp_path, capsys, mu_z,
                                                    sigma_z):
    cfg = tmp_path / "qe.cfg"
    cfg.write_text(QUANTUM_CFG.replace(
        "initial = ground",
        f"initial = gaussian\nmu_z = {mu_z}\nsigma_z = {sigma_z}"))
    out = tmp_path / "series.csv"
    assert main(["quantum-echo", "--config", str(cfg), "--out", str(out)]) == 1
    assert "mu_z and sigma_z must be positive" in capsys.readouterr().err
    assert not out.exists()


_BAD_CONFIGS = [
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5), "dtau", "-0.1"),
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5), "dtau", "0"),
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5), "tau_max", "1.0"),
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5), "tau_min", "0"),
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5), "tau_min", "-1.0"),
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5), "width1", "0"),
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5), "tau_max", "inf"),
    ("quantum-echo", QUANTUM_CFG, "time1", "nan"),
    ("quantum-echo", QUANTUM_CFG, "dt_sample", "0"),
    ("quantum-echo", QUANTUM_CFG, "dt_sample", "-0.5"),
    ("quantum-echo", QUANTUM_CFG, "t_max", "-20.0"),
    ("quantum-echo", QUANTUM_CFG, "width1", "0"),
    ("classical-echo", CLASSICAL_CFG, "kick_time", "nan"),
    ("classical-echo", CLASSICAL_CFG, "kick_width", "0"),
    ("classical-echo", CLASSICAL_CFG, "dt_sample", "0"),
    ("classical-echo", CLASSICAL_CFG, "dt_sample", "-0.5"),
    ("classical-echo", CLASSICAL_CFG, "t_max", "-1.0"),
    ("classical-echo", CLASSICAL_CFG, "n", "0"),
    ("classical-echo", CLASSICAL_CFG, "mu_z", "-1.0"),
    ("classical-echo", CLASSICAL_CFG, "mu_z", "0.0"),
    ("classical-echo", CLASSICAL_CFG, "sigma_z", "-4.0"),
    ("classical-echo", CLASSICAL_CFG, "sigma_v", "-0.5"),
    ("classical-echo", CLASSICAL_CFG, "sigma_z", "40.0"),
    ("quantum-echo", QUANTUM_CFG + "steps_per_sigma = 40\n",
     "steps_per_sigma", "-3"),
    ("quantum-echo", QUANTUM_CFG + "steps_per_sigma = 40\n",
     "steps_per_sigma", "0"),
    ("quantum-echo", QUANTUM_CFG, "basis_size", "401"),
    ("quantum-echo", QUANTUM_CFG, "basis_size", "0"),
    ("quantum-echo", QUANTUM_CFG + "mu_z = 0.0\n", "mu_z", "7.0"),
    ("quantum-echo", QUANTUM_CFG + "sigma_z = 0.0\n", "sigma_z", "2.0"),
    ("quantum-echo", QUANTUM_CFG + "width2 = 1.0\n", "width2", "0.5"),
    ("quantum-echo", QUANTUM_CFG + "time2 = 0.0\n", "time2", "18.0"),
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5) + "steps_per_sigma = 40\n",
     "steps_per_sigma", "0"),
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5), "basis_size", "401"),
]


@pytest.mark.parametrize("mode,text,key,value", _BAD_CONFIGS,
                         ids=[f"{m}-{k}={v}" for m, _, k, v in _BAD_CONFIGS])
def test_bad_numbers_fail_before_the_run(tmp_path, capsys, mode, text, key,
                                         value):
    """Non-finite values, empty or reversed grids, non-positive steps,
    widths and counts, basis sizes outside [1, 400], a classical sample
    with a non-positive mu_z, a negative width or more than 25 % of its
    Gaussian below the floor (31 % at sigma_z = 40), and a quantum key the
    run would ignore (a packet's mu_z or sigma_z with initial = ground, a
    second pulse's width2 or time2 with amplitude2 = 0) are config errors:
    exit 1 and no CSV."""
    text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert n == 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main([mode, "--config", str(cfg), "--out-dir", str(tmp_path),
                 "--out", "out.csv"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("mode,text", [
    ("scan", SCAN_CFG.format(a1=0.5, a2=0.5)), ("quantum-echo", QUANTUM_CFG)])
def test_unknown_kind_is_a_config_error_with_its_line(tmp_path, capsys, mode,
                                                      text):
    """Only magnetic and shake kicks exist: another kind fails on parsing,
    naming its line, with exit 1 and no CSV."""
    lineno = text.splitlines().index("kind = magnetic") + 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace("kind = magnetic", "kind = electric"))
    assert main([mode, "--config", str(cfg), "--out-dir", str(tmp_path),
                 "--out", "out.csv"]) == 1
    err = capsys.readouterr().err
    assert f"line {lineno}: bad value for 'kind'" in err
    assert "unknown pulse kind: 'electric'" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("m", ["0", "-2", "401"])
def test_basis_size_out_of_range_fails_before_the_run(tmp_path, capsys, m):
    out = tmp_path / "basis.csv"
    assert main(["basis", "--M", m, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@settings(max_examples=50, deadline=None)
@given(tau_min=st.floats(1e-3, 50.0), dtau=st.floats(1e-3, 1.0),
       pops=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       flags=st.lists(st.booleans(), min_size=40, max_size=40),
       basis_size=st.integers(2, 400),
       kind=st.sampled_from(["magnetic", "shake"]),
       extra=st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,11}",
                                           fullmatch=True),
                             st.from_regex(r"[A-Za-z0-9_.+-]{1,16}",
                                           fullmatch=True), max_size=4))
def test_scan_csv_round_trip(tau_min, dtau, pops, flags, basis_size, kind,
                             extra):
    """write_csv -> read_scan_csv -> _scan_from_csv returns the floats
    bitwise, the header's basis_size as its energies, and every provenance
    key; the reader agrees bitwise with a line-by-line reader."""
    delays = tau_min + dtau * np.arange(len(pops))
    pops = np.array(pops)
    flags = np.array(flags[:len(pops)])
    header = {**extra, "basis_size": basis_size, "kind": kind}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.csv")
        write_csv(path, sorted(header.items()), ["tau", "population", "overlap"],
                  [(t, p, int(o)) for t, p, o in zip(delays, pops, flags)])
        scan, zeros, back = _scan_from_csv(path, 1)
        got, oracle = read_scan_csv(path), read_scan_csv_lines(path)
    assert got[:2] == oracle[:2]
    assert got[2].tobytes() == oracle[2].tobytes()
    assert got[2].shape == oracle[2].shape
    assert scan.delays.tobytes() == delays.tobytes()
    assert scan.populations.tobytes() == pops.tobytes()
    assert np.array_equal(zeros, airy_zeros(basis_size))
    assert back == {"version": back["version"],
                    **{k: str(v) for k, v in header.items()}}


# a good scan CSV broken in one way, keyed by what the error must say;
# None removes the file
_BREAK_SCAN_CSV = {
    "No such file": lambda text: None,
    "number of columns": lambda text: text + "30.0,0.9\n",
    "could not convert": lambda text: text.replace(",0\n", ",x\n", 1),
    "no data rows": lambda text: text[:text.index("tau,")] + "tau,population\n",
    "columns named": lambda text: text.replace("overlap\n", "overlap,s\n"),
    "delays must be finite": lambda text: text.replace("overlap\n2,",
                                                       "overlap\nnan,"),
    "populations must be finite": lambda text: re.sub(
        r"^2,[^,]*,", "2,nan,", text, count=1, flags=re.M),
}


@pytest.mark.parametrize("command", ["spectrum", "retrieve"])
@pytest.mark.parametrize("basis_size,top,what", [("401", 1.0, "basis_size"),
                                                 ("abc", 1.0, "basis_size"),
                                                 ("50", 1.5, "populations")] +
                         [("50", 1.0, what) for what in _BREAK_SCAN_CSV])
@pytest.mark.filterwarnings("error")
def test_bad_scan_csv_is_a_config_error(tmp_path, capsys, command,
                                        basis_size, top, what):
    """A missing scan CSV, one with a ragged or non-numeric row, with rows
    that do not match its column line or with no data rows, a basis size
    outside [1, 400], a nan delay, or populations nan or outside [0, 1],
    exits 1 with a config error naming the file, not a traceback, and
    writes nothing."""
    scan_csv = tmp_path / "scan.csv"
    delays = 2.0 + 0.1 * np.arange(300)
    write_csv(str(scan_csv), [("basis_size", basis_size), ("kind", "magnetic")],
              ["tau", "population", "overlap"],
              np.column_stack((delays, top - 0.01 - 0.01 * np.sin(delays),
                               np.zeros(300))))
    if what in _BREAK_SCAN_CSV:
        text = _BREAK_SCAN_CSV[what](scan_csv.read_text())
        if text is None:
            scan_csv.unlink()
        else:
            scan_csv.write_text(text)
    assert main([command, "--in", str(scan_csv),
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and what in err and str(scan_csv) in err
    assert set(os.listdir(tmp_path)) <= {"scan.csv"}


def test_csv_bytes_match_the_per_value_formatter(tmp_path, monkeypatch):
    """Every CSV a subcommand writes equals the text of formatting each value
    on its own, with the integer columns (i, overlap, s) as Python ints."""
    written = []

    def record(path, header_items, columns, rows):
        written.append((path, header_items, columns, rows))
        write_csv(path, header_items, columns, rows)

    monkeypatch.setattr(cli, "write_csv", record)
    configs = {"ce.cfg": CLASSICAL_CFG, "qe.cfg": QUANTUM_CFG,
               "scan.cfg": SCAN_CFG.format(a1=0.5, a2=0.5)}
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    for argv in (["basis", "--M", "6", "--out", "basis.csv"],
                 ["classical-echo", "--config", str(tmp_path / "ce.cfg"),
                  "--out", "ce.csv", "--snapshot", "5,12,15"],
                 ["quantum-echo", "--config", str(tmp_path / "qe.cfg"),
                  "--out", "qe.csv"],
                 ["scan", "--config", str(tmp_path / "scan.cfg")],
                 ["spectrum", "--in", str(tmp_path / "scan.csv")]):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert len(written) == 6
    for path, header_items, columns, rows in written:
        rows = [[int(x) if c in ("i", "overlap", "s") else x
                 for c, x in zip(columns, row)] for row in rows]
        expected = legacy_csv_text(header_items, columns, rows)
        with open(path) as fh:
            assert fh.read() == expected, path


def test_csv_blocks_match_the_per_value_formatter(tmp_path):
    """Rows past one formatting block, signed zeros and non-finite values
    come out as the per-value formatter writes them."""
    rows = np.random.default_rng(2).standard_normal((2 * 4096 + 3, 3))
    rows[::7] *= 1e300
    rows[5] = [-0.0, np.inf, np.nan]
    rows[6] = [1e-320, -np.inf, 3.0]
    path = tmp_path / "blocks.csv"
    write_csv(path, [("k", 1)], ["a", "b", "c"], rows)
    expected = legacy_csv_text([("k", 1)], ["a", "b", "c"], rows.tolist())
    assert path.read_text() == expected


def test_csv_constant_columns_match_the_per_value_formatter(tmp_path):
    """Columns constant over a block, as the snapshot file's t and s are,
    are formatted once per block; a signed zero in a column of zeros, a
    column of -0.0 or of nan, and a column that changes only in the next
    block still come out value by value."""
    n = 2 * 4096 + 5
    rows = np.column_stack((np.repeat([65.0, 120.0], [4100, n - 4100]),
                            np.random.default_rng(3).standard_normal(n),
                            np.zeros(n), np.full(n, -0.0), np.full(n, np.nan),
                            np.full(n, -1.0)))
    rows[4097, 2] = -0.0
    path = tmp_path / "constant.csv"
    columns = ["t", "z", "zero", "neg", "nan", "s"]
    write_csv(path, [("k", 1)], columns, rows)
    expected = legacy_csv_text([("k", 1)], columns, rows.tolist())
    assert path.read_text() == expected


def _csv_case(name):
    """Rows for one shortcut of `write_csv`: columns repeated, repeated over
    part of a block only, repeated but for a signed zero, past one block,
    with a one-row last block, and beside constant columns."""
    rng = np.random.default_rng(4)
    n = cli._CSV_BLOCK_ROWS
    a, b = rng.standard_normal((2, 2 * n + 7))
    if name == "repeated":
        return np.column_stack((a, a, b, a, b))[:n - 5]
    if name == "part_of_a_block":
        c = a.copy()
        c[n + 3] = b[n + 3]  # c repeats a in the first block, not the next
        d = a.copy()
        d[-1] = -d[-1]  # d agrees with a but in the last row
        return np.column_stack((a, c, d, c))
    if name == "signed_zero":
        a[::3], a[5] = 0.0, -0.0
        c = a.copy()
        c[5] = 0.0
        return np.column_stack((a, c, a, np.abs(a)))[:100]
    if name == "past_one_block":
        return np.column_stack((b, a, a, a))
    if name == "one_row_block":
        return np.column_stack((a, a, b))[:n + 1]
    return np.column_stack((np.full(len(a), 5.0), a, a, np.full(len(a), -0.0),
                            b, np.full(len(a), np.nan)))  # constant beside


@pytest.mark.parametrize("name", ["repeated", "part_of_a_block",
                                  "signed_zero", "past_one_block",
                                  "one_row_block", "constant_beside"])
def test_csv_repeated_columns_match_one_format_per_value(tmp_path, name):
    """A column bitwise equal to an earlier one takes its text; the bytes
    are those of one "%.17g" per value, block by block."""
    rows = _csv_case(name)
    columns = [f"c{j}" for j in range(rows.shape[1])]
    path = tmp_path / "rows.csv"
    write_csv(path, [("k", 1)], columns, rows)
    assert path.read_text() == plain_csv_text([("k", 1)], columns, rows)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_consecutive_commands_match_a_fresh_parser_each(tmp_path, capsys):
    """`main` calls with different subcommands, a usage error (exit 1)
    among them, give the outputs and exit codes through the one cached
    parser that they give with a parser built afresh for every call."""
    def run(fresh):
        argvs = [["convert", "1", "--quantity", "length",
                  "--direction", "to-si"],
                 ["basis", "--M", "4", "--out", str(fresh / "a.csv")],
                 ["basis", "--out", str(fresh / "b.csv")],  # no --M
                 ["convert", "2", "--quantity", "time",
                  "--direction", "to-dimensionless"],
                 ["basis", "--M", "5", "--out", str(fresh / "c.csv")]]
        fresh.mkdir()
        got = []
        for argv in argvs:
            if fresh.name == "fresh":
                cli.build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            got.append((code, capsys.readouterr()))
        return got + sorted((p.name, p.read_text()) for p in fresh.iterdir())

    cached = run(tmp_path / "cached")
    assert [code for code, _ in cached[:5]] == [0, 0, 1, 0, 0]
    assert cached == run(tmp_path / "fresh")


# ----------------------------------------------------------------- units

def test_convert_length_to_si(capsys):
    assert main(["convert", "1", "--quantity", "length",
                 "--direction", "to-si"]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(5.87e-6, rel=5e-3)


def test_convert_gradient_to_kick_amplitude(capsys):
    assert main(["convert", "0.8", "--quantity", "gradient",
                 "--direction", "to-dimensionless"]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(0.5, rel=0.1)


def test_convert_round_trip(capsys):
    assert main(["convert", "1.375", "--quantity", "time",
                 "--direction", "to-si"]) == 0
    si = float(capsys.readouterr().out)
    assert main(["convert", str(si), "--quantity", "time",
                 "--direction", "to-dimensionless"]) == 0
    back = float(capsys.readouterr().out)
    assert back == pytest.approx(1.375, rel=1e-14)


def test_convert_gradient_to_si_rejected(capsys):
    assert main(["convert", "0.8", "--quantity", "gradient",
                 "--direction", "to-si"]) == 1


@pytest.mark.parametrize("argv", [
    ["1", "--quantity", "length", "--direction", "to-si", "--mass", "-1",
     "--gravity", "9.8"],
    ["1", "--quantity", "length", "--direction", "to-si", "--mass", "inf",
     "--gravity", "9.8"],
    ["1", "--quantity", "time", "--direction", "to-si", "--mass", "1e-27",
     "--gravity", "0"],
    ["nan", "--quantity", "length", "--direction", "to-si"],
    ["-inf", "--quantity", "energy", "--direction", "to-dimensionless"],
    ["0.8", "--quantity", "gradient", "--direction", "to-dimensionless",
     "--mass", "1e-27", "--gravity", "9.8"],
    ["1e308", "--quantity", "length", "--direction", "to-dimensionless"],
    ["1", "--quantity", "length", "--direction", "to-si", "--mass", "1e-300",
     "--gravity", "9.8"],
    ["1", "--quantity", "length", "--direction", "to-si", "--mass", "1e300",
     "--gravity", "9.8"],
    ["1", "--quantity", "time", "--direction", "to-si", "--mass", "1e-27",
     "--gravity", "1e-300"],
])
def test_convert_bad_input_exits_1(capsys, argv):
    """Non-finite or non-positive masses, gravities and values, a particle
    whose scales leave the float range, a gradient for a particle without a
    magnetic moment and a result that overflows exit 1 with an error and
    print no value."""
    try:
        code = main(["convert"] + argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and "error" in err


def test_short_scan_spectrum_is_a_config_error(tmp_path, capsys):
    """A scan CSV with fewer rows than the spectrum needs (181 < 256)
    exits 1 with a config error naming the file and writes nothing."""
    scan_csv = tmp_path / "scan.csv"
    delays = 2.0 + 0.1 * np.arange(181)
    write_csv(str(scan_csv), [("basis_size", 50), ("kind", "magnetic")],
              ["tau", "population", "overlap"],
              np.column_stack((delays, 0.9 + 0.05 * np.cos(1.75 * delays),
                               np.zeros(181))))
    assert main(["spectrum", "--in", str(scan_csv), "--out-dir",
                 str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {scan_csv}: need at least 256 samples" in err
    assert os.listdir(tmp_path) == ["scan.csv"]


@pytest.mark.parametrize("command,flags", [
    ("retrieve", ["--count", "-45"]), ("retrieve", ["--count", "0"]),
    ("spectrum", ["--count", "-2"]), ("spectrum", ["--count", "0"]),
    ("spectrum", ["--window", "hann"]), ("spectrum", ["--noise-floor", "1e-4"]),
    ("classical-echo", ["--seed", "4"]),
])
def test_count_below_one_is_a_usage_error(tmp_path, capsys, command, flags):
    """--count < 1 exits 1 naming the flag, before any work: a negative
    count would otherwise slice its lines from the end.  A flag that no
    command takes does too: the spectrum's window and peak floor are fixed,
    and a classical ensemble's seed is its config's."""
    source = (["--preset", "fig1"] if command == "classical-echo"
              else ["--in", str(tmp_path / "scan.csv")])
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--out-dir", str(tmp_path), *flags])
    assert exc.value.code == 1
    assert (f"argument {flags[0]}" if flags[0] == "--count"
            else f"unrecognized arguments: {' '.join(flags)}"
            ) in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command,count", [("spectrum", "60"),
                                           ("spectrum", "50"),
                                           ("retrieve", "50")])
def test_count_above_the_scan_lines_is_a_config_error(tmp_path, capsys,
                                                      command, count):
    """A scan on M = 50 states has 49 lines: --count 50 or 60 exits 1 with
    a config error naming the flag, not a traceback, and writes nothing."""
    scan_csv = tmp_path / "scan.csv"
    delays = 2.0 + 0.1 * np.arange(300)
    write_csv(str(scan_csv), [("basis_size", 50), ("kind", "magnetic")],
              ["tau", "population", "overlap"],
              np.column_stack((delays, 0.9 + 0.05 * np.cos(1.75 * delays),
                               np.zeros(300))))
    assert main([command, "--in", str(scan_csv), "--out-dir", str(tmp_path),
                 "--count", count]) == 1
    assert (f"config error: --count: not in [1, 49] for the scan's "
            f"basis_size 50: {count}") in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scan.csv"]


# ------------------------------------------------------------ exit codes

def test_every_check_raises_one_of_the_two_families():
    """A caller's bad value raises InputError (a ValueError, exit 1), a
    failed number an ArithmeticError (exit 2).  No check under
    src/qbounce raises a bare ValueError, except the private-call guard of
    `quantum._sub_steps`."""
    owner = {}  # (file, line) of each `raise ValueError` -> innermost scope
    for path in sorted(Path(qbounce.__file__).parent.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):  # outer first
            if not isinstance(scope, (ast.Module, ast.FunctionDef)):
                continue
            for node in ast.walk(scope):
                exc = getattr(node, "exc", None)
                if (isinstance(node, ast.Raise) and
                        getattr(getattr(exc, "func", exc), "id", None)
                        == "ValueError"):
                    owner[path.name, node.lineno] = getattr(scope, "name",
                                                            "<module>")
    assert {(f, name) for (f, _), name in owner.items()} == \
        {("quantum.py", "_sub_steps")}
    assert issubclass(qbounce.InputError, ValueError)
    assert not issubclass(qbounce.InputError, ArithmeticError)
    for error in (QuadratureError, BasisProjectionError):
        assert issubclass(error, ArithmeticError)
        assert not issubclass(error, ValueError)


# ------------------------------------------------------------ documentation

def test_every_cli_flag_is_documented():
    """Each flag of `qbounce` and of every subcommand appears in README's
    CLI section, as a whole flag (``--out`` is not found in ``--out-dir``)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    missing = [f"{name} {flag}"
               for name, p in [("qbounce", parser), *sub.choices.items()]
               for action in p._actions for flag in action.option_strings
               if flag not in ("-h", "--help") and not re.search(
                   rf"(?<![\w-]){re.escape(flag)}(?![\w-])", section)]
    assert missing == []
