"""CLI plumbing: configs, presets, outputs, unit conversion, exit codes."""

import json

import numpy as np
import pytest

from qbounce.classical import propagate, sample_initial
from qbounce.cli import main, parse_config_text, read_scan_csv
from qbounce.pulses import KickPulse

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
    from qbounce.cli import ConfigError
    with pytest.raises(ConfigError):
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
                 "--peaks", str(peaks_json), "--count", "3",
                 "--noise-floor", "1e-4"]) == 0
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


def test_out_dir_routes_outputs(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SCAN_CFG.format(a1=0.0, a2=0.0))
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    assert main(["scan", "--config", str(cfg), "--out", "scan.csv",
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "scan.csv").exists()


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
        start = sample_initial(300, 20.0, 0.0, 4.0, 0.125, 3, spin=s)
        for t in snaps:
            block = data[(data[:, 0] == t) & (data[:, 3] == s)]
            ref = propagate(start, t, [pulse])
            assert np.max(np.abs(block[:, 1] - ref.z)) < 1e-10
            assert np.max(np.abs(block[:, 2] - ref.v)) < 1e-10


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


def test_quantum_echo_bad_initial_state(tmp_path):
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
