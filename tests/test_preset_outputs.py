"""`tools/preset_outputs.py --diff` on small synthetic output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "preset_outputs.py"
_spec = importlib.util.spec_from_file_location("preset_outputs", _TOOL)
preset_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_outputs)

_SCAN = "# version = 0.1.0\n# dtau = 0.05\ntau,p\n0.05,0.5\n0.1,0.25\n"
_PEAKS = [{"i": 2, "omega_measured": 1.75, "omega_theory": 1.76}]


def _outputs(root, scan=_SCAN, peaks=_PEAKS):
    """One preset's directory, ``fig4``, with a scan CSV and a peak list."""
    (root / "fig4").mkdir(parents=True)
    (root / "fig4" / "scan.csv").write_text(scan)
    (root / "fig4" / "peaks.json").write_text(json.dumps(peaks))
    return root


def _diff(tmp_path, capsys, **new):
    code = preset_outputs.diff(_outputs(tmp_path / "old"),
                               _outputs(tmp_path / "new", **new))
    return code, capsys.readouterr().out.splitlines()


def test_identical_outputs(tmp_path, capsys):
    code, lines = _diff(tmp_path, capsys)
    assert code == 0
    assert lines == ["fig4/peaks.json: identical", "fig4/scan.csv: identical"]


def test_header_only_change_names_its_keys(tmp_path, capsys):
    scan = _SCAN.replace("0.1.0", "0.2.0").replace("tau,", "# seed = 3\ntau,")
    code, lines = _diff(tmp_path, capsys, scan=scan)
    assert code == 0
    assert lines[1] == "fig4/scan.csv: header seed version"


def test_moved_column_prints_its_largest_change(tmp_path, capsys):
    peaks = [dict(_PEAKS[0], omega_measured=1.5)]
    code, lines = _diff(tmp_path, capsys, scan=_SCAN.replace("0.25", "0.75"),
                        peaks=peaks)
    assert code == 0
    assert lines == ["fig4/peaks.json: i 0, omega_measured 0.25, "
                     "omega_theory 0",
                     "fig4/scan.csv: tau 0, p 0.5"]


@pytest.mark.parametrize("change", ["missing", "longer"])
def test_missing_file_or_column_length_change_fails(tmp_path, capsys, change):
    new = _outputs(tmp_path / "new", scan=_SCAN + "0.15,0.125\n")
    if change == "missing":
        (new / "fig4" / "peaks.json").unlink()
    code = preset_outputs.diff(_outputs(tmp_path / "old"), new)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    if change == "missing":
        assert lines[0] == f"fig4/peaks.json: missing in {new}"
    else:
        assert lines[1] == "fig4/scan.csv: tau nan, p nan"
