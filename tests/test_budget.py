"""The quantum presets' error budget: at the default step count the basis,
not the stepper, bounds each preset's output."""

from importlib import resources

import numpy as np
import pytest

from qbounce.cli import main, parse_config_text, read_scan_csv
from qbounce.quantum import DEFAULT_STEPS_PER_SIGMA

# preset -> (command, output CSV, column compared)
QUANTUM_PRESETS = {
    "fig2": ("quantum-echo", "series.csv", "z_avg"),
    "fig5": ("quantum-echo", "series.csv", "z_avg"),
    "fig4": ("scan", "scan.csv", "population"),
    "fig6": ("scan", "scan.csv", "population"),
}


def _preset_column(where, preset, **keys):
    """The preset's output column from `main`, with config ``keys``
    replaced; the resolved config is written to ``where`` and run from
    there."""
    command, out, column = QUANTUM_PRESETS[preset]
    text = (resources.files("qbounce.presets") / f"{preset}.cfg").read_text()
    cfg = parse_config_text(text, command) | keys
    where.mkdir()
    path = where / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert main([command, "--config", str(path), "--out-dir", str(where)]) == 0
    _, columns, data = read_scan_csv(where / out)
    return data[:, columns.index(column)], cfg


@pytest.mark.parametrize("preset", QUANTUM_PRESETS)
def test_step_error_is_under_a_quarter_of_the_basis_error(tmp_path, preset):
    """Step error: the change at 4x the default steps per sigma.  Basis
    error: the change at twice the preset's basis size.  Measured ratios
    are 1.1e-4 (fig2), 0.098 (fig5), 1.0e-3 (fig4) and 7.7e-5 (fig6)."""
    base, cfg = _preset_column(tmp_path / "base", preset)
    fine, _ = _preset_column(tmp_path / "fine", preset,
                             steps_per_sigma=4 * DEFAULT_STEPS_PER_SIGMA)
    large, _ = _preset_column(tmp_path / "large", preset,
                              basis_size=2 * cfg["basis_size"])
    step, basis = np.max(np.abs(fine - base)), np.max(np.abs(large - base))
    assert step <= 0.25 * basis
